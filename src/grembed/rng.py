"""Seeded random-number plumbing.

Every stochastic routine takes an integer seed and derives independent
streams with ``derived_rng``; walk sampling uses counter-based Philox
streams keyed by (seed, start node) so the sampled corpus is identical
no matter how start nodes are scheduled.
"""

import numpy as np

_MASK64 = (1 << 64) - 1


def derived_rng(seed, *stream):
    """Independent Generator for a (seed, *ints-or-strings) stream key."""
    parts = []
    for s in stream:
        if isinstance(s, str):
            parts.extend(ord(c) for c in s)
            parts.append(0xFFFF)
        else:
            parts.append(int(s) & 0xFFFFFFFF)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(parts))
    return np.random.default_rng(ss)


def node_stream(seed, node_index):
    """Counter-based stream for one walk start node.

    Philox keyed by the 128-bit concatenation (seed << 64) | node gives
    each start node its own stream independent of processing order.
    """
    key = ((int(seed) & _MASK64) << 64) | (int(node_index) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))
