"""Seeded random-number plumbing.

Every stochastic routine takes an integer seed and derives independent
streams with ``derived_rng``. Walk sampling instead hashes its draws
from a counter-based splitmix64 generator per walk: ``walk_states``
hashes (seed, walk) into the walk's state once, and
``hashed_uniforms`` gives the state's output for a counter, so a walk's
draws do not depend on which other walks are stepped with it or in what
order. Both read a seed modulo 2**64, so a negative seed names the
streams of its 64-bit two's complement.
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
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64,
                                spawn_key=tuple(parts))
    return np.random.default_rng(ss)


def _mix64(z):
    """splitmix64's output function on a uint64 array (wrapping)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def walk_states(seed, streams):
    """splitmix64 state per stream, mix(mix(seed) ^ stream): a bijection
    of the stream for a fixed seed."""
    key = _mix64(np.array([int(seed) & _MASK64], dtype=np.uint64))
    return _mix64(key ^ np.asarray(streams, dtype=np.uint64))


def hashed_uniforms(states, step):
    """Uniform in [0, 1) per state: the step-th output, top 53 bits, of
    the splitmix64 generator at that state (see ``walk_states``)."""
    h = _mix64(states + np.uint64(0x9E3779B97F4A7C15 * int(step) & _MASK64))
    return (h >> np.uint64(11)) * 2.0 ** -53
