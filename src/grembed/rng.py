"""Seeded random-number plumbing: one counter-based generator.

Every draw is a splitmix64 hash, ``_mix64(key + counter * PHI)`` (PHI the
golden-ratio increment), for a 64-bit key and a counter. ``derived_rng``
names a stream by an integer seed and a key of ints and strings: a
string is its code points then 0xFFFF, an int is read modulo 2**32, and
the stream's key folds the seed, then each part, into a key that starts
at 0 as one splitmix64 step each, ``key = mix((key ^ part) + PHI)``.
A ``Stream`` hands out consecutive counters, so its draws do not depend
on how they are chunked: ``random(a)`` then ``random(b)`` equals
``random(a + b)``. Walk sampling keys one such stream per walk:
``walk_states`` folds (seed, walk) into the walk's key once, and
``hashed_uniforms`` gives that key's draw for a counter, so a walk's
draws do not depend on which other walks are stepped with it or in what
order. A seed is read modulo 2**64, so a negative seed names the streams
of its 64-bit two's complement.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15


def _mix64(z):
    """splitmix64's output function, in place on a uint64 array
    (wrapping)."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _mix_int(z):
    """``_mix64`` on one Python int."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _hashes(key, counters):
    """The draws of stream ``key`` at uint64 ``counters`` (consumed)."""
    counters *= np.uint64(_PHI)
    counters += np.uint64(key)
    return _mix64(counters)


def _to_unit(h):
    """Top 53 bits of uint64 hashes (consumed) as uniforms in [0, 1)."""
    h >>= np.uint64(11)
    return h * 2.0 ** -53


def stream_parts(stream):
    """A stream key's ints: each string's code points then 0xFFFF, each
    int modulo 2**32."""
    parts = []
    for s in stream:
        if isinstance(s, str):
            parts.extend(ord(c) for c in s)
            parts.append(0xFFFF)
        else:
            parts.append(int(s) & 0xFFFFFFFF)
    return parts


def derived_rng(seed, *stream):
    """The ``Stream`` for a (seed, *ints-or-strings) stream key."""
    key = 0
    for p in [int(seed) & _MASK64, *stream_parts(stream)]:
        key = _mix_int((key ^ p) + _PHI & _MASK64)
    return Stream(key)


def _size(size):
    return 1 if size is None else int(np.prod(size))


def _shaped(a, size):
    return a[0].item() if size is None else a.reshape(size)


class Stream:
    """Counter-based draws under one key, with the Generator methods
    grembed calls. Each call takes the next counters: one per uniform,
    integer, choice with replacement or round key, two per normal, and
    one per item for a choice without replacement."""

    __slots__ = ("key", "counter")

    def __init__(self, key):
        self.key, self.counter = key, 0

    def _bits(self, count):
        lo = self.counter
        self.counter += count
        return _hashes(self.key, np.arange(lo, lo + count, dtype=np.uint64))

    def random(self, size=None):
        """Uniforms in [0, 1)."""
        return _shaped(_to_unit(self._bits(_size(size))), size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return low + (high - low) * self.random(size)

    def integers(self, low, high=None, size=None):
        """Integers in [low, high), or [0, low) without ``high``: the
        floor of a uniform times the range."""
        if high is None:
            low, high = 0, low
        u = _to_unit(self._bits(_size(size)))
        return _shaped(low + (u * (high - low)).astype(np.int64), size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        """Box–Muller on consecutive counter pairs (cosine branch only)."""
        u = _to_unit(self._bits(2 * _size(size)))
        z = np.sqrt(-2.0 * np.log1p(-u[0::2])) * np.cos(2.0 * np.pi * u[1::2])
        return _shaped(loc + scale * z, size)

    def choice(self, a, size=None, replace=True, p=None):
        """Items of ``a`` (an array, or ``range(a)`` for an int): by
        inverse cdf of ``p``, uniformly, or without replacement as the
        first ``size`` of the items sorted by one uniform each."""
        items = np.arange(a) if np.ndim(a) == 0 else np.asarray(a)
        n = len(items)
        if not replace:
            first = np.argsort(self.random(n), kind="stable")[:_size(size)]
            return _shaped(items.take(first), size)
        u = _to_unit(self._bits(_size(size)))
        if p is None:
            idx = (u * n).astype(np.int64)
        else:
            cdf = np.cumsum(p)
            idx = np.searchsorted(cdf, u * cdf[-1], side="right")
        return _shaped(items.take(idx), size)

    def permutation(self, count):
        """A keyed order of ``range(count)``: ``permutation_blocks`` run
        to the end in one block."""
        return np.concatenate([np.zeros(0, dtype=np.int64),
                               *self.permutation_blocks(count, count)])

    def permutation_blocks(self, count, span):
        """``permutation(count)`` in consecutive blocks of ``span`` values
        (the last may be shorter), holding O(span) at a time.

        The order is a 4-round alternating Feistel bijection of
        [0, 2**k), k the bit length of count - 1, its round functions
        this stream's hashes under 4 drawn round keys, enumerated in
        order with the values >= count dropped; each round function is
        tabulated over its half, O(sqrt(count)) values. The round keys are
        drawn here, so the stream moves on by 4 counters when this is
        called.
        """
        return _feistel_blocks(self._bits(4).tolist(), count, span)


def _feistel_blocks(keys, count, span):
    bits = max(count - 1, 0).bit_length()
    lo_bits, hi_bits = bits - bits // 2, bits // 2
    # round r XORs F_r(lo) into hi (r even) or F_r(hi) into lo (r odd);
    # F_r(y) is the hash of counter y under round key r, cut to the
    # width of the half it goes into and tabulated over y
    tables = []
    for r, key in enumerate(keys):
        src, dst = (hi_bits, lo_bits) if r % 2 else (lo_bits, hi_bits)
        h = _hashes(key, np.arange(1 << src, dtype=np.uint64))
        tables.append((h & np.uint64((1 << dst) - 1)).astype(np.int64))
    held = np.zeros(0, dtype=np.int64)
    at, end = 0, (1 << bits) * (count > 0)
    while True:
        while held.size < span and at < end:
            x = np.arange(at, min(at + span, end))
            at += x.size
            hi, lo = x >> lo_bits, x & ((1 << lo_bits) - 1)
            for r, table in enumerate(tables):
                if r % 2:
                    lo ^= table.take(hi)
                else:
                    hi ^= table.take(lo)
            hi <<= lo_bits
            hi |= lo
            held = np.concatenate([held, hi[hi < count]])
        if not held.size:
            return
        yield held[:span]
        held = held[span:]


def walk_states(seed, streams):
    """The key of each walk's stream, mix(mix(seed) ^ stream): a
    bijection of the stream for a fixed seed."""
    key = _mix64(np.array([int(seed) & _MASK64], dtype=np.uint64))
    return _mix64(key ^ np.asarray(streams, dtype=np.uint64))


def hashed_uniforms(states, step):
    """Uniform in [0, 1) per state: the draw at counter ``step`` of the
    stream each state keys (see ``walk_states``)."""
    return _to_unit(_mix64(states + np.uint64(_PHI * int(step) & _MASK64)))
