"""Random-walk sampling: uniform, second-order biased, and typed walks.

A walk of length T takes T steps, so each stored walk holds T+1 node
indices (truncated early only when a dead end is hit). Start nodes that
cannot take a single step are skipped and counted, not emitted.

All walk kinds share one lockstep kernel, ``_walk``: every alive walk
takes its step t at once. Its law weighs each of cur's CSR slots by the
edge weight times a per-kind factor of (t, prev, target): none for
uniform walks, node2vec's 1/p (back to prev), 1 (an arc prev -> target
exists) or 1/q (otherwise) from step 2 on, and a 0/1 type mask for
metapath walks; a walk whose slots all weigh 0 ends. A walk samples it
exactly by proposing a slot by edge weight and keeping it with
probability factor / the kind's largest factor; one still rejected after
ROUNDS rounds takes the slot ``_step`` draws from its laid-out row. Walk
j from start v hashes (seed, v * walks_per_node + j) into its generator
state once and draws each uniform as that state's output for a counter,
and no two of its draws share a counter, so the corpus is byte-identical
however the walks are cut into chunks or scheduled.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ValidationError
from .graph import _open_text, window_search
from .rng import hashed_uniforms, walk_states

# CSR slots laid out per chunk of walks in one step, plus at most one
# node's degree, or pairs decoded at once into one array; bounds scratch.
CHUNK_SLOTS = 1 << 17
# propose-and-accept rounds a walk runs per step before _step takes it
ROUNDS = 4
# pair indices per bucket of WalkPairs' block lookup
BUCKET_BITS = 6


class AliasTable:
    """O(1) sampling from a fixed discrete distribution (Vose's method)."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ContractError("alias table needs a nonempty 1-D weight vector")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ContractError("alias weights must be finite and nonnegative")
        total = w.sum()
        if total <= 0:
            raise ContractError("alias weights must not all be zero")
        n = w.size
        prob = w * (n / total)
        alias = np.zeros(n, dtype=np.int64)
        small = [i for i in range(n) if prob[i] < 1.0]
        large = [i for i in range(n) if prob[i] >= 1.0]
        prob = prob.copy()
        while small and large:
            s = small.pop()
            l = large.pop()
            alias[s] = l
            prob[l] = prob[l] - (1.0 - prob[s])
            (small if prob[l] < 1.0 else large).append(l)
        for i in large:
            prob[i] = 1.0
        for i in small:
            prob[i] = 1.0
        self.prob = prob
        self.alias = alias
        self.n = n

    def sample(self, rng, size=None):
        """Draw indices from one uniform u each: the pick is floor(u * n)
        and the coin the fractional part of u * n."""
        u = rng.random(size=size) * self.n
        k = u.astype(np.int64)
        u -= k
        return np.where(u < self.prob.take(k), k, self.alias.take(k))


@dataclass(frozen=True)
class WalkConfig:
    """Sampling parameters shared by all walk kinds."""

    length: int = 10
    walks_per_node: int = 10
    p: float = 1.0
    q: float = 1.0
    metapath: tuple = None
    seed: int = 42

    def __post_init__(self):
        if self.length < 2:
            raise ContractError("walk length must be >= 2 steps")
        if self.walks_per_node < 1:
            raise ContractError("walks_per_node must be >= 1")
        if self.p <= 0 or self.q <= 0:
            raise ContractError("p and q must be positive")
        if self.metapath is not None:
            mp = tuple(int(t) for t in self.metapath)
            if not mp:
                raise ContractError("metapath must be nonempty when given")
            object.__setattr__(self, "metapath", mp)


@dataclass
class WalkCorpus:
    """Sampled walks as one int64 matrix, each row a walk padded with -1."""

    matrix: np.ndarray
    config: WalkConfig
    node_count: int
    skipped_starts: int = 0
    node_ids: list = field(default=None, repr=False)

    @property
    def walks(self):
        """Each walk as a view of its matrix row, listed anew per access."""
        lengths = (self.matrix >= 0).sum(axis=1).tolist()
        return [row[:k] for row, k in zip(self.matrix, lengths)]

    def __len__(self):
        return len(self.matrix)

    def __iter__(self):
        return iter(self.walks)

    def dump(self, target):
        """One walk per line, space-separated external node ids."""
        with _open_text(target, "w") as fh:
            ids = self.node_ids or [str(i) for i in range(self.node_count)]
            for walk in self.walks:
                fh.write(" ".join(map(ids.__getitem__, walk.tolist())))
                fh.write("\n")


def load_corpus(source, g, config=None):
    walks = []
    with _open_text(source) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            walks.append([g.index_of(t) for t in line.split()])
    width = max(map(len, walks), default=0)
    matrix = np.array([w + [-1] * (width - len(w)) for w in walks],
                      dtype=np.int64).reshape(len(walks), width)
    cfg = config or WalkConfig(length=width - 1 if walks else 2)
    return WalkCorpus(matrix, cfg, g.node_count, node_ids=list(g.node_ids))


def _step(g, cur, prev, u, t, factor):
    """Next node of each walk at cur, or -1 where no arc has weight.

    The walks' CSR slots are laid out row after row; each slot weighs
    its edge weight times factor(t, prev, target), each row is scaled
    to sum to 1, and walk i takes the slot where u[i] falls in its row
    of the running sum. Zero-weight slots are dropped first, so the
    slot taken always has positive weight.
    """
    off, deg = g.csr_offsets[cur], g.csr_offsets[cur + 1] - g.csr_offsets[cur]
    row = np.repeat(np.arange(cur.size), deg)
    slot = np.arange(row.size) + np.repeat(off - (np.cumsum(deg) - deg), deg)
    w = g.csr_weights[slot]
    if factor is not None:
        w = w * factor(t, prev[row], g.csr_targets[slot])
    keep = w > 0
    row, slot, w = row[keep], slot[keep], w[keep]
    w /= np.bincount(row, weights=w, minlength=cur.size)[row]
    cum = np.concatenate(([0.0], np.cumsum(w)))
    kept = np.bincount(row, minlength=cur.size)
    ok = np.flatnonzero(kept)
    hi = np.cumsum(kept)[ok]
    lo = hi - kept[ok]
    nxt = np.full(cur.size, -1, dtype=np.int64)
    x = cum[lo] + u[ok] * (cum[hi] - cum[lo])
    k = np.clip(np.searchsorted(cum, x, side="right") - 1, lo, hi - 1)
    nxt[ok] = g.csr_targets[slot[k]]
    return nxt


def _walk(g, config, factor=None, starts=None, top=1.0):
    """Step walks_per_node walks from each start, all walks in lockstep.

    starts defaults to every node with an out-arc; nodes not in starts
    count as skipped. Walk j from start v has id v * walks_per_node + j.
    Each step runs up to ROUNDS rounds that propose a slot by edge weight
    from cum, the arc weights summed along each row scaled to sum 1,
    searching cur's row alone (``window_search``), and accept it when a
    second uniform times top, the kind's largest factor, falls below
    factor(t, prev, target); a scalar factor accepts all, and a
    zero-weight slot that rounding lands on is rejected. Walks left over
    take _step's slot, in runs cut by the CHUNK_SLOTS block of their first
    CSR slot to bound memory. Round r of step t draws counters c + 2r
    (propose) and c + 2r + 1 (accept), with c = (t - 1)(2 ROUNDS + 1) + 1,
    and the fallback draws c + 2 ROUNDS.
    """
    T, N, steps = config.length, config.walks_per_node, g.search_steps
    deg = np.diff(g.csr_offsets)
    starts = np.flatnonzero(deg) if starts is None else starts
    ids = (starts[:, None] * N + np.arange(N)).ravel()
    states = walk_states(config.seed, ids)
    batch = np.full((ids.size, T + 1), -1, dtype=np.int64)
    batch[:, 0] = np.repeat(starts, N)
    total = g.degrees(weighted=True)
    # +inf past the last row keeps every row's search window nondecreasing
    cum = g.pad_rows(np.concatenate(([0.0], np.cumsum(
        g.csr_weights / np.where(total > 0, total, 1.0)[g.csr_sources]))),
        np.inf)
    alive = np.arange(ids.size)
    for t in range(1, T + 1):
        if alive.size == 0:
            break
        cur, prev = batch[alive, t - 1], batch[alive, max(t - 2, 0)]
        lo, hi = g.csr_offsets[cur], g.csr_offsets[cur + 1]
        c = (t - 1) * (2 * ROUNDS + 1) + 1
        nxt = np.full(alive.size, -1, dtype=np.int64)
        todo = np.flatnonzero(cum[hi] > cum[lo])
        for r in range(ROUNDS):
            s, a, b = states[alive[todo]], lo[todo], hi[todo]
            x = cum[a] + hashed_uniforms(s, c + 2 * r) * (cum[b] - cum[a])
            k = np.clip(window_search(cum, a, x, steps, "right") - 1, a, b - 1)
            ok = cum[k + 1] > cum[k]
            f = 1.0 if factor is None else factor(t, prev[todo], g.csr_targets[k])
            if np.ndim(f):
                ok &= hashed_uniforms(s, c + 2 * r + 1) * top < f
            nxt[todo[ok]] = g.csr_targets[k[ok]]
            todo = todo[~ok]
        if todo.size:
            cur, prev = cur[todo], prev[todo]
            u = hashed_uniforms(states[alive[todo]], c + 2 * ROUNDS)
            first_slot = np.cumsum(deg[cur]) - deg[cur]
            cuts = np.flatnonzero(np.diff(first_slot // CHUNK_SLOTS)) + 1
            nxt[todo] = np.concatenate([
                _step(g, cc, pv, uu, t, factor) for cc, pv, uu in
                zip(*(np.split(v, cuts) for v in (cur, prev, u)))])
        batch[alive, t] = nxt
        alive = alive[nxt >= 0]
    return WalkCorpus(batch, config, g.node_count, g.node_count - starts.size,
                      node_ids=list(g.node_ids))


def sample_uniform_walks(g, config):
    """First-order walks; step probability proportional to edge weight."""
    return _walk(g, config)


def sample_node2vec_walks(g, config):
    """Second-order walks: return bias 1/p, stay-close 1, explore 1/q."""
    def factor(t, prev, target):
        if t == 1:
            return 1.0
        out = np.where(g.arc_slots(prev, target) >= 0, 1.0, 1.0 / config.q)
        out[target == prev] = 1.0 / config.p
        return out

    return _walk(g, config, factor, top=max(1.0, 1.0 / config.p, 1.0 / config.q))


def sample_metapath_walks(g, config):
    """Walks constrained to follow a cyclic node-type pattern.

    Position i of every walk has type metapath[i mod len(metapath)].
    Starts whose type differs from metapath[0] are skipped; a walk with
    no valid-typed neighbor truncates where it stands.
    """
    if config.metapath is None:
        raise ContractError("metapath walks need config.metapath")
    if g.node_types is None:
        raise ValidationError("graph has no node_types")
    mp, types = config.metapath, g.node_types
    present = set(np.unique(types).tolist())
    missing = [t for t in mp if t not in present]
    if missing:
        raise ValidationError(f"metapath types absent from graph: {missing}")
    return _walk(g, config,
                 lambda t, prev, target: types[target] == mp[t % len(mp)],
                 np.flatnonzero((types == mp[0]) & (np.diff(g.csr_offsets) > 0)))


class WalkPairs:
    """A corpus' (center, context) pairs within a window or at one offset.

    Pairs run walk by walk, then by ascending offset; a (walk, offset)
    block holds its forward pairs in walk order, then those reversed.
    ``take`` decodes pair p, unstored, from its block: the last one that
    starts at or before p, found by a ``window_search`` from the last
    one that starts at or before p rounded down to 2**BUCKET_BITS."""

    def __init__(self, corpus, window=None, offset=None):
        name, k = ("window", window) if offset is None else ("offset", offset)
        _check_hops(name, k, corpus.config.length)
        self.offsets = np.arange(1, k + 1) if offset is None else np.array([k])
        self.matrix, self.node_count = corpus.matrix, corpus.node_count
        self.lengths = (self.matrix >= 0).sum(axis=1)
        self.hops = np.maximum(self.lengths[:, None] - self.offsets, 0).ravel()
        starts = np.cumsum(2 * self.hops) - 2 * self.hops
        self.count = 2 * int(self.hops.sum())
        self.first = np.searchsorted(starts, np.arange(
            0, self.count, 1 << BUCKET_BITS), side="right") - 1
        # a bucket's pairs lie in at most that many blocks
        self.steps = int(np.diff(self.first, append=starts.size - 1).max(
            initial=-1) + 1).bit_length()
        # count is past every pair index, so the windows stay in range
        self.starts = np.append(starts, np.full(1 << self.steps, self.count))

    def __len__(self):
        return self.count

    def take(self, idx, axis=0):
        """Rows idx, each in [0, P), of the (P, 2) pair array, as its
        ``take(idx, axis=0)`` gives them."""
        block = window_search(self.starts, self.first.take(idx >> BUCKET_BITS),
                              idx, self.steps, "right") - 1
        walk, k = np.divmod(block, self.offsets.size)
        i, hops = idx - self.starts.take(block), self.hops.take(block)
        back = i >= hops
        at = walk * self.matrix.shape[1] + i - back * hops
        step = self.offsets.take(k)
        shift = back * step  # a reversed pair's center is the later node
        return self.matrix.take(np.stack([at + shift, at + step - shift], 1))

    def stored(self):
        """Every pair as one (P, 2) array, CHUNK_SLOTS decoded at a time."""
        out = np.empty((self.count, 2), dtype=np.int64)
        for lo in range(0, self.count, CHUNK_SLOTS):
            out[lo:lo + CHUNK_SLOTS] = self.take(
                np.arange(lo, min(lo + CHUNK_SLOTS, self.count)))
        return out

    def context_counts(self):
        """``bincount(pairs[:, 1])``: position j of a walk of length L is
        the context of a forward pair per offset <= j and of a reversed
        pair per offset <= L - 1 - j."""
        m, pos = self.matrix, np.arange(self.matrix.shape[1])
        upto = np.searchsorted(self.offsets, pos, side="right")
        mult = upto + upto.take(np.maximum(self.lengths[:, None] - 1 - pos, 0))
        return np.bincount(m[m >= 0], mult[m >= 0], self.node_count)


def _check_hops(name, k, length):
    if k < 1:
        raise ContractError(f"{name} must be >= 1")
    if k >= length:
        raise ContractError(f"{name} {k} must be < walk length {length}")


def extract_pairs(corpus, window):
    """(center, context) pairs within the sliding window, both directions."""
    return WalkPairs(corpus, window=window).stored()


def extract_offset_pairs(corpus, offset):
    """Pairs at signed hop offset exactly +-offset (skip-length sampling)."""
    return WalkPairs(corpus, offset=offset).stored()
