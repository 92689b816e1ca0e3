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
# node's degree; bounds the step's scratch arrays.
CHUNK_SLOTS = 1 << 17
# propose-and-accept rounds a walk runs per step before _step takes it
ROUNDS = 4


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
        """Draw indices; one uniform pick plus one coin flip per draw."""
        k = rng.integers(0, self.n, size=size)
        accept = rng.random(size=size) < self.prob.take(k)
        return np.where(accept, k, self.alias.take(k))


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
    """Sampled walks plus bookkeeping for later pair extraction."""

    walks: list
    config: WalkConfig
    node_count: int
    skipped_starts: int = 0
    node_ids: list = field(default=None, repr=False)

    def __len__(self):
        return len(self.walks)

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
            walks.append(np.array([g.index_of(t) for t in line.split()],
                                  dtype=np.int64))
    cfg = config or WalkConfig(length=max((len(w) - 1 for w in walks), default=2))
    return WalkCorpus(walks, cfg, g.node_count, node_ids=list(g.node_ids))


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
    total = np.bincount(g.csr_sources, g.csr_weights, g.node_count)
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
    lengths = (batch >= 0).sum(axis=1)
    walks = [row[:k] for row, k in zip(batch, lengths.tolist())]
    return WalkCorpus(walks, config, g.node_count, g.node_count - starts.size,
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


def _pairs(corpus, offsets):
    """Both directions of each hop in ascending offsets, walk by walk.

    For each walk and then each offset, the forward pairs in walk order
    come first, then the same pairs reversed.
    """
    lengths = np.array([len(w) for w in corpus.walks], dtype=np.int64)
    if not lengths.size:
        return np.zeros((0, 2), dtype=np.int64)
    padded = np.full((lengths.size, lengths.max()), -1, dtype=np.int64)
    inside = np.arange(padded.shape[1]) < lengths[:, None]
    padded[inside] = np.concatenate(corpus.walks)
    offsets = np.asarray(list(offsets), dtype=np.int64)
    hops = np.maximum(lengths[:, None] - offsets, 0)
    begin = np.cumsum(2 * hops).reshape(hops.shape) - 2 * hops
    out = np.empty((2 * int(hops.sum()), 2), dtype=np.int64)
    for k, off in enumerate(offsets.tolist()):
        w, i = np.nonzero(inside[:, off:])
        a, b = padded[w, i], padded[w, i + off]
        at = begin[w, k] + i
        out[at] = np.stack([a, b], axis=1)
        out[at + hops[w, k]] = np.stack([b, a], axis=1)
    return out


def _check_hops(name, k, length):
    if k < 1:
        raise ContractError(f"{name} must be >= 1")
    if k >= length:
        raise ContractError(f"{name} {k} must be < walk length {length}")


def extract_pairs(corpus, window):
    """(center, context) pairs within the sliding window, both directions."""
    _check_hops("window", window, corpus.config.length)
    return _pairs(corpus, range(1, window + 1))


def extract_offset_pairs(corpus, offset):
    """Pairs at signed hop offset exactly +-offset (skip-length sampling)."""
    _check_hops("offset", offset, corpus.config.length)
    return _pairs(corpus, (offset,))
