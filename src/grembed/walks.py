"""Random-walk sampling: uniform, second-order biased, and typed walks.

A walk of length T takes T steps, so each stored walk holds T+1 node
indices (truncated early only when a dead end is hit). Start nodes that
cannot take a single step are skipped and counted, not emitted. Every
start node draws from its own counter-based stream keyed by
(seed, node), so the corpus is byte-identical however starts are
scheduled.

All walk kinds share one stepping kernel, ``_walk``. A kind supplies
only its start nodes and ``pick(t, prev, cur)``: for step t and the
alive walks' last two nodes it returns a group key per walk and a
lookup from key to ``(targets, AliasTable or None)``. Walks sharing a
key draw together, groups draw in ascending key order (``None`` draws
uniformly), and a walk whose group has no targets ends. Uniform and
metapath walks key on the current node; node2vec keys on it at step 1
and on ``prev * n + cur`` afterwards, with its biased tables cached per
key.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ValidationError
from .rng import node_stream


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
        accept = rng.random(size=size) < self.prob[k]
        return np.where(accept, k, self.alias[k])


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
        from .graph import _open_text

        fh, close = _open_text(target, "w")
        try:
            ids = self.node_ids or [str(i) for i in range(self.node_count)]
            for walk in self.walks:
                fh.write(" ".join(ids[v] for v in walk))
                fh.write("\n")
        finally:
            if close:
                fh.close()


def load_corpus(source, g, config=None):
    from .graph import _open_text

    fh, close = _open_text(source)
    walks = []
    try:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            walks.append(np.array([g.index_of(t) for t in line.split()],
                                  dtype=np.int64))
    finally:
        if close:
            fh.close()
    cfg = config or WalkConfig(length=max((len(w) - 1 for w in walks), default=2))
    return WalkCorpus(walks, cfg, g.node_count, node_ids=list(g.node_ids))


def _sampler(nbrs, weights):
    """Neighbor draw state: (targets, AliasTable or None for uniform)."""
    if len(nbrs) == 0 or np.all(weights == weights[0]):
        return nbrs, None
    return nbrs, AliasTable(weights)


def _walk(g, config, starts, pick):
    """Advance walks_per_node walks from each start, one step at a time.

    Nodes not in starts count as skipped. prev and cur are read back
    from each walk's row; at step 1 prev is the start itself. Draws come
    from the start's own stream, so a kind reproduces a draw sequence
    exactly only if its keys group walks the same way.
    """
    T, N = config.length, config.walks_per_node
    walks = []
    for v in starts:
        rng = node_stream(config.seed, v)
        batch = np.full((N, T + 1), -1, dtype=np.int64)
        batch[:, 0] = v
        alive = np.arange(N)
        for t in range(1, T + 1):
            if alive.size == 0:
                break
            keys, lookup = pick(t, batch[alive, max(t - 2, 0)],
                                batch[alive, t - 1])
            nxt = np.full(alive.size, -1, dtype=np.int64)
            for k in np.unique(keys):
                targets, table = lookup(k)
                if len(targets) == 0:
                    continue
                mask = keys == k
                size = int(mask.sum())
                nxt[mask] = targets[
                    rng.integers(0, len(targets), size=size) if table is None
                    else table.sample(rng, size=size)]
            batch[alive, t] = nxt
            alive = alive[nxt >= 0]
        walks.extend(row[row >= 0] for row in batch)
    return WalkCorpus(walks, config, g.node_count, g.node_count - len(starts),
                      node_ids=list(g.node_ids))


def _first_order(g):
    """Edge-weight samplers per node, plus the nodes that can step."""
    samplers = [_sampler(g.neighbors(v), g.neighbor_weights(v))
                for v in range(g.node_count)]
    return samplers, [v for v in range(g.node_count) if len(samplers[v][0])]


def sample_uniform_walks(g, config):
    """First-order walks; step probability proportional to edge weight."""
    samplers, starts = _first_order(g)
    return _walk(g, config, starts,
                 lambda t, prev, cur: (cur, samplers.__getitem__))


def _node2vec_table(g, prev, cur, p, q):
    """Alias table over cur's neighbors biased by distance to prev."""
    nbrs = g.neighbors(cur)
    if len(nbrs) == 0:
        return nbrs, None
    prev_nbrs = g.neighbors(prev)  # sorted and nonempty: it holds cur
    pos = np.minimum(np.searchsorted(prev_nbrs, nbrs), len(prev_nbrs) - 1)
    dist1 = prev_nbrs[pos] == nbrs
    factor = np.where(nbrs == prev, 1.0 / p, np.where(dist1, 1.0, 1.0 / q))
    return nbrs, AliasTable(g.neighbor_weights(cur) * factor)


def sample_node2vec_walks(g, config):
    """Second-order walks: return bias 1/p, stay-close 1, explore 1/q."""
    samplers, starts = _first_order(g)
    n = g.node_count
    cache = {}

    def biased(state):
        if state not in cache:
            pv, cu = divmod(int(state), n)
            cache[state] = _node2vec_table(g, pv, cu, config.p, config.q)
        return cache[state]

    def pick(t, prev, cur):
        if t == 1:
            return cur, samplers.__getitem__
        return prev * n + cur, biased

    return _walk(g, config, starts, pick)


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
    starts = [v for v in range(g.node_count)
              if types[v] == mp[0] and len(g.neighbors(v))]

    def pick(t, prev, cur):
        want = mp[t % len(mp)]

        def typed(u):
            nbrs = g.neighbors(u)
            ok = types[nbrs] == want
            return _sampler(nbrs[ok], g.neighbor_weights(u)[ok])
        return cur, typed

    return _walk(g, config, starts, pick)


def _pairs(corpus, offsets):
    """Both directions of each hop in ascending offsets, walk by walk."""
    out = []
    for walk in corpus.walks:
        for off in offsets:
            if off >= len(walk):
                break
            a, b = walk[:-off], walk[off:]
            out.append(np.stack([a, b], axis=1))
            out.append(np.stack([b, a], axis=1))
    if not out:
        return np.zeros((0, 2), dtype=np.int64)
    return np.concatenate(out, axis=0)


def _check_hops(name, k, corpus):
    if k < 1:
        raise ContractError(f"{name} must be >= 1")
    if k >= corpus.config.length:
        raise ContractError(
            f"{name} {k} must be < walk length {corpus.config.length}")


def extract_pairs(corpus, window):
    """(center, context) pairs within the sliding window, both directions."""
    _check_hops("window", window, corpus)
    return _pairs(corpus, range(1, window + 1))


def extract_offset_pairs(corpus, offset):
    """Pairs at signed hop offset exactly +-offset (skip-length sampling)."""
    _check_hops("offset", offset, corpus)
    return _pairs(corpus, (offset,))
