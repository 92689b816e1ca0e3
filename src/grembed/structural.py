"""Role embeddings: nodes match by local topology, not proximity.

Two routes to the same idea. The degree-sequence route compares nodes
by the sorted degrees of their exact-k-hop rings, accumulates dynamic
time warping costs into per-layer distances, and runs walks over the
resulting multilayer similarity graph. The spectral route diffuses a
unit of heat from each node through the Laplacian and summarizes the
diffusion pattern with an empirical characteristic function, so nodes
playing identical structural parts get identical signatures wherever
they sit in the graph.
"""

import numpy as np

from .errors import (
    ContractError,
    NumericError,
    ResourceLimitError,
    ValidationError,
)
from .graph import Graph
from .shallow import EmbeddingTable, ShallowConfig, _skipgram_train
from .walks import WalkConfig, WalkCorpus, WalkPairs, _check_hops, _walk

# struc2vec's DTW covers n(n - 1)/2 node pairs at each of k_max layers. On
# erdos_renyi(n, 6/(n - 1), seed=1) at k_max 3 it took 4.4, 55 and 231 s of
# CPU at 200, 400 and 600 nodes (one core, numpy 2.4.6), and _layered_graph
# then holds 7 n(n - 1) = 2,515,800 arcs: 600 is the largest measured size
# under 330 s.
STRUC2VEC_NODE_CAP = 600
# float64 cells, pairs * (ring length + 1)^2, of one block of DTW tables
DTW_BLOCK_CELLS = 1 << 22


def _dtw(a, la, b, lb):
    """DTW cost of each row pair (a[p, :la[p]], b[p, :lb[p]]), shape (P,).

    The ground cost between degrees is max(x, y)/min(x, y) - 1. All pairs
    fill their tables an anti-diagonal at a time; a pair's (la, lb) cell
    reads none of its padding.
    """
    rows, cols = a.shape[1], b.shape[1]
    table = np.full((rows + 1, cols + 1, len(a)), np.inf)
    table[0, 0] = 0.0
    a, b = a.T, b.T
    for d in range(2, rows + cols + 1):
        i = np.arange(max(1, d - cols), min(rows, d - 1) + 1)
        j = d - i
        x, y = a[i - 1], b[j - 1]
        best = np.minimum(np.minimum(table[i - 1, j], table[i, j - 1]),
                          table[i - 1, j - 1])
        table[i, j] = np.maximum(x, y) / np.minimum(x, y) - 1.0 + best
    return table[la, lb, np.arange(len(la))]


def degree_sequences(g, k_max):
    """Sorted degree list of each exact-k-hop ring, k = 1..k_max.

    Returns a list over nodes of dicts mapping k to an ascending
    float array (empty array when the ring is empty).
    """
    if k_max < 1:
        raise ContractError("k_max must be >= 1")
    deg = g.degrees()
    return [{k: np.sort(deg[dist == k]) for k in range(1, k_max + 1)}
            for dist in map(g.bfs_distances, range(g.node_count))]


def struc2vec_distances(g, k_max=3):
    """Cumulative per-layer structural distances.

    Layer k's distance adds the DTW cost between the k-hop ring
    degree sequences onto layer k-1's; layer 0 is all zeros and is
    not returned. Element [k-1] of the result is the (n, n) matrix
    for layer k, so the sequence is monotone non-decreasing in k.
    Graphs above STRUC2VEC_NODE_CAP nodes, and directed graphs where an
    arc reaches a node of out-degree 0 (a ring degree the ratio cost
    cannot divide by), are refused before any of that work.
    """
    n = g.node_count
    if n > STRUC2VEC_NODE_CAP:
        raise ResourceLimitError(f"struc2vec distances on {n} nodes exceed "
                                 f"cap {STRUC2VEC_NODE_CAP}")
    sinks = np.flatnonzero(
        (g.degrees() == 0) & (np.bincount(g.csr_targets, minlength=n) > 0))
    if sinks.size:
        raise ValidationError(
            f"struc2vec ring degrees must be >= 1: node "
            f"{g.node_ids[sinks[0]]!r} has an in-arc but out-degree 0")
    rings = degree_sequences(g, k_max)
    first, second = np.triu_indices(n, 1)
    layers = []
    for k in range(1, k_max + 1):
        # an empty ring compares as the lone degree 1
        seqs = [r[k] if r[k].size else np.ones(1) for r in rings]
        lens = np.array([s.size for s in seqs], dtype=np.int64)
        padded = np.ones((n, max(lens, default=1)))
        for v, s in enumerate(seqs):
            padded[v, :s.size] = s
        block = max(1, DTW_BLOCK_CELLS // (padded.shape[1] + 1) ** 2)
        step = np.zeros((n, n))
        for lo in range(0, first.size, block):
            s, t = first[lo:lo + block], second[lo:lo + block]
            step[s, t] = step[t, s] = _dtw(padded[s], lens[s],
                                           padded[t], lens[t])
        layers.append(layers[-1] + step if layers else step)
    return layers


def _layered_graph(layers, switch_prob):
    """Directed graph over (layer, node) states; state k*n + v is v in layer k.

    A step first moves the layer: it stays with 1 - switch_prob, else
    goes one layer up or down (half each), inward at either end of the
    stack. It then draws the next node u in the new layer k' with
    probability e^{-w_k'(v, u)} over its row sum, the diagonal held at 0
    and a row that is all 0 made uniform over the other nodes. So the
    arc (k, v) -> (k', u) weighs P(k -> k') times that probability; the
    arcs are built one (k, k') block at a time.
    """
    K, n = len(layers), layers[0].shape[0]
    move = np.eye(K) if K == 1 else np.eye(K) * (1.0 - switch_prob)
    for k in range(K - 1):
        move[k, k + 1] = switch_prob if k == 0 else switch_prob / 2
        move[k + 1, k] = switch_prob if k + 1 == K - 1 else switch_prob / 2
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    pairs, weights = [], []
    for k, w in enumerate(layers):
        m = np.exp(-w)
        np.fill_diagonal(m, 0.0)
        m[m.sum(axis=1) == 0] = 1.0
        np.fill_diagonal(m, 0.0)
        m = (m / m.sum(axis=1, keepdims=True))[src, dst]
        for j in np.flatnonzero(move[:, k]):
            pairs.append(np.stack([j * n + src, k * n + dst], axis=1))
            weights.append(move[j, k] * m)
    # the blocks go once joined, so the build holds one copy of its input
    pairs, weights = np.concatenate(pairs), np.concatenate(weights)
    return Graph(range(K * n), pairs, weights, directed=True)


def struc2vec_embed(g, k_max=3, dim=16, walk_length=20, walks_per_node=8,
                    window=4, switch_prob=0.3, epochs=3, lr=0.025,
                    negatives=5, seed=42):
    """Role embeddings from walks over the layered distance graph.

    Each walk starts in layer 0 and takes walk_length steps over
    ``_layered_graph``, recording node ids only. The walk pairs are
    trained with the same negative-sampling skip-gram used for
    proximity walks; only the corpus differs, so nodes with similar
    rings embed nearby even when far apart.
    """
    if not 0.0 <= switch_prob <= 1.0:
        raise ContractError(f"switch_prob must be in [0, 1], got {switch_prob}")
    _check_hops("window", window, walk_length)
    n = g.node_count
    cfg = WalkConfig(length=walk_length, walks_per_node=walks_per_node,
                     seed=seed)
    layered = _layered_graph(struc2vec_distances(g, k_max), switch_prob)
    states = _walk(layered, cfg, starts=np.arange(n)).matrix
    corpus = WalkCorpus(np.where(states >= 0, states % n, -1), cfg, n,
                        node_ids=list(g.node_ids))
    pairs = WalkPairs(corpus, window=window)
    train_cfg = ShallowConfig(dim=dim, epochs=epochs, lr=lr,
                              negatives=negatives, seed=seed)
    z, history = _skipgram_train(g, pairs, train_cfg, "negsamp",
                                 seed_tag="struc2vec")
    meta = {"k_max": k_max, "switch_prob": switch_prob,
            "pair_count": int(len(pairs)), "loss_history": history}
    return EmbeddingTable(z, list(g.node_ids), "struc2vec", meta)


# ---------------------------------------------------------------------
# heat-kernel signatures
# ---------------------------------------------------------------------


def heat_wavelets(g, s=0.5):
    """Heat-kernel wavelets, (n, n); row v is
    psi_v = U diag(e^{-s lambda}) U^T e_v over the combinatorial
    Laplacian L = D - A."""
    if s < 0:
        raise ContractError("heat-kernel scale s must be >= 0")
    lap = g.laplacian()
    try:
        lam, u = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"laplacian eigendecomposition failed: {e}")
    # the product is symmetric only up to rounding; row v is its column v
    return ((u * np.exp(-s * lam)) @ u.T).T


def graphwave_signature(g, s=0.5, t_max=100.0, t_points=50,
                        include_psi=False):
    """GraphWave role signatures as an ``EmbeddingTable``.

    Row v samples phi_v(t) = mean_j exp(i t psi_v[j]) of the
    ``heat_wavelets`` row psi_v at ``t_points`` evenly spaced times from
    0 to ``t_max``, as interleaved (real, imag) pairs; with
    ``include_psi``, psi_v follows. Coordinates of psi are column order,
    so only the samples are permutation-invariant.
    """
    if t_points < 1:
        raise ContractError(f"t_points must be >= 1, got {t_points}")
    psi = heat_wavelets(g, s)
    t_grid = np.linspace(0.0, t_max, t_points)
    n, width = g.node_count, 2 * t_points
    out = np.empty((n, width + (n if include_psi else 0)))
    for v, row in enumerate(psi):
        phase = np.exp(1j * np.outer(t_grid, row)).mean(axis=1)
        out[v, 0:width:2] = phase.real
        out[v, 1:width:2] = phase.imag
    if include_psi:
        out[:, width:] = psi
    meta = {"scale": s, "t_max": t_max, "t_points": t_points}
    return EmbeddingTable(out, list(g.node_ids), "graphwave", meta)


def degree_refinement_classes(g):
    """Structural classes by iterated neighbor-class refinement.

    Starts from degrees and repeatedly splits classes on the sorted
    multiset of neighbor classes until stable (at most n rounds);
    automorphically equivalent nodes always share a class. Returns int
    labels numbered by first appearance.
    """
    n = g.node_count
    colors = g.degrees().astype(np.int64)
    colors = _canonical(colors)
    for _ in range(n):
        keys = []
        for v in range(n):
            nbr = tuple(sorted(colors[u] for u in g.neighbors(v)))
            keys.append((colors[v], nbr))
        new = _canonical(keys)
        if np.array_equal(new, colors):
            break
        colors = new
    return colors


def _canonical(values):
    seen = {}
    out = np.empty(len(values), dtype=np.int64)
    for i, v in enumerate(values):
        if v not in seen:
            seen[v] = len(seen)
        out[i] = seen[v]
    return out
