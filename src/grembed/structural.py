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

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, NumericError, ResourceLimitError
from .graph import DENSE_NODE_CAP, _open_text
from .rng import derived_rng
from .shallow import EmbeddingTable, ShallowConfig, _skipgram_train
from .walks import WalkConfig, WalkCorpus, extract_pairs


def _ratio_cost(a, b):
    hi, lo = (a, b) if a >= b else (b, a)
    return hi / lo - 1.0


def dtw_distance(a, b):
    """Dynamic time warping with the degree-ratio ground cost.

    Cost between degree values a, b is max(a,b)/min(a,b) - 1, so a
    sequence compared with a scaled copy of itself stays cheap.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.size == 0 or b.size == 0:
        raise ContractError("dtw needs nonempty sequences")
    table = np.full((a.size + 1, b.size + 1), np.inf)
    table[0, 0] = 0.0
    for i in range(1, a.size + 1):
        for j in range(1, b.size + 1):
            c = _ratio_cost(a[i - 1], b[j - 1])
            table[i, j] = c + min(table[i - 1, j], table[i, j - 1],
                                  table[i - 1, j - 1])
    return float(table[-1, -1])


def _ring_cost(a, b):
    # rings can be empty on small-diameter graphs; keep the recursion
    # total by comparing a lone placeholder degree of 1 instead
    if a.size == 0 and b.size == 0:
        return 0.0
    one = np.ones(1)
    if a.size == 0:
        return dtw_distance(one, b)
    if b.size == 0:
        return dtw_distance(a, one)
    return dtw_distance(a, b)


def degree_sequences(g, k_max):
    """Sorted degree list of each exact-k-hop ring, k = 1..k_max.

    Returns a list over nodes of dicts mapping k to an ascending
    float array (empty array when the ring is empty).
    """
    if k_max < 1:
        raise ContractError("k_max must be >= 1")
    deg = g.degrees().astype(np.float64)
    out = []
    for v in range(g.node_count):
        dist = g.bfs_distances(v)
        rings = {}
        for k in range(1, k_max + 1):
            members = np.nonzero(dist == k)[0]
            rings[k] = np.sort(deg[members])
        out.append(rings)
    return out


def struc2vec_distances(g, k_max=3):
    """Cumulative per-layer structural distances.

    Layer k's distance adds the DTW cost between the k-hop ring
    degree sequences onto layer k-1's; layer 0 is all zeros and is
    not returned. Element [k-1] of the result is the (n, n) matrix
    for layer k, so the sequence is monotone non-decreasing in k.
    """
    rings = degree_sequences(g, k_max)
    n = g.node_count
    prev = np.zeros((n, n))
    layers = []
    for k in range(1, k_max + 1):
        step = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                step[i, j] = step[j, i] = _ring_cost(rings[i][k], rings[j][k])
        prev = prev + step
        layers.append(prev.copy())
    return layers


def _multilayer_walks(g, layers, walk_length, walks_per_node, switch_prob, seed):
    """Walks over the layered similarity graph, recording node ids only.

    Within a layer the next node is drawn proportional to e^{-w_k};
    before each step the walk moves one layer up or down with the
    given probability (node unchanged), staying put at the stack ends.
    """
    n = g.node_count
    weights = []
    for w in layers:
        m = np.exp(-w)
        np.fill_diagonal(m, 0.0)
        sums = m.sum(axis=1, keepdims=True)
        dead = sums.reshape(-1) == 0
        if dead.any():
            m[dead] = 1.0
            np.fill_diagonal(m, 0.0)
            sums = m.sum(axis=1, keepdims=True)
        weights.append(m / sums)
    walks = []
    for v in range(n):
        rng = derived_rng(seed, "struc2vec_walk", v)
        for _ in range(walks_per_node):
            layer = 0
            cur = v
            walk = [cur]
            for _ in range(walk_length - 1):
                if len(weights) > 1 and rng.random() < switch_prob:
                    if layer == 0:
                        layer = 1
                    elif layer == len(weights) - 1:
                        layer -= 1
                    else:
                        layer += 1 if rng.random() < 0.5 else -1
                cur = int(rng.choice(n, p=weights[layer][cur]))
                walk.append(cur)
            walks.append(walk)
    return walks


def struc2vec_embed(g, k_max=3, dim=16, walk_length=20, walks_per_node=8,
                    window=4, switch_prob=0.3, epochs=3, lr=0.025,
                    negatives=5, seed=42):
    """Role embeddings from walks over the layered distance graph.

    The walk pairs are trained with the same negative-sampling
    skip-gram used for proximity walks; only the corpus differs, so
    nodes with similar rings embed nearby even when far apart.
    """
    layers = struc2vec_distances(g, k_max)
    walks = _multilayer_walks(g, layers, walk_length, walks_per_node,
                              switch_prob, seed)
    cfg = WalkConfig(length=walk_length, walks_per_node=walks_per_node,
                     seed=seed)
    corpus = WalkCorpus(walks, cfg, g.node_count, node_ids=list(g.node_ids))
    pairs = extract_pairs(corpus, window)
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


@dataclass
class WaveletSignature:
    """Heat diffusion pattern of one node plus its summary samples."""

    node: int
    psi: np.ndarray
    char_samples: np.ndarray = field(default=None)


def default_t_grid():
    return np.linspace(0.0, 100.0, 50)


def graphwave_signature(g, s=0.5, t_grid=None, nodes=None, cap=DENSE_NODE_CAP):
    """Per-node heat-kernel wavelets and characteristic-function samples.

    psi_v = U diag(e^{-s lambda}) U^T e_v over the combinatorial
    Laplacian L = D - A. The signature samples
    phi_v(t) = mean_j exp(i t psi_v[j]) on the t grid, stored as
    interleaved (real, imag) pairs; coordinates of psi are column
    order, so only the samples are permutation-invariant.
    """
    if s < 0:
        raise ContractError("heat-kernel scale s must be >= 0")
    if g.node_count > cap:
        raise ResourceLimitError(
            f"dense eigendecomposition capped at {cap} nodes")
    if t_grid is None:
        t_grid = default_t_grid()
    t_grid = np.asarray(t_grid, dtype=np.float64).reshape(-1)
    lap = g.laplacian()
    try:
        lam, u = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"laplacian eigendecomposition failed: {e}")
    heat = (u * np.exp(-s * lam)) @ u.T
    if nodes is None:
        nodes = range(g.node_count)
    out = []
    for v in nodes:
        psi = heat[:, v]
        phase = np.exp(1j * np.outer(t_grid, psi)).mean(axis=1)
        samples = np.empty(2 * t_grid.size)
        samples[0::2] = phase.real
        samples[1::2] = phase.imag
        out.append(WaveletSignature(int(v), psi.copy(), samples))
    return out


def signature_matrix(signatures):
    """Stack char_samples rows, (n, 2 * n_t)."""
    return np.array([sig.char_samples for sig in signatures])


def export_signatures(target, signatures, node_ids, include_psi=False):
    """TSV rows: node_id then the samples (psi appended on request)."""
    with _open_text(target, "w") as fh:
        for sig in signatures:
            row = [str(node_ids[sig.node])]
            row.extend("%.17g" % x for x in sig.char_samples)
            if include_psi:
                row.extend("%.17g" % x for x in sig.psi)
            fh.write("\t".join(row) + "\n")


def degree_refinement_classes(g, rounds=None):
    """Structural classes by iterated neighbor-class refinement.

    Starts from degrees and repeatedly splits classes on the sorted
    multiset of neighbor classes until stable; automorphically
    equivalent nodes always share a class. Returns int labels
    numbered by first appearance.
    """
    n = g.node_count
    if rounds is None:
        rounds = n
    colors = g.degrees().astype(np.int64)
    colors = _canonical(colors)
    for _ in range(rounds):
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
