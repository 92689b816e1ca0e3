"""Independent reference implementations used to derive expected values.

Everything here is written the slow, obvious way on purpose: direct
file scans, Floyd-Warshall, triple-loop matrix products, brute-force
pair counting. Tests compare package output against these, never the
other way round.
"""

import io

import numpy as np

from grembed import autodiff as ad
from grembed.aggenc import cross_entropy_loss
from grembed.autodiff import classifier_head, predict_classes
from grembed.errors import ConfigError, ContractError, NumericError
from grembed.fixtures import _numpy_rng
from grembed.graph import Graph, export_edge_list
from grembed.rng import derived_rng
from grembed.shallow import (
    LR_MIN,
    HierarchicalSoftmaxTree,
    _init_table,
    negative_sampling_loss,
    unigram_noise,
)
from grembed.structural import _dtw
from grembed.subgraph import (
    EdgeMessageParams,
    SubgraphClassifier,
    _batch_specs,
    edge_message_tensors,
)
from grembed.walks import AliasTable


def scan_edge_file(path):
    """Count nodes / undirected edges / per-id degree straight off the file."""
    degree = {}
    edges = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = line.split()[:2]
            key = (u, v) if u <= v else (v, u)
            if key in edges:
                continue
            edges.add(key)
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
    return degree, edges


def row_unique_graph_arrays(edges, weights=None, directed=False,
                            edge_types=None):
    """The arrays ``Graph.from_edges`` builds, deduplicated the row way.

    Pairs, folded to (lo, hi) when undirected, collapse under
    ``np.unique(axis=0)``; weights sum with ``np.add.at`` in input order;
    the CSR is ordered by ``np.lexsort`` over (source, target).
    """
    edges = [(str(u), str(v)) for u, v in edges]
    ids = {u for u, _ in edges} | {v for _, v in edges}
    try:
        node_ids = sorted(ids, key=int)
    except ValueError:
        node_ids = sorted(ids)
    index = {nid: i for i, nid in enumerate(node_ids)}
    pairs = np.array([[index[u], index[v]] for u, v in edges],
                     dtype=np.int64).reshape(-1, 2)
    w = np.ones(len(pairs)) if weights is None else np.asarray(
        weights, dtype=np.float64)
    if not directed:
        pairs = np.stack([pairs.min(axis=1), pairs.max(axis=1)], axis=1)
    pairs, inv = np.unique(pairs, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    summed = np.zeros(len(pairs))
    np.add.at(summed, inv, w)
    types = None
    if edge_types is not None:
        types = np.full(len(pairs), -1, dtype=np.int64)
        types[inv] = edge_types
    src, dst, cw, ct = pairs[:, 0], pairs[:, 1], summed, types
    if not directed:
        loops = src == dst
        src, dst = (np.concatenate([src[~loops], dst[~loops], src[loops]]),
                    np.concatenate([dst[~loops], src[~loops], dst[loops]]))
        cw = np.concatenate([cw[~loops], cw[~loops], cw[loops]])
        if ct is not None:
            ct = np.concatenate([ct[~loops], ct[~loops], ct[loops]])
    order = np.lexsort((dst, src))
    offsets = np.zeros(len(node_ids) + 1, dtype=np.int64)
    for s in src:
        offsets[s + 1] += 1
    return {"node_ids": node_ids, "pair_types": types, "edge_pairs": pairs,
            "pair_weights": summed, "edge_count": len(pairs),
            "csr_offsets": np.cumsum(offsets), "csr_sources": src[order],
            "csr_targets": dst[order], "csr_weights": cw[order],
            "csr_types": None if ct is None else ct[order]}


def loop_erdos_renyi(n, p, seed=0):
    """``fixtures.erdos_renyi`` with one scalar draw per pair, in a double
    loop over i < j."""
    rng = _numpy_rng(seed, "erdos_renyi", n)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    if not edges:
        edges = [(0, 1)]
    return Graph(range(n), edges)


def loop_stochastic_block_model(sizes, p_in, p_out, seed=0):
    """``fixtures.stochastic_block_model`` with one scalar draw per pair,
    in a double loop over i < j."""
    rng = _numpy_rng(seed, "sbm")
    n = int(sum(sizes))
    labels = np.concatenate([np.full(s, b, dtype=np.int64)
                             for b, s in enumerate(sizes)])
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if labels[i] == labels[j] else p_out
            if rng.random() < p:
                edges.append((i, j))
    return Graph(range(n), edges), labels


def graph_bits(g):
    """Everything a Graph holds, as comparable values; the float arrays
    as their bytes, so equal means bit-identical."""
    arrays = (g.edge_pairs, g.pair_weights, g.pair_types, g.csr_offsets,
              g.csr_targets, g.csr_weights, g.csr_types, g.node_attributes,
              g.node_types)
    return (g.node_ids, g.directed, g.weighted,
            [None if a is None else (a.shape, a.tobytes()) for a in arrays])


def edge_list_string(g):
    """``export_edge_list`` of g, as a string."""
    buf = io.StringIO()
    export_edge_list(g, buf)
    return buf.getvalue()


def dict_coarsen(g):
    """``multiscale.coarsen``'s (coarse graph, node_map) on an undirected
    graph, the dict way.

    Supernodes are numbered in a scan of the fine nodes; each coarse
    edge's weight is summed into a dict keyed by its (lo, hi) supernode
    pair, and the coarse graph is rebuilt from id strings.
    """
    n = g.node_count
    edge_pairs, pair_weights = g.edge_pairs, g.pair_weights
    order = np.lexsort((edge_pairs[:, 1], edge_pairs[:, 0], -pair_weights))
    partner = np.full(n, -1, dtype=np.int64)
    for a, b in edge_pairs[order].tolist():
        if a != b and partner[a] == -1 and partner[b] == -1:
            partner[a] = b
            partner[b] = a
    node_map = np.full(n, -1, dtype=np.int64)
    coarse_ids = []
    for v in range(n):
        if node_map[v] != -1:
            continue
        u = partner[v]
        node_map[v] = len(coarse_ids)
        if u == -1:
            coarse_ids.append(g.node_ids[v])
        else:
            node_map[u] = node_map[v]
            coarse_ids.append(f"{g.node_ids[v]}+{g.node_ids[u]}")
    agg = {}
    for (a, b), w in zip(edge_pairs, pair_weights):
        ca, cb = int(node_map[a]), int(node_map[b])
        if ca != cb:
            key = (min(ca, cb), max(ca, cb))
            agg[key] = agg.get(key, 0.0) + float(w)
    pairs = [(coarse_ids[a], coarse_ids[b]) for a, b in sorted(agg)]
    weights = [agg[k] for k in sorted(agg)]
    return Graph.from_edges(pairs, weights=weights,
                            node_ids=coarse_ids), node_map


def string_supernode_graph(g, nodes, super_id):
    """The graph ``subgraph.supernode_pool`` encodes, for an undirected
    g, rebuilt from id strings: every edge of g plus (v, super_id) for
    each v in nodes, weight 1."""
    ids = list(g.node_ids) + [super_id]
    pairs = [(g.node_ids[int(a)], g.node_ids[int(b)])
             for a, b in g.edge_pairs]
    weights = list(g.pair_weights)
    for v in nodes:
        pairs.append((g.node_ids[int(v)], super_id))
        weights.append(1.0)
    attrs = None
    if g.node_attributes is not None:
        attrs = np.concatenate(
            [g.node_attributes, np.zeros((g.node_attributes.shape[0], 1))],
            axis=1)
    return Graph.from_edges(pairs, weights=weights, node_ids=ids,
                            node_attributes=attrs)


def add_at_entry_coefficients(n, aggregator, sym_norm, src, dst, w):
    """``aggenc._entry_coefficients`` with each degree summed by
    ``np.add.at``, one branch per aggregator."""
    if aggregator == "weighted_mean" and sym_norm:
        deg = np.zeros(n)
        np.add.at(deg, src, w)
        safe = np.where(deg > 0, deg, 1.0)
        return w / np.sqrt(safe[src] * safe[dst])
    if aggregator == "weighted_mean":
        deg = np.zeros(n)
        np.add.at(deg, src, w)
        safe = np.where(deg > 0, deg, 1.0)
        return w / safe[src]
    cnt = np.zeros(n)
    np.add.at(cnt, src, 1.0)
    safe = np.where(cnt > 0, cnt, 1.0)
    return 1.0 / safe[src]


def connected_components(g):
    """Component label per node of g (labels are 0..c-1 by first
    member), by a depth-first search from each unlabelled node."""
    labels = np.full(g.node_count, -1, dtype=np.int64)
    c = 0
    for start in range(g.node_count):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = c
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if labels[u] == -1:
                    labels[u] = c
                    stack.append(int(u))
        c += 1
    return labels


def relative_error(analytic, numeric):
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a) + np.linalg.norm(n), 1e-12)
    return float(np.linalg.norm(a - n) / denom)


def gradient_check(loss_fn, params, step=1e-5):
    """Compare tape gradients against central differences.

    ``loss_fn`` takes no arguments and must rebuild the loss from the
    given parameter tensors each call. Returns the max relative error
    across parameters (norm of difference over sum of norms).
    """
    params = list(params)
    for p in params:
        p.grad = None
    with ad.Tape():
        loss = loss_fn()
        ad.backward(loss)
    analytic = [np.array(p.grad if p.grad is not None else np.zeros_like(p.data))
                for p in params]
    worst = 0.0
    for p, ag in zip(params, analytic):
        num = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_fn().item()
            flat[i] = orig - step
            lo = loss_fn().item()
            flat[i] = orig
            nflat[i] = (hi - lo) / (2.0 * step)
        worst = max(worst, relative_error(ag, num))
        p.grad = None
    return worst


def floyd_warshall_hops(edge_pairs, n):
    """All-pairs hop distances via O(n^3) relaxation; inf if unreachable."""
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, j in edge_pairs:
        dist[i, j] = min(dist[i, j], 1.0)
        dist[j, i] = min(dist[j, i], 1.0)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    return dist


def matmul_triple_loop(a, b):
    a, b = np.asarray(a), np.asarray(b)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def matrix_power_loop(a, k):
    out = np.eye(len(a))
    for _ in range(k):
        out = matmul_triple_loop(out, a)
    return out


def jaccard_neighborhoods(adj):
    """Pairwise |N(i) & N(j)| / |N(i) | N(j)| from a dense 0/1 adjacency."""
    adj = np.asarray(adj) > 0
    n = len(adj)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ni = set(np.nonzero(adj[i])[0].tolist())
            nj = set(np.nonzero(adj[j])[0].tolist())
            union = ni | nj
            out[i, j] = len(ni & nj) / len(union) if union else 0.0
    return out


def averaged_visit_law(transition, v, T):
    """(1/T) sum_{t=1..T} row v of P^t, computed by repeated row-vector products."""
    p = np.asarray(transition, dtype=np.float64)
    row = np.zeros(p.shape[0])
    row[v] = 1.0
    acc = np.zeros(p.shape[0])
    for _ in range(T):
        row = row @ p
        acc += row
    return acc / T


def window_pairs(walks, window):
    """All (center, context) pairs within +-window offsets, both directions."""
    pairs = []
    for walk in walks:
        L = len(walk)
        for i in range(L):
            for off in range(1, window + 1):
                if i + off < L:
                    pairs.append((walk[i], walk[i + off]))
                if i - off >= 0:
                    pairs.append((walk[i], walk[i - off]))
    return pairs


def hop_pairs_loop(walks, offsets):
    """Both directions of each hop in ascending offsets, walk by walk.

    The per-walk loop that ``walks._pairs`` replaced: for each walk and
    each offset shorter than it, the forward pairs in walk order, then
    the same pairs reversed.
    """
    out = []
    for walk in walks:
        walk = np.asarray(walk, dtype=np.int64)
        for off in offsets:
            if off >= len(walk):
                break
            a, b = walk[:-off], walk[off:]
            out.append(np.stack([a, b], axis=1))
            out.append(np.stack([b, a], axis=1))
    if not out:
        return np.zeros((0, 2), dtype=np.int64)
    return np.concatenate(out, axis=0)


def reverse_arc_index_dict(g):
    """CSR slot of the reverse of each CSR arc, via a dict of all arcs."""
    pos = {}
    for e, (i, j) in enumerate(zip(g.csr_sources, g.csr_targets)):
        pos[(int(i), int(j))] = e
    rev = np.empty(len(g.csr_sources), dtype=np.int64)
    for e, (i, j) in enumerate(zip(g.csr_sources, g.csr_targets)):
        rev[e] = pos[(int(j), int(i))]
    return rev


def pmi_matrix(walks, window, n):
    """PPMI from brute-force unordered windowed co-occurrence counts."""
    co = np.zeros((n, n))
    for walk in walks:
        L = len(walk)
        for i in range(L):
            for off in range(1, window + 1):
                j = i + off
                if j < L:
                    co[walk[i], walk[j]] += 1.0
                    co[walk[j], walk[i]] += 1.0
    total = co.sum()
    marg = co.sum(axis=1)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if co[i, j] > 0 and marg[i] > 0 and marg[j] > 0:
                out[i, j] = max(0.0, np.log(co[i, j] * total / (marg[i] * marg[j])))
    return out


def auc_brute_force(pos_scores, neg_scores):
    """Mean over all (pos, neg) pairs of 1[pos > neg] + 0.5 * 1[tie]."""
    wins = 0.0
    for p in pos_scores:
        for q in neg_scores:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos_scores) * len(neg_scores))


def loop_auc_score(pos_scores, neg_scores):
    """Rank-formula AUC, ties averaged by walking each run of equal
    sorted scores one element at a time."""
    allv = np.concatenate([np.asarray(pos_scores, dtype=np.float64),
                           np.asarray(neg_scores, dtype=np.float64)])
    order = np.argsort(allv, kind="mergesort")
    ranks = np.empty(allv.size, dtype=np.float64)
    sorted_vals = allv[order]
    i = 0
    while i < allv.size:
        j = i
        while j + 1 < allv.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos, n_neg = len(pos_scores), len(neg_scores)
    rank_sum = ranks[:n_pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def loop_sample_non_edges(g, count, seed):
    """harness.sample_non_edges one scalar draw pair at a time, with the
    taken pairs in a Python set; raises after 1000 * count draws."""
    existing = {(min(a, b), max(a, b)) for a, b in g.edge_pairs.tolist()}
    rng = derived_rng(seed, "non_edges")
    out = []
    guard = 0
    n = g.node_count
    while len(out) < count:
        guard += 1
        if guard > 1000 * count:
            raise ConfigError("graph too dense to sample non-edges")
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key in existing:
            continue
        existing.add(key)
        out.append(key)
    return np.array(out, dtype=np.int64)


def dtw_cost_table(a, b, cost_fn):
    """Classic O(len(a) * len(b)) dynamic-time-warping table; returns min cost."""
    la, lb = len(a), len(b)
    if la == 0 and lb == 0:
        return 0.0
    if la == 0 or lb == 0:
        return np.inf
    table = np.full((la + 1, lb + 1), np.inf)
    table[0, 0] = 0.0
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            c = cost_fn(a[i - 1], b[j - 1])
            table[i, j] = c + min(table[i - 1, j], table[i, j - 1],
                                  table[i - 1, j - 1])
    return float(table[la, lb])


def dtw_distance(a, b):
    """``structural._dtw`` of one pair of nonempty degree sequences."""
    a, b = (np.asarray(x, dtype=np.float64).reshape(1, -1) for x in (a, b))
    if a.size == 0 or b.size == 0:
        raise ContractError("dtw needs nonempty sequences")
    return float(_dtw(a, [a.size], b, [b.size])[0])


def heat_kernel_dense(laplacian, s):
    """e^{-s L} via eigendecomposition done longhand."""
    lam, u = np.linalg.eigh(np.asarray(laplacian, dtype=np.float64))
    return u @ np.diag(np.exp(-s * lam)) @ u.T


def per_node_graphwave(g, s, t_grid):
    """GraphWave one node at a time: (samples, psi) as stacked rows.

    Node v's psi is column v of the heat kernel, copied out; its samples
    are the characteristic function of psi on ``t_grid`` as interleaved
    (real, imag) pairs.
    """
    lam, u = np.linalg.eigh(g.laplacian())
    heat = (u * np.exp(-s * lam)) @ u.T
    samples, psis = [], []
    for v in range(g.node_count):
        psi = heat[:, v]
        phase = np.exp(1j * np.outer(t_grid, psi)).mean(axis=1)
        row = np.empty(2 * t_grid.size)
        row[0::2] = phase.real
        row[1::2] = phase.imag
        samples.append(row)
        psis.append(psi.copy())
    return np.array(samples), np.array(psis)


def nmi_from_counts(a, b):
    """Arithmetic-mean-normalized mutual information of two labelings."""
    a, b = np.asarray(a), np.asarray(b)
    n = a.size
    ca, cb = np.unique(a), np.unique(b)
    joint = np.zeros((ca.size, cb.size))
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            joint[i, j] = np.sum((a == x) & (b == y)) / n
    pa, pb = joint.sum(axis=1), joint.sum(axis=0)
    mi = 0.0
    for i in range(ca.size):
        for j in range(cb.size):
            if joint[i, j] > 0:
                mi += joint[i, j] * np.log(joint[i, j] / (pa[i] * pb[j]))
    ha = -np.sum(pa[pa > 0] * np.log(pa[pa > 0]))
    hb = -np.sum(pb[pb > 0] * np.log(pb[pb > 0]))
    if ha == 0.0 or hb == 0.0:
        return 0.0
    return mi / ((ha + hb) / 2.0)


def softmax_cross_entropy_loss(z_t, pairs):
    """- sum log softmax(z_center . Z)[context] (full normalization):
    the tape twin of ``shallow._softmax_step``."""
    n = z_t.data.shape[0]
    centers = ad.take_rows(z_t, pairs[:, 0])
    logits = ad.matmul(centers, ad.transpose(z_t))
    probs = ad.softmax_rows(logits)
    onehot = np.zeros((len(pairs), n))
    onehot[np.arange(len(pairs)), pairs[:, 1]] = 1.0
    picked = ad.reduce_sum(ad.mul(probs, onehot), axis=1)
    return ad.neg(ad.reduce_sum(ad.log(picked)))


def hierarchical_softmax_loss(z_t, w_t, pairs, tree):
    """- sum log P(context | center) under the tree factorization:
    the tape twin of ``shallow._hsoftmax_step``."""
    b = len(pairs)
    d = tree.depth
    pn = tree.path_nodes[pairs[:, 1]].reshape(-1)
    ps = tree.path_signs[pairs[:, 1]].reshape(-1, 1)
    pm = tree.path_mask[pairs[:, 1]].reshape(-1, 1)
    zc = ad.take_rows(z_t, np.repeat(pairs[:, 0], d))
    wv = ad.take_rows(w_t, pn)
    signed = ad.mul(ad.dot_rows(zc, wv), ps)
    logp = ad.mul(ad.log_sigmoid(signed), pm)
    return ad.neg(ad.reduce_sum(logp))


def tape_skipgram_train(g, pairs, config, loss_kind, context_table=False,
                        pair_weights=None, dim=None, init=None, seed_tag=""):
    """Skip-gram minibatch SGD through the autodiff tape.

    Same arguments, streams and lr schedule as shallow._skipgram_train;
    every batch builds its tape loss, runs backward and takes a dense
    Sgd step over whole tables.
    """
    dim = dim or config.dim
    n = g.node_count
    z = ad.parameter(_init_table(g, dim, config.seed, init))
    params = [z]
    tree = w_tree = ctx = noise_table = None
    if loss_kind == "hsoftmax":
        tree = HierarchicalSoftmaxTree(g.degrees(weighted=True))
        w_tree = ad.parameter(np.zeros((tree.n_internal, dim)))
        params.append(w_tree)
    if loss_kind == "negsamp":
        if context_table:
            rng = derived_rng(config.seed, "ctx_init", seed_tag)
            ctx = ad.parameter(rng.uniform(-0.5, 0.5, size=(n, dim)) / dim)
            params.append(ctx)
            counts = g.degrees(weighted=True)
        else:
            counts = np.bincount(pairs[:, 1], minlength=n).astype(np.float64)
            if counts.sum() == 0:
                counts = g.degrees(weighted=True)
        noise_table = AliasTable(unigram_noise(counts))
    total_batches = config.epochs * int(np.ceil(len(pairs) / config.batch_size))
    opt = ad.Sgd(params)
    history = []
    batch_no = 0
    for epoch in range(config.epochs):
        order = derived_rng(config.seed, "shuffle", seed_tag, epoch
                            ).permutation(len(pairs))
        noise_rng = derived_rng(config.seed, "noise", seed_tag, epoch)
        epoch_loss = 0.0
        for lo in range(0, len(pairs), config.batch_size):
            rows = order[lo:lo + config.batch_size]
            batch = pairs[rows]
            annealed = config.lr + (LR_MIN - config.lr) * (
                batch_no / max(1, total_batches - 1))
            opt.lr = annealed / len(batch)
            opt.zero_grad()
            with ad.Tape():
                if loss_kind == "hsoftmax":
                    loss = hierarchical_softmax_loss(z, w_tree, batch, tree)
                elif loss_kind == "softmax":
                    loss = softmax_cross_entropy_loss(z, batch)
                else:
                    negs = noise_table.sample(
                        noise_rng, size=(len(batch), config.negatives))
                    bw = None if pair_weights is None else pair_weights[rows]
                    loss = negative_sampling_loss(z, batch, negs, context_t=ctx,
                                                  pair_weights=bw)
                epoch_loss += loss.item()
                ad.backward(loss)
            opt.step()
            batch_no += 1
        history.append(epoch_loss / len(pairs))
    return z.data, history


def unique_sparse_sgd(table, rows, grad, lr, where):
    """shallow._sparse_sgd with its distinct rows found by np.unique.

    The sorted form the sort-free helper replaced: same bincount sums in
    input order, same check before any write.
    """
    uniq, inv = np.unique(rows, return_inverse=True)
    d = table.shape[1]
    flat = ((inv * d)[:, None] + np.arange(d)).ravel()
    acc = np.bincount(flat, weights=grad.ravel(),
                      minlength=uniq.size * d).reshape(uniq.size, d)
    if not np.isfinite(acc).all():
        raise NumericError(f"non-finite gradient in {where}")
    table[uniq] -= lr * acc


def branch_log_sigmoid_slope(x):
    """shallow._log_sigmoid_slope with log sigmoid taken branch by branch."""
    e = np.exp(-np.abs(x))
    tail = np.log1p(e)
    pos = x >= 0
    return np.where(pos, -tail, x - tail), np.where(pos, e, 1.0) / (1.0 + e)


def masked_hsoftmax_step(params, batch, tree):
    """shallow._hsoftmax_step in its masked form, by fancy indexing.

    ``params`` holds z's ``tree.n_leaves`` rows, then the tree's vectors.
    Off a leaf's path the tree's sign is 0 and its mask is 0; this form
    multiplies by the mask in the gradient too, takes log sigmoid branch
    by branch, and forms the z and tree gradients apart.
    """
    n = tree.n_leaves
    z, w_tree = params[:n], params[n:]
    nodes = tree.path_nodes[batch[:, 1]]
    signs = tree.path_signs[batch[:, 1]]
    mask = tree.path_mask[batch[:, 1]]
    zc = z[batch[:, 0]]
    wv = w_tree[nodes]
    logsig, slope = branch_log_sigmoid_slope(
        np.einsum("btd,bd->bt", wv, zc) * signs)
    loss = -float((logsig * mask).sum())
    g = -mask * slope * signs
    grad_z = np.einsum("bt,btd->bd", g, wv)
    grad_w = np.einsum("bt,bd->btd", g, zc).reshape(-1, z.shape[1])
    return (loss, np.concatenate([batch[:, 0], nodes.ravel() + n]),
            np.concatenate([grad_z, grad_w]))


def fresh_log_sigmoid_slope(x):
    """shallow._log_sigmoid_slope with each step a fresh array."""
    e = np.exp(-np.abs(x))
    tail = np.log1p(e)
    return np.minimum(x, 0) - tail, np.where(x >= 0, e, 1.0) / (1.0 + e)


def fresh_negsamp_step(params, ctx, batch, negs, weights=None):
    """shallow._negsamp_step by fancy indexing into fresh arrays.

    The same arithmetic, each term formed as a new array: the positive
    and noise log sigmoids taken apart, each gradient block apart.
    """
    b, k = negs.shape
    rows = np.concatenate([batch[:, 0], batch[:, 1] + ctx, negs.ravel() + ctx])
    vecs = params[rows]
    zi, zj, zn = vecs[:b], vecs[b:2 * b], vecs[2 * b:].reshape(b, k, -1)
    pos, pos_slope = fresh_log_sigmoid_slope(np.einsum("bd,bd->b", zi, zj))
    neg, gn = fresh_log_sigmoid_slope(-np.einsum("bkd,bd->bk", zn, zi))
    if weights is not None:
        w = np.asarray(weights)
        pos, pos_slope = pos * w, pos_slope * w
        neg, gn = neg * w[:, None], gn * w[:, None]
    loss = -(float(pos.sum()) + float(neg.sum()))
    gp = -pos_slope[:, None]
    grad_i = np.einsum("bk,bkd->bd", gn, zn) + gp * zj
    grad = np.concatenate([grad_i, gp * zi,
                           np.einsum("bk,bd->bkd", gn, zi).reshape(b * k, -1)])
    return loss, rows, grad


def fresh_softmax_step(z, batch):
    """shallow._softmax_step by fancy indexing into fresh arrays."""
    b = np.arange(len(batch))
    zc = z[batch[:, 0]]
    logits = zc @ z.T
    logits = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    total = p.sum(axis=1, keepdims=True)
    loss = -float((logits[b, batch[:, 1]] - np.log(total[:, 0])).sum())
    p = p / total
    p[b, batch[:, 1]] -= 1.0
    return (loss, np.concatenate([batch[:, 0], np.arange(len(z))]),
            np.concatenate([p @ z, p.T @ zc]))


def recursive_tree_paths(weights):
    """HierarchicalSoftmaxTree's path_nodes, path_signs and path_mask
    from the recursive build.

    Leaves sorted by weight, descending, ties by index; each run of
    leaves split after its first (size + 1) // 2, with the left run
    signed +1; internal nodes numbered by a counter in preorder; every
    path written entry by entry.
    """
    w = np.asarray(weights, dtype=np.float64)
    n = w.size
    order = np.lexsort((np.arange(n), -w))
    paths = [None] * n
    counter = [0]

    def build(leaves, prefix):
        if len(leaves) == 1:
            paths[leaves[0]] = prefix
            return
        node = counter[0]
        counter[0] += 1
        mid = (len(leaves) + 1) // 2
        build(leaves[:mid], prefix + [(node, 1.0)])
        build(leaves[mid:], prefix + [(node, -1.0)])

    build([int(v) for v in order], [])
    depth = max(len(p) for p in paths)
    nodes = np.zeros((n, depth), dtype=np.int64)
    signs = np.zeros((n, depth))
    mask = np.zeros((n, depth))
    for v, path in enumerate(paths):
        for t, (node, sign) in enumerate(path):
            nodes[v, t] = node
            signs[v, t] = sign
            mask[v, t] = 1.0
    return nodes, signs, mask


def tape_train_logistic(x, y, epochs=300, lr=0.1, seed=0):
    """harness.train_logistic with its gradient from the autodiff tape.

    Same init and Adam; each epoch builds aggenc.cross_entropy_loss on
    the tape and runs backward.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    theta, bias = classifier_head(derived_rng(seed, "logistic_init"),
                                  x.shape[1], int(y.max()) + 1, 0.01)
    opt = ad.Adam([theta, bias], lr=lr)
    for _ in range(epochs):
        opt.zero_grad()
        with ad.Tape():
            loss = cross_entropy_loss(ad.constant(x), theta, bias, y)
            ad.backward(loss)
        opt.step()
    return theta.data, bias.data


def loop_classify_subgraphs(specs, rounds=2, edge_dim=8, out_dim=8,
                            epochs=200, lr=0.01, seed=42, activation="tanh",
                            target_acc=None):
    """classify_subgraphs with a second, untaped forward per epoch that
    scores each step, the pooled sums taken by np.add.at."""
    labels_raw = [s.label for s in specs]
    classes = sorted(set(labels_raw), key=str)
    y = np.array([classes.index(l) for l in labels_raw], dtype=np.int64)
    union, batch, x = _batch_specs(specs)
    params = EdgeMessageParams(x.shape[1], edge_dim, out_dim, rounds,
                               seed=seed, activation=activation)
    theta, theta_b = classifier_head(derived_rng(seed, "subgraph_head"),
                                     out_dim, len(classes), 0.1)
    opt = ad.Adam(params.tensors() + [theta, theta_b], lr=lr)
    model = SubgraphClassifier(params, theta, theta_b, classes)
    accuracy = 0.0
    for epoch in range(epochs):
        opt.zero_grad()
        with ad.Tape():
            h = edge_message_tensors(union, params, x)
            pooled = ad.segment_sum(h, batch, len(specs))
            loss = cross_entropy_loss(pooled, theta, theta_b, y)
            ad.backward(loss)
        opt.step(f"subgraph classifier, epoch {epoch}")
        pooled_now = np.zeros((len(specs), out_dim))
        np.add.at(pooled_now, batch,
                  edge_message_tensors(union, params, x).data)
        pred = predict_classes(pooled_now @ theta.data + theta_b.data)
        accuracy = float((pred == y).mean())
        model.history.append((loss.item(), accuracy))
        if target_acc is not None and accuracy >= target_acc:
            break
    return model, accuracy
