"""Independent reference implementations used to derive expected values.

Everything here is written the slow, obvious way on purpose: direct
file scans, Floyd-Warshall, triple-loop matrix products, brute-force
pair counting. Tests compare package output against these, never the
other way round.
"""

import numpy as np

from grembed import autodiff as ad
from grembed.aggenc import classifier_head, cross_entropy_loss
from grembed.errors import NumericError
from grembed.rng import derived_rng
from grembed.shallow import (
    HierarchicalSoftmaxTree,
    _init_table,
    hierarchical_softmax_loss,
    negative_sampling_loss,
    softmax_cross_entropy_loss,
    unigram_noise,
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
            "pair_weights": summed, "csr_offsets": np.cumsum(offsets),
            "csr_targets": dst[order], "csr_weights": cw[order],
            "csr_types": None if ct is None else ct[order]}


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


def heat_kernel_dense(laplacian, s):
    """e^{-s L} via eigendecomposition done longhand."""
    lam, u = np.linalg.eigh(np.asarray(laplacian, dtype=np.float64))
    return u @ np.diag(np.exp(-s * lam)) @ u.T


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
        noise_table = AliasTable(unigram_noise(counts, config.noise_power))
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
            annealed = config.lr + (config.lr_min - config.lr) * (
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


def unique_sparse_sgd(updates, lr, where):
    """shallow._sparse_sgd with its distinct rows found by np.unique.

    The sorted form the sort-free helper replaced: same bincount sums in
    input order, same check of every table before any write.
    """
    staged = []
    for table, rows, grad in updates:
        uniq, inv = np.unique(rows, return_inverse=True)
        d = table.shape[1]
        flat = ((inv * d)[:, None] + np.arange(d)).ravel()
        acc = np.bincount(flat, weights=grad.ravel(),
                          minlength=uniq.size * d).reshape(uniq.size, d)
        if not np.isfinite(acc).all():
            raise NumericError(f"non-finite gradient in {where}")
        staged.append((table, uniq, acc))
    for table, uniq, acc in staged:
        table[uniq] -= lr * acc


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
