"""Downstream evaluation of embeddings.

Node classification fits a small logistic regression on a stratified
label split, link prediction scores held-out edges against sampled
non-edges by decoder value, and clustering compares k-means output to
reference labels by normalized mutual information. Projection reduces
embeddings to 2-d with PCA under a deterministic sign convention. All
evaluations are seed-reproducible and report per-seed values.
"""

import time
import warnings

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, ValidationError
from .graph import Graph, _distinct, _open_text, eigh_columns
from .report import EvalReport
from .rng import derived_rng


# ---------------------------------------------------------------------
# logistic regression over fixed features
# ---------------------------------------------------------------------


def _logistic_grads(x, y, theta, bias):
    """Closed-form gradients of the summed ``aggenc.cross_entropy_loss``.

    The logit gradient is softmax - onehot, or for the single sigmoid
    column -sign * (1 - sigmoid(sign * logit)) with sign = 2y - 1; theta
    takes x.T @ it and the bias its column sums. A leading stack axis,
    x (s, m, d), y (s, m), theta (s, d, c) and bias (s, 1, c), gives
    each stacked head its own gradients.
    """
    logits = x @ theta + bias
    if logits.shape[-1] == 1:
        sign = (2.0 * y - 1.0)[..., None]
        r = -(1.0 - ad._sigmoid_np(logits * sign)) * sign
    else:
        r = np.exp(logits - logits.max(axis=-1, keepdims=True))
        r /= r.sum(axis=-1, keepdims=True)
        r[(*np.indices(y.shape, sparse=True), y)] -= 1.0
    return np.swapaxes(x, -1, -2) @ r, r.sum(axis=-2, keepdims=True)


def train_logistic(x, y, epochs=300, lr=0.1, seed=0):
    """Multinomial (or sigmoid-binary) regression; returns (theta, b).

    Adam on the summed cross-entropy, its gradient in closed form. With
    x stacked as (s, m, d), y as (s, m) and one seed per stack, all s
    heads take one Adam run and come back stacked, (s, d, c) and
    (s, 1, c); each is bit for bit the head its stack fits alone, since
    Adam is elementwise, provided every stack holds the same classes.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    one = x.ndim == 2
    if one:
        x, y, seed = x[None], y[None], [seed]
    s, _, d = x.shape
    if len(seed) != s:
        raise ContractError(f"{len(seed)} seeds for {s} stacked fits")
    heads = [ad.classifier_head(derived_rng(k, "logistic_init"), d,
                                int(y.max()) + 1, 0.01) for k in seed]
    theta = ad.parameter(np.concatenate([t.data for t, _ in heads]))
    bias = ad.parameter(np.concatenate([b.data for _, b in heads]))
    thetas, biases = theta.data.reshape(s, d, -1), bias.data.reshape(s, 1, -1)
    opt = ad.Adam([theta, bias], lr=lr)
    for epoch in range(epochs):
        g_theta, g_bias = _logistic_grads(x, y, thetas, biases)
        theta.grad = g_theta.reshape(theta.data.shape)
        bias.grad = g_bias.reshape(bias.data.shape)
        opt.step(f"logistic head, epoch {epoch}")
    return (thetas[0], biases[0]) if one else (thetas, biases)


def predict_logistic(x, theta, bias):
    return ad.predict_classes(np.asarray(x) @ theta + bias)


def stratified_split(labels, train_fraction, seed):
    """Boolean train mask keeping class proportions within one node.

    Raises when a class would leave its train side empty or full, which
    only the class sizes decide, so there is nothing to redraw.
    """
    labels = np.asarray(labels)
    members = [np.nonzero(labels == c)[0] for c in _distinct(labels)]
    takes = [int(round(train_fraction * m.size)) for m in members]
    if any(t == 0 or t == m.size for t, m in zip(takes, members)):
        raise ValidationError(
            f"cannot build a stratified split at fraction {train_fraction}")
    rng = derived_rng(seed, "split", 0)
    mask = np.zeros(labels.size, dtype=bool)
    for m, t in zip(members, takes):
        mask[rng.choice(m, size=t, replace=False)] = True
    return mask


def macro_f1(y_true, y_pred):
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    scores = []
    for c in _distinct(y_true):
        tp = np.sum((y_pred == c) & (y_true == c))
        fp = np.sum((y_pred == c) & (y_true != c))
        fn = np.sum((y_pred != c) & (y_true == c))
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


def node_classification_eval(z, labels, train_fraction=0.1, seeds=range(10),
                             epochs=300, lr=0.1):
    """Accuracy and macro-F1 of logistic regression on label splits."""
    start = time.perf_counter()
    vectors = z.vectors if hasattr(z, "vectors") else np.asarray(z)
    labels = np.asarray(labels, dtype=np.int64)
    if vectors.shape[0] != labels.size:
        raise ValidationError("labels length != embedding count")
    seeds = list(seeds)
    if not seeds:
        raise ContractError("seeds must not be empty")
    # every split keeps round(fraction * size) of each class, so all
    # share one train size and class set and their heads fit as a stack
    masks = np.array([stratified_split(labels, train_fraction, seed)
                      for seed in seeds])
    if _distinct(labels[masks[0]]).size < 2:
        raise ValidationError("train split lost a class")
    train = np.nonzero(masks)[1].reshape(len(seeds), -1)
    thetas, biases = train_logistic(vectors[train], labels[train],
                                    epochs=epochs, lr=lr, seed=seeds)
    accs, f1s = [], []
    for mask, theta, bias in zip(masks, thetas, biases):
        pred = predict_logistic(vectors[~mask], theta, bias)
        accs.append(float((pred == labels[~mask]).mean()))
        f1s.append(macro_f1(labels[~mask], pred))
    return EvalReport(
        task="node_classification",
        metrics={"accuracy_mean": float(np.mean(accs)),
                 "accuracy_std": float(np.std(accs)),
                 "macro_f1_mean": float(np.mean(f1s))},
        per_seed={"accuracy": accs, "macro_f1": f1s,
                  "seed": [int(s) for s in seeds]},
        config={"train_fraction": train_fraction, "epochs": epochs},
        wall_clock=time.perf_counter() - start)


# ---------------------------------------------------------------------
# link prediction
# ---------------------------------------------------------------------


def auc_score(pos_scores, neg_scores):
    """Rank-formula AUC with average ranks on ties."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ContractError("auc needs both positive and negative scores")
    allv = np.concatenate([pos, neg])
    order = np.argsort(allv, kind="mergesort")
    s = allv[order]
    # tie runs of the sorted scores; != keeps each nan a run of its own
    bounds = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1], [True]]))
    ranks = np.empty(allv.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (bounds[:-1] + bounds[1:] - 1) + 1.0,
                             np.diff(bounds))
    rank_sum = ranks[:pos.size].sum()
    return float((rank_sum - pos.size * (pos.size + 1) / 2.0)
                 / (pos.size * neg.size))


def holdout_edges(g, fraction, seed):
    """Pick edges to remove, keeping every endpoint's degree >= 1."""
    target = int(round(fraction * g.edge_count))
    if target < 1:
        raise ConfigError(f"holdout fraction {fraction} removes no edges")
    # the loop reads Python ints: memoryviews give them without numpy's
    # per-index scalars and without listing every edge
    deg = g.degrees().astype(np.int64).tolist()
    order = derived_rng(seed, "holdout").permutation(g.edge_count)
    edge_pairs = memoryview(g.edge_pairs)
    chosen = []
    for e in memoryview(order):
        a, b = edge_pairs[e, 0], edge_pairs[e, 1]
        if deg[a] <= 1 or deg[b] <= 1:
            continue
        deg[a] -= 1
        deg[b] -= 1
        chosen.append(e)
        if len(chosen) == target:
            break
    if len(chosen) < target:
        raise ConfigError(
            f"holdout of {target} edges infeasible under the degree floor")
    return np.array(sorted(chosen), dtype=np.int64)


def sample_non_edges(g, count, seed):
    """``count`` distinct (lo, hi) node pairs joined by no edge or arc in
    either direction, since the decoder scores are symmetric.

    Candidates are drawn as (a, b) node pairs, a block at a time, and
    the first new non-edges in draw order are kept; raises after
    1000 * count draws.
    """
    n = g.node_count
    pairs = np.sort(g.edge_pairs, axis=1)
    # sorted lo * n + hi keys, capped by n * n so every search lands
    taken = np.append(_distinct(pairs[:, 0] * n + pairs[:, 1]), n * n)
    rng = derived_rng(seed, "non_edges")
    out = np.empty(0, dtype=np.int64)
    budget = 1000 * count
    while out.size < count:
        size = min(2 * (count - out.size) + 64, budget)
        if size <= 0:
            raise ConfigError("graph too dense to sample non-edges")
        budget -= size
        ab = rng.integers(n, size=2 * size).reshape(-1, 2)
        lo, hi = ab.min(axis=1), ab.max(axis=1)
        keys = (lo * n + hi)[lo != hi]
        keys = keys[taken[np.searchsorted(taken, keys)] != keys]
        _, first = np.unique(keys, return_index=True)
        fresh = keys[np.sort(first)][:count - out.size]
        out = np.concatenate([out, fresh])
        # fresh keys are distinct and none is taken yet
        taken = np.sort(np.concatenate([taken, fresh]))
    return np.stack([out // n, out % n], axis=1)


def link_prediction_eval(g, embed_fn, holdout_fraction=0.2, seeds=range(10),
                         score_fn=None):
    """AUC of decoder scores on held-out edges vs sampled non-edges.

    embed_fn(residual_graph, seed) returns an EmbeddingTable trained
    without the held-out edges; score_fn defaults to the inner product.
    """
    start = time.perf_counter()
    seeds = list(seeds)
    if not seeds:
        raise ContractError("seeds must not be empty")
    aucs = []
    edge_pairs, pair_weights = g.edge_pairs, g.pair_weights
    for seed in seeds:
        held = holdout_edges(g, holdout_fraction, seed)
        keep = np.ones(g.edge_count, dtype=bool)
        keep[held] = False
        residual = Graph(g.node_ids, edge_pairs[keep], pair_weights[keep],
                         directed=g.directed)
        table = embed_fn(residual, seed)
        z = table.vectors if hasattr(table, "vectors") else np.asarray(table)

        def score(pairs):
            if score_fn is not None:
                return score_fn(z, pairs)
            return (z[pairs[:, 0]] * z[pairs[:, 1]]).sum(axis=1)

        pos = score(edge_pairs[held])
        neg = score(sample_non_edges(g, len(held), seed))
        aucs.append(auc_score(pos, neg))
    return EvalReport(
        task="link_prediction",
        metrics={"auc_mean": float(np.mean(aucs)),
                 "auc_std": float(np.std(aucs))},
        per_seed={"auc": aucs, "seed": [int(s) for s in seeds]},
        config={"holdout_fraction": holdout_fraction},
        wall_clock=time.perf_counter() - start)


# ---------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------


def kmeans(x, k, seed=42, restarts=10):
    """Seeded k-means++ with restarts; returns (labels, inertia)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if k < 1 or k > n:
        raise ContractError(f"k={k} out of range for {n} points")
    if restarts < 1:
        raise ContractError(f"restarts must be >= 1, got {restarts}")
    best = None
    for r in range(restarts):
        rng = derived_rng(seed, "kmeans", r)
        centers = _kmeanspp_init(x, k, rng)
        labels = np.zeros(n, dtype=np.int64)
        for it in range(100):  # Lloyd rounds per restart at most
            d = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
            new_labels = d.argmin(axis=1)
            if it > 0 and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in range(k):
                members = x[labels == c]
                if len(members):
                    centers[c] = members.mean(axis=0)
        inertia = float(((x - centers[labels]) ** 2).sum())
        if best is None or inertia < best[1] - 1e-12:
            best = (labels.copy(), inertia)
    return best


def _kmeanspp_init(x, k, rng):
    n = x.shape[0]
    centers = [x[int(rng.integers(n))]]
    for _ in range(1, k):
        d = np.min([((x - c) ** 2).sum(axis=1) for c in centers], axis=0)
        total = d.sum()
        if total == 0:
            centers.append(x[int(rng.integers(n))])
            continue
        centers.append(x[int(rng.choice(n, p=d / total))])
    return np.array(centers)


def normalized_mutual_information(a, b):
    """Mutual information over the arithmetic mean of entropies."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.size
    ca = _distinct(a)
    cb = _distinct(b)
    joint = np.zeros((ca.size, cb.size))
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            joint[i, j] = np.sum((a == x) & (b == y)) / n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    mi = 0.0
    for i in range(ca.size):
        for j in range(cb.size):
            if joint[i, j] > 0:
                mi += joint[i, j] * np.log(joint[i, j] / (pa[i] * pb[j]))
    ha = -float(sum(p * np.log(p) for p in pa if p > 0))
    hb = -float(sum(p * np.log(p) for p in pb if p > 0))
    denom = 0.5 * (ha + hb)
    if denom <= 0:
        return 0.0
    return float(mi / denom)


def clustering_eval(z, reference_labels, k, seed=42, restarts=10):
    start = time.perf_counter()
    vectors = z.vectors if hasattr(z, "vectors") else np.asarray(z)
    if k < 2:
        raise ContractError("k must be >= 2")
    if k > vectors.shape[0]:
        raise ContractError("k exceeds the number of nodes")
    labels, inertia = kmeans(vectors, k, seed=seed, restarts=restarts)
    nmi = normalized_mutual_information(labels, reference_labels)
    return EvalReport(
        task="clustering",
        metrics={"nmi": nmi, "inertia": inertia},
        per_seed={"seed": [int(seed)]},
        config={"k": k, "restarts": restarts},
        wall_clock=time.perf_counter() - start)


# ---------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------


def pca_project(z, dims=2):
    """Top principal components with a fixed sign convention.

    Each component's largest-magnitude loading is made positive so
    reruns and platforms agree. Zero-variance input warns and returns
    zeros.
    """
    if dims < 1:
        raise ContractError(f"dims must be >= 1, got {dims}")
    x = z.vectors if hasattr(z, "vectors") else np.asarray(z, dtype=np.float64)
    if x.shape[1] < dims:
        raise ContractError(f"need at least {dims} embedding dimensions")
    centered = x - x.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / max(1, x.shape[0] - 1)
    if np.allclose(cov, 0.0):
        warnings.warn("zero-variance embeddings project to zeros")
        return np.zeros((x.shape[0], dims))
    return centered @ eigh_columns(cov, dims)[1]


def export_projection(target, z, node_ids, dims=2):
    """TSV of node_id and projected coordinates."""
    coords = pca_project(z, dims=dims)
    with _open_text(target, "w") as fh:
        fh.write("node_id" + "".join(f"\tpc{j + 1}" for j in range(dims))
                 + "\n")
        for i, nid in enumerate(node_ids):
            vals = "".join("\t%.17g" % c for c in coords[i])
            fh.write(f"{nid}{vals}\n")
    return coords
