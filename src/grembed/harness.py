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
from .aggenc import classifier_head, predict_classes
from .errors import ConfigError, ContractError, ValidationError
from .graph import Graph, _open_text
from .report import REPORT_VERSION, EvalReport, _fmt  # noqa: F401 (re-export)
from .rng import derived_rng


# ---------------------------------------------------------------------
# logistic regression over fixed features
# ---------------------------------------------------------------------


def _logistic_grads(x, y, theta, bias):
    """Closed-form gradients of the summed ``aggenc.cross_entropy_loss``.

    The logit gradient is softmax - onehot, or for the single sigmoid
    column -sign * (1 - sigmoid(sign * logit)) with sign = 2y - 1; theta
    takes x.T @ it and the bias its column sums.
    """
    logits = x @ theta + bias
    if logits.shape[1] == 1:
        sign = (2.0 * y - 1.0).reshape(-1, 1)
        r = -(1.0 - ad._sigmoid_np(logits * sign)) * sign
    else:
        r = np.exp(logits - logits.max(axis=1, keepdims=True))
        r /= r.sum(axis=1, keepdims=True)
        r[np.arange(len(y)), y] -= 1.0
    return x.T @ r, r.sum(axis=0, keepdims=True)


def train_logistic(x, y, epochs=300, lr=0.1, seed=0):
    """Multinomial (or sigmoid-binary) regression; returns (theta, b).

    Adam on the summed cross-entropy, its gradient in closed form.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    theta, bias = classifier_head(derived_rng(seed, "logistic_init"),
                                  x.shape[1], int(y.max()) + 1, 0.01)
    opt = ad.Adam([theta, bias], lr=lr)
    for epoch in range(epochs):
        theta.grad, bias.grad = _logistic_grads(x, y, theta.data, bias.data)
        opt.step(f"logistic head, epoch {epoch}")
    return theta.data, bias.data


def predict_logistic(x, theta, bias):
    return predict_classes(np.asarray(x) @ theta + bias)


def stratified_split(labels, train_fraction, seed):
    """Boolean train mask keeping class proportions within one node.

    Retries with derived seeds when a class would vanish from the
    train side; raises after 10 attempts.
    """
    labels = np.asarray(labels)
    classes = np.unique(labels)
    for attempt in range(10):
        rng = derived_rng(seed, "split", attempt)
        mask = np.zeros(labels.size, dtype=bool)
        ok = True
        for c in classes:
            members = np.nonzero(labels == c)[0]
            take = int(round(train_fraction * members.size))
            if take == 0 or take == members.size:
                ok = False
                break
            mask[rng.choice(members, size=take, replace=False)] = True
        if ok:
            return mask
    raise ValidationError(
        f"cannot build a stratified split at fraction {train_fraction}")


def macro_f1(y_true, y_pred):
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    scores = []
    for c in np.unique(y_true):
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
    accs, f1s = [], []
    for seed in seeds:
        mask = stratified_split(labels, train_fraction, seed)
        if np.unique(labels[mask]).size < 2:
            raise ValidationError("train split lost a class")
        theta, bias = train_logistic(vectors[mask], labels[mask],
                                     epochs=epochs, lr=lr, seed=seed)
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
    ranks = np.empty(allv.size, dtype=np.float64)
    sorted_vals = allv[order]
    i = 0
    while i < allv.size:
        j = i
        while j + 1 < allv.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = ranks[:pos.size].sum()
    return float((rank_sum - pos.size * (pos.size + 1) / 2.0)
                 / (pos.size * neg.size))


def holdout_edges(g, fraction, seed):
    """Pick edges to remove, keeping every endpoint's degree >= 1."""
    target = int(round(fraction * g.edge_pairs.shape[0]))
    if target < 1:
        raise ConfigError(f"holdout fraction {fraction} removes no edges")
    deg = g.degrees().astype(np.int64).copy()
    rng = derived_rng(seed, "holdout")
    order = rng.permutation(g.edge_pairs.shape[0])
    chosen = []
    for e in order:
        a, b = int(g.edge_pairs[e, 0]), int(g.edge_pairs[e, 1])
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
    either direction, since the decoder scores are symmetric."""
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


def link_prediction_eval(g, embed_fn, holdout_fraction=0.2, seeds=range(10),
                         score_fn=None):
    """AUC of decoder scores on held-out edges vs sampled non-edges.

    embed_fn(residual_graph, seed) returns an EmbeddingTable trained
    without the held-out edges; score_fn defaults to the inner product.
    """
    start = time.perf_counter()
    seeds = list(seeds)
    aucs = []
    for seed in seeds:
        held = holdout_edges(g, holdout_fraction, seed)
        keep = np.setdiff1d(np.arange(g.edge_pairs.shape[0]), held)
        residual = Graph(g.node_ids, g.edge_pairs[keep], g.pair_weights[keep],
                         directed=g.directed, weighted=g.weighted)
        table = embed_fn(residual, seed)
        z = table.vectors if hasattr(table, "vectors") else np.asarray(table)

        def score(pairs):
            if score_fn is not None:
                return score_fn(z, pairs)
            return (z[pairs[:, 0]] * z[pairs[:, 1]]).sum(axis=1)

        pos = score(g.edge_pairs[held])
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


def kmeans(x, k, seed=42, restarts=10, max_iters=100):
    """Seeded k-means++ with restarts; returns (labels, inertia)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if k < 1 or k > n:
        raise ContractError(f"k={k} out of range for {n} points")
    best = None
    for r in range(restarts):
        rng = derived_rng(seed, "kmeans", r)
        centers = _kmeanspp_init(x, k, rng)
        labels = np.zeros(n, dtype=np.int64)
        for it in range(max_iters):
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
    ca = np.unique(a)
    cb = np.unique(b)
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
    x = z.vectors if hasattr(z, "vectors") else np.asarray(z, dtype=np.float64)
    if x.shape[1] < dims:
        raise ContractError(f"need at least {dims} embedding dimensions")
    centered = x - x.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / max(1, x.shape[0] - 1)
    if np.allclose(cov, 0.0):
        warnings.warn("zero-variance embeddings project to zeros")
        return np.zeros((x.shape[0], dims))
    lam, vecs = np.linalg.eigh(cov)
    order = np.argsort(lam)[::-1][:dims]
    comps = vecs[:, order]
    for j in range(comps.shape[1]):
        pivot = np.argmax(np.abs(comps[:, j]))
        if comps[pivot, j] < 0:
            comps[:, j] = -comps[:, j]
    return centered @ comps


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
