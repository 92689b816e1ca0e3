"""Lookup-table node embeddings trained against pairwise objectives.

Covers the spectral/factorization family (weighted-distance, inner
product MSE against a similarity target, per-power blocks, general
similarity targets) and the skip-gram family over sampled walks
(hierarchical softmax, negative sampling, edge-based first/second
order variants). One embedding table serves both center and context
roles except for the second-order edge method, which keeps its own
context table.

All trainers are deterministic for a fixed seed: pair shuffles and
noise draws come from streams derived from (seed, purpose, epoch).
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ContractError, NumericError, ValidationError
from .graph import _open_text
from .rng import derived_rng
from .similarity import SimilaritySpec, build_similarity
from .walks import (
    AliasTable,
    WalkConfig,
    extract_offset_pairs,
    extract_pairs,
    sample_node2vec_walks,
    sample_uniform_walks,
)

METHODS = ("laplacian_eigenmaps", "graph_factorization", "grarep", "hope",
           "deepwalk", "node2vec", "walklets", "line1", "line2")

DECODERS = ("sq_distance", "inner", "sigmoid_inner", "softmax_inner", "bilinear")


# ---------------------------------------------------------------------
# embedding table
# ---------------------------------------------------------------------


@dataclass
class EmbeddingTable:
    """(n, d) float64 lookup table; row v is node v's embedding."""

    vectors: np.ndarray
    node_ids: list
    method: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ContractError("embedding table must be 2-D")
        if self.node_ids is not None and len(self.node_ids) != len(self.vectors):
            raise ContractError("node_ids length != vector count")

    @property
    def dim(self):
        return self.vectors.shape[1]

    @property
    def node_count(self):
        return self.vectors.shape[0]

    @property
    def matrix(self):
        """Column-per-node view, (d, n)."""
        return self.vectors.T

    def vector(self, v):
        return self.vectors[v]

    def lookup(self, node_id):
        return self.vectors[self.node_ids.index(str(node_id))]

    def save(self, target):
        with _open_text(target, "w") as fh:
            fh.write(f"node_id\t{self.dim}\n")
            ids = self.node_ids or [str(i) for i in range(self.node_count)]
            for nid, row in zip(ids, self.vectors):
                fh.write(nid + "\t" + " ".join("%.17g" % x for x in row) + "\n")


def load_embedding(source):
    from .errors import EdgeListParseError

    with _open_text(source) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if len(header) != 2 or header[0] != "node_id":
            raise EdgeListParseError("bad embedding header", 1)
        try:
            d = int(header[1])
        except ValueError:
            raise EdgeListParseError("bad dimension in header", 1)
        ids, rows = [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            nid, _, rest = line.partition("\t")
            vals = rest.split()
            if len(vals) != d:
                raise EdgeListParseError(
                    f"expected {d} values, got {len(vals)}", lineno)
            ids.append(nid)
            rows.append([float(x) for x in vals])
    return EmbeddingTable(np.array(rows, dtype=np.float64), ids)


# ---------------------------------------------------------------------
# pairwise decoders
# ---------------------------------------------------------------------


def decode_pair(table, i, j, kind="inner", edge_type=None, bilinear_maps=None):
    """Pairwise proximity score between nodes i and j under a decoder."""
    z = table.vectors if isinstance(table, EmbeddingTable) else np.asarray(table)
    zi, zj = z[i], z[j]
    if kind == "sq_distance":
        diff = zi - zj
        return float(diff @ diff)
    if kind == "inner":
        return float(zi @ zj)
    if kind == "sigmoid_inner":
        x = float(zi @ zj)
        return float(1.0 / (1.0 + np.exp(-x))) if x >= 0 else \
            float(np.exp(x) / (1.0 + np.exp(x)))
    if kind == "softmax_inner":
        dots = z @ zi
        dots -= dots.max()
        e = np.exp(dots)
        return float(e[j] / e.sum())
    if kind == "bilinear":
        if bilinear_maps is None or edge_type not in bilinear_maps:
            raise KeyError(f"no bilinear map for edge type {edge_type!r}")
        a = np.asarray(bilinear_maps[edge_type])
        if a.shape != (z.shape[1], z.shape[1]):
            raise ContractError("bilinear map must be (d, d)")
        return float(zi @ a @ zj)
    raise ContractError(f"unknown decoder kind {kind!r}")


def decode_all(table, kind="inner"):
    """Dense pairwise score matrix under a decoder."""
    z = table.vectors if isinstance(table, EmbeddingTable) else np.asarray(table)
    if kind == "inner":
        return z @ z.T
    if kind == "sigmoid_inner":
        return ad._sigmoid_np(z @ z.T)
    if kind == "sq_distance":
        sq = (z * z).sum(axis=1)
        return np.maximum(sq[:, None] + sq[None, :] - 2.0 * (z @ z.T), 0.0)
    if kind == "softmax_inner":
        dots = z @ z.T
        dots = dots - dots.max(axis=1, keepdims=True)
        e = np.exp(dots)
        return e / e.sum(axis=1, keepdims=True)
    raise ContractError(f"unknown decoder kind {kind!r}")


def gram_residual(z, s):
    """Frobenius objective || Z Z^T - S ||_F^2."""
    z = z.vectors if isinstance(z, EmbeddingTable) else np.asarray(z)
    diff = z @ z.T - np.asarray(s)
    return float((diff * diff).sum())


# ---------------------------------------------------------------------
# loss builders (autodiff tensors)
# ---------------------------------------------------------------------


def weighted_distance_loss(z_t, pairs, weights):
    """sum_ij s_ij ||z_i - z_j||^2 over the given pairs."""
    zi = ad.take_rows(z_t, pairs[:, 0])
    zj = ad.take_rows(z_t, pairs[:, 1])
    w = np.asarray(weights, dtype=np.float64).reshape(-1, 1)
    return ad.reduce_sum(ad.mul(ad.squared_distance(zi, zj), w))


def gram_mse_loss(z_t, target):
    """|| Z Z^T - S ||_F^2 over every ordered pair."""
    gram = ad.matmul(z_t, ad.transpose(z_t))
    diff = ad.sub(gram, np.asarray(target, dtype=np.float64))
    return ad.reduce_sum(ad.mul(diff, diff))


def softmax_cross_entropy_loss(z_t, pairs):
    """- sum log softmax(z_center . Z)[context] (full normalization)."""
    n = z_t.data.shape[0]
    centers = ad.take_rows(z_t, pairs[:, 0])
    logits = ad.matmul(centers, ad.transpose(z_t))
    probs = ad.softmax_rows(logits)
    onehot = np.zeros((len(pairs), n))
    onehot[np.arange(len(pairs)), pairs[:, 1]] = 1.0
    picked = ad.reduce_sum(ad.mul(probs, onehot), axis=1)
    return ad.neg(ad.reduce_sum(ad.log(picked)))


def negative_sampling_loss(z_t, pairs, negatives, context_t=None,
                           pair_weights=None):
    """Skip-gram with K noise samples per positive pair.

    negatives is (B, K) node indices. The context table defaults to the
    embedding table itself.
    """
    ctx = context_t if context_t is not None else z_t
    b, k = negatives.shape
    zi = ad.take_rows(z_t, pairs[:, 0])
    zj = ad.take_rows(ctx, pairs[:, 1])
    pos = ad.log_sigmoid(ad.dot_rows(zi, zj))
    zi_rep = ad.take_rows(z_t, np.repeat(pairs[:, 0], k))
    zn = ad.take_rows(ctx, negatives.reshape(-1))
    neg_term = ad.log_sigmoid(ad.neg(ad.dot_rows(zi_rep, zn)))
    if pair_weights is not None:
        w = np.asarray(pair_weights, dtype=np.float64).reshape(-1, 1)
        pos = ad.mul(pos, w)
        neg_term = ad.mul(neg_term, np.repeat(w, k, axis=0))
    return ad.neg(ad.add(ad.reduce_sum(pos), ad.reduce_sum(neg_term)))


class HierarchicalSoftmaxTree:
    """Balanced binary tree over nodes sorted by degree (descending).

    Internal nodes carry one parameter vector each; a leaf's probability
    is the product of sigmoid(+-z . w) along its root path, with +
    for a left turn. Probabilities over all leaves sum to one.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        n = w.size
        if n < 2:
            raise ContractError("tree needs at least 2 leaves")
        order = np.lexsort((np.arange(n), -w))
        self.n_leaves = n
        self.n_internal = n - 1
        paths = [None] * n
        self._counter = 0

        def build(leaves, prefix):
            if len(leaves) == 1:
                paths[leaves[0]] = prefix
                return
            node = self._counter
            self._counter += 1
            mid = (len(leaves) + 1) // 2
            build(leaves[:mid], prefix + [(node, 1.0)])
            build(leaves[mid:], prefix + [(node, -1.0)])

        build([int(v) for v in order], [])
        self.depth = max(len(p) for p in paths)
        self.path_nodes = np.zeros((n, self.depth), dtype=np.int64)
        self.path_signs = np.zeros((n, self.depth))
        self.path_mask = np.zeros((n, self.depth))
        for v, path in enumerate(paths):
            for t, (node, sign) in enumerate(path):
                self.path_nodes[v, t] = node
                self.path_signs[v, t] = sign
                self.path_mask[v, t] = 1.0

    def leaf_probabilities(self, z, w):
        """Probability of each leaf given input vector z, parameters w."""
        z = np.asarray(z).reshape(-1)
        dots = np.asarray(w) @ z
        out = np.ones(self.n_leaves)
        for v in range(self.n_leaves):
            for t in range(self.depth):
                if self.path_mask[v, t] == 0:
                    break
                x = self.path_signs[v, t] * dots[self.path_nodes[v, t]]
                out[v] *= ad._sigmoid_np(np.array([[x]]))[0, 0]
        return out


def hierarchical_softmax_loss(z_t, w_t, pairs, tree):
    """- sum log P(context | center) under the tree factorization."""
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


def unigram_noise(counts, power=0.75):
    """Noise distribution proportional to counts**power."""
    c = np.asarray(counts, dtype=np.float64)
    if np.any(c < 0):
        raise ContractError("negative counts")
    p = np.power(c, power, where=c > 0, out=np.zeros_like(c))
    total = p.sum()
    if total <= 0:
        raise ContractError("noise distribution has no mass")
    return p / total


# ---------------------------------------------------------------------
# closed-form factorization
# ---------------------------------------------------------------------


def closed_form_factorization(s, d):
    """Rank-d minimizer of || Z Z^T - S ||_F^2 for symmetric S.

    Takes the d largest eigenvalues, clamping negative ones to zero
    (the Gram constraint makes negative directions unusable; dropping
    them is the exact optimum, not an approximation). Eigenvector signs
    are fixed so each column's largest-magnitude entry is positive.
    """
    values = s.values if hasattr(s, "values") else np.asarray(s, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ContractError("similarity matrix must be square")
    if not np.allclose(values, values.T, atol=1e-8):
        raise ValidationError("closed form needs a symmetric matrix")
    n = values.shape[0]
    if d > n:
        raise ContractError(f"dim {d} exceeds node count {n}")
    if d < 1:
        raise ContractError("dim must be >= 1")
    sym = 0.5 * (values + values.T)
    lam, u = np.linalg.eigh(sym)
    top = np.argsort(lam)[::-1][:d]
    lam_d = lam[top]
    u_d = u[:, top]
    for c in range(d):
        k = int(np.argmax(np.abs(u_d[:, c])))
        if u_d[k, c] < 0:
            u_d[:, c] = -u_d[:, c]
    clamped = int(np.sum(lam_d < 0))
    z = u_d * np.sqrt(np.maximum(lam_d, 0.0))[None, :]
    meta = {"eigenvalues": lam_d.tolist(), "clamped_eigenvalues": clamped,
            "residual": gram_residual(z, sym)}
    return EmbeddingTable(z, None, method="closed_form", metadata=meta)


# ---------------------------------------------------------------------
# training
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ShallowConfig:
    """Hyperparameters shared by the lookup-table trainers.

    The skip-gram losses sum over a batch, so each step divides the
    (linearly annealed) ``lr`` by the batch length: ``lr`` is a per-pair
    rate. At the CLI default of 0.025, deepwalk node classification
    and node2vec link prediction on a 4-block SBM with 1k nodes score
    at chance (macro-F1 0.24, AUC 0.50); at lr 1 (deepwalk) and 25
    (node2vec) the same runs score about 0.99 and 0.82.
    """

    dim: int = 16
    epochs: int = 5
    lr: float = 0.025
    lr_min: float = 1e-4
    batch_size: int = 256
    walk_length: int = 10
    walks_per_node: int = 10
    window: int = 5
    p: float = 1.0
    q: float = 1.0
    negatives: int = 5
    noise_power: float = 0.75
    power_max: int = 4
    offsets: tuple = (1, 2)
    loss: str = None
    similarity: SimilaritySpec = None
    seed: int = 42
    initial: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ContractError("dim must be >= 1")
        if self.epochs < 1:
            raise ContractError("epochs must be >= 1")
        if self.lr <= 0:
            raise ContractError("lr must be positive")
        if self.batch_size < 1:
            raise ContractError("batch_size must be >= 1")
        if self.negatives < 1:
            raise ContractError("negatives must be >= 1")
        if self.power_max < 1:
            raise ContractError("power_max must be >= 1")
        if self.loss is not None and self.loss not in (
                "negsamp", "hsoftmax", "softmax"):
            raise ContractError(f"unknown loss override {self.loss!r}")


def _init_table(g, dim, seed, initial=None):
    if initial is not None:
        z = np.array(initial, dtype=np.float64)
        if z.shape != (g.node_count, dim):
            raise ContractError(
                f"initial embeddings shape {z.shape} != {(g.node_count, dim)}")
        return z
    rng = derived_rng(seed, "init")
    return rng.uniform(-0.5, 0.5, size=(g.node_count, dim)) / dim


def _check_dim(g, dim):
    if dim >= g.node_count:
        raise ValidationError(
            f"dim {dim} must be < node count {g.node_count}")


def _sparse_sgd(updates, lr, where):
    """One SGD step that writes only the rows a batch touched.

    ``updates`` lists ``(table, rows, grad)`` with one gradient row per
    entry of ``rows``; repeated rows accumulate. Every gradient is
    checked before any table is written, so a non-finite step leaves
    all tables as they were and names ``where`` in the error.
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


def _log_sigmoid_slope(x):
    """log(sigmoid(x)) and its slope 1 - sigmoid(x), stable, from one exp."""
    e = np.exp(-np.abs(x))
    tail = np.log1p(e)
    pos = x >= 0
    return np.where(pos, -tail, x - tail), np.where(pos, e, 1.0) / (1.0 + e)


# Closed-form steps: each returns the summed batch loss of its tape
# twin above plus the row gradients of that loss, as _sparse_sgd updates.


def _hsoftmax_step(z, w_tree, batch, tree):
    """hierarchical_softmax_loss and its gradients."""
    nodes = tree.path_nodes[batch[:, 1]]
    signs = tree.path_signs[batch[:, 1]]
    mask = tree.path_mask[batch[:, 1]]
    zc = z[batch[:, 0]]
    wv = w_tree[nodes]
    logsig, slope = _log_sigmoid_slope(np.einsum("btd,bd->bt", wv, zc) * signs)
    loss = -float((logsig * mask).sum())
    # d loss / d (z . w) = -mask * (1 - sigmoid(x)) * sign
    g = -mask * slope * signs
    grad_w = np.einsum("bt,bd->btd", g, zc).reshape(-1, z.shape[1])
    return loss, [(z, batch[:, 0], np.einsum("bt,btd->bd", g, wv)),
                  (w_tree, nodes.ravel(), grad_w)]


def _negsamp_step(z, ctx, batch, negs, weights=None):
    """negative_sampling_loss and its gradients.

    With no context table z plays both roles, so the center, context
    and noise gradients all land in z.
    """
    ctx_table = z if ctx is None else ctx
    b, k = negs.shape
    zi = z[batch[:, 0]]
    zj = ctx_table[batch[:, 1]]
    zn = ctx_table[negs]
    w = np.ones(b) if weights is None else np.asarray(weights)
    pos, pos_slope = _log_sigmoid_slope(np.einsum("bd,bd->b", zi, zj))
    neg, neg_slope = _log_sigmoid_slope(-np.einsum("bkd,bd->bk", zn, zi))
    loss = -(float((pos * w).sum()) + float((neg * w[:, None]).sum()))
    # d loss / d (zi . zj) and d loss / d (zi . zn)
    gp = (-w * pos_slope)[:, None]
    gn = w[:, None] * neg_slope
    # rows: centers, then contexts, then noise draws
    rows = np.concatenate([batch[:, 0], batch[:, 1], negs.ravel()])
    grad = np.empty((len(rows), z.shape[1]))
    np.einsum("bk,bkd->bd", gn, zn, out=grad[:b])
    grad[:b] += gp * zj
    np.multiply(gp, zi, out=grad[b:2 * b])
    np.einsum("bk,bd->bkd", gn, zi, out=grad[2 * b:].reshape(b, k, -1))
    if ctx is None:
        return loss, [(z, rows, grad)]
    return loss, [(z, rows[:b], grad[:b]), (ctx, rows[b:], grad[b:])]


def _softmax_step(z, batch):
    """softmax_cross_entropy_loss and its gradients.

    The normalization runs over every node, so every row gets a context
    gradient; the logit gradient is p - e_ctx, formed in place.
    """
    b = np.arange(len(batch))
    zc = z[batch[:, 0]]
    logits = zc @ z.T
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    total = p.sum(axis=1, keepdims=True)
    loss = -float((logits[b, batch[:, 1]] - np.log(total[:, 0])).sum())
    p /= total
    p[b, batch[:, 1]] -= 1.0
    return loss, [(z, np.concatenate([batch[:, 0], np.arange(len(z))]),
                   np.concatenate([p @ z, p.T @ zc]))]


def _skipgram_train(g, pairs, config, loss_kind, context_table=False,
                    pair_weights=None, dim=None, init=None, seed_tag=""):
    """Shared minibatch loop for the sampled-pair objectives.

    Each batch takes one SGD step from closed-form gradients of the
    matching tape loss, applied only to the rows the batch touches.
    """
    dim = dim or config.dim
    z = _init_table(g, dim, config.seed, init)
    tree = w_tree = ctx = noise_table = None
    n = g.node_count
    if loss_kind == "hsoftmax":
        tree = HierarchicalSoftmaxTree(g.degrees(weighted=True))
        w_tree = np.zeros((tree.n_internal, dim))
    if loss_kind == "negsamp":
        if context_table:
            rng = derived_rng(config.seed, "ctx_init", seed_tag)
            ctx = rng.uniform(-0.5, 0.5, size=(n, dim)) / dim
            counts = g.degrees(weighted=True)
        else:
            counts = np.bincount(pairs[:, 1], minlength=n).astype(np.float64)
            if counts.sum() == 0:
                counts = g.degrees(weighted=True)
        noise_table = AliasTable(unigram_noise(counts, config.noise_power))

    if len(pairs) == 0:
        raise ValidationError("no training pairs extracted")

    total_batches = config.epochs * int(np.ceil(len(pairs) / config.batch_size))
    history = []
    batch_no = 0
    for epoch in range(config.epochs):
        order = derived_rng(config.seed, "shuffle", seed_tag, epoch
                            ).permutation(len(pairs))
        noise_rng = derived_rng(config.seed, "noise", seed_tag, epoch)
        epoch_loss = 0.0
        for b, lo in enumerate(range(0, len(pairs), config.batch_size)):
            rows = order[lo:lo + config.batch_size]
            batch = pairs[rows]
            if loss_kind == "hsoftmax":
                loss, updates = _hsoftmax_step(z, w_tree, batch, tree)
            elif loss_kind == "softmax":
                loss, updates = _softmax_step(z, batch)
            else:
                negs = noise_table.sample(
                    noise_rng, size=(len(batch), config.negatives))
                bw = None if pair_weights is None else pair_weights[rows]
                loss, updates = _negsamp_step(z, ctx, batch, negs, bw)
            # the losses sum over the batch, so the step is scaled down
            # to keep per-pair update sizes in the word2vec lr regime
            annealed = config.lr + (config.lr_min - config.lr) * (
                batch_no / max(1, total_batches - 1))
            _sparse_sgd(updates, annealed / len(batch),
                        f"{loss_kind} skip-gram, epoch {epoch}, batch {b}")
            epoch_loss += loss
            batch_no += 1
        history.append(epoch_loss / len(pairs))
    return z, history


def _full_batch_gram(g, target, config, dim=None, seed_tag="", init=None):
    """Adam on the exact Frobenius objective against a fixed target."""
    dim = dim or config.dim
    z = ad.parameter(_init_table(g, dim, config.seed, init))
    opt = ad.Adam([z], lr=max(config.lr, 0.01))
    history = []
    for _ in range(config.epochs):
        opt.zero_grad()
        with ad.Tape():
            loss = gram_mse_loss(z, target)
            history.append(loss.item())
            ad.backward(loss)
        opt.step()
    with ad.Tape():
        history.append(gram_mse_loss(z, target).item())
    return z.data, history


def _whiten(z):
    """Zero-mean, unit-covariance transform of the embedding columns."""
    z = z - z.mean(axis=0, keepdims=True)
    cov = (z.T @ z) / len(z)
    lam, u = np.linalg.eigh(cov)
    lam = np.maximum(lam, 1e-12)
    return z @ (u / np.sqrt(lam)[None, :]) @ u.T


def train_shallow(g, method, config=None):
    """Train one of the lookup-table methods; returns an EmbeddingTable.

    Metadata carries the loss history and the hyperparameters that
    shaped the run.
    """
    config = config or ShallowConfig()
    if method not in METHODS:
        raise ContractError(f"unknown shallow method {method!r}")
    _check_dim(g, config.dim)
    meta = {"seed": config.seed, "dim": config.dim, "epochs": config.epochs}

    if method == "laplacian_eigenmaps":
        spec = config.similarity or SimilaritySpec(kind="adjacency")
        s = build_similarity(g, spec).values
        pairs = np.argwhere(s > 0)
        weights = s[pairs[:, 0], pairs[:, 1]]
        z = _whiten(_init_table(g, config.dim, config.seed, config.initial))
        history = []
        lr = config.lr
        for _ in range(config.epochs):
            zt = ad.parameter(z)
            with ad.Tape():
                loss = weighted_distance_loss(zt, pairs, weights)
                history.append(loss.item())
                ad.backward(loss)
            z = _whiten(z - lr * zt.grad)
        zt = ad.parameter(z)
        with ad.Tape():
            history.append(weighted_distance_loss(zt, pairs, weights).item())
        meta["loss_history"] = history
        return EmbeddingTable(z, list(g.node_ids), method, meta)

    if method == "graph_factorization":
        spec = config.similarity or SimilaritySpec(kind="adjacency")
        target = build_similarity(g, spec).values
        z, history = _full_batch_gram(g, target, config, init=config.initial)
        meta["loss_history"] = history
        return EmbeddingTable(z, list(g.node_ids), method, meta)

    if method == "hope":
        spec = config.similarity or SimilaritySpec(kind="jaccard")
        target = build_similarity(g, spec).values
        z, history = _full_batch_gram(g, target, config, init=config.initial)
        meta["loss_history"] = history
        meta["similarity_kind"] = spec.kind
        return EmbeddingTable(z, list(g.node_ids), method, meta)

    if method == "grarep":
        kmax = config.power_max
        dims = [config.dim // kmax] * kmax
        for i in range(config.dim % kmax):
            dims[i] += 1
        if min(dims) < 1:
            raise ContractError("dim too small for power_max blocks")
        blocks = []
        history = []
        for k in range(1, kmax + 1):
            target = build_similarity(
                g, SimilaritySpec(kind="adjacency_power", power=k)).values
            zb, hist = _full_batch_gram(g, target, config, dim=dims[k - 1],
                                        seed_tag=f"pow{k}")
            blocks.append(zb)
            history.append(hist)
        meta["loss_history"] = history
        meta["block_dims"] = dims
        return EmbeddingTable(np.concatenate(blocks, axis=1),
                              list(g.node_ids), method, meta)

    if method == "deepwalk":
        cfg = WalkConfig(length=config.walk_length,
                         walks_per_node=config.walks_per_node, seed=config.seed)
        corpus = sample_uniform_walks(g, cfg)
        pairs = extract_pairs(corpus, config.window)
        loss_kind = config.loss or "hsoftmax"
        z, history = _skipgram_train(g, pairs, config, loss_kind,
                                     init=config.initial)
        meta.update(loss=loss_kind, loss_history=history,
                    pair_count=int(len(pairs)))
        return EmbeddingTable(z, list(g.node_ids), method, meta)

    if method == "node2vec":
        cfg = WalkConfig(length=config.walk_length,
                         walks_per_node=config.walks_per_node,
                         p=config.p, q=config.q, seed=config.seed)
        corpus = sample_node2vec_walks(g, cfg)
        pairs = extract_pairs(corpus, config.window)
        loss_kind = config.loss or "negsamp"
        z, history = _skipgram_train(g, pairs, config, loss_kind,
                                     init=config.initial)
        meta.update(loss=loss_kind, loss_history=history, p=config.p,
                    q=config.q, pair_count=int(len(pairs)))
        return EmbeddingTable(z, list(g.node_ids), method, meta)

    if method == "walklets":
        cfg = WalkConfig(length=config.walk_length,
                         walks_per_node=config.walks_per_node, seed=config.seed)
        corpus = sample_uniform_walks(g, cfg)
        offsets = tuple(config.offsets)
        if not offsets:
            raise ContractError("walklets need at least one offset")
        dims = [config.dim // len(offsets)] * len(offsets)
        for i in range(config.dim % len(offsets)):
            dims[i] += 1
        if min(dims) < 1:
            raise ContractError("dim too small for the offset blocks")
        blocks, history = [], []
        loss_kind = config.loss or "negsamp"
        col = 0
        for off, dblock in zip(offsets, dims):
            pairs = extract_offset_pairs(corpus, off)
            init = None
            if config.initial is not None:
                init = np.asarray(config.initial)[:, col:col + dblock]
            col += dblock
            zb, hist = _skipgram_train(g, pairs, config, loss_kind,
                                       dim=dblock, seed_tag=f"off{off}",
                                       init=init)
            blocks.append(zb)
            history.append(hist)
        meta.update(loss=loss_kind, offsets=offsets, loss_history=history)
        return EmbeddingTable(np.concatenate(blocks, axis=1),
                              list(g.node_ids), method, meta)

    # line1 / line2: edge-based first- and second-order objectives
    src = np.concatenate([g.edge_pairs[:, 0], g.edge_pairs[:, 1]])
    dst = np.concatenate([g.edge_pairs[:, 1], g.edge_pairs[:, 0]])
    pairs = np.stack([src, dst], axis=1)
    pw = np.concatenate([g.pair_weights, g.pair_weights])
    loss_kind = config.loss or "negsamp"
    if loss_kind != "negsamp":
        raise ContractError(f"{method} supports only the negsamp loss")
    z, history = _skipgram_train(g, pairs, config, "negsamp",
                                 context_table=(method == "line2"),
                                 pair_weights=pw, seed_tag=method,
                                 init=config.initial)
    meta.update(loss="negsamp", loss_history=history,
                order=1 if method == "line1" else 2)
    return EmbeddingTable(z, list(g.node_ids), method, meta)
