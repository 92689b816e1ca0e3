"""Lookup-table node embeddings trained against pairwise objectives.

Covers the spectral/factorization family (weighted-distance, inner
product MSE against a similarity target, per-power blocks, general
similarity targets) and the skip-gram family over sampled walks
(hierarchical softmax, negative sampling, edge-based first/second
order variants). One embedding table serves both center and context
roles except for the second-order edge method, which trains separate
context vectors; a skip-gram run keeps those, or the hierarchical
softmax tree's vectors, as extra rows of its one parameter array.

All trainers are deterministic for a fixed seed: pair shuffles and
noise draws come from ``rng`` streams keyed by (seed, purpose, epoch).
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .errors import ContractError, NumericError, ValidationError
from .rng import derived_rng
from .similarity import SimilaritySpec, build_similarity
from .table import EmbeddingTable
from .walks import (
    AliasTable,
    WalkConfig,
    WalkPairs,
    sample_node2vec_walks,
    sample_uniform_walks,
)
from .walks import extract_pairs  # noqa: F401 (perfbench's tracer wraps it)

DECODE_BATCHES = 32  # batches whose pairs _skipgram decodes at once


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
        # Built level by level over the leaves in tree order: each level
        # splits every run of two or more leaves after its first
        # (size + 1) // 2. Internal nodes are numbered in preorder, so a
        # left child follows its parent and a right child follows the
        # mid - 1 internal nodes of the left subtree.
        pos = np.arange(n)
        start, node = np.zeros(n, np.int64), np.zeros(n, np.int64)
        size = np.full(n, n)
        nodes, signs = [], []
        while (size > 1).any():
            inner = size > 1
            mid = (size + 1) // 2
            left = pos - start < mid
            nodes.append(np.where(inner, node, 0))
            signs.append(np.where(inner, np.where(left, 1.0, -1.0), 0.0))
            node = np.where(left, node + 1, node + mid)
            start = np.where(left, start, start + mid)
            size = np.where(left, mid, size - mid)
        self.depth = len(nodes)
        rank = np.argsort(order)
        self.path_nodes = np.stack(nodes, axis=1).take(rank, axis=0)
        self.path_signs = np.stack(signs, axis=1).take(rank, axis=0)
        self.path_mask = (self.path_signs != 0).astype(np.float64)

    def leaf_probabilities(self, z, w):
        """Probability of each leaf given input vector z, parameters w."""
        dots = np.asarray(w) @ np.asarray(z).reshape(-1)
        sig = ad._sigmoid_np(self.path_signs * dots[self.path_nodes])
        return np.where(self.path_mask > 0, sig, 1.0).prod(axis=1)


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
        if self.loss not in (None,) + _SKIPGRAM_LOSSES:
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


def _sparse_sgd(table, rows, grad, lr, where, offsets):
    """One SGD step on the rows of ``table`` that a batch touched.

    ``grad`` holds one gradient row per entry of ``rows``; repeated rows
    accumulate, each element summed in input order from 0.0. The flat
    ``bincount`` index is gathered from ``offsets``, a trainer's table of
    ``u * d + arange(d)`` with a row for every row of ``table``.

    An update with at least as many rows as the table accumulates into
    the whole table and writes all of it: there, finding the distinct
    rows costs more than writing the rows no gradient touched, each of
    which gets x - 0.0, which is x. A shorter update finds its distinct
    rows without sorting (an index scratch over the table's rows keeps
    one entry per row, so the work is linear in ``len(rows)``) and
    writes only those. Either way each row gets the same sums. The sums
    are checked before any row is written, so a non-finite step leaves
    the table as it was and names ``where`` in the error.
    """
    if not len(rows):
        return
    n, d = table.shape
    uniq = None
    if len(rows) < n:
        m = np.arange(len(rows))
        slot = np.empty(n, dtype=np.intp)
        slot[rows] = m
        # whichever duplicate's write lands, one entry per row reads
        # back its own index
        uniq = rows[slot.take(rows) == m]
        slot[uniq] = m[:uniq.size]
        rows, n = slot.take(rows), uniq.size
    acc = np.bincount(offsets.take(rows, axis=0).ravel(),
                      weights=grad.ravel(), minlength=n * d).reshape(n, d)
    if not np.isfinite(acc).all():
        raise NumericError(f"non-finite gradient in {where}")
    acc *= lr
    if uniq is None:
        table -= acc
    else:
        table[uniq] -= acc


def _log_sigmoid_slope(x):
    """log(sigmoid(x)) and its slope 1 - sigmoid(x), stable, from one exp."""
    e = np.exp(-np.abs(x))
    tail = np.log1p(e)
    return np.minimum(x, 0) - tail, np.where(x >= 0, e, 1.0) / (1.0 + e)


# Closed-form steps: each takes a run's parameter array (see _skipgram)
# and returns the summed batch loss of its tape twin above, the rows of
# that array the batch touched, and the loss's gradient for each of
# them, as one _sparse_sgd update.


def _hsoftmax_step(params, batch, tree):
    """hierarchical_softmax_loss and its gradients; the tree's vectors
    are the rows of ``params`` from ``tree.n_leaves`` on."""
    ctx = batch[:, 1]
    signs = tree.path_signs.take(ctx, axis=0)
    b, depth = signs.shape
    rows = np.concatenate([batch[:, 0], tree.path_nodes.take(
        ctx, axis=0).ravel() + tree.n_leaves])
    vecs = params.take(rows, axis=0)
    zc, wv = vecs[:b], vecs[b:].reshape(b, depth, -1)
    logsig, slope = _log_sigmoid_slope(np.einsum("btd,bd->bt", wv, zc) * signs)
    loss = -float((logsig * tree.path_mask.take(ctx, axis=0)).sum())
    # d loss / d (z . w) = -(1 - sigmoid(x)) * sign; sign is 0 off the path
    g = -slope * signs
    # the gathered rows become their gradients, each after its last read
    grad_z = np.einsum("bt,btd->bd", g, wv)
    np.einsum("bt,bd->btd", g, zc, out=wv)
    zc[:] = grad_z
    return loss, rows, vecs


def _negsamp_step(params, ctx, batch, negs, weights=None):
    """negative_sampling_loss and its gradients; context and noise
    vectors are the rows of ``params`` from ``ctx`` on, which is 0 when
    z plays both roles."""
    b, k = negs.shape
    # rows: centers, then contexts, then noise draws
    rows = np.concatenate([batch[:, 0], batch[:, 1] + ctx, negs.ravel() + ctx])
    vecs = params.take(rows, axis=0)
    zi, zj, zn = vecs[:b], vecs[b:2 * b], vecs[2 * b:].reshape(b, k, -1)
    # d loss / d (zi . zj) is -pos_slope, d loss / d (zi . zn) is gn
    pos, pos_slope = _log_sigmoid_slope(np.einsum("bd,bd->b", zi, zj))
    neg, gn = _log_sigmoid_slope(-np.einsum("bkd,bd->bk", zn, zi))
    if weights is not None:
        w = np.asarray(weights)
        pos, pos_slope = pos * w, pos_slope * w
        neg, gn = neg * w[:, None], gn * w[:, None]
    loss = -(float(pos.sum()) + float(neg.sum()))
    gp = -pos_slope[:, None]
    # the gathered rows become their gradients, each after its last read
    grad_i = np.einsum("bk,bkd->bd", gn, zn)
    grad_i += gp * zj
    np.multiply(gp, zi, out=zj)
    np.einsum("bk,bd->bkd", gn, zi, out=zn)
    zi[:] = grad_i
    return loss, rows, vecs


def _softmax_step(z, batch):
    """softmax_cross_entropy_loss and its gradients.

    The normalization runs over every node, so every row gets a context
    gradient; the logit gradient is p - e_ctx, formed in place.
    """
    b = np.arange(len(batch))
    zc = z.take(batch[:, 0], axis=0)
    logits = zc @ z.T
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    total = p.sum(axis=1, keepdims=True)
    loss = -float((logits[b, batch[:, 1]] - np.log(total[:, 0])).sum())
    p /= total
    p[b, batch[:, 1]] -= 1.0
    return (loss, np.concatenate([batch[:, 0], np.arange(len(z))]),
            np.concatenate([p @ z, p.T @ zc]))


def _skipgram(g, pairs, config, loss_kind, context_table=False,
              pair_weights=None, dim=None, init=None, seed_tag="", where=None):
    """Set up one skip-gram run; returns its table and its epoch step.

    The run's parameters are one array: z's n rows, then the n - 1
    vectors of the hsoftmax tree or LINE-2's n context vectors (rows n
    on). The returned z is a view of its first n rows, so a caller that
    steps z in place steps the run. ``epoch(e)`` makes shuffled
    minibatch pass e and returns its mean pair loss. Each batch takes one
    SGD step, at the lr annealed over the run's batches, from
    closed-form gradients of the matching tape loss, applied only to the
    rows the batch touches. ``pairs``, an array or a ``walks.WalkPairs``,
    is read in the keyed order ``permutation(P)`` of the epoch's shuffle
    stream, one block of DECODE_BATCHES batches at a time, and each
    block's noise draws are taken at once; both streams are counter
    based, so neither depends on the block size, and an epoch holds
    O(block) indices however many pairs there are. ``seed_tag`` keys the
    streams; ``where`` names the run in its errors.
    """
    where = where or f"{loss_kind} skip-gram"
    if len(pairs) == 0:
        raise ValidationError(f"no training pairs extracted for {where}")
    dim = dim or config.dim
    n = g.node_count
    params = _init_table(g, dim, config.seed, init)
    tree = noise_table = None
    ctx = 0  # the first row of the context vectors
    if loss_kind == "hsoftmax":
        tree = HierarchicalSoftmaxTree(g.degrees(weighted=True))
        params = np.concatenate([params, np.zeros((tree.n_internal, dim))])
    if loss_kind == "negsamp":
        if context_table:
            rng = derived_rng(config.seed, "ctx_init", seed_tag)
            params = np.concatenate(
                [params, rng.uniform(-0.5, 0.5, size=(n, dim)) / dim])
            ctx = n
            counts = g.degrees(weighted=True)
        elif isinstance(pairs, np.ndarray):
            counts = np.bincount(pairs[:, 1], minlength=n).astype(np.float64)
        else:
            counts = pairs.context_counts()
        noise_table = AliasTable(unigram_noise(counts))
    offsets = np.arange(params.size).reshape(-1, dim)
    batches = int(np.ceil(len(pairs) / config.batch_size))
    span = DECODE_BATCHES * config.batch_size

    def epoch(e):
        blocks = derived_rng(config.seed, "shuffle", seed_tag, e
                             ).permutation_blocks(len(pairs), span)
        noise_rng = derived_rng(config.seed, "noise", seed_tag, e)
        epoch_loss = 0.0
        for b, lo in enumerate(range(0, len(pairs), config.batch_size)):
            if lo % span == 0:
                order = next(blocks)
                block = pairs.take(order, axis=0)
                if loss_kind == "negsamp":
                    noise = noise_table.sample(
                        noise_rng, size=(len(order), config.negatives))
            rows = slice(lo % span, lo % span + config.batch_size)
            batch = block[rows]
            if loss_kind == "hsoftmax":
                loss, *update = _hsoftmax_step(params, batch, tree)
            elif loss_kind == "softmax":
                loss, *update = _softmax_step(params, batch)
            else:
                bw = (None if pair_weights is None
                      else pair_weights.take(order[rows]))
                loss, *update = _negsamp_step(params, ctx, batch,
                                              noise[rows], bw)
            # the losses sum over the batch, so the step is scaled down
            # to keep per-pair update sizes in the word2vec lr regime
            annealed = config.lr + (config.lr_min - config.lr) * (
                (e * batches + b) / max(1, config.epochs * batches - 1))
            _sparse_sgd(params, *update, annealed / len(batch),
                        f"{where}, epoch {e}, batch {b}", offsets)
            epoch_loss += loss
        return epoch_loss / len(pairs)

    return params[:n], epoch


def _skipgram_train(g, pairs, config, loss_kind, **kw):
    """Every epoch of one ``_skipgram`` run: the table and loss history."""
    z, epoch = _skipgram(g, pairs, config, loss_kind, **kw)
    return z, [epoch(e) for e in range(config.epochs)]


def _full_batch_gram(g, target, config, method, dim, init=None):
    """Adam on the exact Frobenius objective against a fixed target;
    ``method`` names the run in the error of a non-finite step."""
    z = ad.parameter(_init_table(g, dim, config.seed, init))
    opt = ad.Adam([z], lr=max(config.lr, 0.01))
    history = []
    for epoch in range(config.epochs):
        opt.zero_grad()
        with ad.Tape():
            loss = gram_mse_loss(z, target)
            history.append(loss.item())
            ad.backward(loss)
        opt.step(f"{method}, epoch {epoch}")
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


def _eigenmaps(g, s, config, init):
    """Gradient steps on the weighted-distance loss, whitened after each."""
    pairs = np.argwhere(s > 0)
    weights = s[pairs[:, 0], pairs[:, 1]]
    z = _whiten(_init_table(g, config.dim, config.seed, init))
    history = []
    for _ in range(config.epochs):
        zt = ad.parameter(z)
        with ad.Tape():
            loss = weighted_distance_loss(zt, pairs, weights)
            history.append(loss.item())
            ad.backward(loss)
        z = _whiten(z - config.lr * zt.grad)
    zt = ad.parameter(z)
    with ad.Tape():
        history.append(weighted_distance_loss(zt, pairs, weights).item())
    return z, history


class _Method(NamedTuple):
    """A row of the survey's (similarity, decoder, loss) table.

    ``source`` is what the column blocks train against (see _blocks);
    ``step`` fits a block ("skipgram", "gram" or "eigenmaps"); ``losses``
    are the skip-gram losses taken, default first; ``meta`` the metadata
    keys; ``context`` gives LINE's second order a context table.
    """

    source: str
    step: str
    losses: tuple = ()
    meta: tuple = ("loss_history",)
    context: bool = False


_SKIPGRAM_LOSSES = ("negsamp", "hsoftmax", "softmax")
_TABLE = {
    "laplacian_eigenmaps": _Method("adjacency", "eigenmaps"),
    "graph_factorization": _Method("adjacency", "gram"),
    "grarep": _Method("powers", "gram", meta=("loss_history", "block_dims")),
    "hope": _Method("jaccard", "gram",
                    meta=("loss_history", "similarity_kind")),
    "deepwalk": _Method("walks", "skipgram",
                        ("hsoftmax", "negsamp", "softmax"),
                        ("loss", "loss_history", "pair_count")),
    "node2vec": _Method("node2vec", "skipgram", _SKIPGRAM_LOSSES,
                        ("loss", "loss_history", "p", "q", "pair_count")),
    "walklets": _Method("offsets", "skipgram", _SKIPGRAM_LOSSES,
                        ("loss", "offsets", "loss_history")),
    "line1": _Method("edges", "skipgram", ("negsamp",),
                     ("loss", "loss_history", "order")),
    "line2": _Method("edges", "skipgram", ("negsamp",),
                     ("loss", "loss_history", "order"), context=True),
}
METHODS = tuple(_TABLE)


def _block_dims(dim, count):
    """dim split into count column widths, the first dim % count wider."""
    if not 1 <= count <= dim:
        raise ContractError(f"cannot split dim {dim} into {count} blocks")
    return [dim // count + (i < dim % count) for i in range(count)]


def _blocks(g, method, config, facts):
    """Yield (tag, pairs or dense target, pair weights) per column block.

    Sources: window pairs over uniform ("walks") or node2vec walks,
    pairs at one walk offset per block, both arcs of each edge, one
    adjacency power per block, or a similarity kind that
    ``config.similarity`` overrides. Dense targets are built one block
    at a time. ``tag`` keys a skip-gram block's streams or names a Gram
    block in errors; what shaped the blocks goes into ``facts``.
    """
    source = _TABLE[method].source
    if source == "edges":
        pairs, weights = g.edge_pairs, g.pair_weights
        yield (method, np.concatenate([pairs, pairs[:, ::-1]]),
               np.concatenate([weights, weights]))
    elif source == "powers":
        for k in range(1, config.power_max + 1):
            spec = SimilaritySpec(kind="adjacency_power", power=k)
            yield f"grarep power {k}", build_similarity(g, spec).values, None
    elif source in ("walks", "node2vec", "offsets"):
        cfg = WalkConfig(length=config.walk_length, seed=config.seed,
                         walks_per_node=config.walks_per_node)
        if source == "node2vec":
            cfg = replace(cfg, p=config.p, q=config.q)
            corpus = sample_node2vec_walks(g, cfg)
        else:
            corpus = sample_uniform_walks(g, cfg)
        if source == "offsets":
            for off in config.offsets:
                yield f"off{off}", WalkPairs(corpus, offset=off), None
        else:
            pairs = WalkPairs(corpus, window=config.window)
            facts["pair_count"] = int(len(pairs))
            yield "", pairs, None
    else:
        spec = config.similarity or SimilaritySpec(kind=source)
        facts["similarity_kind"] = spec.kind
        yield method, build_similarity(g, spec).values, None


def train_shallow(g, method, config=None):
    """Train one of the lookup-table methods; returns an EmbeddingTable.

    Metadata carries the loss history and the hyperparameters that
    shaped the run. A warm start ``config.initial`` is one (n, dim)
    array, sliced per column block.
    """
    config = config or ShallowConfig()
    if method not in _TABLE:
        raise ContractError(f"unknown shallow method {method!r}")
    row = _TABLE[method]
    if config.dim >= g.node_count:
        raise ValidationError(
            f"dim {config.dim} must be < node count {g.node_count}")
    if config.loss not in (None,) + row.losses:
        raise ContractError(f"{method} does not take the {config.loss!r} "
                            f"loss; it takes {row.losses}")
    repeated = sorted({o for o in config.offsets if config.offsets.count(o) > 1})
    if row.source == "offsets" and repeated:
        raise ContractError(f"walklets offsets repeat {repeated}; each offset "
                            "trains one column block")
    loss = config.loss or (row.losses[0] if row.losses else None)
    blocked = {"offsets": len(config.offsets), "powers": config.power_max}
    dims = _block_dims(config.dim, blocked.get(row.source, 1))
    inits = [None] * len(dims)
    if config.initial is not None:
        full = _init_table(g, config.dim, config.seed, config.initial)
        inits = np.split(full, np.cumsum(dims)[:-1], axis=1)
    facts = {"loss": loss, "block_dims": dims, "p": config.p, "q": config.q,
             "offsets": tuple(config.offsets), "order": 1 + row.context}
    blocks, history = [], []
    for d, init, (tag, data, weights) in zip(
            dims, inits, _blocks(g, method, config, facts)):
        if row.step == "skipgram":
            z, hist = _skipgram_train(g, data, config, loss, dim=d, init=init,
                                      context_table=row.context,
                                      pair_weights=weights, seed_tag=tag)
        elif row.step == "gram":
            z, hist = _full_batch_gram(g, data, config, tag, d, init)
        else:
            z, hist = _eigenmaps(g, data, config, init)
        blocks.append(z)
        history.append(hist)
    facts["loss_history"] = history if row.source in blocked else history[0]
    meta = {"seed": config.seed, "dim": config.dim, "epochs": config.epochs}
    meta.update((key, facts[key]) for key in row.meta)
    return EmbeddingTable(np.concatenate(blocks, axis=1), list(g.node_ids),
                          method, meta)
