"""Lookup-table node embeddings trained against pairwise objectives.

Covers the spectral family (Laplacian eigenmaps and the closed-form
factorization, each one exact eigendecomposition; inner product MSE
against similarity targets, one per power block) and the skip-gram
family over sampled walks (hierarchical softmax, negative sampling,
edge-based first/second order variants). One embedding table serves
both center and context roles except for the second-order edge method,
which trains separate context vectors; a skip-gram run keeps those, or
the hierarchical softmax tree's vectors, as extra rows of its one
parameter array.

All trainers are deterministic for a fixed seed: pair shuffles and
noise draws come from ``rng`` streams keyed by (seed, purpose, epoch).
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .errors import ContractError, NumericError, ValidationError
from .graph import dense_guard, eigh_columns, laplacian_of
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
NOISE_BATCHES = 16  # batches whose noise draws _skipgram takes at once
LR_MIN = 1e-4  # the lr that _skipgram's linear annealing ends at


def gram_residual(z, s):
    """Frobenius objective || Z Z^T - S ||_F^2 (``graph.dense_guard``)."""
    z = z.vectors if isinstance(z, EmbeddingTable) else np.asarray(z)
    dense_guard(len(z))
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
        # the tree's vectors follow the leaves' rows in a skip-gram run's
        # parameter array (see _skipgram)
        self.path_rows = self.path_nodes + n

    def leaf_probabilities(self, z, w):
        """Probability of each leaf given input vector z, parameters w."""
        dots = np.asarray(w) @ np.asarray(z).reshape(-1)
        sig = ad._sigmoid_np(self.path_signs * dots[self.path_nodes])
        return np.where(self.path_mask > 0, sig, 1.0).prod(axis=1)


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
    values = np.asarray(s, dtype=np.float64)
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
    lam_d, u_d = eigh_columns(sym, d)
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


class _Workspace:
    """One skip-gram run's batch scratch, sized once for its full batch.

    A step lists its rows in ``rows``, gathers their vectors into
    ``vecs`` and turns them into their gradients there, and keeps its
    per-term arithmetic in ``terms`` (and the boolean ``flag``) and its
    per-pair vectors in ``head``. ``_sparse_sgd`` builds the flat
    ``bincount`` index in ``flat`` from ``offsets``, the table of
    ``u * d + arange(d)`` over the run's parameter rows, and checks the
    sums in ``finite``; a decode block lands in ``block``, with
    ``decode`` as the decode's scratch. A batch shorter than the full
    one uses the front of each buffer. So a full-table update allocates
    only ``bincount``'s accumulator, which has no ``out=``.

    ``shape`` is the run's parameter array's, ``rows`` the most gradient
    rows one batch's update holds, ``terms`` the shape of the float
    scratch and ``span`` the pairs a decode block holds.
    """

    def __init__(self, shape, batch_size, rows, terms, span=0):
        n, d = shape
        self.rows = np.empty(rows, dtype=np.intp)
        self.vecs = np.empty((rows, d))
        self.flat = np.empty((rows, d), dtype=np.intp)
        self.head = np.empty((batch_size, d))
        self.terms = np.empty(terms)
        self.flag = np.empty(terms[1], dtype=bool)
        self.offsets = np.arange(n * d).reshape(n, d)
        self.count = np.arange(max(rows, n))
        self.slot = np.empty(n, dtype=np.intp)
        self.finite = np.empty(n * d, dtype=bool)
        self.block = np.empty((span, 2), dtype=np.int64)
        self.decode = np.empty((2, span), dtype=np.int64)

    @classmethod
    def sized(cls, shape, loss_kind, batch_size, per_pair, span=0):
        """The workspace of a ``loss_kind`` run; ``per_pair`` is the
        tree's depth (hsoftmax) or the noise draws per pair (negsamp)."""
        b = batch_size
        if loss_kind == "hsoftmax":
            return cls(shape, b, b * (1 + per_pair), (4, b * per_pair), span)
        if loss_kind == "negsamp":
            return cls(shape, b, b * (2 + per_pair), (3, b * (1 + per_pair)),
                       span)
        # softmax: every row gets a gradient; logits and probabilities
        return cls(shape, b, b + shape[0], (2, b * shape[0]), span)


def _sparse_sgd(table, rows, grad, lr, where, ws):
    """One SGD step on the rows of ``table`` that a batch touched.

    ``grad`` holds one gradient row per entry of ``rows``; repeated rows
    accumulate, each element summed in input order from 0.0. The flat
    ``bincount`` index is gathered from ``ws.offsets`` (a ``_Workspace``
    sized for ``table``) into ``ws.flat``; once the sums are taken,
    ``ws.vecs`` is scratch, so ``grad`` may be it.

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
    m = len(rows)
    if not m:
        return
    n, d = table.shape
    uniq = None
    if m < n:
        count = ws.count[:m]
        ws.slot[rows] = count
        # whichever duplicate's write lands, one entry per row reads
        # back its own index
        uniq = rows[ws.slot.take(rows) == count]
        ws.slot[uniq] = count[:uniq.size]
        rows, n = ws.slot.take(rows), uniq.size
    flat = ws.offsets.take(rows, axis=0, out=ws.flat[:m], mode="clip")
    acc = np.bincount(flat.ravel(), weights=grad.ravel(),
                      minlength=n * d).reshape(n, d)
    if not np.isfinite(acc, out=ws.finite[:n * d].reshape(n, d)).all():
        raise NumericError(f"non-finite gradient in {where}")
    acc *= lr
    if uniq is None:
        table -= acc
    else:
        rest = table.take(uniq, axis=0, out=ws.vecs[:n], mode="clip")
        rest -= acc
        table[uniq] = rest


def _log_sigmoid_slope(x, slope, tail, flag):
    """log(sigmoid(x)) and its slope 1 - sigmoid(x), stable, from one exp.

    Log sigmoid is written over x and the slope into ``slope``, which
    are returned; ``tail`` and the boolean ``flag`` are scratch of x's
    shape.
    """
    np.greater_equal(x, 0, out=flag)
    e = np.exp(np.negative(np.abs(x, out=slope), out=slope), out=slope)
    np.log1p(e, out=tail)
    np.minimum(x, 0, out=x)
    x -= tail
    np.add(e, 1.0, out=tail)
    # e where x >= 0, 1.0 elsewhere, over 1 + e
    np.copyto(slope, 1.0, where=np.logical_not(flag, out=flag))
    slope /= tail
    return x, slope


# Closed-form steps: each takes a run's parameter array (see _skipgram)
# and its _Workspace, and returns the summed batch loss of its tape
# twin (``negative_sampling_loss`` above; the two softmax losses are
# tape oracles in tests/oracles.py), the rows of that array the batch
# touched, and the loss's gradient for each of them, as one _sparse_sgd
# update, in the workspace.


def _hsoftmax_step(params, batch, tree, ws):
    """The hierarchical-softmax loss, -sum log P(context | center) over
    the tree's paths, and its gradients; the tree's vectors are the rows
    of ``params`` from ``tree.n_leaves`` on."""
    b, depth = len(batch), tree.depth
    ctx = batch[:, 1]
    rows = ws.rows[:b * (1 + depth)]
    rows[:b] = batch[:, 0]
    tree.path_rows.take(ctx, axis=0, out=rows[b:].reshape(b, depth),
                        mode="clip")
    signs, x, slope, tail = ws.terms[:, :b * depth].reshape(4, b, depth)
    tree.path_signs.take(ctx, axis=0, out=signs, mode="clip")
    vecs = params.take(rows, axis=0, out=ws.vecs[:len(rows)], mode="clip")
    zc, wv = vecs[:b], vecs[b:].reshape(b, depth, -1)
    x = np.einsum("btd,bd->bt", wv, zc, out=x)
    x *= signs
    logsig, slope = _log_sigmoid_slope(
        x, slope, tail, ws.flag[:b * depth].reshape(b, depth))
    mask = tree.path_mask.take(ctx, axis=0, out=tail, mode="clip")
    mask *= logsig
    loss = -float(mask.sum())
    # d loss / d (z . w) = -(1 - sigmoid(x)) * sign; sign is 0 off the path
    g = np.negative(slope, out=slope)
    g *= signs
    # the gathered rows become their gradients, each after its last read
    grad_z = np.einsum("bt,btd->bd", g, wv, out=ws.head[:b])
    np.einsum("bt,bd->btd", g, zc, out=wv)
    zc[:] = grad_z
    return loss, rows, vecs


def _negsamp_step(params, ctx, batch, negs, ws, weights=None):
    """negative_sampling_loss and its gradients; context and noise
    vectors are the rows of ``params`` from ``ctx`` on, which is 0 when
    z plays both roles."""
    b, k = negs.shape
    # rows: centers, then contexts, then noise draws
    rows = ws.rows[:b * (2 + k)]
    rows[:b] = batch[:, 0]
    np.add(batch[:, 1], ctx, out=rows[b:2 * b])
    np.add(negs, ctx, out=rows[2 * b:].reshape(b, k))
    vecs = params.take(rows, axis=0, out=ws.vecs[:len(rows)], mode="clip")
    zi, zj, zn = vecs[:b], vecs[b:2 * b], vecs[2 * b:].reshape(b, k, -1)
    # each pair's positive term, then its k noise terms
    x, slope, tail = ws.terms[:, :b * (1 + k)]
    np.einsum("bd,bd->b", zi, zj, out=x[:b])
    neg = np.einsum("bkd,bd->bk", zn, zi, out=x[b:].reshape(b, k))
    np.negative(neg, out=neg)
    _log_sigmoid_slope(x, slope, tail, ws.flag[:len(x)])
    # d loss / d (zi . zj) is -pos_slope, d loss / d (zi . zn) is gn
    pos, pos_slope, gn = x[:b], slope[:b], slope[b:].reshape(b, k)
    if weights is not None:
        pos *= weights
        pos_slope *= weights
        neg *= weights[:, None]
        gn *= weights[:, None]
    loss = -(float(pos.sum()) + float(neg.sum()))
    gp = np.negative(pos_slope, out=pos_slope)[:, None]
    # the gathered rows become their gradients, each after its last read
    grad_i = np.einsum("bk,bkd->bd", gn, zn, out=ws.head[:b])
    grad_i += np.multiply(gp, zj, out=zj)
    np.multiply(gp, zi, out=zj)
    np.einsum("bk,bd->bkd", gn, zi, out=zn)
    zi[:] = grad_i
    return loss, rows, vecs


def _softmax_step(z, batch, ws):
    """The full-softmax loss, -sum log softmax(z_center . Z)[context],
    and its gradients.

    The normalization runs over every node, so every row gets a context
    gradient; the logit gradient is p - e_ctx, formed in place. Only
    the per-pair maxima and sums allocate.
    """
    b, n = len(batch), len(z)
    rows = ws.rows[:b + n]
    rows[:b] = batch[:, 0]
    rows[b:] = ws.count[:n]
    zc = z.take(batch[:, 0], axis=0, out=ws.head[:b], mode="clip")
    logits, p = ws.terms[:, :b * n].reshape(2, b, n)
    np.matmul(zc, z.T, out=logits)
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=p)
    total = p.sum(axis=1, keepdims=True)
    at = ws.count[:b], batch[:, 1]
    loss = -float((logits[at] - np.log(total[:, 0])).sum())
    p /= total
    p[at] -= 1.0
    grad = ws.vecs[:b + n]
    np.matmul(p, z, out=grad[:b])
    np.matmul(p.T, zc, out=grad[b:])
    return loss, rows, grad


def _check_nodes(pairs, n, where):
    """Refuse pairs that name a node outside [0, n): the gathers clip."""
    if pairs.min() < 0 or pairs.max() >= n:
        raise ValidationError(
            f"pair node index out of range [0, {n}) in {where}")


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
    stream, one block of DECODE_BATCHES batches at a time, and the noise
    stream is drawn one slice of NOISE_BATCHES batches at a time; both
    streams are counter based, so neither depends on the block or slice
    size, and an epoch holds O(block) indices however many pairs there
    are. A pair array, or else each decoded block, is checked to hold
    node indices in [0, n) before any of it is gathered. The run
    allocates one ``_Workspace``, so a batch's step, update and decode
    allocate nothing that grows with the batch but ``bincount``'s
    accumulator. ``seed_tag`` keys the streams; ``where`` names the run
    in its errors.
    """
    where = where or f"{loss_kind} skip-gram"
    if len(pairs) == 0:
        raise ValidationError(f"no training pairs extracted for {where}")
    dim = dim or config.dim
    n = g.node_count
    decoded = isinstance(pairs, WalkPairs)
    if not decoded:
        _check_nodes(pairs, n, where)
    params = _init_table(g, dim, config.seed, init)
    tree = noise_table = None
    ctx = 0  # the first row of the context vectors
    per_pair = config.negatives
    if loss_kind == "hsoftmax":
        tree = HierarchicalSoftmaxTree(g.degrees(weighted=True))
        params = np.concatenate([params, np.zeros((tree.n_internal, dim))])
        per_pair = tree.depth
    if loss_kind == "negsamp":
        if context_table:
            rng = derived_rng(config.seed, "ctx_init", seed_tag)
            params = np.concatenate(
                [params, rng.uniform(-0.5, 0.5, size=(n, dim)) / dim])
            ctx = n
            counts = g.degrees(weighted=True)
        elif not decoded:
            counts = np.bincount(pairs[:, 1], minlength=n).astype(np.float64)
        else:
            counts = pairs.context_counts()
        noise_table = AliasTable(unigram_noise(counts))
    batches = int(np.ceil(len(pairs) / config.batch_size))
    span = DECODE_BATCHES * config.batch_size
    noise_span = NOISE_BATCHES * config.batch_size
    ws = _Workspace.sized(params.shape, loss_kind,
                          min(config.batch_size, len(pairs)), per_pair,
                          min(span, len(pairs)))
    batch_weights = (None if pair_weights is None
                     else np.empty(config.batch_size))

    def epoch(e):
        blocks = derived_rng(config.seed, "shuffle", seed_tag, e
                             ).permutation_blocks(len(pairs), span)
        noise_rng = derived_rng(config.seed, "noise", seed_tag, e)
        epoch_loss = 0.0
        for b, lo in enumerate(range(0, len(pairs), config.batch_size)):
            if lo % span == 0:
                order = next(blocks)
                m = len(order)
                block = ws.block[:m]
                if decoded:
                    pairs.take(order, out=block, scratch=ws.decode[:, :m])
                    _check_nodes(block, n, where)
                else:
                    pairs.take(order, axis=0, out=block, mode="clip")
            if loss_kind == "negsamp" and lo % noise_span == 0:
                noise = noise_table.sample(noise_rng, size=(
                    min(noise_span, len(pairs) - lo), config.negatives))
            rows = slice(lo % span, lo % span + config.batch_size)
            batch = block[rows]
            if loss_kind == "hsoftmax":
                loss, *update = _hsoftmax_step(params, batch, tree, ws)
            elif loss_kind == "softmax":
                loss, *update = _softmax_step(params, batch, ws)
            else:
                bw = None if pair_weights is None else pair_weights.take(
                    order[rows], out=batch_weights[:len(batch)])
                at = lo % noise_span
                loss, *update = _negsamp_step(
                    params, ctx, batch, noise[at:at + config.batch_size],
                    ws, bw)
            # the losses sum over the batch, so the step is scaled down
            # to keep per-pair update sizes in the word2vec lr regime
            annealed = config.lr + (LR_MIN - config.lr) * (
                (e * batches + b) / max(1, config.epochs * batches - 1))
            try:
                _sparse_sgd(params, *update, annealed / len(batch), where, ws)
            except NumericError as err:
                # the batch's label is built only for the error
                raise NumericError(f"{err}, epoch {e}, batch {b}") from None
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


def _eigenmaps(s, dim):
    """The zero-mean, unit-covariance table of least loss
    sum_ij s_ij ||z_i - z_j||^2 = 2n sum(lambda): sqrt(n) times the dim
    bottom eigenvectors of the Laplacian L of (S + S^T)/2 orthogonal to
    the constant vector. Adding (trace(L) + 1)/n to L's entries lifts only
    the constant vector's eigenvalue, above all others, however many
    components the graph has."""
    n = len(s)
    lap = laplacian_of(s)
    lam, u = eigh_columns(lap + (np.trace(lap) + 1.0) / n, dim, top=False)
    return np.sqrt(n) * u, [2.0 * n * float(lam.sum())]


class _Method(NamedTuple):
    """A row of the survey's (similarity, decoder, loss) table.

    ``source`` is what the column blocks train against (see _blocks);
    ``step`` fits a block ("skipgram", "gram", or "eigenmaps": one exact
    eigendecomposition, with no epochs, lr or warm start); ``losses`` are
    the skip-gram losses taken, default first; ``meta`` the metadata
    keys; ``context`` gives LINE's second order a context table.
    """

    source: str
    step: str
    losses: tuple = ()
    meta: tuple = ("loss_history",)
    context: bool = False


_SKIPGRAM_LOSSES = ("negsamp", "hsoftmax", "softmax")
# the ShallowConfig fields that only a trained method reads, and those
# of them that each step reads (a Gram block's full-batch Adam two)
_TRAINING = ("epochs", "lr", "batch_size")
_STEP_TRAINING = {"eigenmaps": (), "gram": ("epochs", "lr"),
                  "skipgram": _TRAINING}
# the ShallowConfig fields that shape a row's blocks (see _blocks) or
# its skip-gram steps, and the sources (for negatives, the loss) that
# read each
_SAMPLING = {"walk_length": ("walks", "node2vec", "offsets"),
             "walks_per_node": ("walks", "node2vec", "offsets"),
             "window": ("walks", "node2vec"), "p": ("node2vec",),
             "q": ("node2vec",), "negatives": ("negsamp",),
             "power_max": ("powers",), "offsets": ("offsets",)}
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


def unread_settings(method):
    """The ShallowConfig fields that ``method``'s row never reads at its
    default loss, the one the CLI runs.

    An exact solve reads no training field, a Gram block only ``epochs``
    and ``lr``, a skip-gram row all of them. No row reads a sampling
    field that its source does not, and only a negative-sampling step
    reads ``negatives``. An unknown method name gives none.
    """
    row = _TABLE.get(method)
    if row is None:
        return ()
    readers = {row.source, *row.losses[:1]}
    return (tuple(f for f in _TRAINING if f not in _STEP_TRAINING[row.step])
            + tuple(f for f, sources in _SAMPLING.items()
                    if readers.isdisjoint(sources)))


def _block_dims(dim, count):
    """dim split into count column widths, the first dim % count wider."""
    if not 1 <= count <= dim:
        raise ContractError(f"cannot split dim {dim} into {count} blocks")
    return [dim // count + (i < dim % count) for i in range(count)]


def _blocks(g, method, config, facts):
    """Yield (tag, pairs or dense target, pair weights) per column block.

    Sources: window pairs over uniform ("walks") or node2vec walks,
    pairs at one walk offset per block, both arcs of each edge, one
    adjacency power per block, or the row's similarity kind. Dense
    targets are built one block at a time. ``tag`` keys a skip-gram
    block's streams or names a Gram block in errors; what shaped the
    blocks goes into ``facts``.
    """
    source = _TABLE[method].source
    if source == "edges":
        pairs, weights = g.edge_pairs, g.pair_weights
        yield (method, np.concatenate([pairs, pairs[:, ::-1]]),
               np.concatenate([weights, weights]))
    elif source == "powers":
        for k in range(1, config.power_max + 1):
            spec = SimilaritySpec(kind="adjacency_power", power=k)
            yield f"grarep power {k}", build_similarity(g, spec), None
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
        facts["similarity_kind"] = source
        target = build_similarity(g, SimilaritySpec(kind=source))
        yield method, target, None


def train_shallow(g, method, config=None):
    """Train one of the lookup-table methods; returns an EmbeddingTable.

    Metadata carries the loss history and the hyperparameters that
    shaped the run. A warm start ``config.initial`` is one (n, dim)
    array, sliced per column block. ``laplacian_eigenmaps`` trains
    nothing, so it refuses a warm start and any ``epochs``, ``lr`` or
    ``batch_size`` but the defaults.
    """
    config = config or ShallowConfig()
    if method not in _TABLE:
        raise ContractError(f"unknown shallow method {method!r}")
    row = _TABLE[method]
    if config.dim >= g.node_count:
        raise ValidationError(
            f"dim {config.dim} must be < node count {g.node_count}")
    if config.initial is not None and row.step == "eigenmaps":
        raise ContractError(f"{method} is solved exactly and takes no warm "
                            "start (config.initial)")
    if config.loss not in (None,) + row.losses:
        raise ContractError(f"{method} does not take the {config.loss!r} "
                            f"loss; it takes {row.losses}")
    # an exact solve refuses its training fields; the CLI refuses every
    # unread field it has a flag for
    unread = _TRAINING if row.step == "eigenmaps" else ()
    given = [f"{name}={getattr(config, name)!r}" for name in unread
             if getattr(config, name) != getattr(ShallowConfig(), name)]
    if given:
        raise ContractError(f"{method} is solved exactly and takes no "
                            f"{', '.join(unread)}; got {', '.join(given)}")
    repeated = sorted({o for o in config.offsets if config.offsets.count(o) > 1})
    if row.source == "offsets" and repeated:
        raise ContractError(f"walklets offsets repeat {repeated}; each offset "
                            "trains one column block")
    loss = config.loss or (row.losses[0] if row.losses else None)
    if loss == "softmax":
        # each pair's logits span every node: 2 x batch x n floats
        dense_guard(g.node_count)
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
            z, hist = _eigenmaps(data, d)
        blocks.append(z)
        history.append(hist)
    facts["loss_history"] = history if row.source in blocked else history[0]
    meta = {"seed": config.seed, "dim": config.dim}
    if "epochs" not in unread:
        meta["epochs"] = config.epochs
    meta.update((key, facts[key]) for key in row.meta)
    return EmbeddingTable(np.concatenate(blocks, axis=1), list(g.node_ids),
                          method, meta)
