"""Minimal reverse-mode automatic differentiation over numpy arrays.

Values are strictly 2-D float64 ``Tensor`` objects; scalars travel as
(1, 1). Operations executed while a ``Tape`` is active append nodes to
a Wengert list; ``backward`` on a scalar loss walks that list once in
reverse, accumulating gradients additively wherever a value fans out
into several consumers. The tape is cleared afterwards, so each
recorded graph supports exactly one backward pass.

Example
-------
>>> w = parameter([[1.0, 2.0]])
>>> with Tape():
...     loss = reduce_sum(mul(w, w))
...     backward(loss)
>>> w.grad
array([[2., 4.]])
"""

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_TAPES = []


class Tape:
    """Records operations for one backward pass."""

    def __init__(self):
        self.nodes = []
        self.consumed = False

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        if _TAPES and _TAPES[-1] is self:
            _TAPES.pop()
        return False

    def clear(self):
        for node in self.nodes:
            node.tensor._node = None
        self.nodes.clear()
        self.consumed = True


class _Node:
    __slots__ = ("tape", "index", "tensor", "parents", "backward_fn")

    def __init__(self, tape, tensor, parents, backward_fn):
        self.tape = tape
        self.tensor = tensor
        self.parents = parents
        self.backward_fn = backward_fn
        self.index = len(tape.nodes)
        tape.nodes.append(self)


def _active_tape():
    return _TAPES[-1] if _TAPES else None


def _as_array(x):
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        raise ShapeError("tensors are 2-D; reshape 1-D input explicitly")
    elif a.ndim != 2:
        raise ShapeError(f"tensors are 2-D, got ndim={a.ndim}")
    return a


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise ShapeError("item() needs a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(data):
    """Leaf tensor that collects gradients."""
    return Tensor(data, requires_grad=True)


def constant(data):
    return Tensor(data, requires_grad=False)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _node_for(tape, t):
    """Existing node on this tape, or a fresh leaf node for a parameter."""
    if t._node is not None and t._node.tape is tape:
        return t._node
    if t.requires_grad:
        node = _Node(tape, t, (), None)
        t._node = node
        return node
    return None


def _record(out, inputs, backward_fn):
    tape = _active_tape()
    if tape is None or tape.consumed:
        return out
    parents = tuple(_node_for(tape, t) for t in inputs)
    if all(p is None for p in parents):
        return out
    out._node = _Node(tape, out, parents, backward_fn)
    return out


def _unbroadcast(grad, shape):
    if grad.shape == shape:
        return grad
    g = grad
    if shape[0] == 1 and g.shape[0] != 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        g = g.sum(axis=1, keepdims=True)
    if g.shape != shape:
        raise ShapeError(f"cannot reduce gradient {grad.shape} to {shape}")
    return g


def backward(loss):
    """Reverse pass from a scalar loss; clears the tape when done."""
    if not isinstance(loss, Tensor):
        raise ContractError("backward needs a Tensor")
    if loss.data.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
    node = loss._node
    if node is None or node.tape.consumed:
        raise ContractError("loss was not recorded on a live tape")
    tape = node.tape
    grads = {node.index: np.ones((1, 1))}
    for n in reversed(tape.nodes):
        g = grads.pop(n.index, None)
        if g is None:
            continue
        if n.backward_fn is None:
            t = n.tensor
            t.grad = g.copy() if t.grad is None else t.grad + g
            continue
        for parent, contrib in zip(n.parents, n.backward_fn(g)):
            if parent is None or contrib is None:
                continue
            acc = grads.get(parent.index)
            grads[parent.index] = contrib if acc is None else acc + contrib
    tape.clear()


# ---------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data)
    ad, bd = a.data, b.data

    def back(g):
        return g @ bd.T, ad.T @ g

    return _record(out, (a, b), back)


def _broadcast_ok(sa, sb):
    for da, db in zip(sa, sb):
        if da != db and da != 1 and db != 1:
            return False
    return True


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    if not _broadcast_ok(a.data.shape, b.data.shape):
        raise ShapeError(f"add {a.data.shape} + {b.data.shape}")
    out = Tensor(a.data + b.data)
    sa, sb = a.data.shape, b.data.shape

    def back(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _record(out, (a, b), back)


def sub(a, b):
    a, b = _wrap(a), _wrap(b)
    if not _broadcast_ok(a.data.shape, b.data.shape):
        raise ShapeError(f"sub {a.data.shape} - {b.data.shape}")
    out = Tensor(a.data - b.data)
    sa, sb = a.data.shape, b.data.shape

    def back(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _record(out, (a, b), back)


def neg(a):
    a = _wrap(a)
    out = Tensor(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def mul(a, b):
    """Elementwise product with (1, n) / (m, 1) / (1, 1) broadcasting."""
    a, b = _wrap(a), _wrap(b)
    if not _broadcast_ok(a.data.shape, b.data.shape):
        raise ShapeError(f"mul {a.data.shape} * {b.data.shape}")
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data

    def back(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _record(out, (a, b), back)


def scale(a, c):
    a = _wrap(a)
    c = float(c)
    out = Tensor(a.data * c)
    return _record(out, (a,), lambda g: (g * c,))


def transpose(a):
    a = _wrap(a)
    out = Tensor(a.data.T.copy())
    return _record(out, (a,), lambda g: (g.T,))


def concat_cols(a, b):
    a, b = _wrap(a), _wrap(b)
    if a.data.shape[0] != b.data.shape[0]:
        raise ShapeError(f"concat_cols {a.data.shape} | {b.data.shape}")
    out = Tensor(np.concatenate([a.data, b.data], axis=1))
    ca = a.data.shape[1]

    def back(g):
        return g[:, :ca], g[:, ca:]

    return _record(out, (a, b), back)


def take_rows(a, indices):
    """Row gather; backward scatter-adds, so repeated indices accumulate."""
    a = _wrap(a)
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise IndexError("take_rows index out of range")
    out = Tensor(a.data[idx])
    rows, cols = a.data.shape

    def back(g):
        da = np.zeros((rows, cols))
        np.add.at(da, idx, g)
        return (da,)

    return _record(out, (a,), back)


def segment_sum(a, segments, num_segments):
    """Sum rows of ``a`` into ``num_segments`` buckets; empty buckets are 0."""
    a = _wrap(a)
    seg = np.asarray(segments, dtype=np.int64).reshape(-1)
    if seg.size != a.data.shape[0]:
        raise ShapeError("segments length must equal row count")
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise IndexError("segment id out of range")
    res = np.zeros((int(num_segments), a.data.shape[1]))
    np.add.at(res, seg, a.data)
    out = Tensor(res)
    return _record(out, (a,), lambda g: (g[seg],))


def segment_max(a, segments, num_segments):
    """Columnwise max per bucket; empty buckets are 0, ties split gradient."""
    a = _wrap(a)
    seg = np.asarray(segments, dtype=np.int64).reshape(-1)
    if seg.size != a.data.shape[0]:
        raise ShapeError("segments length must equal row count")
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise IndexError("segment id out of range")
    res = np.full((int(num_segments), a.data.shape[1]), -np.inf)
    np.maximum.at(res, seg, a.data)
    empty = np.isinf(res) & (res < 0)
    res[empty] = 0.0
    out = Tensor(res)
    ad = a.data

    def back(g):
        hit = (ad == res[seg]).astype(np.float64)
        counts = np.zeros((int(num_segments), ad.shape[1]))
        np.add.at(counts, seg, hit)
        counts[counts == 0] = 1.0
        return (hit * (g / counts)[seg],)

    return _record(out, (a,), back)


def reduce_sum(a, axis=None):
    """Sum to (1,1), or along an axis keeping 2-D shape."""
    a = _wrap(a)
    if axis is None:
        out = Tensor(a.data.sum().reshape(1, 1))
        shape = a.data.shape

        def back(g):
            return (np.full(shape, g.reshape(())),)

    elif axis in (0, 1):
        out = Tensor(a.data.sum(axis=axis, keepdims=True))
        reps = a.data.shape[axis]

        def back(g):
            return (np.repeat(g, reps, axis=axis),)

    else:
        raise ContractError("axis must be None, 0 or 1")
    return _record(out, (a,), back)


def _sigmoid_np(x):
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)
    return s


def sigmoid(a):
    a = _wrap(a)
    s = _sigmoid_np(a.data)
    out = Tensor(s)
    return _record(out, (a,), lambda g: (g * s * (1.0 - s),))


def log_sigmoid(a):
    """Numerically stable log(sigmoid(x))."""
    a = _wrap(a)
    x = a.data
    res = np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))),
                   x - np.log1p(np.exp(-np.abs(x))))
    out = Tensor(res)

    def back(g):
        return (g * (1.0 - _sigmoid_np(x)),)

    return _record(out, (a,), back)


def tanh(a):
    a = _wrap(a)
    t = np.tanh(a.data)
    out = Tensor(t)
    return _record(out, (a,), lambda g: (g * (1.0 - t * t),))


def relu(a):
    a = _wrap(a)
    mask = a.data > 0
    out = Tensor(a.data * mask)
    return _record(out, (a,), lambda g: (g * mask,))


ACTIVATIONS = {"relu": relu, "tanh": tanh, "sigmoid": sigmoid,
               "identity": lambda t: t}


def glorot(rng, fan_in, fan_out):
    """Glorot-uniform (fan_in, fan_out) weight parameter."""
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return parameter(rng.uniform(-s, s, size=(fan_in, fan_out)))


def classifier_head(rng, width, n_classes, std):
    """Linear head (theta, bias) over width-wide inputs: one sigmoid
    column for two classes, one softmax column per class beyond."""
    cols = 1 if n_classes <= 2 else n_classes
    return (parameter(rng.normal(0.0, std, size=(width, cols))),
            parameter(np.zeros((1, cols))))


def predict_classes(scores):
    """Class index per row of head scores (> 0 for a single column)."""
    if scores.shape[1] == 1:
        return (scores.reshape(-1) > 0).astype(np.int64)
    return scores.argmax(axis=1)


def exp(a):
    a = _wrap(a)
    e = np.exp(a.data)
    out = Tensor(e)
    return _record(out, (a,), lambda g: (g * e,))


def log(a):
    a = _wrap(a)
    if not np.all(np.isfinite(a.data)):
        raise NumericError("log of non-finite input")
    if np.any(a.data <= 0):
        raise NumericError("log of non-positive input")
    out = Tensor(np.log(a.data))
    ad = a.data
    return _record(out, (a,), lambda g: (g / ad,))


def softmax_rows(a):
    """Row softmax with max-subtraction; each output row sums to 1."""
    a = _wrap(a)
    if not np.all(np.isfinite(a.data)):
        raise NumericError("softmax of non-finite input")
    z = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)
    out = Tensor(s)

    def back(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - dot),)

    return _record(out, (a,), back)


def l2_normalize_rows(a):
    """Scale each row to unit length; all-zero rows stay zero."""
    a = _wrap(a)
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    y = a.data / safe
    zero = (norms == 0).reshape(-1)
    y[zero] = 0.0
    out = Tensor(y)

    def back(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        da = (g - y * dot) / safe
        da[zero] = 0.0
        return (da,)

    return _record(out, (a,), back)


def squared_distance(a, b):
    """Rowwise squared euclidean distance, (m, 1)."""
    a, b = _wrap(a), _wrap(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"squared_distance {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    out = Tensor((diff * diff).sum(axis=1, keepdims=True))

    def back(g):
        return 2.0 * g * diff, -2.0 * g * diff

    return _record(out, (a, b), back)


def dot_rows(a, b):
    """Rowwise inner product, (m, 1)."""
    a, b = _wrap(a), _wrap(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"dot_rows {a.data.shape} vs {b.data.shape}")
    out = Tensor((a.data * b.data).sum(axis=1, keepdims=True))
    ad, bd = a.data, b.data

    def back(g):
        return g * bd, g * ad

    return _record(out, (a, b), back)


# ---------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------


def _check_grads(params, where):
    """Raise before a step writes anything if any gradient is non-finite.

    ``where`` names the step in the error, e.g. the method and epoch.
    """
    for p in params:
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise NumericError(f"non-finite gradient in {where}")


class Sgd:
    """Plain stochastic gradient descent."""

    def __init__(self, params, lr=0.025):
        self.params = list(params)
        self.lr = float(lr)

    def step(self, where="optimizer step"):
        _check_grads(self.params, where)
        for p in self.params:
            if p.grad is not None:
                p.data -= self.lr * p.grad

    def zero_grad(self):
        for p in self.params:
            p.grad = None


# Adam's moment decay rates and denominator guard, the usual ones
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with the usual bias correction (``ADAM_BETA1``, ``ADAM_BETA2``,
    ``ADAM_EPS``)."""

    def __init__(self, params, lr=0.01):
        self.params = list(params)
        self.lr = float(lr)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self, where="optimizer step"):
        _check_grads(self.params, where)
        self._t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * p.grad * p.grad
            mhat = m / (1 - b1 ** self._t)
            vhat = v / (1 - b2 ** self._t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)

    def zero_grad(self):
        for p in self.params:
            p.grad = None
