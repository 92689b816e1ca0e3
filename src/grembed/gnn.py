"""Message-passing embeddings over node attributes.

Three flavors share one edge-parallel code path:

* a contraction-mapped fixed point: node states are iterated as the
  sum over neighbors of an MLP of (neighbor state, own attributes,
  neighbor attributes) until the update is smaller than a tolerance.
  Weights are spectrally rescaled so the whole map is a contraction,
  which makes the fixed point unique and start-independent;
* a gated recurrent variant: K rounds of linear messages fed into a
  GRU-style state update;
* the generic form with pluggable message and update functions, which
  the gated variant delegates to (so those two agree bit for bit).

States are (n, d); attributes enter round 0 zero-padded to width d.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .aggenc import load_checkpoint, node_features, save_checkpoint
from .errors import ContractError, ConvergenceError, ValidationError
from .rng import derived_rng
from .shallow import EmbeddingTable


class Mlp:
    """Dense stack with a fixed activation; final layer stays linear."""

    def __init__(self, dims, seed=42, activation="tanh", rng=None):
        if len(dims) < 2:
            raise ContractError("mlp needs input and output widths")
        if activation not in ad.ACTIVATIONS:
            raise ContractError(f"unknown activation {activation!r}")
        rng = rng or derived_rng(seed, "mlp_init", *dims)
        self.dims = tuple(int(d) for d in dims)
        self.activation = activation
        self.layers = []
        for din, dout in zip(self.dims[:-1], self.dims[1:]):
            self.layers.append((ad.glorot(rng, din, dout),
                                ad.parameter(np.zeros((1, dout)))))

    def tensors(self):
        out = []
        for w, b in self.layers:
            out.extend([w, b])
        return out

    def apply(self, x):
        act = ad.ACTIVATIONS[self.activation]
        for i, (w, b) in enumerate(self.layers):
            x = ad.add(ad.matmul(x, w), b)
            if i < len(self.layers) - 1:
                x = act(x)
        return x


def spectral_norm(w, iters=100):
    """Largest singular value by power iteration (deterministic start)."""
    w = np.asarray(w, dtype=np.float64)
    v = np.ones(w.shape[1]) / np.sqrt(w.shape[1])
    for _ in range(iters):
        u = w @ v
        nu = np.linalg.norm(u)
        if nu == 0:
            return 0.0
        u /= nu
        v = w.T @ u
        nv = np.linalg.norm(v)
        if nv == 0:
            return 0.0
        v /= nv
    return float(np.linalg.norm(w @ v))


def _pad_attributes(g, x, dim):
    x = node_features(g, x)
    if x.shape[1] > dim:
        raise ContractError(
            f"attribute width {x.shape[1]} exceeds state width {dim}")
    if x.shape[1] < dim:
        x = np.concatenate([x, np.zeros((x.shape[0], dim - x.shape[1]))], axis=1)
    return x


# ---------------------------------------------------------------------
# fixed-point states
# ---------------------------------------------------------------------


def gnn_fixed_point(g, x=None, hidden_dim=8, mlp=None, mlp_hidden=(16,),
                    tol=1e-6, max_iters=200, contraction_scale=0.9,
                    init="zeros", seed=42):
    """Iterate h_i <- sum_{j in N(i)} f([h_j; x_i; x_j]) to convergence.

    f's weights are rescaled so (max degree) * prod of layer spectral
    norms <= contraction_scale < 1; Banach then guarantees one fixed
    point whatever the start. Returns (table, info) where info carries
    iterations, final residual, and the rescale factor. Raises
    ConvergenceError (with the residual attached) if max_iters pass
    without the update dropping below tol.
    """
    if not 0 < contraction_scale < 1:
        raise ContractError("contraction_scale must be in (0, 1)")
    if g.directed:
        raise ValidationError("fixed-point states need an undirected graph")
    xr = node_features(g, x)
    m = xr.shape[1]
    if mlp is None:
        mlp = Mlp((hidden_dim + 2 * m, *mlp_hidden, hidden_dim), seed=seed)
    else:
        if mlp.dims[0] != hidden_dim + 2 * m or mlp.dims[-1] != hidden_dim:
            raise ContractError(
                f"mlp dims {mlp.dims} incompatible with state {hidden_dim}, "
                f"attributes {m}")

    max_deg = float(g.degrees().max()) if g.node_count else 0.0
    if max_deg == 0:
        raise ValidationError("graph has no edges")
    lip = np.prod([spectral_norm(w.data) for w, _b in mlp.layers])
    bound = lip * max_deg
    factor = 1.0
    if bound > contraction_scale:
        factor = (contraction_scale / bound) ** (1.0 / len(mlp.layers))
        for w, _b in mlp.layers:
            w.data = w.data * factor

    src, dst = g.csr_sources, g.csr_targets
    xi = xr[src]
    xj = xr[dst]
    if init == "zeros":
        h = np.zeros((g.node_count, hidden_dim))
    elif init == "random":
        h = derived_rng(seed, "fp_init").normal(size=(g.node_count, hidden_dim))
    else:
        raise ContractError("init must be 'zeros' or 'random'")

    trace = []
    for it in range(1, max_iters + 1):
        inputs = ad.constant(np.concatenate([h[dst], xi, xj], axis=1))
        msgs = mlp.apply(inputs)
        h_new = ad.segment_sum(msgs, src, g.node_count).data
        residual = float(np.sqrt(((h_new - h) ** 2).sum(axis=1)).max())
        trace.append(residual)
        h = h_new
        if residual < tol:
            info = {"iterations": it, "residual": residual,
                    "rescale_factor": factor, "lipschitz_bound": float(
                        min(bound, contraction_scale)), "trace": trace}
            table = EmbeddingTable(h, list(g.node_ids), "gnn_fixed_point",
                                   {"iterations": it, "residual": residual})
            return table, info
    raise ConvergenceError(
        f"no fixed point within {max_iters} iterations (residual {trace[-1]:.3g})",
        residual=trace[-1])


# ---------------------------------------------------------------------
# message / update functions
# ---------------------------------------------------------------------


class LinearMessage:
    """Sender state through one weight matrix."""

    def __init__(self, dim, seed=42, w=None):
        if w is not None:
            self.w = w if isinstance(w, ad.Tensor) else ad.parameter(w)
        else:
            rng = derived_rng(seed, "linmsg", dim)
            s = np.sqrt(3.0 / dim)
            self.w = ad.parameter(rng.uniform(-s, s, size=(dim, dim)))

    def tensors(self):
        return [self.w]

    def compute(self, h, senders, receivers, edge_types=None):
        return ad.matmul(ad.take_rows(h, senders), self.w)


class TypedLinearMessage:
    """One weight matrix per edge type."""

    def __init__(self, dim, n_types, seed=42):
        rng = derived_rng(seed, "typedmsg", dim, n_types)
        s = np.sqrt(3.0 / dim)
        self.maps = [ad.parameter(rng.uniform(-s, s, size=(dim, dim)))
                     for _ in range(n_types)]

    def tensors(self):
        return list(self.maps)

    def compute(self, h, senders, receivers, edge_types=None):
        if edge_types is None:
            raise ValidationError("typed messages need edge types")
        hs = ad.take_rows(h, senders)
        out = None
        for t, w in enumerate(self.maps):
            mask = (np.asarray(edge_types) == t).astype(np.float64).reshape(-1, 1)
            part = ad.mul(ad.matmul(hs, w), mask)
            out = part if out is None else ad.add(out, part)
        return out


class MlpMessage:
    """MLP of [receiver state; sender state] per directed edge."""

    def __init__(self, dim, hidden=(16,), seed=42):
        self.mlp = Mlp((2 * dim, *hidden, dim), seed=seed)

    def tensors(self):
        return self.mlp.tensors()

    def compute(self, h, senders, receivers, edge_types=None):
        pair = ad.concat_cols(ad.take_rows(h, receivers),
                              ad.take_rows(h, senders))
        return self.mlp.apply(pair)


class GruUpdate:
    """Gated state update h' = z*h + (1-z)*htilde.

    The update-gate bias starts at +1 so early rounds mostly carry
    state through, which keeps deep unrolls stable.
    """

    def __init__(self, dim, seed=42):
        rng = derived_rng(seed, "gru", dim)
        s = np.sqrt(3.0 / dim)

        def mat():
            return ad.parameter(rng.uniform(-s, s, size=(dim, dim)))

        self.wz, self.uz = mat(), mat()
        self.bz = ad.parameter(np.ones((1, dim)))
        self.wr, self.ur = mat(), mat()
        self.br = ad.parameter(np.zeros((1, dim)))
        self.wh, self.uh = mat(), mat()
        self.bh = ad.parameter(np.zeros((1, dim)))

    def tensors(self):
        return [self.wz, self.uz, self.bz, self.wr, self.ur, self.br,
                self.wh, self.uh, self.bh]

    def apply(self, h, m):
        z = ad.sigmoid(ad.add(ad.add(ad.matmul(m, self.wz),
                                     ad.matmul(h, self.uz)), self.bz))
        r = ad.sigmoid(ad.add(ad.add(ad.matmul(m, self.wr),
                                     ad.matmul(h, self.ur)), self.br))
        htil = ad.tanh(ad.add(ad.add(ad.matmul(m, self.wh),
                                     ad.matmul(ad.mul(r, h), self.uh)),
                              self.bh))
        one = ad.constant(np.ones((1, 1)))
        return ad.add(ad.mul(z, h), ad.mul(ad.sub(one, z), htil))


class MlpUpdate:
    """MLP of [state; aggregated message]."""

    def __init__(self, dim, hidden=(16,), seed=42):
        self.mlp = Mlp((2 * dim, *hidden, dim), seed=seed)

    def tensors(self):
        return self.mlp.tensors()

    def apply(self, h, m):
        return self.mlp.apply(ad.concat_cols(h, m))


@dataclass
class MpnnConfig:
    dim: int = 8
    rounds: int = 3
    message: object = None
    update: object = None
    seed: int = 42

    def __post_init__(self):
        if self.rounds < 1:
            raise ContractError("rounds must be >= 1")
        if self.dim < 1:
            raise ContractError("dim must be >= 1")
        if self.message is None:
            self.message = LinearMessage(self.dim, seed=self.seed)
        if self.update is None:
            self.update = GruUpdate(self.dim, seed=self.seed)

    def tensors(self):
        return self.message.tensors() + self.update.tensors()


def mpnn_tensors(g, config, x=None):
    """K rounds of message passing; returns the (n, dim) state Tensor."""
    x0 = _pad_attributes(g, x, config.dim)
    h = ad.constant(x0)
    src, dst = g.csr_sources, g.csr_targets
    et = g.csr_types
    for _ in range(config.rounds):
        msgs = config.message.compute(h, dst, src, edge_types=et)
        agg = ad.segment_sum(msgs, src, g.node_count)
        h = config.update.apply(h, agg)
    return h


def mpnn_forward(g, config, x=None):
    h = mpnn_tensors(g, config, x)
    meta = {"rounds": config.rounds,
            "message": type(config.message).__name__,
            "update": type(config.update).__name__}
    return EmbeddingTable(h.data, list(g.node_ids), "mpnn", meta)


def ggnn_forward(g, dim=8, rounds=3, seed=42, x=None, params=None):
    """Gated recurrent message passing: linear messages + GRU update.

    This is exactly mpnn_forward with those two choices plugged in, so
    the outputs agree bitwise.
    """
    config = params or MpnnConfig(dim=dim, rounds=rounds,
                                  message=LinearMessage(dim, seed=seed),
                                  update=GruUpdate(dim, seed=seed), seed=seed)
    table = mpnn_forward(g, config, x=x)
    table.method = "ggnn"
    return table


# ---------------------------------------------------------------------
# checkpoints (format shared with the aggregation encoders)
# ---------------------------------------------------------------------


_MPNN_PARTS = ("message", "update")


def save_mpnn_checkpoint(target, config):
    named = {f"{part}.{i}": t.data for part in _MPNN_PARTS
             for i, t in enumerate(getattr(config, part).tensors())}
    cfg = {"dim": config.dim, "rounds": config.rounds,
           "message": type(config.message).__name__,
           "update": type(config.update).__name__, "seed": config.seed}
    save_checkpoint(target, "msgpass", cfg, named)


def load_mpnn_checkpoint(source):
    _kind, cfg, arrays = load_checkpoint(source, expect_kind="msgpass")
    msg_cls = {"LinearMessage": LinearMessage, "MlpMessage": MlpMessage}
    upd_cls = {"GruUpdate": GruUpdate, "MlpUpdate": MlpUpdate}
    if cfg["message"] not in msg_cls or cfg["update"] not in upd_cls:
        raise ContractError("checkpoint names an unknown message/update kind")
    config = MpnnConfig(dim=int(cfg["dim"]), rounds=int(cfg["rounds"]),
                        message=msg_cls[cfg["message"]](int(cfg["dim"]),
                                                        seed=cfg["seed"]),
                        update=upd_cls[cfg["update"]](int(cfg["dim"]),
                                                      seed=cfg["seed"]),
                        seed=cfg["seed"])
    for part in _MPNN_PARTS:
        for i, t in enumerate(getattr(config, part).tensors()):
            arr = arrays.get(f"{part}.{i}")
            if arr is None or arr.shape != t.data.shape:
                raise ContractError(f"checkpoint dim mismatch at {part}.{i}")
            t.data = arr
    return config
