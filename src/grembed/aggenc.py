"""Neighborhood-aggregation encoders (graph convolutional family).

Embeddings come from K rounds of aggregate-combine-normalize over node
attributes instead of a per-node lookup table, so the parameter count
is independent of graph size and trained encoders transfer to unseen
nodes and graphs. Three aggregators (mean, degree-normalized weighted
mean, elementwise max over a per-neighbor MLP), three combiners
(concatenation, sum, aggregate-only), optional l2 row normalization,
and an optional interpolation gate that mixes each round's candidate
state with the previous one. The classic spectral-motivated convolution
is the weighted-mean aggregator with self-loops and symmetric degree
normalization; the inductive concat variant is "concat" + mean/maxpool.

Supervised training minimizes cross-entropy (binary labels use the
sigmoid form, more classes use softmax); mode "joint" adds the
edge-based negative-sampling objective so labeled and unlabeled
structure both shape the encoder.
"""

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .errors import ContractError, ValidationError
from .graph import _open_text
from .rng import derived_rng
from .shallow import EmbeddingTable, negative_sampling_loss, unigram_noise
from .walks import AliasTable

AGGREGATORS = ("mean", "weighted_mean", "maxpool")
COMBINERS = ("concat", "sum", "agg_only")


@dataclass(frozen=True)
class AggConfig:
    dims: tuple = (16, 16)
    aggregator: str = "mean"
    combiner: str = "concat"
    activation: str = "relu"
    normalize: bool = True
    interpolate: bool = False
    self_loops: bool = False
    sym_norm: bool = False
    maxpool_hidden: int = None
    neighbor_samples: int = None
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.dims) < 1 or min(self.dims) < 1:
            raise ContractError("dims must name at least one positive layer width")
        if self.aggregator not in AGGREGATORS:
            raise ContractError(f"unknown aggregator {self.aggregator!r}")
        if self.combiner not in COMBINERS:
            raise ContractError(f"unknown combiner {self.combiner!r}")
        if self.activation not in ad.ACTIVATIONS:
            raise ContractError(f"unknown activation {self.activation!r}")
        if self.sym_norm and self.aggregator != "weighted_mean":
            raise ContractError("sym_norm applies to the weighted_mean aggregator")
        if self.neighbor_samples is not None and self.neighbor_samples < 1:
            raise ContractError("neighbor_samples must be >= 1")

    @property
    def depth(self):
        return len(self.dims)


def gcn_config(dims, **kw):
    """Weighted-mean aggregation with self-loops and symmetric norm."""
    kw.setdefault("activation", "relu")
    return AggConfig(dims=dims, aggregator="weighted_mean", combiner="agg_only",
                     self_loops=True, sym_norm=True, **kw)


def sage_config(dims, aggregator="mean", **kw):
    """Concat combiner over sampled or full neighborhoods."""
    return AggConfig(dims=dims, aggregator=aggregator, combiner="concat", **kw)


def column_config(dims, **kw):
    """Interpolation-gated updates; layer widths must stay constant."""
    return AggConfig(dims=dims, interpolate=True, combiner="concat",
                     activation="tanh", **kw)


class AggParams:
    """Per-layer weights; count depends on dims, never on node count."""

    def __init__(self, input_dim, config):
        rng = derived_rng(config.seed, "aggenc_init")
        self.input_dim = int(input_dim)
        self.config = config
        self.layers = []
        d_in = self.input_dim
        for k, d_out in enumerate(config.dims):
            layer = {}
            agg_dim = d_in
            if config.aggregator == "maxpool":
                pool = config.maxpool_hidden or d_in
                layer["pool_w"] = ad.glorot(rng, d_in, pool)
                layer["pool_b"] = ad.parameter(np.zeros((1, pool)))
                agg_dim = pool
            if config.combiner == "concat":
                comb = d_in + agg_dim
            elif config.combiner == "sum":
                if agg_dim != d_in:
                    raise ContractError("sum combiner needs matching dims")
                comb = d_in
            else:
                comb = agg_dim
            layer["w"] = ad.glorot(rng, comb, d_out)
            layer["b"] = ad.parameter(np.zeros((1, d_out)))
            if config.interpolate:
                if d_out != d_in:
                    raise ContractError(
                        "interpolation needs equal input/output widths per layer")
                layer["gate_w"] = ad.glorot(rng, d_in + agg_dim, 1)
                layer["gate_b"] = ad.parameter(np.zeros((1, 1)))
            self.layers.append(layer)
            d_in = d_out

    def tensors(self):
        out = []
        for layer in self.layers:
            for name in sorted(layer):
                out.append(layer[name])
        return out

    def parameter_count(self):
        return int(sum(t.data.size for t in self.tensors()))


def default_attributes(g):
    """Fallback input features: degree scaled to [0, 1], shape (n, 1)."""
    deg = g.degrees(weighted=True)
    top = deg.max() if deg.max() > 0 else 1.0
    return (deg / top).reshape(-1, 1)


def node_features(g, x=None):
    """Encoder input: ``x``, else the graph's attribute rows, else
    ``default_attributes``; checked as a float64 (node_count, m) array."""
    if x is None:
        x = g.attribute_rows()
    if x is None:
        x = default_attributes(g)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != g.node_count:
        raise ValidationError(
            f"attributes must be (node_count, m), got {x.shape}")
    return x


def _edge_arrays(g, config, rng=None):
    """(src, dst, weight) per directed CSR entry, with optional extras."""
    src = g.csr_sources
    dst = g.csr_targets
    w = g.csr_weights
    if config.neighbor_samples is not None and rng is not None:
        keep = []
        k = config.neighbor_samples
        for v in range(g.node_count):
            lo, hi = g.csr_offsets[v], g.csr_offsets[v + 1]
            if hi - lo <= k:
                keep.extend(range(lo, hi))
            else:
                keep.extend((lo + rng.choice(hi - lo, size=k,
                                             replace=False)).tolist())
        keep = np.array(sorted(keep), dtype=np.int64)
        src, dst, w = src[keep], dst[keep], w[keep]
    if config.self_loops:
        loop = np.arange(g.node_count, dtype=np.int64)
        src = np.concatenate([src, loop])
        dst = np.concatenate([dst, loop])
        w = np.concatenate([w, np.ones(g.node_count)])
    return src, dst, w


def _entry_coefficients(g, config, src, dst, w):
    """Per-entry averaging weight for the linear aggregators."""
    weighted = config.aggregator == "weighted_mean"
    # plain mean ignores edge weights
    coef = w if weighted else np.ones(len(src))
    deg = np.bincount(src, coef, g.node_count)
    safe = np.where(deg > 0, deg, 1.0)
    if weighted and config.sym_norm:
        return w / np.sqrt(safe[src] * safe[dst])
    return coef / safe[src]


def encode_tensors(g, params, x=None, rng=None):
    """Forward pass returning the (n, d_K) state as a Tensor.

    Runs on plain numpy unless a Tape is active. ``rng`` enables
    neighborhood subsampling during training; inference uses full
    neighborhoods and is deterministic.
    """
    config = params.config
    x = node_features(g, x)
    if x.shape[1] != params.input_dim:
        raise ContractError(
            f"params built for {params.input_dim} input features, got {x.shape[1]}")
    act = ad.ACTIVATIONS[config.activation]
    n = g.node_count
    src, dst, w = _edge_arrays(g, config, rng)
    h = ad.constant(x)
    for layer in params.layers:
        msgs = ad.take_rows(h, dst)
        if config.aggregator == "maxpool":
            msgs = ad.relu(ad.add(ad.matmul(msgs, layer["pool_w"]),
                                  layer["pool_b"]))
            agg = ad.segment_max(msgs, src, n)
        else:
            coef = _entry_coefficients(g, config, src, dst, w)
            agg = ad.segment_sum(ad.mul(msgs, coef.reshape(-1, 1)), src, n)
        if config.combiner == "concat":
            combined = ad.concat_cols(h, agg)
        elif config.combiner == "sum":
            combined = ad.add(h, agg)
        else:
            combined = agg
        cand = act(ad.add(ad.matmul(combined, layer["w"]), layer["b"]))
        if config.interpolate:
            gate = ad.sigmoid(ad.add(ad.matmul(ad.concat_cols(h, agg),
                                               layer["gate_w"]),
                                     layer["gate_b"]))
            one_minus = ad.sub(ad.constant(np.ones((n, 1))), gate)
            cand = ad.add(ad.mul(cand, gate), ad.mul(h, one_minus))
        if config.normalize:
            cand = ad.l2_normalize_rows(cand)
        h = cand
    return h


def encode_all(g, config=None, params=None, x=None):
    """Embed every node; returns an EmbeddingTable."""
    if params is None:
        if config is None:
            raise ContractError("encode_all needs a config or trained params")
        x = node_features(g, x)
        params = AggParams(x.shape[1], config)
    h = encode_tensors(g, params, x)
    meta = {"depth": params.config.depth,
            "aggregator": params.config.aggregator,
            "parameter_count": params.parameter_count()}
    return EmbeddingTable(h.data, list(g.node_ids), "aggenc", meta)


# ---------------------------------------------------------------------
# supervised / joint training
# ---------------------------------------------------------------------


def cross_entropy_loss(z_t, theta, theta_b, labels, mask=None):
    """Sigmoid CE for 2 classes, softmax CE beyond; summed over mask."""
    labels = np.asarray(labels, dtype=np.int64)
    logits = ad.add(ad.matmul(z_t, theta), theta_b)
    idx = np.nonzero(mask)[0] if mask is not None else np.arange(len(labels))
    picked = ad.take_rows(logits, idx)
    y = labels[idx]
    if theta.data.shape[1] == 1:
        sign = (2.0 * y - 1.0).reshape(-1, 1)
        return ad.neg(ad.reduce_sum(ad.log_sigmoid(ad.mul(picked, sign))))
    probs = ad.softmax_rows(picked)
    onehot = np.zeros((len(y), theta.data.shape[1]))
    onehot[np.arange(len(y)), y] = 1.0
    hit = ad.reduce_sum(ad.mul(probs, onehot), axis=1)
    return ad.neg(ad.reduce_sum(ad.log(hit)))


def train_supervised(g, labels, config, x=None, mode="replace", sup_weight=1.0,
                     epochs=100, lr=0.01, train_mask=None, negatives=5):
    """Fit encoder weights plus a linear classifier head.

    mode "replace" trains on cross-entropy alone; mode "joint" adds the
    unsupervised edge negative-sampling term with the supervised part
    scaled by sup_weight. Returns (params, head, history) where head is
    the (theta, bias) pair.
    """
    if mode not in ("replace", "joint"):
        raise ContractError(f"unknown training mode {mode!r}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (g.node_count,):
        raise ValidationError("labels must align with nodes")
    feats = node_features(g, x)
    params = AggParams(feats.shape[1], config)
    theta, theta_b = ad.classifier_head(derived_rng(config.seed, "head_init"),
                                        config.dims[-1],
                                        int(labels.max()) + 1, 0.1)
    opt = ad.Adam(params.tensors() + [theta, theta_b], lr=lr)
    history = []
    pairs = noise = None
    if mode == "joint":
        edges = g.edge_pairs
        pairs = np.concatenate([edges, edges[:, ::-1]])
        noise = AliasTable(unigram_noise(g.degrees(weighted=True)))
    for epoch in range(epochs):
        opt.zero_grad()
        sample_rng = (derived_rng(config.seed, "sample", epoch)
                      if config.neighbor_samples else None)
        with ad.Tape():
            z = encode_tensors(g, params, feats, rng=sample_rng)
            loss = cross_entropy_loss(z, theta, theta_b, labels, train_mask)
            if mode == "joint":
                neg_rng = derived_rng(config.seed, "joint_negs", epoch)
                negs = noise.sample(neg_rng, size=(len(pairs), negatives))
                unsup = negative_sampling_loss(z, pairs, negs)
                loss = ad.add(unsup, ad.scale(loss, sup_weight))
            history.append(loss.item())
            ad.backward(loss)
        opt.step(f"aggregation encoder ({mode}), epoch {epoch}")
    return params, (theta, theta_b), history


def predict_labels(g, params, head, x=None):
    """Class predictions from a trained encoder + head."""
    z = encode_tensors(g, params, x)
    theta, theta_b = head
    return ad.predict_classes(ad.add(ad.matmul(z, theta), theta_b).data)


# ---------------------------------------------------------------------
# checkpoints (shared with the message-passing module)
# ---------------------------------------------------------------------

CHECKPOINT_FORMAT = "grembed-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(target, kind, config_dict, named_arrays):
    """Versioned JSON checkpoint; byte-stable for identical inputs."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": kind,
        "config": config_dict,
        "params": {name: {"shape": list(arr.shape),
                          "data": ["%.17g" % v for v in arr.reshape(-1)]}
                   for name, arr in named_arrays.items()},
    }
    with _open_text(target, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(source, expect_kind=None):
    from .errors import EdgeListParseError

    with _open_text(source) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise EdgeListParseError(f"bad checkpoint JSON: {e}")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ContractError("not a checkpoint file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ContractError(f"unsupported checkpoint version {doc.get('version')}")
    if expect_kind is not None and doc.get("kind") != expect_kind:
        raise ContractError(
            f"checkpoint kind {doc.get('kind')!r}, expected {expect_kind!r}")
    arrays = {}
    for name, spec in doc["params"].items():
        shape = tuple(spec["shape"])
        vals = np.array([float(v) for v in spec["data"]])
        if vals.size != int(np.prod(shape)):
            raise ContractError(f"parameter {name}: data does not fill shape")
        arrays[name] = vals.reshape(shape)
    return doc["kind"], doc["config"], arrays


def save_agg_checkpoint(target, params):
    named = {}
    for k, layer in enumerate(params.layers):
        for name in sorted(layer):
            named[f"layer{k}.{name}"] = layer[name].data
    cfg = {"input_dim": params.input_dim, **asdict(params.config)}
    save_checkpoint(target, "aggenc", cfg, named)


def load_agg_checkpoint(source):
    kind, cfg, arrays = load_checkpoint(source, expect_kind="aggenc")
    config = AggConfig(**{f.name: cfg[f.name] for f in fields(AggConfig)})
    params = AggParams(int(cfg["input_dim"]), config)
    for k, layer in enumerate(params.layers):
        for name in sorted(layer):
            key = f"layer{k}.{name}"
            if key not in arrays:
                raise ContractError(f"checkpoint missing parameter {key}")
            if arrays[key].shape != layer[name].data.shape:
                raise ContractError(
                    f"checkpoint dim mismatch at {key}: "
                    f"{arrays[key].shape} vs {layer[name].data.shape}")
            layer[name].data = arrays[key]
    return params
