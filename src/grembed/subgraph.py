"""Whole-subgraph embeddings and a small graph classifier.

A subgraph is pooled from its node embeddings in one of several ways
(plain sum, fuzzy histograms, a degree-ordered concatenation, repeated
coarsen-and-maxpool, or a dummy super-node run through any node
encoder). The trainable path is an edge-message encoder: each directed
edge carries a state updated from the sender's attributes and its other
incoming edge states, states start at zero, and a final per-node
readout is sum-pooled per graph. Classification trains the encoder and
a linear head end to end on a cross-entropy loss.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .aggenc import (
    classifier_head,
    cross_entropy_loss,
    node_features,
    predict_classes,
)
from .errors import (
    ContractError,
    EdgeListParseError,
    ValidationError,
)
from .graph import Graph, _edge_line, _open_text, disjoint_union
from .rng import derived_rng
from .shallow import EmbeddingTable


@dataclass
class SubgraphSpec:
    """Node subset of a parent graph, with induced-edge semantics."""

    graph: Graph
    nodes: np.ndarray = None
    label: object = None
    name: str = None

    def __post_init__(self):
        if self.nodes is None:
            self.nodes = np.arange(self.graph.node_count, dtype=np.int64)
        else:
            self.nodes = np.unique(
                np.asarray(self.nodes, dtype=np.int64).reshape(-1))
        if self.nodes.size == 0:
            raise ContractError("subgraph needs at least one node")
        if self.nodes.min() < 0 or self.nodes.max() >= self.graph.node_count:
            raise ValidationError("subgraph node index out of range")

    def induced(self):
        return self.graph.induced_subgraph(self.nodes)


@dataclass
class PoolingKind:
    kind: str = "sum"
    bins: int = 8
    m: int = 4
    levels: int = 1

    def __post_init__(self):
        kinds = ("sum", "fuzzy_histogram", "ordered_concat",
                 "coarsen_maxpool", "supernode")
        if self.kind not in kinds:
            raise ContractError(f"pooling kind must be one of {kinds}")
        if self.bins < 2:
            raise ContractError("bins must be >= 2")
        if self.m < 1:
            raise ContractError("m must be >= 1")
        if self.levels < 1:
            raise ContractError("levels must be >= 1")


def _rows(z):
    if isinstance(z, EmbeddingTable):
        return z.vectors
    return np.asarray(z, dtype=np.float64)


def sum_pool(z, spec):
    """Elementwise sum of the subset's embedding rows."""
    rows = _rows(z)
    return rows[spec.nodes].sum(axis=0)


def fuzzy_histogram_pool(z, spec, bins=8):
    """Soft histogram per embedding dimension, d*bins wide.

    Bin centers span [-r, r] with r the max absolute value of that
    dimension over the subset (r = 1 when the dimension is all zero);
    each value distributes Gaussian membership (sigma = bin spacing)
    over the centers, normalized to sum 1, then summed over nodes.
    """
    if bins < 2:
        raise ContractError("bins must be >= 2")
    rows = _rows(z)[spec.nodes]
    d = rows.shape[1]
    out = np.zeros((d, bins))
    for j in range(d):
        r = np.abs(rows[:, j]).max()
        if r == 0:
            r = 1.0
        centers = np.linspace(-r, r, bins)
        sigma = centers[1] - centers[0]
        member = np.exp(-((rows[:, j][:, None] - centers[None, :]) ** 2)
                        / (2.0 * sigma ** 2))
        member /= member.sum(axis=1, keepdims=True)
        out[j] = member.sum(axis=0)
    return out.reshape(-1)


def ordered_concat_pool(g, z, spec, m=4):
    """First m nodes by (degree desc, index asc), concatenated.

    Zero-pads to m*d when the subset is smaller than m.
    """
    if m < 1:
        raise ContractError("m must be >= 1")
    rows = _rows(z)
    deg = g.degrees()
    order = sorted(spec.nodes.tolist(), key=lambda v: (-deg[v], v))
    picked = order[:m]
    d = rows.shape[1]
    out = np.zeros(m * d)
    for slot, v in enumerate(picked):
        out[slot * d:(slot + 1) * d] = rows[v]
    return out


def coarsen_maxpool(g, z, levels=1, cluster_fn=None, encoder=None):
    """Alternate (encode, cluster, per-cluster max) and pool by max.

    cluster_fn maps a graph to a CoarseningMap (default heavy-edge
    matching); encoder maps (graph, attribute rows) to new embedding
    rows and may be omitted to pool the given embeddings as they are.
    """
    if levels < 1:
        raise ContractError("levels must be >= 1")
    if cluster_fn is None:
        from .multiscale import coarsen as cluster_fn
    rows = _rows(z)
    cur = g
    for _ in range(levels):
        if encoder is not None:
            rows = np.asarray(encoder(cur, rows), dtype=np.float64)
        cm = cluster_fn(cur)
        if np.unique(cm.node_map).size != cm.coarse.node_count:
            raise ContractError("clustering produced an empty cluster")
        pooled = np.full((cm.coarse.node_count, rows.shape[1]), -np.inf)
        np.maximum.at(pooled, cm.node_map, rows)
        rows = pooled
        cur = cm.coarse
    return rows.max(axis=0)


SUPER_PREFIX = "__super__"


def supernode_pool(g, spec, encoder):
    """Embed an added dummy node adjacent to every subset node.

    The augmented graph keeps all original edges; the new node gets a
    zero attribute row when the graph carries attributes. encoder maps
    a graph to an EmbeddingTable; the dummy node's row is returned.
    """
    super_id = SUPER_PREFIX
    while super_id in g.node_ids:
        super_id += "x"
    ids = list(g.node_ids) + [super_id]
    pairs = [(g.node_ids[int(a)], g.node_ids[int(b)])
             for a, b in g.edge_pairs]
    weights = list(g.pair_weights)
    for v in spec.nodes:
        pairs.append((g.node_ids[int(v)], super_id))
        weights.append(1.0)
    attrs = None
    if g.node_attributes is not None:
        attrs = np.concatenate(
            [g.node_attributes, np.zeros((g.node_attributes.shape[0], 1))],
            axis=1)
    aug = Graph.from_edges(pairs, weights=weights, node_ids=ids,
                           node_attributes=attrs, weighted=g.weighted)
    table = encoder(aug)
    return table.vectors[table.node_ids.index(super_id)]


def pool_subgraph(g, z, spec, pooling, encoder=None):
    """Dispatch a PoolingKind to the matching pooling function."""
    if pooling.kind == "sum":
        return sum_pool(z, spec)
    if pooling.kind == "fuzzy_histogram":
        return fuzzy_histogram_pool(z, spec, bins=pooling.bins)
    if pooling.kind == "ordered_concat":
        return ordered_concat_pool(g, z, spec, m=pooling.m)
    if pooling.kind == "coarsen_maxpool":
        sub = spec.induced()
        rows = _rows(z)[spec.nodes]
        return coarsen_maxpool(sub, rows, levels=pooling.levels,
                               encoder=encoder)
    if encoder is None:
        raise ContractError("supernode pooling needs an encoder")
    return supernode_pool(g, spec, encoder)


# ---------------------------------------------------------------------
# edge-message encoder
# ---------------------------------------------------------------------


class EdgeMessageParams:
    """Per-round edge weights plus the node readout layer."""

    def __init__(self, attr_dim, edge_dim, out_dim, rounds, seed=42,
                 activation="tanh"):
        if rounds < 0:
            raise ContractError("rounds must be >= 0")
        if activation not in ad.ACTIVATIONS:
            raise ContractError(f"unknown activation {activation!r}")
        self.attr_dim = attr_dim
        self.edge_dim = edge_dim
        self.out_dim = out_dim
        self.rounds = rounds
        self.activation = activation
        rng = derived_rng(seed, "edge_message", attr_dim, edge_dim, out_dim,
                          rounds)
        self.edge_w = [ad.glorot(rng, attr_dim + edge_dim, edge_dim)
                       for _ in range(rounds)]
        self.edge_b = [ad.parameter(np.zeros((1, edge_dim)))
                       for _ in range(rounds)]
        self.node_w = ad.glorot(rng, attr_dim + edge_dim, out_dim)
        self.node_b = ad.parameter(np.zeros((1, out_dim)))

    def tensors(self):
        out = list(self.edge_w) + list(self.edge_b)
        out.extend([self.node_w, self.node_b])
        return out


def _reverse_entry_index(g):
    pos = {}
    for e, (i, j) in enumerate(zip(g.csr_sources, g.csr_targets)):
        pos[(int(i), int(j))] = e
    rev = np.empty(len(g.csr_sources), dtype=np.int64)
    for e, (i, j) in enumerate(zip(g.csr_sources, g.csr_targets)):
        rev[e] = pos[(int(j), int(i))]
    return rev


def edge_message_tensors(g, params, x=None):
    """Node embeddings from the directed-edge state recursion.

    Each CSR entry (i, j) holds the state of the message i sends to j;
    its update combines x_i with the sum of i's other incoming states
    (the reverse edge j->i is excluded). States start at zero; after
    the last round node i reads out from x_i and the sum of its own
    edge states.
    """
    if g.directed:
        raise ValidationError("edge messages need both edge orientations")
    x = node_features(g, x)
    if x.shape[1] != params.attr_dim:
        raise ContractError(
            f"attribute width {x.shape[1]} != params.attr_dim {params.attr_dim}")
    act = ad.ACTIVATIONS[params.activation]
    src = g.csr_sources
    dst = g.csr_targets
    rev = _reverse_entry_index(g)
    n_entries = len(src)
    x_src = ad.constant(x[src])
    eta = ad.constant(np.zeros((n_entries, params.edge_dim)))
    for k in range(params.rounds):
        incoming = ad.segment_sum(eta, dst, g.node_count)
        agg = ad.sub(ad.take_rows(incoming, src), ad.take_rows(eta, rev))
        pre = ad.add(ad.matmul(ad.concat_cols(x_src, agg), params.edge_w[k]),
                     params.edge_b[k])
        eta = act(pre)
    out_states = ad.segment_sum(eta, src, g.node_count)
    pre = ad.add(ad.matmul(ad.concat_cols(ad.constant(x), out_states),
                           params.node_w), params.node_b)
    return act(pre)


def edge_message_encode(g, params, x=None):
    h = edge_message_tensors(g, params, x)
    meta = {"rounds": params.rounds, "edge_dim": params.edge_dim}
    return EmbeddingTable(h.data, list(g.node_ids), "edge_message", meta)


# ---------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------


@dataclass
class SubgraphClassifier:
    params: EdgeMessageParams
    theta: ad.Tensor
    theta_b: ad.Tensor
    classes: list
    history: list = field(default_factory=list)

    def scores(self, specs):
        union, batch, x = _batch_specs(specs)
        h = edge_message_tensors(union, self.params, x)
        pooled = ad.segment_sum(h, batch, len(specs))
        logits = ad.add(ad.matmul(pooled, self.theta), self.theta_b)
        return logits.data

    def predict(self, specs):
        return [self.classes[c] for c in predict_classes(self.scores(specs))]


def _batch_specs(specs):
    """Disjoint union of induced subgraphs plus membership and attrs."""
    graphs = [s.induced() for s in specs]
    union, _offsets, membership = disjoint_union(graphs)
    blocks = [node_features(sub) for sub in graphs]
    widths = {b.shape[1] for b in blocks}
    if len(widths) != 1:
        raise ValidationError("subgraphs carry mixed attribute widths")
    return union, membership, np.concatenate(blocks, axis=0)


def classify_subgraphs(specs, rounds=2, edge_dim=8, out_dim=8, epochs=200,
                       lr=0.01, seed=42, activation="tanh", target_acc=None):
    """Train the edge-message encoder + sum pooling + linear head.

    Returns (SubgraphClassifier, final training accuracy). Labels come
    from each spec; at least two classes are required. target_acc stops
    early once the training accuracy reaches it.
    """
    labels_raw = [s.label for s in specs]
    if any(l is None for l in labels_raw):
        raise ValidationError("every subgraph needs a label")
    classes = sorted(set(labels_raw), key=str)
    if len(classes) < 2:
        raise ValidationError("classification needs at least two classes")
    y = np.array([classes.index(l) for l in labels_raw], dtype=np.int64)

    union, batch, x = _batch_specs(specs)
    params = EdgeMessageParams(x.shape[1], edge_dim, out_dim, rounds,
                               seed=seed, activation=activation)
    theta, theta_b = classifier_head(derived_rng(seed, "subgraph_head"),
                                     out_dim, len(classes), 0.1)
    all_params = params.tensors() + [theta, theta_b]
    opt = ad.Adam(all_params, lr=lr)

    model = SubgraphClassifier(params, theta, theta_b, classes)
    accuracy = 0.0
    for _epoch in range(epochs):
        opt.zero_grad()
        with ad.Tape():
            h = edge_message_tensors(union, params, x)
            pooled = ad.segment_sum(h, batch, len(specs))
            loss = cross_entropy_loss(pooled, theta, theta_b, y)
            ad.backward(loss)
        opt.step()
        pooled_now = np.zeros((len(specs), out_dim))
        np.add.at(pooled_now, batch,
                  edge_message_tensors(union, params, x).data)
        pred = predict_classes(pooled_now @ theta.data + theta_b.data)
        accuracy = float((pred == y).mean())
        model.history.append((loss.item(), accuracy))
        if target_acc is not None and accuracy >= target_acc:
            break
    return model, accuracy


# ---------------------------------------------------------------------
# multi-graph dataset files
# ---------------------------------------------------------------------


def parse_multigraph_file(source):
    """Blocks of edge lines, each opened by `#graph <id> <label>`.

    Blank lines separate graphs. Edge lines follow ``load_edge_list``'s
    rules, with the weight column on every line of a block or on none.
    Returns a list of SubgraphSpec with every spec covering its whole
    standalone graph.
    """
    with _open_text(source) as fh:
        specs = []
        header = None
        edges, weights, weighted = [], [], None

        def flush(line_no):
            if header is None:
                if edges:
                    raise EdgeListParseError(
                        "edge lines before any #graph header", line_no)
                return
            gid, label = header
            if not edges:
                raise EdgeListParseError(f"graph {gid!r} has no edges", line_no)
            g = Graph.from_edges(edges, weights=weights,
                                 weighted=any(w != 1.0 for w in weights))
            specs.append(SubgraphSpec(g, label=label, name=gid))

        line_no = 0
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#graph"):
                flush(line_no)
                header = None
                edges, weights, weighted = [], [], None
                if line:
                    bits = line.split()
                    if len(bits) != 3:
                        raise EdgeListParseError(
                            f"malformed graph header: {line!r}", line_no)
                    header = (bits[1], bits[2])
                continue
            if line.startswith("#"):
                continue
            u, v, w = _edge_line(line, line_no, weighted)
            weighted = w is not None
            edges.append((u, v))
            weights.append(w if weighted else 1.0)
        flush(line_no)
    return specs


def dataset_from_pairs(pairs):
    """[(graph, label)] -> [SubgraphSpec] covering each whole graph."""
    return [SubgraphSpec(g, label=label) for g, label in pairs]
