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
from .aggenc import cross_entropy_loss, node_features
from .autodiff import classifier_head, predict_classes
from .errors import (
    ContractError,
    EdgeListParseError,
    ValidationError,
)
from .graph import Graph, _distinct, _edge_line, _open_text, disjoint_union
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
            self.nodes = _distinct(np.asarray(self.nodes, dtype=np.int64))
        if self.nodes.size == 0:
            raise ContractError("subgraph needs at least one node")
        if self.nodes.min() < 0 or self.nodes.max() >= self.graph.node_count:
            raise ValidationError("subgraph node index out of range")

    def induced(self):
        return self.graph.induced_subgraph(self.nodes)


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
        if _distinct(cm.node_map).size != cm.coarse.node_count:
            raise ContractError("clustering produced an empty cluster")
        pooled = np.full((cm.coarse.node_count, rows.shape[1]), -np.inf)
        np.maximum.at(pooled, cm.node_map, rows)
        rows = pooled
        cur = cm.coarse
    return rows.max(axis=0)


SUPER_PREFIX = "__super__"


def supernode_pool(g, spec, encoder):
    """Embed an added dummy node adjacent to every subset node.

    The augmented graph keeps all original edges and g.directed; the
    dummy node n is joined to each subset node by a weight-1 edge, or by
    arcs both ways on a directed graph, given as index pairs that the
    Graph constructor collapses and sums. The new node gets a zero
    attribute row when the graph carries attributes. encoder maps a
    graph to an EmbeddingTable; the dummy node's row is returned.
    """
    super_id = SUPER_PREFIX
    while super_id in g.node_ids:
        super_id += "x"
    links = np.stack([spec.nodes, np.full_like(spec.nodes, g.node_count)], 1)
    if g.directed:
        links = np.concatenate([links, links[:, ::-1]])
    pairs = np.concatenate([g.edge_pairs, links])
    weights = np.concatenate([g.pair_weights, np.ones(len(links))])
    attrs = None
    if g.node_attributes is not None:
        attrs = np.concatenate(
            [g.node_attributes, np.zeros((g.node_attributes.shape[0], 1))],
            axis=1)
    aug = Graph(list(g.node_ids) + [super_id], pairs, weights,
                directed=g.directed, node_attributes=attrs)
    table = encoder(aug)
    return table.vectors[table.node_ids.index(super_id)]


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
    rev = g.arc_slots(dst, src)
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

    def forward(tape):
        with tape:
            return ad.segment_sum(edge_message_tensors(union, params, x),
                                  batch, len(specs))

    model = SubgraphClassifier(params, theta, theta_b, classes)
    accuracy = 0.0
    tape = ad.Tape()
    pooled = forward(tape) if epochs > 0 else None
    for epoch in range(epochs):
        opt.zero_grad()
        with tape:
            loss = cross_entropy_loss(pooled, theta, theta_b, y)
            ad.backward(loss)
        opt.step(f"subgraph classifier, epoch {epoch}")
        # the forward at the stepped parameters scores this step and,
        # unless training stops here, is the next step's forward
        tape = ad.Tape()
        pooled = forward(tape)
        pred = predict_classes(pooled.data @ theta.data + theta_b.data)
        accuracy = float((pred == y).mean())
        model.history.append((loss.item(), accuracy))
        if target_acc is not None and accuracy >= target_acc:
            break
    tape.clear()  # the last forward's tape, which no backward consumes
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
            g = Graph.from_edges(edges, weights=weights)
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

