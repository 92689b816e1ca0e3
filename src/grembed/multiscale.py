"""Meta-strategies that wrap the base embedding trainers.

Coarsening collapses matched edges into supernodes so a graph can be
embedded at several resolutions; the warm-start pipeline trains on the
coarsest graph first and prolongs each supernode's vector down to its
constituents as the init for the next finer level. The multi-layer
trainer embeds several graphs over a shared node universe and, after
every epoch, nudges tied layers toward agreement on their shared nodes.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .errors import ContractError, ValidationError
from .graph import Graph, _open_text, load_edge_list
from .rng import derived_rng
from .shallow import (
    EmbeddingTable,
    ShallowConfig,
    _blocks,
    _skipgram,
    train_shallow,
)

HARP_BASES = ("deepwalk", "node2vec", "line1", "line2")
# ohmnet_train's config when none is given: small per-layer walk corpora
OHMNET_CONFIG = ShallowConfig(dim=8, epochs=4, walk_length=10,
                              walks_per_node=5, window=3)
# learning rate of ohmnet_train's after-epoch SGD step on the tying penalty
OHMNET_PENALTY_LR = 0.02


@dataclass
class CoarseningMap:
    fine: Graph
    coarse: Graph
    node_map: np.ndarray  # fine index -> coarse index

    def prolong(self, coarse_vectors):
        """Copy each supernode's row down to all of its fine nodes."""
        coarse_vectors = np.asarray(coarse_vectors, dtype=np.float64)
        if coarse_vectors.shape[0] != self.coarse.node_count:
            raise ContractError("vector count != coarse node count")
        return coarse_vectors[self.node_map]


def coarsen(g):
    """Merge a maximal matching chosen greedily by descending weight.

    A self-loop matches nothing, so a node never pairs with itself.
    Supernodes are numbered by their lowest fine index. A matched pair
    becomes one supernode named "a+b", a the lower index; an unmatched
    node copies through under its own id. The coarse graph keeps
    g.directed and is built from the coarse index pairs, so the Graph
    constructor sums parallel coarse edges (or arcs); edges internal to
    a merged pair disappear.
    """
    edge_pairs, pair_weights = g.edge_pairs, g.pair_weights
    # edges come in (src, dst) order, so a stable sort breaks ties by it
    order = np.argsort(-pair_weights, kind="stable")
    partner = np.full(g.node_count, -1, dtype=np.int64)
    for e in order:
        a, b = int(edge_pairs[e, 0]), int(edge_pairs[e, 1])
        if a != b and partner[a] == -1 and partner[b] == -1:
            partner[a] = b
            partner[b] = a
    v = np.arange(g.node_count)
    reps, node_map = np.unique(
        np.where(partner < 0, v, np.minimum(v, partner)), return_inverse=True)
    coarse_ids = [g.node_ids[r] if partner[r] < 0
                  else f"{g.node_ids[r]}+{g.node_ids[partner[r]]}"
                  for r in reps]
    ends = node_map[edge_pairs]
    kept = ends[:, 0] != ends[:, 1]
    coarse = Graph(coarse_ids, ends[kept], pair_weights[kept],
                   directed=g.directed)
    return CoarseningMap(g, coarse, node_map)


def coarsen_chain(g, levels):
    """Repeated coarsening; stops early once nothing matches."""
    maps = []
    cur = g
    for _ in range(levels):
        cm = coarsen(cur)
        maps.append(cm)
        if cm.coarse.node_count == cur.node_count:
            break
        cur = cm.coarse
    return maps


def harp_train(g, base_method, levels, config=None):
    """Coarsen, embed coarsest, prolong as init, retrain per level.

    Coarsening stops before a level of config.dim or fewer nodes, and
    metadata["levels"] counts the levels used. Each run gets 1/levels of
    the epoch budget (minimum 1 epoch); at levels=0 g alone trains for
    all of it under the same seed, as the plain trainer would.
    """
    if base_method not in HARP_BASES:
        raise ContractError(
            f"base method {base_method!r} not in {HARP_BASES}")
    config = config or ShallowConfig()
    if levels < 0:
        raise ContractError("levels must be >= 0")
    maps = [cm for cm in coarsen_chain(g, levels)
            if cm.coarse.node_count > config.dim]
    per_level = max(1, config.epochs // max(1, levels))

    def with_init(init):
        return replace(config, epochs=per_level, initial=init)

    coarsest = maps[-1].coarse if maps else g
    table = train_shallow(coarsest, base_method, with_init(None))
    for cm in reversed(maps):
        init = cm.prolong(table.vectors)
        table = train_shallow(cm.fine, base_method, with_init(init))
    table.method = f"harp+{base_method}"
    table.metadata["levels"] = len(maps)
    return table


# ---------------------------------------------------------------------
# multi-layer training with cross-layer tying
# ---------------------------------------------------------------------


def _tied_pairs(n_layers, hierarchy_edges=None):
    if hierarchy_edges is not None:
        return list(hierarchy_edges)
    return [(i, j) for i in range(n_layers) for j in range(i + 1, n_layers)]


def _shared_indices(ids_a, ids_b, shared):
    pos_a = {x: i for i, x in enumerate(ids_a)}
    pos_b = {x: i for i, x in enumerate(ids_b)}
    if shared is None:
        common = [x for x in ids_a if x in pos_b]
    else:
        common = list(shared)
        for x in common:
            if x not in pos_a or x not in pos_b:
                raise ValidationError(
                    f"node {x!r} is tied across layers but missing from one")
    ia = np.array([pos_a[x] for x in common], dtype=np.int64)
    ib = np.array([pos_b[x] for x in common], dtype=np.int64)
    return ia, ib


def ohmnet_penalty(tensors, id_lists, lam, tied=None, shared=None,
                   squared=True):
    """lam * sum over tied layer pairs of shared-node embedding gaps."""
    tied = _tied_pairs(len(tensors)) if tied is None else tied
    total = None
    for a, b in tied:
        ia, ib = _shared_indices(id_lists[a], id_lists[b], shared)
        if ia.size == 0:
            continue
        za = ad.take_rows(tensors[a], ia)
        zb = ad.take_rows(tensors[b], ib)
        sq = ad.squared_distance(za, zb)
        if not squared:
            # unsquared Euclidean norm; epsilon keeps log finite at 0
            eps = ad.constant(np.full((sq.data.shape[0], 1), 1e-24))
            sq = ad.exp(ad.scale(ad.log(ad.add(sq, eps)), 0.5))
        part = ad.reduce_sum(sq)
        total = part if total is None else ad.add(total, part)
    if total is None:
        total = ad.constant(np.zeros((1, 1)))
    return ad.scale(total, float(lam))


def ohmnet_loss(base_losses, tensors, id_lists, lam, tied=None, shared=None,
                squared=True):
    """Sum of per-layer losses plus the cross-layer tying penalty."""
    total = base_losses[0]
    for loss in base_losses[1:]:
        total = ad.add(total, loss)
    return ad.add(total, ohmnet_penalty(tensors, id_lists, lam, tied=tied,
                                        shared=shared, squared=squared))


def inter_layer_gap(tables, tied=None, shared=None):
    """Reported gap: sum over tied pairs and shared nodes of ||za-zb||."""
    ids = [t.node_ids for t in tables]
    tied = _tied_pairs(len(tables)) if tied is None else tied
    gap = 0.0
    for a, b in tied:
        ia, ib = _shared_indices(ids[a], ids[b], shared)
        if ia.size == 0:
            continue
        diff = tables[a].vectors[ia] - tables[b].vectors[ib]
        gap += float(np.sqrt((diff ** 2).sum(axis=1)).sum())
    return gap


def ohmnet_train(layer_graphs, lam=0.1, config=None, hierarchy_edges=None,
                 shared=None, squared=True):
    """Per-layer skip-gram training with an after-epoch tying step.

    Layer li runs the shared skip-gram trainer, negative sampling on
    deepwalk's pairs, at seed ``derive_layer_seed(seed, li)``, so results
    do not depend on layer order. After each epoch of every layer one
    SGD step on the tying penalty pulls shared nodes together; with
    lam=0 that gradient is zero and each layer equals deepwalk with the
    negsamp loss at its layer seed, bit for bit.
    """
    config = config or OHMNET_CONFIG
    if config.loss not in (None, "negsamp"):
        raise ContractError(f"ohmnet does not take the {config.loss!r} loss; "
                            "it takes ('negsamp',)")
    graphs = list(layer_graphs)
    if not graphs:
        raise ValidationError("no layers given")
    tied = _tied_pairs(len(graphs), hierarchy_edges)
    tensors, steps = [], []
    for li, g in enumerate(graphs):
        cfg = replace(config, seed=derive_layer_seed(config.seed, li))
        _, pairs, _ = next(_blocks(g, "deepwalk", cfg, {}))
        z, step = _skipgram(g, pairs, cfg, "negsamp",
                            where=f"negsamp skip-gram, layer {li}")
        # the penalty steps the trainer's own table in place
        tensors.append(ad.parameter(z))
        steps.append(step)
    id_lists = [list(g.node_ids) for g in graphs]

    penalty_opt = ad.Sgd(tensors, lr=OHMNET_PENALTY_LR)
    for epoch in range(config.epochs):
        for step in steps:
            step(epoch)
        penalty_opt.zero_grad()
        with ad.Tape():
            pen = ohmnet_penalty(tensors, id_lists, lam, tied=tied,
                                 shared=shared, squared=squared)
            if pen._node is not None:  # constant when nothing is tied
                ad.backward(pen)
        penalty_opt.step(f"ohmnet penalty, epoch {epoch}")

    return [EmbeddingTable(t.data, ids, "ohmnet",
                           {"layer": li, "lam": lam, "squared": squared})
            for li, (t, ids) in enumerate(zip(tensors, id_lists))]


def derive_layer_seed(seed, layer_index):
    """Stable per-layer walk seed; layers never share walk streams."""
    return int(derived_rng(seed, "ohmnet_layer", layer_index)
               .integers(0, 2 ** 31 - 1))


# ---------------------------------------------------------------------
# layer hierarchies
# ---------------------------------------------------------------------


@dataclass
class LayerHierarchy:
    """Named layer graphs plus parent links forming a forest."""

    layers: dict
    parent: dict = field(default_factory=dict)

    def __post_init__(self):
        for child, par in self.parent.items():
            if child not in self.layers:
                raise ValidationError(f"unknown layer {child!r}")
            if par is not None and par not in self.layers:
                raise ValidationError(f"unknown parent layer {par!r}")
        for start in self.parent:
            seen = set()
            cur = start
            while cur is not None:
                if cur in seen:
                    raise ValidationError("parent links contain a cycle")
                seen.add(cur)
                cur = self.parent.get(cur)

    @property
    def names(self):
        return list(self.layers)

    def tied_index_pairs(self):
        """(child_idx, parent_idx) pairs in name order."""
        order = {name: i for i, name in enumerate(self.names)}
        return [(order[c], order[p]) for c, p in self.parent.items()
                if p is not None]


def load_hierarchy(source, layer_files):
    """Parse `layer_id<TAB>parent|-` lines and attach per-layer graphs.

    layer_files maps layer id to an edge-list path (or open file); the
    file must name every layer in it, and every layer it names must be
    in layer_files.
    """
    with _open_text(source) as fh:
        parent, first = {}, {}  # layer -> the line it is on
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            bits = line.split("\t")
            if len(bits) != 2:
                raise ValidationError(f"line {lineno}: hierarchy line needs "
                                      f"2 tab-separated fields: {line!r}")
            layer, par = bits
            if first.setdefault(layer, lineno) != lineno:
                raise ValidationError(f"line {lineno}: layer {layer!r} named "
                                      f"twice (first on line {first[layer]})")
            parent[layer] = None if par == "-" else par
    for name in layer_files:
        if name not in parent:
            raise ValidationError(
                f"hierarchy file does not name layer {name!r}")
    layers = {}
    for name in parent:
        if name not in layer_files:
            raise ValidationError(f"no edge list supplied for layer {name!r}")
        layers[name] = load_edge_list(layer_files[name])
    return LayerHierarchy(layers, parent)
