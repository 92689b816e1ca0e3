"""Immutable graph container with CSR adjacency plus file parsers.

Node ids are external strings; internally nodes are dense indices
0..n-1. When every id parses as an integer the index order is numeric,
otherwise lexicographic, so loading the same file always yields the
same indexing. Undirected edges are stored in both CSR directions; a
self-loop occupies a single CSR slot. Duplicate edges collapse by
summing their weights.

Dense matrices returned by this module are plain float64 numpy arrays.
"""

import contextlib
import io
import math

import numpy as np

from .errors import (
    ContractError,
    EdgeListParseError,
    ResourceLimitError,
    ValidationError,
)

DENSE_NODE_CAP = 5000


def _order_ids(ids):
    ids = list(ids)
    try:
        return sorted(ids, key=lambda s: (0, int(s)))
    except (TypeError, ValueError):
        return sorted(ids)


class Graph:
    """Read-only graph: CSR adjacency, optional weights/attributes/types."""

    def __init__(self, node_ids, edge_pairs, pair_weights=None, directed=False,
                 node_attributes=None, node_types=None, edge_pair_types=None,
                 weighted=None):
        self.node_ids = [str(i) for i in node_ids]
        self.node_count = len(self.node_ids)
        self._index = {nid: i for i, nid in enumerate(self.node_ids)}
        if len(self._index) != self.node_count:
            raise ValidationError("duplicate node ids")

        pairs = np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= self.node_count):
            raise ValidationError("edge endpoint outside node range")
        if pair_weights is None:
            w = np.ones(len(pairs), dtype=np.float64)
            self.weighted = bool(weighted)
        else:
            w = np.asarray(pair_weights, dtype=np.float64).reshape(-1)
            if len(w) != len(pairs):
                raise ValidationError("weights length != edge count")
            self.weighted = True if weighted is None else bool(weighted)
        if not np.all(np.isfinite(w)):
            raise ValidationError("non-finite edge weight")
        if np.any(w < 0):
            raise ValidationError("negative edge weight")

        self.directed = bool(directed)
        self.edge_pairs = pairs
        self.pair_weights = w
        if edge_pair_types is not None:
            self.pair_types = np.asarray(edge_pair_types, dtype=np.int64).reshape(-1)
            if len(self.pair_types) != len(pairs):
                raise ValidationError("edge types length != edge count")
        else:
            self.pair_types = None

        self._build_csr()

        if node_attributes is not None:
            attrs = np.asarray(node_attributes, dtype=np.float64)
            if attrs.ndim != 2 or attrs.shape[1] != self.node_count:
                raise ValidationError(
                    "node_attributes must be (m, node_count), got %r" % (attrs.shape,))
            self.node_attributes = attrs
        else:
            self.node_attributes = None

        if node_types is not None:
            nt = np.asarray(node_types, dtype=np.int64).reshape(-1)
            if len(nt) != self.node_count:
                raise ValidationError("node_types length != node count")
            self.node_types = nt
        else:
            self.node_types = None

        for arr in (self.edge_pairs, self.pair_weights, self.csr_offsets,
                    self.csr_targets, self.csr_weights):
            arr.setflags(write=False)

    def _build_csr(self):
        n = self.node_count
        # arcs, and the edge each arc carries: an undirected edge gives
        # both of its arcs, a self-loop one
        arcs, edge = self.edge_pairs, np.arange(self.edge_count)
        if not self.directed:
            loops = arcs[:, 0] == arcs[:, 1]
            arcs = np.concatenate(
                [arcs[~loops], arcs[~loops, ::-1], arcs[loops]])
            edge = np.concatenate([edge[~loops], edge[~loops], edge[loops]])
        keys = arcs[:, 0] * n + arcs[:, 1]
        order = np.argsort(keys, kind="stable")
        edge = edge[order]
        self.csr_sources = arcs[order, 0]
        self.csr_sources.setflags(write=False)
        self.csr_offsets = np.concatenate(
            [[0], np.cumsum(np.bincount(self.csr_sources, minlength=n))])
        self.csr_targets = arcs[order, 1]
        self.csr_weights = self.pair_weights[edge]
        self.csr_types = (None if self.pair_types is None
                          else self.pair_types[edge])
        # one increasing key per arc, then n*n so a lookup stays in range
        self._arc_keys = np.append(keys[order], n * n)

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(cls, edges, weights=None, directed=False, allow_self_loops=False,
                   node_ids=None, node_attributes=None, node_types=None,
                   edge_types=None, weighted=None):
        """Build a graph from (u, v) id pairs, collapsing duplicates.

        Duplicate edges sum their weights; an unweighted duplicate
        therefore becomes weight 2. Self-loops raise unless
        ``allow_self_loops`` is set.
        """
        edges = [(str(u), str(v)) for u, v in edges]
        if node_ids is None:
            seen = {u for u, _ in edges} | {v for _, v in edges}
            node_ids = _order_ids(seen)
        else:
            node_ids = [str(i) for i in node_ids]
        index = {nid: i for i, nid in enumerate(node_ids)}
        try:
            pairs = np.array([[index[u], index[v]] for u, v in edges],
                             dtype=np.int64).reshape(-1, 2)
        except KeyError as e:
            raise ValidationError(f"edge references unknown node id {e.args[0]!r}")
        if weights is None:
            w = np.ones(len(pairs), dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64).reshape(-1)
            if len(w) != len(pairs):
                raise ValidationError("weights length != edge count")
        et = None
        if edge_types is not None:
            et = np.asarray(edge_types, dtype=np.int64).reshape(-1)
            if len(et) != len(pairs):
                raise ValidationError("edge_types length != edge count")

        if not allow_self_loops and pairs.size and np.any(pairs[:, 0] == pairs[:, 1]):
            bad = pairs[pairs[:, 0] == pairs[:, 1]][0, 0]
            raise ValidationError(
                f"self-loop on node {node_ids[bad]!r} (allow_self_loops=False)")

        if len(pairs):
            # int64 keys src * n + dst (lo, hi when undirected) sort as
            # the pairs do; weights sum in input order
            n = len(node_ids)
            src, dst = pairs[:, 0], pairs[:, 1]
            if not directed:
                src, dst = np.minimum(src, dst), np.maximum(src, dst)
            keys, inv = np.unique(src * n + dst, return_inverse=True)
            w = np.bincount(inv, weights=w, minlength=len(keys))
            if et is not None:
                ct = np.zeros(len(keys), dtype=np.int64)
                ct[inv] = et
                if np.any(ct[inv] != et):
                    raise ValidationError("duplicate edge with conflicting types")
                et = ct
            pairs = np.stack([keys // n, keys % n], axis=1)

        return cls(node_ids, pairs, w, directed=directed,
                   node_attributes=node_attributes, node_types=node_types,
                   edge_pair_types=et, weighted=weighted if weighted is not None
                   else (weights is not None))

    def with_attributes(self, node_attributes):
        return Graph(self.node_ids, self.edge_pairs, self.pair_weights,
                     directed=self.directed, node_attributes=node_attributes,
                     node_types=self.node_types, edge_pair_types=self.pair_types,
                     weighted=self.weighted)

    def with_types(self, node_types=None, edge_types=None):
        return Graph(self.node_ids, self.edge_pairs, self.pair_weights,
                     directed=self.directed, node_attributes=self.node_attributes,
                     node_types=node_types if node_types is not None else self.node_types,
                     edge_pair_types=edge_types if edge_types is not None else self.pair_types,
                     weighted=self.weighted)

    # -- queries -------------------------------------------------------

    @property
    def edge_count(self):
        return len(self.edge_pairs)

    def index_of(self, node_id):
        try:
            return self._index[str(node_id)]
        except KeyError:
            raise KeyError(f"unknown node id {node_id!r}")

    def _check_node(self, v):
        v = int(v)
        if not 0 <= v < self.node_count:
            raise IndexError(f"node index {v} out of range [0, {self.node_count})")
        return v

    def neighbors(self, v):
        v = self._check_node(v)
        return self.csr_targets[self.csr_offsets[v]:self.csr_offsets[v + 1]]

    def neighbor_weights(self, v):
        v = self._check_node(v)
        return self.csr_weights[self.csr_offsets[v]:self.csr_offsets[v + 1]]

    def arc_slots(self, src, dst):
        """CSR slot of each arc src[i] -> dst[i], or -1 where there is none."""
        keys = np.asarray(src, dtype=np.int64) * self.node_count + dst
        pos = np.searchsorted(self._arc_keys, keys)
        return np.where(self._arc_keys[pos] == keys, pos, -1)

    def degrees(self, weighted=False):
        if weighted:
            out = np.zeros(self.node_count)
            np.add.at(out, self.csr_sources, self.csr_weights)
            return out
        return np.diff(self.csr_offsets).astype(np.float64)

    def attribute_rows(self):
        """Node attributes as one row per node, (n, m)."""
        if self.node_attributes is None:
            return None
        return self.node_attributes.T.copy()

    def adjacency_matrix(self):
        a = np.zeros((self.node_count, self.node_count))
        np.add.at(a, (self.csr_sources, self.csr_targets), self.csr_weights)
        return a

    def laplacian(self):
        """Unnormalized combinatorial Laplacian L = D - A."""
        if self.directed:
            raise ValidationError("laplacian requires an undirected graph")
        a = self.adjacency_matrix()
        return np.diag(a.sum(axis=1)) - a

    def adjacency_power(self, k, cap=DENSE_NODE_CAP):
        """Dense A^k; guarded by a node-count cap."""
        if k < 1:
            raise ContractError("power k must be >= 1")
        if self.node_count > cap:
            raise ResourceLimitError(
                f"adjacency_power on {self.node_count} nodes exceeds cap {cap}")
        a = self.adjacency_matrix()
        return np.linalg.matrix_power(a, int(k))

    def bfs_distances(self, source):
        """Hop distances from source; -1 where unreachable."""
        source = self._check_node(source)
        dist = np.full(self.node_count, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        d = 0
        while frontier.size:
            d += 1
            nbrs = np.concatenate([self.neighbors(v) for v in frontier])
            nbrs = np.unique(nbrs)
            new = nbrs[dist[nbrs] == -1]
            dist[new] = d
            frontier = new
        return dist

    def hop_ring(self, v, k):
        """Set of nodes at hop distance exactly k from v."""
        v = self._check_node(v)
        if k < 0:
            raise ContractError("hop distance k must be >= 0")
        dist = self.bfs_distances(v)
        return set(np.nonzero(dist == k)[0].tolist())

    def connected_components(self):
        """Component label per node (labels are 0..c-1 by first member)."""
        labels = np.full(self.node_count, -1, dtype=np.int64)
        c = 0
        for start in range(self.node_count):
            if labels[start] != -1:
                continue
            stack = [start]
            labels[start] = c
            while stack:
                v = stack.pop()
                for u in self.neighbors(v):
                    if labels[u] == -1:
                        labels[u] = c
                        stack.append(int(u))
            c += 1
        return labels

    def induced_subgraph(self, nodes):
        """Subgraph on the given node indices, keeping their ids."""
        nodes = sorted({self._check_node(v) for v in nodes})
        keep = np.zeros(self.node_count, dtype=bool)
        keep[nodes] = True
        remap = {v: i for i, v in enumerate(nodes)}
        mask = keep[self.edge_pairs[:, 0]] & keep[self.edge_pairs[:, 1]]
        pairs = np.array([[remap[a], remap[b]] for a, b in self.edge_pairs[mask]],
                         dtype=np.int64).reshape(-1, 2)
        attrs = None
        if self.node_attributes is not None:
            attrs = self.node_attributes[:, nodes]
        ntypes = self.node_types[nodes] if self.node_types is not None else None
        ptypes = self.pair_types[mask] if self.pair_types is not None else None
        return Graph([self.node_ids[v] for v in nodes], pairs,
                     self.pair_weights[mask], directed=self.directed,
                     node_attributes=attrs, node_types=ntypes,
                     edge_pair_types=ptypes, weighted=self.weighted)

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"Graph({self.node_count} nodes, {self.edge_count} edges, {kind})"


def disjoint_union(graphs):
    """Relabelled union of graphs; returns (graph, offsets, membership).

    offsets[i] is the index shift applied to graphs[i]; membership maps
    each union node to the index of the graph it came from.
    """
    if not graphs:
        raise ValidationError("disjoint_union of no graphs")
    directed = graphs[0].directed
    ids, pairs, weights, member = [], [], [], []
    offsets = []
    off = 0
    for gi, g in enumerate(graphs):
        if g.directed != directed:
            raise ValidationError("cannot union directed with undirected graphs")
        offsets.append(off)
        ids.extend(f"g{gi}:{nid}" for nid in g.node_ids)
        if g.edge_count:
            pairs.append(g.edge_pairs + off)
            weights.append(g.pair_weights)
        member.extend([gi] * g.node_count)
        off += g.node_count
    pairs = np.concatenate(pairs) if pairs else np.zeros((0, 2), dtype=np.int64)
    weights = np.concatenate(weights) if weights else np.zeros(0)
    u = Graph(ids, pairs, weights, directed=directed,
              weighted=any(g.weighted for g in graphs))
    return u, np.array(offsets, dtype=np.int64), np.array(member, dtype=np.int64)


# -- file formats ------------------------------------------------------


@contextlib.contextmanager
def _open_text(source, mode="r"):
    """``source`` itself if it is a file object, else the opened path.

    Only a file opened here is closed on exit.
    """
    if hasattr(source, "read") or hasattr(source, "write"):
        yield source
    else:
        with open(source, mode, encoding="utf-8") as fh:
            yield fh


def _edge_line(line, lineno, weighted):
    """``(src, dst, weight)`` of one stripped ``src dst [weight]`` line.

    weight is None on a 2-field line. ``weighted`` is what earlier lines
    of the same list had (None before the first), so a list that mixes
    2- and 3-field lines fails at the first line that differs.
    """
    toks = line.split()
    if len(toks) not in (2, 3):
        raise EdgeListParseError(
            f"expected 2 or 3 fields, got {len(toks)}", lineno)
    if weighted is not None and (len(toks) == 3) != weighted:
        raise EdgeListParseError(
            "inconsistent column count (mixed weighted/unweighted lines)",
            lineno)
    if len(toks) == 2:
        return toks[0], toks[1], None
    try:
        w = float(toks[2])
    except ValueError:
        raise EdgeListParseError(f"bad weight {toks[2]!r}", lineno)
    if not math.isfinite(w):
        raise EdgeListParseError(f"non-finite weight {toks[2]!r}", lineno)
    if w < 0:
        raise EdgeListParseError(f"negative weight {w}", lineno)
    return toks[0], toks[1], w


def load_edge_list(source, directed=False, allow_self_loops=False):
    """Parse an edge-list file: ``src dst [weight]`` per line.

    Tabs or spaces separate fields; blank lines and ``#`` comments are
    skipped. Weight column is optional but must be consistent: mixing
    2- and 3-token lines is a parse error, as are negative weights.
    """
    edges, weights = [], []
    weighted = None
    with _open_text(source) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            u, v, w = _edge_line(line, lineno, weighted)
            weighted = w is not None
            edges.append((u, v))
            if weighted:
                weights.append(w)
    if not edges:
        raise EdgeListParseError("no edges in input")
    return Graph.from_edges(edges, weights=weights if weighted else None,
                            directed=directed, allow_self_loops=allow_self_loops)


def export_edge_list(g, target):
    """Write the canonical edge list (sorted index pairs, external ids).

    The weight column is written when the graph is weighted or a
    duplicate edge summed to a weight other than 1, each weight as the
    shortest text that reads back to the same float.
    """
    weighted = g.weighted or bool(np.any(g.pair_weights != 1.0))
    with _open_text(target, "w") as fh:
        order = np.lexsort((g.edge_pairs[:, 1], g.edge_pairs[:, 0]))
        for k in order:
            i, j = g.edge_pairs[k]
            if weighted:
                w = np.format_float_positional(g.pair_weights[k], trim="-")
                fh.write(f"{g.node_ids[i]}\t{g.node_ids[j]}\t{w}\n")
            else:
                fh.write(f"{g.node_ids[i]}\t{g.node_ids[j]}\n")


def load_attributes(source, g):
    """Parse ``id,f1,...,fm`` CSV (with header) into an (m, n) matrix.

    Every graph node must appear exactly once; ids absent from the
    graph are rejected.
    """
    with _open_text(source) as fh:
        header = fh.readline()
        if not header.strip():
            raise EdgeListParseError("empty attribute file", 1)
        ncols = len(header.strip().split(","))
        if ncols < 2:
            raise EdgeListParseError("attribute header needs id plus features", 1)
        m = ncols - 1
        out = np.full((m, g.node_count), np.nan)
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            toks = line.split(",")
            if len(toks) != ncols:
                raise EdgeListParseError(
                    f"expected {ncols} fields, got {len(toks)}", lineno)
            try:
                v = g.index_of(toks[0])
            except KeyError:
                raise EdgeListParseError(
                    f"unknown node id {toks[0]!r}", lineno)
            try:
                vals = [float(t) for t in toks[1:]]
            except ValueError:
                raise EdgeListParseError("bad feature value", lineno)
            out[:, v] = vals
    if np.isnan(out).any():
        missing = [g.node_ids[v] for v in
                   np.nonzero(np.isnan(out).any(axis=0))[0][:5]]
        raise EdgeListParseError(f"missing attribute rows for nodes {missing}")
    return out


def load_labels(source, g):
    """Parse ``id<TAB>label`` lines into an int vector aligned to g.node_ids.

    g is anything with a ``node_ids`` list, such as a Graph or an
    EmbeddingTable. Labels may be arbitrary strings; they are mapped to
    0..c-1 in sorted label order. Returns (labels, label_names).
    """
    index = {nid: i for i, nid in enumerate(g.node_ids)}
    raw = {}
    with _open_text(source) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split("\t") if "\t" in line else line.split()
            if len(toks) != 2:
                raise EdgeListParseError("expected id<TAB>label", lineno)
            v = index.get(toks[0])
            if v is None:
                raise EdgeListParseError(f"unknown node id {toks[0]!r}", lineno)
            if v in raw:
                raise EdgeListParseError(f"duplicate label for {toks[0]!r}", lineno)
            raw[v] = toks[1]
    if len(raw) != len(index):
        first = next(nid for nid, v in index.items() if v not in raw)
        raise EdgeListParseError(
            f"label file does not cover every node (first missing: {first!r})")
    names = sorted(set(raw.values()))
    lut = {s: i for i, s in enumerate(names)}
    labels = np.array([lut[raw[v]] for v in range(len(index))], dtype=np.int64)
    return labels, names


def edge_list_string(g):
    buf = io.StringIO()
    export_edge_list(g, buf)
    return buf.getvalue()
