"""Immutable graph container with CSR adjacency plus file parsers.

Node ids are external strings; internally nodes are dense indices
0..n-1. When every id parses as an integer the index order is numeric,
otherwise lexicographic, so loading the same file always yields the
same indexing. A Graph stores each arc once, in CSR arrays; an
undirected edge is two arcs, a self-loop one. The Graph constructor
collapses duplicate edges by summing their weights.

Dense matrices returned by this module are plain float64 numpy arrays.
"""

import contextlib
import math
from array import array
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractError,
    EdgeListParseError,
    ResourceLimitError,
    ValidationError,
)

DENSE_NODE_CAP = 5000


def dense_guard(n):
    """Refuse a dense n×n array above ``DENSE_NODE_CAP`` (read per call)."""
    if n > DENSE_NODE_CAP:
        raise ResourceLimitError(
            f"a dense matrix on {n} nodes exceeds DENSE_NODE_CAP = "
            f"{DENSE_NODE_CAP}")


def _order_ids(ids):
    """Numeric order when every id parses as an integer, else lexicographic.

    Ids of equal value (``7`` and ``07``) are ordered as strings, so the
    order does not depend on the order of ``ids``.
    """
    try:
        return sorted(ids, key=lambda s: (int(s), s))
    except ValueError:
        return sorted(ids)


class _Interned(NamedTuple):
    """Edges with their ids numbered in order of first appearance."""

    ids: dict  # str id -> its number
    ends: array  # int64 u0, v0, u1, v1, ... as those numbers


def _intern(edges):
    """``edges``, (u, v) id pairs whose ids are read as str, interned."""
    ids, ends = {}, array("q")
    count = 0
    for count, edge in enumerate(edges, start=1):
        for u in edge:
            ends.append(ids.setdefault(
                u if type(u) is str else str(u), len(ids)))
    if len(ends) != 2 * count:
        raise ValidationError("every edge must be one (u, v) pair")
    return _Interned(ids, ends)


def window_search(values, lo, x, steps, side="left", last=None):
    """Each lo plus how many of values[lo : lo + 2**steps - 1] are below
    its x (side "left") or at most x (side "right").

    For nondecreasing values this is
    clip(searchsorted(values, x, side), lo, lo + 2**steps - 1), found by
    steps halvings of the window, so a key whose answer lies in a known
    short run of values costs steps gathers, not a search of all of
    them. values must hold every window's slots. With ``last``, each
    probe reads values[min(slot, last)], as if the slots after last
    repeated it, so values need only be nondecreasing up to last.
    """
    pos = np.array(lo, dtype=np.int64)
    below = np.less if side == "left" else np.less_equal
    for s in reversed(range(steps)):
        half = 1 << s
        probe = pos + (half - 1)
        if last is not None:
            probe = np.minimum(probe, last)
        pos += below(values.take(probe), x) * half
    return pos


def _frozen(a):
    a.setflags(write=False)
    return a


class Graph:
    """Read-only graph: CSR adjacency, optional weights/attributes/types.

    ``csr_offsets``, ``csr_targets``, ``csr_weights`` and ``csr_types``
    are the only arc store, one slot per arc in src * n + dst order;
    ``csr_sources`` and the edge list (``edge_pairs``, ``pair_weights``,
    ``pair_types``) are derived, read-only, on each read. The
    constructor collapses duplicate arcs, summing their weights in input
    order; duplicates with different edge types raise. Self-loops stay.

    The graph keeps about 16 bytes per arc. Building it holds at most
    about three arc-sized int64 arrays beside that: under tracemalloc the
    complete directed 600-node graph peaks at 41 bytes per arc and the
    undirected one at 33, and ``load_edge_list`` of a weighted 2,000-node
    SBM peaks at 62, parse included.
    """

    def __init__(self, node_ids, edge_pairs, pair_weights=None, directed=False,
                 node_attributes=None, node_types=None, edge_pair_types=None):
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
        else:
            w = np.asarray(pair_weights, dtype=np.float64).reshape(-1)
            if len(w) != len(pairs):
                raise ValidationError("weights length != edge count")
        if not np.all(np.isfinite(w)):
            raise ValidationError("non-finite edge weight")
        if np.any(w < 0):
            raise ValidationError("negative edge weight")
        et = None
        if edge_pair_types is not None:
            et = np.asarray(edge_pair_types, dtype=np.int64).reshape(-1)
            if len(et) != len(pairs):
                raise ValidationError("edge types length != edge count")

        # one key per input pair, src * n + dst; an undirected pair puts
        # its lower end first, so both orientations of an edge share it.
        # Each distinct key is an edge, and bincount sums each edge's
        # weights in input order from 0.0, whatever order the sort left
        n = self.node_count
        src, dst = pairs[:, 0], pairs[:, 1]
        lo, hi = ((src, dst) if directed else
                  (np.minimum(src, dst), np.maximum(src, dst)))
        keys = lo * n
        keys += hi
        del lo, hi
        order = np.argsort(keys)
        keys = keys.take(order)
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        # sorted key i is edge cumsum(first)[i] - 1; once the distinct
        # keys are read out, the sorted keys' buffer takes those ids
        keys, run = keys[first], np.cumsum(first, out=keys)
        del first
        run -= 1
        edge_of = np.empty_like(run)
        edge_of[order] = run
        del order, run
        w = np.bincount(edge_of, weights=w)
        if et is not None:
            ct = np.zeros(len(w), dtype=np.int64)
            ct[edge_of] = et
            if np.any(ct[edge_of] != et):
                raise ValidationError("duplicate edge with conflicting types")
            et = ct
        del edge_of
        self.edge_count = len(keys)
        if not directed:
            # each edge lo -> hi, and hi -> lo unless it is a self-loop;
            # after the sort, arc i is edge order[i] either way
            lo, hi = np.divmod(keys, n)
            edge = np.flatnonzero(lo != hi)
            keys = np.concatenate([keys, hi.take(edge) * n + lo.take(edge)])
            del lo, hi
            order = np.argsort(keys)
            keys = keys.take(order)
            rev = order >= self.edge_count
            order[rev] = edge.take(order[rev] - self.edge_count)
            del edge, rev
            w = w.take(order)
            et = None if et is None else et.take(order)
            del order
        self.csr_weights = _frozen(w)
        self.csr_types = None if et is None else _frozen(et)

        self.directed = bool(directed)
        m = len(keys)
        self.csr_offsets = _frozen(np.searchsorted(keys, np.arange(n + 1) * n))
        # a window of 2**search_steps - 1 slots covers any CSR row
        self.search_steps = int(np.diff(self.csr_offsets).max(initial=0)
                                ).bit_length()
        self._padded_targets = self.pad_rows(m, n)
        np.remainder(keys, n, out=self._padded_targets[:m])
        _frozen(self._padded_targets)
        self.csr_targets = self._padded_targets[:m]

        self.node_attributes = self.node_types = None
        if node_attributes is not None:
            attrs = np.asarray(node_attributes, dtype=np.float64)
            if attrs.ndim != 2 or attrs.shape[1] != self.node_count:
                raise ValidationError(
                    "node_attributes must be (m, node_count), got %r" % (attrs.shape,))
            self.node_attributes = attrs
        if node_types is not None:
            self.node_types = np.asarray(node_types, np.int64).reshape(-1)
            if len(self.node_types) != self.node_count:
                raise ValidationError("node_types length != node count")

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(cls, edges, weights=None, directed=False, allow_self_loops=False,
                   node_ids=None, node_attributes=None, node_types=None,
                   edge_types=None):
        """Build a graph from (u, v) id pairs.

        ``edges`` may also be the ``_Interned`` form the parser builds.
        Ids are read as their str and, unless ``node_ids`` gives the
        order, numbered as ``_order_ids`` sorts them; self-loops raise
        unless ``allow_self_loops`` is set. The constructor collapses
        duplicates, so an unweighted duplicate becomes weight 2.
        """
        ids, ends = edges if isinstance(edges, _Interned) else _intern(edges)
        if node_ids is None:
            node_ids = _order_ids(ids)
        else:
            node_ids = [str(i) for i in node_ids]
        index = {nid: i for i, nid in enumerate(node_ids)}
        try:
            remap = np.fromiter(map(index.__getitem__, ids), dtype=np.int64,
                                count=len(ids))
        except KeyError as e:
            raise ValidationError(f"edge references unknown node id {e.args[0]!r}")
        # the ids become indices in place, in the interned buffer
        pairs = np.frombuffer(ends, dtype=np.int64)
        remap.take(pairs, out=pairs, mode="clip")
        pairs = pairs.reshape(-1, 2)
        if not allow_self_loops and np.any(pairs[:, 0] == pairs[:, 1]):
            bad = pairs[pairs[:, 0] == pairs[:, 1]][0, 0]
            raise ValidationError(
                f"self-loop on node {node_ids[bad]!r} (allow_self_loops=False)")
        return cls(node_ids, pairs, weights, directed=directed,
                   node_attributes=node_attributes, node_types=node_types,
                   edge_pair_types=edge_types)

    def with_types(self, node_types=None, edge_types=None):
        return Graph(self.node_ids, self.edge_pairs, self.pair_weights,
                     directed=self.directed, node_attributes=self.node_attributes,
                     node_types=node_types if node_types is not None else self.node_types,
                     edge_pair_types=edge_types if edge_types is not None else self.pair_types)

    # -- queries -------------------------------------------------------

    @property
    def csr_sources(self):
        return _frozen(np.repeat(np.arange(self.node_count),
                                 np.diff(self.csr_offsets)))

    def _on_edges(self, values):
        """values at the arcs that are edges, in CSR order: every arc of
        a directed graph, the src <= dst arcs of an undirected one."""
        if self.directed or values is None:
            return values
        return _frozen(values[self.csr_sources <= self.csr_targets])

    @property
    def edge_pairs(self):
        pairs = np.stack([self.csr_sources, self.csr_targets], axis=1)
        return _frozen(pairs if self.directed
                       else pairs[pairs[:, 0] <= pairs[:, 1]])

    pair_weights = property(lambda self: self._on_edges(self.csr_weights))
    pair_types = property(lambda self: self._on_edges(self.csr_types))
    # whether any arc weighs other than 1; export_edge_list writes weights
    weighted = property(lambda self: bool(np.any(self.csr_weights != 1.0)))

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

    def pad_rows(self, size, fill):
        """size slots for the caller to write, then 2**search_steps copies
        of fill, in fill's dtype.

        A ``window_search`` of the result from any CSR row's first slot
        stays in range; fill must be at least every value for the
        windows to stay nondecreasing.
        """
        out = np.empty(size + (1 << self.search_steps),
                       dtype=np.asarray(fill).dtype)
        out[size:] = fill
        return out

    def arc_slots(self, src, dst):
        """CSR slot of each arc src[i] -> dst[i], or -1 where there is none.

        Targets ascend within a row but restart at the next one, so dst
        is looked up by a ``window_search`` of src's own row that probes
        no slot past the row's last; the padding after ``csr_targets``
        keeps every window in range. src must lie in [0, n), unchecked
        as node2vec walks pass CSR targets at every step; a dst outside
        [0, n) finds no arc.
        """
        src = np.asarray(src, dtype=np.int64)
        last = self.csr_offsets[src + 1] - 1
        pos = window_search(self._padded_targets, self.csr_offsets[src], dst,
                            self.search_steps, last=last)
        return np.where((pos <= last) & (self._padded_targets[pos] == dst),
                        pos, -1)

    def degrees(self, weighted=False):
        if weighted:
            return np.bincount(self.csr_sources, self.csr_weights,
                               self.node_count)
        return np.diff(self.csr_offsets).astype(np.float64)

    def attribute_rows(self):
        """Node attributes as one row per node, (n, m)."""
        if self.node_attributes is None:
            return None
        return self.node_attributes.T.copy()

    def adjacency_matrix(self):
        """Dense A; every dense matrix of a graph starts here, past
        ``dense_guard``."""
        dense_guard(self.node_count)
        a = np.zeros((self.node_count, self.node_count))
        a[self.csr_sources, self.csr_targets] = self.csr_weights
        return a

    def laplacian(self):
        """Unnormalized combinatorial Laplacian L = D - A."""
        if self.directed:
            raise ValidationError("laplacian requires an undirected graph")
        return laplacian_of(self.adjacency_matrix())

    def adjacency_power(self, k):
        """Dense A^k."""
        if k < 1:
            raise ContractError("power k must be >= 1")
        return np.linalg.matrix_power(self.adjacency_matrix(), int(k))

    def bfs_distances(self, source):
        """Hop distances from source; -1 where unreachable."""
        source = self._check_node(source)
        dist = np.full(self.node_count, -1, dtype=np.int64)
        dist[source] = 0
        frontier, d = [source], 0
        while len(frontier):
            d += 1
            nbrs = np.unique(np.concatenate(list(map(self.neighbors, frontier))))
            frontier = nbrs[dist[nbrs] == -1]
            dist[frontier] = d
        return dist

    def induced_subgraph(self, nodes):
        """Subgraph on the given node indices, keeping their ids."""
        nodes = sorted({self._check_node(v) for v in nodes})
        keep = np.zeros(self.node_count, dtype=bool)
        keep[nodes] = True
        edge_pairs = self.edge_pairs
        mask = keep[edge_pairs].all(axis=1)
        pairs = (np.cumsum(keep) - 1)[edge_pairs[mask]]
        attrs = None
        if self.node_attributes is not None:
            attrs = self.node_attributes[:, nodes]
        ntypes = self.node_types[nodes] if self.node_types is not None else None
        ptypes = None if self.csr_types is None else self.pair_types[mask]
        return Graph([self.node_ids[v] for v in nodes], pairs,
                     self.pair_weights[mask], directed=self.directed,
                     node_attributes=attrs, node_types=ntypes,
                     edge_pair_types=ptypes)

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"Graph({self.node_count} nodes, {self.edge_count} edges, {kind})"


def laplacian_of(s):
    """Dense Laplacian D - W of W = (S + S^T)/2; W is S for symmetric S."""
    w = 0.5 * (s + s.T)
    return np.diag(w.sum(axis=1)) - w


def eigh_columns(sym, d, top=True):
    """(eigenvalues, eigenvector columns) of the d largest (``top``) or
    smallest eigenpairs of symmetric ``sym``, in that order, each column
    signed so its largest-magnitude entry is positive."""
    lam, u = np.linalg.eigh(sym)
    order = np.argsort(lam)
    pick = (order[::-1] if top else order)[:d]
    lam, u = lam[pick], u[:, pick]
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0
    u[:, flip] = -u[:, flip]
    return lam, u


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
        pairs.append(g.edge_pairs + off)
        weights.append(g.pair_weights)
        member.extend([gi] * g.node_count)
        off += g.node_count
    u = Graph(ids, np.concatenate(pairs), np.concatenate(weights),
              directed=directed)
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
    # ids are interned as the lines are read, so no object is kept per line
    ids, ends, weights = {}, array("q"), array("d")
    weighted = None
    with _open_text(source) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            u, v, w = _edge_line(line, lineno, weighted)
            weighted = w is not None
            ends.append(ids.setdefault(u, len(ids)))
            ends.append(ids.setdefault(v, len(ids)))
            if weighted:
                weights.append(w)
    if not ends:
        raise EdgeListParseError("no edges in input")
    return Graph.from_edges(_Interned(ids, ends),
                            weights=weights if weighted else None,
                            directed=directed, allow_self_loops=allow_self_loops)


def export_edge_list(g, target):
    """Write the canonical edge list (sorted index pairs, external ids).

    The weight column is written when the graph is weighted, that is when
    some edge weighs other than 1, each weight as the shortest text that
    reads back to the same float.
    """
    weighted = g.weighted
    with _open_text(target, "w") as fh:
        for (i, j), pw in zip(g.edge_pairs.tolist(), g.pair_weights):
            if weighted:
                w = np.format_float_positional(pw, trim="-")
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
        first = {}  # node index -> the line it is on
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
            if first.setdefault(v, lineno) != lineno:
                raise EdgeListParseError(
                    f"duplicate node id {toks[0]!r} (first on line {first[v]})",
                    lineno)
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
