"""Small deterministic graphs for tests, demos, and benchmarks.

The random fixtures draw from numpy's SeedSequence streams, not from
``grembed.rng``, so the graphs that tests and benchmarks read keep
their bytes.
"""

import importlib.resources as resources

import numpy as np

from .graph import Graph, load_edge_list, load_labels
from .rng import stream_parts


def _numpy_rng(seed, *stream):
    """numpy Generator for a (seed, *ints-or-strings) stream key, encoded
    as ``rng.derived_rng`` encodes it."""
    ss = np.random.SeedSequence(entropy=int(seed) % 2 ** 64,
                                spawn_key=tuple(stream_parts(stream)))
    return np.random.default_rng(ss)


def karate_club():
    """Bundled 34-node social network with its two-faction labels."""
    pkg = resources.files("grembed.data")
    with (pkg / "karate.edges").open("r", encoding="utf-8") as fh:
        g = load_edge_list(fh)
    with (pkg / "karate.labels").open("r", encoding="utf-8") as fh:
        labels, names = load_labels(fh, g)
    return g, labels


def triangle():
    return Graph.from_edges([(0, 1), (1, 2), (0, 2)])


def path_graph(n):
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(edges)


def star_graph(n_leaves):
    return Graph.from_edges([(0, i) for i in range(1, n_leaves + 1)])


def grid_graph(rows, cols):
    def nid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((nid(r, c), nid(r, c + 1)))
            if r + 1 < rows:
                edges.append((nid(r, c), nid(r + 1, c)))
    return Graph.from_edges(edges)


def barbell_graph(m1=5, m2=3):
    """Two m1-cliques joined by an m2-node path (13 nodes by default)."""
    edges = [(i, j) for i in range(m1) for j in range(i + 1, m1)]
    path = list(range(m1, m1 + m2))
    right = list(range(m1 + m2, 2 * m1 + m2))
    edges += [(path[k], path[k + 1]) for k in range(len(path) - 1)]
    edges += [(u, v) for u in right for v in right if u < v]
    edges.append((m1 - 1, path[0]))
    edges.append((path[-1], right[0]))
    return Graph.from_edges(edges)


def erdos_renyi(n, p, seed=0):
    rng = _numpy_rng(seed, "erdos_renyi", n)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    if not edges:
        edges = [(0, 1)]
    return Graph(range(n), edges)


def stochastic_block_model(sizes, p_in, p_out, seed=0):
    """Planted-partition graph; returns (graph, block labels)."""
    rng = _numpy_rng(seed, "sbm")
    n = int(sum(sizes))
    labels = np.concatenate([np.full(s, b, dtype=np.int64)
                             for b, s in enumerate(sizes)])
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if labels[i] == labels[j] else p_out
            if rng.random() < p:
                edges.append((i, j))
    g = Graph(range(n), edges)
    return g, labels


def block_attributes(labels, dim_per_block=2, noise=0.3, seed=0):
    """Noisy one-hot block indicators, shaped (m, n) like Graph attributes."""
    rng = _numpy_rng(seed, "block_attrs")
    labels = np.asarray(labels)
    k = int(labels.max()) + 1
    m = k * dim_per_block
    x = rng.normal(0.0, noise, size=(m, labels.size))
    for b in range(k):
        x[b * dim_per_block:(b + 1) * dim_per_block, labels == b] += 1.0
    return x


def cycles_and_paths(count=200, n_min=5, n_max=10, seed=0):
    """Balanced cycle-vs-path graph classification set.

    Returns a list of (graph, label) with label 1 for cycles. Sizes are
    drawn uniformly from [n_min, n_max].
    """
    rng = _numpy_rng(seed, "cycles_paths")
    out = []
    for k in range(count):
        n = int(rng.integers(n_min, n_max + 1))
        if k % 2 == 0:
            out.append((path_graph(n), 0))
        else:
            out.append((cycle_graph(n), 1))
    return out


def two_layer_graphs(n=12, p=0.35, seed=0):
    """Two random layers over one shared node universe (same ids)."""
    g1 = erdos_renyi(n, p, seed=seed)
    g2 = erdos_renyi(n, p, seed=seed + 1)
    return g1, g2
