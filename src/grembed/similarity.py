"""Node-pair similarity matrices that embedding objectives reconstruct.

Five kinds: raw adjacency, adjacency powers, neighborhood Jaccard
overlap, the analytic random-walk visit law, and PPMI statistics of a
sampled walk corpus. The visit law for a length-T walk is the average
of the first T transition-matrix powers, matching the position-
marginal of sampled walks.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .graph import Graph, dense_guard
from .walks import WalkConfig, extract_pairs, sample_uniform_walks

KINDS = ("adjacency", "adjacency_power", "jaccard", "rw_visit", "rw_pmi")


@dataclass(frozen=True)
class SimilaritySpec:
    kind: str = "adjacency"
    power: int = 2
    walk_length: int = 5
    walks_per_node: int = 10
    window: int = 4
    seed: int = 42

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"unknown similarity kind {self.kind!r}")
        if self.power < 1:
            raise ContractError("power must be >= 1")
        if self.walk_length < 2:
            raise ContractError("walk_length must be >= 2")
        if self.kind == "rw_pmi" and not 1 <= self.window < self.walk_length:
            raise ContractError("window must satisfy 1 <= window < walk_length")
        if self.walks_per_node < 1:
            raise ContractError("walks_per_node must be >= 1")


def transition_matrix(g):
    """Row-stochastic step matrix; isolated nodes keep an all-zero row."""
    a = g.adjacency_matrix()
    deg = a.sum(axis=1, keepdims=True)
    safe = np.where(deg > 0, deg, 1.0)
    return a / safe


def _visit_average(p, start, length):
    """The mean of start @ P^t over t = 1..length."""
    acc = np.zeros_like(start)
    for _ in range(int(length)):
        start = start @ p
        acc += start
    return acc / float(length)


def walk_visit_distribution(g, v, length):
    """Distribution over the nodes a length-T walk from v passes through.

    Averages P^t rows for t = 1..T. The start position itself is not
    counted, matching pair extraction which never pairs a node with
    offset zero.
    """
    v = g._check_node(v)
    if length < 1:
        raise ContractError("walk length must be >= 1")
    return _visit_average(transition_matrix(g),
                          np.eye(1, g.node_count, v)[0], length)


def jaccard_similarity(g):
    """Pairwise neighborhood overlap |N_i & N_j| / |N_i | N_j|."""
    b = (g.adjacency_matrix() > 0).astype(np.float64)
    inter = b @ b.T
    deg = b.sum(axis=1)
    union = deg[:, None] + deg[None, :] - inter
    out = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
    return out


def pmi_similarity(g, spec):
    """Positive pointwise mutual information of windowed walk co-occurrence,
    counted as the adjacency of the pairs' multigraph (guarded first)."""
    dense_guard(g.node_count)
    cfg = WalkConfig(length=spec.walk_length, walks_per_node=spec.walks_per_node,
                     seed=spec.seed)
    pairs = extract_pairs(sample_uniform_walks(g, cfg), spec.window)
    co = Graph(range(g.node_count), pairs, directed=True).adjacency_matrix()
    total = co.sum()
    marg = co.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log(co * total / (marg[:, None] * marg[None, :]))
    return np.where(co > 0, np.maximum(0.0, vals), 0.0)


def build_similarity(g, spec):
    """The dense similarity matrix a SimilaritySpec names, as an array.

    Every kind starts at ``g.adjacency_matrix()`` or, for rw_pmi, at
    its guard, so a graph too large for a dense matrix is refused
    (ResourceLimitError) before anything is allocated.
    """
    if spec.kind == "adjacency":
        return g.adjacency_matrix()
    if spec.kind == "adjacency_power":
        return g.adjacency_power(spec.power)
    if spec.kind == "jaccard":
        return jaccard_similarity(g)
    if spec.kind == "rw_visit":
        return _visit_average(transition_matrix(g), np.eye(g.node_count),
                              spec.walk_length)
    return pmi_similarity(g, spec)  # __post_init__ admits only KINDS
