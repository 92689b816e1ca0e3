"""Node-pair similarity matrices that embedding objectives reconstruct.

Five kinds: raw adjacency, adjacency powers, neighborhood Jaccard
overlap, the analytic random-walk visit law, and PPMI statistics of a
sampled walk corpus. The visit law for a length-T walk is the average
of the first T transition-matrix powers, matching the position-
marginal of sampled walks.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ResourceLimitError
from .graph import DENSE_NODE_CAP
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


@dataclass(frozen=True)
class SimilarityMatrix:
    values: np.ndarray
    spec: SimilaritySpec

    @property
    def shape(self):
        return self.values.shape


def transition_matrix(g):
    """Row-stochastic step matrix; isolated nodes keep an all-zero row."""
    a = g.adjacency_matrix()
    deg = a.sum(axis=1, keepdims=True)
    safe = np.where(deg > 0, deg, 1.0)
    return a / safe


def walk_visit_distribution(g, v, length):
    """Distribution over the nodes a length-T walk from v passes through.

    Averages P^t rows for t = 1..T. The start position itself is not
    counted, matching pair extraction which never pairs a node with
    offset zero.
    """
    v = g._check_node(v)
    if length < 1:
        raise ContractError("walk length must be >= 1")
    p = transition_matrix(g)
    row = np.zeros(g.node_count)
    row[v] = 1.0
    acc = np.zeros(g.node_count)
    for _ in range(int(length)):
        row = row @ p
        acc += row
    return acc / float(length)


def jaccard_similarity(g):
    """Pairwise neighborhood overlap |N_i & N_j| / |N_i | N_j|."""
    b = (g.adjacency_matrix() > 0).astype(np.float64)
    inter = b @ b.T
    deg = b.sum(axis=1)
    union = deg[:, None] + deg[None, :] - inter
    out = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
    return out


def pmi_similarity(g, spec):
    """Positive pointwise mutual information of windowed walk co-occurrence."""
    cfg = WalkConfig(length=spec.walk_length, walks_per_node=spec.walks_per_node,
                     seed=spec.seed)
    corpus = sample_uniform_walks(g, cfg)
    pairs = extract_pairs(corpus, spec.window)
    n = g.node_count
    co = np.zeros((n, n))
    np.add.at(co, (pairs[:, 0], pairs[:, 1]), 1.0)
    total = co.sum()
    marg = co.sum(axis=1)
    out = np.zeros((n, n))
    nz = co > 0
    denom = marg[:, None] * marg[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log(co * total / denom)
    out[nz] = np.maximum(0.0, vals[nz])
    return out


def build_similarity(g, spec, cap=DENSE_NODE_CAP):
    """Materialize the dense similarity matrix a SimilaritySpec names."""
    if g.node_count > cap:
        raise ResourceLimitError(
            f"dense similarity on {g.node_count} nodes exceeds cap {cap}")
    if spec.kind == "adjacency":
        values = g.adjacency_matrix()
    elif spec.kind == "adjacency_power":
        values = g.adjacency_power(spec.power, cap=cap)
    elif spec.kind == "jaccard":
        values = jaccard_similarity(g)
    elif spec.kind == "rw_visit":
        p = transition_matrix(g)
        acc = np.zeros_like(p)
        step = np.eye(g.node_count)
        for _ in range(spec.walk_length):
            step = step @ p
            acc += step
        values = acc / float(spec.walk_length)
    elif spec.kind == "rw_pmi":
        values = pmi_similarity(g, spec)
    else:  # unreachable, __post_init__ guards
        raise ContractError(spec.kind)
    return SimilarityMatrix(values, spec)
