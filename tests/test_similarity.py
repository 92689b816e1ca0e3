import numpy as np
import pytest

from grembed import fixtures, graph
from grembed.errors import ContractError, ResourceLimitError
from grembed.similarity import (
    SimilaritySpec,
    build_similarity,
    jaccard_similarity,
    transition_matrix,
    walk_visit_distribution,
)
from grembed.walks import WalkConfig, extract_pairs, sample_uniform_walks

import oracles


def test_spec_validation():
    with pytest.raises(ContractError):
        SimilaritySpec(kind="cosine")
    with pytest.raises(ContractError):
        SimilaritySpec(power=0)
    with pytest.raises(ContractError):
        SimilaritySpec(walk_length=1)
    with pytest.raises(ContractError):
        SimilaritySpec(kind="rw_pmi", window=5, walk_length=5)
    with pytest.raises(ContractError):
        SimilaritySpec(walks_per_node=0)


def test_transition_matrix_rows_stochastic():
    from grembed.graph import Graph

    g = Graph.from_edges([(0, 1), (0, 2)], weights=[1.0, 3.0],
                         node_ids=["0", "1", "2", "3"])
    p = transition_matrix(g)
    np.testing.assert_allclose(p[g.index_of("0")],
                               [0.0, 0.25, 0.75, 0.0])
    np.testing.assert_allclose(p[:3].sum(axis=1), 1.0)
    np.testing.assert_allclose(p[3], 0.0)  # isolated row stays zero


def test_visit_distribution_triangle_single_step():
    g = fixtures.triangle()
    np.testing.assert_allclose(walk_visit_distribution(g, 0, 1),
                               [0.0, 0.5, 0.5])


def test_visit_distribution_matches_power_average_oracle():
    g = fixtures.barbell_graph(3, 2)
    p = transition_matrix(g)
    for v in (0, 2, 4):
        for T in (1, 3, 5):
            np.testing.assert_allclose(
                walk_visit_distribution(g, v, T),
                oracles.averaged_visit_law(p, v, T), atol=1e-12)


def test_visit_distribution_is_a_distribution():
    g = fixtures.karate_club()[0]
    q = walk_visit_distribution(g, 5, 6)
    assert q.min() >= 0
    np.testing.assert_allclose(q.sum(), 1.0)


def test_visit_distribution_errors():
    g = fixtures.triangle()
    with pytest.raises(IndexError):
        walk_visit_distribution(g, 9, 2)
    with pytest.raises(ContractError):
        walk_visit_distribution(g, 0, 0)


def test_adjacency_kind_returns_weighted_adjacency():
    from grembed.graph import Graph

    g = Graph.from_edges([(0, 1), (1, 2)], weights=[2.0, 5.0])
    sim = build_similarity(g, SimilaritySpec(kind="adjacency"))
    assert isinstance(sim, np.ndarray)
    np.testing.assert_allclose(sim, g.adjacency_matrix())


def test_adjacency_power_kind_matches_oracle():
    g = fixtures.cycle_graph(5)
    spec = SimilaritySpec(kind="adjacency_power", power=3)
    sim = build_similarity(g, spec)
    np.testing.assert_allclose(
        sim, oracles.matrix_power_loop(g.adjacency_matrix(), 3))


def test_jaccard_matches_brute_force():
    g = fixtures.barbell_graph(4, 2)
    got = jaccard_similarity(g)
    expect = oracles.jaccard_neighborhoods(g.adjacency_matrix())
    np.testing.assert_allclose(got, expect)
    assert np.all(got >= 0) and np.all(got <= 1)
    np.testing.assert_allclose(got, got.T)


def test_rw_visit_kind_rows_are_visit_laws():
    g = fixtures.cycle_graph(6)
    spec = SimilaritySpec(kind="rw_visit", walk_length=4)
    sim = build_similarity(g, spec)
    for v in range(6):
        np.testing.assert_allclose(sim[v],
                                   walk_visit_distribution(g, v, 4))


def test_rw_pmi_matches_brute_force_on_same_corpus():
    g = fixtures.karate_club()[0]
    spec = SimilaritySpec(kind="rw_pmi", walk_length=5, walks_per_node=3,
                          window=2, seed=99)
    sim = build_similarity(g, spec)
    cfg = WalkConfig(length=5, walks_per_node=3, seed=99)
    corpus = sample_uniform_walks(g, cfg)
    expect = oracles.pmi_matrix(corpus.walks, 2, g.node_count)
    np.testing.assert_allclose(sim, expect, atol=1e-10)
    np.testing.assert_allclose(sim, sim.T, atol=1e-10)
    assert sim.min() >= 0


def test_rw_pmi_deterministic():
    g = fixtures.cycle_graph(8)
    spec = SimilaritySpec(kind="rw_pmi", walk_length=4, walks_per_node=5,
                          window=2, seed=7)
    a = build_similarity(g, spec)
    b = build_similarity(g, spec)
    np.testing.assert_array_equal(a, b)


def test_dense_cap_guard(monkeypatch):
    g = fixtures.karate_club()[0]
    monkeypatch.setattr(graph, "DENSE_NODE_CAP", 10)
    with pytest.raises(ResourceLimitError):
        build_similarity(g, SimilaritySpec(kind="adjacency"))
