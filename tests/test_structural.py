import inspect

import numpy as np
import pytest

import oracles
from oracles import dtw_distance
from grembed import graph, structural
from grembed.errors import ContractError, ResourceLimitError, ValidationError
from grembed.fixtures import (
    barbell_graph,
    cycle_graph,
    erdos_renyi,
    karate_club,
    path_graph,
    star_graph,
    stochastic_block_model,
)
from grembed.graph import Graph
from grembed.structural import (
    _layered_graph,
    degree_refinement_classes,
    degree_sequences,
    graphwave_signature,
    heat_wavelets,
    struc2vec_distances,
    struc2vec_embed,
)
from grembed.table import load_embedding
from grembed.walks import WalkConfig, _walk

RATIO = lambda a, b: max(a, b) / min(a, b) - 1.0


def barbell_classes():
    """Ground-truth structural classes of barbell(5, 3) by position."""
    g = barbell_graph(5, 3)
    deg = g.degrees()
    labels = np.zeros(g.node_count, dtype=int)
    labels[deg == 4] = 0          # clique interiors
    labels[deg == 5] = 1          # clique attachment nodes
    path = np.nonzero(deg == 2)[0]
    mid = [v for v in path if all(deg[u] == 2 for u in g.neighbors(v))]
    for v in path:
        labels[v] = 3 if v in mid else 2
    return g, labels


def test_dtw_matches_oracle_on_random_sequences():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.integers(1, 9, size=rng.integers(1, 7))
        b = rng.integers(1, 9, size=rng.integers(1, 7))
        assert dtw_distance(a, b) == pytest.approx(
            oracles.dtw_cost_table(a, b, RATIO), abs=1e-12)


def test_dtw_identical_sequences_cost_zero():
    assert dtw_distance([3, 3, 5], [3, 3, 5]) == 0.0
    # repeats are free under time warping
    assert dtw_distance([2], [2, 2, 2]) == 0.0


def test_struc2vec_compares_an_empty_ring_as_the_lone_degree_1():
    # a star leaf has no 3-hop ring; a path end's is one node of degree 2
    g, offsets, _ = graph.disjoint_union([star_graph(5), path_graph(5)])
    leaf, end = 1, int(offsets[1])
    rings = degree_sequences(g, 3)
    assert rings[leaf][3].size == 0
    assert np.array_equal(rings[end][3], [2.0])
    layers = struc2vec_distances(g, 3)
    step = layers[2][leaf, end] - layers[1][leaf, end]
    assert step == pytest.approx(dtw_distance([1.0], rings[end][3]),
                                 abs=1e-12)
    assert step > 0


def test_degree_sequences_sorted_and_empty_rings():
    g = star_graph(5)
    rings = degree_sequences(g, 2)
    center = rings[0]
    assert np.array_equal(center[1], np.sort(np.ones(5)))
    assert center[2].size == 0
    leaf = rings[1]
    assert np.array_equal(leaf[1], [5.0])
    assert np.array_equal(leaf[2], [1.0, 1.0, 1.0, 1.0])
    for r in rings:
        for k in r:
            assert np.all(np.diff(r[k]) >= 0)


def test_path_layer1_matches_hand_oracle():
    g = path_graph(5)
    layers = struc2vec_distances(g, 1)
    rings = degree_sequences(g, 1)
    end, middle = 0, 2
    expect = oracles.dtw_cost_table(rings[end][1], rings[middle][1], RATIO)
    assert layers[0][end, middle] == pytest.approx(expect, abs=1e-12)
    # and ends are structurally identical to each other
    assert layers[0][0, 4] == 0.0


def test_regular_graph_distances_all_zero():
    g = cycle_graph(8)
    for w in struc2vec_distances(g, 3):
        assert np.all(w == 0.0)


def test_automorphic_pairs_distance_zero_all_layers():
    g, labels = barbell_classes()
    layers = struc2vec_distances(g, 4)
    for cls in np.unique(labels):
        members = np.nonzero(labels == cls)[0]
        for w in layers:
            for i in members:
                for j in members:
                    assert w[i, j] == pytest.approx(0.0, abs=1e-12)


def test_distances_monotone_in_k():
    g = erdos_renyi(18, 0.25, seed=3)
    layers = struc2vec_distances(g, 4)
    for a, b in zip(layers, layers[1:]):
        assert np.all(b >= a - 1e-12)


def test_struc2vec_embed_separates_barbell_roles():
    g, labels = barbell_classes()
    table = struc2vec_embed(g, k_max=3, dim=8, walk_length=15,
                            walks_per_node=12, epochs=4, lr=0.25, seed=5)
    z = table.vectors / np.linalg.norm(table.vectors, axis=1, keepdims=True)
    clique = np.nonzero(labels <= 1)[0]
    path = np.nonzero(labels >= 2)[0]

    def mean_cos(a, b, skip_same=False):
        vals = [float(z[i] @ z[j]) for i in a for j in b
                if not (skip_same and i == j)]
        return np.mean(vals)

    within = mean_cos(clique, clique, skip_same=True)
    across = mean_cos(clique, path)
    assert within > across


def test_struc2vec_automorphic_pairs_closer_than_median():
    g, labels = barbell_classes()
    table = struc2vec_embed(g, k_max=3, dim=8, walk_length=15,
                            walks_per_node=12, epochs=4, lr=0.25, seed=5)
    z = table.vectors
    n = len(z)
    d = np.sqrt(((z[:, None, :] - z[None, :, :]) ** 2).sum(-1))
    all_pairs = d[np.triu_indices(n, k=1)]
    med = np.median(all_pairs)
    auto = [d[i, j] for i in range(n) for j in range(i + 1, n)
            if labels[i] == labels[j]]
    assert np.mean(auto) < med


def layered_transition(layers, switch_prob):
    """(K n)^2 law of one layered step, entry by entry.

    From node v in layer k the walk moves layer with probability
    switch_prob (up or down half each, inward at the stack ends, never
    with one layer), then picks u != v in the new layer k' with weight
    e^{-w_k'(v, u)}, uniformly when every such weight is 0.
    """
    K, n = len(layers), layers[0].shape[0]
    P = np.zeros((K * n, K * n))
    for k in range(K):
        if K == 1:
            moves = {0: 1.0}
        elif k == 0:
            moves = {0: 1.0 - switch_prob, 1: switch_prob}
        elif k == K - 1:
            moves = {k: 1.0 - switch_prob, k - 1: switch_prob}
        else:
            moves = {k: 1.0 - switch_prob, k - 1: switch_prob / 2,
                     k + 1: switch_prob / 2}
        for v in range(n):
            for k2, pm in moves.items():
                row = [0.0 if u == v else float(np.exp(-layers[k2][v, u]))
                       for u in range(n)]
                if sum(row) == 0:
                    row = [0.0 if u == v else 1.0 for u in range(n)]
                total = sum(row)
                for u in range(n):
                    P[k * n + v, k2 * n + u] += pm * row[u] / total
    return P


def arc_law(g):
    """Row-normalised dense matrix of a graph's CSR arc weights."""
    m = np.zeros((g.node_count, g.node_count))
    np.add.at(m, (g.csr_sources, g.csr_targets), g.csr_weights)
    return m / m.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("k_max", [1, 3])
@pytest.mark.parametrize("switch_prob", [0.0, 0.3, 1.0])
def test_layered_graph_matches_layered_walk_law(k_max, switch_prob):
    layers = struc2vec_distances(barbell_graph(3, 2), k_max)
    # one row whose weights all underflow takes the uniform fallback
    layers[-1][2] = 1e4
    got = arc_law(_layered_graph(layers, switch_prob))
    want = layered_transition(layers, switch_prob)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_layered_walks_match_analytic_visit_law():
    g = barbell_graph(3, 2)
    n, T = g.node_count, 4
    layers = struc2vec_distances(g, 3)
    P = layered_transition(layers, 0.3)
    cfg = WalkConfig(length=T, walks_per_node=4000, seed=9)
    corpus = _walk(_layered_graph(layers, 0.3), cfg, starts=np.arange(n))
    for v in (0, 3):
        visits = np.zeros(n)
        count = 0
        for w in corpus.walks:
            if w[0] != v:
                continue
            count += 1
            np.add.at(visits, w[1:] % n, 1)
        empirical = visits / (count * T)
        analytic = oracles.averaged_visit_law(P, v, T).reshape(-1, n).sum(0)
        assert 0.5 * np.abs(empirical - analytic).sum() < 0.02


@pytest.mark.parametrize("walk_length", [5, 8])
def test_struc2vec_walk_length_counts_steps(walk_length):
    g = barbell_graph(3, 2)
    walks_per_node, window = 2, 3
    table = struc2vec_embed(g, k_max=2, dim=4, walk_length=walk_length,
                            walks_per_node=walks_per_node, window=window,
                            epochs=1)
    hops = sum(walk_length + 1 - o for o in range(1, window + 1))
    assert table.metadata["pair_count"] == (
        g.node_count * walks_per_node * 2 * hops)


@pytest.mark.parametrize("switch_prob", [-0.2, 1.5, float("nan")])
def test_struc2vec_rejects_switch_prob_outside_unit_interval(
        switch_prob, monkeypatch):
    def no_dtw(*args, **kwargs):
        raise AssertionError("distances computed before validation")

    monkeypatch.setattr(structural, "struc2vec_distances", no_dtw)
    with pytest.raises(ContractError, match="switch_prob"):
        struc2vec_embed(barbell_graph(3, 2), switch_prob=switch_prob)


def test_struc2vec_rejects_window_before_distances(monkeypatch):
    def no_dtw(*args, **kwargs):
        raise AssertionError("distances computed before validation")

    monkeypatch.setattr(structural, "struc2vec_distances", no_dtw)
    g, _ = karate_club()
    with pytest.raises(ContractError,
                       match="window 25 must be < walk length 20"):
        struc2vec_embed(g, window=25)


def test_struc2vec_refuses_graphs_above_cap_before_dtw(monkeypatch):
    def no_dtw(*args, **kwargs):
        raise AssertionError("ring work started above the cap")

    g = cycle_graph(10)
    monkeypatch.setattr(structural, "STRUC2VEC_NODE_CAP", 10)
    assert len(struc2vec_distances(g, 2)) == 2
    monkeypatch.setattr(structural, "STRUC2VEC_NODE_CAP", 9)
    monkeypatch.setattr(structural, "degree_sequences", no_dtw)
    monkeypatch.setattr(structural, "_dtw", no_dtw)
    message = "struc2vec distances on 10 nodes exceed cap 9"
    for call in (lambda: struc2vec_distances(g, 2),
                 lambda: struc2vec_embed(g, k_max=2)):
        with pytest.raises(ResourceLimitError, match=message):
            call()


def test_struc2vec_refuses_a_ring_node_of_out_degree_0_before_rings(
        monkeypatch):
    def no_rings(*args, **kwargs):
        raise AssertionError("ring work started on a bad graph")

    # 2 and 3 are sinks that 1 and 0 reach; 4 is a source
    g = Graph.from_edges([(0, 1), (1, 2), (0, 3), (4, 0)], directed=True)
    monkeypatch.setattr(structural, "degree_sequences", no_rings)
    for call in (lambda: struc2vec_distances(g, 2),
                 lambda: struc2vec_embed(g, k_max=2, dim=2)):
        with pytest.raises(ValidationError,
                           match="node '2' has an in-arc but out-degree 0"):
            call()


def test_struc2vec_takes_directed_graphs_without_reached_sinks():
    # a directed 4-cycle plus a node no arc touches: every ring degree is 1
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)], directed=True,
                         node_ids=["0", "1", "2", "3", "9"])
    with np.errstate(all="raise"):
        layers = struc2vec_distances(g, 2)
    for w in layers:
        assert np.all(w == 0.0)


def _oracle_layers(g, k_max):
    """struc2vec_distances through the scalar oracle: each pair's
    dtw_cost_table cost, an empty ring read as the lone degree 1."""
    rings = degree_sequences(g, k_max)
    n = g.node_count
    prev, layers = np.zeros((n, n)), []
    for k in range(1, k_max + 1):
        seqs = [r[k] if r[k].size else np.ones(1) for r in rings]
        step = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                step[i, j] = step[j, i] = oracles.dtw_cost_table(
                    seqs[i], seqs[j], RATIO)
        prev = prev + step
        layers.append(prev)
    return layers


@pytest.mark.parametrize("name", ["karate", "barbell", "star", "er"])
def test_struc2vec_distances_match_scalar_dtw_oracle_bitwise(
        name, monkeypatch):
    g = {"karate": lambda: karate_club()[0],
         "barbell": lambda: barbell_graph(5, 3),
         "star": lambda: star_graph(5),
         "er": lambda: erdos_renyi(40, 0.15, seed=1)}[name]()
    rings = degree_sequences(g, 3)
    lengths = {r[k].size for r in rings for k in r}
    if name == "star":
        assert 0 in lengths
    if name == "er":
        assert len(lengths) > 5
    want = _oracle_layers(g, 3)
    # blocks of one pair up to all pairs at once give the same bits
    for cells in (1, 997, structural.DTW_BLOCK_CELLS):
        monkeypatch.setattr(structural, "DTW_BLOCK_CELLS", cells)
        got = struc2vec_distances(g, 3)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def test_dtw_kernel_reads_each_pairs_own_cell_bitwise():
    rng = np.random.default_rng(3)
    seqs = [rng.integers(1, 9, size=rng.integers(1, 8)).astype(float)
            for _ in range(12)]
    lens = np.array([s.size for s in seqs])
    padded = np.ones((12, lens.max() + 2))
    for v, s in enumerate(seqs):
        padded[v, :s.size] = s
    first, second = np.triu_indices(12, 1)
    got = structural._dtw(padded[first], lens[first], padded[second],
                          lens[second])
    want = [oracles.dtw_cost_table(seqs[i], seqs[j], RATIO)
            for i, j in zip(first, second)]
    np.testing.assert_array_equal(got.view(np.int64),
                                  np.array(want).view(np.int64))


def test_graphwave_zero_scale_gives_indicators():
    g = cycle_graph(6)
    for v, psi in enumerate(heat_wavelets(g, s=0.0)):
        expect = np.zeros(6)
        expect[v] = 1.0
        assert np.allclose(psi, expect, atol=1e-9)


def test_graphwave_mass_conserved():
    g = erdos_renyi(15, 0.3, seed=1)
    for s in (0.1, 0.5, 3.0):
        for psi in heat_wavelets(g, s=s):
            assert psi.sum() == pytest.approx(1.0, abs=1e-9)


def test_graphwave_matches_dense_heat_kernel_oracle():
    g = erdos_renyi(12, 0.3, seed=2)
    heat = oracles.heat_kernel_dense(g.laplacian(), 0.5)
    for v, psi in enumerate(heat_wavelets(g, s=0.5)):
        assert np.allclose(psi, heat[:, v], atol=1e-9)


def test_char_samples_start_at_one_zero():
    g = cycle_graph(5)
    points = inspect.signature(graphwave_signature).parameters["t_points"]
    for samples in graphwave_signature(g, s=0.5).vectors:
        assert samples[0] == pytest.approx(1.0, abs=1e-12)
        assert samples[1] == pytest.approx(0.0, abs=1e-12)
        assert samples.size == 2 * points.default


def test_automorphic_nodes_identical_samples_on_barbell():
    g, labels = barbell_classes()
    m = graphwave_signature(g, s=0.5).vectors
    for cls in np.unique(labels):
        members = np.nonzero(labels == cls)[0]
        base = m[members[0]]
        for v in members[1:]:
            assert np.allclose(m[v], base, atol=1e-8)


def test_psi_of_equivalent_nodes_are_permutations():
    g, labels = barbell_classes()
    psi = heat_wavelets(g, s=0.5)
    for cls in np.unique(labels):
        members = np.nonzero(labels == cls)[0]
        base = np.sort(psi[members[0]])
        for v in members[1:]:
            assert np.allclose(np.sort(psi[v]), base, atol=1e-8)


def test_signature_multiset_isomorphism_invariant():
    g, _ = barbell_classes()
    perm = np.random.default_rng(9).permutation(g.node_count)
    relabeled = [(str(perm[int(a)] + 100), str(perm[int(b)] + 100))
                 for a, b in g.edge_pairs]
    h = Graph.from_edges(relabeled)
    ma = graphwave_signature(g, s=0.5).vectors
    mb = graphwave_signature(h, s=0.5).vectors
    order_a = np.lexsort(ma.T[::-1])
    order_b = np.lexsort(mb.T[::-1])
    assert np.allclose(ma[order_a], mb[order_b], atol=1e-8)


def test_clustering_samples_recovers_refinement_classes():
    g, _ = barbell_classes()
    oracle = degree_refinement_classes(g)
    m = graphwave_signature(g, s=0.5).vectors
    # group rows that agree within tolerance and compare partitions
    n = len(m)
    group = -np.ones(n, dtype=int)
    next_id = 0
    for v in range(n):
        if group[v] >= 0:
            continue
        close = np.nonzero(np.abs(m - m[v]).max(axis=1) < 1e-6)[0]
        group[close] = next_id
        next_id += 1
    same_oracle = oracle[:, None] == oracle[None, :]
    same_group = group[:, None] == group[None, :]
    assert np.array_equal(same_oracle, same_group)


def test_refinement_on_barbell_matches_position_classes():
    g, labels = barbell_classes()
    got = degree_refinement_classes(g)
    same_truth = labels[:, None] == labels[None, :]
    same_got = got[:, None] == got[None, :]
    assert np.array_equal(same_truth, same_got)


def test_node_cap_enforced(monkeypatch):
    g = cycle_graph(10)
    monkeypatch.setattr(graph, "DENSE_NODE_CAP", 5)
    with pytest.raises(ResourceLimitError):
        graphwave_signature(g)


def test_graphwave_table_rows_then_psi_columns(tmp_path):
    g = cycle_graph(4)
    table = graphwave_signature(g, s=0.5, t_max=1.0, t_points=2)
    assert table.vectors.shape == (4, 4)
    assert table.node_ids == g.node_ids
    assert table.metadata == {"scale": 0.5, "t_max": 1.0, "t_points": 2}
    with_psi = graphwave_signature(g, s=0.5, t_max=1.0, t_points=2,
                                   include_psi=True)
    assert with_psi.vectors.shape == (4, 4 + 4)
    np.testing.assert_array_equal(with_psi.vectors[:, :4], table.vectors)
    np.testing.assert_array_equal(with_psi.vectors[:, 4:],
                                  heat_wavelets(g, s=0.5))
    out = tmp_path / "sig.tsv"
    with_psi.save(out)
    back = load_embedding(out)
    assert back.node_ids == g.node_ids
    np.testing.assert_array_equal(back.vectors, with_psi.vectors)


@pytest.mark.parametrize("s", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("name", ["karate", "barbell", "er", "sbm"])
def test_graphwave_matches_the_per_node_loop_bitwise(name, s):
    g = {"karate": lambda: karate_club()[0],
         "barbell": lambda: barbell_graph(5, 3),
         "er": lambda: erdos_renyi(60, 0.1, seed=1),
         "sbm": lambda: stochastic_block_model((50,) * 4, 0.3, 0.02,
                                               seed=3)[0]}[name]()
    samples, psi = oracles.per_node_graphwave(g, s, np.linspace(0, 100, 50))
    got = graphwave_signature(g, s=s, include_psi=True).vectors
    np.testing.assert_array_equal(got[:, :100].view(np.int64),
                                  samples.view(np.int64))
    np.testing.assert_array_equal(got[:, 100:].view(np.int64),
                                  psi.view(np.int64))
    np.testing.assert_array_equal(heat_wavelets(g, s).view(np.int64),
                                  psi.view(np.int64))
