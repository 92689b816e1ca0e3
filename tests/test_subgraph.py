import io

import numpy as np
import pytest

from grembed import autodiff as ad
from grembed.errors import ContractError, EdgeListParseError, ValidationError
from grembed.fixtures import (
    cycle_graph,
    cycles_and_paths,
    erdos_renyi,
    path_graph,
)
from grembed.graph import Graph
from grembed.subgraph import (
    EdgeMessageParams,
    PoolingKind,
    SubgraphSpec,
    classify_subgraphs,
    coarsen_maxpool,
    dataset_from_pairs,
    edge_message_encode,
    edge_message_tensors,
    fuzzy_histogram_pool,
    ordered_concat_pool,
    parse_multigraph_file,
    pool_subgraph,
    sum_pool,
    supernode_pool,
)


def test_spec_validation():
    g = cycle_graph(4)
    spec = SubgraphSpec(g, [2, 0])
    assert np.array_equal(spec.nodes, [0, 2])
    whole = SubgraphSpec(g)
    assert whole.nodes.size == 4
    with pytest.raises(ContractError):
        SubgraphSpec(g, [])
    with pytest.raises(ValidationError):
        SubgraphSpec(g, [7])
    with pytest.raises(ContractError):
        PoolingKind("median")
    with pytest.raises(ContractError):
        PoolingKind("fuzzy_histogram", bins=1)


def test_sum_pool_basics():
    g = path_graph(3)
    z = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    assert np.array_equal(sum_pool(z, SubgraphSpec(g, [0, 1])), [1.0, 1.0])
    assert np.array_equal(sum_pool(z, SubgraphSpec(g, [2])), z[2])
    # enumeration order of S cannot matter
    a = sum_pool(z, SubgraphSpec(g, [0, 1, 2]))
    b = sum_pool(z, SubgraphSpec(g, [2, 0, 1]))
    assert np.array_equal(a, b)


def test_sum_pool_additive_over_disjoint_subsets():
    g = cycle_graph(6)
    z = np.random.default_rng(0).normal(size=(6, 3))
    s1 = SubgraphSpec(g, [0, 1])
    s2 = SubgraphSpec(g, [3, 4])
    both = SubgraphSpec(g, [0, 1, 3, 4])
    assert np.allclose(sum_pool(z, both), sum_pool(z, s1) + sum_pool(z, s2))


def test_fuzzy_histogram_single_node_sums_to_one():
    g = path_graph(2)
    z = np.array([[0.7, -0.2], [0.0, 0.0]])
    h = fuzzy_histogram_pool(z, SubgraphSpec(g, [0]), bins=5)
    assert h.shape == (10,)
    assert h[:5].sum() == pytest.approx(1.0)
    assert h[5:].sum() == pytest.approx(1.0)


def test_fuzzy_histogram_symmetric_values_mirror():
    g = path_graph(2)
    a = 0.9
    z = np.array([[a], [-a]])
    h = fuzzy_histogram_pool(z, SubgraphSpec(g, [0, 1]), bins=5)
    assert np.allclose(h, h[::-1], atol=1e-12)


def test_fuzzy_histogram_zero_embeddings_fallback():
    g = path_graph(2)
    z = np.zeros((2, 2))
    h = fuzzy_histogram_pool(z, SubgraphSpec(g), bins=4)
    assert np.all(np.isfinite(h))
    assert h.sum() == pytest.approx(2 * 2.0)


def test_ordered_concat_ordering_and_padding():
    g = Graph.from_edges([("a", "b"), ("a", "c"), ("a", "d"), ("b", "c")])
    z = np.arange(8, dtype=np.float64).reshape(4, 2)
    spec = SubgraphSpec(g)
    deg = g.degrees()
    idx = sorted(range(4), key=lambda v: (-deg[v], v))
    got = ordered_concat_pool(g, z, spec, m=2)
    assert np.array_equal(got, np.concatenate([z[idx[0]], z[idx[1]]]))
    padded = ordered_concat_pool(g, z, SubgraphSpec(g, [3]), m=3)
    assert np.array_equal(padded[:2], z[3])
    assert np.all(padded[2:] == 0)


def test_ordered_concat_tie_break_by_index():
    g = cycle_graph(4)  # all degrees equal
    z = np.arange(8, dtype=np.float64).reshape(4, 2)
    got = ordered_concat_pool(g, z, SubgraphSpec(g), m=4)
    assert np.array_equal(got, z.reshape(-1))


def test_coarsen_maxpool_identity_partition_is_global_max():
    g = Graph.from_edges([], node_ids=["a", "b", "c"])  # nothing matches
    z = np.array([[1.0, 5.0], [2.0, 4.0], [3.0, 3.0]])
    calls = []

    def encoder(graph, rows):
        calls.append(graph.node_count)
        return rows * 2.0

    got = coarsen_maxpool(g, z, levels=1, encoder=encoder)
    assert np.array_equal(got, (z * 2.0).max(axis=0))
    assert calls == [3]


def test_coarsen_maxpool_constant_embeddings_pass_through():
    g = cycle_graph(6)
    c = np.array([2.5, -1.0, 0.5])
    z = np.tile(c, (6, 1))
    got = coarsen_maxpool(g, z, levels=2)
    assert np.allclose(got, c)


def test_coarsen_maxpool_invariant_to_cluster_order():
    from grembed.multiscale import CoarseningMap, coarsen

    g = erdos_renyi(10, 0.4, seed=1)
    z = np.random.default_rng(2).normal(size=(10, 4))

    def shuffled(graph):
        cm = coarsen(graph)
        k = cm.coarse.node_count
        perm = np.random.default_rng(5).permutation(k)
        # renumber clusters; coarse graph rebuilt to match
        new_map = perm[cm.node_map]
        ids = [None] * k
        for v, c in enumerate(new_map):
            if ids[c] is None:
                ids[c] = f"c{c}"
        pairs = []
        weights = []
        for (a, b), w in zip(cm.coarse.edge_pairs, cm.coarse.pair_weights):
            pairs.append((f"c{perm[int(a)]}", f"c{perm[int(b)]}"))
            weights.append(float(w))
        coarse = Graph.from_edges(pairs, weights=weights, node_ids=ids,
                                  weighted=True)
        return CoarseningMap(graph, coarse, new_map)

    a = coarsen_maxpool(g, z, levels=1)
    b = coarsen_maxpool(g, z, levels=1, cluster_fn=shuffled)
    assert np.allclose(np.sort(a), np.sort(b))
    assert np.allclose(a, b)


def test_supernode_pool_pendant_equivalence():
    g = path_graph(3)

    def encoder(graph):
        return edge_message_encode(graph, EdgeMessageParams(
            1, 4, 4, rounds=1, seed=3))

    z = supernode_pool(g, SubgraphSpec(g, [1]), encoder)
    # manual pendant: same graph plus one extra node tied to node 1
    aug = Graph.from_edges([("0", "1"), ("1", "2"), ("1", "p")])
    table = encoder(aug)
    assert np.allclose(z, table.vectors[table.node_ids.index("p")])


def test_supernode_pool_preserves_original_edges():
    g = cycle_graph(5)
    seen = {}

    def encoder(graph):
        seen["g"] = graph
        return edge_message_encode(graph, EdgeMessageParams(
            1, 3, 3, rounds=0, seed=1))

    supernode_pool(g, SubgraphSpec(g, [0, 2]), encoder)
    aug = seen["g"]
    assert aug.node_count == 6
    original = {(g.node_ids[a], g.node_ids[b]) for a, b in g.edge_pairs}
    kept = {(aug.node_ids[a], aug.node_ids[b]) for a, b in aug.edge_pairs
            if not aug.node_ids[a].startswith("__super__")
            and not aug.node_ids[b].startswith("__super__")}
    assert kept == original


def test_edge_message_round_zero_ignores_structure():
    g1 = path_graph(4)
    g2 = cycle_graph(4)
    params = EdgeMessageParams(1, 3, 3, rounds=0, seed=2)
    x = np.full((4, 1), 0.5)
    a = edge_message_tensors(g1, params, x).data
    b = edge_message_tensors(g2, params, x).data
    assert np.allclose(a, b)


def test_edge_message_identity_activation_is_affine():
    # with no rounds every edge state is zero, so the readout is x @ W + b
    g = path_graph(3)
    params = EdgeMessageParams(1, 2, 2, rounds=0, seed=4,
                               activation="identity")
    x = np.array([[0.3], [-0.8], [0.5]])
    got = edge_message_tensors(g, params, x).data
    expect = x @ params.node_w.data[:1] + params.node_b.data
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-15)


def test_edge_message_hand_unrolled_three_node_path():
    # path a-b-c: the state of edge (b,a) aggregates b's other incoming
    # state, i.e. the edge (c,b); edge (a,b) has nothing to aggregate
    g = path_graph(3)
    params = EdgeMessageParams(1, 2, 2, rounds=2, seed=4, activation="tanh")
    x = np.array([[0.3], [-0.8], [0.5]])
    got = edge_message_tensors(g, params, x).data

    we = [w.data for w in params.edge_w]
    be = [b.data for b in params.edge_b]
    wv, bv = params.node_w.data, params.node_b.data
    eta = {}
    for rnd in range(2):
        new = {}
        for (i, j) in [(0, 1), (1, 0), (1, 2), (2, 1)]:
            agg = np.zeros(2)
            for l in g.neighbors(i):
                if l == j:
                    continue
                if rnd > 0:
                    agg = agg + eta[(l, i)]
            inp = np.concatenate([x[i], agg])[None, :]
            new[(i, j)] = np.tanh(inp @ we[rnd] + be[rnd]).reshape(-1)
        eta = new
    expect = np.zeros((3, 2))
    for v in range(3):
        out = np.zeros(2)
        for l in g.neighbors(v):
            out = out + eta[(v, l)]
        expect[v] = np.tanh(
            np.concatenate([x[v], out])[None, :] @ wv + bv).reshape(-1)
    assert np.allclose(got, expect, atol=1e-12)


def test_edge_message_permutation_equivariant():
    rng = np.random.default_rng(8)
    for trial in range(5):
        g = erdos_renyi(6, 0.5, seed=trial + 10)
        x = rng.normal(size=(6, 2))
        params = EdgeMessageParams(2, 4, 3, rounds=2, seed=trial)
        base = edge_message_tensors(g, params, x).data
        perm = rng.permutation(6)
        pairs = [(str(perm[int(a)]), str(perm[int(b)]))
                 for a, b in g.edge_pairs]
        ids = [str(i) for i in range(6)]
        h = Graph.from_edges(pairs, node_ids=ids)
        x2 = np.empty_like(x)
        x2[perm] = x
        out = edge_message_tensors(h, params, x2).data
        assert np.allclose(out[perm], base, atol=1e-9)


def test_edge_message_gradients_match_finite_differences():
    g = cycle_graph(5)
    params = EdgeMessageParams(1, 3, 3, rounds=2, seed=6)
    x = np.random.default_rng(1).normal(size=(5, 1))
    probe = np.random.default_rng(2).normal(size=(5, 3))

    def loss():
        h = edge_message_tensors(g, params, x)
        return ad.reduce_sum(ad.mul(h, ad.constant(probe)))

    assert ad.gradient_check(loss, params.tensors()) < 1e-5


def test_classify_cycles_vs_paths():
    specs = dataset_from_pairs(cycles_and_paths(60, 5, 8, seed=3))
    model, acc = classify_subgraphs(specs, rounds=2, epochs=200, seed=0,
                                    target_acc=0.95)
    assert acc >= 0.95
    preds = model.predict(specs[:10])
    truth = [s.label for s in specs[:10]]
    assert np.mean([p == t for p, t in zip(preds, truth)]) >= 0.9


def test_classify_rejects_single_class():
    specs = [SubgraphSpec(cycle_graph(5), label=1),
             SubgraphSpec(cycle_graph(6), label=1)]
    with pytest.raises(ValidationError):
        classify_subgraphs(specs)


def test_classifier_same_prediction_for_isomorphic_graphs():
    specs = dataset_from_pairs(cycles_and_paths(40, 5, 8, seed=5))
    model, _acc = classify_subgraphs(specs, rounds=2, epochs=60, seed=1)
    g = path_graph(6)
    perm = [3, 5, 0, 1, 4, 2]
    pairs = [(str(perm[int(a)]), str(perm[int(b)])) for a, b in g.edge_pairs]
    h = Graph.from_edges(pairs, node_ids=[str(i) for i in range(6)])
    sa = model.scores([SubgraphSpec(g)])
    sb = model.scores([SubgraphSpec(h)])
    assert np.allclose(sa, sb, atol=1e-9)


def test_constant_pooling_gives_majority_rate():
    specs = dataset_from_pairs(cycles_and_paths(30, 5, 8, seed=7))
    y = np.array([s.label for s in specs])
    majority = max(np.mean(y == 1), np.mean(y == 0))
    # zero embeddings make every pooled vector identical; the head can
    # then only predict one class
    scores = np.zeros((len(specs), 1))
    pred = (scores.reshape(-1) > 0).astype(int)
    acc = max((pred == y).mean(), 1 - (pred == y).mean())
    assert acc == pytest.approx(majority)


def test_pool_subgraph_dispatch():
    g = cycle_graph(4)
    z = np.random.default_rng(3).normal(size=(4, 2))
    spec = SubgraphSpec(g, [0, 1, 2])
    assert pool_subgraph(g, z, spec, PoolingKind("sum")).shape == (2,)
    assert pool_subgraph(g, z, spec, PoolingKind("fuzzy_histogram", bins=3)
                         ).shape == (6,)
    assert pool_subgraph(g, z, spec, PoolingKind("ordered_concat", m=2)
                         ).shape == (4,)
    assert pool_subgraph(g, z, spec, PoolingKind("coarsen_maxpool", levels=1)
                         ).shape == (2,)
    with pytest.raises(ContractError):
        pool_subgraph(g, z, spec, PoolingKind("supernode"))


def test_parse_multigraph_file():
    text = """#graph g1 0
a b
b c

#graph g2 1
x y 2.5
y z 1
z x 1
"""
    specs = parse_multigraph_file(io.StringIO(text))
    assert len(specs) == 2
    assert specs[0].label == "0"
    assert specs[0].graph.node_count == 3
    assert specs[1].label == "1"
    assert specs[1].graph.pair_weights.sum() == pytest.approx(4.5)
    assert np.array_equal(specs[1].nodes, [0, 1, 2])


def test_parse_multigraph_errors():
    with pytest.raises(EdgeListParseError):
        parse_multigraph_file(io.StringIO("a b\n"))
    with pytest.raises(EdgeListParseError):
        parse_multigraph_file(io.StringIO("#graph g1\na b\n"))
    with pytest.raises(EdgeListParseError):
        parse_multigraph_file(io.StringIO("#graph g1 0\na b x\n"))


@pytest.mark.parametrize("weight", ["-1", "nan", "inf"])
def test_parse_multigraph_rejects_bad_weight_with_line(weight):
    text = f"#graph g1 0\na b 1\nb c {weight}\n"
    with pytest.raises(EdgeListParseError) as e:
        parse_multigraph_file(io.StringIO(text))
    assert e.value.line_number == 3


def test_parse_multigraph_weight_column_consistent_per_block():
    with pytest.raises(EdgeListParseError) as e:
        parse_multigraph_file(io.StringIO("#graph g1 0\na b\nb c 2\n"))
    assert e.value.line_number == 3
    specs = parse_multigraph_file(
        io.StringIO("#graph g1 0\na b\n#graph g2 1\nx y 2\ny z 1\n"))
    assert [s.graph.weighted for s in specs] == [False, True]
    assert [s.graph.edge_count for s in specs] == [1, 2]


def test_parse_multigraph_rejects_edges_before_first_header():
    with pytest.raises(EdgeListParseError) as e:
        parse_multigraph_file(io.StringIO("a b\n#graph g1 0\nb c\n"))
    assert e.value.line_number == 2
