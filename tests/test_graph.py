import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grembed import fixtures, graph
from grembed.errors import (
    ContractError,
    EdgeListParseError,
    ResourceLimitError,
    ValidationError,
)
from grembed.graph import (
    Graph,
    disjoint_union,
    eigh_columns,
    laplacian_of,
    load_attributes,
    load_edge_list,
    load_labels,
    window_search,
)
from grembed.shallow import ShallowConfig, train_shallow
from grembed.similarity import (
    KINDS,
    SimilaritySpec,
    build_similarity,
    jaccard_similarity,
    pmi_similarity,
    transition_matrix,
    walk_visit_distribution,
)
from grembed.structural import graphwave_signature, heat_wavelets
from grembed.subgraph import parse_multigraph_file

import oracles
from oracles import edge_list_string


def karate_path():
    import importlib.resources as resources

    return resources.files("grembed.data") / "karate.edges"


def test_karate_load_matches_file_scan():
    g, labels = fixtures.karate_club()
    degree, edges = oracles.scan_edge_file(str(karate_path()))
    assert g.node_count == len(degree) == 34
    assert g.edge_count == len(edges) == 78
    for nid, d in degree.items():
        assert g.degrees()[g.index_of(nid)] == d
    assert g.degrees()[g.index_of("0")] == 16
    assert labels.shape == (34,)
    assert sorted(np.bincount(labels)) == [17, 17]


def test_duplicate_edges_collapse_by_weight_sum():
    g = Graph.from_edges([(0, 1), (1, 0), (1, 2)])
    assert g.edge_count == 2
    i, j = g.index_of("0"), g.index_of("1")
    w = g.neighbor_weights(i)[list(g.neighbors(i)).index(j)]
    assert w == 2.0


@pytest.mark.parametrize("edges", [[(0, 1, 2.0)], [(0, 1), (2,)]])
def test_from_edges_rejects_an_edge_that_is_not_a_pair(edges):
    with pytest.raises(ValidationError, match=r"one \(u, v\) pair"):
        Graph.from_edges(edges)


def test_from_edges_reads_ids_of_any_type_as_their_str():
    as_str = Graph.from_edges([("2", "10"), ("10", "x")])
    for edges in ([(2, 10), (10, "x")],
                  [(np.int64(2), np.int32(10)), ("10", "x")]):
        g = Graph.from_edges(edges)
        assert g.node_ids == as_str.node_ids
        assert np.array_equal(g.edge_pairs, as_str.edge_pairs)


@given(st.permutations(["7", "07", "+7", "1", "1_000", "1000", "2"]))
def test_node_order_does_not_depend_on_id_order(ids):
    # ids of one integer value tie on it and are ordered as strings
    want = ["1", "2", "+7", "07", "7", "1000", "1_000"]
    edges = list(zip(ids, ids[1:]))
    assert Graph.from_edges(edges).node_ids == want
    text = "".join(f"{u} {v}\n" for u, v in edges)
    assert load_edge_list(io.StringIO(text)).node_ids == want


@given(st.one_of(
    st.lists(st.integers(-2**62, 2**62)).map(
        lambda v: np.array(v, dtype=np.int64)),          # pair keys
    st.lists(st.integers(0, 4)).map(
        lambda v: np.array(v, dtype=np.int64)),          # int labels
    st.lists(st.sampled_from(["", "a", "b", "ab", "9", "10"])).map(
        lambda v: np.array(v, dtype=str))))              # str labels
@example(np.array([], dtype=np.int64))
@example(np.array([], dtype=str))
def test_distinct_equals_np_unique(values):
    got, want = graph._distinct(values), np.unique(values)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_duplicate_edge_with_conflicting_types_rejected():
    with pytest.raises(ValidationError, match="conflicting types"):
        Graph.from_edges([(0, 1), (1, 2), (1, 0)], edge_types=[0, 1, 1])
    g = Graph.from_edges([(0, 1), (1, 2), (1, 0)], edge_types=[2, 1, 2])
    assert g.pair_types.tolist() == [2, 1]


def test_self_loop_rejected_unless_enabled():
    with pytest.raises(ValidationError):
        Graph.from_edges([(0, 0), (0, 1)])
    g = Graph.from_edges([(0, 0), (0, 1)], allow_self_loops=True)
    assert g.edge_count == 2
    assert list(g.neighbors(g.index_of("0"))).count(g.index_of("0")) == 1


def test_negative_weight_rejected():
    with pytest.raises(ValidationError):
        Graph.from_edges([(0, 1)], weights=[-1.0])


def test_parse_errors_carry_line_numbers():
    bad = io.StringIO("0 1\n0 2 extra tokens here\n")
    with pytest.raises(EdgeListParseError) as e:
        load_edge_list(bad)
    assert e.value.line_number == 2

    mixed = io.StringIO("0 1 2.0\n1 2\n")
    with pytest.raises(EdgeListParseError) as e:
        load_edge_list(mixed)
    assert e.value.line_number == 2

    with pytest.raises(EdgeListParseError):
        load_edge_list(io.StringIO("0 1 -3.0\n"))
    with pytest.raises(EdgeListParseError):
        load_edge_list(io.StringIO("# only comments\n"))


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e400", "abc", "-1"])
def test_bad_weight_fails_at_its_line(weight):
    text = f"0 1 1.5\n1 2 {weight}\n2 3 2\n"
    with pytest.raises(EdgeListParseError, match="weight") as e:
        load_edge_list(io.StringIO(text))
    assert e.value.line_number == 2
    with pytest.raises(EdgeListParseError, match="weight") as e:
        parse_multigraph_file(io.StringIO(f"#graph g0 x\n{text}"))
    assert e.value.line_number == 3


def test_comments_blank_lines_and_tabs():
    text = "# header\n\n0\t1\t1.5\n1\t2\t2.5\n"
    g = load_edge_list(io.StringIO(text))
    assert g.node_count == 3 and g.edge_count == 2
    assert g.weighted
    np.testing.assert_allclose(sorted(g.pair_weights), [1.5, 2.5])


def test_export_round_trip():
    g = Graph.from_edges([(2, 0), (0, 1)], weights=[0.5, 1.5])
    text = edge_list_string(g)
    g2 = load_edge_list(io.StringIO(text))
    assert edge_list_string(g2) == text
    assert g2.node_count == g.node_count


def test_weighted_means_some_weight_is_not_one():
    # a 3-column file whose weights are all 1 is the unweighted graph,
    # and exports as 2 columns
    ones = load_edge_list(io.StringIO("0 1 1.0\n1 2 1\n"))
    assert not ones.weighted
    assert edge_list_string(ones) == "0\t1\n1\t2\n"
    assert (oracles.graph_bits(load_edge_list(io.StringIO(
        edge_list_string(ones)))) == oracles.graph_bits(ones))
    assert Graph.from_edges([(0, 1), (1, 2)], weights=[1.0, 0.5]).weighted
    # duplicates sum to weight 2
    assert Graph.from_edges([(0, 1), (1, 0)]).weighted


@st.composite
def _graphs(draw, self_loops=False):
    """Graphs from id pairs with duplicates, optional float weights."""
    n = draw(st.integers(2, 12))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: self_loops or p[0] != p[1]), min_size=1, max_size=25))
    # -0.0 tells a sum from 0.0 apart from one that starts at the first
    # weight: -0.0 + -0.0 is -0.0, 0.0 + -0.0 + -0.0 is 0.0
    weights = draw(st.none() | st.lists(
        st.floats(0.0, 1e3) | st.just(-0.0), min_size=len(pairs),
        max_size=len(pairs)))
    prefix = draw(st.sampled_from(["", "n"]))  # numeric or text id order
    edges = [(f"{prefix}{u}", f"{prefix}{v}") for u, v in pairs]
    return Graph.from_edges(edges, weights=weights,
                            directed=draw(st.booleans()),
                            allow_self_loops=self_loops)


def _assert_same_graph(got, want):
    assert got.node_ids == want.node_ids
    assert got.directed == want.directed
    np.testing.assert_array_equal(got.edge_pairs, want.edge_pairs)
    np.testing.assert_array_equal(got.pair_weights, want.pair_weights)


@settings(max_examples=80, deadline=None)
@given(_graphs())
def test_exported_text_parses_back_to_the_same_graph(g):
    text = edge_list_string(g)
    _assert_same_graph(
        load_edge_list(io.StringIO(text), directed=g.directed), g)
    if not g.directed:
        (spec,) = parse_multigraph_file(io.StringIO(f"#graph g0 x\n{text}"))
        _assert_same_graph(spec.graph, g)


@settings(max_examples=80, deadline=None)
@given(_graphs(self_loops=True))
def test_csr_rows_sorted_symmetric_with_loops_once(g):
    n = g.node_count
    keys = g.csr_sources * n + g.csr_targets
    assert np.all(np.diff(keys) > 0)  # rows sorted, one slot per arc
    np.testing.assert_array_equal(
        g.csr_sources, np.repeat(np.arange(n), np.diff(g.csr_offsets)))
    loops = g.edge_pairs[:, 0] == g.edge_pairs[:, 1]
    assert np.sum(g.csr_sources == g.csr_targets) == loops.sum()
    assert len(keys) == (g.edge_count if g.directed
                         else 2 * g.edge_count - loops.sum())
    np.testing.assert_array_equal(g.arc_slots(g.csr_sources, g.csr_targets),
                                  np.arange(len(keys)))
    rev = g.arc_slots(g.csr_targets, g.csr_sources)
    if not g.directed:
        assert np.all(rev >= 0)
        np.testing.assert_array_equal(g.csr_weights[rev], g.csr_weights)
    arcs = np.zeros((n, n), dtype=bool)
    arcs[g.edge_pairs[:, 0], g.edge_pairs[:, 1]] = True
    if not g.directed:
        arcs |= arcs.T
    u, v = np.divmod(np.arange(n * n), n)
    np.testing.assert_array_equal(g.arc_slots(u, v) >= 0, arcs.ravel())


@st.composite
def _edge_lists(draw):
    """(edges, weights, directed, loops, edge types) with duplicates drawn
    in both orientations, in shuffled order; an edge's type is fixed by
    its endpoints."""
    n = draw(st.integers(2, 12))
    loops = draw(st.booleans())
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: loops or p[0] != p[1]), min_size=1, max_size=25))
    dups = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()),
                         max_size=15))
    pairs = draw(st.permutations(
        pairs + [(v, u) if flip else (u, v) for (u, v), flip in dups]))
    directed = draw(st.booleans())
    # -0.0 tells a sum from 0.0 apart from one that starts at the first
    # weight: -0.0 + -0.0 is -0.0, 0.0 + -0.0 + -0.0 is 0.0
    weights = draw(st.none() | st.lists(
        st.floats(0.0, 1e3) | st.just(-0.0), min_size=len(pairs),
        max_size=len(pairs)))
    kinds = draw(st.none() | st.lists(st.integers(0, 3), min_size=n * n,
                                      max_size=n * n))
    types = None
    if kinds is not None:
        keys = [(u, v) if directed else (min(u, v), max(u, v))
                for u, v in pairs]
        types = [kinds[u * n + v] for u, v in keys]
    prefix = draw(st.sampled_from(["", "n"]))  # numeric or text id order
    edges = [(f"{prefix}{u}", f"{prefix}{v}") for u, v in pairs]
    return edges, weights, directed, loops, types


@settings(max_examples=150, deadline=None)
@given(_edge_lists())
def test_keyed_dedupe_matches_row_unique_oracle(case):
    """from_edges on id pairs and the constructor on index pairs both
    give the oracle's arrays."""
    edges, weights, directed, loops, types = case
    want = oracles.row_unique_graph_arrays(edges, weights, directed, types)
    index = {nid: i for i, nid in enumerate(want["node_ids"])}
    direct = Graph(want["node_ids"], [(index[u], index[v]) for u, v in edges],
                   weights, directed=directed, edge_pair_types=types)
    for g in (Graph.from_edges(edges, weights=weights, directed=directed,
                               allow_self_loops=loops, edge_types=types),
              direct):
        assert g.node_ids == want["node_ids"]
        assert g.edge_count == want["edge_count"]
        for name in ("pair_types", "csr_types"):
            if types is None:
                assert getattr(g, name) is None
            else:
                np.testing.assert_array_equal(getattr(g, name), want[name])
        for name in ("edge_pairs", "pair_weights", "csr_offsets",
                     "csr_sources", "csr_targets", "csr_weights"):
            got, ref = getattr(g, name), want[name]
            assert got.shape == ref.shape, name
            assert np.array_equal(got.view(np.int64), ref.view(np.int64)), name


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_window_search_is_a_clipped_searchsorted(data):
    # rows of tied integers, empty rows included, each searched from its
    # start in a window that covers the longest row, then past the end
    rows = data.draw(st.lists(st.lists(st.integers(-3, 3), max_size=9),
                              min_size=1, max_size=6))
    values = np.sort(np.array(sum(rows, []), dtype=np.float64))
    steps = max(map(len, rows)).bit_length() + data.draw(st.integers(0, 1))
    width = (1 << steps) - 1
    padded = np.concatenate([values, np.full(width, np.inf)])
    starts = np.cumsum([0] + [len(r) for r in rows])
    lo = np.array(data.draw(st.lists(
        st.sampled_from(starts.tolist()) | st.integers(0, values.size),
        min_size=1, max_size=12)), dtype=np.int64)
    x = np.array(data.draw(st.lists(
        st.sampled_from([-4, -3, -0.5, 0, 1, 2.5, 3, 4]),
        min_size=lo.size, max_size=lo.size)), dtype=np.float64)
    before = lo.copy()
    for side in ("left", "right"):
        want = np.clip(np.searchsorted(padded, x, side), lo, lo + width)
        np.testing.assert_array_equal(
            window_search(padded, lo, x, steps, side), want)
    np.testing.assert_array_equal(lo, before)


def test_pad_rows_keeps_every_row_window_in_range():
    g = fixtures.star_graph(5)
    assert g.search_steps == 3
    values = np.arange(g.csr_targets.size, dtype=np.float64)
    padded = g.pad_rows(values.size, np.inf)
    padded[:values.size] = values
    np.testing.assert_array_equal(padded[:values.size], values)
    np.testing.assert_array_equal(padded[values.size:], np.full(8, np.inf))
    lo = g.csr_offsets[:-1]
    np.testing.assert_array_equal(
        window_search(padded, lo, np.full(lo.size, 1e9), g.search_steps),
        np.minimum(lo + 7, values.size))


@st.composite
def _arc_cases(draw):
    """(n, pairs, trailing isolated nodes, directed), self-loops allowed."""
    n = draw(st.integers(1, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          min_size=1, max_size=30))
    return n, pairs, draw(st.integers(0, 3)), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_arc_cases())
@example((2, [(0, 1)], 0, True))
@example((2, [(0, 1)], 0, False))
@example((1, [(0, 0)], 2, False))
@example((4, [(0, 1), (0, 2), (0, 3), (3, 3)], 1, True))
# a row followed by a row of smaller targets: a search that runs past
# row 0's end meets targets that restart low
@example((4, [(0, 3), (1, 0), (1, 1), (1, 2)], 0, True))
@example((4, [(0, 3), (1, 0), (1, 1), (1, 2)], 1, False))
# an empty row 0 whose window starts on row 1's target 0
@example((2, [(1, 0)], 0, True))
def test_arc_slots_match_brute_force_arc_set(case):
    n, pairs, extra, directed = case
    m = n + extra
    g = Graph.from_edges([(str(u), str(v)) for u, v in pairs],
                         directed=directed, allow_self_loops=True,
                         node_ids=[str(i) for i in range(m)])
    arcs = set(pairs) | (set() if directed else {(v, u) for u, v in pairs})
    src, dst = np.divmod(np.arange(m * m), m)
    for u, v, slot in zip(src.tolist(), dst.tolist(),
                          g.arc_slots(src, dst).tolist()):
        if (u, v) in arcs:
            assert (g.csr_sources[slot], g.csr_targets[slot]) == (u, v)
        else:
            assert slot == -1


@pytest.mark.parametrize("make", [
    lambda: fixtures.karate_club()[0],
    lambda: fixtures.stochastic_block_model((40, 40, 40), 0.2, 0.02, seed=3)[0],
])
def test_arc_slots_reverse_index_matches_dict(make):
    g = make()
    np.testing.assert_array_equal(g.arc_slots(g.csr_targets, g.csr_sources),
                                  oracles.reverse_arc_index_dict(g))


def test_directed_graph_holds_each_arc_once():
    # the complete directed graph on 600 nodes, the shape of one layer of
    # struc2vec's layered graph; the input is allocated before tracing
    n = 600
    u, v = np.divmod(np.arange(n * n), n)
    pairs = np.stack([u, v], axis=1)[u != v]
    ids = [str(i) for i in range(n)]
    tracemalloc.start()
    try:
        g = Graph(ids, pairs, directed=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m = n * (n - 1)
    assert g.edge_count == len(g.csr_targets) == m
    assert held / m <= 24
    assert peak / m <= 44


def test_edge_list_load_peaks_near_four_arrays_per_arc(tmp_path):
    # the weighted 4 x 500 SBM, each edge on one line in CSR order, as a
    # benchmark input is written; the parse, the in-place id remap and
    # the build together peak at about 62 bytes per arc, of which the
    # graph keeps about 26
    g, _ = fixtures.stochastic_block_model((500,) * 4, 0.03, 0.001, seed=1)
    w = np.random.default_rng(1).integers(1, 6, size=g.edge_count)
    path = tmp_path / "sbm.edges"
    path.write_text("".join(f"{u}\t{v}\t{x}\n" for (u, v), x in
                            zip(g.edge_pairs.tolist(), w.tolist())))
    tracemalloc.start()
    try:
        loaded = load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = len(loaded.csr_targets)
    assert loaded.node_count == g.node_count and m == len(g.csr_targets)
    np.testing.assert_array_equal(loaded.pair_weights, w)
    assert peak / m <= 66


def test_numeric_id_ordering():
    g = Graph.from_edges([(10, 2), (2, 1)])
    assert g.node_ids == ["1", "2", "10"]


def test_adjacency_power_matches_triple_loop():
    g = fixtures.path_graph(3)
    a = g.adjacency_matrix()
    for k in (1, 2, 3):
        np.testing.assert_allclose(g.adjacency_power(k),
                                   oracles.matrix_power_loop(a, k))
    np.testing.assert_allclose(
        g.adjacency_power(2), [[1, 0, 1], [0, 2, 0], [1, 0, 1]])


def test_adjacency_power_guards(monkeypatch):
    g = fixtures.triangle()
    with pytest.raises(ContractError):
        g.adjacency_power(0)
    monkeypatch.setattr(graph, "DENSE_NODE_CAP", 2)
    with pytest.raises(ResourceLimitError):
        g.adjacency_power(2)


# every public builder of a dense n×n matrix from a graph
_DENSE_BUILDERS = {
    "adjacency_matrix": Graph.adjacency_matrix,
    "laplacian": Graph.laplacian,
    "adjacency_power": lambda g: g.adjacency_power(2),
    "transition_matrix": transition_matrix,
    "jaccard_similarity": jaccard_similarity,
    "walk_visit_distribution": lambda g: walk_visit_distribution(g, 0, 3),
    "pmi_similarity": lambda g: pmi_similarity(
        g, SimilaritySpec(kind="rw_pmi")),
    **{f"build_similarity-{kind}": lambda g, kind=kind: build_similarity(
        g, SimilaritySpec(kind=kind)) for kind in KINDS},
    "graphwave_signature": graphwave_signature,
    "heat_wavelets": heat_wavelets,
    # the full-softmax loss normalizes each pair over every node
    "train_shallow-softmax": lambda g: train_shallow(
        g, "deepwalk", ShallowConfig(dim=2, loss="softmax", epochs=1,
                                     walk_length=3, walks_per_node=1,
                                     window=2)),
}


@pytest.fixture(scope="module")
def over_cap_path():
    return fixtures.path_graph(graph.DENSE_NODE_CAP + 1)


@pytest.mark.parametrize("name", _DENSE_BUILDERS)
def test_dense_builder_refuses_above_cap_before_allocating(over_cap_path,
                                                           name):
    n, cap = graph.DENSE_NODE_CAP + 1, graph.DENSE_NODE_CAP
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError,
                           match=f"on {n} nodes exceeds DENSE_NODE_CAP = {cap}"):
            _DENSE_BUILDERS[name](over_cap_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dense_builders_read_a_monkeypatched_cap(monkeypatch):
    g = fixtures.triangle()
    monkeypatch.setattr(graph, "DENSE_NODE_CAP", 2)
    for build in _DENSE_BUILDERS.values():
        with pytest.raises(ResourceLimitError, match="on 3 nodes"):
            build(g)
    monkeypatch.setattr(graph, "DENSE_NODE_CAP", 3)
    for build in _DENSE_BUILDERS.values():
        build(g)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=4),
       st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       st.integers(0, 2 ** 32))
@example([1, 3, 1], 1.0, 0.0, 2)
def test_random_fixtures_match_the_scalar_double_loop(sizes, p_in, p_out,
                                                      seed):
    g, labels = fixtures.stochastic_block_model(sizes, p_in, p_out, seed)
    want, want_labels = oracles.loop_stochastic_block_model(
        sizes, p_in, p_out, seed)
    assert oracles.graph_bits(g) == oracles.graph_bits(want)
    assert labels.tobytes() == want_labels.tobytes()
    n = sum(sizes)
    if n > 1:
        assert (oracles.graph_bits(fixtures.erdos_renyi(n, p_in, seed))
                == oracles.graph_bits(oracles.loop_erdos_renyi(n, p_in, seed)))


def test_laplacian_properties():
    g = fixtures.karate_club()[0]
    lap = g.laplacian()
    np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(lap, lap.T)
    assert np.linalg.eigvalsh(lap).min() > -1e-9
    d = Graph.from_edges([(0, 1)], directed=True)
    with pytest.raises(ValidationError):
        d.laplacian()
    # a directed S enters as (S + S^T)/2
    np.testing.assert_array_equal(laplacian_of(d.adjacency_matrix()),
                                  0.5 * Graph.from_edges([(0, 1)]).laplacian())


@pytest.mark.parametrize("top", [True, False])
def test_eigh_columns_takes_one_end_and_signs_each_column(top):
    x = np.random.default_rng(3).normal(size=(9, 9))
    sym = x + x.T
    lam, u = eigh_columns(sym, 4, top=top)
    every = np.linalg.eigvalsh(sym)
    np.testing.assert_allclose(lam, every[::-1][:4] if top else every[:4])
    np.testing.assert_allclose(sym @ u, u * lam, atol=1e-12)
    for col in u.T:
        assert col[np.argmax(np.abs(col))] > 0


def test_directed_graph_one_way_edges():
    g = Graph.from_edges([(0, 1), (1, 2)], directed=True)
    assert list(g.neighbors(g.index_of("0"))) == [g.index_of("1")]
    assert list(g.neighbors(g.index_of("2"))) == []


def test_weighted_degrees():
    g = Graph.from_edges([(0, 1), (0, 2)], weights=[1.5, 2.0])
    i = g.index_of("0")
    assert g.degrees()[i] == 2
    assert g.degrees(weighted=True)[i] == 3.5


@settings(max_examples=60, deadline=None)
@given(_graphs(self_loops=True))
def test_weighted_degrees_and_adjacency_match_add_at_bitwise(g):
    deg = np.zeros(g.node_count)
    np.add.at(deg, g.csr_sources, g.csr_weights)
    assert g.degrees(weighted=True).tobytes() == deg.tobytes()
    a = np.zeros((g.node_count, g.node_count))
    np.add.at(a, (g.csr_sources, g.csr_targets), g.csr_weights)
    assert g.adjacency_matrix().tobytes() == a.tobytes()


@settings(max_examples=60, deadline=None)
@given(_graphs(self_loops=True), st.data())
def test_induced_subgraph_matches_rebuild_from_ids(g, data):
    nodes = data.draw(st.sets(st.integers(0, g.node_count - 1), min_size=1))
    keep = sorted(nodes)
    mask = np.isin(g.edge_pairs, keep).all(axis=1)
    want = Graph.from_edges(
        [(g.node_ids[a], g.node_ids[b]) for a, b in g.edge_pairs[mask]],
        weights=g.pair_weights[mask], directed=g.directed,
        allow_self_loops=True, node_ids=[g.node_ids[v] for v in keep])
    assert (oracles.graph_bits(g.induced_subgraph(nodes))
            == oracles.graph_bits(want))


def test_attribute_parsing():
    g = fixtures.triangle()
    text = "id,f1,f2\n0,1.0,2.0\n1,3.0,4.0\n2,5.0,6.0\n"
    x = load_attributes(io.StringIO(text), g)
    assert x.shape == (2, 3)
    np.testing.assert_allclose(x[:, g.index_of("1")], [3.0, 4.0])
    with pytest.raises(EdgeListParseError):
        load_attributes(io.StringIO("id,f1\n0,1.0\n9,2.0\n2,3.0\n"), g)
    with pytest.raises(EdgeListParseError):
        load_attributes(io.StringIO("id,f1\n0,1.0\n1,2.0\n"), g)


def test_attribute_parsing_refuses_a_repeated_id_with_both_lines():
    g = fixtures.triangle()
    text = "id,f1,f2\n0,1,2\n1,3,4\n0,9,2\n2,5,6\n"
    with pytest.raises(EdgeListParseError, match=r"line 4: duplicate node "
                       r"id '0' \(first on line 2\)"):
        load_attributes(io.StringIO(text), g)


def test_label_parsing():
    g = fixtures.triangle()
    labels, names = load_labels(io.StringIO("0\ta\n1\tb\n2\ta\n"), g)
    assert names == ["a", "b"]
    np.testing.assert_array_equal(
        labels[[g.index_of("0"), g.index_of("1"), g.index_of("2")]], [0, 1, 0])
    with pytest.raises(EdgeListParseError, match="first missing: '2'"):
        load_labels(io.StringIO("0\ta\n1\tb\n"), g)
    with pytest.raises(EdgeListParseError, match="line 2"):
        load_labels(io.StringIO("0\ta\n0\tb\n1\ta\n2\ta\n"), g)


def test_induced_subgraph():
    g = fixtures.cycle_graph(5)
    sub = g.induced_subgraph([0, 1, 2])
    assert sub.node_count == 3
    assert sub.edge_count == 2
    assert sub.node_ids == ["0", "1", "2"]


def test_disjoint_union_offsets_and_membership():
    a, b = fixtures.triangle(), fixtures.path_graph(4)
    u, offsets, member = disjoint_union([a, b])
    assert u.node_count == 7
    assert u.edge_count == a.edge_count + b.edge_count
    np.testing.assert_array_equal(offsets, [0, 3])
    np.testing.assert_array_equal(member, [0, 0, 0, 1, 1, 1, 1])
    comp = oracles.connected_components(u)
    assert comp[0] == comp[1] == comp[2]
    assert comp[3] == comp[4] and comp[0] != comp[3]


def test_bfs_distances_match_floyd_warshall():
    g = fixtures.grid_graph(3, 4)
    dist = oracles.floyd_warshall_hops(g.edge_pairs, g.node_count)
    for v in range(g.node_count):
        got = g.bfs_distances(v).astype(float)
        got[got == -1] = np.inf
        np.testing.assert_allclose(got, dist[v])


def test_attributes_shape_validated():
    g = fixtures.triangle()
    with pytest.raises(ValidationError):
        Graph(g.node_ids, g.edge_pairs, node_attributes=np.zeros((2, 5)))
    g2 = Graph(g.node_ids, g.edge_pairs,
               node_attributes=np.arange(6).reshape(2, 3))
    assert g2.attribute_rows().shape == (3, 2)


def test_immutability_of_buffers():
    g = fixtures.triangle()
    with pytest.raises(ValueError):
        g.csr_targets[0] = 9
    with pytest.raises(ValueError):
        g.pair_weights[0] = 9.0
