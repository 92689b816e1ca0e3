import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grembed import fixtures
from grembed.errors import (
    ContractError,
    EdgeListParseError,
    ResourceLimitError,
    ValidationError,
)
from grembed.graph import (
    Graph,
    disjoint_union,
    edge_list_string,
    load_attributes,
    load_edge_list,
    load_labels,
)
from grembed.subgraph import parse_multigraph_file

import oracles


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


@st.composite
def _graphs(draw, self_loops=False):
    """Graphs from id pairs with duplicates, optional float weights."""
    n = draw(st.integers(2, 12))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: self_loops or p[0] != p[1]), min_size=1, max_size=25))
    weights = draw(st.none() | st.lists(
        st.floats(0.0, 1e3), min_size=len(pairs), max_size=len(pairs)))
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
    in both orientations; an edge's type is fixed by its endpoints."""
    n = draw(st.integers(2, 12))
    loops = draw(st.booleans())
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: loops or p[0] != p[1]), min_size=1, max_size=25))
    dups = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()),
                         max_size=15))
    pairs += [(v, u) if flip else (u, v) for (u, v), flip in dups]
    directed = draw(st.booleans())
    weights = draw(st.none() | st.lists(
        st.floats(0.0, 1e3), min_size=len(pairs), max_size=len(pairs)))
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
    edges, weights, directed, loops, types = case
    g = Graph.from_edges(edges, weights=weights, directed=directed,
                         allow_self_loops=loops, edge_types=types)
    want = oracles.row_unique_graph_arrays(edges, weights, directed, types)
    assert g.node_ids == want["node_ids"]
    for name in ("pair_types", "csr_types"):
        if types is None:
            assert getattr(g, name) is None
        else:
            np.testing.assert_array_equal(getattr(g, name), want[name])
    for name in ("edge_pairs", "pair_weights", "csr_offsets", "csr_targets",
                 "csr_weights"):
        got, ref = getattr(g, name), want[name]
        assert got.shape == ref.shape, name
        assert np.array_equal(got.view(np.int64), ref.view(np.int64)), name


@pytest.mark.parametrize("make", [
    lambda: fixtures.karate_club()[0],
    lambda: fixtures.stochastic_block_model((40, 40, 40), 0.2, 0.02, seed=3)[0],
])
def test_arc_slots_reverse_index_matches_dict(make):
    g = make()
    np.testing.assert_array_equal(g.arc_slots(g.csr_targets, g.csr_sources),
                                  oracles.reverse_arc_index_dict(g))


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


def test_adjacency_power_guards():
    g = fixtures.triangle()
    with pytest.raises(ContractError):
        g.adjacency_power(0)
    with pytest.raises(ResourceLimitError):
        g.adjacency_power(2, cap=2)


def test_hop_rings_match_floyd_warshall():
    g = fixtures.barbell_graph(4, 2)
    dist = oracles.floyd_warshall_hops(g.edge_pairs, g.node_count)
    for v in range(g.node_count):
        for k in range(5):
            expect = {j for j in range(g.node_count) if dist[v, j] == k}
            assert g.hop_ring(v, k) == expect
    assert g.hop_ring(0, 0) == {0}


def test_hop_ring_errors():
    g = fixtures.triangle()
    with pytest.raises(IndexError):
        g.hop_ring(7, 1)
    with pytest.raises(ContractError):
        g.hop_ring(0, -1)


def test_laplacian_properties():
    g = fixtures.karate_club()[0]
    lap = g.laplacian()
    np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(lap, lap.T)
    assert np.linalg.eigvalsh(lap).min() > -1e-9
    d = Graph.from_edges([(0, 1)], directed=True)
    with pytest.raises(ValidationError):
        d.laplacian()


def test_directed_graph_one_way_edges():
    g = Graph.from_edges([(0, 1), (1, 2)], directed=True)
    assert list(g.neighbors(g.index_of("0"))) == [g.index_of("1")]
    assert list(g.neighbors(g.index_of("2"))) == []


def test_weighted_degrees():
    g = Graph.from_edges([(0, 1), (0, 2)], weights=[1.5, 2.0])
    i = g.index_of("0")
    assert g.degrees()[i] == 2
    assert g.degrees(weighted=True)[i] == 3.5


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
    comp = u.connected_components()
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
        g.with_attributes(np.zeros((2, 5)))
    g2 = g.with_attributes(np.arange(6).reshape(2, 3))
    assert g2.attribute_rows().shape == (3, 2)


def test_immutability_of_buffers():
    g = fixtures.triangle()
    with pytest.raises(ValueError):
        g.csr_targets[0] = 9
    with pytest.raises(ValueError):
        g.pair_weights[0] = 9.0
