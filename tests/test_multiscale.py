from dataclasses import replace

import numpy as np
import pytest

from grembed import autodiff as ad
from grembed.errors import ContractError, NumericError, ValidationError
from grembed.fixtures import (
    cycle_graph,
    erdos_renyi,
    stochastic_block_model,
    two_layer_graphs,
)
from grembed.graph import Graph
from grembed.multiscale import (
    LayerHierarchy,
    coarsen,
    coarsen_chain,
    derive_layer_seed,
    harp_train,
    inter_layer_gap,
    load_hierarchy,
    ohmnet_loss,
    ohmnet_penalty,
    ohmnet_train,
)
from grembed.shallow import ShallowConfig, train_shallow


def test_coarsen_four_cycle_perfect_matching():
    g = cycle_graph(4)
    cm = coarsen(g)
    assert cm.coarse.node_count == 2
    assert cm.coarse.edge_pairs.shape[0] == 1
    assert cm.coarse.pair_weights[0] == pytest.approx(2.0)


def test_coarsen_edgeless_graph_is_identity():
    g = Graph.from_edges([], node_ids=["a", "b", "c"])
    cm = coarsen(g)
    assert cm.coarse.node_count == 3
    assert list(cm.coarse.node_ids) == ["a", "b", "c"]
    assert np.array_equal(cm.node_map, [0, 1, 2])


def test_coarsen_shrinks_random_graphs():
    for seed in range(10):
        g = erdos_renyi(20, 0.15, seed=seed)
        if 2.0 * g.edge_pairs.shape[0] / g.node_count < 2.0:
            continue
        cm = coarsen(g)
        assert cm.coarse.node_count <= int(np.ceil(g.node_count * 0.75))


def test_coarsen_weight_conservation():
    g = erdos_renyi(15, 0.3, seed=4)
    cm = coarsen(g)
    internal = 0.0
    for (a, b), w in zip(g.edge_pairs, g.pair_weights):
        if cm.node_map[a] == cm.node_map[b]:
            internal += w
    assert cm.coarse.pair_weights.sum() == pytest.approx(
        g.pair_weights.sum() - internal)


def test_coarsen_prefers_heavy_edges():
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")],
                         weights=[1.0, 9.0, 1.0], weighted=True)
    cm = coarsen(g)
    # the heavy middle edge must be matched first
    assert cm.node_map[g.node_ids.index("b")] == cm.node_map[
        g.node_ids.index("c")]


def test_coarsen_chain_stops_when_stuck():
    g = Graph.from_edges([], node_ids=["x", "y"])
    maps = coarsen_chain(g, 5)
    assert len(maps) == 1


def test_prolong_copies_supernode_rows():
    g = cycle_graph(4)
    cm = coarsen(g)
    coarse_vecs = np.array([[1.0, 2.0], [3.0, 4.0]])
    fine = cm.prolong(coarse_vecs)
    for v in range(4):
        assert np.array_equal(fine[v], coarse_vecs[cm.node_map[v]])


def test_harp_level_zero_matches_plain_training():
    g, _ = stochastic_block_model((8, 8), 0.6, 0.05, seed=1)
    cfg = ShallowConfig(dim=6, epochs=2, walk_length=8, walks_per_node=3,
                        window=2, seed=9)
    a = harp_train(g, "deepwalk", 0, cfg)
    b = train_shallow(g, "deepwalk", cfg)
    assert np.array_equal(a.vectors, b.vectors)


def test_harp_rejects_unknown_base():
    g = cycle_graph(4)
    with pytest.raises(ContractError):
        harp_train(g, "grarep", 1)


def test_harp_output_keyed_like_base(tmp_path):
    g, _ = stochastic_block_model((8, 8), 0.6, 0.05, seed=2)
    cfg = ShallowConfig(dim=4, epochs=2, walk_length=8, walks_per_node=3,
                        window=2, seed=3)
    table = harp_train(g, "deepwalk", 2, cfg)
    assert table.vectors.shape == (16, 4)
    assert table.node_ids == list(g.node_ids)
    assert table.method == "harp+deepwalk"


def test_ohmnet_penalty_zero_cases():
    ids = [["a", "b"], ["a", "b"]]
    za = ad.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    zb = ad.parameter(za.data.copy())
    with ad.Tape():
        pen = ohmnet_penalty([za, zb], ids, lam=5.0)
    assert pen.item() == pytest.approx(0.0)
    zb2 = ad.parameter(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with ad.Tape():
        pen = ohmnet_penalty([za, zb2], ids, lam=0.0)
    assert pen.item() == 0.0


def test_ohmnet_loss_reduces_to_base_sum():
    ids = [["a"], ["a"]]
    za = ad.parameter(np.array([[1.0, 0.0]]))
    zb = ad.parameter(np.array([[0.0, 1.0]]))
    la = ad.constant(np.array([[2.0]]))
    lb = ad.constant(np.array([[3.0]]))
    with ad.Tape():
        total = ohmnet_loss([la, lb], [za, zb], ids, lam=0.0)
    assert total.item() == pytest.approx(5.0)
    with ad.Tape():
        total = ohmnet_loss([la, lb], [za, zb], ids, lam=1.0)
    assert total.item() == pytest.approx(5.0 + 2.0)


def test_ohmnet_penalty_squared_vs_not():
    ids = [["a"], ["a"]]
    za = ad.parameter(np.array([[3.0, 4.0]]))
    zb = ad.parameter(np.array([[0.0, 0.0]]))
    with ad.Tape():
        sq = ohmnet_penalty([za, zb], ids, lam=1.0, squared=True)
    assert sq.item() == pytest.approx(25.0)
    with ad.Tape():
        lin = ohmnet_penalty([za, zb], ids, lam=1.0, squared=False)
    assert lin.item() == pytest.approx(5.0, abs=1e-6)


def test_ohmnet_missing_tied_node_raises():
    ids = [["a", "b"], ["a"]]
    za = ad.parameter(np.zeros((2, 2)))
    zb = ad.parameter(np.zeros((1, 2)))
    with pytest.raises(ValidationError):
        with ad.Tape():
            ohmnet_penalty([za, zb], ids, lam=1.0, shared=["a", "b"])


def test_ohmnet_single_layer_penalty_empty():
    ids = [["a", "b"]]
    z = ad.parameter(np.ones((2, 3)))
    with ad.Tape():
        pen = ohmnet_penalty([z], ids, lam=4.0)
    assert pen.item() == 0.0


def test_ohmnet_train_lambda_zero_is_independent():
    g1, g2 = two_layer_graphs(seed=2)
    cfg = ShallowConfig(dim=4, epochs=2, walk_length=8, walks_per_node=3,
                        window=2, seed=7)
    tied = ohmnet_train([g1, g2], lam=0.0, config=cfg)
    # independent runs: single layers trained alone share the per-layer
    # streams, so they must agree exactly with the lam=0 joint run
    alone1 = ohmnet_train([g1], lam=0.0, config=cfg)[0]
    assert np.array_equal(tied[0].vectors, alone1.vectors)


def test_ohmnet_layers_at_lambda_zero_are_deepwalk_negsamp():
    g1, g2 = two_layer_graphs(seed=2)
    cfg = ShallowConfig(dim=4, epochs=3, walk_length=8, walks_per_node=3,
                        window=2, batch_size=16, seed=7)
    tables = ohmnet_train([g1, g2], lam=0.0, config=cfg)
    for li, (g, table) in enumerate(zip((g1, g2), tables)):
        alone = train_shallow(g, "deepwalk", replace(
            cfg, seed=derive_layer_seed(cfg.seed, li), loss="negsamp"))
        assert np.array_equal(table.vectors.view(np.int64),
                              alone.vectors.view(np.int64))


def test_ohmnet_nonfinite_layer_step_names_layer_epoch_batch():
    g1, g2 = two_layer_graphs(seed=2)
    cfg = ShallowConfig(dim=4, epochs=2, walk_length=8, walks_per_node=3,
                        window=2, lr=1e300, seed=7)
    with pytest.raises(NumericError, match=r"^non-finite gradient in negsamp "
                       r"skip-gram, layer 0, epoch \d+, batch \d+$"):
        ohmnet_train([g1, g2], lam=0.0, config=cfg)


def test_ohmnet_edgeless_layer_is_named():
    g1, _ = two_layer_graphs(seed=2)
    empty = Graph.from_edges([], node_ids=list(g1.node_ids))
    with pytest.raises(ValidationError, match=r"layer 1\b"):
        ohmnet_train([g1, empty], lam=0.1)


@pytest.mark.parametrize("loss", ["softmax", "hsoftmax"])
def test_ohmnet_rejects_a_loss_it_does_not_take(loss):
    layers = two_layer_graphs(seed=2)
    cfg = ShallowConfig(dim=4, epochs=1, walk_length=6, walks_per_node=2,
                        window=2, seed=7)
    with pytest.raises(ContractError,
                       match=f"^ohmnet does not take the '{loss}' loss"):
        ohmnet_train(layers, config=replace(cfg, loss=loss))
    named = ohmnet_train(layers, config=replace(cfg, loss="negsamp"))
    for a, b in zip(named, ohmnet_train(layers, config=cfg)):
        assert np.array_equal(a.vectors.view(np.int64),
                              b.vectors.view(np.int64))


def test_ohmnet_train_large_lambda_shrinks_gap():
    g1, g2 = two_layer_graphs(seed=3)
    cfg = ShallowConfig(dim=4, epochs=3, walk_length=8, walks_per_node=3,
                        window=2, seed=11)
    loose = ohmnet_train([g1, g2], lam=0.0, config=cfg)
    tight = ohmnet_train([g1, g2], lam=10.0, config=cfg)
    assert inter_layer_gap(tight) < inter_layer_gap(loose)


def test_hierarchy_validation():
    g = cycle_graph(3)
    with pytest.raises(ValidationError):
        LayerHierarchy({"a": g}, {"a": "missing"})
    with pytest.raises(ValidationError):
        LayerHierarchy({"a": g, "b": g}, {"a": "b", "b": "a"})
    h = LayerHierarchy({"a": g, "b": g}, {"b": "a", "a": None})
    assert h.tied_index_pairs() == [(1, 0)]


def test_load_hierarchy(tmp_path):
    hpath = tmp_path / "h.tsv"
    hpath.write_text("root\t-\nchild\troot\n")
    e1 = tmp_path / "l1.edges"
    e1.write_text("a b\nb c\n")
    e2 = tmp_path / "l2.edges"
    e2.write_text("a b\n")
    h = load_hierarchy(hpath, {"root": e1, "child": e2})
    assert h.names == ["root", "child"]
    assert h.layers["root"].node_count == 3
    assert h.parent["child"] == "root"
    with pytest.raises(ValidationError):
        load_hierarchy(hpath, {"root": e1})
