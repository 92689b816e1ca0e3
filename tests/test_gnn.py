import numpy as np
import pytest

from grembed import autodiff as ad
from grembed.errors import ContractError, ConvergenceError, ValidationError
from grembed.fixtures import cycle_graph, karate_club, star_graph
from grembed.gnn import (
    GruUpdate,
    LinearMessage,
    Mlp,
    MlpMessage,
    MlpUpdate,
    MpnnConfig,
    TypedLinearMessage,
    ggnn_forward,
    gnn_fixed_point,
    load_mpnn_checkpoint,
    mpnn_forward,
    mpnn_tensors,
    save_mpnn_checkpoint,
    spectral_norm,
)
from grembed.graph import Graph

import oracles


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(0)
    for _ in range(5):
        w = rng.normal(size=(6, 4))
        assert spectral_norm(w) == pytest.approx(np.linalg.svd(w)[1][0], rel=1e-8)


def test_spectral_norm_of_a_matrix_whose_rows_sum_to_zero():
    # such a matrix sends the all-ones vector to zero, the start a power
    # iteration from it cannot leave
    assert spectral_norm([[1.0, -1.0]]) == pytest.approx(np.sqrt(2.0))
    assert spectral_norm([[1.0, -1.0], [-1.0, 1.0]]) == pytest.approx(2.0)


def test_mlp_shapes_and_gradient():
    mlp = Mlp((3, 5, 2), seed=1)
    x = ad.constant(np.random.default_rng(3).normal(size=(4, 3)))
    out = mlp.apply(x)
    assert out.data.shape == (4, 2)

    probe = np.random.default_rng(4).normal(size=(4, 2))

    def loss():
        y = mlp.apply(ad.constant(x.data))
        return ad.reduce_sum(ad.mul(y, ad.constant(probe)))

    assert oracles.gradient_check(loss, mlp.tensors()) < 1e-6


def test_fixed_point_reaches_tolerance():
    g, _ = karate_club()
    table, info = gnn_fixed_point(g, hidden_dim=6, tol=1e-8,
                                  contraction_scale=0.5, seed=7)
    assert table.vectors.shape == (34, 6)
    assert info["residual"] < 1e-8
    assert info["iterations"] < 200
    # residual trace should be (eventually) decreasing under a contraction
    tail = info["trace"][2:]
    assert all(b <= a * 1.01 for a, b in zip(tail, tail[1:]))


def test_fixed_point_start_independent():
    g, _ = karate_club()
    kw = dict(hidden_dim=5, tol=1e-9, contraction_scale=0.5, seed=11)
    za, _ = gnn_fixed_point(g, init="zeros", **kw)
    zb, _ = gnn_fixed_point(g, init="random", **kw)
    gap = np.abs(za.vectors - zb.vectors).max()
    assert gap < 1e-8


def test_fixed_point_rescales_to_contraction():
    g = star_graph(9)
    mlp = Mlp((4 + 2, 8, 4), seed=3)
    # inflate the weights so the raw map cannot be a contraction
    for w, _b in mlp.layers:
        w.data = w.data * 50.0
    _table, info = gnn_fixed_point(g, hidden_dim=4, mlp=mlp, tol=1e-7,
                                   contraction_scale=0.5, seed=3)
    assert info["rescale_factor"] < 1.0
    max_deg = g.degrees().max()
    lip = np.prod([spectral_norm(w.data) for w, _b in mlp.layers])
    assert lip * max_deg <= 0.5 + 1e-9


def test_fixed_point_rescales_a_layer_whose_rows_sum_to_zero():
    g = star_graph(9)
    mlp = Mlp((2 + 2, 3, 2), seed=3)
    # powers of two, so that no rounding leaves the start a residue
    mlp.layers[-1][0].data = np.array([[16.0, -16.0], [32.0, -32.0],
                                       [-16.0, 16.0]])
    _table, info = gnn_fixed_point(g, hidden_dim=2, mlp=mlp, tol=1e-7,
                                   contraction_scale=0.5, seed=3)
    assert info["rescale_factor"] < 1.0
    lip = np.prod([np.linalg.svd(w.data)[1][0] for w, _b in mlp.layers])
    assert lip * g.degrees().max() <= 0.5 + 1e-9


def test_fixed_point_nonconvergent_raises():
    g = cycle_graph(6)
    with pytest.raises(ConvergenceError) as err:
        gnn_fixed_point(g, hidden_dim=4, tol=1e-14, max_iters=3,
                        contraction_scale=0.9, seed=1)
    assert err.value.residual > 0


def test_fixed_point_rejects_bad_scale():
    g = cycle_graph(4)
    with pytest.raises(ContractError):
        gnn_fixed_point(g, contraction_scale=1.5)


def test_attribute_width_must_fit_state():
    g = cycle_graph(4)
    x = np.ones((4, 9))
    with pytest.raises(ContractError):
        mpnn_forward(g, MpnnConfig(dim=3, rounds=1), x=x)


def test_ggnn_equals_mpnn_with_same_parts():
    g, _ = karate_club()
    dim, rounds, seed = 6, 4, 13
    config = MpnnConfig(dim=dim, rounds=rounds,
                        message=LinearMessage(dim, seed=seed),
                        update=GruUpdate(dim, seed=seed), seed=seed)
    a = ggnn_forward(g, dim=dim, rounds=rounds, seed=seed)
    b = mpnn_forward(g, config)
    assert np.array_equal(a.vectors, b.vectors)
    assert a.method == "ggnn"


def test_gru_carries_state_when_gate_saturates():
    dim = 3
    upd = GruUpdate(dim, seed=5)
    upd.bz.data = np.full((1, dim), 30.0)  # z ~= 1 -> h' ~= h
    h = ad.constant(np.random.default_rng(0).normal(size=(4, dim)))
    m = ad.constant(np.random.default_rng(1).normal(size=(4, dim)))
    out = upd.apply(h, m)
    assert np.allclose(out.data, h.data, atol=1e-10)


def test_mpnn_rounds_propagate_information():
    # on a path, a node's state can only feel nodes within k hops
    # after k rounds; perturbing a far endpoint must not change it
    ids = [str(i) for i in range(7)]
    pairs = [(ids[i], ids[i + 1]) for i in range(6)]
    g = Graph.from_edges(pairs)
    x = np.zeros((7, 2))
    x[0, 0] = 1.0
    x2 = x.copy()
    x2[6, 1] = 5.0  # perturb the far end
    config = MpnnConfig(dim=4, rounds=2, seed=2)
    a = mpnn_forward(g, config, x=x).vectors
    b = mpnn_forward(g, config, x=x2).vectors
    mid = 2  # node 2 is 4 hops from node 6, out of reach in 2 rounds
    assert np.array_equal(a[mid], b[mid])
    assert not np.array_equal(a[5], b[5])


def test_mpnn_gradients_flow_through_rounds():
    g = cycle_graph(5)
    config = MpnnConfig(dim=3, rounds=2,
                        message=MlpMessage(3, hidden=(6,), seed=8),
                        update=MlpUpdate(3, hidden=(6,), seed=9), seed=8)
    probe = np.random.default_rng(2).normal(size=(5, 3))

    def loss():
        h = mpnn_tensors(g, config)
        return ad.reduce_sum(ad.mul(h, ad.constant(probe)))

    assert oracles.gradient_check(loss, config.tensors()) < 1e-5


def test_typed_messages_respect_edge_types():
    ids = ["a", "b", "c"]
    pairs = [("a", "b"), ("b", "c")]
    types = [0, 1]
    g = Graph.from_edges(pairs).with_types(edge_types=types)
    msg = TypedLinearMessage(2, n_types=2, seed=4)
    msg.maps[0].data = np.eye(2)
    msg.maps[1].data = np.zeros((2, 2))
    h = ad.constant(np.arange(6, dtype=np.float64).reshape(3, 2))
    out = msg.compute(h, g.csr_targets, g.csr_sources,
                      edge_types=g.csr_types)
    # entries whose type maps to zero must vanish
    type_of = dict(zip(zip(g.csr_sources.tolist(), g.csr_targets.tolist()),
                       g.csr_types.tolist()))
    for k, (s, d) in enumerate(zip(g.csr_sources, g.csr_targets)):
        if type_of[(int(s), int(d))] == 1:
            assert np.all(out.data[k] == 0.0)
        else:
            assert np.array_equal(out.data[k], h.data[d])


def test_typed_message_without_types_raises():
    g = cycle_graph(4)
    msg = TypedLinearMessage(2, n_types=1)
    h = ad.constant(np.zeros((4, 2)))
    with pytest.raises(ValidationError):
        msg.compute(h, g.csr_targets, g.csr_sources, edge_types=None)


def test_checkpoint_roundtrip_restores_outputs(tmp_path):
    g, _ = karate_club()
    config = MpnnConfig(dim=5, rounds=3, seed=21)
    before = mpnn_forward(g, config).vectors
    path = tmp_path / "mp.json"
    save_mpnn_checkpoint(path, config)
    restored = load_mpnn_checkpoint(path)
    after = mpnn_forward(g, restored).vectors
    assert np.array_equal(before, after)


def test_checkpoint_roundtrip_rebuilds_each_part_class(tmp_path):
    # widths the classes' defaults do not have: the loader reads an
    # MLP's hidden widths and the edge type count from the saved shapes
    g = karate_club()[0]
    g = g.with_types(edge_types=np.arange(g.edge_count) % 3)
    for message, update in [
            (MlpMessage(8, hidden=(5,), seed=2), GruUpdate(8, seed=2)),
            (TypedLinearMessage(8, 3, seed=2), MlpUpdate(8, hidden=(4,))),
            (LinearMessage(8, seed=2), MlpUpdate(8, hidden=(6, 3), seed=2)),
            (MlpMessage(8, hidden=(), seed=2), MlpUpdate(8, hidden=()))]:
        config = MpnnConfig(dim=8, rounds=2, message=message, update=update,
                            seed=2)
        path = tmp_path / "mp.json"
        save_mpnn_checkpoint(path, config)
        restored = load_mpnn_checkpoint(path)
        assert type(restored.message) is type(message)
        assert type(restored.update) is type(update)
        assert mpnn_forward(g, restored).vectors.tobytes() == \
            mpnn_forward(g, config).vectors.tobytes()


def test_checkpoint_bytes_are_stable(tmp_path):
    config = MpnnConfig(dim=3, rounds=2, seed=5)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_mpnn_checkpoint(p1, config)
    save_mpnn_checkpoint(p2, config)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_wrong_kind(tmp_path):
    from grembed.aggenc import save_checkpoint

    path = tmp_path / "bad.json"
    save_checkpoint(path, "other", {}, {})
    with pytest.raises(ContractError):
        load_mpnn_checkpoint(path)
