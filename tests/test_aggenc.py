import io

import numpy as np
import pytest

from grembed import autodiff as ad
from grembed import fixtures
from grembed.aggenc import (
    AggConfig,
    AggParams,
    _edge_arrays,
    _entry_coefficients,
    column_config,
    default_attributes,
    encode_all,
    encode_tensors,
    gcn_config,
    load_agg_checkpoint,
    predict_labels,
    sage_config,
    save_agg_checkpoint,
    train_supervised,
)
from grembed.errors import ContractError, ValidationError
from grembed.graph import Graph

import oracles


def node_features(g, m=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(g.node_count, m))


def test_config_validation():
    with pytest.raises(ContractError):
        AggConfig(dims=())
    with pytest.raises(ContractError):
        AggConfig(aggregator="lstm")
    with pytest.raises(ContractError):
        AggConfig(combiner="hadamard")
    with pytest.raises(ContractError):
        AggConfig(sym_norm=True, aggregator="mean")
    with pytest.raises(ContractError):
        AggConfig(neighbor_samples=0)


def test_parameter_count_independent_of_graph_size():
    cfg = sage_config((8, 4), seed=1)
    small = AggParams(3, cfg)
    # params are a function of dims alone; build again and compare
    again = AggParams(3, cfg)
    assert small.parameter_count() == again.parameter_count()
    expected = (3 + 3) * 8 + 8 + (8 + 8) * 4 + 4
    assert small.parameter_count() == expected


def test_gcn_matches_dense_oracle():
    g = fixtures.karate_club()[0]
    x = node_features(g, 5, seed=2)
    cfg = gcn_config((7,), activation="tanh", normalize=False, seed=3)
    params = AggParams(5, cfg)
    got = encode_tensors(g, params, x).data

    a = g.adjacency_matrix() + np.eye(g.node_count)
    deg = a.sum(axis=1)
    ahat = a / np.sqrt(deg)[:, None] / np.sqrt(deg)[None, :]
    w = params.layers[0]["w"].data
    b = params.layers[0]["b"].data
    expect = np.tanh(ahat @ x @ w + b)
    np.testing.assert_allclose(got, expect, atol=1e-10)


def test_mean_aggregator_matches_dense_oracle():
    g = fixtures.barbell_graph(4, 2)
    x = node_features(g, 4, seed=5)
    cfg = sage_config((6,), activation="tanh", normalize=False, seed=6)
    params = AggParams(4, cfg)
    got = encode_tensors(g, params, x).data

    n = g.node_count
    agg = np.zeros((n, 4))
    for v in range(n):
        nbrs = g.neighbors(v)
        if len(nbrs):
            agg[v] = x[nbrs].mean(axis=0)
    combined = np.concatenate([x, agg], axis=1)
    w = params.layers[0]["w"].data
    b = params.layers[0]["b"].data
    np.testing.assert_allclose(got, np.tanh(combined @ w + b), atol=1e-10)


def test_maxpool_aggregator_matches_dense_oracle():
    g = fixtures.cycle_graph(6)
    x = node_features(g, 3, seed=7)
    cfg = AggConfig(dims=(5,), aggregator="maxpool", combiner="concat",
                    activation="tanh", normalize=False, maxpool_hidden=4,
                    seed=8)
    params = AggParams(3, cfg)
    got = encode_tensors(g, params, x).data

    pw = params.layers[0]["pool_w"].data
    pb = params.layers[0]["pool_b"].data
    pooled = np.maximum(x @ pw + pb, 0.0)
    n = g.node_count
    agg = np.zeros((n, 4))
    for v in range(n):
        nbrs = g.neighbors(v)
        if len(nbrs):
            agg[v] = pooled[nbrs].max(axis=0)
    combined = np.concatenate([x, agg], axis=1)
    w = params.layers[0]["w"].data
    b = params.layers[0]["b"].data
    np.testing.assert_allclose(got, np.tanh(combined @ w + b), atol=1e-10)


def test_isolated_node_aggregates_zero_vector():
    from grembed.graph import Graph

    g = Graph.from_edges([(0, 1)], node_ids=["0", "1", "2"])
    x = np.ones((3, 2))
    cfg = sage_config((4,), activation="identity", normalize=False, seed=9)
    params = AggParams(2, cfg)
    got = encode_tensors(g, params, x).data
    w = params.layers[0]["w"].data
    b = params.layers[0]["b"].data
    expect_iso = np.concatenate([x[2], np.zeros(2)]) @ w + b.reshape(-1)
    np.testing.assert_allclose(got[2], expect_iso, atol=1e-12)


def test_normalize_produces_unit_rows():
    g = fixtures.karate_club()[0]
    cfg = sage_config((8, 8), seed=10)
    table = encode_all(g, cfg)
    norms = np.linalg.norm(table.vectors, axis=1)
    live = norms > 0
    np.testing.assert_allclose(norms[live], 1.0)
    assert table.metadata["depth"] == 2


def test_interpolation_gate_requires_matching_widths():
    with pytest.raises(ContractError):
        AggParams(3, column_config((5,), seed=1))
    params = AggParams(4, column_config((4, 4), seed=1))
    g = fixtures.cycle_graph(5)
    x = node_features(g, 4, seed=11)
    out = encode_tensors(g, params, x)
    assert out.data.shape == (5, 4)


def test_interpolation_identity_when_gate_closed():
    # force the gate bias very negative: output collapses to the input
    g = fixtures.cycle_graph(5)
    x = node_features(g, 3, seed=12)
    cfg = column_config((3,), normalize=False, seed=13)
    params = AggParams(3, cfg)
    params.layers[0]["gate_b"].data[:] = -50.0
    out = encode_tensors(g, params, x).data
    np.testing.assert_allclose(out, x, atol=1e-12)


def test_gradients_flow_through_every_variant():
    g = fixtures.barbell_graph(3, 2)
    x = node_features(g, 3, seed=14)
    probe = np.random.default_rng(15).normal(size=(g.node_count, 4))
    variants = [
        sage_config((4,), activation="tanh", seed=1),
        gcn_config((4,), activation="tanh", seed=2),
        AggConfig(dims=(4,), aggregator="maxpool", combiner="concat",
                  activation="tanh", maxpool_hidden=3, seed=3),
        AggConfig(dims=(3,), aggregator="mean", combiner="sum",
                  activation="sigmoid", seed=4),
        column_config((3,), seed=5),
    ]
    for cfg in variants:
        params = AggParams(3, cfg)
        p = probe[:, :cfg.dims[-1]]

        def loss():
            z = encode_tensors(g, params, x)
            return ad.reduce_sum(ad.mul(z, p))

        err = oracles.gradient_check(loss, params.tensors())
        assert err < 1e-5, f"{cfg.aggregator}/{cfg.combiner}: {err}"


def test_attribute_fallback_and_dim_check():
    g = fixtures.karate_club()[0]
    feats = default_attributes(g)
    assert feats.shape == (34, 1)
    assert feats.max() == 1.0
    cfg = sage_config((4,), seed=16)
    table = encode_all(g, cfg)
    assert table.vectors.shape == (34, 4)
    params = AggParams(1, cfg)
    with pytest.raises(ContractError):
        encode_tensors(g, params, np.ones((34, 3)))
    with pytest.raises(ValidationError):
        encode_tensors(g, params, np.ones((7, 1)))


def test_supervised_training_separates_blocks():
    g, labels = fixtures.stochastic_block_model([12, 12], 0.5, 0.05, seed=17)
    x = fixtures.block_attributes(labels, dim_per_block=2, noise=0.2,
                                  seed=18).T
    cfg = gcn_config((8, 8), seed=19)
    params, head, history = train_supervised(g, labels, cfg, x=x,
                                             epochs=120, lr=0.02)
    assert history[-1] < history[0]
    pred = predict_labels(g, params, head, x=x)
    assert (pred == labels).mean() >= 0.9


def test_joint_mode_combines_losses():
    g, labels = fixtures.stochastic_block_model([8, 8], 0.6, 0.05, seed=20)
    cfg = sage_config((6,), activation="tanh", seed=21)
    params, head, history = train_supervised(g, labels, cfg, mode="joint",
                                             sup_weight=2.0, epochs=30,
                                             lr=0.02)
    assert history[-1] < history[0]
    with pytest.raises(ContractError):
        train_supervised(g, labels, cfg, mode="distill")


def test_multiclass_head_uses_softmax():
    g, labels = fixtures.stochastic_block_model([6, 6, 6], 0.6, 0.05, seed=22)
    x = fixtures.block_attributes(labels, dim_per_block=2, noise=0.2, seed=23).T
    cfg = gcn_config((8,), seed=24)
    params, head, _ = train_supervised(g, labels, cfg, x=x, epochs=100, lr=0.03)
    theta, _b = head
    assert theta.data.shape[1] == 3
    pred = predict_labels(g, params, head, x=x)
    assert (pred == labels).mean() >= 0.85


def test_train_mask_restricts_supervision():
    g, labels = fixtures.stochastic_block_model([10, 10], 0.5, 0.05, seed=25)
    x = fixtures.block_attributes(labels, seed=26).T
    mask = np.zeros(g.node_count, dtype=bool)
    mask[::2] = True
    cfg = gcn_config((6,), seed=27)
    params, head, history = train_supervised(g, labels, cfg, x=x, epochs=80,
                                             lr=0.02, train_mask=mask)
    pred = predict_labels(g, params, head, x=x)
    assert (pred[~mask] == labels[~mask]).mean() >= 0.8


def test_neighbor_sampling_caps_fanout():
    g = fixtures.star_graph(10)
    x = node_features(g, 2, seed=28)
    cfg = sage_config((4,), neighbor_samples=3, seed=29)
    params = AggParams(2, cfg)
    from grembed.rng import derived_rng

    full = encode_tensors(g, params, x).data
    sampled = encode_tensors(g, params, x, rng=derived_rng(0, "s")).data
    # the hub aggregates 3 of 10 leaves when sampling is active
    assert not np.allclose(full[0], sampled[0])
    again = encode_tensors(g, params, x).data
    np.testing.assert_array_equal(full, again)


def test_checkpoint_round_trip_and_validation():
    g = fixtures.cycle_graph(7)
    x = node_features(g, 3, seed=30)
    cfg = sage_config((5, 4), activation="tanh", seed=31)
    params = AggParams(3, cfg)
    before = encode_tensors(g, params, x).data

    buf = io.StringIO()
    save_agg_checkpoint(buf, params)
    text = buf.getvalue()
    buf2 = io.StringIO()
    save_agg_checkpoint(buf2, params)
    assert buf2.getvalue() == text  # byte determinism

    loaded = load_agg_checkpoint(io.StringIO(text))
    after = encode_tensors(g, loaded, x).data
    np.testing.assert_array_equal(before, after)

    tampered = text.replace('"dims":[5,4]', '"dims":[5,3]')
    with pytest.raises(ContractError):
        load_agg_checkpoint(io.StringIO(tampered))


@pytest.mark.parametrize("aggregator,sym_norm", [
    ("mean", False), ("weighted_mean", False), ("weighted_mean", True)])
def test_entry_coefficients_match_add_at_bitwise(aggregator, sym_norm):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = fixtures.erdos_renyi(int(rng.integers(2, 25)), 0.3, seed=seed)
        g = Graph(g.node_ids, g.edge_pairs, rng.uniform(0.0, 3.0, g.edge_count))
        for self_loops, samples in ((False, None), (True, None), (True, 2)):
            config = AggConfig(aggregator=aggregator, sym_norm=sym_norm,
                               self_loops=self_loops, neighbor_samples=samples)
            src, dst, w = _edge_arrays(g, config, np.random.default_rng(seed))
            want = oracles.add_at_entry_coefficients(
                g.node_count, aggregator, sym_norm, src, dst, w)
            got = _entry_coefficients(g, config, src, dst, w)
            assert got.tobytes() == want.tobytes()
