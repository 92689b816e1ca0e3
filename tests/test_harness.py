import numpy as np
import pytest

import oracles
from grembed import autodiff as ad
from grembed.aggenc import cross_entropy_loss
from grembed.errors import ConfigError, ContractError, ValidationError
from grembed.fixtures import karate_club
from grembed.graph import Graph
from grembed.harness import (
    EvalReport,
    _logistic_grads,
    auc_score,
    clustering_eval,
    export_projection,
    holdout_edges,
    kmeans,
    link_prediction_eval,
    macro_f1,
    node_classification_eval,
    normalized_mutual_information,
    pca_project,
    predict_logistic,
    sample_non_edges,
    stratified_split,
    train_logistic,
)
from grembed.shallow import EmbeddingTable


def test_report_lines_have_header_and_no_wall_clock():
    rep = EvalReport("demo", {"x": 1.5}, {"x": [1.0, 2.0]},
                     {"seed": 3}, wall_clock=9.9)
    lines = rep.lines()
    assert lines[0] == "#version 1"
    assert "task\tdemo" in lines
    assert any(l.startswith("config.seed\t3") for l in lines)
    assert not any("9.9" in l or "wall" in l for l in lines)
    assert "9.9" in rep.summary()


def test_report_rejects_non_finite_metric():
    with pytest.raises(ValidationError):
        EvalReport("demo", {"x": float("nan")})


def test_stratified_split_proportions():
    labels = np.array([0] * 30 + [1] * 10)
    mask = stratified_split(labels, 0.3, seed=1)
    assert np.sum(mask[:30]) == 9
    assert np.sum(mask[30:]) == 3
    with pytest.raises(ValidationError):
        stratified_split(np.array([0, 0, 1]), 0.01, seed=1)


def test_logistic_separates_trivial_data():
    x = np.array([[-1.0], [-0.9], [1.0], [0.9]])
    y = np.array([0, 0, 1, 1])
    theta, bias = train_logistic(x, y, epochs=200)
    assert np.array_equal(predict_logistic(x, theta, bias), y)


def test_logistic_multiclass():
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 3.0], [3.0, 0.0], [-3.0, -3.0]])
    x = np.concatenate([c + 0.2 * rng.normal(size=(20, 2)) for c in centers])
    y = np.repeat([0, 1, 2], 20)
    theta, bias = train_logistic(x, y, epochs=300)
    assert (predict_logistic(x, theta, bias) == y).mean() >= 0.98


def _logistic_problem(seed, classes):
    """Overlapping Gaussian classes, so training does not saturate."""
    rng = np.random.default_rng(seed)
    y = np.arange(90) % classes
    x = rng.normal(size=(classes, 6))[y] + rng.normal(size=(90, 6))
    return x, y


@pytest.mark.parametrize("classes", [2, 3, 4, 7])
def test_logistic_closed_form_gradient_matches_tape(classes):
    x, y = _logistic_problem(classes, classes)
    rng = np.random.default_rng(10 + classes)
    cols = 1 if classes == 2 else classes
    theta = ad.parameter(rng.normal(size=(6, cols)))
    bias = ad.parameter(rng.normal(size=(1, cols)))
    with ad.Tape():
        ad.backward(cross_entropy_loss(ad.constant(x), theta, bias, y))
    g_theta, g_bias = _logistic_grads(x, y, theta.data, bias.data)
    np.testing.assert_allclose(g_theta, theta.grad, rtol=1e-12)
    np.testing.assert_allclose(g_bias, bias.grad, rtol=1e-12)


@pytest.mark.parametrize("classes", [2, 3, 5])
def test_logistic_training_predicts_as_tape_oracle(classes):
    x, y = _logistic_problem(20 + classes, classes)
    theta, bias = train_logistic(x, y, seed=classes)
    ref_theta, ref_bias = oracles.tape_train_logistic(x, y, seed=classes)
    assert np.array_equal(predict_logistic(x, theta, bias),
                          predict_logistic(x, ref_theta, ref_bias))
    np.testing.assert_allclose(theta, ref_theta, rtol=0, atol=1e-9)
    np.testing.assert_allclose(bias, ref_bias, rtol=0, atol=1e-9)


@pytest.mark.parametrize("classes", [2, 3, 5])
def test_stacked_logistic_fit_equals_per_seed_fits(classes):
    rng = np.random.default_rng(40 + classes)
    labels = np.arange(120) % classes
    z = rng.normal(size=(classes, 6))[labels] + rng.normal(size=(120, 6))
    seeds = [3, 0, 11, 7]
    rep = node_classification_eval(z, labels, train_fraction=0.3,
                                   seeds=seeds, epochs=60)
    masks = [stratified_split(labels, 0.3, s) for s in seeds]
    stack = np.array([np.nonzero(m)[0] for m in masks])
    thetas, biases = train_logistic(z[stack], labels[stack], epochs=60,
                                    seed=seeds)
    accs, f1s = [], []
    for k, (seed, mask) in enumerate(zip(seeds, masks)):
        theta, bias = train_logistic(z[mask], labels[mask], epochs=60,
                                     seed=seed)
        assert np.array_equal(thetas[k], theta)
        assert np.array_equal(biases[k], bias)
        pred = predict_logistic(z[~mask], theta, bias)
        accs.append(float((pred == labels[~mask]).mean()))
        f1s.append(macro_f1(labels[~mask], pred))
    assert rep.per_seed["accuracy"] == accs
    assert rep.per_seed["macro_f1"] == f1s


def test_stacked_logistic_fit_needs_one_seed_per_stack():
    x = np.zeros((2, 4, 3))
    with pytest.raises(ContractError, match="1 seeds for 2 stacked fits"):
        train_logistic(x, np.zeros((2, 4)), seed=[0])


def test_node_eval_separable_embeddings():
    z = np.array([[-1.0]] * 10 + [[1.0]] * 10)
    y = np.array([0] * 10 + [1] * 10)
    rep = node_classification_eval(z, y, train_fraction=0.3, seeds=range(3),
                                   epochs=150)
    assert rep.metrics["accuracy_mean"] == pytest.approx(1.0)
    assert len(rep.per_seed["accuracy"]) == 3


def test_node_eval_random_embeddings_near_chance():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(60, 4))
    y = np.array([0, 1] * 30)
    rep = node_classification_eval(z, y, train_fraction=0.5, seeds=range(10),
                                   epochs=80)
    assert abs(rep.metrics["accuracy_mean"] - 0.5) < 0.15


def test_auc_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        pos = rng.integers(0, 6, size=rng.integers(3, 30)).astype(float)
        neg = rng.integers(0, 6, size=rng.integers(3, 30)).astype(float)
        assert auc_score(pos, neg) == pytest.approx(
            oracles.auc_brute_force(pos, neg), abs=1e-12)


def test_auc_tied_ranks_match_loop_oracle():
    rng = np.random.default_rng(6)
    for trial in range(40):
        values = rng.integers(0, 1 + trial % 7, size=rng.integers(2, 200))
        scores = values.astype(float)
        if trial % 4 == 0:
            scores[rng.random(scores.size) < 0.2] = np.nan
        if trial % 5 == 0:
            scores[scores == 0] = -0.0
        cut = int(rng.integers(1, scores.size))
        pos, neg = scores[:cut], scores[cut:]
        got = auc_score(pos, neg)
        assert got == oracles.loop_auc_score(pos, neg)
        if not np.isnan(scores).any():
            assert got == pytest.approx(oracles.auc_brute_force(pos, neg),
                                        abs=1e-12)


def test_auc_extremes():
    assert auc_score([1.0, 1.0], [0.0, 0.0]) == 1.0
    assert auc_score([0.0], [1.0, 1.0]) == 0.0
    assert auc_score([0.5, 0.5], [0.5, 0.5]) == 0.5


def test_holdout_keeps_degrees_positive():
    g, _ = karate_club()
    held = holdout_edges(g, 0.2, seed=2)
    assert held.size == round(0.2 * g.edge_pairs.shape[0])
    deg = g.degrees().copy()
    for e in held:
        a, b = g.edge_pairs[e]
        deg[a] -= 1
        deg[b] -= 1
    assert deg.min() >= 1


def test_holdout_infeasible_raises():
    from grembed.fixtures import star_graph

    g = star_graph(4)  # every edge touches a leaf of degree 1
    with pytest.raises(ConfigError):
        holdout_edges(g, 0.5, seed=1)


def test_sample_non_edges_valid():
    g, _ = karate_club()
    pairs = sample_non_edges(g, 30, seed=3)
    existing = {(int(a), int(b)) for a, b in g.edge_pairs}
    seen = set()
    for a, b in pairs:
        assert a != b
        key = (min(a, b), max(a, b))
        assert key not in existing
        assert key not in seen
        seen.add(key)


def test_sample_non_edges_skips_both_directions_of_an_arc():
    arcs = [(i, (i + 1) % 10) for i in range(10)] + \
        [(i, (i + 3) % 10) for i in range(10)]
    g = Graph.from_edges(arcs, directed=True)
    either_way = {(int(a), int(b)) for a, b in g.edge_pairs}
    either_way |= {(b, a) for a, b in either_way}
    pairs = sample_non_edges(g, 20, seed=0)
    assert len(pairs) == 20
    assert not {(int(a), int(b)) for a, b in pairs} & either_way


def test_sample_non_edges_matches_loop_oracle():
    from grembed.fixtures import erdos_renyi

    rng = np.random.default_rng(8)
    for trial in range(12):
        n = int(rng.integers(5, 60))
        if trial % 3 == 0:
            g = erdos_renyi(n, 0.5, seed=trial)
        else:
            arcs = rng.integers(0, n, size=(int(rng.integers(1, 3 * n)), 2))
            arcs = arcs[arcs[:, 0] != arcs[:, 1]]
            g = Graph.from_edges([tuple(a) for a in arcs.tolist()],
                                 directed=bool(trial % 2))
        free = g.node_count * (g.node_count - 1) // 2 - g.edge_count
        count = int(rng.integers(1, max(2, free)))
        for seed in range(3):
            got = sample_non_edges(g, count, seed)
            assert got.dtype == np.int64
            assert np.array_equal(
                got, oracles.loop_sample_non_edges(g, count, seed))


def test_sample_non_edges_raises_on_a_complete_graph():
    g = Graph.from_edges([(a, b) for a in range(6) for b in range(a)])
    for sample in (sample_non_edges, oracles.loop_sample_non_edges):
        with pytest.raises(ConfigError, match="too dense"):
            sample(g, 3, seed=0)


def test_link_eval_with_oracle_scorer():
    g, _ = karate_club()

    held_lookup = {}

    def embed(residual, seed):
        kept = {(int(a), int(b)) for a, b in residual.edge_pairs}
        held_lookup[seed] = kept
        return EmbeddingTable(np.zeros((g.node_count, 2)),
                              list(g.node_ids), "stub")

    def perfect(z, pairs):
        # 1 for true edges of the full graph, 0 otherwise
        truth = {(int(a), int(b)) for a, b in g.edge_pairs}
        return np.array([1.0 if (min(a, b), max(a, b)) in truth else 0.0
                         for a, b in pairs])

    rep = link_prediction_eval(g, embed, 0.2, seeds=range(2),
                               score_fn=perfect)
    assert rep.metrics["auc_mean"] == 1.0

    def coin(z, pairs):
        return np.random.default_rng(0).random(len(pairs))

    rep = link_prediction_eval(g, embed, 0.2, seeds=range(5), score_fn=coin)
    assert abs(rep.metrics["auc_mean"] - 0.5) < 0.25


def _residuals(g, holdout, seeds):
    seen = []

    def embed(residual, seed):
        seen.append(residual)
        return np.ones((residual.node_count, 2))

    link_prediction_eval(g, embed, holdout, seeds=seeds)
    return seen


def test_link_residual_keeps_direction_and_other_arcs():
    arcs = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (0, 2)]
    g = Graph(["a", "b", "c", "d"], arcs, directed=True)
    for seed, residual in zip(range(3), _residuals(g, 0.2, range(3))):
        held = holdout_edges(g, 0.2, seed)
        keep = np.setdiff1d(np.arange(len(arcs)), held)
        assert residual.directed and not residual.weighted
        assert residual.node_ids == g.node_ids
        np.testing.assert_array_equal(residual.edge_pairs, g.edge_pairs[keep])
        assert residual.edge_count == len(arcs) - len(held)


def test_link_residual_matches_rebuild_from_ids():
    g, _ = karate_club()
    g = Graph(g.node_ids, g.edge_pairs, np.arange(1.0, g.edge_count + 1))
    for seed, residual in zip(range(2), _residuals(g, 0.2, range(2))):
        keep = np.setdiff1d(np.arange(g.edge_count),
                            holdout_edges(g, 0.2, seed))
        ref = Graph.from_edges(
            [(g.node_ids[a], g.node_ids[b]) for a, b in g.edge_pairs[keep]],
            weights=g.pair_weights[keep], node_ids=g.node_ids)
        for name in ("edge_pairs", "pair_weights", "csr_offsets",
                     "csr_targets", "csr_weights", "csr_sources"):
            np.testing.assert_array_equal(getattr(residual, name),
                                          getattr(ref, name))
        assert residual.weighted and not residual.directed


def test_kmeans_two_blobs():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(25, 2)) * 0.1 + [5.0, 0.0]
    b = rng.normal(size=(25, 2)) * 0.1 + [-5.0, 0.0]
    x = np.concatenate([a, b])
    labels, inertia = kmeans(x, 2, seed=0)
    truth = np.array([0] * 25 + [1] * 25)
    assert normalized_mutual_information(labels, truth) >= 0.99
    assert inertia < 10.0


def test_kmeans_k_bounds():
    with pytest.raises(ContractError):
        kmeans(np.zeros((3, 2)), 5)


def test_nmi_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.integers(0, 3, size=40)
        b = rng.integers(0, 4, size=40)
        assert normalized_mutual_information(a, b) == pytest.approx(
            oracles.nmi_from_counts(a, b), abs=1e-12)


def test_clustering_eval_onehot_labels():
    y = np.array([0, 0, 1, 1, 2, 2])
    z = np.eye(3)[y]
    rep = clustering_eval(z, y, k=3, seed=1)
    assert rep.metrics["nmi"] == pytest.approx(1.0)


def test_clustering_eval_identical_embeddings():
    y = np.array([0, 1, 0, 1])
    z = np.ones((4, 3))
    rep = clustering_eval(z, y, k=2, seed=1)
    assert rep.metrics["nmi"] == 0.0


def test_clustering_eval_two_blobs():
    rng = np.random.default_rng(4)
    y = np.array([0] * 20 + [1] * 20)
    z = np.where(y[:, None] == 0, [5.0, 0.0], [-5.0, 0.0]) \
        + 0.1 * rng.normal(size=(40, 2))
    rep = clustering_eval(z, y, k=2, seed=3)
    assert rep.metrics["nmi"] >= 0.95


def test_clustering_k_guards():
    z = np.zeros((4, 2))
    with pytest.raises(ContractError):
        clustering_eval(z, [0, 1, 0, 1], k=1)
    with pytest.raises(ContractError):
        clustering_eval(z, [0, 1, 0, 1], k=9)


def test_pca_preserves_2d_distances():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(15, 2))
    p = pca_project(z, dims=2)
    dz = np.linalg.norm(z[:, None] - z[None, :], axis=-1)
    dp = np.linalg.norm(p[:, None] - p[None, :], axis=-1)
    assert np.allclose(dz, dp, atol=1e-9)


def test_pca_rank_one_second_axis_zero():
    direction = np.array([1.0, 2.0, -1.0])
    t = np.linspace(-1, 1, 12)[:, None]
    z = t @ direction[None, :]
    p = pca_project(z, dims=2)
    assert np.allclose(p[:, 1], 0.0, atol=1e-9)


def test_pca_zero_variance_warns_and_zeros():
    z = np.ones((5, 3))
    with pytest.warns(UserWarning):
        p = pca_project(z, dims=2)
    assert np.all(p == 0)


def test_pca_sign_convention_stable():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(20, 5))
    a = pca_project(z, dims=2)
    b = pca_project(z * 1.0, dims=2)
    assert np.array_equal(a, b)


def test_macro_f1_perfect_and_half():
    y = np.array([0, 0, 1, 1])
    assert macro_f1(y, y) == 1.0
    assert macro_f1(y, np.array([0, 0, 0, 0])) == pytest.approx(
        (2 * 2 / (4 + 2 + 0) + 0.0) / 2)


def test_export_projection_format(tmp_path):
    z = np.random.default_rng(8).normal(size=(4, 3))
    out = tmp_path / "proj.tsv"
    export_projection(out, z, ["a", "b", "c", "d"])
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "node_id\tpc1\tpc2"
    assert len(lines) == 5
    assert lines[1].split("\t")[0] == "a"
