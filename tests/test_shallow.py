import io
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import hierarchical_softmax_loss, softmax_cross_entropy_loss
from grembed import autodiff as ad
from grembed import fixtures, shallow
from grembed.errors import ContractError, NumericError, ValidationError
from grembed.graph import Graph, disjoint_union
from grembed.shallow import (
    METHODS,
    EmbeddingTable,
    HierarchicalSoftmaxTree,
    ShallowConfig,
    closed_form_factorization,
    gram_mse_loss,
    gram_residual,
    negative_sampling_loss,
    _hsoftmax_step,
    _init_table,
    _log_sigmoid_slope,
    _negsamp_step,
    _skipgram,
    _skipgram_train,
    _softmax_step,
    _sparse_sgd,
    _Workspace,
    train_shallow,
    unigram_noise,
    weighted_distance_loss,
)
from grembed.table import load_embedding
from grembed.walks import (
    WalkConfig,
    WalkCorpus,
    WalkPairs,
    extract_pairs,
    sample_uniform_walks,
)


def rnd(seed, *shape):
    return np.random.default_rng(seed).normal(size=shape)


# -- table ----------------------------------------------------------------


def test_table_shape_and_lookup():
    t = EmbeddingTable(rnd(0, 4, 3), ["a", "b", "c", "d"])
    assert t.dim == 3 and t.node_count == 4
    np.testing.assert_array_equal(t.vectors[t.node_ids.index("c")],
                                  t.vectors[2])


def test_table_save_load_round_trip():
    t = EmbeddingTable(rnd(1, 5, 2), [str(i) for i in range(5)])
    buf = io.StringIO()
    t.save(buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "node_id\t2"
    loaded = load_embedding(io.StringIO(text))
    np.testing.assert_array_equal(loaded.vectors, t.vectors)
    assert loaded.node_ids == t.node_ids
    buf2 = io.StringIO()
    t.save(buf2)
    assert buf2.getvalue() == text


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                1e-310, 1e308, -1e308, 1.7976931348623157e308]
_TEXT_IDS = st.text(st.characters(blacklist_categories=(
    "Cc", "Cs", "Zs", "Zl", "Zp")), min_size=1, max_size=8)
_NUMERIC_IDS = st.one_of(st.integers(-10**12, 10**12),
                         st.floats(allow_nan=False)).map(str)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.lists(st.one_of(_TEXT_IDS, _NUMERIC_IDS), min_size=1, max_size=6,
             unique=True),
    st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS),
                       st.floats(allow_nan=False, allow_infinity=False)),
             min_size=6 * d, max_size=6 * d),
    st.just(d))))
def test_save_load_round_trip_keeps_ids_and_bits(tmp_path_factory, case):
    ids, values, d = case
    vectors = np.array(values[:len(ids) * d]).reshape(len(ids), d)
    path = tmp_path_factory.mktemp("emb") / "z.tsv"
    EmbeddingTable(vectors, ids).save(str(path))
    loaded = load_embedding(str(path))
    assert loaded.node_ids == ids
    assert loaded.vectors.dtype == np.float64
    assert np.array_equal(loaded.vectors.view(np.int64),
                          vectors.view(np.int64))


# -- the dense gate ---------------------------------------------------------


def test_dense_scores_refuse_a_table_over_the_dense_cap(monkeypatch):
    # an n-row table's Gram residual is over an n x n matrix, gated like
    # a graph's dense matrices
    from grembed import graph
    from grembed.errors import ResourceLimitError
    z, s = rnd(1, 6, 2), rnd(2, 6, 6)
    monkeypatch.setattr(graph, "DENSE_NODE_CAP", 5)
    with pytest.raises(ResourceLimitError,
                       match="on 6 nodes exceeds DENSE_NODE_CAP = 5"):
        gram_residual(z, s)
    monkeypatch.setattr(graph, "DENSE_NODE_CAP", 6)
    assert gram_residual(z, s) == pytest.approx(((z @ z.T - s) ** 2).sum())


# -- losses vs hand-computed values ------------------------------------------


def test_weighted_distance_loss_matches_loop():
    z = rnd(6, 5, 3)
    pairs = np.array([[0, 1], [2, 4], [1, 1]])
    w = np.array([0.5, 2.0, 1.0])
    expect = sum(wk * ((z[i] - z[j]) ** 2).sum()
                 for (i, j), wk in zip(pairs, w))
    got = weighted_distance_loss(ad.constant(z), pairs, w).item()
    assert got == pytest.approx(expect)


def test_gram_mse_loss_matches_frobenius():
    z = rnd(7, 4, 2)
    s = rnd(8, 4, 4)
    expect = ((z @ z.T - s) ** 2).sum()
    assert gram_mse_loss(ad.constant(z), s).item() == pytest.approx(expect)
    assert gram_residual(z, s) == pytest.approx(expect)


def test_softmax_ce_loss_matches_loop():
    z = rnd(9, 5, 3)
    pairs = np.array([[0, 2], [3, 1]])
    expect = 0.0
    for i, j in pairs:
        logits = z @ z[i]
        logits -= logits.max()
        p = np.exp(logits) / np.exp(logits).sum()
        expect -= np.log(p[j])
    got = softmax_cross_entropy_loss(ad.constant(z), pairs).item()
    assert got == pytest.approx(expect)


def test_negative_sampling_loss_matches_loop():
    z = rnd(10, 6, 3)
    pairs = np.array([[0, 1], [2, 3]])
    negs = np.array([[4, 5], [0, 5]])

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    expect = 0.0
    for (i, j), row in zip(pairs, negs):
        expect -= np.log(sig(z[i] @ z[j]))
        for k in row:
            expect -= np.log(sig(-z[i] @ z[k]))
    got = negative_sampling_loss(ad.constant(z), pairs, negs).item()
    assert got == pytest.approx(expect)


def test_loss_gradients_check_out():
    z = ad.parameter(rnd(11, 5, 3) * 0.5)
    pairs = np.array([[0, 1], [2, 4], [3, 0]])
    w = np.array([1.0, 0.5, 2.0])
    assert oracles.gradient_check(
        lambda: weighted_distance_loss(z, pairs, w), [z]) < 1e-6
    s = rnd(12, 5, 5)
    assert oracles.gradient_check(lambda: gram_mse_loss(z, s), [z]) < 1e-6
    assert oracles.gradient_check(
        lambda: softmax_cross_entropy_loss(z, pairs), [z]) < 1e-6
    negs = np.array([[4, 2], [1, 3], [2, 2]])
    assert oracles.gradient_check(
        lambda: negative_sampling_loss(z, pairs, negs), [z]) < 1e-6


# -- hierarchical softmax -----------------------------------------------------


def test_tree_leaf_probabilities_sum_to_one():
    for n in (2, 3, 7, 12):
        tree = HierarchicalSoftmaxTree(np.arange(n, dtype=float) + 1.0)
        z = rnd(n, 4)
        w = rnd(n + 40, n - 1, 4)
        p = tree.leaf_probabilities(z, w)
        assert p.shape == (n,)
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)
        assert np.all(p > 0)


def assert_tree_equals_the_recursive_build(weights):
    tree = HierarchicalSoftmaxTree(weights)
    got = (tree.path_nodes, tree.path_signs, tree.path_mask)
    for a, b in zip(got, oracles.recursive_tree_paths(weights)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    assert tree.depth == got[0].shape[1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=2, max_size=300))
def test_tree_levels_equal_the_recursive_build(weights):
    # small integer weights, so that many leaves tie and the index
    # tie-break decides the order
    assert_tree_equals_the_recursive_build(weights)


@pytest.mark.parametrize("n", [1000, 1001, 1023, 1024, 1025, 4097])
def test_tree_levels_equal_the_recursive_build_at_size(n):
    assert_tree_equals_the_recursive_build(
        np.random.default_rng(n).pareto(2.0, n))


def test_tree_needs_two_leaves():
    with pytest.raises(ContractError):
        HierarchicalSoftmaxTree([1.0])


def test_hsoftmax_loss_matches_leaf_probabilities():
    n, d = 6, 3
    tree = HierarchicalSoftmaxTree(np.ones(n))
    z = rnd(20, n, d)
    w = rnd(21, n - 1, d)
    pairs = np.array([[0, 3], [2, 5], [4, 0]])
    expect = 0.0
    for i, j in pairs:
        expect -= np.log(tree.leaf_probabilities(z[i], w)[j])
    got = hierarchical_softmax_loss(
        ad.constant(z), ad.constant(w), pairs, tree).item()
    assert got == pytest.approx(expect)


def test_hsoftmax_gradient_checks_out():
    n, d = 5, 2
    tree = HierarchicalSoftmaxTree(np.arange(n, dtype=float) + 1.0)
    z = ad.parameter(rnd(22, n, d) * 0.5)
    w = ad.parameter(rnd(23, n - 1, d) * 0.5)
    pairs = np.array([[0, 1], [3, 4]])
    err = oracles.gradient_check(
        lambda: hierarchical_softmax_loss(z, w, pairs, tree), [z, w])
    assert err < 1e-6


def test_unigram_noise():
    p = unigram_noise([8.0, 0.0, 1.0], power=0.75)
    np.testing.assert_allclose(p.sum(), 1.0)
    assert p[1] == 0.0
    assert p[0] == pytest.approx(8 ** 0.75 / (8 ** 0.75 + 1.0))
    with pytest.raises(ContractError):
        unigram_noise([0.0, 0.0])


# -- closed form --------------------------------------------------------------


def test_closed_form_identity_recovers_exactly():
    t = closed_form_factorization(np.eye(2), 2)
    np.testing.assert_allclose(t.vectors @ t.vectors.T, np.eye(2), atol=1e-12)
    assert t.metadata["residual"] == pytest.approx(0.0, abs=1e-20)


def test_closed_form_psd_residual_is_tail_energy():
    rng = np.random.default_rng(31)
    b = rng.normal(size=(6, 6))
    s = b @ b.T
    lam = np.sort(np.linalg.eigvalsh(s))[::-1]
    for d in (1, 2, 4):
        t = closed_form_factorization(s, d)
        expect = float((lam[d:] ** 2).sum())
        assert gram_residual(t.vectors, s) == pytest.approx(expect, rel=1e-9)


def test_closed_form_indefinite_clamps():
    s = np.diag([3.0, 1.0, -2.0])
    t = closed_form_factorization(s, 3)
    assert t.metadata["clamped_eigenvalues"] == 1
    # optimum keeps the positive part only
    np.testing.assert_allclose(t.vectors @ t.vectors.T,
                               np.diag([3.0, 1.0, 0.0]), atol=1e-10)


def test_closed_form_validation():
    with pytest.raises(ContractError):
        closed_form_factorization(np.eye(3), 4)
    with pytest.raises(ContractError):
        closed_form_factorization(np.eye(3), 0)
    with pytest.raises(ValidationError):
        closed_form_factorization(np.array([[0.0, 1.0], [0.5, 0.0]]), 1)


def test_closed_form_deterministic_signs():
    s = fixtures.karate_club()[0].adjacency_matrix()
    a = closed_form_factorization(s, 3).vectors
    b = closed_form_factorization(s, 3).vectors
    np.testing.assert_array_equal(a, b)


# -- trainers -----------------------------------------------------------------


def small_config(**kw):
    base = dict(dim=4, epochs=3, walk_length=4, walks_per_node=3, window=2,
                batch_size=64, seed=5)
    base.update(kw)
    return ShallowConfig(**base)


def test_unknown_method_and_bad_dim():
    g = fixtures.triangle()
    with pytest.raises(ContractError):
        train_shallow(g, "svd_magic", small_config())
    with pytest.raises(ValidationError):
        train_shallow(g, "graph_factorization", small_config(dim=3))


def test_graph_factorization_closed_form_wins():
    for seed in (0, 1, 2):
        g = fixtures.erdos_renyi(10, 0.4, seed=seed)
        cfg = small_config(dim=3, epochs=400, lr=0.05)
        trained = train_shallow(g, "graph_factorization", cfg)
        a = g.adjacency_matrix()
        closed = closed_form_factorization(a, 3)
        assert gram_residual(closed.vectors, a) <= gram_residual(
            trained.vectors, a) + 1e-9


def test_gf_loss_history_decreases():
    g = fixtures.erdos_renyi(9, 0.5, seed=3)
    t = train_shallow(g, "graph_factorization", small_config(epochs=150))
    hist = t.metadata["loss_history"]
    assert hist[-1] < hist[0]


def _three_components():
    parts = [fixtures.karate_club()[0], fixtures.cycle_graph(9),
             fixtures.barbell_graph(4, 2)]
    return disjoint_union(parts)[0]


def _directed_er():
    er = fixtures.erdos_renyi(30, 0.15, seed=2)
    return Graph(er.node_ids, er.edge_pairs, directed=True)


@pytest.mark.parametrize("graph", [
    lambda: fixtures.karate_club()[0], _three_components, _directed_er],
    ids=["karate", "three-components", "directed"])
def test_laplacian_eigenmaps_is_the_spectral_optimum_and_whitens(graph):
    g = graph()
    t = train_shallow(g, "laplacian_eigenmaps", ShallowConfig(dim=4, seed=5))
    s = g.adjacency_matrix()
    pairs = np.argwhere(s > 0)
    weights = s[pairs[:, 0], pairs[:, 1]]

    def loss(z):
        return weighted_distance_loss(ad.constant(z), pairs, weights).item()

    z = t.vectors
    optimum = t.metadata["loss_history"][-1]
    assert optimum == pytest.approx(loss(z), rel=1e-9)
    np.testing.assert_allclose(z.mean(0), 0.0, atol=1e-12)
    cov = (z - z.mean(0)).T @ (z - z.mean(0)) / len(z)
    np.testing.assert_allclose(cov, np.eye(4), atol=1e-6)
    # any other zero-mean, unit-covariance table scores no lower
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.normal(size=z.shape)
        x -= x.mean(0)
        chol = np.linalg.cholesky(x.T @ x / len(x))
        assert loss(np.linalg.solve(chol, x.T).T) >= optimum * (1 - 1e-9)


def test_deepwalk_deterministic_and_improving():
    g = fixtures.karate_club()[0]
    cfg = small_config(dim=8, epochs=3)
    a = train_shallow(g, "deepwalk", cfg)
    b = train_shallow(g, "deepwalk", cfg)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    assert a.metadata["loss"] == "hsoftmax"
    hist = a.metadata["loss_history"]
    assert hist[-1] < hist[0]
    c = train_shallow(g, "deepwalk", small_config(dim=8, epochs=3, seed=6))
    assert not np.array_equal(a.vectors, c.vectors)


def test_node2vec_uses_negative_sampling():
    g = fixtures.karate_club()[0]
    # small_config's lr, divided by the batch of 64, leaves the loss flat and
    # its epoch order noise; at lr 5 it falls at every seed
    t = train_shallow(g, "node2vec", small_config(p=0.5, q=2.0, lr=5.0))
    assert t.metadata["loss"] == "negsamp"
    assert t.metadata["p"] == 0.5
    assert t.dim == 4
    hist = t.metadata["loss_history"]
    assert hist[-1] < hist[0]


def test_deepwalk_loss_override():
    g = fixtures.cycle_graph(8)
    t = train_shallow(g, "deepwalk", small_config(loss="negsamp"))
    assert t.metadata["loss"] == "negsamp"
    t2 = train_shallow(g, "deepwalk", small_config(loss="softmax", epochs=2))
    assert t2.metadata["loss"] == "softmax"


def test_grarep_block_structure():
    g = fixtures.karate_club()[0]
    t = train_shallow(g, "grarep", small_config(dim=6, power_max=4, epochs=30))
    assert t.dim == 6
    assert t.metadata["block_dims"] == [2, 2, 1, 1]
    with pytest.raises(ContractError):
        train_shallow(g, "grarep", small_config(dim=2, power_max=4))


def test_hope_uses_jaccard_by_default():
    g = fixtures.barbell_graph(4, 2)
    t = train_shallow(g, "hope", small_config(epochs=40))
    assert t.metadata["similarity_kind"] == "jaccard"
    assert t.dim == 4


def test_walklets_offsets_and_dims():
    g = fixtures.karate_club()[0]
    t = train_shallow(g, "walklets",
                      small_config(dim=6, offsets=(1, 3), epochs=2))
    assert t.dim == 6
    assert t.metadata["offsets"] == (1, 3)


def test_walklets_rejects_repeated_offsets():
    # a repeated offset would train a block equal to the first one's
    g = fixtures.karate_club()[0]
    with pytest.raises(ContractError, match=r"offsets repeat \[1, 3\]"):
        train_shallow(g, "walklets", small_config(
            dim=6, offsets=(1, 3, 2, 1, 3), epochs=1))


def test_line_variants_run_and_differ():
    g = fixtures.karate_club()[0]
    t1 = train_shallow(g, "line1", small_config(epochs=2))
    t2 = train_shallow(g, "line2", small_config(epochs=2))
    assert t1.metadata["order"] == 1 and t2.metadata["order"] == 2
    assert not np.array_equal(t1.vectors, t2.vectors)
    with pytest.raises(ContractError):
        train_shallow(g, "line1", small_config(loss="hsoftmax"))


def test_warm_start_initial_embeddings():
    g = fixtures.cycle_graph(10)
    cfg = small_config(dim=4, epochs=2)
    base = train_shallow(g, "deepwalk", cfg)
    warm = ShallowConfig(dim=4, epochs=2, walk_length=4, walks_per_node=3,
                         window=2, batch_size=64, seed=5,
                         initial=base.vectors)
    t = train_shallow(g, "deepwalk", warm)
    assert t.vectors.shape == base.vectors.shape
    bad = ShallowConfig(dim=4, initial=np.zeros((3, 4)))
    with pytest.raises(ContractError):
        train_shallow(g, "deepwalk", bad)


@pytest.mark.parametrize(
    "method", [m for m in METHODS if m != "laplacian_eigenmaps"])
def test_warm_start_honours_initial_in_every_method(method):
    g = fixtures.karate_club()[0]
    cfg = dict(dim=6, power_max=3, offsets=(1, 2, 3), epochs=2)
    a, b = (train_shallow(g, method, small_config(
        initial=rnd(s, g.node_count, 6) * 0.1, **cfg)) for s in (1, 2))
    assert not np.array_equal(a.vectors, b.vectors)
    # one (n, dim) array: a wider one is not cut down to the blocks
    with pytest.raises(ContractError, match="initial embeddings shape"):
        train_shallow(g, method, small_config(
            initial=np.zeros((g.node_count, 10)), **cfg))


def test_laplacian_eigenmaps_refuses_a_warm_start():
    # an exact solve has no start table to honour
    g = fixtures.karate_club()[0]
    with pytest.raises(ContractError,
                       match="^laplacian_eigenmaps .* takes no warm start"):
        train_shallow(g, "laplacian_eigenmaps", ShallowConfig(
            dim=4, seed=5, initial=rnd(1, g.node_count, 4)))


@pytest.mark.parametrize("setting", [dict(epochs=50), dict(lr=0.5),
                                     dict(epochs=1), dict(batch_size=64),
                                     dict(epochs=3, lr=1.0)])
def test_laplacian_eigenmaps_refuses_the_training_settings(setting):
    # an exact solve has no epochs, lr schedule or batches to honour
    g = fixtures.karate_club()[0]
    got = ", ".join(f"{k}={v!r}" for k, v in setting.items())
    with pytest.raises(ContractError, match=(
            "^laplacian_eigenmaps is solved exactly and takes no epochs, lr, "
            f"batch_size; got {re.escape(got)}$")):
        train_shallow(g, "laplacian_eigenmaps",
                      ShallowConfig(dim=4, **setting))
    t = train_shallow(g, "laplacian_eigenmaps", ShallowConfig(dim=4))
    assert "epochs" not in t.metadata


@pytest.mark.parametrize("method,loss", [
    ("laplacian_eigenmaps", "softmax"), ("graph_factorization", "softmax"),
    ("grarep", "softmax"), ("hope", "softmax"), ("hope", "negsamp"),
    ("line1", "softmax"), ("line2", "hsoftmax")])
def test_method_rejects_a_loss_it_does_not_take(method, loss):
    g = fixtures.karate_club()[0]
    with pytest.raises(ContractError,
                       match=f"^{method} does not take the '{loss}' loss"):
        train_shallow(g, method, small_config(loss=loss))


def test_readme_shallow_row_names_the_method_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md"
              ).read_text()
    row = next(line for line in readme.splitlines()
               if line.startswith("| `shallow`"))
    listed = row.split(":", 1)[1].split(";", 1)[0]
    assert tuple(re.findall(r"`(\w+)`", listed)) == METHODS


# -- fused skip-gram vs the tape oracle ----------------------------------------


def karate_skipgram_cases():
    g = fixtures.karate_club()[0]
    corpus = sample_uniform_walks(
        g, WalkConfig(length=6, walks_per_node=3, seed=3))
    walk_pairs = extract_pairs(corpus, 2)
    edge_pairs = np.concatenate([g.edge_pairs, g.edge_pairs[:, ::-1]])
    weights = np.random.default_rng(4).uniform(0.5, 2.0, len(edge_pairs))
    return g, {
        "deepwalk-hsoftmax": (walk_pairs, dict(loss_kind="hsoftmax")),
        "deepwalk-negsamp": (walk_pairs, dict(loss_kind="negsamp")),
        "deepwalk-softmax": (walk_pairs, dict(loss_kind="softmax")),
        "line1": (edge_pairs, dict(loss_kind="negsamp", pair_weights=weights,
                                   seed_tag="line1")),
        "line2": (edge_pairs, dict(loss_kind="negsamp", pair_weights=weights,
                                   context_table=True, seed_tag="line2")),
    }


@pytest.mark.parametrize("case", ["deepwalk-hsoftmax", "deepwalk-negsamp",
                                  "deepwalk-softmax", "line1", "line2"])
def test_fused_skipgram_matches_tape_oracle(case):
    g, cases = karate_skipgram_cases()
    pairs, kw = cases[case]
    cfg = small_config(dim=8, epochs=2, lr=2.0, seed=11)
    z, hist = _skipgram_train(g, pairs, cfg, **kw)
    z_tape, hist_tape = oracles.tape_skipgram_train(g, pairs, cfg, **kw)
    np.testing.assert_allclose(z, z_tape, atol=1e-10, rtol=0)
    np.testing.assert_allclose(hist, hist_tape, rtol=1e-12)
    # the run moved the table well beyond the tolerance
    assert np.abs(z - _init_table(g, 8, 11)).max() > 1e-3


@pytest.mark.parametrize("case,batch_size", [("line2", 64),
                                             ("deepwalk-hsoftmax", 5)])
def test_fused_step_leaves_untouched_rows_bitwise(case, batch_size):
    # both write z only at batch centers; hsoftmax needs a second batch,
    # as its zero-initialized tree vectors give z no gradient in the first
    g, cases = karate_skipgram_cases()
    pairs, kw = cases[case]
    pairs = pairs[:10]
    if "pair_weights" in kw:
        kw = dict(kw, pair_weights=kw["pair_weights"][:10])
    init = rnd(40, g.node_count, 4)
    cfg = small_config(epochs=1, lr=1.0, batch_size=batch_size)
    z, _ = _skipgram_train(g, pairs, cfg, init=init, **kw)
    touched = np.zeros(g.node_count, dtype=bool)
    touched[pairs[:, 0]] = True
    assert np.array_equal(z[~touched].view(np.uint64),
                          init[~touched].view(np.uint64))
    assert np.any(z[touched] != init[touched])


@pytest.mark.parametrize("loss_kind", ["hsoftmax", "negsamp", "softmax"])
def test_decoded_pairs_train_like_the_pair_array(loss_kind):
    # batches of 7 end a decode block of 224 pairs off the batch grid's end
    g = fixtures.karate_club()[0]
    corpus = sample_uniform_walks(
        g, WalkConfig(length=6, walks_per_node=3, seed=3))
    cfg = small_config(dim=8, epochs=2, lr=2.0, batch_size=7, seed=11)
    z, hist = _skipgram_train(g, WalkPairs(corpus, window=2), cfg, loss_kind)
    z_arr, hist_arr = _skipgram_train(g, extract_pairs(corpus, 2), cfg,
                                      loss_kind)
    assert np.array_equal(z.view(np.int64), z_arr.view(np.int64))
    assert hist == hist_arr


def test_skipgram_without_pairs_names_the_run():
    g = fixtures.karate_club()[0]
    empty = WalkCorpus(np.zeros((0, 5), dtype=np.int64), WalkConfig(length=4),
                       g.node_count)
    for pairs in (WalkPairs(empty, window=2), np.zeros((0, 2), dtype=np.int64)):
        with pytest.raises(ValidationError,
                           match="^no training pairs extracted for run x$"):
            _skipgram(g, pairs, small_config(), "negsamp", where="run x")


def test_skipgram_epoch_holds_under_8_bytes_per_pair():
    # one int32 shuffle index per pair; a (P, 2) int64 pair array and an
    # int64 permutation of it hold 24 bytes per pair
    g = fixtures.karate_club()[0]
    cfg = small_config(epochs=1, batch_size=256)
    peaks, counts = [], []
    # the first run also makes one-off allocations, so it only warms up
    for per_node in (2, 2, 8):
        corpus = sample_uniform_walks(
            g, WalkConfig(length=30, walks_per_node=per_node, seed=5))
        tracemalloc.start()
        try:
            pairs = WalkPairs(corpus, window=10)
            _, epoch = _skipgram(g, pairs, cfg, "negsamp")
            epoch(0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        counts.append(len(pairs))
    assert (peaks[2] - peaks[1]) / (counts[2] - counts[1]) < 8


@pytest.mark.parametrize("case", ["deepwalk-hsoftmax", "deepwalk-negsamp",
                                  "line2"])
def test_decode_block_size_leaves_the_run_bitwise(case, monkeypatch):
    # the keyed order and the noise draws are positional, so a block and
    # a noise slice of one batch read what a block of 32 and a slice of
    # 16 do; batches of 7 leave the last block and the last slice short
    # (2,244 pairs: 321 batches; 156 pairs: 23 batches)
    g, cases = karate_skipgram_cases()
    pairs, kw = cases[case]
    cfg = small_config(dim=8, epochs=2, lr=2.0, batch_size=7, seed=11)
    runs = []
    for blocks, noise in ((1, 1), (32, 16), (10, 5)):
        monkeypatch.setattr(shallow, "DECODE_BATCHES", blocks)
        monkeypatch.setattr(shallow, "NOISE_BATCHES", noise)
        runs.append(_skipgram_train(g, pairs, cfg, **kw))
    for z, hist in runs[1:]:
        assert np.array_equal(z.view(np.int64), runs[0][0].view(np.int64))
        assert hist == runs[0][1]


@pytest.mark.parametrize("loss_kind", ["negsamp", "hsoftmax"])
def test_skipgram_epoch_peak_does_not_grow_with_pairs(loss_kind):
    # an epoch holds one decode block's order and pairs and one slice's
    # noise draws; an index per pair would add 4 bytes per added pair
    g = fixtures.karate_club()[0]
    cfg = small_config(epochs=1, batch_size=64)
    peaks, counts = [], []
    # the first run also makes one-off allocations, so it only warms up
    for per_node, window in ((4, 5), (4, 5), (8, 5), (4, 10)):
        corpus = sample_uniform_walks(
            g, WalkConfig(length=30, walks_per_node=per_node, seed=5))
        pairs = WalkPairs(corpus, window=window)
        _, epoch = _skipgram(g, pairs, cfg, loss_kind)
        tracemalloc.start()
        try:
            epoch(0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        counts.append(len(pairs))
    for peak, count in zip(peaks[2:], counts[2:]):
        assert count > 1.8 * counts[1]
        assert peak - peaks[1] < 0.25 * (count - counts[1])


def test_negsamp_epoch_peak_stays_under_twelve_noise_slices():
    # 38,080 pairs in batches of 64: 18 full decode blocks. In units of
    # one slice's int64 noise draws, the epoch peaks at about 9.3, in a
    # block's decode; a slice's draw peaks at about 8.4 (the slice and
    # the one before, its counters, uniforms, picks, coins and aliases,
    # with the block's order and pairs). Drawing a whole block's noise
    # at once peaks at about 14.5.
    g = fixtures.karate_club()[0]
    cfg = small_config(epochs=1, batch_size=64)
    corpus = sample_uniform_walks(
        g, WalkConfig(length=30, walks_per_node=4, seed=5))
    pairs = WalkPairs(corpus, window=5)
    assert len(pairs) > 16 * shallow.DECODE_BATCHES * cfg.batch_size
    slice_bytes = 8 * shallow.NOISE_BATCHES * cfg.batch_size * cfg.negatives
    # the first run also makes one-off allocations, so it only warms up
    for _ in range(2):
        _, epoch = _skipgram(g, pairs, cfg, "negsamp")
        tracemalloc.start()
        try:
            epoch(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 12 * slice_bytes


def workspace(width, d, rows=64):
    """A _Workspace for a (width, d) table and updates of up to ``rows``
    rows, as a trainer hands _sparse_sgd."""
    return _Workspace((width, d), 1, rows, (0, 0))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4),
       st.lists(st.tuples(st.integers(1, 12), st.sampled_from((-1, 0, 1)),
                          st.integers(0, 30)), min_size=1, max_size=3),
       st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_sparse_sgd_matches_unique_oracle_bitwise(d, shapes, slack, seed):
    # one d per trainer, and an offset table with a row for every row of
    # the largest table, or wider by the slack; one call per table. Each
    # update is shorter than its table (possibly empty), as long, or
    # longer, so both the distinct-row write and the whole-table write run.
    rng = np.random.default_rng(seed)
    ws = workspace(max(n for n, _, _ in shapes) + slack, d)
    for n, side, extra in shapes:
        m = {-1: extra % n, 0: n, 1: n + 1 + extra}[side]
        rows = rng.integers(0, n, size=m)
        # spread exponents so that a changed summation order would show
        grad = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-8, 9, (m, 1))
        ours = rng.normal(size=(n, d))
        ref = ours.copy()
        _sparse_sgd(ours, rows, grad, 0.3, "x", ws)
        oracles.unique_sparse_sgd(ref, rows, grad, 0.3, "x")
        assert np.array_equal(ours.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("width,d,error", [(4, 3, IndexError),
                                           (5, 2, ValueError)])
def test_sparse_sgd_rejects_an_offset_table_that_does_not_fit(width, d, error):
    # five distinct rows of a six-row table of width 3: an offset table
    # too short for them, or of another d, raises before any write
    table = rnd(42, 6, 3)
    before = table.copy()
    with pytest.raises(error):
        _sparse_sgd(table, np.arange(5), rnd(43, 5, 3), 0.1, "x",
                    workspace(width, d))
    assert np.array_equal(table.view(np.int64), before.view(np.int64))


@pytest.mark.parametrize("bad", [
    np.nan, np.inf, pytest.param(np.finfo(np.float64).max, id="overflow")])
def test_sparse_sgd_nonfinite_last_table_writes_no_table(bad):
    # three 6-row tables stacked in one array, as a skip-gram run keeps z
    # and the tree or context vectors, each getting the same row pattern.
    # In the last table, entries 2 and 3 both write row 2, so two finite
    # maxima sum to inf; on the distinct-row write (15 rows into 18) and
    # the whole-table write (24 rows into 18)
    rng = np.random.default_rng(3)
    for rows in ([4, 0, 2, 2, 5], [4, 0, 2, 2, 5, 1, 1, 3]):
        rows = np.concatenate([np.array(rows) + 6 * t for t in range(3)])
        table = rng.normal(size=(18, 3))
        before = table.copy()
        grad = rng.normal(size=(len(rows), 3))
        last = 2 * len(rows) // 3
        grad[last + 2:last + 4, 1] = bad
        with pytest.raises(NumericError,
                           match=r"^non-finite gradient in test step$"):
            _sparse_sgd(table, rows, grad, 0.1, "test step",
                        workspace(18, 3))
        assert np.array_equal(table.view(np.int64), before.view(np.int64))


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def assert_same_step(got, want):
    (loss, rows, grad), (want_loss, want_rows, want_grad) = got, want
    assert bits(loss) == bits(want_loss)
    assert np.array_equal(rows, want_rows)
    assert grad.shape == want_grad.shape
    assert np.array_equal(bits(grad), bits(want_grad))


def spread(seed, *shape):
    # values across many binades, so that any change to the arithmetic
    # shows in the last bits
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) * 4.0 ** rng.integers(-6, 3, shape)


def test_hsoftmax_step_equals_the_masked_formula_bitwise():
    # 11 leaves: a ragged tree whose short paths end in zero mask entries
    n, d = 11, 5
    tree = HierarchicalSoftmaxTree(np.arange(n, dtype=float))
    assert (tree.path_mask == 0).any()
    params = np.concatenate([spread(44, n, d), spread(45, n - 1, d)])
    batch = np.random.default_rng(46).integers(0, n, size=(200, 2))
    ws = _Workspace.sized(params.shape, "hsoftmax", len(batch), tree.depth)
    assert_same_step(_hsoftmax_step(params, batch, tree, ws),
                     oracles.masked_hsoftmax_step(params, batch, tree))


@pytest.mark.parametrize("context", [False, True])
def test_negsamp_step_without_weights_equals_unit_weights_bitwise(context):
    n, d, b, k = 9, 4, 60, 3
    rng = np.random.default_rng(47)
    # with a context table its n rows follow z's in the one array
    params = spread(48, n, d)
    if context:
        params = np.concatenate([params, spread(49, n, d)])
    ctx = n if context else 0
    batch = rng.integers(0, n, size=(b, 2))
    negs = rng.integers(0, n, size=(b, k))
    ws, ws_ones = (_Workspace.sized(params.shape, "negsamp", b, k)
                   for _ in range(2))
    assert_same_step(_negsamp_step(params, ctx, batch, negs, ws),
                     _negsamp_step(params, ctx, batch, negs, ws_ones,
                                   np.ones(b)))


@pytest.mark.parametrize("loss_kind", ["hsoftmax", "negsamp", "negsamp-ctx",
                                       "softmax"])
def test_steps_in_one_workspace_equal_the_fresh_formulas_bitwise(loss_kind):
    # 60 pairs in batches of 7 through one workspace sized for 7: eight
    # full batches, then a ragged one of 4, each step equal to its oracle
    n, d, k, size = 11, 5, 3, 7
    rng = np.random.default_rng(51)
    pairs = rng.integers(0, n, size=(60, 2))
    noise = rng.integers(0, n, size=(60, k))
    weights = rng.uniform(0.5, 2.0, size=60)
    tree = HierarchicalSoftmaxTree(np.arange(n, dtype=float))
    rows = {"hsoftmax": 2 * n - 1, "negsamp-ctx": 2 * n}.get(loss_kind, n)
    params = spread(52, rows, d)
    kind, per_pair = loss_kind.split("-")[0], {"hsoftmax": tree.depth}
    ws = _Workspace.sized(params.shape, kind, size, per_pair.get(kind, k))
    for lo in range(0, len(pairs), size):
        batch = pairs[lo:lo + size]
        if kind == "hsoftmax":
            got = _hsoftmax_step(params, batch, tree, ws)
            want = oracles.masked_hsoftmax_step(params, batch, tree)
        elif kind == "softmax":
            got = _softmax_step(params, batch, ws)
            want = oracles.fresh_softmax_step(params, batch)
        else:
            ctx, w = (n, weights[lo:lo + size]) if loss_kind != kind \
                else (0, None)
            negs = noise[lo:lo + size]
            got = _negsamp_step(params, ctx, batch, negs, ws, w)
            want = oracles.fresh_negsamp_step(params, ctx, batch, negs, w)
        assert_same_step(got, want)


def test_warm_epoch_allocates_no_more_than_a_gather_and_its_sums():
    # an hsoftmax epoch's batches gather, form gradients and index their
    # updates in the run's workspace, so a warm epoch's peak stays below
    # one batch's gathered rows plus bincount's whole-table sums (at the
    # CLI's dim and batch). What peaks is the shuffle's decode block, about
    # 29 bytes per pair; allocating per batch, the epoch peaked at 6.2
    # times this bound
    g = fixtures.karate_club()[0]
    cfg = small_config(dim=16, epochs=2, batch_size=256)
    corpus = sample_uniform_walks(
        g, WalkConfig(length=30, walks_per_node=4, seed=5))
    _, epoch = _skipgram(g, WalkPairs(corpus, window=5), cfg, "hsoftmax")
    epoch(0)
    tracemalloc.start()
    try:
        epoch(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    depth = HierarchicalSoftmaxTree(g.degrees(weighted=True)).depth
    gather = 8 * cfg.batch_size * (1 + depth) * cfg.dim
    sums = 8 * (2 * g.node_count - 1) * cfg.dim
    assert peak < gather + sums


@pytest.mark.parametrize("bad", [-1, 34])
def test_out_of_range_pair_names_the_run_and_trains_nothing(bad):
    # karate has nodes 0..33: a pair naming -1 or 34 is refused before
    # any row is gathered, never clamped onto a real node; a pair array
    # when the run is set up, a decoded block before its first batch
    g = fixtures.karate_club()[0]
    message = r"^pair node index out of range \[0, 34\) in run x$"
    pairs = np.concatenate([g.edge_pairs, [[0, bad]], g.edge_pairs])
    walks = np.tile(np.arange(6), (4, 1))
    walks[2, 3] = bad
    corpus = WalkCorpus(walks, WalkConfig(length=5), g.node_count)
    init = rnd(53, g.node_count, 4)
    for loss_kind in ("negsamp", "hsoftmax", "softmax"):
        with pytest.raises(ValidationError, match=message):
            _skipgram(g, pairs, small_config(), loss_kind, where="run x")
        z, epoch = _skipgram(g, WalkPairs(corpus, window=2), small_config(),
                             loss_kind, init=init, where="run x")
        with pytest.raises(ValidationError, match=message):
            epoch(0)
        assert np.array_equal(z.view(np.int64), init.view(np.int64))


def test_log_sigmoid_slope_matches_the_branch_form():
    x = np.concatenate([spread(50, 400), [0.0, -0.0, 1e-300, -1e-300, 36.0,
                                          -36.0, 744.0, -744.0, 800.0,
                                          -800.0, np.inf, -np.inf, np.nan]])
    logsig, slope = _log_sigmoid_slope(x.copy(), np.empty_like(x),
                                       np.empty_like(x),
                                       np.empty(x.shape, dtype=bool))
    want, want_slope = oracles.branch_log_sigmoid_slope(x)
    # the same bits wherever log sigmoid is not 0; where it is (x above
    # about 745) only the sign of that zero may differ
    assert np.array_equal(bits(logsig[want != 0]), bits(want[want != 0]))
    np.testing.assert_array_equal(logsig, want)
    assert np.array_equal(bits(slope), bits(want_slope))


def test_nonfinite_gradient_names_loss_epoch_batch():
    g = fixtures.karate_club()[0]
    init = rnd(41, g.node_count, 4) * 0.1
    init[5, 2] = np.inf
    cfg = small_config(initial=init, batch_size=16)
    with pytest.raises(NumericError, match=r"^non-finite gradient in hsoftmax "
                       r"skip-gram, epoch 0, batch \d+$"):
        train_shallow(g, "deepwalk", cfg)
