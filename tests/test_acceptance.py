"""Package-level acceptance checks.

Twelve end-to-end criteria covering gradients, sampling laws, fixture
experiments, structural invariants, and CLI determinism. Each test
prints one `ACCEPTANCE n: PASS` or `ACCEPTANCE n: FAIL` line so the
suite output doubles as a checklist.
"""

import time
from collections import defaultdict

import numpy as np
import pytest

from grembed import autodiff as ad
from grembed import cli, fixtures
from grembed.aggenc import AggConfig, AggParams, cross_entropy_loss, encode_tensors
from grembed.autoenc import (
    AutoencoderConfig,
    AutoencoderParams,
    _run_stack,
    train_autoencoder,
)
from grembed.fixtures import (
    barbell_graph,
    cycle_graph,
    cycles_and_paths,
    erdos_renyi,
    grid_graph,
    karate_club,
    path_graph,
    star_graph,
    stochastic_block_model,
    two_layer_graphs,
)
from grembed.gnn import Mlp, MpnnConfig, gnn_fixed_point, mpnn_tensors
from grembed.graph import Graph, export_edge_list
from grembed.harness import node_classification_eval, pca_project
from grembed.multiscale import harp_train, inter_layer_gap, ohmnet_loss, ohmnet_train
from grembed.shallow import (
    METHODS,
    HierarchicalSoftmaxTree,
    ShallowConfig,
    closed_form_factorization,
    gram_mse_loss,
    negative_sampling_loss,
    train_shallow,
    weighted_distance_loss,
)
from grembed.similarity import SimilaritySpec, build_similarity, walk_visit_distribution
from grembed.structural import (
    degree_refinement_classes,
    graphwave_signature,
    struc2vec_embed,
)
from grembed.subgraph import (
    EdgeMessageParams,
    SubgraphSpec,
    classify_subgraphs,
    edge_message_tensors,
)
from grembed.walks import (
    WalkConfig,
    sample_metapath_walks,
    sample_node2vec_walks,
    sample_uniform_walks,
)

import oracles
from oracles import hierarchical_softmax_loss, softmax_cross_entropy_loss


def verdict(n, ok, detail=""):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_graph(seed, n_lo=5, n_hi=10):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi + 1))
    for attempt in range(20):
        g = erdos_renyi(n, 0.5, seed=seed * 37 + attempt)
        if g.edge_count >= 2:
            return g, rng
    raise AssertionError("could not draw a graph with edges")


def _random_pairs(rng, n, count=12):
    a = rng.integers(0, n, size=count)
    shift = rng.integers(1, n, size=count)
    return np.stack([a, (a + shift) % n], axis=1).astype(np.int64)


# ---------------------------------------------------------------------
# 1. every differentiable loss agrees with finite differences
# ---------------------------------------------------------------------


def _grad_instances(family, i):
    """Return (loss_fn, params) for one random instance of a family."""
    g, rng = _random_graph(1000 * GRAD_FAMILIES.index(family) + i)
    n = g.node_count
    d = int(rng.integers(2, 5))
    pairs = _random_pairs(rng, n)
    z = ad.parameter(rng.normal(0.0, 0.3, size=(n, d)))

    if family == "distance":
        w = rng.uniform(0.2, 2.0, size=len(g.edge_pairs))
        ep = g.edge_pairs
        return (lambda: weighted_distance_loss(z, ep, w)), [z]

    if family == "factorization":
        target = g.adjacency_matrix()
        return (lambda: gram_mse_loss(z, target)), [z]

    if family == "softmax":
        return (lambda: softmax_cross_entropy_loss(z, pairs)), [z]

    if family == "negsamp":
        negs = rng.integers(0, n, size=(len(pairs), 3))
        return (lambda: negative_sampling_loss(z, pairs, negs)), [z]

    if family == "negsamp_context":
        ctx = ad.parameter(rng.normal(0.0, 0.3, size=(n, d)))
        negs = rng.integers(0, n, size=(len(pairs), 3))
        return (lambda: negative_sampling_loss(z, pairs, negs,
                                               context_t=ctx)), [z, ctx]

    if family == "hsoftmax":
        tree = HierarchicalSoftmaxTree(g.degrees(weighted=True) + 1.0)
        w = ad.parameter(rng.normal(0.0, 0.3, size=(tree.n_internal, d)))
        return (lambda: hierarchical_softmax_loss(z, w, pairs, tree)), [z, w]

    if family == "autoencoder":
        cfg = AutoencoderConfig(dim=2, hidden=(3,), seed=i)
        params = AutoencoderParams(n, cfg)
        s = g.adjacency_matrix()
        sp = np.argwhere(s > 0)
        sw = s[sp[:, 0], sp[:, 1]]
        rows = ad.constant(s)

        def loss_fn():
            enc = _run_stack(rows, params.enc, cfg.activation)
            rec = _run_stack(enc, params.dec, cfg.activation, last_linear=True)
            diff = ad.sub(rec, s)
            total = ad.reduce_sum(ad.mul(diff, diff))
            return ad.add(total, ad.scale(
                weighted_distance_loss(enc, sp, sw), 0.05))

        return loss_fn, params.tensors()

    if family == "layer_tying":
        zb = ad.parameter(rng.normal(0.0, 0.3, size=(n, d)))
        ids = [list(g.node_ids), list(g.node_ids)]
        pa, pb = pairs[:6], pairs[6:]
        na = rng.integers(0, n, size=(len(pa), 2))
        nb = rng.integers(0, n, size=(len(pb), 2))
        squared = bool(i % 2)

        def loss_fn():
            la = negative_sampling_loss(z, pa, na)
            lb = negative_sampling_loss(zb, pb, nb)
            return ohmnet_loss([la, lb], [z, zb], ids, lam=0.7,
                               squared=squared)

        return loss_fn, [z, zb]

    x = rng.normal(size=(n, 2))
    y = rng.integers(0, 2, size=n)

    if family == "neighborhood_agg":
        cfg = AggConfig(dims=(3,), seed=i)
        params = AggParams(2, cfg)
        width = encode_tensors(g, params, x).data.shape[1]
        theta = ad.parameter(rng.normal(0.0, 0.3, size=(width, 1)))
        bias = ad.parameter(np.zeros((1, 1)))

        def loss_fn():
            return cross_entropy_loss(encode_tensors(g, params, x),
                                      theta, bias, y)

        return loss_fn, params.tensors() + [theta, bias]

    if family == "message_passing":
        cfg = MpnnConfig(dim=3, rounds=2, seed=i)
        theta = ad.parameter(rng.normal(0.0, 0.3, size=(3, 1)))
        bias = ad.parameter(np.zeros((1, 1)))

        def loss_fn():
            return cross_entropy_loss(mpnn_tensors(g, cfg, x),
                                      theta, bias, y)

        return loss_fn, cfg.tensors() + [theta, bias]

    if family == "edge_state":
        params = EdgeMessageParams(2, 3, 3, rounds=2, seed=i)
        theta = ad.parameter(rng.normal(0.0, 0.3, size=(3, 1)))
        bias = ad.parameter(np.zeros((1, 1)))

        def loss_fn():
            return cross_entropy_loss(edge_message_tensors(g, params, x),
                                      theta, bias, y)

        return loss_fn, params.tensors() + [theta, bias]

    raise AssertionError(family)


GRAD_FAMILIES = (
    "distance", "factorization", "softmax", "negsamp", "negsamp_context",
    "hsoftmax", "autoencoder", "layer_tying", "neighborhood_agg",
    "message_passing", "edge_state",
)


def test_criterion_01_gradient_suite():
    start = time.perf_counter()
    worst = {}
    for family in GRAD_FAMILIES:
        errs = []
        for i in range(20):
            loss_fn, params = _grad_instances(family, i)
            errs.append(oracles.gradient_check(loss_fn, params))
        worst[family] = max(errs)
    elapsed = time.perf_counter() - start
    bad = {k: v for k, v in worst.items() if not v < 1e-5}
    verdict(1, not bad and elapsed < 60.0,
            f"max rel err {max(worst.values()):.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------
# 2. sampled walks follow the analytic transition law
# ---------------------------------------------------------------------


WALK_FIXTURES = (
    ("barbell", lambda: barbell_graph(3, 2)),
    ("path7", lambda: path_graph(7)),
    ("grid33", lambda: grid_graph(3, 3)),
)


def _per_start_tv(g, corpus, T):
    n = g.node_count
    visits = np.zeros((n, n))
    counts = np.zeros(n)
    for w in corpus.walks:
        counts[w[0]] += 1
        for x in w[1:]:
            visits[w[0], x] += 1
    worst = 0.0
    for v in range(n):
        if counts[v] == 0:
            continue
        emp = visits[v] / (counts[v] * T)
        law = walk_visit_distribution(g, v, T)
        worst = max(worst, 0.5 * float(np.abs(emp - law).sum()))
    return worst


def _typed_fixtures():
    alt4 = Graph.from_edges([(i, (i + 1) % 4) for i in range(4)],
                            node_types=[0, 1, 0, 1])
    alt6 = Graph.from_edges([(i, (i + 1) % 6) for i in range(6)],
                            node_types=[0, 1, 0, 1, 0, 1])
    hub = Graph.from_edges([(0, i) for i in range(1, 6)],
                           node_types=[0, 1, 1, 1, 1, 1])
    return [("alt4", alt4), ("alt6", alt6), ("hub", hub)]


def _metapath_tv(g, pattern, T, seed):
    n = g.node_count
    types = g.node_types
    starts = [v for v in range(n) if types[v] == pattern[0]]
    wpn = int(np.ceil(1e5 / len(starts)))
    corpus = sample_metapath_walks(
        g, WalkConfig(length=T, walks_per_node=wpn, metapath=pattern,
                      seed=seed))
    a = g.adjacency_matrix()
    L = len(pattern)
    worst = 0.0
    for v in starts:
        row = np.zeros(n)
        row[v] = 1.0
        acc = np.zeros(n)
        for t in range(1, T + 1):
            m = a * (types[None, :] == pattern[t % L])
            m = m / np.maximum(m.sum(axis=1, keepdims=True), 1e-300)
            row = row @ m
            acc += row
        law = acc / T
        visits = np.zeros(n)
        cnt = 0
        for w in corpus.walks:
            if w[0] != v:
                continue
            cnt += 1
            for x in w[1:]:
                visits[x] += 1
        emp = visits / (cnt * T)
        worst = max(worst, 0.5 * float(np.abs(emp - law).sum()))
    return worst


def test_criterion_02_walk_laws():
    T = 4
    worst_tv = 0.0
    for _name, make in WALK_FIXTURES:
        g = make()
        wpn = int(np.ceil(1e5 / g.node_count))
        uni = sample_uniform_walks(
            g, WalkConfig(length=T, walks_per_node=wpn, seed=11))
        worst_tv = max(worst_tv, _per_start_tv(g, uni, T))
        n2v = sample_node2vec_walks(
            g, WalkConfig(length=T, walks_per_node=wpn, p=1.0, q=1.0,
                          seed=12))
        worst_tv = max(worst_tv, _per_start_tv(g, n2v, T))
    for _name, g in _typed_fixtures():
        worst_tv = max(worst_tv, _metapath_tv(g, (0, 1), T, seed=13))

    # biased second-order chain: every conditional transition matches the
    # renormalized alpha weights to one percentage point
    g = barbell_graph(3, 2)
    n = g.node_count
    p, q = 1.0, 0.5
    corpus = sample_node2vec_walks(
        g, WalkConfig(length=10, walks_per_node=12500, p=p, q=q, seed=3))
    counts = defaultdict(lambda: defaultdict(int))
    for w in corpus.walks:
        for t in range(2, len(w)):
            counts[(w[t - 2], w[t - 1])][w[t]] += 1
    adj = [set(g.neighbors(v).tolist()) for v in range(n)]
    worst_step = 0.0
    for (prev, cur), nxt in counts.items():
        total = sum(nxt.values())
        if total < 1000:
            continue
        nbrs = g.neighbors(cur)
        ws = g.neighbor_weights(cur)
        alpha = np.array(
            [(1.0 / p) if x == prev else (1.0 if x in adj[prev] else 1.0 / q)
             for x in nbrs]) * ws
        alpha = alpha / alpha.sum()
        for x, a in zip(nbrs, alpha):
            worst_step = max(worst_step, abs(nxt.get(int(x), 0) / total - a))

    verdict(2, worst_tv < 0.02 and worst_step < 0.01,
            f"worst TV {worst_tv:.4f}, worst transition gap {worst_step:.4f}")


# ---------------------------------------------------------------------
# 3. homophilous vs structural walk bias on the barbell
# ---------------------------------------------------------------------


def test_criterion_03_exploration_contrast():
    g = barbell_graph(5, 3)
    n = g.node_count
    dist = np.stack([g.bfs_distances(v) for v in range(n)])
    wpn = int(np.ceil(10000 / n))
    wins = 0
    for s in range(10):
        disp = {}
        for q in (0.25, 4.0):
            cfg = WalkConfig(length=10, walks_per_node=wpn, p=1.0, q=q,
                             seed=s)
            corpus = sample_node2vec_walks(g, cfg)
            disp[q] = float(np.mean([dist[w[0], w[-1]] for w in corpus.walks]))
        wins += disp[0.25] > disp[4.0]
    verdict(3, wins == 10, f"outward bias won {wins}/10 seeds")


# ---------------------------------------------------------------------
# 4. community recovery on the karate club
# ---------------------------------------------------------------------


def test_criterion_04_community_recovery():
    start = time.perf_counter()
    g, labels = karate_club()
    cfg = ShallowConfig(dim=16, epochs=8, lr=0.25, walk_length=30,
                        walks_per_node=15, window=7, seed=42)
    table = train_shallow(g, "deepwalk", cfg)
    report = node_classification_eval(table.vectors, labels,
                                      train_fraction=0.1, seeds=range(10))
    acc = report.metrics["accuracy_mean"]

    proj = pca_project(table.vectors, 2)
    within, across = [], []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            d = float(np.linalg.norm(proj[i] - proj[j]))
            (within if labels[i] == labels[j] else across).append(d)
    separated = np.mean(within) < np.mean(across)
    elapsed = time.perf_counter() - start
    verdict(4, acc >= 0.90 and separated and elapsed < 30.0,
            f"acc {acc:.3f}, within {np.mean(within):.2f} < "
            f"across {np.mean(across):.2f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------
# 5. structural role discovery on the barbell
# ---------------------------------------------------------------------


def test_criterion_05_role_discovery():
    start = time.perf_counter()
    g = barbell_graph(5, 3)
    n = g.node_count

    mat = graphwave_signature(g).vectors
    classes = degree_refinement_classes(g)

    # automorphically equivalent nodes carry identical signatures
    worst_pair = 0.0
    for cls in set(classes):
        members = [v for v in range(n) if classes[v] == cls]
        for i in members:
            worst_pair = max(worst_pair, float(
                np.abs(mat[members] - mat[i]).max()))
    same_sig = worst_pair < 1e-8

    # grouping identical signatures reproduces the refinement classes
    groups = {}
    for v in range(n):
        for rep in groups:
            if np.abs(mat[v] - mat[rep]).max() < 1e-6:
                groups[rep].append(v)
                break
        else:
            groups[v] = [v]
    sig_label = np.zeros(n, dtype=int)
    for k, (rep, members) in enumerate(sorted(groups.items())):
        for v in members:
            sig_label[v] = k
    same_partition = all(
        (sig_label[i] == sig_label[j]) == (classes[i] == classes[j])
        for i in range(n) for j in range(n))

    clique = list(range(5)) + list(range(n - 5, n))
    path = [v for v in range(n) if v not in clique]
    wins = 0
    for s in range(10):
        tab = struc2vec_embed(g, seed=s, lr=0.25)
        z = tab.vectors / np.maximum(
            np.linalg.norm(tab.vectors, axis=1, keepdims=True), 1e-12)
        cos = z @ z.T
        intra = np.mean([cos[i, j] for grp in (clique, path)
                         for i in grp for j in grp if i != j])
        inter = np.mean([cos[i, j] for i in clique for j in path])
        wins += intra > inter
    elapsed = time.perf_counter() - start
    verdict(5, same_sig and same_partition and wins >= 8 and elapsed < 60.0,
            f"sig gap {worst_pair:.1e}, partition match {same_partition}, "
            f"role split {wins}/10, {elapsed:.1f}s")


# ---------------------------------------------------------------------
# 6. spectral optimum vs gradient-descent factorization
# ---------------------------------------------------------------------


def test_criterion_06_factorization_optimality():
    def residual(z, s):
        return float(((z @ z.T - s) ** 2).sum())

    all_leq = True
    close = 0
    ratios = []
    for i in range(10):
        n = 8 + (i % 5)
        g = erdos_renyi(n, 0.35, seed=100 + i)
        while g.edge_count < 2:
            g = erdos_renyi(n, 0.45, seed=1000 + i)
        s = build_similarity(g, SimilaritySpec(kind="adjacency"))
        rc = residual(closed_form_factorization(s, 3).vectors, s)
        table = train_shallow(
            g, "graph_factorization",
            ShallowConfig(dim=3, epochs=400, lr=0.05, seed=i))
        rs = residual(table.vectors, s)
        all_leq &= rc <= rs + 1e-9
        close += rs <= 1.1 * rc
        ratios.append(rs / rc)
    verdict(6, all_leq and close >= 8,
            f"closed-form never worse: {all_leq}, SGD within 10% on "
            f"{close}/10 (worst ratio {max(ratios):.3f})")


# ---------------------------------------------------------------------
# 7. contraction makes the fixed point start-independent
# ---------------------------------------------------------------------


def test_criterion_07_contraction_agreement():
    fixture_list = [path_graph(6), cycle_graph(7), star_graph(5),
                    grid_graph(2, 4), barbell_graph(3, 2)]
    tol = 1e-9
    worst = 0.0
    for k, g in enumerate(fixture_list):
        mlp = Mlp((4 + 2, 16, 4), seed=100 + k)
        za, info_a = gnn_fixed_point(g, hidden_dim=4, mlp=mlp, tol=tol,
                                     contraction_scale=0.7, init="random",
                                     seed=1)
        zb, info_b = gnn_fixed_point(g, hidden_dim=4, mlp=mlp, tol=tol,
                                     contraction_scale=0.7, init="random",
                                     seed=2)
        assert info_a["residual"] < tol and info_b["residual"] < tol
        worst = max(worst, float(np.abs(za.vectors - zb.vectors).max()))
    verdict(7, worst < 10 * tol, f"largest cross-start gap {worst:.2e}")


# ---------------------------------------------------------------------
# 8. node encoders commute with relabeling
# ---------------------------------------------------------------------


def _permuted(g, perm):
    ids = [str(i) for i in range(g.node_count)]
    pairs = [(str(perm[int(a)]), str(perm[int(b)])) for a, b in g.edge_pairs]
    return Graph.from_edges(pairs, node_ids=ids)


def test_criterion_08_equivariance():
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(10):
        g = erdos_renyi(8, 0.45, seed=trial + 40)
        if g.edge_count == 0:
            g = cycle_graph(8)
        x = rng.normal(size=(8, 2))
        perm = rng.permutation(8)
        gp = _permuted(g, perm)
        xp = np.empty_like(x)
        xp[perm] = x

        agg = AggParams(2, AggConfig(dims=(4,), seed=trial))
        base = encode_tensors(g, agg, x).data
        out = encode_tensors(gp, agg, xp).data
        worst = max(worst, float(np.abs(out[perm] - base).max()))

        cfg = MpnnConfig(dim=4, rounds=2, seed=trial)
        base = mpnn_tensors(g, cfg, x).data
        out = mpnn_tensors(gp, cfg, xp).data
        worst = max(worst, float(np.abs(out[perm] - base).max()))

        emp = EdgeMessageParams(2, 4, 3, rounds=2, seed=trial)
        base = edge_message_tensors(g, emp, x).data
        out = edge_message_tensors(gp, emp, xp).data
        worst = max(worst, float(np.abs(out[perm] - base).max()))
    verdict(8, worst < 1e-9, f"largest relabeling gap {worst:.2e}")


# ---------------------------------------------------------------------
# 9. cycles vs paths with the message-passing classifier
# ---------------------------------------------------------------------


def test_criterion_09_subgraph_classification():
    start = time.perf_counter()
    specs = [SubgraphSpec(g, label=lab)
             for g, lab in cycles_and_paths(200, 5, 8, seed=0)]
    wins = 0
    accs = []
    for s in range(10):
        _model, acc = classify_subgraphs(specs, rounds=2, epochs=200,
                                         seed=s, target_acc=0.95)
        accs.append(acc)
        wins += acc >= 0.95
    elapsed = time.perf_counter() - start
    verdict(9, wins >= 8 and elapsed < 120.0,
            f"{wins}/10 seeds reached 95% (min acc {min(accs):.3f}), "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------
# 10. tying penalty sweep on the two-layer fixture
# ---------------------------------------------------------------------


def test_criterion_10_layer_tying_sweep():
    ga, gb = two_layer_graphs(n=12, p=0.35, seed=0)
    medians = []
    for lam in (0.0, 0.1, 1.0, 10.0):
        gaps = []
        for s in range(5):
            cfg = ShallowConfig(dim=8, epochs=4, walk_length=10,
                                walks_per_node=5, window=3, seed=s)
            tables = ohmnet_train([ga, gb], lam=lam, config=cfg)
            gaps.append(inter_layer_gap(tables))
        medians.append(float(np.median(gaps)))
    monotone = all(b <= a + 1e-12 for a, b in zip(medians, medians[1:]))

    # with no tying the joint run must equal training each layer alone:
    # same layer slot, same streams, identical arrays
    cfg = ShallowConfig(dim=8, epochs=4, walk_length=10, walks_per_node=5,
                        window=3, seed=3)
    joint = ohmnet_train([ga, gb], lam=0.0, config=cfg)
    alone = ohmnet_train([ga], lam=0.0, config=cfg)[0]
    exact_a = np.array_equal(joint[0].vectors, alone.vectors)
    # layer content must not depend on who the partner was when lam=0
    gc = erdos_renyi(12, 0.4, seed=9)
    swapped = ohmnet_train([gc, gb], lam=0.0, config=cfg)
    exact_b = np.array_equal(joint[1].vectors, swapped[1].vectors)
    verdict(10, monotone and exact_a and exact_b,
            "gap medians " + " >= ".join(f"{m:.3f}" for m in medians)
            + f", no-tying exactness {exact_a and exact_b}")


# ---------------------------------------------------------------------
# 11. coarsen-then-train warm start is not worse than cold start
# ---------------------------------------------------------------------


def test_criterion_11_warm_start_pairing():
    g, _ = stochastic_block_model((16, 16), 0.35, 0.05, seed=5)
    wins = 0
    for s in range(10):
        cfg = ShallowConfig(dim=8, epochs=4, lr=0.25, walk_length=10,
                            walks_per_node=8, window=4, seed=s)
        plain = train_shallow(g, "deepwalk", cfg)
        warm = harp_train(g, "deepwalk", 1, cfg)
        wins += (warm.metadata["loss_history"][-1]
                 <= plain.metadata["loss_history"][-1])
    verdict(11, wins >= 7, f"warm start not worse in {wins}/10 paired seeds")


# ---------------------------------------------------------------------
# 12. every CLI command is byte-deterministic under a fixed seed
# ---------------------------------------------------------------------


def _cli_fixture_files(root):
    g, labels = karate_club()
    export_edge_list(g, str(root / "karate.edges"))
    with open(root / "karate.labels", "w") as fh:
        for i, nid in enumerate(g.node_ids):
            fh.write(f"{nid}\t{labels[i]}\n")
    with open(root / "karate.types", "w") as fh:
        for nid, deg in zip(g.node_ids, g.degrees()):
            fh.write(f"{nid}\t{'hub' if deg >= 5 else 'leaf'}\n")
    with open(root / "toy.graphs", "w") as fh:
        for i, (sg, lab) in enumerate(cycles_and_paths(10, 5, 7, seed=0)):
            fh.write(f"#graph g{i} {lab}\n")
            for (u, v) in sg.edge_pairs:
                fh.write(f"{sg.node_ids[int(u)]}\t{sg.node_ids[int(v)]}\n")
            fh.write("\n")
    a, b = two_layer_graphs(n=10, seed=1)
    export_edge_list(a, str(root / "la.edges"))
    export_edge_list(b, str(root / "lb.edges"))
    (root / "walklets.json").write_text('{"offsets": [1, 3]}\n')


def criterion_12_commands(root):
    """Name -> (CLI argv, output file names) for every criterion-12 call,
    reading and writing the files ``_cli_fixture_files(root)`` leaves."""
    t = str(root)
    return {
        "embed": (["embed", "--method", "deepwalk", "--input",
                   f"{t}/karate.edges", "--dim", "8", "--seed", "7",
                   "--epochs", "1", "--out", f"{t}/z.tsv"], ["z.tsv"]),
        "embed-line2": (["embed", "--method", "line2", "--input",
                         f"{t}/karate.edges", "--dim", "8", "--seed", "7",
                         "--epochs", "3", "--out", f"{t}/z2.tsv"],
                        ["z2.tsv"]),
        "embed-eigenmaps": (["embed", "--method", "laplacian_eigenmaps",
                             "--input", f"{t}/karate.edges", "--dim", "4",
                             "--seed", "7", "--out", f"{t}/ze.tsv"],
                            ["ze.tsv"]),
        "embed-walklets-config": (["embed", "--method", "walklets",
                                   "--input", f"{t}/karate.edges", "--dim",
                                   "8", "--seed", "7", "--epochs", "1",
                                   "--config", f"{t}/walklets.json",
                                   "--out", f"{t}/zw.tsv"], ["zw.tsv"]),
        "embed-sdne": (["embed", "--method", "sdne", "--input",
                        f"{t}/karate.edges", "--dim", "4", "--hidden", "8",
                        "--epochs", "5", "--seed", "7", "--out",
                        f"{t}/zs.tsv"], ["zs.tsv"]),
        "walk": (["walk", "--input", f"{t}/karate.edges", "--kind",
                  "node2vec", "--q", "0.5", "--length", "6",
                  "--walks-per-node", "2", "--seed", "3", "--out",
                  f"{t}/walks.txt"], ["walks.txt"]),
        "walk-metapath": (["walk", "--input", f"{t}/karate.edges", "--kind",
                           "metapath", "--types", f"{t}/karate.types",
                           "--metapath", "leaf,hub", "--length", "4",
                           "--walks-per-node", "2", "--seed", "3", "--out",
                           f"{t}/walks_mp.txt"], ["walks_mp.txt"]),
        "roles": (["roles", "--input", f"{t}/karate.edges", "--mode",
                   "graphwave", "--t-points", "8", "--out",
                   f"{t}/sigs.tsv"], ["sigs.tsv"]),
        "roles-struc2vec": (["roles", "--input", f"{t}/karate.edges",
                             "--mode", "struc2vec", "--dim", "4", "--epochs",
                             "1", "--walks-per-node", "2", "--k-max", "2",
                             "--out", f"{t}/roles_z.tsv"], ["roles_z.tsv"]),
        "subgraph": (["subgraph", "--dataset", f"{t}/toy.graphs",
                      "--epochs", "10", "--seed", "1", "--out",
                      f"{t}/preds.tsv"], ["preds.tsv"]),
        "eval-nodes": (["eval-nodes", "--embedding", f"{t}/z.tsv",
                        "--labels", f"{t}/karate.labels", "--eval-seeds",
                        "2", "--epochs", "30", "--seed", "0"], []),
        "eval-links": (["eval-links", "--input", f"{t}/karate.edges",
                        "--method", "line1", "--epochs", "1",
                        "--eval-seeds", "2", "--seed", "0"], []),
        "eval-links-holdout": (["eval-links", "--input",
                                f"{t}/karate.edges", "--method", "line1",
                                "--epochs", "1", "--eval-seeds", "2",
                                "--holdout", "0.3", "--seed", "0"], []),
        "eval-links-node2vec": (["eval-links", "--input",
                                 f"{t}/karate.edges", "--method", "node2vec",
                                 "--epochs", "1", "--eval-seeds", "2",
                                 "--seed", "0"], []),
        "eval-cluster": (["eval-cluster", "--embedding", f"{t}/z.tsv",
                          "--labels", f"{t}/karate.labels", "--k", "2",
                          "--restarts", "2", "--seed", "0"], []),
        "project": (["project", "--embedding", f"{t}/z.tsv", "--out",
                     f"{t}/proj.tsv"], ["proj.tsv"]),
        "harp": (["harp", "--input", f"{t}/karate.edges", "--base",
                  "deepwalk", "--levels", "1", "--epochs", "1", "--seed",
                  "2", "--out", f"{t}/zh.tsv"], ["zh.tsv"]),
        "harp-line1": (["harp", "--input", f"{t}/karate.edges", "--base",
                        "line1", "--levels", "3", "--dim", "8", "--epochs",
                        "3", "--seed", "2", "--out", f"{t}/zh1.tsv"],
                       ["zh1.tsv"]),
        "ohmnet": (["ohmnet", "--layer", f"A={t}/la.edges", "--layer",
                    f"B={t}/lb.edges", "--lam", "0.5", "--epochs", "1",
                    "--seed", "4", "--out-prefix", f"{t}/oh_"],
                   ["oh_A.tsv", "oh_B.tsv"]),
    }


def test_criterion_12_cli_determinism(tmp_path, capsys):
    _cli_fixture_files(tmp_path)
    commands = criterion_12_commands(tmp_path)
    stable = True
    details = []
    for name, (argv, outputs) in commands.items():
        runs = []
        for _ in range(2):
            code = cli.main(list(argv))
            captured = capsys.readouterr()
            assert code == 0, f"{name} exited {code}: {captured.err}"
            blobs = [captured.out.encode()]
            for out_name in outputs:
                blobs.append((tmp_path / out_name).read_bytes())
            runs.append(blobs)
        if runs[0] != runs[1]:
            stable = False
            details.append(name)
    verdict(12, stable,
            "all commands byte-identical" if stable
            else "nondeterministic: " + ",".join(details))


# ---------------------------------------------------------------------
# every embed method recovers a small SBM's blocks at library defaults
# ---------------------------------------------------------------------

_ITEM_1 = ("ROADMAP item 1: the skip-gram lr is divided by the batch "
           "length, so the default 0.025 is not word2vec's per-pair rate")
_ITEM_8 = "ROADMAP item 8: 5 default epochs are too small a budget for "
_BELOW_FLOOR = {
    "grarep": ("ROADMAP item 12: GraRep's per-power Gram blocks take 5 "
               "epochs of full-batch Adam, not the exact solve"),
    "deepwalk": _ITEM_1, "node2vec": _ITEM_1, "walklets": _ITEM_1,
    "line1": _ITEM_8 + "LINE's edge samples",
    "line2": _ITEM_8 + "LINE's edge samples",
}


@pytest.mark.parametrize("method", [
    pytest.param(m, marks=pytest.mark.xfail(strict=True, reason=_BELOW_FLOOR[m]))
    if m in _BELOW_FLOOR else m for m in METHODS + ("sdne", "dngr")])
def test_embed_method_recovers_sbm_blocks_at_defaults(method):
    g, labels = stochastic_block_model((100,) * 4, 0.1, 0.005, seed=3)
    if method in METHODS:
        z = train_shallow(g, method, ShallowConfig())
    else:
        z, _ = train_autoencoder(g, method, AutoencoderConfig())
    f1 = node_classification_eval(z, labels, seeds=range(3)).metrics[
        "macro_f1_mean"]
    assert f1 >= 0.8, f"{method} macro-F1 {f1:.3f} at defaults (chance 0.25)"
