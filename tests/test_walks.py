import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grembed import fixtures, walks
from grembed.errors import ContractError, ValidationError
from grembed.graph import Graph
from grembed.rng import derived_rng, hashed_uniforms, walk_states
from grembed.walks import (
    AliasTable,
    WalkConfig,
    WalkPairs,
    extract_pairs,
    sample_metapath_walks,
    sample_node2vec_walks,
    sample_uniform_walks,
)

import oracles


def test_alias_table_matches_weights():
    rng = np.random.default_rng(0)
    w = np.array([1.0, 3.0, 6.0])
    t = AliasTable(w)
    draws = t.sample(rng, size=60000)
    freq = np.bincount(draws, minlength=3) / 60000
    np.testing.assert_allclose(freq, w / w.sum(), atol=0.01)


@pytest.mark.parametrize("size", [7, (40, 5)])
def test_alias_table_sample_is_one_pick_and_one_coin(size):
    # one uniform u per draw: the pick is floor(u * n), the coin u * n - pick
    t = AliasTable([1.0, 3.0, 6.0, 0.0, 2.5])
    for make_rng in (np.random.default_rng, derived_rng):
        got = t.sample(make_rng(2), size=size)
        u = make_rng(2).random(size=size) * t.n
        k = np.floor(u).astype(np.int64)
        want = np.where(u - k < t.prob[k], k, t.alias[k])
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_alias_table_validation():
    with pytest.raises(ContractError):
        AliasTable([])
    with pytest.raises(ContractError):
        AliasTable([1.0, -2.0])
    with pytest.raises(ContractError):
        AliasTable([0.0, 0.0])
    with pytest.raises(ContractError):
        AliasTable(np.ones((2, 2)))


def test_alias_table_degenerate_single_outcome():
    rng = np.random.default_rng(1)
    t = AliasTable([5.0])
    assert np.all(t.sample(rng, size=100) == 0)


def test_walk_config_validation():
    with pytest.raises(ContractError):
        WalkConfig(length=1)
    with pytest.raises(ContractError):
        WalkConfig(walks_per_node=0)
    with pytest.raises(ContractError):
        WalkConfig(p=0.0)
    with pytest.raises(ContractError):
        WalkConfig(q=-1.0)
    with pytest.raises(ContractError):
        WalkConfig(metapath=())


def test_uniform_walks_shape_and_validity():
    g = fixtures.karate_club()[0]
    cfg = WalkConfig(length=8, walks_per_node=4, seed=3)
    corpus = sample_uniform_walks(g, cfg)
    assert len(corpus) == 34 * 4
    adj = {(i, j) for i, j in zip(g.csr_sources, g.csr_targets)}
    for walk in corpus:
        assert len(walk) == 9
        for a, b in zip(walk[:-1], walk[1:]):
            assert (a, b) in adj


def test_uniform_walks_deterministic():
    g = fixtures.karate_club()[0]
    cfg = WalkConfig(length=6, walks_per_node=3, seed=11)
    c1 = sample_uniform_walks(g, cfg)
    c2 = sample_uniform_walks(g, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(c1.walks, c2.walks))
    c3 = sample_uniform_walks(g, WalkConfig(length=6, walks_per_node=3, seed=12))
    assert any(not np.array_equal(a, b) for a, b in zip(c1.walks, c3.walks))


def test_isolated_starts_are_skipped():
    from grembed.graph import Graph

    g = Graph.from_edges([(0, 1)], node_ids=["0", "1", "2"])
    corpus = sample_uniform_walks(g, WalkConfig(length=3, walks_per_node=2))
    assert corpus.skipped_starts == 1
    assert len(corpus) == 4


def test_weighted_steps_follow_edge_weights():
    from grembed.graph import Graph

    g = Graph.from_edges([(0, 1), (0, 2)], weights=[1.0, 3.0])
    cfg = WalkConfig(length=2, walks_per_node=8000, seed=5)
    corpus = sample_uniform_walks(g, cfg)
    firsts = [w[1] for w in corpus.walks if w[0] == g.index_of("0")]
    frac2 = np.mean(np.array(firsts) == g.index_of("2"))
    assert abs(frac2 - 0.75) < 0.02


# walks.ROUNDS at its default, then at 0, where _step takes every step
ROUNDS_EACH = (walks.ROUNDS, 0)


def test_empirical_visit_frequency_matches_analytic_law(monkeypatch):
    from grembed.similarity import walk_visit_distribution

    g = fixtures.barbell_graph(3, 2)
    T = 4
    cfg = WalkConfig(length=T, walks_per_node=4000, seed=9)
    for rounds in ROUNDS_EACH:
        monkeypatch.setattr(walks, "ROUNDS", rounds)
        corpus = sample_uniform_walks(g, cfg)
        for v in (0, 3):
            visits = np.zeros(g.node_count)
            count = 0
            for w in corpus.walks:
                if w[0] != v:
                    continue
                count += 1
                for x in w[1:]:
                    visits[x] += 1
            empirical = visits / (count * T)
            analytic = walk_visit_distribution(g, v, T)
            tv = 0.5 * np.abs(empirical - analytic).sum()
            assert tv < 0.02


def test_node2vec_return_bias_exact_law():
    # path 0-1-2-3-4; from node 0 the first step is forced to 1; the
    # second step chooses prev (0, factor 1/p) vs forward (2, factor 1/q)
    g = fixtures.path_graph(5)
    p, q = 2.0, 0.5
    cfg = WalkConfig(length=2, walks_per_node=6000, p=p, q=q, seed=13)
    corpus = sample_node2vec_walks(g, cfg)
    seconds = [w[2] for w in corpus.walks if w[0] == g.index_of("0")]
    frac_back = np.mean(np.array(seconds) == g.index_of("0"))
    expect = (1 / p) / (1 / p + 1 / q)
    assert abs(frac_back - expect) < 0.02


def test_node2vec_distance_one_keeps_base_weight():
    # triangle: from (prev=0, cur=1), node 2 sits at distance 1 from 0
    g = fixtures.triangle()
    p = 4.0
    cfg = WalkConfig(length=2, walks_per_node=8000, p=p, q=7.0, seed=21)
    corpus = sample_node2vec_walks(g, cfg)
    picked = []
    for w in corpus.walks:
        if w[0] == 0 and w[1] == 1:
            picked.append(w[2])
    frac_back = np.mean(np.array(picked) == 0)
    expect = (1 / p) / (1 / p + 1.0)
    assert abs(frac_back - expect) < 0.02


def test_node2vec_never_backtracks_with_huge_p():
    g = fixtures.path_graph(6)
    cfg = WalkConfig(length=5, walks_per_node=20, p=1e9, q=1.0, seed=2)
    corpus = sample_node2vec_walks(g, cfg)
    inner = {g.index_of(str(i)) for i in range(1, 5)}
    for w in corpus.walks:
        for t in range(2, len(w)):
            if w[t - 1] in inner:  # interior nodes always have a non-return option
                assert w[t] != w[t - 2]


def test_node2vec_unit_pq_has_uniform_law():
    g = fixtures.karate_club()[0]
    cfg = WalkConfig(length=4, walks_per_node=2000, p=1.0, q=1.0, seed=17)
    corpus = sample_node2vec_walks(g, cfg)
    from grembed.similarity import walk_visit_distribution

    v = 33
    visits = np.zeros(g.node_count)
    count = 0
    for w in corpus.walks:
        if w[0] != v:
            continue
        count += 1
        for x in w[1:]:
            visits[x] += 1
    empirical = visits / (count * 4)
    tv = 0.5 * np.abs(empirical - walk_visit_distribution(g, v, 4)).sum()
    assert tv < 0.03


def test_metapath_walks_follow_type_pattern():
    from grembed.graph import Graph

    # bipartite square: types 0 and 1 alternate around a 4-cycle
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)],
                         node_types=[0, 1, 0, 1])
    cfg = WalkConfig(length=6, walks_per_node=5, metapath=(0, 1), seed=4)
    corpus = sample_metapath_walks(g, cfg)
    assert corpus.skipped_starts == 2  # the two type-1 nodes
    for w in corpus.walks:
        assert len(w) == 7
        for i, v in enumerate(w):
            assert g.node_types[v] == (0, 1)[i % 2]


def test_metapath_dead_end_truncates():
    from grembed.graph import Graph

    g = Graph.from_edges([(0, 1), (1, 2)], node_types=[0, 1, 2])
    cfg = WalkConfig(length=4, walks_per_node=3, metapath=(0, 1, 2), seed=4)
    corpus = sample_metapath_walks(g, cfg)
    for w in corpus.walks:
        np.testing.assert_array_equal(w, [0, 1, 2])


def test_metapath_validation():
    from grembed.graph import Graph

    g = Graph.from_edges([(0, 1)], node_types=[0, 1])
    with pytest.raises(ValidationError):
        sample_metapath_walks(
            g, WalkConfig(length=3, metapath=(0, 7), walks_per_node=1))
    g2 = Graph.from_edges([(0, 1)])
    with pytest.raises(ValidationError):
        sample_metapath_walks(
            g2, WalkConfig(length=3, metapath=(0, 1), walks_per_node=1))
    with pytest.raises(ContractError):
        sample_metapath_walks(g, WalkConfig(length=3, walks_per_node=1))


@pytest.mark.parametrize("kind", ["uniform", "node2vec", "metapath"])
def test_directed_walks_follow_arcs_and_stop_at_sinks(kind):
    from grembed.graph import Graph

    # DAG 4->0->{1,2}, 1->2->3: node 3 is the only sink
    arcs = [(4, 0), (0, 1), (0, 2), (1, 2), (2, 3)]
    g = Graph.from_edges(arcs, directed=True, node_types=[0] * 5,
                         node_ids=[str(i) for i in range(5)])
    cfg = WalkConfig(length=6, walks_per_node=20, p=0.5, q=2.0, seed=8,
                     metapath=(0,) if kind == "metapath" else None)
    sampler = {"uniform": sample_uniform_walks,
               "node2vec": sample_node2vec_walks,
               "metapath": sample_metapath_walks}[kind]
    corpus = sampler(g, cfg)
    assert corpus.skipped_starts == 1  # the sink cannot start a walk
    assert len(corpus) == 4 * 20
    adj = set(zip(g.csr_sources.tolist(), g.csr_targets.tolist()))
    assert adj == {(g.index_of(str(a)), g.index_of(str(b))) for a, b in arcs}
    sink = g.index_of("3")
    for w in corpus.walks:
        assert w[0] != sink and w[-1] == sink and len(w) <= 5
        assert all((a, b) in adj for a, b in zip(w[:-1].tolist(), w[1:].tolist()))


def _toy_corpus(walks, length):
    from grembed.walks import WalkCorpus

    cfg = WalkConfig(length=length, walks_per_node=1)
    return WalkCorpus(_padded(walks), cfg, int(max(max(w) for w in walks)) + 1)


def _padded(walks):
    """Walks as the corpus matrix: one row each, -1 after its end."""
    width = max(map(len, walks), default=0)
    return np.array([list(w) + [-1] * (width - len(w)) for w in walks],
                    dtype=np.int64).reshape(len(walks), width)


def test_extract_pairs_matches_window_oracle():
    corpus = _toy_corpus([[0, 1, 2, 3], [2, 0, 2, 1]], length=3)
    got = extract_pairs(corpus, window=2)
    expect = oracles.window_pairs(corpus.walks, 2)
    got_multiset = sorted(map(tuple, got.tolist()))
    expect_multiset = sorted((int(a), int(b)) for a, b in expect)
    assert got_multiset == expect_multiset


def test_extract_pairs_window_bounds():
    corpus = _toy_corpus([[0, 1, 2]], length=2)
    with pytest.raises(ContractError):
        extract_pairs(corpus, 0)
    with pytest.raises(ContractError):
        extract_pairs(corpus, 2)
    assert extract_pairs(corpus, 1).shape == (4, 2)


def test_extract_offset_pairs_exact_distance():
    corpus = _toy_corpus([[0, 1, 2, 3, 4]], length=4)
    got = sorted(map(tuple, WalkPairs(corpus, offset=3).stored().tolist()))
    assert got == sorted([(0, 3), (1, 4), (3, 0), (4, 1)])
    with pytest.raises(ContractError):
        WalkPairs(corpus, offset=4)
    with pytest.raises(ContractError):
        WalkPairs(corpus, offset=0)


def test_corpus_dump_and_load_round_trip():
    g = fixtures.triangle()
    cfg = WalkConfig(length=3, walks_per_node=2, seed=1)
    corpus = sample_uniform_walks(g, cfg)
    buf = io.StringIO()
    corpus.dump(buf)
    text = buf.getvalue()
    buf2 = io.StringIO()
    corpus.dump(buf2)
    assert buf2.getvalue() == text  # byte determinism
    loaded = [list(map(g.index_of, line.split())) for line in text.splitlines()]
    assert loaded == [w.tolist() for w in corpus.walks]


@st.composite
def _walk_cases(draw):
    """A random typed graph, a walk kind and a config for it."""
    n = draw(st.integers(2, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          min_size=1, max_size=20))
    weights = draw(st.none() | st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                                        min_size=len(pairs), max_size=len(pairs)))
    types = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    g = Graph.from_edges(pairs, weights=weights, directed=draw(st.booleans()),
                         allow_self_loops=True, node_types=types,
                         node_ids=[str(i) for i in range(n)])
    kind = draw(st.sampled_from(["uniform", "node2vec", "metapath"]))
    metapath = draw(st.lists(st.sampled_from(sorted(set(types))),
                             min_size=1, max_size=3))
    cfg = WalkConfig(length=draw(st.integers(2, 6)),
                     walks_per_node=draw(st.integers(1, 3)),
                     p=draw(st.sampled_from([0.25, 1.0, 4.0, 1e9])),
                     q=draw(st.sampled_from([1e-9, 0.5, 1.0, 2.0])),
                     metapath=tuple(metapath) if kind == "metapath" else None,
                     seed=draw(st.integers(0, 2 ** 40)))
    return g, kind, cfg


_SAMPLERS = {"uniform": sample_uniform_walks, "node2vec": sample_node2vec_walks,
             "metapath": sample_metapath_walks}


@settings(max_examples=150, deadline=None)
@given(_walk_cases(), st.integers(1, 8))
def test_walk_engine_properties(case, budget):
    g, kind, cfg = case
    arc_weight = dict(zip(zip(g.csr_sources.tolist(), g.csr_targets.tolist()),
                          g.csr_weights.tolist()))
    types, mp = g.node_types, cfg.metapath
    starts = [v for v in range(g.node_count) if len(g.neighbors(v))
              and (mp is None or types[v] == mp[0])]
    for rounds in ROUNDS_EACH:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(walks, "ROUNDS", rounds)
            corpus = _SAMPLERS[kind](g, cfg)
            patch.setattr(walks, "CHUNK_SLOTS", budget)
            chunked = _SAMPLERS[kind](g, cfg)
        assert corpus.skipped_starts == g.node_count - len(starts)
        assert [int(w[0]) for w in corpus] == [v for v in starts
                                               for _ in range(cfg.walks_per_node)]
        for w in corpus:
            w = w.tolist()
            assert all(arc_weight.get((a, b), 0) > 0 for a, b in zip(w, w[1:]))
            if mp is not None:
                assert all(types[v] == mp[i % len(mp)] for i, v in enumerate(w))
            if len(w) < cfg.length + 1:  # only at a dead end for the next step
                want = None if mp is None else mp[len(w) % len(mp)]
                assert not any(wt > 0 and (want is None or types[b] == want)
                               for (a, b), wt in arc_weight.items() if a == w[-1])
        assert len(chunked) == len(corpus)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(chunked, corpus))


def _worst_second_order_gap(g, corpus, p, q, min_count=1000):
    """Largest gap between a sampled node2vec transition and its law."""
    counts = {}
    for w in corpus.walks:
        for t in range(2, len(w)):
            nxt = counts.setdefault((w[t - 2], w[t - 1]), {})
            nxt[w[t]] = nxt.get(w[t], 0) + 1
    adj = [set(g.neighbors(v).tolist()) for v in range(g.node_count)]
    worst, checked = 0.0, 0
    for (prev, cur), nxt in counts.items():
        total = sum(nxt.values())
        if total < min_count:
            continue
        checked += 1
        nbrs = g.neighbors(cur)
        alpha = np.array([1 / p if x == prev else (1.0 if x in adj[prev] else 1 / q)
                          for x in nbrs]) * g.neighbor_weights(cur)
        for x, a in zip(nbrs, alpha / alpha.sum()):
            worst = max(worst, abs(nxt.get(int(x), 0) / total - a))
    return worst, checked


def test_hashed_uniforms_keep_their_bits():
    # every walk corpus at a fixed seed is made of these draws, so any
    # change to their bits changes the corpora
    streams = np.array([0, 1, 123456789, 2**62 + 3], dtype=np.int64)
    pinned = {
        (0, 1): ["0x1.c4415072f63b9p-1", "0x1.7fdf0061bb85ap-1",
                 "0x1.a945675088650p-4", "0x1.628c169c2b2a8p-3"],
        (42, 9): ["0x1.d5979daaf9fb6p-1", "0x1.679375319b450p-5",
                  "0x1.4f17ef1685c79p-1", "0x1.ab8374a94ab90p-3"],
        (-1, 2**40): ["0x1.b8e7245a0dc40p-4", "0x1.1f1150b977726p-1",
                      "0x1.35c19f107f1e0p-4", "0x1.8fff924c857f4p-2"],
        (2**64 + 5, 0): ["0x1.41b0884217654p-1", "0x1.f8f9b263191b2p-1",
                         "0x1.8f59b9288b1e0p-3", "0x1.f353a6604fc62p-1"],
    }
    for (seed, counter), want in pinned.items():
        got = hashed_uniforms(walk_states(seed, streams), counter)
        assert [float(u).hex() for u in got] == want


def test_each_walk_draws_each_counter_once(monkeypatch):
    # p and q make top 4, so rounds reject and some walks reach _step
    drawn, fallback = [], []
    real_uniforms, real_step = walks.hashed_uniforms, walks._step

    def uniforms(states, step):
        drawn.extend((s, step) for s in np.asarray(states).tolist())
        return real_uniforms(states, step)

    def step(g, cur, *rest):
        fallback.append(cur.size)
        return real_step(g, cur, *rest)

    monkeypatch.setattr(walks, "hashed_uniforms", uniforms)
    monkeypatch.setattr(walks, "_step", step)
    g = fixtures.karate_club()[0]
    corpus = sample_node2vec_walks(
        g, WalkConfig(length=12, walks_per_node=20, p=0.25, q=4.0, seed=3))
    steps = sum(len(w) - 1 for w in corpus.walks)
    assert sum(fallback) > 0 and len(drawn) > 2 * steps
    assert len(set(drawn)) == len(drawn)


def test_zero_weight_arcs_are_never_taken():
    # row 2 ends in a zero-weight arc past two rows that sum to 1 each,
    # so a uniform just below 1 rounds onto it; row 3 weighs 0 in all
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)], weights=[1.0, 1.0, 0.0],
                         node_types=[0, 0, 0, 0],
                         node_ids=[str(i) for i in range(4)])
    near_one = np.nextafter(1.0, 0.0)
    for rounds, pinned in itertools.product(ROUNDS_EACH, (False, True)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(walks, "ROUNDS", rounds)
            if pinned:
                patch.setattr(walks, "hashed_uniforms",
                              lambda states, step:
                              np.full(np.shape(states), near_one))
            for kind, p, q in (("uniform", 1, 1), ("node2vec", 0.5, 2.0),
                               ("node2vec", 4.0, 0.25), ("metapath", 1, 1)):
                corpus = _SAMPLERS[kind](g, WalkConfig(
                    length=6, walks_per_node=30, p=p, q=q, seed=6,
                    metapath=(0,) if kind == "metapath" else None))
                for w in corpus.walks:
                    w = w.tolist()
                    assert 3 not in w[1:] and (w == [3] or len(w) == 7)


def test_dump_writes_the_same_bytes_as_a_per_node_join():
    g = Graph.from_edges([("x", "yy"), ("yy", "z"), ("z", "x"), ("z", "w")])
    corpus = sample_node2vec_walks(
        g, WalkConfig(length=5, walks_per_node=3, q=0.5, seed=4))
    texts = []
    for node_ids in (corpus.node_ids, None):
        corpus.node_ids = node_ids
        ids = node_ids or [str(i) for i in range(corpus.node_count)]
        texts.append("".join(" ".join(ids[v] for v in w) + "\n"
                             for w in corpus.walks))
        buf = io.StringIO()
        corpus.dump(buf)
        assert buf.getvalue() == texts[-1]
    assert texts[0] != texts[1]


@pytest.mark.parametrize("p,q", [(1.0, 1e-9), (1e-9, 1.0)])
def test_node2vec_extreme_biases_keep_exact_law(monkeypatch, p, q):
    # kite: from 1 after 0, node 2 is a neighbor of 0 and 3, 4 are not
    kite = Graph.from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (1, 4)],
                            weights=[1.0, 1.0, 2.0, 1.0, 3.0])
    g = fixtures.karate_club()[0]
    adj = [set(g.neighbors(v).tolist()) for v in range(g.node_count)]
    for rounds in ROUNDS_EACH:
        monkeypatch.setattr(walks, "ROUNDS", rounds)
        corpus = sample_node2vec_walks(
            kite, WalkConfig(length=3, walks_per_node=4000, p=p, q=q, seed=31))
        worst, checked = _worst_second_order_gap(kite, corpus, p, q)
        assert checked >= 5 and worst < 0.02
        corpus = sample_node2vec_walks(
            g, WalkConfig(length=20, walks_per_node=5, p=p, q=q, seed=32))
        assert len(corpus) == g.node_count * 5
        for w in corpus.walks:
            w = w.tolist()
            assert len(w) == 21 and all(b in adj[a] for a, b in zip(w, w[1:]))
            for t in range(2, len(w)):
                far = adj[w[t - 1]] - adj[w[t - 2]] - {w[t - 2]}
                if p < 1:  # the return weighs 1e9 against at most 1 per other slot
                    assert w[t] == w[t - 2]
                elif far:  # a step away from prev weighs 1e9 against at most 1
                    assert w[t] in far


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pairs_match_loop_oracle_in_order(data):
    from grembed.walks import WalkCorpus

    T = data.draw(st.integers(2, 7))
    # empty corpora and single-node walks are drawn too
    rows = data.draw(st.lists(st.lists(st.integers(0, 9), min_size=1,
                                       max_size=T + 1), max_size=12))
    corpus = WalkCorpus(_padded(rows), WalkConfig(length=T, walks_per_node=1),
                        10)
    window = data.draw(st.integers(1, T - 1))
    with pytest.MonkeyPatch.context() as mp:
        # narrow buckets put many blocks, empty ones too, in one window;
        # small chunks cut the stored array
        mp.setattr(walks, "BUCKET_BITS", data.draw(st.integers(0, 6)))
        mp.setattr(walks, "CHUNK_SLOTS", data.draw(st.integers(1, 40)))
        for got, pairs, offsets in (
                (extract_pairs(corpus, window), WalkPairs(corpus, window=window),
                 range(1, window + 1)),
                (WalkPairs(corpus, offset=window).stored(),
                 WalkPairs(corpus, offset=window), (window,))):
            expect = oracles.hop_pairs_loop(corpus.walks, offsets)
            assert got.shape == expect.shape and np.array_equal(got, expect)
            # any indices: unsorted, repeated or none, int32 or int64
            picks = st.lists(st.integers(0, len(expect) - 1), max_size=20) \
                if len(expect) else st.just([])
            idx = np.array(data.draw(picks),
                           dtype=data.draw(st.sampled_from([np.int32, np.int64])))
            sub = pairs.take(idx, axis=0)
            assert sub.shape == (idx.size, 2) and np.array_equal(sub, expect[idx])
            # decoded in place into a buffer and a scratch, as training does
            out = np.full((idx.size, 2), -7, dtype=np.int64)
            scratch = np.full((2, idx.size), -7, dtype=np.int64)
            assert pairs.take(idx, out=out, scratch=scratch) is out
            assert np.array_equal(out, expect[idx])
            assert len(pairs) == len(expect)
            assert np.array_equal(pairs.context_counts(),
                                  np.bincount(expect[:, 1], minlength=10))
