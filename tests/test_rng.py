import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grembed.rng import derived_rng, hashed_uniforms


# -- the keyed order ----------------------------------------------------------


def edge_sizes():
    """1, 2, 3 and 2**k - 1, 2**k, 2**k + 1 for k = 2..12."""
    out = {1, 2, 3}
    for k in range(2, 13):
        out |= {2 ** k - 1, 2 ** k, 2 ** k + 1}
    return sorted(out)


@pytest.mark.parametrize("count", edge_sizes())
def test_permutation_is_a_bijection_at_powers_of_two(count):
    order = derived_rng(3, "order", count).permutation(count)
    assert order.dtype == np.int64
    assert np.array_equal(np.sort(order), np.arange(count))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 70_000), st.integers(0, 2 ** 64 - 1))
def test_permutation_is_a_bijection_at_drawn_sizes(count, seed):
    order = derived_rng(seed, "order").permutation(count)
    assert np.array_equal(np.sort(order), np.arange(count))


@pytest.mark.parametrize("count,span", [
    *itertools.product([1, 2, 5, 255, 256, 257, 1000], [1, 7, 256, 8192]),
    (20_000, 256), (20_000, 8192), (70_000, 8192)])
def test_blocks_concatenate_to_the_permutation(count, span):
    whole = derived_rng(8, "order").permutation(count)
    blocks = list(derived_rng(8, "order").permutation_blocks(count, span))
    assert all(len(b) == span for b in blocks[:-1])
    assert 0 < len(blocks[-1]) <= span
    assert np.array_equal(np.concatenate(blocks), whole)


def test_permutation_positions_are_uniform_over_keys():
    # each item lands at each position about equally often across streams
    count, streams = 10, 4000
    orders = np.array([derived_rng(s, "order").permutation(count)
                       for s in range(streams)])
    for position in range(count):
        freq = np.bincount(orders[:, position], minlength=count) / streams
        np.testing.assert_allclose(freq, 1 / count, atol=0.025)


# -- stream laws --------------------------------------------------------------


@pytest.mark.parametrize("first,second", [(0, 5), (1, 1), (7, 1280),
                                          (1280, 3)])
def test_draws_do_not_depend_on_how_they_are_chunked(first, second):
    rng = derived_rng(5, "chunks")
    split = np.concatenate([rng.random(first), rng.random(second)])
    assert np.array_equal(split, derived_rng(5, "chunks").random(first + second))


def test_random_is_the_walk_hash_of_the_stream_key():
    rng = derived_rng(9, "walk-hash")
    state = np.array([rng.key], dtype=np.uint64)
    want = [hashed_uniforms(state, c)[0] for c in range(6)]
    assert rng.random(6).tolist() == want


def test_scalar_draws_take_one_counter_each():
    rng, again = derived_rng(2, "scalar"), derived_rng(2, "scalar")
    assert [rng.random() for _ in range(4)] == again.random(4).tolist()
    assert isinstance(derived_rng(2, "scalar").integers(9), int)


def test_integer_frequencies():
    draws = derived_rng(11, "integers").integers(5, size=60000)
    assert draws.min() == 0 and draws.max() == 4
    np.testing.assert_allclose(np.bincount(draws) / 60000, 0.2, atol=0.01)
    shifted = derived_rng(11, "integers").integers(3, 8, size=60000)
    assert np.array_equal(shifted, draws + 3)


def test_uniform_range():
    u = derived_rng(12, "uniform").uniform(-0.5, 0.5, size=(300, 20))
    assert u.shape == (300, 20) and u.min() >= -0.5 and u.max() < 0.5
    assert abs(u.mean()) < 0.01


def test_normal_mean_and_variance():
    z = derived_rng(13, "normal").normal(size=100_000)
    assert abs(z.mean()) < 0.02 and abs(z.var() - 1.0) < 0.02
    scaled = derived_rng(13, "normal").normal(2.0, 0.5, size=(100, 1000))
    np.testing.assert_allclose(scaled, 2.0 + 0.5 * z.reshape(100, 1000),
                               rtol=1e-15)


def test_choice_without_replacement_is_uniform_over_subsets():
    counts = Counter()
    streams = 20000
    for s in range(streams):
        pick = derived_rng(s, "subset").choice(5, size=2, replace=False)
        assert len(set(pick.tolist())) == 2
        counts[frozenset(pick.tolist())] += 1
    assert set(counts) == {frozenset(c) for c in itertools.combinations(
        range(5), 2)}
    freq = np.array(list(counts.values())) / streams
    np.testing.assert_allclose(freq, 0.1, atol=0.01)


def test_choice_without_replacement_takes_distinct_items():
    items = np.arange(100, 140)
    pick = derived_rng(14, "distinct").choice(items, size=25, replace=False)
    assert len(set(pick.tolist())) == 25 and set(pick.tolist()) <= set(items)


def test_choice_with_p_frequencies():
    p = np.array([0.1, 0.0, 0.3, 0.6])
    draws = derived_rng(15, "p").choice(4, size=60000, p=p)
    np.testing.assert_allclose(np.bincount(draws, minlength=4) / 60000, p,
                               atol=0.01)
    assert isinstance(derived_rng(15, "p").choice(4, p=p), int)


def test_negative_seed_names_its_twos_complement():
    for stream in (("shuffle", "", 0), ("noise", 3), ()):
        a = derived_rng(-1, *stream)
        b = derived_rng(2 ** 64 - 1, *stream)
        assert np.array_equal(a.random(16), b.random(16))
        assert np.array_equal(a.permutation(100), b.permutation(100))


def test_stream_keys_separate_their_parts():
    # a string ends in 0xFFFF, so ("ab",) and ("a", "b") differ; ints
    # are read modulo 2**32
    keys = [derived_rng(0, *s).key for s in
            [("ab",), ("a", "b"), ("a",), ("a", 0), (), (0,), (1,)]]
    assert len(set(keys)) == len(keys)
    assert derived_rng(0, "x", -1).key == derived_rng(0, "x", 2 ** 32 - 1).key
