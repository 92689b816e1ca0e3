import numpy as np
import pytest

from grembed import autodiff as ad
from grembed.errors import ContractError, NumericError, ShapeError


def randn(rng, *shape):
    return rng.normal(size=shape)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# -- finite-difference checks, one per differentiable op ----------------


def test_matmul_gradient(rng):
    a = ad.parameter(randn(rng, 3, 4))
    b = ad.parameter(randn(rng, 4, 2))
    err = ad.gradient_check(lambda: ad.reduce_sum(ad.tanh(ad.matmul(a, b))), [a, b])
    assert err < 1e-6


def test_add_sub_broadcast_gradient(rng):
    a = ad.parameter(randn(rng, 3, 4))
    bias = ad.parameter(randn(rng, 1, 4))
    col = ad.parameter(randn(rng, 3, 1))

    def loss():
        return ad.reduce_sum(ad.sigmoid(ad.sub(ad.add(a, bias), col)))

    assert ad.gradient_check(loss, [a, bias, col]) < 1e-6


def test_mul_scale_neg_gradient(rng):
    a = ad.parameter(randn(rng, 2, 5))
    b = ad.parameter(randn(rng, 2, 5))

    def loss():
        return ad.reduce_sum(ad.neg(ad.scale(ad.mul(a, b), 0.7)))

    assert ad.gradient_check(loss, [a, b]) < 1e-6


def test_concat_transpose_gradient(rng):
    a = ad.parameter(randn(rng, 2, 3))
    b = ad.parameter(randn(rng, 2, 3))

    def loss():
        joined = ad.concat_cols(ad.concat_rows(a, b), ad.concat_rows(b, a))
        return ad.reduce_sum(ad.tanh(ad.transpose(joined)))

    assert ad.gradient_check(loss, [a, b]) < 1e-6


def test_take_rows_gradient_accumulates_repeats(rng):
    a = ad.parameter(randn(rng, 4, 3))
    idx = np.array([0, 2, 0, 0])

    def loss():
        return ad.reduce_sum(ad.tanh(ad.take_rows(a, idx)))

    assert ad.gradient_check(loss, [a]) < 1e-6
    with ad.Tape():
        out = ad.reduce_sum(ad.take_rows(a, idx))
        ad.backward(out)
    np.testing.assert_allclose(a.grad[0], 3.0)
    np.testing.assert_allclose(a.grad[1], 0.0)
    np.testing.assert_allclose(a.grad[2], 1.0)


def test_segment_sum_gradient_and_empty_segment(rng):
    a = ad.parameter(randn(rng, 5, 2))
    seg = np.array([0, 0, 2, 2, 2])

    def loss():
        return ad.reduce_sum(ad.sigmoid(ad.segment_sum(a, seg, 4)))

    assert ad.gradient_check(loss, [a]) < 1e-6
    out = ad.segment_sum(a, seg, 4)
    np.testing.assert_allclose(out.data[1], 0.0)
    np.testing.assert_allclose(out.data[3], 0.0)


def test_segment_max_gradient(rng):
    a = ad.parameter(randn(rng, 6, 3))
    seg = np.array([0, 0, 1, 1, 1, 3])

    def loss():
        return ad.reduce_sum(ad.tanh(ad.segment_max(a, seg, 4)))

    assert ad.gradient_check(loss, [a]) < 1e-6
    out = ad.segment_max(a, seg, 4)
    np.testing.assert_allclose(out.data[2], 0.0)


def test_reduce_sum_axes_gradient(rng):
    a = ad.parameter(randn(rng, 3, 4))

    def loss():
        rows = ad.reduce_sum(a, axis=1)
        cols = ad.reduce_sum(a, axis=0)
        return ad.add(ad.reduce_sum(ad.tanh(rows)), ad.reduce_sum(ad.tanh(cols)))

    assert ad.gradient_check(loss, [a]) < 1e-6


def test_activation_gradients(rng):
    a = ad.parameter(randn(rng, 3, 3))
    for op in (ad.sigmoid, ad.tanh, ad.log_sigmoid):
        assert ad.gradient_check(lambda: ad.reduce_sum(op(a)), [a]) < 1e-6
    # relu checked away from the kink
    b = ad.parameter(randn(rng, 3, 3) + np.sign(randn(rng, 3, 3)) * 0.5)
    assert ad.gradient_check(lambda: ad.reduce_sum(ad.relu(b)), [b]) < 1e-6


def test_exp_log_gradient(rng):
    a = ad.parameter(np.abs(randn(rng, 2, 3)) + 0.5)

    def loss():
        return ad.reduce_sum(ad.log(ad.add(ad.exp(a), 1.0)))

    assert ad.gradient_check(loss, [a]) < 1e-6


def test_softmax_rows_gradient_and_normalization(rng):
    a = ad.parameter(randn(rng, 4, 5))
    s = ad.softmax_rows(a)
    np.testing.assert_allclose(s.data.sum(axis=1), 1.0)
    probe = np.asarray(randn(rng, 4, 5))

    def loss():
        return ad.reduce_sum(ad.mul(ad.softmax_rows(a), probe))

    assert ad.gradient_check(loss, [a]) < 1e-6


def test_l2_normalize_gradient_and_zero_rows(rng):
    data = randn(rng, 4, 3)
    data[2] = 0.0
    a = ad.parameter(data)
    y = ad.l2_normalize_rows(a)
    norms = np.linalg.norm(y.data, axis=1)
    np.testing.assert_allclose(norms[[0, 1, 3]], 1.0)
    np.testing.assert_allclose(y.data[2], 0.0)
    b = ad.parameter(randn(rng, 3, 4))
    probe = np.asarray(randn(rng, 3, 4))

    def loss():
        return ad.reduce_sum(ad.mul(ad.l2_normalize_rows(b), probe))

    assert ad.gradient_check(loss, [b]) < 1e-6


def test_squared_distance_and_dot_rows_gradient(rng):
    a = ad.parameter(randn(rng, 5, 3))
    b = ad.parameter(randn(rng, 5, 3))

    def loss():
        return ad.add(ad.reduce_sum(ad.squared_distance(a, b)),
                      ad.reduce_sum(ad.sigmoid(ad.dot_rows(a, b))))

    assert ad.gradient_check(loss, [a, b]) < 1e-6


def test_composite_network_gradient(rng):
    w1 = ad.parameter(randn(rng, 4, 6) * 0.3)
    b1 = ad.parameter(np.zeros((1, 6)))
    w2 = ad.parameter(randn(rng, 6, 2) * 0.3)
    x = np.asarray(randn(rng, 8, 4))
    probe = np.asarray(randn(rng, 8, 2))

    def loss():
        h = ad.tanh(ad.add(ad.matmul(ad.constant(x), w1), b1))
        return ad.reduce_sum(ad.mul(ad.softmax_rows(ad.matmul(h, w2)), probe))

    assert ad.gradient_check(loss, [w1, b1, w2]) < 1e-6


# -- semantics -----------------------------------------------------------


def test_fanout_gradients_accumulate():
    x = ad.parameter([[3.0]])
    with ad.Tape():
        y = ad.add(x, x)
        ad.backward(ad.reduce_sum(y))
    np.testing.assert_allclose(x.grad, [[2.0]])

    x2 = ad.parameter([[2.0]])
    with ad.Tape():
        y = ad.mul(x2, x2)
        ad.backward(ad.reduce_sum(y))
    np.testing.assert_allclose(x2.grad, [[4.0]])


def test_backward_requires_scalar_and_live_tape():
    x = ad.parameter([[1.0, 2.0]])
    with ad.Tape():
        y = ad.mul(x, x)
        with pytest.raises(ShapeError):
            ad.backward(y)
        loss = ad.reduce_sum(y)
        ad.backward(loss)
        with pytest.raises(ContractError):
            ad.backward(loss)
    with pytest.raises(ContractError):
        ad.backward(ad.reduce_sum(ad.mul(x, x)))


def test_no_tape_means_plain_numpy():
    x = ad.parameter([[1.0, 2.0]])
    y = ad.mul(x, x)
    assert y._node is None
    np.testing.assert_allclose(y.data, [[1.0, 4.0]])


def test_scalar_and_1d_wrapping():
    t = ad.constant(3.0)
    assert t.shape == (1, 1)
    with pytest.raises(ShapeError):
        ad.constant(np.array([1.0, 2.0]))


def test_shape_errors():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((4, 3)))
    with pytest.raises(ShapeError):
        ad.matmul(a, b)
    with pytest.raises(ShapeError):
        ad.add(a, b)
    with pytest.raises(ShapeError):
        ad.concat_cols(a, b)


def test_numeric_errors():
    with pytest.raises(NumericError):
        ad.log(ad.constant([[0.0, 1.0]]))
    with pytest.raises(NumericError):
        ad.log(ad.constant([[np.nan, 1.0]]))
    with pytest.raises(NumericError):
        ad.softmax_rows(ad.constant([[np.inf, 1.0]]))


def test_log_sigmoid_stable_at_extremes():
    x = ad.constant([[-1000.0, 0.0, 1000.0]])
    y = ad.log_sigmoid(x)
    assert np.all(np.isfinite(y.data[0, 1:]))
    np.testing.assert_allclose(y.data[0, 0], -1000.0)
    np.testing.assert_allclose(y.data[0, 2], 0.0, atol=1e-12)


def test_sgd_descends_quadratic():
    w = ad.parameter([[5.0, -3.0]])
    opt = ad.Sgd([w], lr=0.1)
    for _ in range(100):
        opt.zero_grad()
        with ad.Tape():
            loss = ad.reduce_sum(ad.mul(w, w))
            ad.backward(loss)
        opt.step()
    np.testing.assert_allclose(w.data, 0.0, atol=1e-6)


def test_adam_descends_quadratic():
    w = ad.parameter([[5.0, -3.0]])
    opt = ad.Adam([w], lr=0.2)
    for _ in range(300):
        opt.zero_grad()
        with ad.Tape():
            loss = ad.reduce_sum(ad.mul(w, w))
            ad.backward(loss)
        opt.step()
    np.testing.assert_allclose(w.data, 0.0, atol=1e-4)


def test_optimizer_rejects_non_finite_gradient():
    w = ad.parameter([[1.0]])
    w.grad = np.array([[np.nan]])
    with pytest.raises(NumericError):
        ad.Sgd([w]).step()
    with pytest.raises(NumericError):
        ad.Adam([w]).step()


@pytest.mark.parametrize("make", [ad.Sgd, ad.Adam])
def test_optimizer_checks_every_gradient_before_writing(make):
    a = ad.parameter([[1.0]])
    b = ad.parameter([[2.0]])
    a.grad = np.array([[5.0]])
    b.grad = np.array([[np.nan]])
    opt = make([a, b], lr=0.1)
    with pytest.raises(NumericError):
        opt.step()
    assert a.data[0, 0] == 1.0 and b.data[0, 0] == 2.0
    b.grad = np.array([[1.0]])
    opt.step()  # a failed Adam step does not count toward bias correction
    fresh = [ad.parameter([[1.0]]), ad.parameter([[2.0]])]
    fresh[0].grad, fresh[1].grad = a.grad, b.grad
    make(fresh, lr=0.1).step()
    assert a.data[0, 0] == fresh[0].data[0, 0]
    assert b.data[0, 0] == fresh[1].data[0, 0]


def test_make_optimizer_dispatch():
    w = ad.parameter([[1.0]])
    assert isinstance(ad.make_optimizer("sgd", [w]), ad.Sgd)
    assert isinstance(ad.make_optimizer("adam", [w]), ad.Adam)
    with pytest.raises(ContractError):
        ad.make_optimizer("rmsprop", [w])


def test_momentum_sgd_still_converges():
    w = ad.parameter([[4.0]])
    opt = ad.Sgd([w], lr=0.05, momentum=0.9)
    for _ in range(200):
        opt.zero_grad()
        with ad.Tape():
            ad.backward(ad.reduce_sum(ad.mul(w, w)))
        opt.step()
    np.testing.assert_allclose(w.data, 0.0, atol=1e-5)
