"""Tape-based reverse-mode differentiation against hand values and FD."""

import numpy as np
import pytest

from hda import autodiff as ad
from hda.autodiff import Tape, grad_check
from hda.errors import DimensionError
from hda.seeding import stream_rng


def test_sq_norm_gradient_hand_value():
    # d/dx (x . x) = 2x
    tape = Tape()
    x = tape.variable(np.array([1.0, 2.0, 3.0]))
    loss = ad.sq_norm(x)
    tape.backward(loss)
    assert loss.item() == pytest.approx(14.0, rel=1e-12)
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=1e-12)


def test_matrix_gradient_matches_fd():
    rng = stream_rng(0, "autodiff-test")
    m0 = rng.standard_normal((8, 8))
    v = rng.standard_normal(8)

    def f(p):
        tape = Tape()
        m = tape.variable(p.reshape(8, 8))
        out = ad.sq_norm(ad.linear(tape.constant(v), m))
        tape.backward(out)
        return out.item(), m.grad.ravel()

    report = grad_check(f, m0.ravel(), tol=1e-6, name="linear sq_norm")
    assert report.passed, report.summary()
    assert report.n_checked == 64


def test_constants_receive_no_gradient():
    tape = Tape()
    x = tape.variable(np.array([1.0, -2.0]))
    c = tape.constant(np.array([3.0, 4.0]))
    loss = ad.sq_norm(x + c)
    tape.backward(loss)
    np.testing.assert_array_equal(c.grad, np.zeros(2))
    np.testing.assert_allclose(x.grad, 2.0 * (x.value + c.value), rtol=1e-12)


def test_backward_visits_each_node_once():
    # one reverse sweep over the tape, even with a reused intermediate
    tape = Tape()
    x = tape.variable(np.array([0.3, -0.7]))
    h = ad.tanh(x)
    loss = ad.dot(h, h)
    tape.backward(loss)
    assert tape.last_backward_visits == loss.index + 1


def test_reused_node_accumulates_both_paths():
    tape = Tape()
    x = tape.variable(np.array([2.0]))
    y = x + x
    loss = ad.vsum(y)
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, [2.0], rtol=1e-12)


def test_gradients_accumulate_until_zero_grad():
    tape = Tape()
    x = tape.variable(np.array([1.0, 2.0]))
    loss = ad.sq_norm(x)
    tape.backward(loss)
    first = x.grad.copy()
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0 * first)
    tape.zero_grad()
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, first)


def test_backward_requires_scalar():
    tape = Tape()
    x = tape.variable(np.array([1.0, 2.0]))
    with pytest.raises(DimensionError):
        tape.backward(ad.tanh(x))


def test_backward_rejects_foreign_tape():
    tape_a, tape_b = Tape(), Tape()
    x = tape_a.variable(np.array([1.0]))
    loss = ad.vsum(x)
    with pytest.raises(ValueError):
        tape_b.backward(loss)


def test_shape_mismatch_raises():
    tape = Tape()
    a = tape.variable(np.zeros(3))
    b = tape.variable(np.zeros(4))
    with pytest.raises(DimensionError):
        ad.add(a, b)


def test_norm_eps_guards_zero_vector():
    tape = Tape()
    zero = tape.variable(np.zeros(4))
    n = ad.norm_eps(zero, 1e-8)
    assert n.item() == pytest.approx(1e-8, rel=1e-12)
    tape.backward(n)
    assert np.all(np.isfinite(zero.grad))


def test_norm_eps_matches_norm_away_from_zero():
    v = np.array([3.0, 4.0])
    tape = Tape()
    n = ad.norm_eps(tape.variable(v), 1e-8)
    assert n.item() == pytest.approx(5.0, rel=1e-12)


def test_relu_and_tanh_forward():
    tape = Tape()
    x = tape.variable(np.array([-1.0, 0.5]))
    np.testing.assert_allclose(ad.relu(x).value, [0.0, 0.5])
    np.testing.assert_allclose(ad.tanh(x).value, np.tanh([-1.0, 0.5]), rtol=1e-15)


def test_grad_check_exact_on_linear_function():
    w = np.array([1.5, -2.0, 0.25])

    def f(p):
        tape = Tape()
        x = tape.variable(p)
        out = ad.dot(x, tape.constant(w))
        tape.backward(out)
        return out.item(), x.grad

    report = grad_check(f, np.array([0.1, 0.2, 0.3]), tol=1e-9, name="linear")
    assert report.passed, report.summary()
    assert report.max_rel_error < 1e-9


def test_grad_check_reports_degenerate_coordinates():
    # a flat function has zero analytic and numeric slope everywhere;
    # those coordinates are skipped rather than compared
    def f(p):
        tape = Tape()
        x = tape.variable(p)
        out = ad.vsum(ad.smul(0.0, x))
        tape.backward(out)
        return out.item(), x.grad

    report = grad_check(f, np.ones(3), name="flat")
    assert report.passed
    assert len(report.skipped) == 3
    assert report.n_checked == 0


def test_row_wise_reductions_match_per_row_vectors():
    rows = stream_rng(2, "autodiff-test").standard_normal((3, 4))
    tape = Tape()
    x = tape.variable(rows)
    for op in (ad.sq_norm, lambda v: ad.norm_eps(v, 1e-8), lambda v: ad.dot(v, v)):
        batched = op(x)
        assert batched.shape == (3,)
        singles = [op(tape.variable(r)) for r in rows]
        assert all(s.shape == () for s in singles)
        np.testing.assert_allclose(batched.value, [s.item() for s in singles], rtol=1e-15)


def test_bias_add_gradient_sums_over_rows():
    tape = Tape()
    x = tape.variable(np.arange(6.0).reshape(3, 2))
    b = tape.variable(np.array([1.0, -1.0]))
    loss = ad.vsum(ad.bias_add(x, b))
    tape.backward(loss)
    np.testing.assert_array_equal(b.grad, [3.0, 3.0])
    np.testing.assert_array_equal(x.grad, np.ones((3, 2)))
    with pytest.raises(DimensionError):
        ad.bias_add(x, tape.constant(np.zeros(3)))


def test_matmul_rows_blocks_match_one_product():
    rng = stream_rng(3, "autodiff-test")
    m = rng.standard_normal((32, 16))
    block = ad.SERIAL_GEMM_SIZE // m.size
    for n in (1, block, block + 1, 3 * block + 5):
        x = rng.standard_normal((n, 32))
        out = ad.matmul_rows(x, m)
        assert out.shape == (n, 16)
        np.testing.assert_allclose(out, x @ m, rtol=1e-13, atol=1e-13)
    np.testing.assert_array_equal(ad.matmul_rows(x[0], m), x[0] @ m)
