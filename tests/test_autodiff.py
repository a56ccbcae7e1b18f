"""Tape-based reverse-mode differentiation against hand values and FD."""

import numpy as np
import pytest

from hda import autodiff as ad
from hda.autodiff import Tape, grad_check
from hda.errors import DimensionError
from hda.metrics import _augmented
from hda.seeding import stream_rng
from hda.subspace import project
from hda.worlds import PARAM_FIELDS, encode, stack_encoders


def test_matrix_gradient_matches_fd():
    rng = stream_rng(0, "autodiff-test")
    m0 = rng.standard_normal((8, 8))
    v = rng.standard_normal(8)

    def f(p):
        tape = Tape()
        m = tape.variable(p.reshape(8, 8))
        out = ad.linear(tape.constant(v), m)
        # seeded with 2 out, backward gives the gradient of |out|^2
        tape.backward(out, 2.0 * out.value)
        return float((out.value * out.value).sum()), m.grad.ravel()

    report = grad_check(f, m0.ravel(), tol=1e-6, name="linear, squared")
    assert report.passed, report.summary()
    assert report.n_checked == 64


def test_constants_receive_no_gradient():
    tape = Tape()
    x = tape.variable(np.array([1.0, -2.0]))
    c = tape.constant(np.array([3.0, 4.0]))
    y = ad.add(x, c)
    tape.backward(y, 2.0 * y.value)
    np.testing.assert_array_equal(c.grad, np.zeros(2))
    np.testing.assert_allclose(x.grad, 2.0 * (x.value + c.value), rtol=1e-12)


def test_backward_visits_each_node_once():
    # one reverse sweep over the tape, even with a reused intermediate
    tape = Tape()
    x = tape.variable(np.array([0.3, -0.7]))
    h = ad.tanh(x)
    y = ad.add(h, h)
    tape.backward(y, np.ones(2))
    assert tape.last_backward_visits == y.index + 1


def test_reused_node_accumulates_both_paths():
    tape = Tape()
    x = tape.variable(np.array([2.0]))
    y = ad.add(x, x)
    tape.backward(y, np.ones(1))
    np.testing.assert_allclose(x.grad, [2.0], rtol=1e-12)


def test_backward_requires_scalar():
    # the default seed 1.0 fits a scalar output only; any other output
    # takes a cotangent of its own shape
    tape = Tape()
    x = tape.variable(np.array([1.0, 2.0]))
    h = ad.tanh(x)
    with pytest.raises(DimensionError):
        tape.backward(h)
    with pytest.raises(DimensionError):
        tape.backward(h, np.ones(3))
    with pytest.raises(DimensionError):
        tape.backward(h, np.ones((1, 2)))


def test_backward_rejects_foreign_tape():
    tape_a, tape_b = Tape(), Tape()
    x = tape_a.variable(np.array([1.0]))
    with pytest.raises(ValueError):
        tape_b.backward(ad.add(x, x), np.ones(1))


def test_shape_mismatch_raises():
    tape = Tape()
    for op, a_shape, b_shape in (
        (ad.add, (3,), (4,)),
        # a size-1 axis does not broadcast: only missing leading axes do
        (ad.add, (2, 1, 1), (2, 3, 4)),
        # one weight, not a stack of them
        (ad.linear, (4, 6), (3, 5, 6)),
    ):
        a, b = tape.variable(np.zeros(a_shape)), tape.variable(np.zeros(b_shape))
        with pytest.raises(DimensionError):
            op(a, b)


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
        tape.backward(x, w)
        return float((x.value * w).sum()), x.grad

    report = grad_check(f, np.array([0.1, 0.2, 0.3]), tol=1e-9, name="linear")
    assert report.passed, report.summary()
    assert report.max_rel_error < 1e-9


def test_grad_check_reports_degenerate_coordinates():
    # a flat function has zero analytic and numeric slope everywhere;
    # those coordinates are skipped rather than compared
    def f(p):
        tape = Tape()
        x = tape.variable(p)
        tape.backward(x, np.zeros(3))
        return 0.0, x.grad

    report = grad_check(f, np.ones(3), tol=1e-5, name="flat")
    assert report.passed
    assert len(report.skipped) == 3
    assert report.n_checked == 0


def test_add_broadcasts_bias_and_sums_gradient_over_rows():
    tape = Tape()
    x = tape.variable(np.arange(6.0).reshape(3, 2))
    b = tape.variable(np.array([1.0, -1.0]))
    tape.backward(ad.add(x, b), np.ones((3, 2)))
    np.testing.assert_array_equal(b.grad, [3.0, 3.0])
    np.testing.assert_array_equal(x.grad, np.ones((3, 2)))
    with pytest.raises(DimensionError):
        ad.add(x, tape.constant(np.zeros(3)))


def test_stacked_product_is_each_slice_bit_for_bit():
    # one BLAS call per slice: source_embeddings, forward_stack and evaluate_stack rely on it
    rng = stream_rng(6, "autodiff-test")
    stack = rng.standard_normal((2, 3, 32, 16))
    for x in (
        rng.standard_normal((5, 32)),
        rng.standard_normal((3, 5, 32)),
        rng.standard_normal((1100, 32)),
    ):
        out = x @ stack
        assert out.shape == (2, 3, x.shape[-2], 16)
        for i, j in np.ndindex(2, 3):
            xs = x if x.ndim == 2 else x[j]
            np.testing.assert_array_equal(out[i, j], xs @ stack[i, j])


def _row_blocked(x, m):
    """``x @ m`` in row blocks of at most 2^18 multiply-adds each, one BLAS call a block.

    The route every large product took before the package pinned OpenBLAS
    to one thread, kept as the reference its stock shapes must still match.
    """
    block = (1 << 18) // (m.shape[-2] * m.shape[-1])
    return np.concatenate(
        [x[..., i:i + block, :] @ m for i in range(0, x.shape[-2], block)], axis=-2
    )


def test_stock_products_are_the_same_bits_under_either_cap(world, subspaces):
    """Every stock product shape gives the same bits as one ``@`` and as 2^18 row blocks."""
    source, held_out = world.source_generator, world.held_out_encoder
    sub = subspaces[held_out.encoder_id]["attr0"]
    rng = stream_rng(9, "autodiff-test")

    def mlp(x, w1, b1, w2, b2, act):
        hidden = act(_row_blocked(x, np.swapaxes(w1, -1, -2)) + b1)
        return _row_blocked(hidden, np.swapaxes(w2, -1, -2)) + b2

    def relu(a):
        return np.where(a > 0.0, a, 0.0)

    centred = rng.standard_normal((1024, world.config.d_e))
    left, right = _augmented(centred)
    refs = rng.standard_normal((20, world.config.d_e))
    block = _row_blocked(left[1:], right[:, :64])
    cases = {
        "diversity block, C-ordered": (left[1:] @ right[:, :64], block),
        "diversity block, F-ordered": (left[1:] @ np.asfortranarray(right)[:, :64], block),
        "nearest-reference Gram block": (centred @ refs.T, _row_blocked(centred, refs.T)),
    }
    gen = tuple(getattr(source, name) for name in PARAM_FIELDS)
    ensemble = stack_encoders(world.train_encoders)
    weights = tuple(getattr(held_out, name) for name in PARAM_FIELDS)
    for n in (128, 1024):
        z = rng.standard_normal((n, source.d_z))
        x = source.forward(z)
        f = encode(held_out, x)
        cases[f"forward {n}"] = (x, mlp(z, *gen, np.tanh))
        cases[f"encode {n}"] = (f, mlp(x, *weights, relu))
        cases[f"stacked encode {n}"] = (encode(world.train_encoders, x), mlp(x, *ensemble, relu))
        projected = _row_blocked(_row_blocked(f - sub.mean, sub.basis), sub.basis.T)
        cases[f"project {n}"] = (project(sub, f), projected + sub.mean)
    for name, (got, blocked) in cases.items():
        np.testing.assert_array_equal(got, blocked, err_msg=name)
