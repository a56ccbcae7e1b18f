"""Reverse-mode automatic differentiation over dense arrays.

Node values are arrays of any rank.  The elementwise primitives
(:func:`add`, :func:`sub`, :func:`mul`, :func:`div`) and :func:`dot`
broadcast their operands the way numpy does, and their vjps sum each
gradient back over the axes its operand was broadcast along, so a
``(d,)`` bias adds to ``(B, d)`` rows and a ``(D, 1, 1)`` weight
scales ``(D, E, B)`` terms.  :func:`linear` multiplies over the last
two axes and broadcasts the leading ones, so one node applies a stack
of ``E`` weight matrices to a batch.  :func:`dot`, :func:`sq_norm`
and :func:`norm_eps` reduce the last axis, and :func:`vsum` sums
everything or one axis.  The tape losses use this to take a latent
batch ``B`` as the rows of ``(B, d)`` values; the target domains and
the encoder ensemble stay Python loops of per-domain terms, so the
tape oracle shares none of the closed-form objective's ``(D, E, B, d)``
stacking (:class:`hda.losses.ObjectivePlan`).

The engine is a classic Wengert list.  Every primitive appends one
``TapeNode`` holding the operation kind, the indices of its parents and
the cached forward value.  Nodes are appended in evaluation order, so
parent indices are always strictly smaller than a node's own index and
the backward sweep is a single pass over the nodes in decreasing index
order: each node is touched exactly once.  A tape gets one sweep, which
sets its nodes' gradients.

Nodes created through :meth:`Tape.constant` are excluded from gradient
propagation, which keeps frozen weights (source generator, encoders,
subspace matrices) out of the backward sweep entirely.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, NumericalError

Array = np.ndarray

VjpFn = Callable[[Array], tuple[Array, ...]]


def _as_array(value) -> Array:
    return np.array(value, dtype=np.float64)


#: Largest rows x inner x columns product (multiply-adds) handed to one
#: BLAS call by :func:`matmul_rows`, which says why it is 2^18.
SERIAL_GEMM_SIZE = 1 << 18


def matmul_rows(x: Array, m: Array) -> Array:
    """``x @ m`` in row blocks, each written into one preallocated output.

    ``x`` is a ``(d,)`` vector or ``(..., n, d)`` rows and ``m`` a
    ``(d, k)`` matrix or a ``(..., d, k)`` stack; leading axes broadcast
    as in ``np.matmul``, which runs a stacked product as one BLAS call
    per matrix slice.  Each call's product stays at or below
    :data:`SERIAL_GEMM_SIZE` = 2^18 multiply-adds, so every BLAS call runs
    on one thread, and each slice of a stacked product equals the 2-D
    product of that slice bit for bit.

    OpenBLAS may wake its worker threads for a larger GEMM, which for
    these small matrices is slower and, on a busy box, erratic from one
    call to the next.  Over 20,000 warm products on a 2-core Xeon with
    OpenBLAS 0.3.31, the worker thread ran 0 CPU ticks at 2^18 and 2^19
    multiply-adds and 73-79 at 2^20.  A 512 x 32 x 32 (2^19) product once
    woke it on that box, though, so the cap is 2^18, not 2^19: a factor
    of 2 under the smallest product seen to wake it.
    """
    if x.ndim < 2 or x.shape[-2] * m.shape[-2] * m.shape[-1] <= SERIAL_GEMM_SIZE:
        return x @ m
    block = max(1, SERIAL_GEMM_SIZE // max(1, m.shape[-2] * m.shape[-1]))
    lead = np.broadcast_shapes(x.shape[:-2], m.shape[:-2])
    out = np.empty((*lead, x.shape[-2], m.shape[-1]), dtype=np.result_type(x, m))
    for i in range(0, x.shape[-2], block):
        np.matmul(x[..., i:i + block, :], m, out=out[..., i:i + block, :])
    return out


@dataclass
class TapeNode:
    op: str
    parents: tuple[int, ...]
    value: Array
    requires_grad: bool
    vjp: Optional[VjpFn]
    grad: Optional[Array] = None


class Var:
    """Handle to a single node on a :class:`Tape`."""

    __slots__ = ("tape", "index")

    def __init__(self, tape: "Tape", index: int):
        self.tape = tape
        self.index = index

    @property
    def node(self) -> TapeNode:
        return self.tape.nodes[self.index]

    @property
    def value(self) -> Array:
        return self.node.value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.node.value.shape

    @property
    def grad(self) -> Array:
        g = self.node.grad
        if g is None:
            return np.zeros_like(self.node.value)
        return np.asarray(g)

    def item(self) -> float:
        return float(self.node.value)

    def __add__(self, other: "Var") -> "Var":
        return add(self, other)

    def __rmul__(self, other):
        return smul(float(other), self)

    def __repr__(self) -> str:
        return f"Var(op={self.node.op!r}, shape={self.shape})"


class Tape:
    """Append-only record of a differentiable computation."""

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self.last_backward_visits = 0

    def __len__(self) -> int:
        return len(self.nodes)

    def _append(self, op, value, parents, vjp, requires_grad) -> Var:
        self.nodes.append(TapeNode(op, parents, value, requires_grad, vjp))
        return Var(self, len(self.nodes) - 1)

    def variable(self, value) -> Var:
        """Leaf that participates in gradient propagation."""
        return self._append("leaf", _as_array(value), (), None, True)

    def constant(self, value) -> Var:
        """Leaf excluded from gradient propagation."""
        return self._append("const", _as_array(value), (), None, False)

    def backward(self, out: Var, seed: float = 1.0) -> None:
        """Set ``node.grad`` to d(out)/d(node) for every node ``out`` reaches.

        ``out`` must be a scalar on this tape.  A tape is built for one
        ``backward``: a second call overwrites the gradients it reaches.
        """
        if out.tape is not self:
            raise ValueError("output belongs to a different tape")
        if out.node.value.shape != ():
            raise DimensionError("backward requires a scalar output")
        pending: list[Optional[Array]] = [None] * (out.index + 1)
        pending[out.index] = np.asarray(float(seed), dtype=np.float64)
        visits = 0
        for i in range(out.index, -1, -1):
            visits += 1
            g = pending[i]
            if g is None:
                continue
            pending[i] = None
            node = self.nodes[i]
            node.grad = g
            if node.vjp is None:
                continue
            parent_grads = node.vjp(g)
            for parent, pg in zip(node.parents, parent_grads):
                pnode = self.nodes[parent]
                if not pnode.requires_grad:
                    continue
                pending[parent] = pg if pending[parent] is None else pending[parent] + pg
        self.last_backward_visits = visits


def _same_tape(a: Var, b: Var) -> Tape:
    if a.tape is not b.tape:
        raise ValueError("operands live on different tapes")
    return a.tape


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``g`` over the axes along which an operand of ``shape`` was broadcast."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def _binary(op: str, a: Var, b: Var, forward, grads) -> Var:
    """Append a broadcasting two-operand node.

    ``forward(va, vb)`` gives the value and ``grads(g, va, vb)`` the two
    vjps at the broadcast shape; each is summed back to its operand's shape.
    """
    tape = _same_tape(a, b)
    va, vb = a.value, b.value
    try:
        value = forward(va, vb)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None
    need_a, need_b = a.node.requires_grad, b.node.requires_grad

    def vjp(g: Array):
        ga, gb = grads(g, va, vb)
        return (
            _unbroadcast(ga, va.shape) if need_a else None,
            _unbroadcast(gb, vb.shape) if need_b else None,
        )

    return tape._append(op, value, (a.index, b.index), vjp, need_a or need_b)


def add(a: Var, b: Var) -> Var:
    return _binary("add", a, b, np.add, lambda g, va, vb: (g, g))


def sub(a: Var, b: Var) -> Var:
    return _binary("sub", a, b, np.subtract, lambda g, va, vb: (g, -g))


def smul(c: float, a: Var) -> Var:
    c = float(c)

    def vjp(g: Array):
        return (c * g,)

    return a.tape._append("smul", c * a.value, (a.index,), vjp, a.node.requires_grad)


def mul(a: Var, b: Var) -> Var:
    return _binary("mul", a, b, np.multiply, lambda g, va, vb: (g * vb, g * va))


def div(a: Var, b: Var) -> Var:
    return _binary(
        "div", a, b, np.divide, lambda g, va, vb: (g / vb, -g * va / (vb * vb))
    )


def linear(x: Var, w: Var) -> Var:
    """``x @ wᵀ`` over the last two axes.

    ``x`` is a ``(n,)`` vector or ``(..., B, n)`` rows and ``w`` an
    ``(m, n)`` weight or an ``(..., m, n)`` stack of them; the leading
    axes broadcast, so ``(B, n)`` rows against ``(E, m, n)`` weights
    give ``(E, B, m)``.
    """
    tape = _same_tape(x, w)
    vx, vw = x.value, w.value
    if vw.ndim < 2 or vx.ndim < (1 if vw.ndim == 2 else 2):
        raise DimensionError(f"linear needs rows and a matrix, got {x.shape}, {w.shape}")
    if x.shape[-1] != w.shape[-1]:
        raise DimensionError(f"linear: {x.shape} does not fit weight {w.shape}")
    need_x, need_w = x.node.requires_grad, w.node.requires_grad

    def vjp(g: Array):
        # frozen weights and inputs get no gradient, so skip their products
        gx = _unbroadcast(matmul_rows(g, vw), vx.shape) if need_x else None
        gw = None
        if need_w:
            g2, x2 = (g[None], vx[None]) if vx.ndim == 1 else (g, vx)
            gw = _unbroadcast(matmul_rows(np.swapaxes(g2, -1, -2), x2), vw.shape)
        return gx, gw

    out = matmul_rows(vx, np.swapaxes(vw, -1, -2))
    return tape._append("linear", out, (x.index, w.index), vjp, need_x or need_w)


def tanh(a: Var) -> Var:
    t = np.tanh(a.value)

    def vjp(g: Array):
        return (g * (1.0 - t * t),)

    return a.tape._append("tanh", t, (a.index,), vjp, a.node.requires_grad)


def relu(a: Var) -> Var:
    va = a.value
    out = np.where(va > 0.0, va, 0.0)

    def vjp(g: Array):
        # subgradient 0 at the kink
        return (np.where(va > 0.0, g, 0.0),)

    return a.tape._append("relu", out, (a.index,), vjp, a.node.requires_grad)


def vsum(a: Var, axis: Optional[int] = None) -> Var:
    """Sum of all entries, or over one ``axis``, which the result drops."""
    va = a.value
    out = np.asarray(va.sum(axis=axis))
    kept = out.shape  # the gradient's shape before it broadcasts back over ``va``
    if axis is not None:
        axis %= va.ndim
        kept = va.shape[:axis] + (1,) + va.shape[axis + 1:]

    def vjp(g: Array):
        return (np.reshape(g, kept) * np.ones_like(va),)

    return a.tape._append("sum", out, (a.index,), vjp, a.node.requires_grad)


def reshape(a: Var, shape: tuple[int, ...]) -> Var:
    va = a.value

    def vjp(g: Array):
        return (np.reshape(g, va.shape),)

    return a.tape._append("reshape", va.reshape(shape), (a.index,), vjp, a.node.requires_grad)


def sq_norm(a: Var) -> Var:
    """Sum of squared entries over the last axis."""
    va = a.value

    def vjp(g: Array):
        return ((2.0 * g)[..., None] * va,)

    return a.tape._append(
        "sqnorm", np.asarray((va * va).sum(axis=-1)), (a.index,), vjp, a.node.requires_grad
    )


def dot(a: Var, b: Var) -> Var:
    """Inner product over the last axis; the other axes broadcast."""
    if a.value.ndim < 1 or b.value.ndim < 1 or a.shape[-1] != b.shape[-1]:
        raise DimensionError(f"dot: shapes {a.shape} and {b.shape} differ in the last axis")

    def grads(g, va, vb):
        g = g[..., None]
        return g * vb, g * va

    return _binary("dot", a, b, lambda va, vb: np.asarray((va * vb).sum(axis=-1)), grads)


def norm_eps(a: Var, eps: float) -> Var:
    """``sqrt(|a|^2 + eps^2)`` over the last axis: a strictly positive, smooth norm."""
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError("norm_eps requires eps > 0")
    va = a.value
    n = np.asarray(np.sqrt((va * va).sum(axis=-1) + eps * eps))

    def vjp(g: Array):
        return ((g / n)[..., None] * va,)

    return a.tape._append("norm_eps", n, (a.index,), vjp, a.node.requires_grad)


#: The central-difference step of :func:`grad_check`.
GRAD_CHECK_STEP = 1e-6

#: The smallest gradient scale whose relative error :func:`grad_check` compares.
GRAD_CHECK_FLOOR = 1e-6


@dataclass
class GradCheckReport:
    """Outcome of one tape-vs-central-differences comparison.

    Coordinates whose reference scale ``max(|analytic|, |numeric|)``
    falls below :data:`GRAD_CHECK_FLOOR` carry no meaningful relative error; they
    are listed in ``skipped`` instead of entering ``max_rel_error``.
    """

    name: str
    tol: float
    max_rel_error: float
    n_checked: int
    skipped: list[tuple[int, float, float]]

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: max rel err {self.max_rel_error:.3e} "
            f"(tol {self.tol:.1e}, {self.n_checked} coords checked, "
            f"{len(self.skipped)} skipped)"
        )


def grad_check(
    f,
    params: Array,
    tol: float = 1e-5,
    name: str = "gradcheck",
) -> GradCheckReport:
    """Compare a program's gradient against central finite differences.

    ``f`` maps a flat parameter vector to ``(value, gradient)`` where the
    gradient has the same length as the parameters.  Raises
    :class:`NumericalError` if any probed value is non-finite.
    """
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1:
        raise DimensionError("grad_check expects a flat parameter vector")
    value, analytic = f(params)
    analytic = np.asarray(analytic, dtype=np.float64)
    if not np.isfinite(float(value)):
        raise NumericalError(f"{name}: non-finite value at the base point")
    if analytic.shape != params.shape:
        raise DimensionError(
            f"{name}: gradient shape {analytic.shape} does not match params {params.shape}"
        )
    if not np.all(np.isfinite(analytic)):
        raise NumericalError(f"{name}: non-finite gradient at the base point")

    max_rel = 0.0
    n_checked = 0
    skipped: list[tuple[int, float, float]] = []
    probe = params.copy()
    for j in range(params.size):
        probe[j] = params[j] + GRAD_CHECK_STEP
        f_plus = float(f(probe)[0])
        probe[j] = params[j] - GRAD_CHECK_STEP
        f_minus = float(f(probe)[0])
        probe[j] = params[j]
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericalError(f"{name}: non-finite value while probing coordinate {j}")
        numeric = (f_plus - f_minus) / (2.0 * GRAD_CHECK_STEP)
        denom = max(abs(analytic[j]), abs(numeric))
        if denom < GRAD_CHECK_FLOOR:
            skipped.append((j, float(analytic[j]), float(numeric)))
            continue
        rel = abs(analytic[j] - numeric) / denom
        max_rel = max(max_rel, rel)
        n_checked += 1
    return GradCheckReport(
        name=name,
        tol=tol,
        max_rel_error=max_rel,
        n_checked=n_checked,
        skipped=skipped,
    )
