"""Reverse-mode automatic differentiation over dense arrays.

Node values are vectors and matrices, and a value may carry a leading
batch axis: ``(B, d)`` rows flow through :func:`linear` and
:func:`bias_add`, and :func:`dot`, :func:`sq_norm` and :func:`norm_eps`
reduce over the last axis, so a ``(d,)`` input gives a scalar and a
``(B, d)`` input gives a ``(B,)`` vector.  One tape therefore carries a
whole latent batch.

The engine is a classic Wengert list.  Every primitive appends one
``TapeNode`` holding the operation kind, the indices of its parents and
the cached forward value.  Nodes are appended in evaluation order, so
parent indices are always strictly smaller than a node's own index and
the backward sweep is a single pass over the nodes in decreasing index
order: each node is touched exactly once.

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


#: Largest rows x inner x columns product handed to one BLAS call.  OpenBLAS
#: runs a GEMM this small on the calling thread; above it, it may wake its
#: worker threads, which for these small matrices is slower and, on a busy
#: box, erratic from one call to the next.
SERIAL_GEMM_SIZE = 1 << 16


def matmul_rows(x: Array, m: Array) -> Array:
    """``x @ m`` for a ``(d,)`` vector or ``(n, d)`` rows, in row blocks.

    Each block's product stays at or below :data:`SERIAL_GEMM_SIZE`, so
    every BLAS call runs on one thread.
    """
    if x.ndim != 2:
        return x @ m
    block = max(1, SERIAL_GEMM_SIZE // max(1, m.shape[0] * m.shape[1]))
    if x.shape[0] <= block:
        return x @ m
    return np.concatenate([x[i:i + block] @ m for i in range(0, x.shape[0], block)])


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

    def __sub__(self, other: "Var") -> "Var":
        return sub(self, other)

    def __neg__(self) -> "Var":
        return smul(-1.0, self)

    def __mul__(self, other):
        if isinstance(other, Var):
            return mul(self, other)
        return smul(float(other), self)

    def __rmul__(self, other):
        return smul(float(other), self)

    def __truediv__(self, other):
        if isinstance(other, Var):
            return div(self, other)
        return smul(1.0 / float(other), self)

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

    def zero_grad(self) -> None:
        for node in self.nodes:
            node.grad = None

    def backward(self, out: Var, seed: float = 1.0) -> None:
        """Accumulate d(out)/d(node) into ``node.grad`` for every node.

        ``out`` must be a scalar on this tape.  Gradients add up across
        calls; use :meth:`zero_grad` to reset them.
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
            node.grad = g if node.grad is None else node.grad + g
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


def _require_same_shape(op: str, a: Var, b: Var) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    _require_same_shape("add", a, b)
    req = a.node.requires_grad or b.node.requires_grad

    def vjp(g: Array):
        return g, g

    return tape._append("add", a.value + b.value, (a.index, b.index), vjp, req)


def sub(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    _require_same_shape("sub", a, b)
    req = a.node.requires_grad or b.node.requires_grad

    def vjp(g: Array):
        return g, -g

    return tape._append("sub", a.value - b.value, (a.index, b.index), vjp, req)


def smul(c: float, a: Var) -> Var:
    c = float(c)

    def vjp(g: Array):
        return (c * g,)

    return tape_of(a)._append("smul", c * a.value, (a.index,), vjp, a.node.requires_grad)


def mul(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    _require_same_shape("mul", a, b)
    va, vb = a.value, b.value
    req = a.node.requires_grad or b.node.requires_grad

    def vjp(g: Array):
        return g * vb, g * va

    return tape._append("mul", va * vb, (a.index, b.index), vjp, req)


def div(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    _require_same_shape("div", a, b)
    va, vb = a.value, b.value
    req = a.node.requires_grad or b.node.requires_grad

    def vjp(g: Array):
        return g / vb, -g * va / (vb * vb)

    return tape._append("div", va / vb, (a.index, b.index), vjp, req)


def linear(x: Var, w: Var) -> Var:
    """``x @ w.T`` for a ``(n,)`` or ``(B, n)`` input and an ``(m, n)`` weight."""
    tape = _same_tape(x, w)
    if x.value.ndim not in (1, 2) or w.value.ndim != 2:
        raise DimensionError(f"linear needs rows and a matrix, got {x.shape}, {w.shape}")
    if x.shape[-1] != w.shape[1]:
        raise DimensionError(f"linear: {x.shape} does not fit weight {w.shape}")
    vx, vw = x.value, w.value
    m, n = vw.shape
    need_x, need_w = x.node.requires_grad, w.node.requires_grad

    def vjp(g: Array):
        # frozen weights and inputs get no gradient, so skip their products
        gx = g @ vw if need_x else None
        gw = g.reshape(-1, m).T @ vx.reshape(-1, n) if need_w else None
        return gx, gw

    return tape._append(
        "linear", matmul_rows(vx, vw.T), (x.index, w.index), vjp, need_x or need_w
    )


def bias_add(x: Var, b: Var) -> Var:
    """``x + b`` with a ``(d,)`` bias broadcast over the rows of ``x``."""
    tape = _same_tape(x, b)
    if b.value.ndim != 1 or x.shape[-1:] != b.shape:
        raise DimensionError(f"bias_add: bias {b.shape} does not fit rows {x.shape}")
    d = b.shape[0]
    req = x.node.requires_grad or b.node.requires_grad

    def vjp(g: Array):
        return g, g.reshape(-1, d).sum(axis=0)

    return tape._append("bias_add", x.value + b.value, (x.index, b.index), vjp, req)


def tanh(a: Var) -> Var:
    t = np.tanh(a.value)

    def vjp(g: Array):
        return (g * (1.0 - t * t),)

    return tape_of(a)._append("tanh", t, (a.index,), vjp, a.node.requires_grad)


def relu(a: Var) -> Var:
    va = a.value
    out = np.where(va > 0.0, va, 0.0)

    def vjp(g: Array):
        # subgradient 0 at the kink
        return (np.where(va > 0.0, g, 0.0),)

    return tape_of(a)._append("relu", out, (a.index,), vjp, a.node.requires_grad)


def vsum(a: Var) -> Var:
    va = a.value

    def vjp(g: Array):
        return (g * np.ones_like(va),)

    return tape_of(a)._append("sum", np.asarray(va.sum()), (a.index,), vjp, a.node.requires_grad)


def sq_norm(a: Var) -> Var:
    """Sum of squared entries over the last axis."""
    va = a.value

    def vjp(g: Array):
        return ((2.0 * g)[..., None] * va,)

    return tape_of(a)._append(
        "sqnorm", np.asarray((va * va).sum(axis=-1)), (a.index,), vjp, a.node.requires_grad
    )


def dot(a: Var, b: Var) -> Var:
    """Inner product over the last axis."""
    tape = _same_tape(a, b)
    if a.value.ndim not in (1, 2):
        raise DimensionError(f"dot needs vectors or rows, got {a.shape}, {b.shape}")
    _require_same_shape("dot", a, b)
    va, vb = a.value, b.value
    req = a.node.requires_grad or b.node.requires_grad

    def vjp(g: Array):
        g = g[..., None]
        return g * vb, g * va

    out = np.asarray((va * vb).sum(axis=-1))
    return tape._append("dot", out, (a.index, b.index), vjp, req)


def norm_eps(a: Var, eps: float) -> Var:
    """``sqrt(|a|^2 + eps^2)`` over the last axis: a strictly positive, smooth norm."""
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError("norm_eps requires eps > 0")
    va = a.value
    n = np.asarray(np.sqrt((va * va).sum(axis=-1) + eps * eps))

    def vjp(g: Array):
        return ((g / n)[..., None] * va,)

    return tape_of(a)._append("norm_eps", n, (a.index,), vjp, a.node.requires_grad)


def tape_of(a: Var) -> Tape:
    return a.tape


@dataclass
class GradCheckReport:
    """Outcome of one tape-vs-central-differences comparison.

    Coordinates whose reference scale ``max(|analytic|, |numeric|)``
    falls below ``denom_floor`` carry no meaningful relative error; they
    are listed in ``skipped`` instead of entering ``max_rel_error``.
    """

    name: str
    tol: float
    max_rel_error: float
    n_checked: int
    skipped: list[tuple[int, float, float]]
    value: float

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
    h: float = 1e-6,
    tol: float = 1e-5,
    denom_floor: float = 1e-6,
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
    value = float(value)
    analytic = np.asarray(analytic, dtype=np.float64)
    if not np.isfinite(value):
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
        probe[j] = params[j] + h
        f_plus = float(f(probe)[0])
        probe[j] = params[j] - h
        f_minus = float(f(probe)[0])
        probe[j] = params[j]
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericalError(f"{name}: non-finite value while probing coordinate {j}")
        numeric = (f_plus - f_minus) / (2.0 * h)
        denom = max(abs(analytic[j]), abs(numeric))
        if denom < denom_floor:
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
        value=value,
    )
