"""Reverse-mode automatic differentiation over dense arrays.

Node values are dense arrays: ``(d,)`` vectors and ``(B, d)`` rows.
:func:`add` takes operands of one shape, or one that lacks the other's
leading axes, so a ``(d,)`` bias adds to ``(B, d)`` rows; its vjp sums
each gradient back over the axes its operand lacks.  :func:`linear`
applies one ``(m, n)`` weight to a vector or to rows by a plain ``@``,
one serial BLAS call (the package pins OpenBLAS to one thread).  These and
:func:`tanh` and :func:`relu` are what the tape generator and encoder
(:func:`hda.worlds.generator_forward_var`, :func:`hda.worlds.encode_var`)
build, and :meth:`Tape.backward` takes a cotangent of its output's
shape, so no primitive reduces.  Training builds no tape: it runs the
closed-form objective (:class:`hda.losses.ObjectivePlan`).  The
primitives are checked against central differences
(:mod:`hda.diagnostics`).

The engine is a classic Wengert list.  Every primitive appends one
``TapeNode`` holding the operation kind, the indices of its parents and
the cached forward value.  Nodes are appended in evaluation order, so
parent indices are always strictly smaller than a node's own index and
the backward sweep is a single pass over the nodes in decreasing index
order: each node is touched exactly once.  A tape gets one sweep, which
sets its nodes' gradients.

Nodes created through :meth:`Tape.constant` are excluded from gradient
propagation, which keeps frozen weights (the encoders') out of the
backward sweep entirely.
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

    def backward(self, out: Var, seed=1.0) -> None:
        """Set ``node.grad`` to ``seed``'s vector-Jacobian product with d(out)/d(node).

        ``seed`` is a cotangent of ``out``'s shape, so a scalar output
        keeps the default 1.0 and a weight ``w`` seeds the gradient of
        ``sum(out * w)``.  Every node ``out`` reaches gets a gradient.  A
        tape is built for one ``backward``: a second call overwrites the
        gradients it reaches.
        """
        if out.tape is not self:
            raise ValueError("output belongs to a different tape")
        seed = _as_array(seed)
        if seed.shape != out.shape:
            raise DimensionError(f"backward: a cotangent of shape {seed.shape} for {out.shape}")
        pending: list[Optional[Array]] = [None] * (out.index + 1)
        pending[out.index] = seed
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
    """Sum ``g`` over the leading axes that an operand of ``shape`` lacks."""
    if g.ndim == len(shape):
        return g
    return g.sum(axis=tuple(range(g.ndim - len(shape))))


def add(a: Var, b: Var) -> Var:
    """``a + b``: one shape, or one lacking leading axes of the other.

    A ``(d,)`` bias adds to ``(B, d)`` rows, and its gradient is summed
    back over the rows; any other pair of shapes is a
    :class:`DimensionError`.
    """
    tape = _same_tape(a, b)
    va, vb = a.value, b.value
    short, long = sorted((va.shape, vb.shape), key=len)
    if long[len(long) - len(short):] != short:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not match")
    need_a, need_b = a.node.requires_grad, b.node.requires_grad

    def vjp(g: Array):
        return (
            _unbroadcast(g, va.shape) if need_a else None,
            _unbroadcast(g, vb.shape) if need_b else None,
        )

    return tape._append("add", va + vb, (a.index, b.index), vjp, need_a or need_b)


def linear(x: Var, w: Var) -> Var:
    """``x @ wᵀ``: a ``(n,)`` vector or ``(B, n)`` rows times one ``(m, n)`` weight."""
    tape = _same_tape(x, w)
    vx, vw = x.value, w.value
    if vw.ndim != 2 or vx.ndim not in (1, 2) or vx.shape[-1] != vw.shape[1]:
        raise DimensionError(f"linear: {x.shape} does not fit weight {w.shape}")
    need_x, need_w = x.node.requires_grad, w.node.requires_grad

    def vjp(g: Array):
        # frozen weights and inputs get no gradient, so skip their products
        gx = g @ vw if need_x else None
        gw = np.atleast_2d(g).T @ np.atleast_2d(vx) if need_w else None
        return gx, gw

    out = vx @ vw.T
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
    tol: float,
    name: str,
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
