"""Gradient-check batteries for the tape primitives and the closed-form objective.

Every check compares a gradient, the tape's or the closed-form
objective's, against central finite differences through
:func:`hda.autodiff.grad_check`.  Primitive checks weigh each
primitive's output to a scalar by seeding the tape's ``backward`` with
the weight, and run many random instances at a tight tolerance.  The
objective checks push gradients through :func:`hda.losses.hda_objective`
on toy setups, the degenerate start included; a coordinate whose
gradient is too small to compare is reported as skipped.  The
closed-form objective's reference, a complex step through its
written-out formulas, lives with its tests
(``tests/test_batched_objective.py``).
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import GradCheckReport, Tape, grad_check
from .losses import DomainWeight, hda_objective, loss_total
from .seeding import stream_rng
from .subspace import FeatureSet, build_subspace
from .worlds import (
    flatten_generator,
    make_encoder,
    make_source_generator,
    unflatten_generator,
)

Array = np.ndarray

PRIMITIVE_TOL = 1e-6
COMPOSITE_TOL = 1e-5


def _merge(name: str, tol: float, reports: list[GradCheckReport]) -> GradCheckReport:
    return GradCheckReport(
        name=name,
        tol=tol,
        max_rel_error=max(r.max_rel_error for r in reports),
        n_checked=sum(r.n_checked for r in reports),
        skipped=[s for r in reports for s in r.skipped],
    )


#: Batch size and row width of the batched (``*_rows``) cases.
_B, _D = 3, 5
_ROWS = (_B, _D)


def _draw(rng, shape, batched: bool = False) -> Array:
    """Probe values with magnitudes in [0.5, 1.5]: signed, or positive for batched cases.

    Central differences carry rounding noise at the loss scale, so a
    gradient coordinate far below it (a near-zero numerator, or a
    divisor near zero) cannot be compared at a tight bar; bounding the
    magnitudes keeps every coordinate at the loss scale, and keeps relu
    probes off the kink.  A batched case sums B times as many terms into
    its loss, and signed terms there can still cancel, so its entries
    are positive; the single-row cases keep random signs and cover them.
    """
    magnitude = rng.uniform(0.5, 1.5, shape)
    if batched:
        return magnitude
    return magnitude * rng.choice((-1.0, 1.0), shape)


def _shaped_builder(op, in_shapes, out_shape, batched: bool = False):
    """Operands of the given shapes, all differentiated, and a weight for the output.

    A build gives ``f(p) -> (value, gradient)`` for :func:`grad_check`,
    one fresh tape per call: ``p`` is cut into one variable per shape,
    in order, the value is ``sum(op(*args) * weight)``, each row's
    products summed first, and the gradient is the variables' gradients
    from a ``backward`` seeded with the weight, flattened and
    concatenated in the same order.
    """
    bounds = np.cumsum([0] + [int(np.prod(shape)) for shape in in_shapes])
    cuts = list(zip(bounds[:-1], bounds[1:], in_shapes))

    def build(rng):
        p0 = np.concatenate([_draw(rng, shape, batched).ravel() for shape in in_shapes])
        weight = _draw(rng, out_shape, batched)

        def f(p):
            tape = Tape()
            args = [tape.variable(p[lo:hi].reshape(shape)) for lo, hi, shape in cuts]
            out = op(*args)
            tape.backward(out, weight)
            value = float((out.value * weight).sum(axis=-1).sum())
            return value, np.concatenate([a.grad.ravel() for a in args])

        return f, p0

    return build


_PRIMITIVE_BUILDERS = {
    "add": _shaped_builder(ad.add, [(5,), (5,)], (5,)),
    "linear": _shaped_builder(ad.linear, [(4,), (3, 4)], (3,)),
    "linear_rows": _shaped_builder(ad.linear, [_ROWS, (3, _D)], (_B, 3), batched=True),
    "add_bias_rows": _shaped_builder(ad.add, [_ROWS, (_D,)], _ROWS, batched=True),
    "tanh": _shaped_builder(ad.tanh, [(6,)], (6,)),
    "relu": _shaped_builder(ad.relu, [(6,)], (6,)),
}


def primitive_suite(n_instances: int, seed: int) -> list[GradCheckReport]:
    """One aggregated report per primitive over ``n_instances`` instances."""
    out = []
    for name, build in _PRIMITIVE_BUILDERS.items():
        rng = stream_rng(seed, "gradcheck", name)
        reports = []
        for i in range(n_instances):
            f, params = build(rng)
            reports.append(grad_check(f, params, tol=PRIMITIVE_TOL, name=f"{name}[{i}]"))
        out.append(_merge(f"primitive {name} ({n_instances} instances)", PRIMITIVE_TOL, reports))
    return out


def _toy_objective_setup(seed: int, batch: int, n_encoders: int, unequal_ranks: bool):
    """Toy generator, encoders, subspaces and latents for the objective checks.

    Every subspace has rank 2, or with ``unequal_ranks`` encoder ``i``
    and domain ``j`` get rank ``1 + (i + j) % 3``, so the stacked bases
    need zero padding.
    """
    rng = stream_rng(seed, "gradcheck", "objective")
    source = make_source_generator(seed, d_z=3, d_h=5, d_x=6, output_gain=0.5)
    encoders = [
        make_encoder(f"enc{i}", seed + i + 1, d_x=6, d_hidden=5, d_e=4)
        for i in range(n_encoders)
    ]
    weights = [DomainWeight("dom0", 0.7), DomainWeight("dom1", 0.4)]
    subspaces = {}
    for i, enc in enumerate(encoders):
        per_domain = {}
        for j, w in enumerate(weights):
            rank = 1 + (i + j) % 3 if unequal_ranks else 2
            feats = FeatureSet(rng.standard_normal((rank + 1, 4)), domain_id=w.domain_id)
            per_domain[w.domain_id] = build_subspace(feats)
        subspaces[enc.encoder_id] = per_domain
    # perturb the target so the source-to-target displacement is nonzero
    flat = flatten_generator(source)
    target0 = unflatten_generator(flat + 0.05 * rng.standard_normal(flat.size), like=source)
    z_batch = rng.standard_normal((batch, 3))
    return source, target0, encoders, subspaces, weights, z_batch


def _check_objective(
    seed: int,
    batch: int,
    n_encoders: int = 2,
    unequal_ranks: bool = False,
    lam: float = 0.8,
    degenerate: bool = False,
    **flags: bool,
) -> GradCheckReport:
    """The objective at a nudged target, or with ``degenerate`` at the source itself.

    At ``f_t == f_s`` the direction loss turns within ``NORM_EPS`` while
    ``f_t - f_s`` rounds at ~1e-15, so no difference step resolves it:
    that case runs at ``lam=0``; the complex-step reference checks it at
    ``lam > 0``.
    """
    source, target0, encoders, subspaces, weights, z_batch = _toy_objective_setup(
        seed, batch, n_encoders, unequal_ranks
    )
    label = ", ".join([f"{n_encoders} encoders, 2 domains", *flags])
    if unequal_ranks:
        ranks = sorted({s.rank for per in subspaces.values() for s in per.values()})
        label += ", ranks " + "/".join(map(str, ranks))
    if degenerate:
        target0 = source
        label += f", degenerate start, lambda {lam}"

    def f(p):
        target = unflatten_generator(p, like=source)
        args = (z_batch, source, target, encoders)
        dist, direct, grads = hda_objective(*args, subspaces, weights, lam=lam, **flags)
        return loss_total(dist, direct, lam), grads

    name = f"hda_objective ({label}, batch {batch})"
    return grad_check(f, flatten_generator(target0), tol=COMPOSITE_TOL, name=name)


def composite_suite(seed: int) -> list[GradCheckReport]:
    """Gradient checks of the closed-form objective."""
    return [
        _check_objective(seed, batch=2),
        _check_objective(seed, batch=5),
        _check_objective(seed, batch=4, n_encoders=3, unequal_ranks=True),
        _check_objective(seed, batch=4, n_encoders=3, unequal_ranks=True, dist_only=True),
        _check_objective(seed, batch=4, n_encoders=3, unequal_ranks=True, direct_only=True),
        _check_objective(
            seed, batch=4, n_encoders=3, unequal_ranks=True, lam=0.0, degenerate=True
        ),
    ]


def run_suite(full: bool = False, seed: int = 0) -> list[GradCheckReport]:
    """Primitive battery plus composite checks; ``full`` uses 100 instances."""
    n = 100 if full else 10
    return primitive_suite(n_instances=n, seed=seed) + composite_suite(seed=seed)
