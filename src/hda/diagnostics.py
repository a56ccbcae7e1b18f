"""Gradient-check batteries for the autodiff primitives and the losses.

Every check compares a gradient, the tape's or the closed-form
objective's, against central finite differences through
:func:`hda.autodiff.grad_check`, and every tape check builds its tape
through :func:`_tape_gradient`.  Primitive checks run many random
instances at a tight tolerance; composite checks push gradients through
the actual loss programs, including deliberately degenerate
configurations whose near-zero coordinates are reported as skipped
rather than compared.  The closed-form objective's reference, a complex
step through its written-out formulas, lives with its tests
(``tests/test_batched_objective.py``).
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import GradCheckReport, Tape, grad_check
from .losses import (
    DomainWeight,
    dist_loss,
    direct_loss,
    hda_objective,
    hybrid_direct_loss,
    hybrid_dist_loss,
    loss_total,
)
from .seeding import stream_rng
from .subspace import DomainSubspace, FeatureSet, build_subspace, project
from .worlds import (
    PARAM_FIELDS,
    encode,
    encode_var,
    flatten_generator,
    generator_forward_var,
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


def _tape_gradient(program, shapes):
    """``f(p) -> (value, gradient)`` for :func:`grad_check`: one fresh tape per call.

    ``p`` is cut into one variable per shape, in order, and ``program``
    maps those variables to a scalar loss on their tape; the gradient is
    the variables' gradients, flattened and concatenated in the same order.
    """
    bounds = np.cumsum([0] + [int(np.prod(shape)) for shape in shapes])
    cuts = list(zip(bounds[:-1], bounds[1:], shapes))

    def f(p):
        tape = Tape()
        args = [tape.variable(p[lo:hi].reshape(shape)) for lo, hi, shape in cuts]
        loss = program(*args)
        tape.backward(loss)
        return loss.item(), np.concatenate([a.grad.ravel() for a in args])

    return f


def _scalarized(op, weight: Array):
    """The program ``sum(op(*args) * weight)``: a primitive weighted to a scalar.

    A scalar output is multiplied by its weight, a vector dotted with it,
    and the ``(B,)`` dot products of ``(B, m)`` rows are then dotted with ones.
    """

    def program(*args):
        out = op(*args)
        tape = out.tape
        if out.shape == ():
            return ad.mul(out, tape.constant(weight))
        loss = ad.dot(out, tape.constant(weight))
        return loss if loss.shape == () else ad.dot(loss, tape.constant(np.ones(loss.shape)))

    return program


def _build_smul(rng):
    n = 6
    a0 = _draw(rng, n)
    c = float(_draw(rng, ()))
    w = _draw(rng, n)
    return _tape_gradient(_scalarized(lambda a: ad.smul(c, a), w), [(n,)]), a0


def _shaped_builder(op, in_shapes, out_shape, batched: bool = False):
    """Operands of the given shapes, all differentiated, weighted to a scalar."""

    def build(rng):
        p0 = np.concatenate([_draw(rng, shape, batched).ravel() for shape in in_shapes])
        w = _draw(rng, out_shape, batched)
        return _tape_gradient(_scalarized(op, w), in_shapes), p0

    return build


def _norm_eps(a):
    return ad.norm_eps(a, 1e-8)


_PRIMITIVE_BUILDERS = {
    "add": _shaped_builder(ad.add, [(5,), (5,)], (5,)),
    "sub": _shaped_builder(ad.sub, [(5,), (5,)], (5,)),
    "smul": _build_smul,
    "mul": _shaped_builder(ad.mul, [(5,), (5,)], (5,)),
    "div": _shaped_builder(ad.div, [(5,), (5,)], (5,)),
    "linear": _shaped_builder(ad.linear, [(4,), (3, 4)], (3,)),
    "linear_rows": _shaped_builder(ad.linear, [_ROWS, (3, _D)], (_B, 3), batched=True),
    "add_bias_rows": _shaped_builder(ad.add, [_ROWS, (_D,)], _ROWS, batched=True),
    "tanh": _shaped_builder(ad.tanh, [(6,)], (6,)),
    "relu": _shaped_builder(ad.relu, [(6,)], (6,)),
    "sq_norm": _shaped_builder(ad.sq_norm, [(6,)], ()),
    "sq_norm_rows": _shaped_builder(ad.sq_norm, [_ROWS], (_B,), batched=True),
    "dot": _shaped_builder(ad.dot, [(5,), (5,)], ()),
    "dot_rows": _shaped_builder(ad.dot, [_ROWS, _ROWS], (_B,), batched=True),
    "norm_eps": _shaped_builder(_norm_eps, [(6,)], ()),
    "norm_eps_rows": _shaped_builder(_norm_eps, [_ROWS], (_B,), batched=True),
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


def _random_subspace(rng, d: int, r: int) -> DomainSubspace:
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    svals = np.sort(rng.uniform(0.5, 2.0, r))[::-1]
    return DomainSubspace(
        mean=rng.standard_normal(d), basis=q[:, :r], singular_values=svals
    )


def _check_dist(rng) -> GradCheckReport:
    d = 6
    sub = _random_subspace(rng, d, 3)
    f_t0 = rng.standard_normal(d)
    f = _tape_gradient(lambda f_t: dist_loss(f_t, sub), [(d,)])
    return grad_check(f, f_t0, tol=COMPOSITE_TOL, name="dist_loss")


def _check_direct(rng, collinear: bool) -> GradCheckReport:
    d = 6
    sub = _random_subspace(rng, d, 2)
    f_t0 = rng.standard_normal(d)
    if collinear:
        # place f_s so that f_t - f_s is exactly parallel to f* - f_t;
        # the cosine sits at its maximum and most gradient coordinates
        # vanish, exercising the skipped-coordinate path
        delta_tp = project(sub, f_t0) - f_t0
        f_s0 = f_t0 - 2.0 * delta_tp
    else:
        f_s0 = rng.standard_normal(d)
    f = _tape_gradient(lambda f_s, f_t: direct_loss(f_s, f_t, sub), [(d,), (d,)])
    label = "direct_loss (collinear)" if collinear else "direct_loss"
    return grad_check(f, np.concatenate([f_s0, f_t0]), tol=COMPOSITE_TOL, name=label)


def _check_hybrid_dist(rng) -> GradCheckReport:
    d = 6
    subs = [_random_subspace(rng, d, r) for r in (1, 2, 3)]
    weights = [DomainWeight(f"dom{i}", a) for i, a in enumerate((0.7, 0.4, 0.3))]
    f_t0 = rng.standard_normal(d)
    f = _tape_gradient(lambda f_t: hybrid_dist_loss(f_t, subs, weights), [(d,)])
    return grad_check(f, f_t0, tol=COMPOSITE_TOL, name="hybrid_dist_loss")


def _check_hybrid_direct(rng, cancelling: bool) -> GradCheckReport:
    d = 6
    if cancelling:
        # two parallel lines at +/- e2: the weighted perpendiculars nearly
        # cancel.  The probe sits 0.3 off the exact midpoint; at the midpoint
        # the aggregated displacement is exactly zero, the cosine denominator
        # is epsilon-dominated and finite differences stop being comparable
        # (that configuration is value-checked in the loss tests instead).
        basis = np.zeros((d, 1))
        basis[0, 0] = 1.0
        up = np.zeros(d)
        up[1] = 1.0
        subs = [
            DomainSubspace(mean=up, basis=basis, singular_values=np.array([1.0])),
            DomainSubspace(mean=-up, basis=basis, singular_values=np.array([1.0])),
        ]
        weights = [DomainWeight("dom0", 0.5), DomainWeight("dom1", 0.5)]
        f_t0 = 0.3 * up
        f_s0 = rng.standard_normal(d)
    else:
        subs = [_random_subspace(rng, d, r) for r in (2, 3)]
        weights = [DomainWeight("dom0", 0.6), DomainWeight("dom1", 0.4)]
        f_t0 = rng.standard_normal(d)
        f_s0 = rng.standard_normal(d)
    f = _tape_gradient(lambda s, t: hybrid_direct_loss(s, t, subs, weights), [(d,), (d,)])
    label = "hybrid_direct_loss (near-cancelling)" if cancelling else "hybrid_direct_loss"
    return grad_check(f, np.concatenate([f_s0, f_t0]), tol=COMPOSITE_TOL, name=label)


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
        return loss_total(dist, direct, batch, lam), grads

    name = f"hda_objective ({label}, batch {batch})"
    return grad_check(f, flatten_generator(target0), tol=COMPOSITE_TOL, name=name)


def _check_dist_through_encoder(seed: int) -> GradCheckReport:
    rng = stream_rng(seed, "gradcheck", "dist-encoder")
    source = make_source_generator(seed + 17, d_z=3, d_h=5, d_x=6, output_gain=0.5)
    enc = make_encoder("enc", seed + 23, d_x=6, d_hidden=5, d_e=4)
    offsets = rng.standard_normal((3, 4))
    z = rng.standard_normal(3)
    # references around the probe's own embedding keep the loss O(1): with
    # far references (loss ~30) the small w2 coordinates sat below the
    # central differences' rounding noise at some seeds
    sub = build_subspace(FeatureSet(encode(enc, source.forward(z)) + offsets))

    def program(*params):
        tape = params[0].tape
        x = generator_forward_var(tape, dict(zip(PARAM_FIELDS, params)), z)
        return dist_loss(encode_var(tape, enc, x), sub)

    f = _tape_gradient(program, [getattr(source, name).shape for name in PARAM_FIELDS])
    name = "dist_loss through encoder and generator"
    return grad_check(f, flatten_generator(source), tol=COMPOSITE_TOL, name=name)


def composite_suite(seed: int) -> list[GradCheckReport]:
    """Gradient checks through the actual loss programs."""
    rng = stream_rng(seed, "gradcheck", "composite")
    return [
        _check_dist(rng),
        _check_direct(rng, collinear=False),
        _check_direct(rng, collinear=True),
        _check_hybrid_dist(rng),
        _check_hybrid_direct(rng, cancelling=False),
        _check_hybrid_direct(rng, cancelling=True),
        _check_dist_through_encoder(seed),
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
