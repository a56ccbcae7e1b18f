"""Gradient-check batteries for the autodiff primitives and the losses.

Every check compares a tape gradient against central finite differences
through :func:`hda.autodiff.grad_check`.  Primitive checks run many
random instances at a tight tolerance; composite checks push gradients
through the actual loss programs, including deliberately degenerate
configurations whose near-zero coordinates are reported as skipped
rather than compared.
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
)
from .seeding import stream_rng
from .subspace import DomainSubspace
from .worlds import (
    PARAM_FIELDS,
    flatten_generator,
    make_encoder,
    make_source_generator,
    unflatten_generator,
)

Array = np.ndarray

PRIMITIVE_TOL = 1e-6
COMPOSITE_TOL = 1e-5
STEP = 1e-6


def _merge(name: str, tol: float, reports: list[GradCheckReport]) -> GradCheckReport:
    return GradCheckReport(
        name=name,
        tol=tol,
        max_rel_error=max(r.max_rel_error for r in reports),
        n_checked=sum(r.n_checked for r in reports),
        skipped=[s for r in reports for s in r.skipped],
        value=reports[-1].value,
    )


def _away_from_zero(values: Array, margin: float = 0.25) -> Array:
    """Keep finite-difference probes away from relu/division kinks."""
    signs = np.where(values >= 0.0, 1.0, -1.0)
    return values + margin * signs


#: Batch size and row width of the batched (``*_rows``) cases.
_B, _D = 3, 5
_ROWS = (_B, _D)


def _draw(rng, shape, batched: bool) -> Array:
    """Probe values: signed normals, or entries in [0.5, 1.5] for batched cases.

    A batched case sums B times as many signed terms into its loss, and
    some gradient coordinates then cancel to far below the loss scale,
    where central differences drown in rounding noise.  Positive entries
    keep every coordinate at the loss scale; the single-row cases keep
    signed draws and cover the signs.
    """
    if batched:
        return rng.uniform(0.5, 1.5, shape)
    return rng.standard_normal(shape)


def _scalarized(tape: Tape, out, weight: Array):
    return ad.vsum(ad.mul(out, tape.constant(weight)))


def _binary_builder(op_name: str):
    op = getattr(ad, op_name)

    def build(rng):
        n = 5
        a0 = rng.standard_normal(n)
        b0 = rng.standard_normal(n)
        if op_name == "div":
            b0 = _away_from_zero(b0, 0.5)
        w = rng.standard_normal(n)

        def f(p):
            tape = Tape()
            a = tape.variable(p[:n])
            b = tape.variable(p[n:])
            loss = _scalarized(tape, op(a, b), w)
            tape.backward(loss)
            return loss.item(), np.concatenate([a.grad, b.grad])

        return f, np.concatenate([a0, b0])

    return build


def _unary_builder(op_name: str):
    op = getattr(ad, op_name)

    def build(rng):
        n = 6
        a0 = rng.standard_normal(n)
        if op_name == "relu":
            a0 = _away_from_zero(a0)
        if op_name == "norm_eps":
            out_of = lambda tape, a: ad.norm_eps(a, 1e-8)  # noqa: E731
        else:
            out_of = lambda tape, a: op(a)  # noqa: E731
        w = rng.standard_normal(() if op_name in ("vsum", "sq_norm", "norm_eps") else n)

        def f(p):
            tape = Tape()
            a = tape.variable(p)
            loss = _scalarized(tape, out_of(tape, a), w)
            tape.backward(loss)
            return loss.item(), np.asarray(a.grad)

        return f, a0

    return build


def _build_smul(rng):
    n = 6
    a0 = rng.standard_normal(n)
    c = float(rng.standard_normal())
    w = rng.standard_normal(n)

    def f(p):
        tape = Tape()
        a = tape.variable(p)
        loss = _scalarized(tape, ad.smul(c, a), w)
        tape.backward(loss)
        return loss.item(), np.asarray(a.grad)

    return f, a0


def _shaped_builder(op, in_shapes, out_shape, batched: bool = False):
    """Operands of the given shapes, all differentiated, weighted to a scalar."""
    sizes = [int(np.prod(shape)) for shape in in_shapes]
    offsets = np.cumsum([0] + sizes)

    def build(rng):
        p0 = np.concatenate([_draw(rng, n, batched) for n in sizes])
        w = _draw(rng, out_shape, batched)

        def f(p):
            tape = Tape()
            args = [
                tape.variable(p[lo:hi].reshape(shape))
                for lo, hi, shape in zip(offsets[:-1], offsets[1:], in_shapes)
            ]
            loss = _scalarized(tape, op(*args), w)
            tape.backward(loss)
            return loss.item(), np.concatenate([a.grad.ravel() for a in args])

        return f, p0

    return build


def _norm_eps(a):
    return ad.norm_eps(a, 1e-8)


_PRIMITIVE_BUILDERS = {
    "add": _binary_builder("add"),
    "sub": _binary_builder("sub"),
    "smul": _build_smul,
    "mul": _binary_builder("mul"),
    "div": _binary_builder("div"),
    "linear": _shaped_builder(ad.linear, [(4,), (3, 4)], (3,)),
    "linear_rows": _shaped_builder(ad.linear, [_ROWS, (3, _D)], (_B, 3), batched=True),
    "bias_add_rows": _shaped_builder(ad.bias_add, [_ROWS, (_D,)], _ROWS, batched=True),
    "tanh": _unary_builder("tanh"),
    "relu": _unary_builder("relu"),
    "sum": _unary_builder("vsum"),
    "sq_norm": _unary_builder("sq_norm"),
    "sq_norm_rows": _shaped_builder(ad.sq_norm, [_ROWS], (_B,), batched=True),
    "dot": _shaped_builder(ad.dot, [(5,), (5,)], ()),
    "dot_rows": _shaped_builder(ad.dot, [_ROWS, _ROWS], (_B,), batched=True),
    "norm_eps": _unary_builder("norm_eps"),
    "norm_eps_rows": _shaped_builder(_norm_eps, [_ROWS], (_B,), batched=True),
}


def primitive_suite(
    n_instances: int = 100,
    seed: int = 0,
    h: float = STEP,
    tol: float = PRIMITIVE_TOL,
) -> list[GradCheckReport]:
    """One aggregated report per primitive over ``n_instances`` instances."""
    out = []
    for name, build in _PRIMITIVE_BUILDERS.items():
        rng = stream_rng(seed, "gradcheck", name)
        reports = []
        for i in range(n_instances):
            f, params = build(rng)
            reports.append(
                grad_check(f, params, h=h, tol=tol, name=f"{name}[{i}]")
            )
        out.append(_merge(f"primitive {name} ({n_instances} instances)", tol, reports))
    return out


def _random_subspace(rng, d: int, r: int) -> DomainSubspace:
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    svals = np.sort(rng.uniform(0.5, 2.0, r))[::-1]
    return DomainSubspace(
        mean=rng.standard_normal(d), basis=q[:, :r], singular_values=svals
    )


def _check_dist(rng, detach: bool) -> GradCheckReport:
    d = 6
    sub = _random_subspace(rng, d, 3)
    f_t0 = rng.standard_normal(d)

    def f(p):
        tape = Tape()
        f_t = tape.variable(p)
        loss = dist_loss(f_t, sub, detach_projection=detach)
        tape.backward(loss)
        return loss.item(), np.asarray(f_t.grad)

    label = "dist_loss (projection detached)" if detach else "dist_loss"
    return grad_check(f, f_t0, h=STEP, tol=COMPOSITE_TOL, name=label)


def _check_direct(rng, collinear: bool) -> GradCheckReport:
    d = 6
    sub = _random_subspace(rng, d, 2)
    f_t0 = rng.standard_normal(d)
    if collinear:
        # place f_s so that f_t - f_s is exactly parallel to f* - f_t;
        # the cosine sits at its maximum and most gradient coordinates
        # vanish, exercising the skipped-coordinate path
        from .subspace import project

        delta_tp = project(sub, f_t0) - f_t0
        f_s0 = f_t0 - 2.0 * delta_tp
    else:
        f_s0 = rng.standard_normal(d)

    def f(p):
        tape = Tape()
        f_s = tape.variable(p[:d])
        f_t = tape.variable(p[d:])
        loss = direct_loss(f_s, f_t, sub)
        tape.backward(loss)
        return loss.item(), np.concatenate([f_s.grad, f_t.grad])

    label = "direct_loss (collinear)" if collinear else "direct_loss"
    return grad_check(
        f, np.concatenate([f_s0, f_t0]), h=STEP, tol=COMPOSITE_TOL, name=label
    )


def _check_hybrid_dist(rng) -> GradCheckReport:
    d = 6
    subs = [_random_subspace(rng, d, r) for r in (1, 2, 3)]
    weights = [DomainWeight(f"dom{i}", a) for i, a in enumerate((0.7, 0.4, 0.3))]
    f_t0 = rng.standard_normal(d)

    def f(p):
        tape = Tape()
        f_t = tape.variable(p)
        loss = hybrid_dist_loss(f_t, subs, weights)
        tape.backward(loss)
        return loss.item(), np.asarray(f_t.grad)

    return grad_check(f, f_t0, h=STEP, tol=COMPOSITE_TOL, name="hybrid_dist_loss")


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

    def f(p):
        tape = Tape()
        f_s = tape.variable(p[:d])
        f_t = tape.variable(p[d:])
        loss = hybrid_direct_loss(f_s, f_t, subs, weights)
        tape.backward(loss)
        return loss.item(), np.concatenate([f_s.grad, f_t.grad])

    label = "hybrid_direct_loss (near-cancelling)" if cancelling else "hybrid_direct_loss"
    return grad_check(
        f, np.concatenate([f_s0, f_t0]), h=STEP, tol=COMPOSITE_TOL, name=label
    )


def _toy_objective_setup(seed: int, batch: int):
    from .subspace import FeatureSet, build_subspace

    rng = stream_rng(seed, "gradcheck", "objective")
    source = make_source_generator(seed, d_z=3, d_h=5, d_x=6, output_gain=0.5)
    encoders = [
        make_encoder(f"enc{i}", seed + i + 1, d_x=6, d_hidden=5, d_e=4) for i in range(2)
    ]
    weights = [DomainWeight("dom0", 0.7), DomainWeight("dom1", 0.4)]
    subspaces = {}
    for enc in encoders:
        per_domain = {}
        for w in weights:
            feats = FeatureSet.from_features(
                rng.standard_normal((3, 4)), domain_id=w.domain_id
            )
            per_domain[w.domain_id] = build_subspace(feats)
        subspaces[enc.encoder_id] = per_domain
    # perturb the target so the source-to-target displacement is nonzero
    target0 = unflatten_generator(
        flatten_generator(source) + 0.05 * rng.standard_normal(flatten_generator(source).size),
        like=source,
    )
    z_batch = rng.standard_normal((batch, 3))
    return source, target0, encoders, subspaces, weights, z_batch


def _check_objective(seed: int, batch: int) -> GradCheckReport:
    source, target0, encoders, subspaces, weights, z_batch = _toy_objective_setup(seed, batch)

    def f(p):
        target = unflatten_generator(p, like=source)
        breakdown, grads = hda_objective(
            z_batch, source, target, encoders, subspaces, weights, lam=0.8
        )
        return breakdown.total, np.concatenate(
            [grads[name].ravel() for name in PARAM_FIELDS]
        )

    return grad_check(
        f,
        flatten_generator(target0),
        h=STEP,
        tol=COMPOSITE_TOL,
        name=f"hda_objective (2 encoders, 2 domains, batch {batch})",
    )


def _check_dist_through_encoder(seed: int) -> GradCheckReport:
    from .subspace import FeatureSet, build_subspace
    from .worlds import encode_var, generator_forward_var, generator_param_vars

    rng = stream_rng(seed, "gradcheck", "dist-encoder")
    source = make_source_generator(seed + 17, d_z=3, d_h=5, d_x=6, output_gain=0.5)
    enc = make_encoder("enc", seed + 23, d_x=6, d_hidden=5, d_e=4)
    sub = build_subspace(FeatureSet.from_features(rng.standard_normal((3, 4))))
    z = rng.standard_normal(3)

    def f(p):
        target = unflatten_generator(p, like=source)
        tape = Tape()
        param_vars = generator_param_vars(tape, target)
        x = generator_forward_var(tape, param_vars, z)
        f_t = encode_var(tape, enc, x)
        loss = dist_loss(f_t, sub)
        tape.backward(loss)
        grad = np.concatenate([param_vars[name].grad.ravel() for name in PARAM_FIELDS])
        return loss.item(), grad

    return grad_check(
        f,
        flatten_generator(source),
        h=STEP,
        tol=COMPOSITE_TOL,
        name="dist_loss through encoder and generator",
    )


def composite_suite(seed: int = 0) -> list[GradCheckReport]:
    """Gradient checks through the actual loss programs."""
    rng = stream_rng(seed, "gradcheck", "composite")
    return [
        _check_dist(rng, detach=False),
        _check_dist(rng, detach=True),
        _check_direct(rng, collinear=False),
        _check_direct(rng, collinear=True),
        _check_hybrid_dist(rng),
        _check_hybrid_direct(rng, cancelling=False),
        _check_hybrid_direct(rng, cancelling=True),
        _check_dist_through_encoder(seed),
        _check_objective(seed, batch=2),
        _check_objective(seed, batch=5),
    ]


def run_suite(full: bool = False, seed: int = 0) -> list[GradCheckReport]:
    """Primitive battery plus composite checks; ``full`` uses 100 instances."""
    n = 100 if full else 10
    return primitive_suite(n_instances=n, seed=seed) + composite_suite(seed=seed)
