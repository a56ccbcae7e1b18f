"""The batched objective against a complex-step reference of its written-out formulas."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hda.diagnostics import _toy_objective_setup
from hda.engine import default_adaptation_config
from hda.losses import DomainWeight, ObjectivePlan, hda_objective, loss_total
from hda.seeding import stream_rng
from hda.worlds import (
    PARAM_FIELDS,
    SyntheticDomainSpec,
    WorldConfig,
    build_world,
    build_world_subspaces,
    encode,
    flatten_generator,
    generator_views,
    unflatten_generator,
)

ORACLE_REL = 1e-12
#: Smaller scales are compared to the smallest normal float, absolutely: at a subnormal
#: lambda the direction part rounds with too few bits for a relative bar.
ORACLE_FLOOR = np.finfo(float).tiny / ORACLE_REL

#: The complex step ``h``: a coordinate's derivative is ``Im f(p + i h e_j) / h``.
COMPLEX_STEP = 1e-30


def _mlp(x, w1, b1, w2, b2, act):
    """``w2 @ act(w1 @ x + b1) + b2``; the weights or the input carry the probes' leading axis."""
    hidden = act((w1 @ x[..., None])[..., 0] + b1)
    return (w2 @ hidden[..., None])[..., 0] + b2


def _relu(a):
    """Relu that decides by the real part, so an imaginary step passes where its point does."""
    return np.where(a.real > 0.0, a, 0.0)


def _reference_objective(
    z_batch, source, target, encoders, subspaces, weights, lam,
    dist_only=False, direct_only=False,
):
    """Each encoder's batch-mean distance and direction losses, and the total's gradient.

    The formulas of :mod:`hda.losses`, one latent, encoder and domain at a
    time: ``perp_i = f*_i - f_t``, with the projection's coordinates
    solved from the normal equations ``BᵀB c = Bᵀ(f_t - mu)``; the distance
    loss ``sum_i alpha_i perp_i . perp_i``, and the direction loss ``1 -
    cos(f_t - f_s, sum_i alpha_i perp_i)`` with both norms ``sqrt(|v|^2 +
    eps^2)``.  The objective adds each encoder's ``mean dist + lam * mean
    direct``.

    The gradient is a complex step, taken for all ``P`` coordinates at
    once along a leading axis of flat parameter vectors: row 0 holds the
    source's, row 1 the target's and row ``2 + j`` the target's with
    ``i h`` added to coordinate ``j``.  The source runs through the same
    code as the target, so ``f_t - f_s`` is exactly zero when the target
    is the source.  Every step is analytic in the parameters: relu decides
    by the real part, no product conjugates (``lstsq`` would), and the
    gradient ``Im / h`` takes no difference, so nothing cancels.
    """
    eps = 1e-8
    flat = flatten_generator(target)
    n = flat.size
    probes = np.empty((n + 2, n), dtype=complex)
    probes[0], probes[1:] = flatten_generator(source), flat
    probes.imag[np.arange(2, n + 2), np.arange(n)] = COMPLEX_STEP
    generators = list(generator_views(probes, target).values())
    dist = np.zeros((len(encoders), n + 1), dtype=complex)
    direct = np.zeros_like(dist)
    for z in z_batch:
        x = _mlp(z, *generators, np.tanh)
        for e, enc in enumerate(encoders):
            f = _mlp(x, *(getattr(enc, name) for name in PARAM_FIELDS), _relu)
            f_s, f_t = f[0], f[1:]
            v = np.zeros_like(f_t)
            for w in weights:
                sub = subspaces[enc.encoder_id][w.domain_id]
                basis, mean = sub.basis, sub.mean
                rhs = np.einsum("ir,pi->rp", basis, f_t - mean)
                coords = np.linalg.solve(basis.T @ basis, rhs)
                perp = mean + np.einsum("ir,rp->pi", basis, coords) - f_t
                dist[e] += float(w.alpha) * np.sum(perp * perp, axis=-1)
                v += float(w.alpha) * perp
            u = f_t - f_s
            nu, nv = (np.sqrt(np.sum(a * a, axis=-1) + eps**2) for a in (u, v))
            direct[e] += 1.0 - np.sum(u * v, axis=-1) / (nu * nv)
    dist, direct = dist / len(z_batch), direct / len(z_batch)
    if dist_only:
        direct[:] = 0.0
    if direct_only:
        dist[:] = 0.0
    # each part returns to its own scale before lambda weighs it: lam * Im(direct) can underflow
    d_dist, d_direct = (a[:, 1:].imag.sum(axis=0) / COMPLEX_STEP for a in (dist, direct))
    return dist[:, 0].real, direct[:, 0].real, d_dist + lam * d_direct


def _close(got, want) -> bool:
    return np.all(np.abs(got - want) <= ORACLE_REL * np.maximum(np.abs(want), ORACLE_FLOOR))


def _assert_matches_reference(z, source, target, encoders, subspaces, weights, lam, **flags):
    """Value, per-encoder terms and every parameter's gradient of the closed form, at ORACLE_REL."""
    args = (z, source, target, encoders, subspaces, weights, lam)
    dist, direct, grads = hda_objective(*args, **flags)
    want_dist, want_direct, want_grads = _reference_objective(*args, **flags)
    assert dist.shape == direct.shape == want_dist.shape == (len(encoders),)
    want_total = float(np.sum(want_dist + lam * want_direct))
    assert _close(loss_total(dist, direct, lam), want_total)
    assert _close(dist, want_dist)
    assert _close(direct, want_direct)
    want_views = generator_views(want_grads, target)
    for name, got in generator_views(grads, target).items():
        scale = max(np.max(np.abs(want_views[name])), ORACLE_FLOOR)
        assert np.max(np.abs(got - want_views[name])) <= ORACLE_REL * scale, name


def _three_domain_world():
    domains = []
    for axis in range(3):
        shift = np.zeros(WorldConfig.d_x)
        shift[axis] = 5.0
        domains.append(SyntheticDomainSpec(domain_id=f"attr{axis}", attribute_shift=shift))
    return build_world(WorldConfig(domains=tuple(domains)))


@pytest.mark.parametrize("case", ["stock", "three-domain"])
def test_objective_matches_the_written_out_formulas(world, subspaces, case):
    """Unequal alphas, each applied to its own domain: the weights' order is checked.

    At a nudged target, and at the degenerate first step, where the
    target is the source and ``f_t == f_s``.
    """
    if case == "stock":
        alphas = {"attr0": 0.9, "attr1": 0.1}
    else:
        world = _three_domain_world()
        subspaces = build_world_subspaces(world)
        alphas = {"attr0": 0.6, "attr1": 0.3, "attr2": 0.1}
    weights = [DomainWeight(d, a) for d, a in alphas.items()]
    rng = stream_rng(0, "written-out-objective")
    source = world.source_generator
    flat = flatten_generator(source)
    target = unflatten_generator(flat + 0.02 * rng.standard_normal(flat.size), like=source)
    z = rng.standard_normal((6, source.d_z))
    for start in (target, source):
        _assert_matches_reference(
            z, source, start, list(world.train_encoders), subspaces, weights, 0.7
        )


# no shrinking: a ~80 ms example re-run through hundreds of shrink steps
# turns one failure into minutes, and the first failing example already
# says what broke
@settings(
    max_examples=40, deadline=None, phases=[p for p in Phase if p is not Phase.shrink]
)
@given(
    seed=st.integers(0, 10_000),
    batch=st.integers(1, 16),
    n_domains=st.integers(1, 2),
    encoder_mask=st.integers(1, 7),
    lam=st.floats(0.0, 2.0),
    variant=st.sampled_from(["full", "dist_only", "direct_only"]),
)
def test_batched_objective_matches_per_sample_reference(
    world, subspaces, seed, batch, n_domains, encoder_mask, lam, variant
):
    rng = stream_rng(seed, "batched-objective")
    source = world.source_generator
    # a nudged target keeps the source-to-target displacement nonzero
    flat = flatten_generator(source)
    target = unflatten_generator(flat + 0.02 * rng.standard_normal(flat.size), like=source)
    alphas = rng.uniform(0.1, 1.0, n_domains)
    alphas /= alphas.sum()
    weights = [
        DomainWeight(d.domain_id, float(a)) for d, a in zip(world.domains, alphas)
    ]
    encoders = [
        enc for i, enc in enumerate(world.train_encoders) if encoder_mask >> i & 1
    ]
    z = rng.standard_normal((batch, source.d_z))
    flags = {} if variant == "full" else {variant: True}
    _assert_matches_reference(z, source, target, encoders, subspaces, weights, lam, **flags)


def test_objective_matches_the_reference_on_the_toy_grid():
    """Unequal ranks, half-dead encoders and the degenerate start, in every mode."""
    for seed in (0, 3):
        source, target, encoders, subspaces, weights, z = _toy_objective_setup(
            seed, batch=4, n_encoders=3, unequal_ranks=True
        )
        ranks = {s.rank for per in subspaces.values() for s in per.values()}
        assert len(ranks) > 1  # the stacked bases need zero padding
        # every encoder unit is active at bias ~2; flipped biases make half of them dead
        signs = np.where(np.arange(encoders[0].b1.size) % 2, 1.0, -1.0)
        half_dead = [replace(e, b1=e.b1 * signs) for e in encoders]
        variants = [{}, {"dist_only": True}, {"direct_only": True}]
        # the source as target puts f_t on f_s: the degenerate first step
        for start, encs in itertools.product((target, source), (encoders, half_dead)):
            for n_enc, n_dom, flags in itertools.product((1, 3), (1, 2), variants):
                _assert_matches_reference(
                    z, source, start, encs[:n_enc], subspaces, weights[:n_dom], 0.8, **flags
                )


@pytest.mark.parametrize("steps, batch", [(25, 4), (3, 48), (1, 200), (7, 1)])
def test_source_embeddings_equal_each_batch_encoded_alone(world, subspaces, steps, batch):
    """A chunk's stacked source side, step by step and encoder by encoder, bit for bit."""
    config = default_adaptation_config(world)
    encoders = [world.encoder(e) for e in config.encoder_ids]
    plan = ObjectivePlan(
        world.source_generator, encoders, subspaces, list(config.ordered_weights()), config.lam
    )
    z_chunk = stream_rng(0, "chunk").standard_normal((steps, batch, world.config.d_z))
    f_s = plan.source_embeddings(z_chunk)
    assert f_s.shape[:3] == (steps, len(encoders), batch)
    for s, z in enumerate(z_chunk):
        x = world.source_generator.forward(z)
        for e, enc in enumerate(encoders):
            np.testing.assert_array_equal(f_s[s, e], encode(enc, x))


def test_objective_matches_the_reference_at_a_batch_of_300():
    """A batch of 300 rows, far past the other checks' batches of at most 16."""
    source, target, encoders, subspaces, weights, z = _toy_objective_setup(
        0, batch=300, n_encoders=3, unequal_ranks=True
    )
    _assert_matches_reference(z, source, target, encoders, subspaces, weights, 0.8)
