"""The batched objective against a per-sample reference and against its tape oracle."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hda.autodiff import Tape
from hda.diagnostics import _toy_objective_setup, tape_objective
from hda.engine import default_adaptation_config
from hda.losses import (
    DomainWeight,
    ObjectivePlan,
    hda_objective,
    hybrid_direct_loss,
    hybrid_dist_loss,
)
from hda.seeding import stream_rng
from hda.worlds import (
    PARAM_FIELDS,
    encode,
    encode_var,
    flatten_generator,
    generator_forward_var,
    generator_param_vars,
    unflatten_generator,
)

REL = 1e-10
ORACLE_REL = 1e-12


def _per_sample_objective(
    z_batch, source, target, encoders, subspaces, weights, lam,
    dist_only=False, direct_only=False,
):
    """One 1-D tape per latent through the hybrid losses, averaged over the rows."""
    inv_batch = 1.0 / len(z_batch)
    dist = {enc.encoder_id: 0.0 for enc in encoders}
    direct = {enc.encoder_id: 0.0 for enc in encoders}
    grads = {name: np.zeros_like(getattr(target, name)) for name in PARAM_FIELDS}
    for z in z_batch:
        tape = Tape()
        params = generator_param_vars(tape, target)
        x_t = generator_forward_var(tape, params, z)
        total = None
        for enc in encoders:
            f_t = encode_var(tape, enc, x_t)
            subs = [subspaces[enc.encoder_id][w.domain_id] for w in weights]
            term = None
            if not direct_only:
                term = hybrid_dist_loss(f_t, subs, weights)
                dist[enc.encoder_id] += term.item()
            if not dist_only:
                f_s = tape.constant(encode(enc, source.forward(z)))
                r = hybrid_direct_loss(f_s, f_t, subs, weights)
                direct[enc.encoder_id] += r.item()
                term = lam * r if term is None else term + lam * r
            total = term if total is None else total + term
        tape.backward(total, seed=inv_batch)
        for name, var in params.items():
            grads[name] += var.grad
    terms = {
        eid: (dist[eid] * inv_batch, direct[eid] * inv_batch) for eid in dist
    }
    value = sum(d + lam * r for d, r in terms.values())
    return value, terms, grads


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL * max(abs(want), 1e-12)


@settings(max_examples=40, deadline=None)
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

    breakdown, grads = hda_objective(
        z, source, target, encoders, subspaces, weights, lam, **flags
    )
    value, terms, want_grads = _per_sample_objective(
        z, source, target, encoders, subspaces, weights, lam, **flags
    )

    assert _close(breakdown.total, value)
    assert [t.encoder_id for t in breakdown.per_encoder] == [e.encoder_id for e in encoders]
    for t in breakdown.per_encoder:
        want_dist, want_direct = terms[t.encoder_id]
        assert _close(t.dist_term, want_dist)
        assert _close(t.direct_term, want_direct)
    for name in PARAM_FIELDS:
        scale = np.max(np.abs(want_grads[name]))
        assert np.max(np.abs(grads[name] - want_grads[name])) <= REL * scale, name


def test_objective_matches_tape_oracle():
    """The closed form against the tape expression of the same objective."""
    source, target, encoders, subspaces, weights, z = _toy_objective_setup(
        3, batch=4, n_encoders=3, unequal_ranks=True
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
            args = (z, source, start, encs[:n_enc], subspaces, weights[:n_dom], 0.8)
            got, grads = hda_objective(*args, **flags)
            want, want_grads = tape_objective(*args, **flags)
            assert abs(got.total - want.total) <= ORACLE_REL * abs(want.total)
            for t, w in zip(got.per_encoder, want.per_encoder, strict=True):
                assert t.encoder_id == w.encoder_id
                assert abs(t.dist_term - w.dist_term) <= ORACLE_REL * abs(w.dist_term)
                assert abs(t.direct_term - w.direct_term) <= ORACLE_REL * abs(w.direct_term)
            for name in PARAM_FIELDS:
                scale = np.max(np.abs(want_grads[name]))
                assert np.max(np.abs(grads[name] - want_grads[name])) <= ORACLE_REL * scale


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
