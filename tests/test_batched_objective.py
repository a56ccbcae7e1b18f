"""The batched objective against a per-sample reference, and its tape shape."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hda.autodiff import Tape
from hda.losses import (
    DomainWeight,
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


def _per_sample_objective(
    z_batch, source, target, encoders, subspaces, weights, lam,
    dist_only=False, direct_only=False, detach_projection=False,
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
                term = hybrid_dist_loss(
                    f_t, subs, weights, detach_projection=detach_projection
                )
                dist[enc.encoder_id] += term.item()
            if not dist_only:
                f_s = tape.constant(encode(enc, source.forward(z)))
                r = hybrid_direct_loss(
                    f_s, f_t, subs, weights, detach_projection=detach_projection
                )
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
    variant=st.sampled_from(["full", "dist_only", "direct_only", "detach_projection"]),
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


def test_objective_builds_one_tape_per_call(world, subspaces, monkeypatch):
    calls = []
    original = Tape.backward

    def counting(self, out, seed=1.0):
        calls.append(len(self))
        return original(self, out, seed)

    monkeypatch.setattr(Tape, "backward", counting)
    batch = 4
    z = stream_rng(0, "batched-objective", "nodes").standard_normal(
        (batch, world.config.d_z)
    )
    weights = [DomainWeight(d.domain_id, 0.5) for d in world.domains]
    hda_objective(
        z,
        world.source_generator,
        world.source_generator,
        list(world.train_encoders),
        subspaces,
        weights,
        lam=1.0,
    )
    assert len(calls) == 1
    # 3 encoders x 2 domains: the graph no longer grows with the batch
    assert calls[0] / batch <= 40
