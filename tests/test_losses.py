"""Distance and direction losses: hand values, identities, invariances."""

import numpy as np
import pytest

from hda.autodiff import Tape
from hda.errors import ConfigError
from hda.losses import (
    NORM_EPS,
    DomainWeight,
    LossBreakdown,
    direct_loss,
    dist_loss,
    hda_objective,
    hybrid_direct_loss,
    hybrid_dist_loss,
)
from hda.seeding import stream_rng
from hda.subspace import DomainSubspace, FeatureSet, build_subspace, subspace_distance_sq
from hda.worlds import make_target_generator


def _axis_subspace(d: int, axis: int, mean=None) -> DomainSubspace:
    basis = np.zeros((d, 1))
    basis[axis, 0] = 1.0
    return DomainSubspace(
        mean=np.zeros(d) if mean is None else np.asarray(mean, dtype=np.float64),
        basis=basis,
        singular_values=np.array([1.0]),
    )


def _random_subspace(rng, d: int, r: int) -> DomainSubspace:
    return build_subspace(FeatureSet(rng.standard_normal((r + 1, d))))


def test_dist_loss_hand_value_and_gradient():
    sub = _axis_subspace(3, 0)
    tape = Tape()
    f_t = tape.variable(np.array([2.0, 3.0, 4.0]))
    loss = dist_loss(f_t, sub)
    tape.backward(loss)
    assert loss.item() == pytest.approx(25.0, rel=1e-12)
    # closed form: twice the residual to the subspace
    np.testing.assert_allclose(f_t.grad, [0.0, 6.0, 8.0], rtol=1e-10)


def test_dist_loss_zero_on_subspace_point():
    sub = _axis_subspace(4, 1, mean=[0.0, 2.0, 0.0, 0.0])
    tape = Tape()
    f_t = tape.variable(np.array([0.0, 7.0, 0.0, 0.0]))
    loss = dist_loss(f_t, sub)
    assert loss.item() == pytest.approx(0.0, abs=1e-18)
    tape.backward(loss)
    np.testing.assert_allclose(f_t.grad, np.zeros(4), atol=1e-12)


def test_dist_loss_matches_projection_module():
    rng = stream_rng(0, "loss-test")
    for _ in range(25):
        sub = _random_subspace(rng, 8, 4)
        p = rng.standard_normal(8)
        tape = Tape()
        loss = dist_loss(tape.variable(p), sub)
        assert loss.item() == pytest.approx(
            subspace_distance_sq(sub, p), rel=1e-12, abs=1e-14
        )


def test_direct_loss_collinear_and_opposed():
    sub = _axis_subspace(2, 1, mean=[4.0, 0.0])
    tape = Tape()
    # target sits between source and subspace: displacement and
    # perpendicular point the same way
    f_s = tape.variable(np.array([0.0, 3.0]))
    f_t = tape.variable(np.array([2.0, 3.0]))
    assert direct_loss(f_s, f_t, sub).item() == pytest.approx(0.0, abs=1e-7)
    # walking away from the subspace costs the full 2
    f_back = tape.variable(np.array([-2.0, 3.0]))
    assert direct_loss(f_s, f_back, sub).item() == pytest.approx(2.0, abs=1e-7)


def test_direct_loss_degenerate_displacement_is_guarded():
    # identical source and target: zero displacement, loss pinned at 1
    sub = _axis_subspace(2, 1, mean=[4.0, 0.0])
    tape = Tape()
    f_s = tape.variable(np.array([0.0, 3.0]))
    f_t = tape.variable(np.array([0.0, 3.0]))
    loss = direct_loss(f_s, f_t, sub)
    assert loss.item() == 1.0
    tape.backward(loss)
    assert np.all(np.isfinite(f_s.grad))
    assert np.all(np.isfinite(f_t.grad))


def test_hybrid_reduces_to_single_domain():
    rng = stream_rng(1, "loss-test")
    sub = _random_subspace(rng, 6, 3)
    weights = [DomainWeight("only", 1.0)]
    p_s, p_t = rng.standard_normal(6), rng.standard_normal(6)

    tape = Tape()
    f_s, f_t = tape.variable(p_s), tape.variable(p_t)
    single_d = dist_loss(f_t, sub)
    single_r = direct_loss(f_s, f_t, sub)
    hybrid_d = hybrid_dist_loss(f_t, [sub], weights)
    hybrid_r = hybrid_direct_loss(f_s, f_t, [sub], weights)
    assert hybrid_d.item() == single_d.item()
    assert hybrid_r.item() == single_r.item()


def test_hybrid_dist_hand_value():
    subs = [_axis_subspace(2, 0), _axis_subspace(2, 1)]
    weights = [DomainWeight("x", 0.5), DomainWeight("y", 0.5)]
    tape = Tape()
    f_t = tape.variable(np.array([1.0, 1.0]))
    assert hybrid_dist_loss(f_t, subs, weights).item() == pytest.approx(1.0, rel=1e-12)


def test_hybrid_direct_hand_value():
    subs = [_axis_subspace(2, 0), _axis_subspace(2, 1)]
    weights = [DomainWeight("x", 0.5), DomainWeight("y", 0.5)]
    tape = Tape()
    f_s = tape.variable(np.array([2.0, 2.0]))
    f_t = tape.variable(np.array([1.0, 1.0]))
    # aggregated perpendicular (-0.5,-0.5) is parallel to the displacement
    assert hybrid_direct_loss(f_s, f_t, subs, weights).item() == pytest.approx(
        0.0, abs=1e-7
    )


def test_hybrid_direct_exact_cancellation_is_guarded():
    # two parallel lines; at the midpoint the weighted perpendiculars
    # cancel exactly and the loss pins at 1 with finite gradients
    basis = np.zeros((6, 1))
    basis[0, 0] = 1.0
    up = np.zeros(6)
    up[1] = 1.0
    subs = [
        DomainSubspace(mean=up, basis=basis, singular_values=np.array([1.0])),
        DomainSubspace(mean=-up, basis=basis, singular_values=np.array([1.0])),
    ]
    weights = [DomainWeight("a", 0.5), DomainWeight("b", 0.5)]
    tape = Tape()
    f_s = tape.variable(np.array([1.0, 2.0, 0.0, 0.0, 0.0, 0.0]))
    f_t = tape.variable(np.zeros(6))
    loss = hybrid_direct_loss(f_s, f_t, subs, weights)
    assert loss.item() == 1.0
    tape.backward(loss)
    assert np.all(np.isfinite(f_t.grad))
    assert np.all(np.isfinite(f_s.grad))


def test_direct_loss_range():
    rng = stream_rng(2, "loss-test")
    for _ in range(100):
        sub = _random_subspace(rng, 5, 2)
        tape = Tape()
        f_s = tape.variable(rng.standard_normal(5))
        f_t = tape.variable(rng.standard_normal(5))
        value = direct_loss(f_s, f_t, sub).item()
        assert 0.0 <= value <= 2.0


def test_losses_invariant_under_translation():
    rng = stream_rng(3, "loss-test")
    for _ in range(100):
        # rank 2 strictly below d, otherwise the perpendicular is
        # identically zero and the direction loss sits on its guard
        d = int(rng.integers(4, 9))
        sub = _random_subspace(rng, d, 2)
        t = 10.0 * rng.standard_normal(d)
        moved = DomainSubspace(
            mean=sub.mean + t, basis=sub.basis, singular_values=sub.singular_values
        )
        p_s, p_t = rng.standard_normal(d), rng.standard_normal(d)
        tape = Tape()
        base_d = dist_loss(tape.variable(p_t), sub).item()
        base_r = direct_loss(tape.variable(p_s), tape.variable(p_t), sub).item()
        moved_d = dist_loss(tape.variable(p_t + t), moved).item()
        moved_r = direct_loss(
            tape.variable(p_s + t), tape.variable(p_t + t), moved
        ).item()
        assert moved_d == pytest.approx(base_d, rel=1e-10, abs=1e-10)
        assert moved_r == pytest.approx(base_r, rel=1e-10, abs=1e-10)


def test_scaling_squares_dist_and_preserves_direction():
    rng = stream_rng(4, "loss-test")
    for _ in range(100):
        d = int(rng.integers(4, 9))
        c = float(rng.uniform(0.5, 3.0))
        sub = _random_subspace(rng, d, 2)
        scaled = DomainSubspace(
            mean=c * sub.mean, basis=sub.basis, singular_values=sub.singular_values
        )
        p_s, p_t = rng.standard_normal(d), rng.standard_normal(d)
        tape = Tape()
        base_d = dist_loss(tape.variable(p_t), sub).item()
        base_r = direct_loss(tape.variable(p_s), tape.variable(p_t), sub).item()
        scaled_d = dist_loss(tape.variable(c * p_t), scaled).item()
        scaled_r = direct_loss(
            tape.variable(c * p_s), tape.variable(c * p_t), scaled
        ).item()
        assert scaled_d == pytest.approx(c * c * base_d, rel=1e-9, abs=1e-12)
        assert scaled_r == pytest.approx(base_r, rel=1e-9, abs=1e-9)


def test_objective_zero_when_on_subspace_without_direction_term(world, subspaces):
    # lambda 0 and a target generator already producing in-subspace
    # embeddings would give zero; here we check the weaker contract
    # that the total is the weighted sum of the reported terms
    rng = stream_rng(5, "loss-test")
    z = rng.standard_normal((3, world.config.d_z))
    weights = [DomainWeight("attr0", 0.5), DomainWeight("attr1", 0.5)]
    encoders = [world.encoder(e) for e in world.train_encoder_ids]
    breakdown, grads = hda_objective(
        z,
        world.source_generator,
        make_target_generator(world.source_generator),
        encoders,
        subspaces,
        weights,
        lam=1.0,
    )
    want = sum(t.dist_term + 1.0 * t.direct_term for t in breakdown.per_encoder)
    assert breakdown.total == pytest.approx(want, rel=1e-10)
    assert set(grads) == {"w1", "b1", "w2", "b2"}
    for g in grads.values():
        assert np.all(np.isfinite(g))


def test_objective_additive_over_encoders(world, subspaces):
    rng = stream_rng(6, "loss-test")
    z = rng.standard_normal((2, world.config.d_z))
    weights = [DomainWeight("attr0", 0.5), DomainWeight("attr1", 0.5)]
    target = make_target_generator(world.source_generator)
    ids = list(world.train_encoder_ids)

    def total_for(encoder_ids):
        breakdown, _ = hda_objective(
            z,
            world.source_generator,
            target,
            [world.encoder(e) for e in encoder_ids],
            subspaces,
            weights,
            lam=1.0,
        )
        return breakdown.total

    together = total_for(ids)
    separate = sum(total_for([e]) for e in ids)
    assert together == pytest.approx(separate, rel=1e-12)


def test_objective_variant_flags(world, subspaces):
    rng = stream_rng(7, "loss-test")
    z = rng.standard_normal((2, world.config.d_z))
    weights = [DomainWeight("attr0", 0.5), DomainWeight("attr1", 0.5)]
    target = make_target_generator(world.source_generator)
    encoders = [world.encoder(e) for e in world.train_encoder_ids]

    def run(**kw):
        breakdown, _ = hda_objective(
            z, world.source_generator, target, encoders, subspaces, weights, 1.0, **kw
        )
        return breakdown

    full = run()
    dist_only = run(dist_only=True)
    direct_only = run(direct_only=True)
    assert dist_only.total == pytest.approx(
        sum(t.dist_term for t in full.per_encoder), rel=1e-10
    )
    assert direct_only.total == pytest.approx(
        sum(t.direct_term for t in full.per_encoder), rel=1e-10
    )
    with pytest.raises(ConfigError):
        run(dist_only=True, direct_only=True)


def test_objective_weight_subset_and_unknown_domain(world, subspaces):
    z = stream_rng(8, "loss-test").standard_normal((2, world.config.d_z))
    target = make_target_generator(world.source_generator)
    encoders = [world.encoder(e) for e in world.train_encoder_ids]
    # weighting a subset of the built domains is how single-domain runs
    # on a multi-domain world work; it must not error
    breakdown, _ = hda_objective(
        z,
        world.source_generator,
        target,
        encoders,
        subspaces,
        [DomainWeight("attr0", 1.0)],
        lam=1.0,
    )
    assert np.isfinite(breakdown.total)
    with pytest.raises(ConfigError):
        hda_objective(
            z,
            world.source_generator,
            target,
            encoders,
            subspaces,
            [DomainWeight("missing", 1.0)],
            lam=1.0,
        )


def test_domain_weight_validation():
    with pytest.raises(ConfigError):
        DomainWeight("a", 0.0)
    with pytest.raises(ConfigError):
        DomainWeight("a", -1.0)


def test_loss_breakdown_json_round_trip():
    rng = stream_rng(9, "loss-test")
    from hda.losses import EncoderTerms

    breakdown = LossBreakdown(
        total=1.25,
        per_encoder=[
            EncoderTerms("train0", 0.5, 0.25),
            EncoderTerms("train1", 0.25, 0.25),
        ],
        lam=1.0,
    )
    back = LossBreakdown.from_json_dict(breakdown.to_json_dict())
    assert back.total == breakdown.total
    assert back.lam == breakdown.lam
    assert [t.encoder_id for t in back.per_encoder] == ["train0", "train1"]
