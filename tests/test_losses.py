"""Distance and direction losses: hand values, identities, invariances.

The loss tests run :func:`hda_objective` at one source and one target
point (``conftest.py``'s ``point_losses``); its reduction from three
copies of a subspace to one is criterion 3's.
"""

import numpy as np
import pytest

from hda.errors import ConfigError
from hda.losses import DomainWeight, ObjectivePlan, hda_objective, loss_total
from hda.seeding import stream_rng
from hda.subspace import DomainSubspace, FeatureSet, build_subspace, subspace_distance_sq
from hda.worlds import flatten_generator, unflatten_generator


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


def test_dist_loss_hand_value_and_gradient(point_losses):
    sub = _axis_subspace(3, 0)
    p = np.array([2.0, 3.0, 4.0])
    dist, _, grad = point_losses(p, p, [sub], [1.0], dist_only=True)
    assert dist == pytest.approx(25.0, rel=1e-12)
    # closed form: twice the residual to the subspace
    np.testing.assert_allclose(grad, [0.0, 6.0, 8.0], rtol=1e-10)


def test_dist_loss_zero_on_subspace_point(point_losses):
    sub = _axis_subspace(4, 1, mean=[0.0, 2.0, 0.0, 0.0])
    p = np.array([0.0, 7.0, 0.0, 0.0])
    dist, _, grad = point_losses(p, p, [sub], [1.0], dist_only=True)
    assert dist == pytest.approx(0.0, abs=1e-18)
    np.testing.assert_allclose(grad, np.zeros(4), atol=1e-12)


def test_dist_loss_matches_projection_module(point_losses):
    rng = stream_rng(0, "loss-test")
    for _ in range(25):
        sub = _random_subspace(rng, 8, 4)
        p = rng.standard_normal(8)
        dist, _, _ = point_losses(p, p, [sub], [1.0], dist_only=True)
        assert dist == pytest.approx(subspace_distance_sq(sub, p), rel=1e-12, abs=1e-14)


def test_direct_loss_collinear_and_opposed(point_losses):
    sub = _axis_subspace(2, 1, mean=[4.0, 0.0])
    p_s = np.array([0.0, 3.0])
    # target sits between source and subspace: displacement and
    # perpendicular point the same way
    _, direct, _ = point_losses(p_s, np.array([2.0, 3.0]), [sub], [1.0])
    assert direct == pytest.approx(0.0, abs=1e-7)
    # walking away from the subspace costs the full 2
    _, direct, _ = point_losses(p_s, np.array([-2.0, 3.0]), [sub], [1.0])
    assert direct == pytest.approx(2.0, abs=1e-7)


def test_direct_loss_degenerate_displacement_is_guarded(point_losses):
    # identical source and target: zero displacement, loss pinned at 1
    sub = _axis_subspace(2, 1, mean=[4.0, 0.0])
    p = np.array([0.0, 3.0])
    _, direct, grad = point_losses(p, p, [sub], [1.0], direct_only=True)
    assert direct == 1.0
    assert np.all(np.isfinite(grad))


def test_hybrid_dist_hand_value(point_losses):
    subs = [_axis_subspace(2, 0), _axis_subspace(2, 1)]
    p = np.array([1.0, 1.0])
    dist, _, _ = point_losses(p, p, subs, [0.5, 0.5])
    assert dist == pytest.approx(1.0, rel=1e-12)


def test_hybrid_direct_hand_value(point_losses):
    subs = [_axis_subspace(2, 0), _axis_subspace(2, 1)]
    # aggregated perpendicular (-0.5,-0.5) is parallel to the displacement
    _, direct, _ = point_losses(np.array([2.0, 2.0]), np.array([1.0, 1.0]), subs, [0.5, 0.5])
    assert direct == pytest.approx(0.0, abs=1e-7)


def test_hybrid_direct_exact_cancellation_is_guarded(point_losses):
    # two parallel lines; at the midpoint the weighted perpendiculars
    # cancel exactly and the loss pins at 1 with a finite gradient
    basis = np.zeros((6, 1))
    basis[0, 0] = 1.0
    up = np.zeros(6)
    up[1] = 1.0
    subs = [
        DomainSubspace(mean=up, basis=basis, singular_values=np.array([1.0])),
        DomainSubspace(mean=-up, basis=basis, singular_values=np.array([1.0])),
    ]
    p_s = np.array([1.0, 2.0, 0.0, 0.0, 0.0, 0.0])
    _, direct, grad = point_losses(p_s, np.zeros(6), subs, [0.5, 0.5], direct_only=True)
    assert direct == 1.0
    assert np.all(np.isfinite(grad))


def test_direct_loss_range(point_losses):
    rng = stream_rng(2, "loss-test")
    for _ in range(100):
        sub = _random_subspace(rng, 5, 2)
        p_s, p_t = rng.standard_normal(5), rng.standard_normal(5)
        _, direct, _ = point_losses(p_s, p_t, [sub], [1.0])
        assert 0.0 <= direct <= 2.0


def test_losses_invariant_under_translation(point_losses):
    rng = stream_rng(3, "loss-test")
    for _ in range(100):
        # rank 2 strictly below d, otherwise the perpendicular is
        # identically zero and the direction loss sits on its guard
        d = int(rng.integers(4, 9))
        sub = _random_subspace(rng, d, 2)
        t = 10.0 * rng.standard_normal(d)
        p_s, p_t = rng.standard_normal(d), rng.standard_normal(d)
        base_d, base_r, _ = point_losses(p_s, p_t, [sub], [1.0])
        moved_d, moved_r, _ = point_losses(p_s, p_t, [sub], [1.0], shift=t)
        assert moved_d == pytest.approx(base_d, rel=1e-10, abs=1e-10)
        assert moved_r == pytest.approx(base_r, rel=1e-10, abs=1e-10)


def test_scaling_squares_dist_and_preserves_direction(point_losses):
    rng = stream_rng(4, "loss-test")
    for _ in range(100):
        d = int(rng.integers(4, 9))
        c = float(rng.uniform(0.5, 3.0))
        sub = _random_subspace(rng, d, 2)
        p_s, p_t = rng.standard_normal(d), rng.standard_normal(d)
        base_d, base_r, _ = point_losses(p_s, p_t, [sub], [1.0])
        scaled_d, scaled_r, _ = point_losses(p_s, p_t, [sub], [1.0], scale=c)
        assert scaled_d == pytest.approx(c * c * base_d, rel=1e-9, abs=1e-12)
        assert scaled_r == pytest.approx(base_r, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize(
    "flags", [{}, {"dist_only": True}, {"direct_only": True}],
    ids=["full", "dist_only", "direct_only"],
)
def test_a_repeated_latent_gives_its_own_losses_at_any_batch(world, subspaces, flags):
    """The loss terms and the gradient are batch means: B copies of a latent give its own.

    Not bit for bit: a 1-row product and a B-row product round apart
    (about 1e-15 here).  Batch sums would be B times too large.
    """
    rng = stream_rng(9, "loss-test")
    z = rng.standard_normal((1, world.config.d_z))
    source = world.source_generator
    flat = flatten_generator(source)
    target = unflatten_generator(flat + 0.05 * rng.standard_normal(flat.size), source)
    encoders = [world.encoder(e) for e in world.train_encoder_ids]
    weights = [DomainWeight("attr0", 0.3), DomainWeight("attr1", 0.7)]

    def objective(z_batch):
        return hda_objective(z_batch, source, target, encoders, subspaces, weights, 1.0, **flags)

    want = objective(z)
    for copies in (2, 3, 4):
        got = objective(np.repeat(z, copies, axis=0))
        for name, g, w in zip(("dist", "direct", "gradient"), got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), f"{name}, B = {copies}"


def test_objective_zero_when_on_subspace_without_direction_term(world, subspaces):
    # lambda 0 and a target generator already producing in-subspace
    # embeddings would give zero; here we check the weaker contract
    # that the total is the weighted sum of the reported terms
    rng = stream_rng(5, "loss-test")
    z = rng.standard_normal((3, world.config.d_z))
    weights = [DomainWeight("attr0", 0.5), DomainWeight("attr1", 0.5)]
    encoders = [world.encoder(e) for e in world.train_encoder_ids]
    dist, direct, grads = hda_objective(
        z,
        world.source_generator,
        world.source_generator,
        encoders,
        subspaces,
        weights,
        lam=1.0,
    )
    assert dist.shape == direct.shape == (len(encoders),)
    want = sum(d + 1.0 * r for d, r in zip(dist, direct))
    assert loss_total(dist, direct, 1.0) == pytest.approx(want, rel=1e-10)
    assert grads.shape == flatten_generator(world.source_generator).shape
    assert np.all(np.isfinite(grads))


def test_objective_additive_over_encoders(world, subspaces):
    rng = stream_rng(6, "loss-test")
    z = rng.standard_normal((2, world.config.d_z))
    weights = [DomainWeight("attr0", 0.5), DomainWeight("attr1", 0.5)]
    target = world.source_generator
    ids = list(world.train_encoder_ids)

    def total_for(encoder_ids):
        dist, direct, _ = hda_objective(
            z,
            world.source_generator,
            target,
            [world.encoder(e) for e in encoder_ids],
            subspaces,
            weights,
            lam=1.0,
        )
        return loss_total(dist, direct, 1.0)

    together = total_for(ids)
    separate = sum(total_for([e]) for e in ids)
    assert together == pytest.approx(separate, rel=1e-12)


def test_objective_variant_flags(world, subspaces):
    rng = stream_rng(7, "loss-test")
    z = rng.standard_normal((2, world.config.d_z))
    weights = [DomainWeight("attr0", 0.5), DomainWeight("attr1", 0.5)]
    target = world.source_generator
    encoders = [world.encoder(e) for e in world.train_encoder_ids]

    def run(**kw):
        dist, direct, _ = hda_objective(
            z, world.source_generator, target, encoders, subspaces, weights, 1.0, **kw
        )
        return dist, direct, loss_total(dist, direct, 1.0)

    full_dist, full_direct, _ = run()
    *_, dist_only = run(dist_only=True)
    *_, direct_only = run(direct_only=True)
    assert dist_only == pytest.approx(sum(full_dist), rel=1e-10)
    assert direct_only == pytest.approx(sum(full_direct), rel=1e-10)
    with pytest.raises(ConfigError):
        run(dist_only=True, direct_only=True)


def test_objective_weight_subset_and_unknown_domain(world, subspaces):
    z = stream_rng(8, "loss-test").standard_normal((2, world.config.d_z))
    target = world.source_generator
    encoders = [world.encoder(e) for e in world.train_encoder_ids]
    # weighting a subset of the built domains is how single-domain runs
    # on a multi-domain world work; it must not error
    dist, direct, _ = hda_objective(
        z,
        world.source_generator,
        target,
        encoders,
        subspaces,
        [DomainWeight("attr0", 1.0)],
        lam=1.0,
    )
    assert np.isfinite(loss_total(dist, direct, 1.0))
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


def test_objective_plan_refuses_empty_weights(world, subspaces):
    encoders = [world.encoder(e) for e in world.train_encoder_ids]
    with pytest.raises(ConfigError, match="at least one domain weight"):
        ObjectivePlan(world.source_generator, encoders, subspaces, [], 1.0)


def test_domain_weight_validation():
    with pytest.raises(ConfigError):
        DomainWeight("a", 0.0)
    with pytest.raises(ConfigError):
        DomainWeight("a", -1.0)
