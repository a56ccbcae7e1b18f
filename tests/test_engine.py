"""Adaptation loop: Adam, determinism, snapshots, checkpoints, aborts."""

import itertools
import json
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hda import engine
from hda.engine import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdaptationConfig,
    adam_step,
    check_separability,
    clip_gradients,
    default_adaptation_config,
    equal_weights,
    init_optimizer_state,
    load_run,
    run_adaptation,
    save_run,
    training_chunks,
)
from hda.errors import ConfigError, DegenerateDomain, DimensionError, NumericalError
from hda.files import json_doc, read_object
from hda.losses import DomainWeight, ObjectivePlan, hda_objective, loss_total
from hda.metrics import SnapshotPlan
from hda import worlds
from hda.seeding import derive_seed, stream_rng
from hda.subspace import DomainSubspace, FeatureSet, separation_ratio
from hda.worlds import (
    PARAM_FIELDS,
    build_world,
    build_world_subspaces,
    default_world_config,
    encode,
    flatten_generator,
    sample_source_points,
    unflatten_generator,
)


def _small_config(world, **overrides):
    base = dict(steps=8, learning_rate=0.01, seed=0)
    base.update(overrides)
    return default_adaptation_config(world, **base)


def training_batches(config, d_z):
    """The latent-batch stream of a run, one ``(B, d_z)`` batch per step."""
    for chunk in training_chunks(config, d_z):
        yield from chunk


def test_adam_first_step_hand_value():
    params = np.array([1.0])
    grads = np.array([1.0])
    config = default_config_for_adam(lr=1e-3)
    state = init_optimizer_state({"w": params})
    adam_step(params, grads, state, config)
    # bias-corrected first step moves by almost exactly the learning rate
    assert params[0] == pytest.approx(1.0 - 9.9999999e-4, abs=1e-12)
    assert state.step == 1


def default_config_for_adam(lr):
    return AdaptationConfig(
        encoder_ids=("e",),
        domain_ids=("d",),
        weights=(DomainWeight("d", 1.0),),
        learning_rate=lr,
    )


def test_adam_zero_gradient_keeps_params():
    params = np.array([1.0, -2.0])
    before = params.copy()
    grads = np.zeros(2)
    state = init_optimizer_state({"w": params})
    adam_step(params, grads, state, default_config_for_adam(1e-2))
    np.testing.assert_array_equal(params, before)


def _adam_reference(params, grads, m, v, t, config):
    """The out-of-place Adam formula: new params and moments after step ``t``."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m = b1 * m + (1.0 - b1) * grads
    v = b2 * v + (1.0 - b2) * (grads * grads)
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    return params - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v


def test_adam_in_place_equals_the_out_of_place_formula_bit_for_bit():
    rng = np.random.default_rng(11)
    config = default_config_for_adam(2e-3)
    params = rng.standard_normal(37)
    state = init_optimizer_state({"w": params})
    want, m, v = params.copy(), state.m.copy(), state.v.copy()
    for t in range(1, 301):
        # gradients over many scales, with exact zeros
        grads = rng.standard_normal(37) * 10.0 ** rng.integers(-8, 3, size=37)
        grads[rng.random(37) < 0.1] = 0.0
        adam_step(params, grads, state, config)
        want, m, v = _adam_reference(want, grads, m, v, t, config)
        assert state.step == t
    assert params.tobytes() == want.tobytes()
    assert state.m.tobytes() == m.tobytes()
    assert state.v.tobytes() == v.tobytes()


def test_adam_rejects_non_finite_gradient():
    params = np.array([1.0])
    grads = np.array([np.nan])
    state = replace(init_optimizer_state({"w": params}), step=3)
    with pytest.raises(NumericalError):
        adam_step(params, grads, state, default_config_for_adam(1e-2))


def test_adam_error_names_the_bad_parameter():
    views = {"w1": np.zeros((2, 3)), "b1": np.zeros(2), "w2": np.zeros((1, 2)), "b2": np.zeros(1)}
    state = init_optimizer_state(views)
    assert state.m.shape == state.v.shape == (11,)
    params = np.zeros(11)
    for index, name in ((0, "w1"), (5, "w1"), (6, "b1"), (8, "w2"), (10, "b2")):
        grads = np.zeros(11)
        grads[index] = np.inf
        grads[-1] = np.nan  # only the first bad entry is named
        message = f"non-finite gradient for '{name}' at optimizer step 1"
        with pytest.raises(NumericalError, match=message):
            adam_step(params, grads, state, default_config_for_adam(1e-2))


def test_adam_non_finite_gradient_leaves_params_and_state_untouched():
    rng = np.random.default_rng(4)
    config = default_config_for_adam(1e-2)
    params = rng.standard_normal(11)
    state = init_optimizer_state({"w1": params[:6], "b1": params[6:8], "w2": params[8:]})
    for _ in range(3):  # non-zero moments
        adam_step(params, rng.standard_normal(11), state, config)
    before = params.copy(), state.m.copy(), state.v.copy()
    grads = rng.standard_normal(11)
    grads[7] = -np.inf
    with pytest.raises(NumericalError, match="'b1' at optimizer step 4"):
        adam_step(params, grads, state, config)
    for got, want in zip((params, state.m, state.v), before):
        assert got.tobytes() == want.tobytes()
    assert state.step == 3


def test_clip_gradients_behavior():
    grads = np.array([3.0, 4.0])
    clipped, norm = clip_gradients(grads, 10.0)
    assert norm == pytest.approx(5.0)
    np.testing.assert_array_equal(clipped, grads)  # under the cap
    clipped, norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.sqrt(clipped @ clipped) == pytest.approx(1.0, rel=1e-12)
    assert clipped.tobytes() == (grads * (1.0 / 5.0)).tobytes()  # one rescale, its bits kept
    # direction preserved
    assert clipped[0] / clipped[1] == pytest.approx(3.0 / 4.0, rel=1e-12)
    # disabled and degenerate cases pass through
    same, _ = clip_gradients(grads, None)
    assert same is grads
    zeros = np.zeros(2)
    same, norm = clip_gradients(zeros, 1.0)
    assert norm == 0.0
    np.testing.assert_array_equal(same, zeros)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "grads", [[1e200, -1e200], [1.0, np.nan], [np.inf, 0.0]], ids=["overflow", "nan", "inf"]
)
def test_clip_gradients_refuses_a_non_finite_norm(grads):
    # a rescale by max_norm / inf would zero the direction it promises to keep
    with pytest.raises(NumericalError, match="gradient norm"):
        clip_gradients(np.array(grads), 10.0)


def test_unclippable_gradient_reports_step_and_last_good_params(world, subspaces, monkeypatch):
    config = _small_config(world, steps=6)
    call = ObjectivePlan.__call__
    steps = itertools.count(1)

    def overflowing_at_step_4(plan, z_batch, params, f_s):
        dist, direct, grads = call(plan, z_batch, params, f_s)
        return dist, direct, np.full_like(grads, 1e200) if next(steps) == 4 else grads

    monkeypatch.setattr(ObjectivePlan, "__call__", overflowing_at_step_4)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError, match="gradient norm") as excinfo:
            run_adaptation(config, world, subspaces)
    assert excinfo.value.step == 4
    monkeypatch.undo()
    prefix = run_adaptation(replace(config, steps=3), world, subspaces)
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(
            getattr(excinfo.value.last_good_params, name), getattr(prefix.final_params, name)
        )


def test_training_batches_deterministic_prefix():
    config = AdaptationConfig(
        encoder_ids=("e",),
        domain_ids=("d",),
        weights=(DomainWeight("d", 1.0),),
        steps=10,
        batch_size=3,
        seed=7,
    )
    longer = replace(config, steps=60)  # three chunks of steps: 25, 25 and 10
    short_batches = list(training_batches(config, d_z=4))
    long_batches = list(training_batches(longer, d_z=4))
    assert len(short_batches) == 10
    assert len(long_batches) == 60
    for a, b in zip(short_batches, long_batches):
        np.testing.assert_array_equal(a, b)
        assert a.shape == (3, 4)
    # a chunk's one draw equals one draw per step
    rng = stream_rng(7, "train-z")
    for batch in long_batches:
        np.testing.assert_array_equal(batch, rng.standard_normal((3, 4)))


def test_run_is_deterministic(world, subspaces):
    config = _small_config(world)
    a = run_adaptation(config, world, subspaces)
    b = run_adaptation(config, world, subspaces)
    np.testing.assert_array_equal(a.final_params.w1, b.final_params.w1)
    np.testing.assert_array_equal(a.final_params.b2, b.final_params.b2)
    assert a.dist.tobytes() == b.dist.tobytes()
    assert a.direct.tobytes() == b.direct.tobytes()


def test_longer_run_extends_shorter_one(world, subspaces):
    # 25 steps per chunk at the stock batch of 4: the longer run crosses two chunk edges
    short = run_adaptation(_small_config(world, steps=30), world, subspaces)
    longer = run_adaptation(_small_config(world, steps=60), world, subspaces)
    assert short.dist.tobytes() == longer.dist[:30].tobytes()
    assert short.direct.tobytes() == longer.direct[:30].tobytes()


def test_run_leaves_frozen_assets_untouched(world, subspaces):
    w1_before = world.source_generator.w1.copy()
    enc_before = world.train_encoders[0].w1.copy()
    record = run_adaptation(_small_config(world), world, subspaces)
    np.testing.assert_array_equal(world.source_generator.w1, w1_before)
    np.testing.assert_array_equal(world.train_encoders[0].w1, enc_before)
    assert not np.array_equal(record.final_params.w1, w1_before)


def test_first_step_loss_is_reproducible_from_checkpoint(world, subspaces):
    config = _small_config(world, steps=3)
    record = run_adaptation(config, world, subspaces)
    first = record.checkpoints["first"]
    assert first.step == 0
    batch = next(iter(training_batches(config, world.config.d_z)))
    encoders = [world.encoder(e) for e in config.encoder_ids]
    dist, direct, _ = hda_objective(
        batch,
        world.source_generator,
        first.params,
        encoders,
        subspaces,
        list(config.ordered_weights()),
        config.lam,
    )
    _assert_logged_step(record, 1, dist, direct)


def _assert_logged_step(record, step, dist_sums, direct_sums):
    """``record``'s row for ``step`` is these batch sums as batch means, bit for bit."""
    batch, lam = record.config.batch_size, record.config.lam
    inv_batch = 1.0 / batch
    dist, direct = record.dist[step - 1], record.direct[step - 1]
    assert (dist_sums * inv_batch).tobytes() == dist.tobytes(), f"step {step}"
    assert (direct_sums * inv_batch).tobytes() == direct.tobytes(), f"step {step}"
    want = loss_total(dist, direct, 1, lam)
    assert loss_total(dist_sums, direct_sums, batch, lam) == want, f"step {step}"


@pytest.fixture(scope="module")
def stock_record(world, subspaces):
    return run_adaptation(default_adaptation_config(world), world, subspaces)


def _recomputed_loss(config, world, subspaces, step, first_params):
    """``hda_objective``'s batch sums at ``step`` of a run, from the params entering that step."""
    if step == 1:
        params = first_params
    else:
        # params entering step s are the final params of an s-1 step run
        params = run_adaptation(replace(config, steps=step - 1), world, subspaces).final_params
    batch = next(itertools.islice(training_batches(config, world.config.d_z), step - 1, step))
    dist, direct, _ = hda_objective(
        batch,
        world.source_generator,
        params,
        [world.encoder(e) for e in config.encoder_ids],
        subspaces,
        list(config.ordered_weights()),
        config.lam,
    )
    return dist, direct


def test_logged_losses_match_recomputation_at_spot_steps(world, subspaces, stock_record):
    config = default_adaptation_config(world)
    first = stock_record.checkpoints["first"].params
    # 25 and 26 sit either side of the first chunk edge, 37 inside the second chunk
    for step in (1, 25, 26, 37, 150, 300):
        _assert_logged_step(
            stock_record, step, *_recomputed_loss(config, world, subspaces, step, first)
        )


@pytest.mark.parametrize(
    "batch_size, chunks",
    # 128 // 48 = 2 steps per chunk, the last one a remainder; 200 rows make one step
    [(48, [2, 2, 1]), (200, [1, 1, 1])],
)
def test_logged_losses_match_recomputation_at_other_chunk_sizes(
    world, subspaces, batch_size, chunks
):
    steps = sum(chunks)
    config = _small_config(world, steps=steps, batch_size=batch_size)
    assert [len(c) for c in training_chunks(config, world.config.d_z)] == chunks
    record = run_adaptation(config, world, subspaces)
    first = record.checkpoints["first"].params
    for step in range(1, steps + 1):
        _assert_logged_step(
            record, step, *_recomputed_loss(config, world, subspaces, step, first)
        )


def _count_source_calls(monkeypatch) -> list:
    calls = []
    wrapped = ObjectivePlan.source_embeddings

    def counted(self, z_chunk):
        calls.append(z_chunk.shape)
        return wrapped(self, z_chunk)

    monkeypatch.setattr(ObjectivePlan, "source_embeddings", counted)
    return calls


def test_source_side_is_computed_once_per_chunk(world, subspaces, monkeypatch):
    calls = _count_source_calls(monkeypatch)
    run_adaptation(_small_config(world, steps=60), world, subspaces)
    d_z = world.config.d_z
    assert calls == [(25, 4, d_z), (25, 4, d_z), (10, 4, d_z)]


def test_distance_only_run_computes_no_source_side(world, subspaces, monkeypatch):
    calls = _count_source_calls(monkeypatch)
    run_adaptation(_small_config(world, steps=30, dist_only=True), world, subspaces)
    assert calls == []


def test_step_losses_view_follows_the_loss_columns(world, subspaces):
    """``RunRecord.step_losses``, which the benchmark fingerprints, is ``dist`` and ``direct``."""
    config = default_adaptation_config(world, steps=30)
    record = run_adaptation(config, world, subspaces)
    breakdowns = record.step_losses
    assert len(breakdowns) == config.steps
    for i, b in enumerate(breakdowns):
        want = loss_total(record.dist[i], record.direct[i], 1, config.lam)
        assert np.float64(b.total).tobytes() == np.float64(want).tobytes(), f"step {i + 1}"
        assert b.lam == config.lam
        assert tuple(t.encoder_id for t in b.per_encoder) == config.encoder_ids
        assert [t.dist_term for t in b.per_encoder] == record.dist[i].tolist()
        assert [t.direct_term for t in b.per_encoder] == record.direct[i].tolist()


def test_weighting_a_domain_up_drops_its_held_out_distance_more(world, subspaces):
    """The domain weights checked by behaviour alone, with no second objective as oracle.

    Two stock runs weight one domain 0.9 and the other 0.1, then swap.
    Each domain's held-out subspace distance, first snapshot to last,
    must drop more in the run that weights it 0.9.
    """
    domains = ("attr0", "attr1")
    drops = {}  # heavy domain -> {domain: held-out distance drop}
    for heavy in domains:
        weights = tuple(DomainWeight(d, 0.9 if d == heavy else 0.1) for d in domains)
        record = run_adaptation(default_adaptation_config(world, weights=weights), world, subspaces)
        start, end = record.snapshot_at(0), record.snapshots[-1].report
        drops[heavy] = {d: start.mean_distance(d) - end.mean_distance(d) for d in domains}
    for domain, other in (domains, domains[::-1]):
        assert drops[domain][domain] > drops[other][domain], drops


def test_dist_term_trend_nonincreasing_in_25_step_blocks(stock_record):
    per_step = [sum(row) for row in stock_record.dist.tolist()]
    blocks = [
        float(np.mean(per_step[i : i + 25])) for i in range(0, len(per_step), 25)
    ]
    violations = sum(1 for a, b in zip(blocks, blocks[1:]) if b > a)
    assert violations <= 1, blocks


def test_snapshot_schedule_and_checkpoints(world, subspaces):
    config = _small_config(world, steps=60)
    record = run_adaptation(config, world, subspaces)
    steps = [s.step for s in record.snapshots]
    assert steps == [0, 1, 25, 50, 60]
    assert record.checkpoints["first"].step == 0
    assert record.checkpoints["last"].step == 60
    best = record.checkpoints["best"]
    # step 0 is the untouched copy whose consistency is 1 by construction;
    # "best" picks among the adapted snapshots
    adapted = {s.step: s.report.consistency for s in record.snapshots if s.step >= 1}
    assert best.step >= 1
    assert adapted[best.step] == max(adapted.values())


@pytest.mark.parametrize(
    "steps, snapshot_steps", [(1, [0, 1]), (60, [0, 1, 25, 50, 60])], ids=["steps1", "steps60"]
)
def test_snapshots_are_evaluated_in_bounded_stacks(
    world, subspaces, monkeypatch, steps, snapshot_steps
):
    stacks = []

    class RecordingPlan(SnapshotPlan):
        def evaluate_stack(self, params, like):
            reports = super().evaluate_stack(params, like)
            stacks.append((np.array(params), reports))
            return reports

    monkeypatch.setattr(engine, "SnapshotPlan", RecordingPlan)
    config = _small_config(world, steps=steps)
    record = run_adaptation(config, world, subspaces)
    n, per_stack = len(snapshot_steps), engine._SNAPSHOT_ROWS // engine.SNAPSHOT_SAMPLES
    assert [len(p) for p, _ in stacks] == [min(per_stack, n - i) for i in range(0, n, per_stack)]
    assert [s.step for s in record.snapshots] == snapshot_steps
    params = np.concatenate([p for p, _ in stacks])
    reports = [r for _, stack_reports in stacks for r in stack_reports]
    assert reports == [s.report for s in record.snapshots]
    # each report is its generator's alone, and each checkpoint holds its snapshot's parameters
    source = world.source_generator
    alone = SnapshotPlan(
        source,
        world.held_out_encoder,
        *world.held_out_targets(subspaces, config.domain_ids),
        engine.SNAPSHOT_SAMPLES,
        derive_seed(config.seed, "snapshot-eval"),
    )
    assert reports == [alone(unflatten_generator(p, source)) for p in params]
    by_step = dict(zip(snapshot_steps, params))
    for ckpt in record.checkpoints.values():
        np.testing.assert_array_equal(flatten_generator(ckpt.params), by_step[ckpt.step])
    adapted = [(s.step, s.report.consistency) for s in record.snapshots if s.step >= 1]
    assert record.checkpoints["best"].step == max(adapted, key=lambda sc: sc[1])[0]


def test_snapshot_working_set_does_not_grow_with_steps(world, subspaces):
    peaks = {}
    for steps in (300, 3000):
        config = default_adaptation_config(world, seed=0, steps=steps)
        tracemalloc.start()
        try:
            run_adaptation(config, world, subspaces)
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the 3,000-step run's loss rows and 122 reports add about 0.3 MiB;
    # its 122 snapshots held in one stack would add about 30 MiB
    assert peaks[3000] < peaks[300] + 2**20


def test_an_unknown_domain_is_named_before_missing_held_out_subspaces(world, subspaces):
    held_out = world.held_out_encoder.encoder_id
    without = {k: v for k, v in subspaces.items() if k != held_out}
    domain_ids = ("attr0", "nope")
    config = default_adaptation_config(
        world, domain_ids=domain_ids, weights=equal_weights(domain_ids)
    )
    with pytest.raises(ConfigError, match="unknown domain id 'nope'"):
        run_adaptation(config, world, without)
    with pytest.raises(ConfigError, match="unknown domain id 'nope'"):
        world.held_out_targets(without, domain_ids)


def test_missing_held_out_subspaces_are_named(world, subspaces):
    held_out = world.held_out_encoder.encoder_id
    partial = {**subspaces, held_out: {"attr0": subspaces[held_out]["attr0"]}}
    named = f"missing subspaces for encoder '{held_out}', domains ['attr1']"
    with pytest.raises(ConfigError, match=re.escape(named)):
        run_adaptation(_small_config(world), world, partial)
    without = {k: v for k, v in subspaces.items() if k != held_out}
    named = f"missing subspaces for encoder '{held_out}', domains ['attr0', 'attr1']"
    with pytest.raises(ConfigError, match=re.escape(named)):
        world.held_out_targets(without, ("attr0", "attr1"))


def test_exploding_run_reports_last_good_step(world, subspaces):
    config = _small_config(world, steps=20, learning_rate=1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as excinfo:
            run_adaptation(config, world, subspaces)
    exc = excinfo.value
    assert exc.step is not None and exc.step >= 2
    assert f"step {exc.step}" in str(exc)
    # the params it reports are those entering the failing step
    with np.errstate(over="ignore", invalid="ignore"):
        prefix = run_adaptation(replace(config, steps=exc.step - 1), world, subspaces)
    for name in ("w1", "b1", "w2", "b2"):
        np.testing.assert_array_equal(
            getattr(exc.last_good_params, name), getattr(prefix.final_params, name)
        )


def test_inseparable_domains_abort_before_training():
    config_noisy = default_world_config(seed=0)
    noisy = replace(
        config_noisy,
        domains=tuple(replace(d, noise_scale=5.0) for d in config_noisy.domains),
    )
    world = build_world(noisy)
    subspaces = build_world_subspaces(world)
    config = default_adaptation_config(world, steps=5)
    with pytest.raises(DegenerateDomain):
        run_adaptation(config, world, subspaces)


def test_full_rank_held_out_subspace_aborts_before_training(world, subspaces):
    # a held-out subspace as wide as the embedding is refused like a training one
    held_out = world.held_out_encoder.encoder_id
    d_e = world.config.d_e
    full = DomainSubspace(mean=np.zeros(d_e), basis=np.eye(d_e), singular_values=np.ones(d_e))
    swapped = {**subspaces, held_out: {**subspaces[held_out], "attr1": full}}
    named = f"'attr1' under encoder '{held_out}' has rank {d_e}"
    with pytest.raises(DegenerateDomain, match=named):
        run_adaptation(_small_config(world), world, swapped)


def test_separability_report_values(world):
    ratios = check_separability(
        world, world.train_encoder_ids, ("attr0", "attr1")
    )
    assert set(ratios) == set(world.train_encoder_ids)
    for value in ratios.values():
        assert value > 3.0


@pytest.mark.parametrize("domain_id", ["attr0", "attr1"])
def test_single_domain_separability_draws_the_source_cluster_once(world, monkeypatch, domain_id):
    # each encoder's ratio against its own draw of the source cluster, as before
    k = world.domain(domain_id).k
    seed = derive_seed(world.config.seed, "source-cluster")
    want = {}
    for enc in world.train_encoders:
        points = sample_source_points(world.source_generator, k, seed)
        source = FeatureSet(encode(enc, points), domain_id="source")
        want[enc.encoder_id] = separation_ratio([world.feature_set(enc, domain_id), source])
    draws = []
    real = worlds.sample_source_points
    monkeypatch.setattr(worlds, "sample_source_points", lambda *a: draws.append(a) or real(*a))
    got = check_separability(world, world.train_encoder_ids, (domain_id,))
    assert got == want  # exact float equality
    assert len(draws) == 1


def test_run_rejects_foreign_encoders(world, subspaces):
    held_out = world.held_out_encoder.encoder_id
    config = default_adaptation_config(world)
    with pytest.raises(ConfigError, match=f"encoder '{held_out}' is not a training encoder"):
        run_adaptation(
            replace(config, encoder_ids=config.encoder_ids + (held_out,)),
            world,
            subspaces,
        )


def test_final_params_are_the_last_checkpoints(tmp_path, world, subspaces):
    record = run_adaptation(_small_config(world, steps=3), world, subspaces)
    assert record.final_params is record.checkpoints["last"].params
    save_run(record, tmp_path / "run")
    back, _ = load_run(tmp_path / "run")
    assert back.final_params is back.checkpoints["last"].params
    # a view of the checkpoint, not a second copy to keep in step
    with pytest.raises(AttributeError):
        record.final_params = record.checkpoints["first"].params


def test_save_load_round_trip(tmp_path, world, subspaces):
    config = _small_config(world, steps=5)
    record = run_adaptation(config, world, subspaces)
    out = tmp_path / "run"
    save_run(record, out, world_dir="some/world")
    back, world_dir = load_run(out)
    assert world_dir == "some/world"
    assert back.config == record.config
    # the loss columns come back bit for bit, and so does every step's total
    for name in ("dist", "direct"):
        assert getattr(back, name).tobytes() == getattr(record, name).tobytes()
    lam = record.config.lam
    totals = [loss_total(d, r, 1, lam) for d, r in zip(record.dist, record.direct)]
    back_totals = [loss_total(d, r, 1, lam) for d, r in zip(back.dist, back.direct)]
    assert len(totals) == 5
    assert np.array(totals).tobytes() == np.array(back_totals).tobytes()
    assert [s.step for s in back.snapshots] == [s.step for s in record.snapshots]
    # parameters survive the 12-digit rounding used on disk
    np.testing.assert_allclose(back.final_params.w1, record.final_params.w1, rtol=1e-11)
    # the file holds them once, as the last checkpoint's
    assert "final_params" not in json.loads((out / "run_record.json").read_text(encoding="utf8"))
    last = back.checkpoints["last"].params
    for name in PARAM_FIELDS:
        assert getattr(back.final_params, name).tobytes() == getattr(last, name).tobytes()
    # a second save of the loaded record is byte-identical
    again = tmp_path / "run2"
    save_run(back, again, world_dir="some/world")
    assert (out / "run_record.json").read_bytes() == (again / "run_record.json").read_bytes()
    # one file per run
    assert [p.name for p in out.iterdir()] == ["run_record.json"]


def test_save_run_refuses_non_finite_values(tmp_path, world, subspaces):
    record = run_adaptation(_small_config(world, steps=3), world, subspaces)
    out = tmp_path / "run"
    save_run(record, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    snap = record.snapshots[1]
    bad = replace(snap, report=replace(snap.report, consistency=float("nan")))
    broken = replace(record, snapshots=(record.snapshots[0], bad, *record.snapshots[2:]))
    with pytest.raises(NumericalError, match="run_record.json: refusing to write a non-finite"):
        save_run(broken, out)
    # the file was not touched, and no temporary file is left behind
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_run_record_locks_and_checks_its_loss_columns(world, subspaces):
    record = run_adaptation(_small_config(world, steps=3), world, subspaces)
    with pytest.raises(ValueError):
        record.dist[1, 0] = 0.0
    assert isinstance(record.snapshots, tuple)
    nan = np.array(record.dist)
    nan[1, 0] = float("nan")
    with pytest.raises(ConfigError, match="dist contains non-finite entries"):
        replace(record, dist=nan)
    # a DimensionError, which the file reader reports as a ConfigError (tests/test_cli.py)
    with pytest.raises(DimensionError, match=r"dist must have shape \(3, 3\), got \(2, 3\)"):
        replace(record, dist=record.dist[:2])


def test_save_run_replaces_files_atomically(tmp_path, world, subspaces, monkeypatch):
    short = run_adaptation(_small_config(world, steps=3), world, subspaces)
    longer = run_adaptation(_small_config(world, steps=6), world, subspaces)
    out = tmp_path / "run"
    save_run(short, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    renames = []

    def crash(src, dst):
        renames.append((os.path.dirname(src), os.path.dirname(dst)))
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        save_run(longer, out)
    assert renames == [(str(out), str(out))]
    # the previous files survive whole and the temporary file is removed
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_config_json_round_trip_including_optional_clip(world):
    config = default_adaptation_config(world, grad_clip_norm=None)
    back = read_object(AdaptationConfig, json_doc(config), "config")
    assert back == config
    config = default_adaptation_config(world, grad_clip_norm=2.5)
    back = read_object(AdaptationConfig, json_doc(config), "config")
    assert back.grad_clip_norm == 2.5
    # absent key falls back to the default
    doc = json_doc(config)
    del doc["grad_clip_norm"]
    assert read_object(AdaptationConfig, doc, "config").grad_clip_norm == 10.0
    # a JSON integer is a float setting's value, and is written back as a float
    doc.update({"lambda": 1, "learning_rate": 1})
    doc["weights"][0]["alpha"] = 2
    back = json_doc(read_object(AdaptationConfig, doc, "config"))
    values = (back["lambda"], back["learning_rate"], back["weights"][0]["alpha"])
    assert values == (1.0, 1.0, 2.0) and all(type(v) is float for v in values)


@pytest.mark.parametrize("field", ["dist_only", "direct_only", "seed", "grad_clip_norm"])
def test_config_flags_accept_only_json_booleans(world, field):
    doc = json_doc(default_adaptation_config(world))
    if field in ("seed", "grad_clip_norm"):
        # and a number takes no boolean, though Python counts True as the int 1
        bad_values = (True,)
    else:
        doc[field] = True
        assert getattr(read_object(AdaptationConfig, doc, "config"), field) is True
        # the string "false" is truthy; it must not switch an ablation on
        bad_values = ("false", 0, None)
    for bad in bad_values:
        doc[field] = bad
        with pytest.raises(ConfigError, match=field):
            read_object(AdaptationConfig, doc, "config")


@pytest.mark.parametrize(
    "overrides",
    [
        dict(steps=0),
        dict(batch_size=0),
        dict(learning_rate=0.0),
        dict(lam=-0.1),
        dict(seed=-1),
        dict(grad_clip_norm=0.0),
        dict(dist_only=True, direct_only=True),
        dict(encoder_ids=("e", "e")),
        dict(domain_ids=("d", "d"), weights=(DomainWeight("d", 1.0),)),
        dict(weights=(DomainWeight("other", 1.0),)),
        dict(encoder_ids=()),
    ],
)
def test_config_validation_rejects(overrides):
    base = dict(
        encoder_ids=("e",),
        domain_ids=("d",),
        weights=(DomainWeight("d", 1.0),),
    )
    base.update(overrides)
    with pytest.raises(ConfigError):
        AdaptationConfig(**base)


def _config_with(**overrides):
    return AdaptationConfig(("e",), ("d",), (DomainWeight("d", 1.0),), **overrides)


def _plan_with_lambda(world, subspaces, lam):
    encoders = [world.encoder(e) for e in world.train_encoder_ids]
    weights = [DomainWeight(d.domain_id, 0.5) for d in world.domains]
    return ObjectivePlan(world.source_generator, encoders, subspaces, weights, lam)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda world, subspaces, v: _config_with(lam=v), "lambda must be >= 0"),
        (lambda world, subspaces, v: _config_with(learning_rate=v), "learning_rate must be > 0"),
        (lambda world, subspaces, v: DomainWeight("d", v), "weight for 'd' must be positive"),
        (_plan_with_lambda, "lambda must be >= 0"),
    ],
    ids=["config lambda", "config learning_rate", "domain weight", "plan lambda"],
)
def test_non_finite_numbers_fail_when_the_config_is_built(world, subspaces, build, message, value):
    """JSON input refuses these in ``files.read_value``; the Python API does too."""
    with pytest.raises(ConfigError, match=message):
        build(world, subspaces, value)
