"""Adaptation loop: Adam, determinism, snapshots, checkpoints, aborts."""

import itertools
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from hda.engine import (
    AdaptationConfig,
    adam_step,
    check_separability,
    clip_gradients,
    default_adaptation_config,
    init_optimizer_state,
    load_run,
    run_adaptation,
    run_single_domain,
    save_run,
    training_batches,
    training_chunks,
)
from hda.errors import ConfigError, DegenerateDomain, NumericalError
from hda.losses import DomainWeight, ObjectivePlan, hda_objective
from hda.seeding import stream_rng
from hda.worlds import (
    build_world,
    build_world_subspaces,
    default_world_config,
    make_target_generator,
)


def _small_config(world, **overrides):
    base = dict(steps=8, learning_rate=0.01, seed=0)
    base.update(overrides)
    return default_adaptation_config(world, **base)


def test_adam_first_step_hand_value():
    params = np.array([1.0])
    grads = np.array([1.0])
    config = default_config_for_adam(lr=1e-3)
    state = init_optimizer_state({"w": params})
    new_params, new_state = adam_step(params, grads, state, config)
    # bias-corrected first step moves by almost exactly the learning rate
    assert new_params[0] == pytest.approx(1.0 - 9.9999999e-4, abs=1e-12)
    assert new_state.step == 1


def default_config_for_adam(lr):
    return AdaptationConfig(
        encoder_ids=("e",),
        domain_ids=("d",),
        weights=(DomainWeight("d", 1.0),),
        learning_rate=lr,
    )


def test_adam_zero_gradient_keeps_params():
    params = np.array([1.0, -2.0])
    grads = np.zeros(2)
    state = init_optimizer_state({"w": params})
    new_params, _ = adam_step(params, grads, state, default_config_for_adam(1e-2))
    np.testing.assert_array_equal(new_params, params)


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


def test_clip_gradients_behavior():
    grads = np.array([3.0, 4.0])
    clipped, norm = clip_gradients(grads, 10.0)
    assert norm == pytest.approx(5.0)
    np.testing.assert_array_equal(clipped, grads)  # under the cap
    clipped, norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.sqrt(clipped @ clipped) == pytest.approx(1.0, rel=1e-12)
    # direction preserved
    assert clipped[0] / clipped[1] == pytest.approx(3.0 / 4.0, rel=1e-12)
    # disabled and degenerate cases pass through
    same, _ = clip_gradients(grads, None)
    assert same is grads
    zeros = np.zeros(2)
    same, norm = clip_gradients(zeros, 1.0)
    assert norm == 0.0
    np.testing.assert_array_equal(same, zeros)


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
    assert [s.total for s in a.step_losses] == [s.total for s in b.step_losses]


def test_longer_run_extends_shorter_one(world, subspaces):
    # 25 steps per chunk at the stock batch of 4: the longer run crosses two chunk edges
    short = run_adaptation(_small_config(world, steps=30), world, subspaces)
    longer = run_adaptation(_small_config(world, steps=60), world, subspaces)
    assert short.step_losses == longer.step_losses[:30]


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
    breakdown, _ = hda_objective(
        batch,
        world.source_generator,
        first.params,
        encoders,
        subspaces,
        list(config.ordered_weights()),
        config.lam,
    )
    assert breakdown == record.step_losses[0]


@pytest.fixture(scope="module")
def stock_record(world, subspaces):
    return run_adaptation(default_adaptation_config(world), world, subspaces)


def _recomputed_loss(config, world, subspaces, step, first_params):
    """``hda_objective`` at ``step`` of a run, from the params that enter that step."""
    if step == 1:
        params = first_params
    else:
        # params entering step s are the final params of an s-1 step run
        params = run_adaptation(replace(config, steps=step - 1), world, subspaces).final_params
    batch = next(itertools.islice(training_batches(config, world.config.d_z), step - 1, step))
    breakdown, _ = hda_objective(
        batch,
        world.source_generator,
        params,
        [world.encoder(e) for e in config.encoder_ids],
        subspaces,
        list(config.ordered_weights()),
        config.lam,
    )
    return breakdown


def test_logged_losses_match_recomputation_at_spot_steps(world, subspaces, stock_record):
    config = default_adaptation_config(world)
    first = stock_record.checkpoints["first"].params
    # 25 and 26 sit either side of the first chunk edge, 37 inside the second chunk
    for step in (1, 25, 26, 37, 150, 300):
        breakdown = _recomputed_loss(config, world, subspaces, step, first)
        assert breakdown == stock_record.step_losses[step - 1], f"step {step}"


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
        breakdown = _recomputed_loss(config, world, subspaces, step, first)
        assert breakdown == record.step_losses[step - 1], f"step {step}"


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


def test_dist_term_trend_nonincreasing_in_25_step_blocks(stock_record):
    per_step = [
        sum(t.dist_term for t in bd.per_encoder) for bd in stock_record.step_losses
    ]
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


def test_separability_report_values(world):
    ratios = check_separability(
        world, world.train_encoder_ids, ("attr0", "attr1")
    )
    assert set(ratios) == set(world.train_encoder_ids)
    for value in ratios.values():
        assert value > 3.0


def test_run_rejects_foreign_encoders(world, subspaces):
    held_out = world.held_out_encoder.encoder_id
    config = default_adaptation_config(world)
    with pytest.raises(ConfigError):
        run_adaptation(
            replace(config, encoder_ids=config.encoder_ids + (held_out,)),
            world,
            subspaces,
        )


def test_run_single_domain_requires_one_domain(world, subspaces):
    config = default_adaptation_config(world, steps=2)
    with pytest.raises(ConfigError):
        run_single_domain(config, world, subspaces)


def test_save_load_round_trip(tmp_path, world, subspaces):
    config = _small_config(world, steps=5)
    record = run_adaptation(config, world, subspaces)
    out = tmp_path / "run"
    save_run(record, out, world_dir="some/world")
    back, world_dir = load_run(out)
    assert world_dir == "some/world"
    assert back.config == record.config
    assert len(back.step_losses) == 5
    assert [s.step for s in back.snapshots] == [s.step for s in record.snapshots]
    # parameters survive the 12-digit rounding used on disk
    np.testing.assert_allclose(back.final_params.w1, record.final_params.w1, rtol=1e-11)
    # a second save of the loaded record is byte-identical
    again = tmp_path / "run2"
    save_run(back, again, world_dir="some/world")
    assert (out / "run_record.json").read_bytes() == (again / "run_record.json").read_bytes()
    assert (out / "log.jsonl").read_bytes() == (again / "log.jsonl").read_bytes()


def test_save_run_refuses_non_finite_values(tmp_path, world, subspaces):
    record = run_adaptation(_small_config(world, steps=3), world, subspaces)
    out = tmp_path / "run"
    save_run(record, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    bad = record.step_losses[1]
    record.step_losses[1] = replace(bad, total=float("nan"))
    with pytest.raises(NumericalError, match="log.jsonl: refusing to write a non-finite"):
        save_run(record, out)
    # neither file was touched, and no temporary file is left behind
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


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


def test_log_lines_are_valid_json(tmp_path, world, subspaces):
    record = run_adaptation(_small_config(world, steps=4), world, subspaces)
    out = tmp_path / "run"
    save_run(record, out)
    lines = (out / "log.jsonl").read_text(encoding="utf8").splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert first["step"] == 1
    assert "total" in first


def test_config_json_round_trip_including_optional_clip(world):
    config = default_adaptation_config(world, grad_clip_norm=None)
    back = AdaptationConfig.from_json_dict(config.to_json_dict())
    assert back == config
    config = default_adaptation_config(world, grad_clip_norm=2.5)
    back = AdaptationConfig.from_json_dict(config.to_json_dict())
    assert back.grad_clip_norm == 2.5
    # absent key falls back to the default
    doc = config.to_json_dict()
    del doc["grad_clip_norm"]
    assert AdaptationConfig.from_json_dict(doc).grad_clip_norm == 10.0
    # a JSON integer is a float setting's value, and is written back as a float
    doc.update({"lambda": 1, "learning_rate": 1})
    doc["weights"][0]["alpha"] = 2
    back = AdaptationConfig.from_json_dict(doc).to_json_dict()
    values = (back["lambda"], back["learning_rate"], back["weights"][0]["alpha"])
    assert values == (1.0, 1.0, 2.0) and all(type(v) is float for v in values)


@pytest.mark.parametrize("field", ["dist_only", "direct_only", "seed", "grad_clip_norm"])
def test_config_flags_accept_only_json_booleans(world, field):
    doc = default_adaptation_config(world).to_json_dict()
    if field in ("seed", "grad_clip_norm"):
        # and a number takes no boolean, though Python counts True as the int 1
        bad_values = (True,)
    else:
        doc[field] = True
        assert getattr(AdaptationConfig.from_json_dict(doc), field) is True
        # the string "false" is truthy; it must not switch an ablation on
        bad_values = ("false", 0, None)
    for bad in bad_values:
        doc[field] = bad
        with pytest.raises(ConfigError, match=field):
            AdaptationConfig.from_json_dict(doc)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(steps=0),
        dict(batch_size=0),
        dict(learning_rate=0.0),
        dict(lam=-0.1),
        dict(seed=-1),
        dict(grad_clip_norm=0.0),
        dict(adam_beta1=1.0),
        dict(adam_eps=0.0),
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
