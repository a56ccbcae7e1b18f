"""Held-out evaluation: similarity, consistency, diversity, stable reports."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from hda import engine, metrics
from hda.engine import default_adaptation_config, run_adaptation
from hda.errors import ConfigError, DimensionError, NumericalError
from hda.metrics import (
    MetricsReport,
    SnapshotPlan,
    _cluster_pair_distances,
    _diversity,
    evaluate,
    round12,
    write_report,
)
from hda.seeding import derive_seed
from hda.worlds import make_source_generator, make_target_generator


def _held_out_inputs(world, subspaces):
    enc = world.held_out_encoder
    return (
        enc,
        {d: subspaces[enc.encoder_id][d] for d in world.references},
        dict(world.references),
    )


def test_untouched_copy_scores_perfect_consistency(world, subspaces):
    enc, held_subs, refs = _held_out_inputs(world, subspaces)
    target = make_target_generator(world.source_generator)
    report = evaluate(target, world.source_generator, enc, held_subs, refs, 64, seed=0)
    assert report.consistency == 1.0
    assert report.diversity > 0.0
    for domain_id in refs:
        assert report.mean_distance(domain_id) > 0.0


def test_constant_generator_scores_zero_diversity(world, subspaces):
    enc, held_subs, refs = _held_out_inputs(world, subspaces)
    collapsed = make_target_generator(world.source_generator)
    collapsed = dataclasses.replace(
        collapsed,
        w1=np.zeros_like(collapsed.w1),
        w2=np.zeros_like(collapsed.w2),
    )
    report = evaluate(collapsed, world.source_generator, enc, held_subs, refs, 64, seed=0)
    assert report.diversity == 0.0


def test_evaluate_is_deterministic(world, subspaces):
    enc, held_subs, refs = _held_out_inputs(world, subspaces)
    target = make_target_generator(world.source_generator)
    a = evaluate(target, world.source_generator, enc, held_subs, refs, 32, seed=5)
    b = evaluate(target, world.source_generator, enc, held_subs, refs, 32, seed=5)
    assert a.to_json_dict() == b.to_json_dict()
    c = evaluate(target, world.source_generator, enc, held_subs, refs, 32, seed=6)
    assert a.to_json_dict() != c.to_json_dict()


def test_evaluate_validates_inputs(world, subspaces):
    enc, held_subs, refs = _held_out_inputs(world, subspaces)
    target = make_target_generator(world.source_generator)
    with pytest.raises(ConfigError):
        evaluate(target, world.source_generator, enc, held_subs, refs, 1, seed=0)
    with pytest.raises(ConfigError):
        evaluate(
            target,
            world.source_generator,
            enc,
            {"attr0": held_subs["attr0"]},
            refs,
            16,
            seed=0,
        )
    with pytest.raises(ConfigError):
        evaluate(target, world.source_generator, enc, {}, {}, 16, seed=0)


def test_metric_ranges(world, subspaces):
    enc, held_subs, refs = _held_out_inputs(world, subspaces)
    target = make_target_generator(world.source_generator)
    for seed in range(5):
        report = evaluate(target, world.source_generator, enc, held_subs, refs, 16, seed=seed)
        assert -1.0 <= report.consistency <= 1.0
        assert report.diversity >= 0.0
        for value in report.semantic_similarity.values():
            assert value <= 0.0  # negated distance


def test_report_file_is_byte_stable(tmp_path, world, subspaces):
    enc, held_subs, refs = _held_out_inputs(world, subspaces)
    target = make_target_generator(world.source_generator)
    report = evaluate(target, world.source_generator, enc, held_subs, refs, 32, seed=0)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_report(report, a)
    write_report(report, b)
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text(encoding="utf8")) == report.to_json_dict()


def test_report_json_round_trip():
    report = MetricsReport(
        semantic_similarity={"attr0": -1.2345, "attr1": -0.5},
        consistency=0.875,
        diversity=0.25,
        n_samples=64,
    )
    back = MetricsReport.from_json_dict(report.to_json_dict())
    assert back == report


def test_round12_pins_representation():
    assert round12(1.0) == 1.0
    assert round12(0.1 + 0.2) == round12(0.30000000000000004)
    assert round12(1.23456789012345e-7) == pytest.approx(1.23456789012e-7, rel=1e-13)


def _diversity_oracle(embeddings, reference_embeddings):
    """The per-cluster loop over full ``(m, m, d)`` difference tensors."""
    diffs = embeddings[:, None, :] - reference_embeddings[None, :, :]
    assignment = np.argmin(np.linalg.norm(diffs, axis=2), axis=1)
    cluster_means = []
    for cluster in range(reference_embeddings.shape[0]):
        members = embeddings[assignment == cluster]
        if members.shape[0] < 2:
            continue
        deltas = members[:, None, :] - members[None, :, :]
        dists = np.linalg.norm(deltas, axis=2)
        upper = dists[np.triu_indices(members.shape[0], k=1)]
        cluster_means.append(float(np.mean(upper)))
    if not cluster_means:
        return 0.0
    return float(np.mean(cluster_means))


def _sub_groups(rng, n, d, spread):
    """Two sub-groups of ``spread`` at +-1 along the first axis."""
    groups = spread * rng.standard_normal((n, d))
    groups[: n // 2, 0] += 1.0
    groups[n // 2 :, 0] -= 1.0
    return groups


@pytest.mark.parametrize("n", [2, 3, 128, 1024])
def test_diversity_matches_the_full_tensor_oracle_to_1e_12(n):
    rng = np.random.default_rng(n)
    d = 16
    refs = rng.standard_normal((20, d))
    spread = rng.standard_normal((n, d))
    # one cluster: every sample near one reference, as at the stock run's final checkpoint
    collapsed = refs[7] + 1e-3 * spread
    # mixed sizes: clusters of about n/2, n/4, ... members, plus scattered samples
    sizes = np.minimum(rng.geometric(0.5, size=n), 5)
    mixed = refs[sizes] + 0.05 * spread
    mixed[::7] = 3.0 * spread[::7]
    # one cluster of spread 1e-6 far from the origin
    offset = 5.0 + 1e-6 * spread
    # one cluster of two tight sub-groups: the pairs inside a sub-group need the guard
    sub_groups = [refs[7] + _sub_groups(rng, n, d, s) for s in (1e-3, 1e-6, 1e-9)]
    for embeddings in (spread, collapsed, mixed, offset, *sub_groups):
        assert _diversity(embeddings, refs) == pytest.approx(
            _diversity_oracle(embeddings, refs), rel=1e-12, abs=0.0
        )
    assert _diversity(collapsed, refs) > 0.0


@pytest.mark.parametrize("case", ["groups1e-3", "groups1e-6", "groups1e-9", "offset"])
def test_cluster_pair_distances_match_direct_norms_to_1e_12(case):
    rng = np.random.default_rng(3)
    if case == "offset":
        # far from the origin, but too spread for the guard: the centring keeps these
        members = 5.0 + 0.07 * rng.standard_normal((64, 16))
    else:
        members = _sub_groups(rng, 64, 16, float(case[len("groups"):]))
    direct = np.linalg.norm(members[:, None, :] - members[None, :, :], axis=2)
    expected = direct[np.triu_indices(64, k=1)]
    assert _cluster_pair_distances(members) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_duplicate_rows_are_exactly_zero_apart():
    rng = np.random.default_rng(0)  # here the Gram form alone leaves 5.8e-11
    members = 5.0 + 1e-3 * rng.standard_normal((40, 16))
    members[31] = members[6]
    rows, cols = np.triu_indices(40, k=1)
    distances = _cluster_pair_distances(members)
    assert distances[(rows == 6) & (cols == 31)] == [0.0]
    assert np.count_nonzero(distances == 0.0) == 1


def test_stock_run_snapshot_diversities_match_the_oracle(world, subspaces, monkeypatch):
    seen = []

    def recording(embeddings, reference_embeddings):
        value = _diversity(embeddings, reference_embeddings)
        seen.append((value, _diversity_oracle(embeddings, reference_embeddings)))
        return value

    monkeypatch.setattr(metrics, "_diversity", recording)
    record = run_adaptation(default_adaptation_config(world, seed=0), world, subspaces)
    assert [value for value, _ in seen] == [s.report.diversity for s in record.snapshots]
    assert len(seen) == 14
    for value, oracle in seen:
        assert value == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_diversity_of_singletons_is_zero():
    rng = np.random.default_rng(0)
    refs = 10.0 * rng.standard_normal((12, 16))
    singletons = refs[:12] + 1e-3 * rng.standard_normal((12, 16))
    assert _diversity(singletons, refs) == _diversity_oracle(singletons, refs) == 0.0


def test_diversity_memory_is_bounded_at_1024_samples():
    rng = np.random.default_rng(1)
    refs = rng.standard_normal((20, 16))
    collapsed = refs[3] + 1e-3 * rng.standard_normal((1024, 16))
    tracemalloc.start()
    try:
        _diversity(collapsed, refs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the full (1024, 1024, 16) difference tensor alone is 128 MiB
    assert peak < 32 * 2**20


def test_snapshot_plan_matches_evaluate_on_every_snapshot(world, subspaces, monkeypatch):
    seen = []

    class RecordingPlan(SnapshotPlan):
        def __call__(self, target_gen):
            report = super().__call__(target_gen)
            seen.append((target_gen, report))
            return report

    monkeypatch.setattr(engine, "SnapshotPlan", RecordingPlan)
    config = default_adaptation_config(world, seed=0)
    record = run_adaptation(config, world, subspaces)
    assert [report for _, report in seen] == [s.report for s in record.snapshots]
    assert len(seen) == 14
    enc, held_subs, refs = _held_out_inputs(world, subspaces)
    seed = derive_seed(config.seed, "snapshot-eval")
    for gen, report in seen:
        direct = evaluate(gen, world.source_generator, enc, held_subs, refs, 128, seed)
        assert direct.to_json_dict() == report.to_json_dict()
        assert direct == report


def test_snapshot_plan_checks_target_dimensions(world, subspaces):
    enc, held_subs, refs = _held_out_inputs(world, subspaces)
    plan = SnapshotPlan(world.source_generator, enc, held_subs, refs, 16, 0)
    source = world.source_generator
    wider = make_source_generator(0, d_z=source.d_z + 1, d_h=source.d_h, d_x=source.d_x)
    with pytest.raises(DimensionError):
        plan(wider)


def test_report_with_a_nan_metric_is_refused_and_leaves_no_file(tmp_path):
    report = MetricsReport(
        semantic_similarity={"attr0": float("nan")}, consistency=0.5, diversity=0.25,
        n_samples=8,
    )
    path = tmp_path / "report.json"
    with pytest.raises(NumericalError, match=f"{path}: refusing to write a non-finite"):
        write_report(report, path)
    assert list(tmp_path.iterdir()) == []
