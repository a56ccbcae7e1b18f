"""Held-out evaluation: similarity, consistency, diversity, stable reports."""

import dataclasses
import itertools
import json
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from hda import engine, metrics
from hda.engine import default_adaptation_config, run_adaptation
from hda.errors import ConfigError, DimensionError, NumericalError
from hda.files import read_object, write_json
from hda.metrics import (
    MetricsReport,
    SnapshotPlan,
    _augmented,
    _diversity,
    _nearest_reference,
    _pair_block,
    _pairwise_cosine,
    _row_norms,
    evaluate,
    round12,
)
from hda.seeding import derive_seed
from hda.worlds import flatten_generator, make_source_generator, unflatten_generator


def _held_out_inputs(world, subspaces):
    enc = world.held_out_encoder
    return (
        enc,
        {d: subspaces[enc.encoder_id][d] for d in world.references},
        dict(world.references),
    )


def test_untouched_copy_scores_perfect_consistency(world, subspaces):
    enc, held_subs, refs = _held_out_inputs(world, subspaces)
    target = world.source_generator
    report = evaluate(target, world.source_generator, enc, held_subs, refs, 64, seed=0)
    assert report.consistency == 1.0
    assert report.diversity > 0.0
    for domain_id in refs:
        assert report.mean_distance(domain_id) > 0.0


def test_constant_generator_scores_zero_diversity(world, subspaces):
    enc, held_subs, refs = _held_out_inputs(world, subspaces)
    source = world.source_generator
    collapsed = dataclasses.replace(
        source, w1=np.zeros_like(source.w1), w2=np.zeros_like(source.w2)
    )
    report = evaluate(collapsed, world.source_generator, enc, held_subs, refs, 64, seed=0)
    assert report.diversity == 0.0


def test_evaluate_is_deterministic(world, subspaces):
    enc, held_subs, refs = _held_out_inputs(world, subspaces)
    target = world.source_generator
    a = evaluate(target, world.source_generator, enc, held_subs, refs, 32, seed=5)
    b = evaluate(target, world.source_generator, enc, held_subs, refs, 32, seed=5)
    assert a.to_json_dict() == b.to_json_dict()
    c = evaluate(target, world.source_generator, enc, held_subs, refs, 32, seed=6)
    assert a.to_json_dict() != c.to_json_dict()


def test_evaluate_validates_inputs(world, subspaces):
    enc, held_subs, refs = _held_out_inputs(world, subspaces)
    target = world.source_generator
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
    target = world.source_generator
    for seed in range(5):
        report = evaluate(target, world.source_generator, enc, held_subs, refs, 16, seed=seed)
        assert -1.0 <= report.consistency <= 1.0
        assert report.diversity >= 0.0
        for value in report.semantic_similarity.values():
            assert value <= 0.0  # negated distance


def test_report_file_is_byte_stable(tmp_path, world, subspaces):
    enc, held_subs, refs = _held_out_inputs(world, subspaces)
    target = world.source_generator
    report = evaluate(target, world.source_generator, enc, held_subs, refs, 32, seed=0)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, report.to_json_dict())
    write_json(b, report.to_json_dict())
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text(encoding="utf8")) == report.to_json_dict()


def test_report_json_round_trip():
    report = MetricsReport(
        semantic_similarity={"attr0": -1.2345, "attr1": -0.5},
        consistency=0.875,
        diversity=0.25,
        n_samples=64,
    )
    back = read_object(MetricsReport, report.to_json_dict(), "metrics report")
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


def _diversity_of(embeddings, reference_embeddings):
    """:func:`_diversity` of one ``(n, d)`` set, as a stack of one."""
    return float(_diversity(embeddings[None], reference_embeddings)[0])


def _sub_groups(rng, n, d, spread):
    """Two sub-groups of ``spread`` at +-1 along the first axis."""
    groups = spread * rng.standard_normal((n, d))
    groups[: n // 2, 0] += 1.0
    groups[n // 2 :, 0] -= 1.0
    return groups


def _oracle_cases(n):
    """Embeddings of ``n`` rows with the 20 references they are clustered on."""
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
    cases = {"spread": spread, "collapsed": collapsed, "mixed": mixed, "offset": offset}
    for s in (1e-3, 1e-6, 1e-9):
        cases[f"groups{s:.0e}"] = refs[7] + _sub_groups(rng, n, d, s)
    return cases, refs


@pytest.mark.parametrize("n", [2, 3, 128, 1024])
def test_diversity_matches_the_full_tensor_oracle_to_1e_12(n):
    cases, refs = _oracle_cases(n)
    for embeddings in cases.values():
        assert _diversity_of(embeddings, refs) == pytest.approx(
            _diversity_oracle(embeddings, refs), rel=1e-12, abs=0.0
        )
    assert _diversity_of(cases["collapsed"], refs) > 0.0


@pytest.mark.parametrize("n", [128, 1024])
@pytest.mark.parametrize("case", ["mixed", "collapsed"])
def test_diversity_of_shuffled_rows_matches_the_oracle_to_1e_12(n, case):
    cases, refs = _oracle_cases(n)
    embeddings = cases[case][np.random.default_rng(7).permutation(n)]
    if case == "mixed":
        # each cluster's members lie scattered in input order, with singletons among them at 128
        assignment = _nearest_reference(embeddings, refs)
        assert np.any(np.diff(assignment) < 0)
        assert n > 128 or np.any(np.bincount(assignment) == 1)
    assert _diversity_of(embeddings, refs) == pytest.approx(
        _diversity_oracle(embeddings, refs), rel=1e-12, abs=0.0
    )


def test_non_finite_samples_make_their_cluster_nan_without_a_warning():
    rng = np.random.default_rng(4)
    refs = rng.standard_normal((20, 16))
    # no sample near reference 0, where every non-finite row is assigned
    finite = refs[1 + rng.integers(0, 5, 96)] + 0.05 * rng.standard_normal((96, 16))
    for value in (np.nan, np.inf, -np.inf):
        bad = finite[:2].copy()
        bad[0, 3] = bad[1] = value
        # alone in its cluster, a non-finite row carries no pair, yet it counts
        assert np.isnan(_diversity_of(np.vstack([finite[:40], bad[:1], finite[40:]]), refs))
        # two in one cluster
        assert np.isnan(_diversity_of(np.vstack([finite[:40], bad, finite[40:]]), refs))
        # with finite members beside it
        near_zero = refs[0] + 0.05 * rng.standard_normal((3, 16))
        assert np.isnan(_diversity_of(np.vstack([finite, near_zero, bad[:1]]), refs))


def _whole_triangle(members):
    """:func:`_pair_block` over one block that holds every pair of ``members``."""
    m = members.shape[0]
    left, right = _augmented(members - np.mean(members, axis=0))
    return _pair_block(members, left, right, 0, m - 1, m)


@pytest.mark.parametrize("case", ["groups1e-3", "groups1e-6", "groups1e-9", "offset"])
def test_cluster_pair_distances_match_direct_norms_to_1e_12(case):
    rng = np.random.default_rng(3)
    if case == "offset":
        # far from the origin, but too spread for the guard: the centring keeps these
        members = 5.0 + 0.07 * rng.standard_normal((64, 16))
    else:
        members = _sub_groups(rng, 64, 16, float(case[len("groups"):]))
    direct = np.linalg.norm(members[:, None, :] - members[None, :, :], axis=2)
    # entry (q, p) pairs members q + 1 and p, for q >= p; the rest are 0
    expected = np.tril(direct[1:, :-1])
    assert _whole_triangle(members) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_duplicate_rows_are_exactly_zero_apart():
    rng = np.random.default_rng(0)  # here the Gram form alone leaves 5.8e-11
    members = 5.0 + 1e-3 * rng.standard_normal((40, 16))
    members[31] = members[6]
    distances = _whole_triangle(members)
    assert distances[30, 6] == 0.0
    assert np.count_nonzero(distances[np.tril_indices(39)] == 0.0) == 1


def _augmented_by_hstack(centred):
    """The augmented rows and columns built by ``hstack`` and a transposed copy."""
    sq = np.einsum("ij,ij->i", centred, centred)[:, None]
    ones = np.ones_like(sq)
    left = np.hstack([centred, sq, ones])
    right = np.ascontiguousarray(np.hstack([-2.0 * centred, ones, sq]).T)
    return left, right


def _pair_block_two_pass(samples, left, right, start, stop, hi):
    """The pair block with every non-pair masked to +inf before the test, then zeroed."""
    block = left[start + 1 : hi] @ right[:, start:stop]
    d = left.shape[1] - 2
    non_pairs = np.triu(np.ones((stop - start,) * 2, dtype=bool), 1)
    corner = block[: stop - start]
    np.copyto(corner, np.inf, where=non_pairs)
    rows_sq, cols_sq = left[start + 1 : hi, d], right[d + 1, start:stop]
    if not block.min() > metrics._GRAM_CANCELLATION * (rows_sq.max() + cols_sq.max()):
        q, p = np.nonzero(block <= metrics._GRAM_CANCELLATION * np.add.outer(rows_sq, cols_sq))
        diff = samples[start + 1 + q] - samples[start + p]
        block[q, p] = np.einsum("ij,ij->i", diff, diff)
    np.copyto(corner, 0.0, where=non_pairs)
    return np.sqrt(block, out=block)


@pytest.mark.parametrize("n", [2, 3, 128, 1024])
def test_pair_blocks_and_augmented_rows_equal_their_two_pass_oracles_bit_for_bit(n, monkeypatch):
    seen = {"augmented": 0, "blocks": 0, "recomputed": 0}

    def augmented(centred):
        left, right = _augmented(centred)
        want_left, want_right = _augmented_by_hstack(centred)
        assert left.tobytes() == want_left.tobytes() and right.tobytes() == want_right.tobytes()
        assert right.flags.c_contiguous
        seen["augmented"] += 1
        return left, right

    def pair_block(*args):
        block = _pair_block(*args)
        assert block.tobytes() == _pair_block_two_pass(*args).tobytes()
        seen["blocks"] += 1
        return block

    recompute_cancellations = metrics._recompute_cancellations

    def recompute(*args):
        seen["recomputed"] += 1
        return recompute_cancellations(*args)

    monkeypatch.setattr(metrics, "_augmented", augmented)
    monkeypatch.setattr(metrics, "_pair_block", pair_block)
    monkeypatch.setattr(metrics, "_recompute_cancellations", recompute)
    cases, refs = _oracle_cases(n)
    for embeddings in cases.values():
        _diversity_of(embeddings, refs)
    assert seen["augmented"] == len(cases) and seen["blocks"] > 0
    # the sub-group cases send blocks to the recomputation
    assert n < 128 or seen["recomputed"] > 0


def test_the_stock_last_checkpoint_recomputes_no_block_at_1024_samples(
    world, subspaces, stock_snapshot_params, monkeypatch
):
    blocks, recomputed = [], []

    def pair_block(*args):
        blocks.append(args[3:])
        return _pair_block(*args)

    monkeypatch.setattr(metrics, "_pair_block", pair_block)
    monkeypatch.setattr(metrics, "_recompute_cancellations", lambda *a: recomputed.append(a))
    enc, held_subs, refs = _held_out_inputs(world, subspaces)
    source = world.source_generator
    last = stock_snapshot_params[-1:]  # the step-300 snapshot: the `last` checkpoint
    for seed in range(3):  # the eval_sweep benchmark's seeds at workload seed 0
        blocks.clear()
        SnapshotPlan(source, enc, held_subs, refs, 1024, seed).evaluate_stack(last, source)
        # one cluster of nearly all samples, summed in 10 blocks
        assert len(blocks) == 10 and len({hi for _, _, hi in blocks}) == 1
        assert blocks[-1][2] - blocks[0][0] > 1000
    assert recomputed == []


def test_stock_run_snapshot_diversities_match_the_oracle(world, subspaces, monkeypatch):
    seen = []

    def recording(embeddings, reference_embeddings):
        values = _diversity(embeddings, reference_embeddings)
        for value, slice_ in zip(values, embeddings):
            seen.append((value, _diversity_oracle(slice_, reference_embeddings)))
        return values

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
    assert _diversity_of(singletons, refs) == _diversity_oracle(singletons, refs) == 0.0


def test_diversity_memory_is_bounded_at_1024_samples(monkeypatch):
    rng = np.random.default_rng(1)
    refs = rng.standard_normal((20, 16))
    collapsed = refs[3] + 1e-3 * rng.standard_normal((1024, 16))
    sizes = []

    def spy(*args):
        block = _pair_block(*args)
        sizes.append(block.size)
        return block

    monkeypatch.setattr(metrics, "_pair_block", spy)
    tracemalloc.start()
    try:
        _diversity_of(collapsed, refs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the full (1024, 1024, 16) difference tensor alone is 128 MiB, and
    # the 1024 * 1023 / 2 distances 4 MiB; a block is at most 2^16
    # distances, 0.5 MiB, and one block alive at a time peaks at 0.92 MiB
    # (1.42 MiB while each block outlived the making of the next)
    assert len(sizes) > 1 and max(sizes) <= 1 << 16
    assert peak < 1.2 * 2**20


def _nearest_reference_cases():
    rng = np.random.default_rng(5)
    refs = rng.standard_normal((20, 16))
    # every ordered pair's midpoint: exact ties in real arithmetic
    midpoints = np.array([(refs[i] + refs[j]) / 2 for i, j in itertools.permutations(range(20), 2)])
    near_midpoint = (refs[0] + refs[1]) / 2 + 1e-15 * rng.standard_normal((512, 16))
    far_refs = 1e3 + 1e-6 * rng.standard_normal((20, 16))
    far_cluster = 1e3 + 1e-6 * rng.standard_normal((256, 16))
    duplicated = refs.copy()
    duplicated[13] = duplicated[4]
    near_duplicate = refs[4] + 0.5 * rng.standard_normal((256, 16))
    single = rng.standard_normal((64, 16))
    # every row ties between two copies of one of 512 references
    many = rng.standard_normal((512, 16))
    many[300] = many[11]
    on_duplicate = many[11] + 1e-3 * rng.standard_normal((1024, 16))
    # every row ties between two distinct, nearby ones of 512 references
    pair = many.copy()
    pair[300] = pair[11] + 1e-3 * rng.standard_normal(16)
    on_midpoint = (pair[11] + pair[300]) / 2 + 1e-15 * rng.standard_normal((1024, 16))
    return {
        "midpoints": (midpoints, refs),
        "near-midpoint": (near_midpoint, refs),
        "far-offset": (far_cluster, far_refs),
        "duplicated-reference": (np.vstack([near_duplicate, duplicated]), duplicated),
        "single-reference": (single, refs[:1]),
        "duplicated-of-512": (on_duplicate, many),
        "midpoint-of-512": (on_midpoint, pair),
    }


@pytest.mark.parametrize("case", list(_nearest_reference_cases()))
def test_nearest_reference_equals_the_full_tensor_argmin(case):
    embeddings, refs = _nearest_reference_cases()[case]
    diffs = embeddings[:, None, :] - refs[None, :, :]
    expected = np.argmin(np.linalg.norm(diffs, axis=2), axis=1)
    assert np.array_equal(_nearest_reference(embeddings, refs), expected)


def _fallback_rows_and_peak(embeddings, refs, monkeypatch):
    """The row counts of :func:`_nearest_reference`'s direct-norm blocks and its traced peak."""
    blocks = []
    norm = np.linalg.norm

    def spy(x, *args, **kwargs):
        blocks.append(x.shape[0])
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)
    tracemalloc.start()
    try:
        _nearest_reference(embeddings, refs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return blocks, peak


def test_nearest_reference_memory_is_bounded(monkeypatch):
    rng = np.random.default_rng(2)
    refs = rng.standard_normal((512, 16))
    embeddings = rng.standard_normal((1024, 16))
    blocks, peak = _fallback_rows_and_peak(embeddings, refs, monkeypatch)
    # the (1024, 512, 16) difference tensor alone is 64 MiB
    assert blocks == [] and peak < 16 * 2**20


def test_nearest_reference_fallback_memory_is_bounded(monkeypatch):
    cases = _nearest_reference_cases()
    # a tie between two nearby references, and one between two copies of a reference
    for case in ["midpoint-of-512", "duplicated-of-512"]:
        embeddings, refs = cases[case]
        with monkeypatch.context() as patch:
            blocks, peak = _fallback_rows_and_peak(embeddings, refs, patch)
        # every row takes the direct-norm fallback, in blocks of at most
        # _PAIR_BLOCK_SIZE difference entries (8 rows of 512 x 16)
        assert sum(blocks) == 1024 and max(blocks) * refs.size <= metrics._PAIR_BLOCK_SIZE
        assert peak < 16 * 2**20


def test_nearest_reference_gram_memory_is_bounded(monkeypatch):
    rng = np.random.default_rng(3)
    refs = rng.standard_normal((4096, 16))
    embeddings = rng.standard_normal((1024, 16))
    _, peak = _fallback_rows_and_peak(embeddings, refs, monkeypatch)
    # the whole (1024, 4096) matrix of squared distances alone is 32 MiB
    assert peak < 4 * 2**20


def test_snapshot_plan_matches_evaluate_on_every_snapshot(world, subspaces, monkeypatch):
    seen = []

    class RecordingPlan(SnapshotPlan):
        def evaluate_stack(self, params, like):
            reports = super().evaluate_stack(params, like)
            seen.extend((unflatten_generator(p, like), r) for p, r in zip(params, reports))
            return reports

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


@pytest.fixture(scope="module")
def stock_snapshot_params(world, subspaces):
    """The parameter vectors of a stock run's 14 snapshots, in step order."""
    seen = []

    class RecordingPlan(SnapshotPlan):
        def evaluate_stack(self, params, like):
            seen.extend(np.array(params))
            return super().evaluate_stack(params, like)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "SnapshotPlan", RecordingPlan)
        run_adaptation(default_adaptation_config(world, seed=0), world, subspaces)
    return np.array(seen)


_FAULTS_OF_FIVE_WARM_CALLS = """
import resource, sys
import numpy as np
from hda.metrics import evaluate
from hda.worlds import build_world, build_world_subspaces, default_world_config, unflatten_generator

world = build_world(default_world_config())
enc = world.held_out_encoder
subs = {d: build_world_subspaces(world)[enc.encoder_id][d] for d in world.references}
source = world.source_generator
last = unflatten_generator(np.load(sys.argv[1]), source)

def five_calls():
    for seed in range(5):
        evaluate(last, source, enc, subs, dict(world.references), 1024, seed)

five_calls()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
five_calls()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's page faults")
def test_warm_evaluations_fault_in_no_new_pages(tmp_path, stock_snapshot_params):
    # With glibc's thresholds left dynamic, each 1,024-sample call unmapped
    # or trimmed its temporaries on free and faulted them back in: about
    # 3,400 minor faults over these five calls.  A fresh process counts
    # them, since any earlier free of 32 MiB or more in this one would
    # have raised the thresholds as far as the package pins them.
    params = tmp_path / "last.npy"
    np.save(params, stock_snapshot_params[-1])  # the step-300 snapshot: the `last` checkpoint
    done = subprocess.run(
        [sys.executable, "-c", _FAULTS_OF_FIVE_WARM_CALLS, str(params)],
        capture_output=True, text=True, check=True,
    )
    assert int(done.stdout) < 50


def test_a_stack_equals_its_generators_evaluated_one_by_one(
    world, subspaces, stock_snapshot_params
):
    enc, held_subs, refs = _held_out_inputs(world, subspaces)
    source = world.source_generator
    plan = SnapshotPlan(source, enc, held_subs, refs, 128, derive_seed(0, "snapshot-eval"))
    params = stock_snapshot_params
    assert len(params) == 14
    alone = [plan(unflatten_generator(p, source)) for p in params]
    for size in (1, 3, 4, 14):
        stacks = [plan.evaluate_stack(params[i : i + size], source) for i in range(0, 14, size)]
        stacked = [report for reports in stacks for report in reports]
        assert stacked == alone
        assert [r.to_json_dict() for r in stacked] == [r.to_json_dict() for r in alone]


def _stack_equals_its_slices(stack, refs):
    """``_diversity`` of ``stack``, checked slice by slice against stacks of one."""
    values = _diversity(stack, refs)
    alone = [_diversity(slice_[None], refs)[0] for slice_ in stack]
    np.testing.assert_array_equal(values, alone)
    return values


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_slice_alone_scores_nan_without_a_warning(value):
    rng = np.random.default_rng(9)
    refs = rng.standard_normal((20, 16))
    stack = refs[rng.integers(0, 20, (3, 64))] + 0.05 * rng.standard_normal((3, 64, 16))
    stack[1, 5, 2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = _stack_equals_its_slices(stack, refs)
        assert np.isnan(_diversity(stack[1:2].repeat(2, axis=0), refs)).all()
    assert np.isnan(values[1])
    for s in (0, 2):
        assert values[s] == pytest.approx(_diversity_oracle(stack[s], refs), rel=1e-12, abs=0.0)


def test_a_stack_with_a_duplicated_reference_equals_its_slices_alone():
    embeddings, refs = _nearest_reference_cases()["duplicated-reference"]
    stack = embeddings[np.random.default_rng(3).permutation(276)].reshape(4, 69, 16)
    values = _stack_equals_its_slices(stack, refs)
    for value, slice_ in zip(values, stack):
        assert value == pytest.approx(_diversity_oracle(slice_, refs), rel=1e-12, abs=0.0)


def test_a_stack_with_all_singleton_slices_equals_its_slices_alone():
    rng = np.random.default_rng(0)
    refs = 10.0 * rng.standard_normal((12, 16))
    singletons = refs + 1e-3 * rng.standard_normal((3, 12, 16))
    values = _stack_equals_its_slices(singletons, refs)
    assert values.tolist() == [0.0, 0.0, 0.0]
    # beside slices that do have pairs
    clustered = refs[rng.integers(0, 3, (2, 12))] + 1e-3 * rng.standard_normal((2, 12, 16))
    stack = np.concatenate([singletons[:1], clustered, singletons[1:]])
    mixed = _stack_equals_its_slices(stack, refs)
    assert mixed[0] == mixed[3] == mixed[4] == 0.0 and (mixed[1:3] > 0.0).all()


def test_snapshot_plan_checks_target_dimensions(world, subspaces):
    enc, held_subs, refs = _held_out_inputs(world, subspaces)
    plan = SnapshotPlan(world.source_generator, enc, held_subs, refs, 16, 0)
    source = world.source_generator
    wider = make_source_generator(0, d_z=source.d_z + 1, d_h=source.d_h, d_x=source.d_x)
    with pytest.raises(DimensionError):
        plan(wider)


@pytest.mark.parametrize("others", [False, True], ids=["alone", "beside a full domain"])
def test_snapshot_plan_refuses_a_domain_without_reference_rows(world, subspaces, others):
    enc, held_subs, refs = _held_out_inputs(world, subspaces)
    refs["attr0"] = np.zeros((0, world.config.d_x))
    if not others:
        held_subs, refs = {"attr0": held_subs["attr0"]}, {"attr0": refs["attr0"]}
    source = world.source_generator
    with pytest.raises(ConfigError, match="no reference rows for domain 'attr0'"):
        evaluate(source, source, enc, held_subs, refs, 16, 0)


def test_snapshot_plan_refuses_a_params_array_that_is_not_a_stack(world, subspaces):
    enc, held_subs, refs = _held_out_inputs(world, subspaces)
    source = world.source_generator
    plan = SnapshotPlan(source, enc, held_subs, refs, 16, 0)
    flat = flatten_generator(source)
    for params in (flat, flat[None, None]):
        shape = re.escape(str(params.shape))
        with pytest.raises(DimensionError, match=rf"\(S, P\) stack .*got shape {shape}$"):
            plan.evaluate_stack(params, source)
    assert plan.evaluate_stack(flat[None], source) == [plan(source)]


def test_zero_norm_rows_score_cosine_zero():
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal((6, 16)), rng.standard_normal((2, 6, 16))
    a[1] = 0.0
    b[0, 4] = b[1, 1] = 0.0
    assert _row_norms(a).tobytes() == np.linalg.norm(a, axis=-1).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cosine = _pairwise_cosine(a, _row_norms(a), b)
    zero = np.zeros((2, 6), dtype=bool)
    zero[:, 1] = zero[0, 4] = True
    assert (cosine[zero] == 0.0).all() and not np.signbit(cosine[zero]).any()
    dots = np.einsum("ij,sij->si", a, b)
    norms = np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
    expected = np.clip(dots[~zero] / norms[~zero], -1.0, 1.0)
    assert cosine[~zero].tobytes() == expected.tobytes()


def test_report_with_a_nan_metric_is_refused_and_leaves_no_file(tmp_path):
    report = MetricsReport(
        semantic_similarity={"attr0": float("nan")}, consistency=0.5, diversity=0.25,
        n_samples=8,
    )
    path = tmp_path / "report.json"
    with pytest.raises(NumericalError, match=f"{path}: refusing to write a non-finite"):
        write_json(path, report.to_json_dict())
    assert list(tmp_path.iterdir()) == []
