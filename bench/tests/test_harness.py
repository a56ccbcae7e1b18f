"""Tests of the benchmark harness itself: span arithmetic, percentiles, tallies.

Run with ``python -m pytest bench/tests`` from the repository root.
"""
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import tracing
from measure import CALIBRATION_REF_S, Tally, median, reference_seconds, tail_percentile
from tracing import Patches, Tracer, self_times, subtree_self_sums, summarize, union_length

from hda.errors import DegenerateDomain
from hda.worlds import GeneratorParams, make_source_generator


def span(name, start, end, parent=None, pass_id=0, info=None):
    return [name, float(start), float(end), parent, pass_id, info]


# --- self time ------------------------------------------------------------


def test_union_length_counts_overlaps_once():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_of_nested_spans():
    # run(0-10) > objective(1-7) > backward(2-5); run > adam(7-8)
    spans = [
        span("run", 0, 10),
        span("objective", 1, 7, parent=0),
        span("backward", 2, 5, parent=1),
        span("adam", 7, 8, parent=0),
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    sums = subtree_self_sums(spans, self_times(spans))
    assert sums[0] == 10.0  # self times under a span add up to its duration
    assert sums[1] == 6.0


def test_self_time_of_recursive_spans():
    # forward(batch) 0-10 calling forward(row) three times, as the per-row
    # recursion of GeneratorParams.forward would if every level were recorded
    spans = [
        span("forward", 0, 10, info={"rows": 3}),
        span("forward", 1, 3, parent=0, info={"rows": 1}),
        span("forward", 4, 6, parent=0, info={"rows": 1}),
        span("forward", 7, 9, parent=0, info={"rows": 1}),
    ]
    selfs = self_times(spans)
    assert selfs == [4.0, 2.0, 2.0, 2.0]
    row = summarize(spans, selfs)["forward"]
    # inclusive time and counts come from the outermost call only;
    # self times are disjoint, so their sum is the covered time
    assert row["calls"] == 1
    assert row["time_s"] == 10.0
    assert row["self_s"] == 10.0
    assert row["info"] == {"rows": 3}


def test_summarize_filter_keeps_parent_links():
    spans = [
        span("setup", 0, 1, pass_id="setup"),
        span("build", 0, 1, parent=0, pass_id="setup"),
        span("pass", 2, 5, pass_id=0),
        span("build", 3, 4, parent=2, pass_id=0),
        span("build", 3.2, 3.5, parent=3, pass_id=0),
    ]
    rows = summarize(spans, keep=lambda s: s[tracing.PASS] == 0)
    assert set(rows) == {"pass", "build"}
    assert rows["build"]["calls"] == 1
    assert rows["build"]["time_s"] == 1.0


def test_wrapper_records_only_the_outermost_recursive_call():
    gen = make_source_generator(0)
    z = np.random.default_rng(0).standard_normal((5, gen.d_z))
    want = gen.forward(z)
    tracer = Tracer()
    tracer.patch(GeneratorParams, "forward", "worlds.generator_forward",
                 lambda a, k, r: {"rows": len(a[1])})
    try:
        with tracer.section("pass", 0):
            got = gen.forward(z)
    finally:
        tracer.restore()
    assert np.array_equal(got, want)
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["pass", "worlds.generator_forward"]
    assert tracer.spans[1][tracing.PARENT] == 0
    assert tracer.spans[1][tracing.INFO] == {"rows": 5}
    assert tracer.patches.leaks() == []


def test_patches_restore_nested_wrappers_and_report_leaks():
    class Owner:
        @staticmethod
        def fn(x):
            return x + 1

    original = Owner.__dict__["fn"]
    tracer = Tracer()
    tracer.patch(Owner, "fn", "inner")
    tracer.patch(Owner, "fn", "outer")
    assert Owner.fn(1) == 2
    tracer.restore()
    assert Owner.__dict__["fn"] is original
    assert tracer.patches.leaks() == []

    patches = Patches()
    patches.replace(Owner, "fn", lambda fn: staticmethod(lambda x: x))
    assert patches.leaks() == ["Owner.fn"]
    patches.restore()
    assert patches.leaks() == []


def test_wrapper_closes_span_when_the_call_raises():
    def boom():
        raise DegenerateDomain("expected")

    tracer = Tracer()
    wrapped = tracer.wrap(boom, "boom")
    with pytest.raises(DegenerateDomain):
        wrapped()
    assert tracer.spans[0][tracing.END] >= tracer.spans[0][tracing.START]
    assert tracer._stack == [] and tracer._open == set()


# --- percentiles ----------------------------------------------------------


@pytest.mark.parametrize(
    "n, want_p",
    [
        (19, None),  # the median has only 9 samples beyond it
        (20, 50.0),
        (39, 50.0),  # p75 has ceil(29.25) = 30 -> 9 beyond
        (40, 75.0),
        (99, 75.0),  # p90: 99 - 90 = 9 beyond
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_has_ten_samples_beyond(n, want_p):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    got = tail_percentile(samples)
    if want_p is None:
        assert got is None
        return
    p, value = got
    assert p == want_p
    assert sum(1 for s in samples if s > value) >= 10


def test_median_of_even_and_odd_counts():
    assert median([3, 1, 2]) == 2.0
    assert median([4, 1, 3, 2]) == 2.5


def test_reference_seconds_scale_by_the_calibration_loop():
    # a box twice as slow as the reference takes twice the wall time
    assert reference_seconds(2.0, 2 * CALIBRATION_REF_S) == pytest.approx(1.0)
    assert reference_seconds(1.0, CALIBRATION_REF_S) == 1.0


# --- error rate -----------------------------------------------------------


def test_expected_degenerate_outcome_is_not_a_failure():
    from workloads import WorldSweep

    sweep = WorldSweep(0, "", "")
    results = [(1, {}, {"train0": 5.0}, [], 4.0), (2, {}, None, [], 2.0), (3, {}, None, [], 2.5)]
    ops, expected = sweep.operations(results)
    assert (ops, expected) == (3, 2)
    tally = Tally()
    tally.operations(ops, expected)
    assert tally.attempted == 3 and tally.failed == 0 and tally.error_rate == 0.0


def test_failed_checks_and_mismatched_passes_count_as_failures():
    tally = Tally()
    tally.operations(9)
    tally.operations(9, ok=False)  # a pass whose output differed from the warm-up pass
    tally.check("sentinel", False, "drifted")
    tally.check("finite", True)
    assert tally.attempted == 20
    assert tally.failed == 10
    assert tally.error_rate == pytest.approx(0.5)
    assert Tally().error_rate == 0.0


# --- the command ----------------------------------------------------------


def test_command_without_package_source_exits_nonzero_without_a_result(tmp_path):
    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hybrid_stock", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no package source" in proc.stderr
