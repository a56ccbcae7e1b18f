"""Each benchmark workload runs one pass, so a rename that the benchmark reads fails here.

``bench/run.py`` drives each workload of ``bench/workloads.py`` through
``prepare``, ``setup``, ``run_pass``, ``fingerprint`` and ``checks``.
These read the package by name: ``RunRecord.step_losses``,
``EncoderTerms.dist_term``, ``MetricsReport.to_json_dict``, the pair that
``engine.load_run`` returns, and more.  A rename there would only show
when the benchmark runs, so each workload runs once here, at seed 0,
where its checks include the frozen sentinels.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
NAMES = ("hybrid_stock", "eval_sweep", "world_sweep")


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("measure")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_a_pass_and_passes_its_checks(bench_modules, tmp_path, name):
    workloads, measure = bench_modules
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, str(tmp_path / "work"), str(ROOT))
    tally = measure.Tally()
    try:
        workload.prepare()
        state = workload.setup()
        result = workload.run_pass(state)
        assert workload.fingerprint(result) == workload.fingerprint(result)
        assert workload.work_per_pass(state) > 0
        operations, expected = workload.operations(result)
        assert 0 <= expected <= operations
        assert all(math.isfinite(v) for v in workload.quality(result).values())
        workload.checks(result, state, tally)
    finally:
        cleanup = getattr(workload, "cleanup", None)
        if cleanup is not None:
            cleanup()
    failed = [(check, detail) for check, ok, detail in tally.checks if not ok]
    assert tally.checks and not failed, failed
