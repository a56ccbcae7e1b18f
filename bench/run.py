"""Benchmark of the ``hda`` package: one workload per invocation.

    python3 bench/run.py --workload hybrid_stock --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  Prints a readable report, then as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-module metrics with ``--trace 1``.
Times are in reference seconds: wall times scaled by the box's speed,
which a fixed calibration loop measures after every set-up and pass.
Exits 0 when every operation and correctness check passed, 1 when one
failed, 2 when the package or arguments are missing.  Writes a full
result file (and, traced, the spans) under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import re
import resource
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("hybrid_stock", "eval_sweep", "world_sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _git_commit(root: str) -> str:
    """HEAD commit read from ``.git`` inside the checkout, or ``unknown``."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(root: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    config = str(blas.get("openblas configuration", ""))
    max_threads = re.search(r"MAX_THREADS=(\d+)", config)
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_max_threads": int(max_threads.group(1)) if max_threads else None,
        "blas_thread_env": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": _git_commit(root),
    }


class Passes:
    """Runs and times passes, and compares each output with the warm-up pass.

    A pass whose output differs counts its operations as failed.
    """

    def __init__(self, workload, state, reference_fp, tally):
        self.workload = workload
        self.state = state
        self.reference_fp = reference_fp
        self.tally = tally
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.checked = 0
        self.mismatched = 0

    def run(self, tracer=None) -> None:
        """One pass, inside a traced root span when ``tracer`` is given."""
        if tracer is None:
            t0 = time.perf_counter()
            result = self.workload.run_pass(self.state)
            self.untraced.append(time.perf_counter() - t0)
        else:
            with tracer.section("pass", len(self.traced)) as span:
                result = self.workload.run_pass(self.state)
            self.traced.append(span[2] - span[1])  # END - START
        self.record(result)

    def record(self, result) -> None:
        ops, expected = self.workload.operations(result)
        same = self.workload.fingerprint(result) == self.reference_fp
        self.checked += 1
        self.mismatched += not same
        self.tally.operations(ops, expected, ok=same)


def trace_analysis(passes, tracer, tally) -> dict:
    """Leak checks, one memory-probed pass, and the per-module analysis of the spans."""
    import probes
    import tracing
    from measure import median

    leaks = tracer.patches.leaks()
    tally.check("tracing put every wrapped function back", not leaks, ", ".join(leaks))
    peaks: list[float] = []
    memory_patches = tracing.Patches()
    with tracing.peak_memory_probe(memory_patches, probes.MEMORY_SITES, peaks):
        result = passes.workload.run_pass(passes.state)
    leaks = memory_patches.leaks()
    tally.check("memory probe put every wrapped function back", not leaks, ", ".join(leaks))
    passes.record(result)

    analysis = probes.analyse(tracer.spans, peaks, median(passes.untraced))
    residual = analysis["self_sum_residual"]
    if residual is not None:
        tally.check(
            "self times under engine.run_adaptation add up to its duration",
            residual < 1e-9,
            f"largest relative residual {residual:.3g}",
        )
    return analysis


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "hda", "__init__.py")):
        print(f"error: no package source at {os.path.join('src', 'hda')} under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import hda

    if os.path.dirname(os.path.abspath(hda.__file__)) != os.path.join(SRC, "hda"):
        print(f"error: imported hda from {hda.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import probes
    import tracing
    from measure import (
        CALIBRATION_REF_S,
        Tally,
        median,
        reference_seconds,
        tail_percentile,
        timed_calibration,
    )
    from workloads import WORKLOADS

    facts = machine_facts(ROOT)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"work_{tag}_{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, workdir, ROOT)
    tally = Tally()
    report = [
        f"workload {args.workload}  seed {args.seed}  closed loop, one caller  "
        f"budget {args.seconds:g} s  trace {args.trace}",
        "machine " + json.dumps(facts, sort_keys=True),
    ]
    result_doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": facts}
    try:
        workload.prepare()
        setup_times = []

        def timed_setup():
            t0 = time.perf_counter()
            state = workload.setup()
            setup_times.append(time.perf_counter() - t0)
            return state

        # the box's speed, measured right after every timed set-up and pass
        calibration_times = []
        state = timed_setup()
        calibration_times.append(timed_calibration())
        reference = workload.run_pass(state)  # warm-up, and the output every pass must match
        reference_fp = workload.fingerprint(reference)
        ops, expected = workload.operations(reference)
        tally.operations(ops, expected)

        passes = Passes(workload, state, reference_fp, tally)
        tracer = analysis = None
        if args.trace:
            tracer = tracing.Tracer()
            probes.install(tracer)
            try:
                with tracer.section("setup", "setup"):
                    workload.setup()
            finally:
                tracer.restore()
        # one more set-up follows every untraced pass, so set-up times sample
        # the same stretch of time as the passes on this shared box; with
        # tracing, untraced and traced passes alternate, so drift cancels
        # out of the tracing overhead
        deadline = time.perf_counter() + args.seconds
        while True:
            passes.run()
            timed_setup()
            calibration_times.append(timed_calibration())
            if tracer is not None:
                probes.install(tracer)
                try:
                    passes.run(tracer)
                finally:
                    tracer.restore()
            if time.perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            analysis = trace_analysis(passes, tracer, tally)
        workload.checks(reference, state, tally)
    except Exception:  # the run boundary: report the failure, never a result
        traceback.print_exc()
        tally.check("workload ran without an unexpected exception", False,
                    "see the traceback on stderr")
        print(json.dumps({"correct": False, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": {}}))
        return 1
    finally:
        cleanup = getattr(workload, "cleanup", None)
        if cleanup is not None:
            cleanup()

    wall_times = passes.untraced
    times = [reference_seconds(t, c) for t, c in zip(wall_times, calibration_times[1:])]
    setup_ref = [reference_seconds(t, c) for t, c in zip(setup_times, calibration_times)]
    work = workload.work_per_pass(state)
    run_s = median(times)
    setup_s = median(setup_ref)
    e2e = {
        "setup_s": setup_s,
        "run_s": run_s,
        "work_per_s": work / run_s,
        "peak_rss_mb": peak_rss_mb,
    }
    tail = tail_percentile(times)
    quality = workload.quality(reference)
    report += [
        f"calibration         {median(calibration_times):.6g} s wall  median of "
        f"{len(calibration_times)} loops (min {min(calibration_times):.6g}, max "
        f"{max(calibration_times):.6g}); {CALIBRATION_REF_S:g} s makes 1 reference second",
        f"setup_s             {setup_s:.6g} s     reference seconds, median of {len(setup_ref)} "
        f"set-ups; wall median {median(setup_times):.6g} s "
        f"(min {min(setup_times):.6g}, max {max(setup_times):.6g})",
        f"run_s               {run_s:.6g} s     reference seconds, median of {len(times)} passes; "
        + (f"p{tail[0]:g} {tail[1]:.6g} s" if tail else
           f"no percentile has >= 10 of {len(times)} samples beyond it")
        + f"; wall median {median(wall_times):.6g} s "
        f"(min {min(wall_times):.6g}, max {max(wall_times):.6g})",
        f"{workload.throughput_name:<20}{work / run_s:.6g} 1/s   "
        f"{work} {workload.work_unit} per pass / median run_s (reported as work_per_s)",
        f"peak_rss_mb         {peak_rss_mb:.6g} MiB   ru_maxrss"
        + (", with the traced passes" if args.trace else ", untraced"),
        f"error_rate          {tally.error_rate:.6g} ratio {tally.failed} failed of "
        f"{tally.attempted} attempted ({tally.expected} expected outcomes not failures)",
    ]
    report.append(
        f"determinism         {passes.checked - passes.mismatched} of {passes.checked} passes"
        " reproduced the warm-up output bit for bit"
    )
    for name, value in quality.items():
        unit = "ratio" if name == "separable_share" else "-"
        report.append(f"{name:<20}{value!r} {unit}   from the warm-up pass")
    for name, ok, detail in tally.checks:
        report.append(f"check {'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    result_doc.update({
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
        "samples": {"setup_s": setup_ref, "run_s": times, "setup_wall_s": setup_times,
                    "run_wall_s": wall_times, "calibration_s": calibration_times,
                    "traced_run_wall_s": passes.traced},
        "run_s_tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "throughput": {"name": workload.throughput_name, "value": work / run_s,
                       "work_per_pass": work, "unit": workload.work_unit},
        "error_rate": tally.error_rate,
        "quality": quality,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in tally.checks],
    })
    if analysis is None:
        metrics_out = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    else:
        units = probes.per_layer_units()
        metrics_out = {k: {"value": analysis["values"][k], "unit": u} for k, u in units.items()}
        report += trace_report(analysis)
        result_doc["per_layer"] = metrics_out
        result_doc["trace"] = {k: analysis[k] for k in
                               ("n_passes", "pass_s", "setup_s", "traced_run_s", "step_ms",
                                "self_sum_residual", "passes", "setup")}
        os.makedirs(OUT_DIR, exist_ok=True)
        with gzip.open(os.path.join(OUT_DIR, f"spans_{tag}.json.gz"), "wt",
                       encoding="utf8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass_id", "info"],
                       "spans": tracer.spans}, fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result_{tag}.json"), "w", encoding="utf8") as fh:
        json.dump(result_doc, fh, indent=1)
        fh.write("\n")
    print("\n".join(report))
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics_out}))
    return 0 if correct else 1


def trace_report(analysis) -> list[str]:
    n = analysis["n_passes"]
    lines = [
        f"traced: {n} passes, median {analysis['traced_run_s']:.6g} s; tracing overhead "
        f"{analysis['overhead_s']:.4g} s ({analysis['values']['trace.overhead_pct']:.3g}%) "
        "over the untraced median wall time of a pass",
        f"{'span':<32}{'calls/pass':>12}{'time_s/pass':>14}{'self_s/pass':>14}{'% of pass':>11}",
    ]
    for name, row in sorted(analysis["passes"].items(), key=lambda kv: -kv[1]["time_s"]):
        lines.append(
            f"{name:<32}{row['calls'] / n:>12.6g}{row['time_s'] / n:>14.6g}"
            f"{row['self_s'] / n:>14.6g}{100 * row['time_s'] / analysis['pass_s']:>11.4g}"
        )
    lines.append(f"traced set-up: {analysis['setup_s']:.6g} s")
    for name, row in sorted(analysis["setup"].items(), key=lambda kv: -kv[1]["time_s"]):
        lines.append(f"  {name:<30}{row['calls']:>12}{row['time_s']:>14.6g}{row['self_s']:>14.6g}")
    if analysis["step_ms"]:
        s = analysis["step_ms"]
        lines.append(f"engine.step_ms p50 {s['p50']:.6g} ms, p95 {s['p95']:.6g} ms over {s['n']} steps "
                     "(objective start to Adam end; snapshots run after Adam)")
    lines.append(
        f"engine.clip_gradients.clipped_share "
        f"{analysis['values']['engine.clip_gradients.clipped_share']:.6g} "
        f"of {analysis['clip_calls']} calls"
    )
    for key in ("losses.hda_objective.samples", "autodiff.tape_nodes",
                "autodiff.tape_nodes_per_sample", "autodiff.backward.visits",
                "worlds.generator_forward.rows", "worlds.encode.rows",
                "metrics.evaluate.samples", "metrics.evaluate.peak_mb"):
        lines.append(f"{key} {analysis['values'][key]:.6g}")
    return lines


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
