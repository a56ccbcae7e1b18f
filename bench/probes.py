"""Where the traced run wraps the package, and the per-module metrics it derives.

Each site is ``(owner, attribute, span name, info)``: the wrapper goes
where the caller looks the name up, so ``hda.engine.hda_objective`` is
wrapped in ``hda.engine`` and ``encode`` once per importing module.
``info(args, kwargs, result)`` returns the counts a span carries.
"""
from __future__ import annotations

import numpy as np

from hda import autodiff, engine, losses, metrics, subspace, worlds

import tracing
from measure import median, nearest_rank


def _rows(arg_index: int):
    def info(args, kwargs, result):
        x = args[arg_index]
        return {"rows": int(np.shape(x)[0]) if np.ndim(x) == 2 else 1}

    return info


def _objective_info(args, kwargs, result):
    return {"samples": len(args[0])}


def _backward_info(args, kwargs, result):
    tape = args[0]
    return {"nodes": len(tape), "visits": tape.last_backward_visits}


def _evaluate_info(args, kwargs, result):
    return {"samples": result.n_samples}


def _clip_info(args, kwargs, result):
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    return {"clipped": int(max_norm is not None and result[1] > max_norm)}


SITES = (
    (engine, "run_adaptation", "engine.run_adaptation", None),
    (engine, "hda_objective", "losses.hda_objective", _objective_info),
    (engine, "clip_gradients", "engine.clip_gradients", _clip_info),
    (engine, "adam_step", "engine.adam_step", None),
    (engine, "check_separability", "engine.check_separability", None),
    (engine, "load_run", "engine.load_run", None),
    (engine, "evaluate", "metrics.evaluate", _evaluate_info),
    # patched second, so the snapshot span encloses the evaluate span above
    (engine, "evaluate", "engine.snapshot", None),
    (engine, "separation_ratio", "subspace.separation_ratio", None),
    (engine, "stream_rng", "seeding.stream_rng", None),
    (losses, "generator_forward_var", "worlds.generator_forward_var", None),
    (losses, "encode_var", "worlds.encode_var", None),
    (losses, "encode", "worlds.encode", _rows(1)),
    (losses, "project", "subspace.project", None),
    (metrics, "evaluate", "metrics.evaluate", _evaluate_info),
    (metrics, "encode", "worlds.encode", _rows(1)),
    (metrics, "project", "subspace.project", None),
    (metrics, "stream_rng", "seeding.stream_rng", None),
    (worlds, "build_world", "worlds.build_world", None),
    (worlds, "load_world", "worlds.load_world", None),
    (worlds, "build_world_subspaces", "worlds.build_world_subspaces", None),
    (worlds, "build_subspace", "subspace.build_subspace", None),
    (worlds, "encode", "worlds.encode", _rows(1)),
    (worlds, "stream_rng", "seeding.stream_rng", None),
    (subspace, "pca2d_export", "subspace.pca2d_export", None),
    (subspace, "separation_ratio", "subspace.separation_ratio", None),
    (worlds.GeneratorParams, "forward", "worlds.generator_forward", _rows(1)),
    (autodiff.Tape, "backward", "autodiff.backward", _backward_info),
)

#: Call sites of ``metrics.evaluate`` measured with tracemalloc in a separate pass.
MEMORY_SITES = ((engine, "evaluate"), (metrics, "evaluate"))

#: Span names reported per pass as ``<name>.calls`` and ``<name>.time_pct``.
PASS_NAMES = (
    "engine.run_adaptation",
    "losses.hda_objective",
    "autodiff.backward",
    "worlds.generator_forward_var",
    "worlds.encode_var",
    "worlds.generator_forward",
    "worlds.encode",
    "engine.snapshot",
    "metrics.evaluate",
    "subspace.project",
    "engine.clip_gradients",
    "engine.adam_step",
    "engine.check_separability",
    "worlds.build_world",
    "worlds.build_world_subspaces",
    "subspace.build_subspace",
    "subspace.separation_ratio",
    "subspace.pca2d_export",
    "seeding.stream_rng",
)

#: Span names reported as a share of set-up time, ``<name>.setup_pct``.
SETUP_NAMES = (
    "engine.load_run",
    "worlds.load_world",
    "worlds.build_world",
    "worlds.build_world_subspaces",
    "subspace.build_subspace",
)

EXTRA_METRICS = (
    ("losses.hda_objective.samples", "count"),
    ("losses.hda_objective.self_pct", "%"),
    ("autodiff.tape_nodes", "count"),
    ("autodiff.tape_nodes_per_sample", "count"),
    ("autodiff.backward.visits", "count"),
    ("worlds.generator_forward.rows", "count"),
    ("worlds.encode.rows", "count"),
    ("metrics.evaluate.samples", "count"),
    ("metrics.evaluate.peak_mb", "MiB"),
    ("engine.clip_gradients.clipped_share", "ratio"),
    ("trace.overhead_pct", "%"),
)


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for name in PASS_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.time_pct"] = "%"
    for name in SETUP_NAMES:
        units[f"{name}.setup_pct"] = "%"
    units.update(EXTRA_METRICS)
    return units


def install(tracer: tracing.Tracer) -> None:
    for owner, attr, name, info in SITES:
        tracer.patch(owner, attr, name, info)


def step_times(spans) -> list[float]:
    """Per-step seconds, objective start to Adam end, inside each ``run_adaptation``.

    Snapshots run after Adam, so no step time includes one.
    """
    by_run: dict[int, tuple[list, list]] = {}
    for span in spans:
        parent = span[tracing.PARENT]
        if parent is None or spans[parent][tracing.NAME] != "engine.run_adaptation":
            continue
        objectives, adams = by_run.setdefault(parent, ([], []))
        if span[tracing.NAME] == "losses.hda_objective":
            objectives.append(span)
        elif span[tracing.NAME] == "engine.adam_step":
            adams.append(span)
    out = []
    for objectives, adams in by_run.values():
        for obj, adam in zip(objectives, adams):
            out.append(adam[tracing.END] - obj[tracing.START])
    return out


def analyse(spans, peaks: list[float], untraced_run_s: float) -> dict:
    """Per-pass totals of the traced passes, the set-up shares and the derived metrics."""
    selfs = tracing.self_times(spans)
    sums = tracing.subtree_self_sums(spans, selfs)
    passes = tracing.summarize(spans, selfs, lambda s: s[tracing.PASS] not in (None, "setup"))
    setup = tracing.summarize(spans, selfs, lambda s: s[tracing.PASS] == "setup")
    n_passes = passes["pass"]["calls"]
    pass_s = passes["pass"]["time_s"]
    setup_s = setup["setup"]["time_s"]
    traced_run_s = median(
        s[tracing.END] - s[tracing.START] for s in spans if s[tracing.NAME] == "pass"
    )
    # exact-arithmetic identity; the residual is float rounding of the sums
    residuals = [
        abs(sums[i] - (s[tracing.END] - s[tracing.START])) / (s[tracing.END] - s[tracing.START])
        for i, s in enumerate(spans)
        if s[tracing.NAME] == "engine.run_adaptation"
    ]

    def row(name, table=passes):
        return table.get(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0, "info": {}})

    values: dict[str, float] = {}
    for name in PASS_NAMES:
        r = row(name)
        values[f"{name}.calls"] = r["calls"] / n_passes
        values[f"{name}.time_pct"] = 100.0 * r["time_s"] / pass_s
    for name in SETUP_NAMES:
        values[f"{name}.setup_pct"] = 100.0 * row(name, setup)["time_s"] / setup_s
    objective = row("losses.hda_objective")
    backward = row("autodiff.backward")
    samples = objective["info"].get("samples", 0)
    nodes = backward["info"].get("nodes", 0)
    clip = row("engine.clip_gradients")
    values.update({
        "losses.hda_objective.samples": samples / n_passes,
        "losses.hda_objective.self_pct": 100.0 * objective["self_s"] / pass_s,
        "autodiff.tape_nodes": nodes / n_passes,
        "autodiff.tape_nodes_per_sample": nodes / samples if samples else 0.0,
        "autodiff.backward.visits": backward["info"].get("visits", 0) / n_passes,
        "worlds.generator_forward.rows": row("worlds.generator_forward")["info"].get("rows", 0)
        / n_passes,
        "worlds.encode.rows": row("worlds.encode")["info"].get("rows", 0) / n_passes,
        "metrics.evaluate.samples": row("metrics.evaluate")["info"].get("samples", 0) / n_passes,
        "metrics.evaluate.peak_mb": max(peaks, default=0.0),
        "engine.clip_gradients.clipped_share": (
            clip["info"].get("clipped", 0) / clip["calls"] if clip["calls"] else 0.0
        ),
        "trace.overhead_pct": 100.0 * (traced_run_s - untraced_run_s) / untraced_run_s,
    })
    steps = sorted(step_times(spans))
    return {
        "values": values,
        "passes": passes,
        "setup": setup,
        "n_passes": n_passes,
        "pass_s": pass_s,
        "setup_s": setup_s,
        "traced_run_s": traced_run_s,
        "overhead_s": traced_run_s - untraced_run_s,
        "clip_calls": clip["calls"],
        "step_ms": (
            {"p50": 1e3 * nearest_rank(steps, 50), "p95": 1e3 * nearest_rank(steps, 95),
             "n": len(steps)}
            if steps else None
        ),
        "self_sum_residual": max(residuals, default=None),
    }
