"""The three benchmark workloads.

Each workload is a closed loop: one process, one caller, and each pass
starts after the previous one ends.  A workload gets its inputs from the
workload seed only.  It calls the package through module attributes
(``engine.run_adaptation``, not a from-import), so the traced run's
wrappers see every call.

Interface: ``prepare()`` makes the inputs (untimed); ``setup()`` is what
``setup_s`` times; ``run_pass(state)`` is one timed pass; ``operations``
says how many operations a pass result holds and how many of them are
expected non-failures; ``fingerprint`` digests every output bit for bit;
``checks`` records the correctness checks; ``quality`` gives the
deterministic outputs that the report prints.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import shutil

import numpy as np

from hda import engine, metrics, seeding, subspace, worlds
from hda.errors import DegenerateDomain

#: Relative tolerance of the frozen sentinels, as in tests/test_regression.py.
SENTINEL_REL = 1e-9

#: The workload seed whose runs must reproduce the frozen sentinels.
DEFAULT_SEED = 0

DOMAINS = ("attr0", "attr1")


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=SENTINEL_REL, abs_tol=0.0)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        else:
            h.update(repr(part).encode("utf8"))
    return h.hexdigest()


def _report_values(report) -> tuple:
    """Every float of a metrics report at full precision."""
    return (
        tuple(report.semantic_similarity[d] for d in sorted(report.semantic_similarity)),
        report.consistency,
        report.diversity,
        report.n_samples,
    )


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def load_baselines(root: str) -> dict:
    path = os.path.join(root, "tests", "data", "regression_baselines.json")
    with open(path, "r", encoding="utf8") as fh:
        return json.load(fh)


def _check_criterion5(tally, label: str, unadapted, final, baselines: dict) -> None:
    """Frozen criterion-5 sentinels: both distances before/after and final consistency."""
    pins = baselines["criterion5"]
    for d in DOMAINS:
        before, after = pins[d]
        got = (unadapted.mean_distance(d), final.mean_distance(d))
        tally.check(
            f"{label}: criterion-5 sentinel {d} distances",
            _close(got[0], before) and _close(got[1], after),
            f"got {got[0]!r} -> {got[1]!r}, frozen {before!r} -> {after!r}",
        )
    tally.check(
        f"{label}: criterion-5 sentinel final consistency",
        _close(final.consistency, pins["final_consistency"]),
        f"got {final.consistency!r}, frozen {pins['final_consistency']!r}",
    )


def _same_params(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.to_dict().values(), b.to_dict().values()))


def _check_evaluate_twice(tally, label: str, args: tuple, made, detail: str) -> None:
    """Two more ``evaluate(*args)`` calls must both reproduce the report ``made``."""
    again = [metrics.evaluate(*args).to_json_dict() for _ in range(2)]
    tally.check(
        f"{label}: evaluating one checkpoint twice gives an identical report",
        again[0] == again[1] == made.to_json_dict(),
        detail,
    )


def _check_distances_drop(tally, label: str, before, after) -> None:
    """Criterion 5's property: both held-out distances drop."""
    detail = ", ".join(
        f"{d} {before.mean_distance(d):.4f}->{after.mean_distance(d):.4f}" for d in DOMAINS
    )
    tally.check(
        f"{label}: held-out distances drop",
        all(after.mean_distance(d) < before.mean_distance(d) for d in DOMAINS),
        detail,
    )


class HybridStock:
    """Stock ``hda adapt`` on the stock world; the adapt seed is the workload seed."""

    name = "hybrid_stock"
    work_unit = "steps"
    throughput_name = "steps_per_s"

    def __init__(self, seed: int, workdir: str, root: str):
        self.seed = seed
        self.root = root

    def prepare(self) -> None:
        pass

    def setup(self):
        world = worlds.build_world(worlds.default_world_config(worlds.DEFAULT_WORLD_SEED))
        subs = worlds.build_world_subspaces(world)
        config = engine.default_adaptation_config(world, seed=self.seed)
        return world, subs, config

    def work_per_pass(self, state) -> int:
        return state[2].steps

    def run_pass(self, state):
        world, subs, config = state
        return engine.run_adaptation(config, world, subs)

    def operations(self, record) -> tuple[int, int]:
        return 1, 0

    def fingerprint(self, record) -> str:
        parts = []
        for b in record.step_losses:
            parts.append((b.total, tuple((t.dist_term, t.direct_term) for t in b.per_encoder)))
        for snap in record.snapshots:
            parts.append((snap.step, _report_values(snap.report)))
        for name in sorted(record.checkpoints):
            ckpt = record.checkpoints[name]
            parts.append((name, ckpt.step))
            parts.extend(ckpt.params.to_dict().values())
        parts.extend(record.final_params.to_dict().values())
        return _digest(*parts)

    def quality(self, record) -> dict[str, float]:
        final = record.snapshots[-1].report
        return {
            "heldout_dist_attr0": final.mean_distance("attr0"),
            "heldout_dist_attr1": final.mean_distance("attr1"),
            "consistency": final.consistency,
            "diversity": final.diversity,
        }

    def checks(self, record, state, tally) -> None:
        world, subs, config = state
        label = self.name
        losses = [b.total for b in record.step_losses]
        tally.check(
            f"{label}: every step loss is finite",
            len(losses) == config.steps and _all_finite(losses),
            f"{len(losses)} steps",
        )
        unadapted, final = record.snapshot_at(0), record.snapshots[-1].report
        _check_distances_drop(tally, label, unadapted, final)
        # the last snapshot evaluated the final parameters; evaluate them twice more
        held = world.held_out_encoder
        args = (
            record.final_params,
            world.source_generator,
            held,
            {d: subs[held.encoder_id][d] for d in config.domain_ids},
            {d: world.references[d] for d in config.domain_ids},
            128,
            seeding.derive_seed(config.seed, "snapshot-eval"),
        )
        _check_evaluate_twice(tally, label, args, final,
                              "final parameters, 128 samples, snapshot eval seed")
        if self.seed == DEFAULT_SEED:
            _check_criterion5(tally, label, unadapted, final, load_baselines(self.root))


class EvalSweep:
    """Held-out ``evaluate`` at 1024 samples x 3 eval seeds on the first/best/last checkpoints."""

    name = "eval_sweep"
    work_unit = "samples"
    throughput_name = "eval_samples_per_s"
    #: Large enough to keep the O(m^2 d) diversity tensor visible; see README.
    n_samples = 1024
    checkpoints = ("first", "best", "last")

    def __init__(self, seed: int, workdir: str, root: str):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.world_dir = os.path.join(workdir, "world")
        self.run_dir = os.path.join(workdir, "run")
        self.eval_seeds = tuple(3 * seed + i for i in range(3))
        self.source_record = None

    def prepare(self) -> None:
        """Write the stock world and a hybrid run made with adapt seed = workload seed."""
        world = worlds.build_world(worlds.default_world_config(worlds.DEFAULT_WORLD_SEED))
        worlds.save_world(world, self.world_dir)
        subs = worlds.build_world_subspaces(world)
        config = engine.default_adaptation_config(world, seed=self.seed)
        self.source_record = engine.run_adaptation(config, world, subs)
        engine.save_run(self.source_record, self.run_dir, world_dir=self.world_dir)

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def setup(self):
        """What ``hda eval`` does before evaluating: load the run and world, build subspaces."""
        record, world_dir = engine.load_run(self.run_dir)
        world = worlds.load_world(world_dir)
        subs = worlds.build_world_subspaces(world)
        held = world.held_out_encoder
        domain_ids = record.config.domain_ids
        return (
            record,
            world,
            {d: subs[held.encoder_id][d] for d in domain_ids},
            {d: world.references[d] for d in domain_ids},
        )

    def work_per_pass(self, state) -> int:
        return len(self.checkpoints) * len(self.eval_seeds) * self.n_samples

    def run_pass(self, state):
        record, world, held_subs, refs = state
        out = []
        for name in self.checkpoints:
            params = record.checkpoints[name].params
            for eval_seed in self.eval_seeds:
                report = metrics.evaluate(
                    params,
                    world.source_generator,
                    world.held_out_encoder,
                    held_subs,
                    refs,
                    self.n_samples,
                    eval_seed,
                )
                out.append((name, eval_seed, report))
        return out

    def operations(self, reports) -> tuple[int, int]:
        return len(reports), 0

    def fingerprint(self, reports) -> str:
        return _digest(*[(name, s, _report_values(r)) for name, s, r in reports])

    def quality(self, reports) -> dict[str, float]:
        last = [r for name, _, r in reports if name == "last"]
        return {
            "heldout_dist_attr0": float(np.mean([r.mean_distance("attr0") for r in last])),
            "heldout_dist_attr1": float(np.mean([r.mean_distance("attr1") for r in last])),
            "consistency": float(np.mean([r.consistency for r in last])),
            "diversity": float(np.mean([r.diversity for r in last])),
        }

    def checks(self, reports, state, tally) -> None:
        record = state[0]
        label = self.name
        made = self.source_record
        tally.check(
            f"{label}: load_run returns the saved checkpoints bit for bit",
            all(
                record.checkpoints[n].step == made.checkpoints[n].step
                and _same_params(record.checkpoints[n].params, made.checkpoints[n].params)
                for n in self.checkpoints
            ),
            ", ".join(f"{n}@{record.checkpoints[n].step}" for n in self.checkpoints),
        )
        values = [v for _, _, r in reports for v in (*r.semantic_similarity.values(),
                                                     r.consistency, r.diversity)]
        tally.check(f"{label}: every metric is finite", _all_finite(values), f"{len(values)} values")
        by_key = {(name, s): r for name, s, r in reports}
        for s in self.eval_seeds:
            _check_distances_drop(tally, f"{label} eval seed {s}", by_key[("first", s)],
                                  by_key[("last", s)])
        _, world, held_subs, refs = state
        first_seed = self.eval_seeds[0]
        args = (record.checkpoints["last"].params, world.source_generator,
                world.held_out_encoder, held_subs, refs, self.n_samples, first_seed)
        _check_evaluate_twice(tally, label, args, by_key[("last", first_seed)],
                              f"last checkpoint, eval seed {first_seed}")
        if self.seed == DEFAULT_SEED:
            _check_criterion5(tally, f"{label} input run", made.snapshot_at(0),
                              made.snapshots[-1].report, load_baselines(self.root))


class WorldSweep:
    """gen-world + build-subspaces + separability precheck + export-viz over a block of seeds."""

    name = "world_sweep"
    work_unit = "worlds"
    throughput_name = "worlds_per_s"
    #: World seeds per pass; the block for workload seed s starts at 307 + s * block.
    block = 100

    def __init__(self, seed: int, workdir: str, root: str):
        self.seed = seed
        self.root = root
        first = worlds.DEFAULT_WORLD_SEED + seed * self.block
        self.world_seeds = tuple(range(first, first + self.block))

    def prepare(self) -> None:
        pass

    def setup(self):
        world = worlds.build_world(worlds.default_world_config(self.world_seeds[0]))
        return world, worlds.build_world_subspaces(world)

    def work_per_pass(self, state) -> int:
        return len(self.world_seeds)

    def run_pass(self, state):
        out = []
        for world_seed in self.world_seeds:
            world = worlds.build_world(worlds.default_world_config(world_seed))
            subs = worlds.build_world_subspaces(world)
            domain_ids = tuple(d.domain_id for d in world.domains)
            try:
                ratios = engine.check_separability(world, world.train_encoder_ids, domain_ids)
            except DegenerateDomain:
                ratios = None
            held = world.held_out_encoder
            rows = subspace.pca2d_export([world.feature_set(held, d) for d in domain_ids])
            out.append((world_seed, subs, ratios, rows, subspace.separation_ratio_2d(rows)))
        return out

    def operations(self, results) -> tuple[int, int]:
        return len(results), sum(1 for r in results if r[2] is None)

    def fingerprint(self, results) -> str:
        parts = []
        for world_seed, subs, ratios, rows, ratio_2d in results:
            parts.append((world_seed, ratios, rows, ratio_2d))
            for enc_id in sorted(subs):
                for dom_id in sorted(subs[enc_id]):
                    sub = subs[enc_id][dom_id]
                    parts.extend((sub.mean, sub.basis, sub.singular_values))
        return _digest(*parts)

    def quality(self, results) -> dict[str, float]:
        return {"separable_share": sum(1 for r in results if r[2] is not None) / len(results)}

    def checks(self, results, state, tally) -> None:
        label = self.name
        ratios = [v for r in results if r[2] is not None for v in r[2].values()]
        ratios.extend(r[4] for r in results)
        tally.check(f"{label}: every ratio is finite", _all_finite(ratios), f"{len(ratios)} ratios")
        n_rows = sum(d.k for d in worlds.default_world_config().domains)
        tally.check(
            f"{label}: export-viz gives one row per reference",
            all(len(r[3]) == n_rows for r in results),
            f"{n_rows} rows per world",
        )
        if self.seed == DEFAULT_SEED:
            pins = load_baselines(self.root)["criterion7"]
            stock = results[0]
            got = stock[2] or {}
            for enc_id, want in pins["training_encoder_ratios"].items():
                tally.check(
                    f"{label}: criterion-7 sentinel {enc_id} ratio (world {stock[0]})",
                    enc_id in got and _close(got[enc_id], want),
                    f"got {got.get(enc_id)!r}, frozen {want!r}",
                )
            tally.check(
                f"{label}: criterion-7 sentinel held-out 2D ratio (world {stock[0]})",
                _close(stock[4], pins["ratio_2d_held_out"]),
                f"got {stock[4]!r}, frozen {pins['ratio_2d_held_out']!r}",
            )


WORKLOADS = {cls.name: cls for cls in (HybridStock, EvalSweep, WorldSweep)}
