"""The eight go/no-go checks. Each test prints one PASS/FAIL line.

Free parameters (the adaptation learning rate and seed for the
single-domain check, the collapse-ablation base config) are pinned in
tests/data/regression_baselines.json next to the reference numbers they
produced. The hard thresholds below are cited from an acceptance
contract that this repository does not hold; PAPER.md gives no figures.

Criterion 4's 90% is a share of the reachable gap, not of the step-1
distance: the held-out distance must close 90% of the way from step 1
to the distance scored by the target domain's own noise-free generator
(source plus the domain's transform and shift), evaluated on the same
latents. With 10 references per domain, a distance of 0 is reachable
only by collapsing onto the reference hull, so a bar measured toward 0
would reward overfitting rather than adaptation.
"""

import json
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from hda.ablation import ablation_suite
from hda.diagnostics import run_suite
from hda.engine import (
    AdaptationConfig,
    default_adaptation_config,
    run_adaptation,
)
from hda.losses import DomainWeight, loss_total
from hda.metrics import evaluate
from hda.seeding import derive_seed, stream_rng
from hda.worlds import GeneratorParams, save_world
from hda.subspace import (
    FeatureSet,
    build_subspace,
    separation_ratio,
    separation_ratio_2d,
    subspace_distance_sq,
)


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def test_criterion_1_projection_oracle():
    rng = stream_rng(0, "acceptance", "projection")
    t0 = time.perf_counter()
    worst = 0.0
    worst_idem = 0.0
    worst_ortho = 0.0
    n_pairs = 1000
    for _ in range(n_pairs):
        k = int(rng.integers(2, 11))
        d = int(rng.integers(2, 33))
        sub = build_subspace(FeatureSet(rng.standard_normal((k, d))))
        p = 3.0 * rng.standard_normal(d)
        got = subspace_distance_sq(sub, p)
        coeffs, _, _, _ = np.linalg.lstsq(sub.basis, p - sub.mean, rcond=None)
        want = float(np.sum((sub.mean + sub.basis @ coeffs - p) ** 2))
        scale = max(abs(want), 1e-12)
        worst = max(worst, abs(got - want) / scale)
        proj = sub.mean + sub.basis @ (sub.basis.T @ (p - sub.mean))
        proj2 = sub.mean + sub.basis @ (sub.basis.T @ (proj - sub.mean))
        worst_idem = max(worst_idem, float(np.max(np.abs(proj2 - proj))))
        worst_ortho = max(worst_ortho, float(np.max(np.abs(sub.basis.T @ (p - proj)))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and worst_idem <= 1e-12 and worst_ortho <= 1e-9 and elapsed < 10.0
    _verdict(
        1,
        ok,
        f"lstsq rel err {worst:.2e} over {n_pairs} pairs, idempotence {worst_idem:.2e}, "
        f"residual orthogonality {worst_ortho:.2e}, {elapsed:.1f}s",
    )
    assert worst <= 1e-10
    assert worst_idem <= 1e-12
    assert worst_ortho <= 1e-9
    assert elapsed < 10.0


#: ``hda gradcheck --full`` at seed 0, check by check: label, coordinates
#: compared and coordinates skipped.  A refactor of the battery that drops
#: a check or an operand's gradient changes a row here even when every
#: remaining check still passes.
CRITERION_2_BATTERY = [
    ("primitive add (100 instances)", 1000, 0),
    ("primitive linear (100 instances)", 1600, 0),
    ("primitive linear_rows (100 instances)", 3000, 0),
    ("primitive add_bias_rows (100 instances)", 2000, 0),
    ("primitive tanh (100 instances)", 600, 0),
    ("primitive relu (100 instances)", 287, 313),
    ("hda_objective (2 encoders, 2 domains, batch 2)", 56, 0),
    ("hda_objective (2 encoders, 2 domains, batch 5)", 56, 0),
    ("hda_objective (3 encoders, 2 domains, ranks 1/2/3, batch 4)", 56, 0),
    ("hda_objective (3 encoders, 2 domains, dist_only, ranks 1/2/3, batch 4)", 56, 0),
    ("hda_objective (3 encoders, 2 domains, direct_only, ranks 1/2/3, batch 4)", 56, 0),
    (
        "hda_objective (3 encoders, 2 domains, ranks 1/2/3, degenerate start, lambda 0.0, batch 4)",
        56,
        0,
    ),
]


def test_criterion_2_gradient_checks():
    t0 = time.perf_counter()
    reports = run_suite(full=True, seed=0)
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in reports if not r.passed]
    worst = max(r.max_rel_error for r in reports)
    skipped = sum(len(r.skipped) for r in reports)
    ok = not failed and elapsed < 30.0
    _verdict(
        2,
        ok,
        f"{len(reports)} checks, max rel err {worst:.2e}, "
        f"{skipped} degenerate coordinates reported separately, {elapsed:.1f}s",
    )
    assert not failed, failed
    # every check and operand is present, and relu flags the coordinates
    # on its flat side instead of comparing them
    battery = [(r.name, r.n_checked, len(r.skipped)) for r in reports]
    assert battery == CRITERION_2_BATTERY
    assert elapsed < 30.0


def test_criterion_3_reduction_and_invariance(point_losses):
    # the objective training runs, at one source and one target point
    # (conftest.py's point_losses); translation and scale move the
    # encoder's output and the subspace together
    rng = stream_rng(0, "acceptance", "identities")
    # a second subspace per instance, from its own stream so the instances above keep theirs
    other_rng = stream_rng(0, "acceptance", "identities", "other")
    n = 1000
    exact_reductions = 0
    exact_mixed = 0
    worst_translation = 0.0
    worst_scale_dist = 0.0
    worst_scale_direct = 0.0
    for _ in range(n):
        d = int(rng.integers(4, 9))
        sub = build_subspace(FeatureSet(rng.standard_normal((4, d))))
        p_s, p_t = rng.standard_normal(d), rng.standard_normal(d)
        base_d, base_r, base_g = point_losses(p_s, p_t, [sub], [1.0])
        # three copies at dyadic weights sum to the one subspace exactly
        copies_d, copies_r, copies_g = point_losses(p_s, p_t, [sub] * 3, [0.25, 0.25, 0.5])
        if copies_d == base_d and copies_r == base_r and np.array_equal(copies_g, base_g):
            exact_reductions += 1
        # unequal weights between distinct subspaces: two copies of one at 1/8 each
        # are that one at 1/4, bit for bit, and a swap of the weights shows
        other = build_subspace(FeatureSet(other_rng.standard_normal((4, d))))
        pair = point_losses(p_s, p_t, [sub, other], [0.25, 0.75])
        split = point_losses(p_s, p_t, [sub, sub, other], [0.125, 0.125, 0.75])
        if pair[:2] == split[:2] and np.array_equal(pair[2], split[2]):
            exact_mixed += 1

        t = 10.0 * rng.standard_normal(d)
        moved_d, moved_r, _ = point_losses(p_s, p_t, [sub], [1.0], shift=t)
        scale_ref = max(abs(base_d), 1.0)
        worst_translation = max(
            worst_translation,
            abs(moved_d - base_d) / scale_ref,
            abs(moved_r - base_r),
        )

        c = float(rng.uniform(0.5, 3.0))
        scaled_d, scaled_r, _ = point_losses(p_s, p_t, [sub], [1.0], scale=c)
        worst_scale_dist = max(
            worst_scale_dist, abs(scaled_d - c * c * base_d) / max(abs(base_d), 1.0)
        )
        worst_scale_direct = max(worst_scale_direct, abs(scaled_r - base_r))
    ok = (
        exact_reductions == n
        and exact_mixed == n
        and worst_translation <= 1e-10
        and worst_scale_dist <= 1e-9
        and worst_scale_direct <= 1e-9
    )
    _verdict(
        3,
        ok,
        f"{exact_reductions}/{n} exact reductions, {exact_mixed}/{n} between distinct "
        f"subspaces, translation {worst_translation:.2e}, "
        f"scale dist {worst_scale_dist:.2e}, scale direction {worst_scale_direct:.2e}",
    )
    assert exact_reductions == n
    assert exact_mixed == n
    assert worst_translation <= 1e-10
    assert worst_scale_dist <= 1e-9
    assert worst_scale_direct <= 1e-9


def _target_domain_generator(world, domain_id):
    """The source generator with the domain's transform and shift, noise-free.

    ``T(w2 h + b2) + shift`` is the generator ``w2' = T w2``,
    ``b2' = T b2 + shift``; ``T`` is the identity without a transform.
    """
    domain = world.domain(domain_id)
    source = world.source_generator
    t = domain.attribute_transform
    if t is None:
        t = np.eye(source.d_x)
    return GeneratorParams(
        w1=source.w1,
        b1=source.b1,
        w2=t @ source.w2,
        b2=t @ source.b2 + domain.attribute_shift,
    )


def test_criterion_4_single_domain_adaptation(world, subspaces, baselines):
    pins = baselines["criterion4"]
    config = AdaptationConfig(
        encoder_ids=world.train_encoder_ids,
        domain_ids=("attr1",),  # the 5*e1 attribute shift
        weights=(DomainWeight("attr1", 1.0),),
        lam=1.0,
        steps=300,
        batch_size=4,
        learning_rate=pins["learning_rate"],
        seed=pins["adapt_seed"],
    )
    t0 = time.perf_counter()
    record = run_adaptation(config, world, subspaces)
    baseline = run_adaptation(replace(config, lam=0.0), world, subspaces)
    elapsed = time.perf_counter() - t0

    # the floor: the target domain's own generator, scored like a snapshot
    held_out = world.held_out_encoder
    final = record.snapshots[-1].report
    target = evaluate(
        _target_domain_generator(world, "attr1"),
        world.source_generator,
        held_out,
        {"attr1": subspaces[held_out.encoder_id]["attr1"]},
        {"attr1": world.references["attr1"]},
        final.n_samples,
        derive_seed(config.seed, "snapshot-eval"),
    )
    d_target = target.mean_distance("attr1")

    def step1_and_final(run):
        return (
            run.snapshot_at(1).mean_distance("attr1"),
            run.snapshots[-1].report.mean_distance("attr1"),
        )

    d1, d_final = step1_and_final(record)
    d1_lam0, d_final_lam0 = step1_and_final(baseline)
    drop = 100.0 * (d1 - d_final) / d1
    closed = (d1 - d_final) / (d1 - d_target)
    closed_lam0 = (d1_lam0 - d_final_lam0) / (d1_lam0 - d_target)
    consistency = final.consistency
    consistency_lam0 = baseline.snapshots[-1].report.consistency
    measured = {
        "step1_distance": d1,
        "final_distance": d_final,
        "drop_percent": drop,
        "final_consistency": consistency,
        "lambda0_final_consistency": consistency_lam0,
        "final_to_step1_loss_ratio": (
            loss_total(record.dist[-1], record.direct[-1], config.lam)
            / loss_total(record.dist[0], record.direct[0], config.lam)
        ),
    }
    drifted = sorted(
        key for key, got in measured.items() if got != pytest.approx(pins[key], rel=1e-9)
    )
    ok = (
        closed >= 0.90
        and consistency >= consistency_lam0
        and elapsed < 60.0
        and not drifted
    )
    _verdict(
        4,
        ok,
        f"held-out distance {d1:.4f}->{d_final:.4f}, drop {drop:.2f}%, "
        f"target-domain floor {d_target:.4f}, gap closed {100.0 * closed:.1f}% "
        f"(needs >= 90%; lambda-0 run {100.0 * closed_lam0:.1f}%, "
        f"{'meets' if closed_lam0 >= 0.90 else 'misses'} the bar), "
        f"consistency {consistency:.4f} vs lambda-0 {consistency_lam0:.4f}, "
        f"sentinels {'match' if not drifted else f'drifted: {drifted}'} at rel 1e-9, "
        f"{elapsed:.1f}s",
    )
    assert not drifted, {key: (measured[key], pins[key]) for key in drifted}
    assert consistency >= consistency_lam0
    assert elapsed < 60.0
    assert closed >= 0.90


def test_criterion_5_hybrid_adaptation(world, subspaces):
    config = default_adaptation_config(world)  # both domains, alpha 0.5 each
    t0 = time.perf_counter()
    record = run_adaptation(config, world, subspaces)
    elapsed = time.perf_counter() - t0
    unadapted = record.snapshot_at(0)
    final = record.snapshots[-1].report
    drops = {
        d: (unadapted.mean_distance(d), final.mean_distance(d))
        for d in ("attr0", "attr1")
    }
    improved = {d: after < before for d, (before, after) in drops.items()}
    ok = all(improved.values()) and elapsed < 90.0
    detail = ", ".join(
        f"{d} {before:.3f}->{after:.3f}" for d, (before, after) in drops.items()
    )
    _verdict(5, ok, f"held-out subspace distance {detail}, {elapsed:.1f}s")
    assert improved["attr0"]
    assert improved["attr1"]
    assert elapsed < 90.0


def test_criterion_6_collapse_ablation(world, baselines):
    pins = baselines["criterion6"]
    config = default_adaptation_config(
        world,
        learning_rate=pins["base_learning_rate"],
        seed=pins["base_seed"],
    )
    rows = {
        (r.variant, r.encoder_mode): r
        for r in ablation_suite(config, world)
    }
    full = rows[("full", "ensemble")].report
    dist_only = rows[("dist_only", "ensemble")].report
    margin = full.consistency / dist_only.consistency
    threshold = 1.0 + pins["relative_consistency_margin"]
    strict = (
        full.consistency > dist_only.consistency
        and full.diversity > dist_only.diversity
    )
    ok = strict and margin >= threshold
    _verdict(
        6,
        ok,
        f"shared seed {config.seed}: consistency {full.consistency:.4f} vs "
        f"{dist_only.consistency:.4f} (x{margin:.3f}, needs >= x{threshold}), "
        f"diversity {full.diversity:.4f} vs {dist_only.diversity:.4f}",
    )
    assert full.consistency > dist_only.consistency
    assert full.diversity > dist_only.diversity
    assert margin >= threshold


def test_criterion_7_separability(world, tmp_path):
    ratios = {}
    for encoder_id in world.train_encoder_ids:
        enc = world.encoder(encoder_id)
        sets = [world.feature_set(enc, d.domain_id) for d in world.domains]
        ratios[encoder_id] = separation_ratio(sets)
    world_dir = tmp_path / "world"
    save_world(world, world_dir)
    viz = tmp_path / "viz.csv"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "hda.cli",
            "export-viz",
            "--world",
            str(world_dir),
            "--out",
            str(viz),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rows = []
    for line in viz.read_text(encoding="utf8").splitlines()[1:]:
        label, x, y = line.split(",")
        rows.append((label, float(x), float(y)))
    ratio_2d = separation_ratio_2d(rows)
    ok = all(r > 3.0 for r in ratios.values()) and ratio_2d > 3.0
    detail = ", ".join(f"{eid} x{r:.2f}" for eid, r in ratios.items())
    _verdict(7, ok, f"training encoders {detail}; 2D plane x{ratio_2d:.2f} (needs > 3)")
    for encoder_id, ratio in ratios.items():
        assert ratio > 3.0, encoder_id
    assert ratio_2d > 3.0


def test_criterion_8_determinism(tmp_path):
    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "hda.cli", *args], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    def repeat(name, args, out):
        """Run the identical command twice, compare every produced file."""
        out = tmp_path / out
        run(args + ["--out", str(out)])
        if out.is_dir():
            first = {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
        else:
            first = {out.name: out.read_bytes()}
        run(args + ["--out", str(out)])
        if out.is_dir():
            second = {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
        else:
            second = {out.name: out.read_bytes()}
        assert set(first) == set(second), name
        return name, [f for f in first if first[f] != second[f]], len(first)

    adapt_config = tmp_path / "adapt.json"
    adapt_config.write_text(
        json.dumps({"steps": 40, "learning_rate": 0.01}), encoding="utf8"
    )
    ablate_config = tmp_path / "ablate.json"
    ablate_config.write_text(
        json.dumps({"steps": 6, "learning_rate": 0.01}), encoding="utf8"
    )
    world = str(tmp_path / "world")
    results = [repeat("gen-world", ["gen-world"], "world")]
    results.append(repeat("build-subspaces", ["build-subspaces", "--world", world], "subs"))
    results.append(
        repeat("adapt", ["adapt", "--config", str(adapt_config), "--world", world], "run")
    )
    results.append(
        repeat(
            "eval",
            ["eval", "--run", str(tmp_path / "run"), "--n-samples", "64"],
            "report.json",
        )
    )
    results.append(
        repeat("ablate", ["ablate", "--config", str(ablate_config), "--world", world], "abl")
    )
    results.append(repeat("export-viz", ["export-viz", "--world", world], "viz.csv"))
    grad_a = run(["gradcheck", "--seed", "0"]).stdout
    grad_b = run(["gradcheck", "--seed", "0"]).stdout
    diffs = {name: bad for name, bad, _ in results if bad}
    n_files = sum(n for _, _, n in results)
    ok = not diffs and grad_a == grad_b
    _verdict(
        8,
        ok,
        f"{len(results)} commands repeated, {n_files} files byte-identical, "
        f"gradcheck stdout identical"
        + ("" if ok else f"; differing: {diffs or 'gradcheck stdout'}"),
    )
    assert not diffs, diffs
    assert grad_a == grad_b
