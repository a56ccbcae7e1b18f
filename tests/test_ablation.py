"""Loss-variant x encoder-mode ablation grid over a shared seed."""

import csv
import dataclasses
import json

import pytest

from hda.ablation import ENCODER_MODES, VARIANTS, ablation_suite, save_ablation
from hda.engine import default_adaptation_config
from hda.errors import NumericalError
from hda.metrics import EVAL_SAMPLES


@pytest.fixture(scope="module")
def rows(world, subspaces):
    config = default_adaptation_config(world, steps=12, learning_rate=0.01, seed=3)
    return ablation_suite(config, world)


def test_grid_is_complete(rows):
    combos = {(r.variant, r.encoder_mode) for r in rows}
    assert combos == {(v, m) for v in VARIANTS for m in ENCODER_MODES}
    assert len(rows) == 6


def test_encoder_modes_differ_in_ids(rows, world):
    for row in rows:
        if row.encoder_mode == "ensemble":
            assert row.encoder_ids == world.train_encoder_ids
        else:
            assert len(row.encoder_ids) == 1
            assert row.encoder_ids[0] in world.train_encoder_ids


def test_rows_carry_final_losses_and_reports(rows):
    for row in rows:
        assert row.final_total >= 0.0
        assert row.report.n_samples == EVAL_SAMPLES
        assert set(row.report.semantic_similarity) == {"attr0", "attr1"}


def test_variants_actually_change_the_run(rows):
    totals = {(r.variant, r.encoder_mode): r.final_total for r in rows}
    assert totals[("full", "ensemble")] != totals[("dist_only", "ensemble")]
    assert totals[("full", "ensemble")] != totals[("direct_only", "ensemble")]


def test_suite_is_deterministic(world, subspaces):
    config = default_adaptation_config(world, steps=6, learning_rate=0.01, seed=3)
    a = ablation_suite(config, world)
    b = ablation_suite(config, world)
    assert [(r.variant, r.final_total) for r in a] == [
        (r.variant, r.final_total) for r in b
    ]


def test_save_ablation_files(tmp_path, rows):
    save_ablation(rows, tmp_path)
    doc = json.loads((tmp_path / "ablation.json").read_text(encoding="utf8"))
    assert len(doc) == 6
    with open(tmp_path / "ablation.csv", encoding="utf8") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 6
    assert {row["variant"] for row in parsed} == set(VARIANTS)
    # CSV numbers match the JSON rows
    for js, cs in zip(doc, parsed):
        assert js["variant"] == cs["variant"]
        assert float(cs["final_total"]) == js["final_total"]


def test_save_ablation_is_byte_stable(tmp_path, rows):
    save_ablation(rows, tmp_path / "a")
    save_ablation(rows, tmp_path / "b")
    assert (tmp_path / "a/ablation.json").read_bytes() == (
        tmp_path / "b/ablation.json"
    ).read_bytes()
    assert (tmp_path / "a/ablation.csv").read_bytes() == (
        tmp_path / "b/ablation.csv"
    ).read_bytes()


def test_base_config_variant_flags_are_overridden(world):
    # the grid sets the variant flags itself; whatever the base carries
    # is normalized away
    clean = default_adaptation_config(world, steps=2, learning_rate=0.01, seed=5)
    dirty = default_adaptation_config(
        world, steps=2, learning_rate=0.01, seed=5, dist_only=True
    )
    a = ablation_suite(clean, world)
    b = ablation_suite(dirty, world)
    assert [(r.variant, r.final_total) for r in a] == [
        (r.variant, r.final_total) for r in b
    ]


def test_save_ablation_refuses_a_nan_metric_and_writes_nothing(tmp_path, rows):
    bad = dataclasses.replace(rows[2].report, diversity=float("nan"))
    broken = [*rows[:2], dataclasses.replace(rows[2], report=bad), *rows[3:]]
    out = tmp_path / "grid"
    with pytest.raises(NumericalError, match="ablation.json: refusing to write a non-finite"):
        save_ablation(broken, out)
    assert not out.exists()
