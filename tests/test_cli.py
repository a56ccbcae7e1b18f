"""End-to-end command checks through the click runner and the entry point."""

import json
import subprocess
import sys

import pytest
from click.testing import CliRunner

from hda.cli import main
from hda.subspace import separation_ratio_2d


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory, runner):
    out = tmp_path_factory.mktemp("cli") / "world"
    result = runner.invoke(main, ["gen-world", "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory, runner, world_dir):
    base = tmp_path_factory.mktemp("cli-run")
    config = base / "config.json"
    config.write_text(json.dumps({"steps": 6, "learning_rate": 0.01}), encoding="utf8")
    out = base / "run"
    result = runner.invoke(
        main,
        ["adapt", "--config", str(config), "--world", str(world_dir), "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    return out


def test_gen_world_writes_expected_files(world_dir):
    assert (world_dir / "world.json").is_file()
    assert (world_dir / "references_attr0.csv").is_file()
    assert (world_dir / "references_attr1.csv").is_file()


def test_gen_world_rerun_is_byte_identical(tmp_path, runner, world_dir):
    again = tmp_path / "world2"
    result = runner.invoke(main, ["gen-world", "--out", str(again)])
    assert result.exit_code == 0
    for name in ("world.json", "references_attr0.csv", "references_attr1.csv"):
        assert (again / name).read_bytes() == (world_dir / name).read_bytes()


def test_gen_world_seed_override_changes_output(tmp_path, runner, world_dir):
    other = tmp_path / "world-seeded"
    result = runner.invoke(main, ["gen-world", "--out", str(other), "--seed", "1"])
    assert result.exit_code == 0
    assert (other / "world.json").read_bytes() != (world_dir / "world.json").read_bytes()


def test_build_subspaces_writes_one_file_per_pair(tmp_path, runner, world_dir):
    out = tmp_path / "subs"
    result = runner.invoke(
        main, ["build-subspaces", "--world", str(world_dir), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 8  # 4 encoders x 2 domains
    assert "subspace_held_out_attr0.json" in files or any(
        "attr0" in name for name in files
    )
    doc = json.loads((out / files[0]).read_text(encoding="utf8"))
    assert {"mean", "basis", "singular_values"} <= set(doc)


def test_adapt_writes_run_artifacts(tiny_run):
    assert (tiny_run / "run_record.json").is_file()
    log = (tiny_run / "log.jsonl").read_text(encoding="utf8").splitlines()
    assert len(log) == 6
    record = json.loads((tiny_run / "run_record.json").read_text(encoding="utf8"))
    assert record["config"]["steps"] == 6
    assert record["world_dir"]


def test_adapt_rerun_is_byte_identical(tmp_path, runner, world_dir, tiny_run):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": 6, "learning_rate": 0.01}), encoding="utf8")
    again = tmp_path / "run2"
    result = runner.invoke(
        main,
        ["adapt", "--config", str(config), "--world", str(world_dir), "--out", str(again)],
    )
    assert result.exit_code == 0
    assert (again / "run_record.json").read_bytes() == (
        tiny_run / "run_record.json"
    ).read_bytes()
    assert (again / "log.jsonl").read_bytes() == (tiny_run / "log.jsonl").read_bytes()


def test_eval_round_trips_and_reruns_identically(tmp_path, runner, tiny_run):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        result = runner.invoke(
            main, ["eval", "--run", str(tiny_run), "--out", str(path), "--n-samples", "32"]
        )
        assert result.exit_code == 0, result.output
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text(encoding="utf8"))
    assert set(doc["semantic_similarity"]) == {"attr0", "attr1"}


def test_eval_seed_changes_report(tmp_path, runner, tiny_run):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    runner.invoke(main, ["eval", "--run", str(tiny_run), "--out", str(a), "--n-samples", "32"])
    runner.invoke(
        main,
        ["eval", "--run", str(tiny_run), "--out", str(b), "--n-samples", "32", "--seed", "9"],
    )
    assert a.read_bytes() != b.read_bytes()


def test_ablate_writes_grid(tmp_path, runner, world_dir):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": 4, "learning_rate": 0.01}), encoding="utf8")
    out = tmp_path / "ablation"
    result = runner.invoke(
        main,
        ["ablate", "--config", str(config), "--world", str(world_dir), "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    rows = json.loads((out / "ablation.json").read_text(encoding="utf8"))
    assert len(rows) == 6
    csv_lines = (out / "ablation.csv").read_text(encoding="utf8").splitlines()
    assert len(csv_lines) == 7


def test_export_viz_produces_separated_clusters(tmp_path, runner, world_dir):
    out = tmp_path / "viz.csv"
    result = runner.invoke(
        main, ["export-viz", "--world", str(world_dir), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text(encoding="utf8").splitlines()
    assert len(lines) == 21  # header + 2 domains x 10 references
    rows = []
    for line in lines[1:]:
        label, x, y = line.split(",")
        rows.append((label, float(x), float(y)))
    assert separation_ratio_2d(rows) > 3.0


def test_gradcheck_passes_quickly(runner):
    result = runner.invoke(main, ["gradcheck"])
    assert result.exit_code == 0, result.output
    assert "all" in result.output and "passed" in result.output


def test_missing_world_exits_2(tmp_path, runner):
    result = runner.invoke(
        main, ["adapt", "--world", str(tmp_path / "nope"), "--out", str(tmp_path / "r")]
    )
    assert result.exit_code == 2


def test_invalid_config_json_exits_2(tmp_path, runner, world_dir):
    config = tmp_path / "broken.json"
    config.write_text("{not json", encoding="utf8")
    result = runner.invoke(
        main,
        [
            "adapt",
            "--config",
            str(config),
            "--world",
            str(world_dir),
            "--out",
            str(tmp_path / "r"),
        ],
    )
    assert result.exit_code == 2


def test_string_boolean_in_config_exits_2(tmp_path, runner, world_dir):
    config = tmp_path / "string_flag.json"
    config.write_text(json.dumps({"steps": 2, "dist_only": "false"}), encoding="utf8")
    result = runner.invoke(
        main,
        ["adapt", "--config", str(config), "--world", str(world_dir), "--out", str(tmp_path / "r")],
    )
    assert result.exit_code == 2
    assert "dist_only" in result.output


def test_inseparable_world_exits_3(tmp_path, runner, world_dir):
    # crank the domain noise until the separability precheck trips
    doc = json.loads((world_dir / "world.json").read_text(encoding="utf8"))
    for domain in doc["config"]["domains"]:
        domain["noise_scale"] = 5.0
    noisy_config = tmp_path / "noisy.json"
    noisy_config.write_text(json.dumps(doc["config"]), encoding="utf8")
    noisy_world = tmp_path / "noisy-world"
    result = runner.invoke(
        main, ["gen-world", "--config", str(noisy_config), "--out", str(noisy_world)]
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main, ["adapt", "--world", str(noisy_world), "--out", str(tmp_path / "r")]
    )
    assert result.exit_code == 3


def test_entry_point_is_installed():
    result = subprocess.run(
        [sys.executable, "-m", "hda.cli", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "Commands" in result.stdout
    script = subprocess.run(["hda", "--help"], capture_output=True, text=True)
    assert script.returncode == 0
