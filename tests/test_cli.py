"""End-to-end command checks through the click runner and the entry point."""

import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import entry_points
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from hda.cli import main
from hda.subspace import separation_ratio_2d

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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


@pytest.fixture(scope="module")
def stock_run(tmp_path_factory, runner, world_dir):
    out = tmp_path_factory.mktemp("cli-stock") / "run"
    result = runner.invoke(main, ["adapt", "--world", str(world_dir), "--out", str(out)])
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


def test_truncated_run_log_exits_2_naming_the_line(tmp_path, runner, tiny_run):
    run = tmp_path / "run"
    shutil.copytree(tiny_run, run)
    log = run / "log.jsonl"
    lines = log.read_text(encoding="utf8").splitlines()
    log.write_text("\n".join(lines[:2] + [lines[2][:20]]) + "\n", encoding="utf8")
    result = runner.invoke(main, ["eval", "--run", str(run), "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2, result.output
    assert "log.jsonl: line 3:" in result.output


def test_world_file_that_is_not_an_object_exits_2(tmp_path, runner, world_dir):
    # without the one key "config", the default world would meet these reference CSVs
    for i, text in enumerate(["[]", "{}", '{"confg": {"seed": 1}}']):
        world = tmp_path / f"world{i}"
        shutil.copytree(world_dir, world)
        (world / "world.json").write_text(text, encoding="utf8")
        result = runner.invoke(
            main, ["build-subspaces", "--world", str(world), "--out", str(tmp_path / "s")]
        )
        assert result.exit_code == 2, (text, result.output)
        assert "world.json" in result.output


@pytest.mark.parametrize(
    "config",
    [[], {"sede": 1}, {"domains": [{"domain_id": "a", "attribute_shift": [1, 2]}]}],
    ids=["not-an-object", "unknown-key", "dimension-mismatch"],
)
def test_malformed_world_config_exits_2_naming_the_file(tmp_path, runner, world_dir, config):
    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    (world / "world.json").write_text(json.dumps({"config": config}), encoding="utf8")
    result = runner.invoke(
        main, ["build-subspaces", "--world", str(world), "--out", str(tmp_path / "s")]
    )
    assert result.exit_code == 2, result.output
    assert "world.json" in result.output
    # the same config given to gen-world
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf8")
    result = runner.invoke(
        main, ["gen-world", "--config", str(path), "--out", str(tmp_path / "w")]
    )
    assert result.exit_code == 2, result.output
    assert f"{path}: " in result.output


def _set(*keys, value):
    """An edit of a JSON document that sets the entry at ``keys`` to ``value``."""

    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value

    return edit


def _drop_last(*keys):
    """An edit of a JSON document that removes the last entry of the list at ``keys``."""

    def edit(doc):
        for key in keys:
            doc = doc[key]
        doc.pop()

    return edit


@pytest.mark.parametrize(
    "edit, named",
    [
        (_set("world_dir", value=None), "world_dir must be a string"),
        (_set("snapshots", 1, "step", value=2.5), "snapshots[1]: step must be"),
        (_set("checkpoints", "best", "step", value="3"), "checkpoints['best']: step must be"),
        (_set("snapshots", 0, "report", "consistency", value="0.9"), "report: consistency"),
        (_set("snapshots", 0, "report", "semantic_similarity", value=[-1.0, -2.0]),
         "report: semantic_similarity"),
        (_set("snapshots", 0, "report", "n_samples", value=1.5), "report: n_samples"),
        (_set("snapshots", 0, "bogus", value=1), "unknown MetricSnapshot key 'bogus'"),
        (_set("final_params", "w1", 0, 0, value=float("nan")),
         "final_params: w1 contains non-finite entries"),
        (_drop_last("final_params", "b2"),
         "final_params: generator document: b2 must have shape (32,), got (31,)"),
        (_set("checkpoints", "best", "params", "b1", 0, value=float("inf")),
         "checkpoints['best']: params: b1 contains non-finite entries"),
    ],
    ids=["null-world-dir", "fractional-step", "string-step", "string-metric", "list-similarity",
         "fractional-n-samples", "unknown-key", "nan-final-w1", "short-final-b2",
         "infinite-best-b1"],
)
def test_malformed_run_record_exits_2_naming_the_key(tmp_path, runner, stock_run, edit, named):
    run = tmp_path / "run"
    shutil.copytree(stock_run, run)
    path = run / "run_record.json"
    doc = json.loads(path.read_text(encoding="utf8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf8")
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["eval", "--run", str(run), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"error: {path}: " in result.output
    assert named in result.output
    assert not out.exists()


def test_minimal_config_weights_the_named_domains_equally(tmp_path, runner, world_dir):
    config = tmp_path / "one_domain.json"
    config.write_text(json.dumps({"domain_ids": ["attr1"], "steps": 2}), encoding="utf8")
    out = tmp_path / "r"
    result = runner.invoke(
        main, ["adapt", "--config", str(config), "--world", str(world_dir), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    record = json.loads((out / "run_record.json").read_text(encoding="utf8"))
    assert record["config"]["weights"] == [{"domain_id": "attr1", "alpha": 1.0}]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_reference_exits_2_naming_the_line(tmp_path, runner, world_dir, value):
    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    refs = world / "references_attr0.csv"
    lines = refs.read_text(encoding="utf8").splitlines()
    lines[2] = ",".join([value] + lines[2].split(",")[1:])
    lines.insert(1, "")  # a blank line still counts toward the line named
    refs.write_text("\n".join(lines) + "\n", encoding="utf8")
    result = runner.invoke(
        main, ["build-subspaces", "--world", str(world), "--out", str(tmp_path / "s")]
    )
    assert result.exit_code == 2, result.output
    assert "references_attr0.csv: line 4 has a non-finite value" in result.output


def test_string_boolean_in_config_exits_2(tmp_path, runner, world_dir):
    config = tmp_path / "string_flag.json"
    config.write_text(json.dumps({"steps": 2, "dist_only": "false"}), encoding="utf8")
    result = runner.invoke(
        main,
        ["adapt", "--config", str(config), "--world", str(world_dir), "--out", str(tmp_path / "r")],
    )
    assert result.exit_code == 2
    assert "dist_only" in result.output


@pytest.mark.parametrize(
    "command, named",
    [
        (["adapt", "--config", "{config}", "--world", "{world}", "--out", "{out}"],
         "'detach_projection'"),
        (["build-subspaces", "--world", "{world}", "--out", "{out}", "--rank-tolerance", "1e-6"],
         "--rank-tolerance"),
    ],
    ids=["config-key", "cli-option"],
)
def test_removed_settings_exit_2(tmp_path, runner, world_dir, command, named):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": 2, "detach_projection": False}), encoding="utf8")
    paths = {"config": config, "world": world_dir, "out": tmp_path / "out"}
    result = runner.invoke(main, [arg.format(**paths) for arg in command])
    assert result.exit_code == 2, result.output
    assert named in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, key", [('{"steps": 2.5}', "steps"), ('{"lambda": NaN}', "lambda")]
)
def test_malformed_config_value_exits_2_naming_the_key(
    tmp_path, runner, world_dir, text, key
):
    config = tmp_path / "bad.json"
    config.write_text(text, encoding="utf8")
    out = tmp_path / "r"
    result = runner.invoke(
        main, ["adapt", "--config", str(config), "--world", str(world_dir), "--out", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert f"error: {config}: {key} must be" in result.output
    assert not out.exists()


def test_eval_finds_a_relative_world_from_another_directory(
    tmp_path, monkeypatch, runner, world_dir
):
    out = tmp_path / "out"
    shutil.copytree(world_dir, out / "w")
    (out / "config.json").write_text(json.dumps({"steps": 2}), encoding="utf8")
    monkeypatch.chdir(out)
    result = runner.invoke(
        main, ["adapt", "--config", "config.json", "--world", "w", "--out", "r"]
    )
    assert result.exit_code == 0, result.output
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(
        main, ["eval", "--run", "out/r", "--out", "report.json", "--n-samples", "16"]
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "report.json").is_file()


def test_misspelled_adaptation_key_exits_2_with_hint(tmp_path, runner, world_dir):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"learing_rate": 0.5, "steps": 2}), encoding="utf8")
    out = tmp_path / "r"
    result = runner.invoke(
        main, ["adapt", "--config", str(config), "--world", str(world_dir), "--out", str(out)]
    )
    assert result.exit_code == 2
    assert "'learing_rate'" in result.output
    assert "did you mean 'learning_rate'?" in result.output
    assert not (out / "run_record.json").exists()


def test_misspelled_world_key_exits_2_with_hint(tmp_path, runner):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"sed": 5}), encoding="utf8")
    result = runner.invoke(
        main, ["gen-world", "--config", str(config), "--out", str(tmp_path / "w")]
    )
    assert result.exit_code == 2
    assert "did you mean 'seed'?" in result.output


def test_empty_world_config_is_the_default_world(tmp_path, runner, world_dir):
    # absent keys take the dataclass defaults, the default seed included
    config = tmp_path / "empty.json"
    config.write_text("{}", encoding="utf8")
    out = tmp_path / "w"
    result = runner.invoke(main, ["gen-world", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "world.json").read_bytes() == (world_dir / "world.json").read_bytes()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gradcheck_passes_at_seeds(runner, seed):
    result = runner.invoke(main, ["gradcheck", "--seed", str(seed)])
    assert result.exit_code == 0, result.output
    assert "[FAIL]" not in result.output


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


def test_exploding_run_checkpoints_last_good_params_and_exits_3(tmp_path, runner, world_dir):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": 20, "learning_rate": 1e200}), encoding="utf8")
    args = ["adapt", "--config", str(config), "--world", str(world_dir), "--out"]
    with np.errstate(over="ignore", invalid="ignore"):
        result = runner.invoke(main, args + [str(tmp_path / "run")])
    assert result.exit_code == 3
    doc = json.loads((tmp_path / "run" / "last_good_params.json").read_text(encoding="utf8"))
    assert doc["step"] >= 1
    # a directory where the checkpoint should go: the write fails, the exit code stays 3
    blocked = tmp_path / "blocked"
    (blocked / "last_good_params.json").mkdir(parents=True)
    with np.errstate(over="ignore", invalid="ignore"):
        result = runner.invoke(main, args + [str(blocked)])
    assert result.exit_code == 3
    assert "warning: last good parameters not written" in result.output
    assert sorted(p.name for p in blocked.iterdir()) == ["last_good_params.json"]


def test_entry_point_is_installed(tmp_path):
    """The ``hda`` script entry point declared in pyproject.toml works.

    The console script is built here from the declaration, the way an
    installer writes it, so the check needs no install. When an ``hda``
    distribution is installed, its entry point and script are checked too.
    """
    result = subprocess.run(
        [sys.executable, "-m", "hda.cli", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "Commands" in result.stdout

    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["hda"] == "hda.cli:main"
    module, func = scripts["hda"].split(":")
    wrapper = tmp_path / "hda"
    wrapper.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n",
        encoding="utf8",
    )
    wrapper.chmod(0o755)
    path = os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")])
    env = dict(os.environ, PATH=path)
    script = subprocess.run(["hda", "--help"], capture_output=True, text=True, env=env)
    assert script.returncode == 0, script.stderr
    assert "Usage: hda" in script.stdout
    assert "Commands" in script.stdout

    installed = entry_points(group="console_scripts", name="hda")
    if installed:
        assert [ep.value for ep in installed] == [scripts["hda"]]
        installed_script = shutil.which("hda")
        assert installed_script is not None
        script = subprocess.run(
            [installed_script, "--help"], capture_output=True, text=True
        )
        assert script.returncode == 0, script.stderr
