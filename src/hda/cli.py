"""Command-line interface.

Exit codes: 0 on success, 2 for missing or invalid files and
configuration problems (a world that lacks a run's domain or sizes
included), 3 for numerical failures (non-finite values, degenerate
feature sets, failed gradient checks).
"""
from __future__ import annotations

import functools
import os
import sys
from dataclasses import replace

import click

from .ablation import ablation_suite, save_ablation
from .diagnostics import run_suite
from .engine import (
    AdaptationConfig,
    default_adaptation_config,
    equal_weights,
    load_run,
    run_adaptation,
    save_run,
)
from .errors import (
    ConfigError,
    DegenerateDomain,
    DimensionError,
    NumericalError,
)
from .files import json_doc, read_document, read_json, read_object, write_csv, write_json
from .losses import loss_total
from .metrics import EVAL_SAMPLES, EVAL_SEED, evaluate
from .subspace import pca2d_export
from .worlds import (
    World,
    WorldConfig,
    build_world,
    build_world_subspaces,
    default_world_config,
    load_world,
    save_world,
)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except (NumericalError, DegenerateDomain, DimensionError) as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            _write_last_good(exc, kwargs.get("out_dir"))
            sys.exit(3)

    return wrapper


def _write_last_good(exc, out_dir) -> None:
    """Checkpoint the parameters a numerical failure carries; never raises."""
    params = getattr(exc, "last_good_params", None)
    if params is None or not out_dir:
        return
    path = os.path.join(out_dir, "last_good_params.json")
    try:
        write_json(path, {"step": exc.step, "params": json_doc(params)})
    except Exception as write_exc:  # the run has already failed; keep its exit code
        click.echo(f"warning: last good parameters not written: {write_exc}", err=True)
        return
    click.echo(f"last good parameters written to {path}", err=True)


@click.group()
def main():
    """Few-shot hybrid domain adaptation on a synthetic toy world."""


@main.command("gen-world")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="World config JSON; omit for the built-in default world.")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@_guarded
def gen_world(config_path, out_dir, seed):
    """Build the synthetic world and write its reference sets."""
    if config_path is None:
        config = default_world_config()
    else:
        config = read_document(WorldConfig, config_path, "world config")
    if seed is not None:
        config = replace(config, seed=seed)
    world = build_world(config)
    save_world(world, out_dir)
    click.echo(f"world with {len(world.domains)} domain(s) written to {out_dir}")


@main.command("build-subspaces")
@click.option("--world", "world_dir", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_guarded
def build_subspaces(world_dir, out_dir):
    """Write one subspace JSON per (encoder, domain) pair."""
    world = load_world(world_dir)
    subspaces = build_world_subspaces(world)
    count = 0
    for encoder_id, per_domain in subspaces.items():
        for domain_id, sub in per_domain.items():
            path = os.path.join(out_dir, f"subspace_{encoder_id}_{domain_id}.json")
            write_json(path, json_doc(sub))
            count += 1
    click.echo(f"{count} subspace file(s) written to {out_dir}")


def _load_adaptation_config(config_path, world: World) -> AdaptationConfig:
    if config_path is None:
        return default_adaptation_config(world)
    data = read_json(config_path, "adaptation config")
    if not isinstance(data, dict):
        raise ConfigError(f"{config_path}: adaptation config must be a JSON object")
    # a minimal config may omit the id lists and weights: all of the world's
    # encoders and domains, and equal weights over the domains it names
    defaults = default_adaptation_config(world)
    data.setdefault("encoder_ids", list(defaults.encoder_ids))
    domain_ids = data.setdefault("domain_ids", list(defaults.domain_ids))
    if isinstance(domain_ids, list):  # anything else is refused when the config is read
        data.setdefault("weights", [json_doc(w) for w in equal_weights(domain_ids)])
    try:
        return read_object(AdaptationConfig, data, "adaptation config")
    except ConfigError as exc:
        raise ConfigError(f"{config_path}: {exc}") from exc


@main.command("adapt")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Adaptation config JSON; omit for defaults.")
@click.option("--world", "world_dir", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@_guarded
def adapt(config_path, world_dir, out_dir, seed):
    """Adapt a copy of the source generator toward the configured domains."""
    world = load_world(world_dir)
    config = _load_adaptation_config(config_path, world)
    if seed is not None:
        config = replace(config, seed=seed)
    subspaces = build_world_subspaces(world)
    record = run_adaptation(config, world, subspaces)
    # absolute, so `hda eval --run` finds the world from any directory
    save_run(record, out_dir, world_dir=os.path.abspath(world_dir))
    final = loss_total(record.dist[-1], record.direct[-1], config.lam)
    click.echo(
        f"adapted for {config.steps} steps; final loss {final:.6g}; "
        f"run written to {out_dir}"
    )


@main.command("eval")
@click.option("--run", "run_dir", type=click.Path(), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--world", "world_override", type=click.Path(), default=None,
              help="World directory; defaults to the one recorded in the run.")
@click.option("--n-samples", type=int, default=EVAL_SAMPLES, show_default=True)
@click.option("--seed", type=int, default=EVAL_SEED, show_default=True)
@_guarded
def eval_cmd(run_dir, out_path, world_override, n_samples, seed):
    """Evaluate a finished run under the held-out encoder."""
    record, world_dir = load_run(run_dir)
    world_dir = world_override or world_dir
    if not world_dir:
        raise ConfigError("run does not record a world directory; pass --world")
    world = load_world(world_dir)
    source, run = world.source_generator, record.final_params
    if (source.d_z, source.d_x) != (run.d_z, run.d_x):
        raise ConfigError(f"{world_dir}: generator (d_z, d_x) is {(source.d_z, source.d_x)}, "
                          f"the run's is {(run.d_z, run.d_x)}")
    domain_ids = record.config.domain_ids
    try:
        targets = world.held_out_targets(build_world_subspaces(world), domain_ids)
    except ConfigError as exc:
        raise ConfigError(f"{world_dir}: {exc}; the run adapts toward {list(domain_ids)}") from exc
    report = evaluate(run, source, world.held_out_encoder, *targets, n_samples, seed)
    write_json(out_path, report.to_json_dict())
    click.echo(f"report written to {out_path}")


@main.command("ablate")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Base adaptation config JSON; omit for defaults.")
@click.option("--world", "world_dir", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@_guarded
def ablate(config_path, world_dir, out_dir, seed):
    """Run the loss-variant x encoder-ensemble ablation grid."""
    world = load_world(world_dir)
    config = _load_adaptation_config(config_path, world)
    if seed is not None:
        config = replace(config, seed=seed)
    rows = ablation_suite(config, world)
    save_ablation(rows, out_dir)
    click.echo(f"{len(rows)} ablation rows written to {out_dir}")


@main.command("gradcheck")
@click.option("--full", is_flag=True, help="100 instances per primitive.")
@click.option("--seed", type=int, default=0, show_default=True)
@_guarded
def gradcheck(full, seed):
    """Check the tape primitives' and the objective's gradients against central differences."""
    reports = run_suite(full=full, seed=seed)
    failed = 0
    for report in reports:
        click.echo(report.summary())
        if not report.passed:
            failed += 1
    if failed:
        raise NumericalError(f"{failed} gradient check(s) failed")
    click.echo(f"all {len(reports)} gradient checks passed")


@main.command("export-viz")
@click.option("--world", "world_dir", type=click.Path(), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--encoder", "encoder_id", default=None,
              help="Encoder id; defaults to the held-out encoder.")
@_guarded
def export_viz(world_dir, out_path, encoder_id):
    """Project every domain's reference features to 2D coordinates."""
    world = load_world(world_dir)
    enc = world.encoder(encoder_id) if encoder_id else world.held_out_encoder
    sets = [world.feature_set(enc, d.domain_id) for d in world.domains]
    rows = pca2d_export(sets)
    write_csv(out_path, ("domain_id", "x", "y"), rows)
    click.echo(f"{len(rows)} coordinates written to {out_path}")


if __name__ == "__main__":
    main()
