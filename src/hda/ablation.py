"""Ablation grid: loss variants crossed with encoder-ensemble size.

Each cell adapts a fresh generator on the same seed and reports the
held-out metrics of its final parameters, which makes the collapse of
the distance-only variant directly visible next to the full loss.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .engine import AdaptationConfig, run_adaptation
from .errors import ConfigError
from .metrics import EVAL_SAMPLES, EVAL_SEED, MetricsReport, SnapshotPlan, round12
from .subspace import write_atomic, write_json
from .worlds import World, build_world_subspaces

VARIANTS = ("full", "dist_only", "direct_only")
ENCODER_MODES = ("single", "ensemble")

ABLATION_JSON = "ablation.json"
ABLATION_CSV = "ablation.csv"


@dataclass(frozen=True)
class AblationRow:
    variant: str
    encoder_mode: str
    encoder_ids: tuple[str, ...]
    final_total: float
    report: MetricsReport


def _variant_flags(variant: str) -> dict:
    if variant not in VARIANTS:
        raise ConfigError(f"unknown ablation variant {variant!r}")
    return {"dist_only": variant == "dist_only", "direct_only": variant == "direct_only"}


def ablation_suite(
    base_config: AdaptationConfig,
    world: World,
    *,
    n_samples: int = EVAL_SAMPLES,
    eval_seed: int = EVAL_SEED,
) -> list[AblationRow]:
    """Run {full, dist_only, direct_only} x {single encoder, ensemble}.

    Every run shares ``base_config.seed``, so rows differ only in the
    ablated ingredient.
    """
    subspaces = build_world_subspaces(world)
    held_out = world.held_out_encoder
    snapshot = SnapshotPlan(
        world.source_generator,
        held_out,
        {d: subspaces[held_out.encoder_id][d] for d in base_config.domain_ids},
        {d: world.references[d] for d in base_config.domain_ids},
        n_samples,
        eval_seed,
    )
    rows: list[AblationRow] = []
    for mode in ENCODER_MODES:
        encoder_ids = (
            base_config.encoder_ids[:1] if mode == "single" else base_config.encoder_ids
        )
        for variant in VARIANTS:
            config = replace(
                base_config, encoder_ids=encoder_ids, **_variant_flags(variant)
            )
            record = run_adaptation(config, world, subspaces)
            rows.append(
                AblationRow(
                    variant=variant,
                    encoder_mode=mode,
                    encoder_ids=tuple(encoder_ids),
                    final_total=record.step_losses[-1].total,
                    report=snapshot(record.final_params),
                )
            )
    return rows


def rows_to_json_dict(rows: list[AblationRow]) -> list[dict]:
    return [
        {
            "variant": row.variant,
            "encoder_mode": row.encoder_mode,
            "encoder_ids": list(row.encoder_ids),
            "final_total": round12(row.final_total),
            "report": row.report.to_json_dict(),
        }
        for row in rows
    ]


def save_ablation(rows: list[AblationRow], out_dir) -> None:
    """Write ``ablation.json`` and ``ablation.csv``, each replaced whole.

    A non-finite value is a :class:`NumericalError` raised before either file is touched.
    """
    os.makedirs(out_dir, exist_ok=True)
    domains = list(rows[0].report.semantic_similarity) if rows else []
    header = ["variant", "encoder_mode", "encoder_ids", "final_total", "consistency", "diversity"]
    header += [f"semantic_similarity_{d}" for d in domains]
    lines = [",".join(header)]
    for row in rows:
        cells = [
            row.variant,
            row.encoder_mode,
            "|".join(row.encoder_ids),
            repr(round12(row.final_total)),
            repr(round12(row.report.consistency)),
            repr(round12(row.report.diversity)),
        ]
        cells += [repr(round12(row.report.semantic_similarity[d])) for d in domains]
        lines.append(",".join(cells))
    # the CSV holds the JSON's numbers, so the JSON's finiteness check, made first, covers it
    write_json(os.path.join(out_dir, ABLATION_JSON), rows_to_json_dict(rows))
    write_atomic(os.path.join(out_dir, ABLATION_CSV), "\n".join(lines) + "\n")
