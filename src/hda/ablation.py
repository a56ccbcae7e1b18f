"""Ablation grid: loss variants crossed with encoder-ensemble size.

Each cell adapts a fresh generator on the same seed and reports the
held-out metrics of its final parameters, which makes the collapse of
the distance-only variant directly visible next to the full loss.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .engine import AdaptationConfig, run_adaptation
from .files import json_doc, write_csv, write_json
from .losses import loss_total
from .metrics import EVAL_SAMPLES, EVAL_SEED, MetricsReport, SnapshotPlan, round12
from .worlds import World, build_world_subspaces

VARIANTS = ("full", "dist_only", "direct_only")
ENCODER_MODES = ("single", "ensemble")

ABLATION_JSON = "ablation.json"
ABLATION_CSV = "ablation.csv"


@dataclass(frozen=True)
class AblationRow:
    """One cell of the grid, as a row of ``ablation.json`` holds it.

    ``final_total`` is the last step's loss total rounded by :func:`round12`.
    """

    variant: str
    encoder_mode: str
    encoder_ids: tuple[str, ...]
    final_total: float
    report: MetricsReport


def ablation_suite(base_config: AdaptationConfig, world: World) -> list[AblationRow]:
    """Run {full, dist_only, direct_only} x {single encoder, ensemble}.

    Every run shares ``base_config.seed``, so rows differ only in the
    ablated ingredient; each row's report evaluates :data:`EVAL_SAMPLES`
    latents drawn from :data:`EVAL_SEED`.
    """
    subspaces = build_world_subspaces(world)
    snapshot = SnapshotPlan(
        world.source_generator,
        world.held_out_encoder,
        *world.held_out_targets(subspaces, base_config.domain_ids),
        EVAL_SAMPLES,
        EVAL_SEED,
    )
    rows: list[AblationRow] = []
    for mode in ENCODER_MODES:
        encoder_ids = (
            base_config.encoder_ids[:1] if mode == "single" else base_config.encoder_ids
        )
        for variant in VARIANTS:
            config = replace(
                base_config,
                encoder_ids=encoder_ids,
                dist_only=variant == "dist_only",
                direct_only=variant == "direct_only",
            )
            record = run_adaptation(config, world, subspaces)
            rows.append(
                AblationRow(
                    variant=variant,
                    encoder_mode=mode,
                    encoder_ids=tuple(encoder_ids),
                    final_total=round12(
                        loss_total(record.dist[-1], record.direct[-1], config.lam)
                    ),
                    report=snapshot(record.final_params),
                )
            )
    return rows


def save_ablation(rows: list[AblationRow], out_dir) -> None:
    """Write ``ablation.json`` and ``ablation.csv``, each replaced whole.

    A non-finite value is a :class:`NumericalError` raised before either file is touched.
    """
    domains = list(rows[0].report.semantic_similarity) if rows else []
    header = ["variant", "encoder_mode", "encoder_ids", "final_total", "consistency", "diversity"]
    header += [f"semantic_similarity_{d}" for d in domains]
    cells = [
        [row.variant, row.encoder_mode, "|".join(row.encoder_ids)]
        + [round12(x) for x in (row.final_total, row.report.consistency, row.report.diversity)]
        + [round12(row.report.semantic_similarity[d]) for d in domains]
        for row in rows
    ]
    # the JSON, written first, holds every number of the CSV
    write_json(os.path.join(out_dir, ABLATION_JSON), [json_doc(row) for row in rows])
    write_csv(os.path.join(out_dir, ABLATION_CSV), header, cells)
