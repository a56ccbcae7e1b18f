"""Adaptation loop: Adam on the hybrid objective, with logging and snapshots.

The loop is purely sequential and seeded: configuration plus seed fully
determine every number in the resulting :class:`RunRecord`.  Latent
batches, snapshot evaluations and world construction all draw from
separate labelled streams, so a run with fewer steps sees exactly the
same batches as the prefix of a longer run.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError, DegenerateDomain, NumericalError
from .losses import DomainWeight, LossBreakdown, hda_objective
from .metrics import MetricsReport, evaluate
from .seeding import derive_seed, stream_rng
from .subspace import DomainSubspace, separation_ratio
from .worlds import GeneratorParams, World, json_bool, make_target_generator

Array = np.ndarray

RUN_RECORD_FILE = "run_record.json"
LOG_FILE = "log.jsonl"

#: Minimum inter-centroid distance over intra-set spread required before training.
SEPARABILITY_THRESHOLD = 3.0


@dataclass(frozen=True)
class AdaptationConfig:
    """All knobs of one adaptation run."""

    encoder_ids: tuple[str, ...]
    domain_ids: tuple[str, ...]
    weights: tuple[DomainWeight, ...]
    lam: float = 1.0
    steps: int = 300
    batch_size: int = 4
    learning_rate: float = 2e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip_norm: Optional[float] = 10.0
    seed: int = 0
    dist_only: bool = False
    direct_only: bool = False
    detach_projection: bool = False

    def __post_init__(self):
        object.__setattr__(self, "encoder_ids", tuple(self.encoder_ids))
        object.__setattr__(self, "domain_ids", tuple(self.domain_ids))
        object.__setattr__(self, "weights", tuple(self.weights))
        self.validate()

    def validate(self) -> None:
        if not self.encoder_ids:
            raise ConfigError("encoder_ids is empty")
        if len(set(self.encoder_ids)) != len(self.encoder_ids):
            raise ConfigError(f"duplicate encoder ids: {self.encoder_ids}")
        if not self.domain_ids:
            raise ConfigError("domain_ids is empty")
        if len(set(self.domain_ids)) != len(self.domain_ids):
            raise ConfigError(f"duplicate domain ids: {self.domain_ids}")
        weight_ids = [w.domain_id for w in self.weights]
        if sorted(weight_ids) != sorted(self.domain_ids):
            raise ConfigError(
                f"weights cover domains {sorted(weight_ids)}, expected {sorted(self.domain_ids)}"
            )
        if self.lam < 0.0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0.0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name in ("adam_beta1", "adam_beta2"):
            beta = getattr(self, name)
            if not 0.0 <= beta < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {beta}")
        if not self.adam_eps > 0.0:
            raise ConfigError(f"adam_eps must be > 0, got {self.adam_eps}")
        if self.grad_clip_norm is not None and not self.grad_clip_norm > 0.0:
            raise ConfigError(
                f"grad_clip_norm must be > 0 or None, got {self.grad_clip_norm}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.dist_only and self.direct_only:
            raise ConfigError("dist_only and direct_only are mutually exclusive")

    def ordered_weights(self) -> tuple[DomainWeight, ...]:
        by_id = {w.domain_id: w for w in self.weights}
        return tuple(by_id[d] for d in self.domain_ids)

    def to_json_dict(self) -> dict:
        return {
            "encoder_ids": list(self.encoder_ids),
            "domain_ids": list(self.domain_ids),
            "weights": [w.to_json_dict() for w in self.weights],
            "lambda": self.lam,
            "steps": self.steps,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "adam_beta1": self.adam_beta1,
            "adam_beta2": self.adam_beta2,
            "adam_eps": self.adam_eps,
            "grad_clip_norm": self.grad_clip_norm,
            "seed": self.seed,
            "dist_only": self.dist_only,
            "direct_only": self.direct_only,
            "detach_projection": self.detach_projection,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AdaptationConfig":
        if not isinstance(data, dict):
            raise ConfigError("adaptation config must be a JSON object")
        try:
            return cls(
                encoder_ids=tuple(data["encoder_ids"]),
                domain_ids=tuple(data["domain_ids"]),
                weights=tuple(DomainWeight.from_json_dict(w) for w in data["weights"]),
                lam=float(data.get("lambda", 1.0)),
                steps=int(data.get("steps", 300)),
                batch_size=int(data.get("batch_size", 4)),
                learning_rate=float(data.get("learning_rate", 2e-3)),
                adam_beta1=float(data.get("adam_beta1", 0.9)),
                adam_beta2=float(data.get("adam_beta2", 0.999)),
                adam_eps=float(data.get("adam_eps", 1e-8)),
                grad_clip_norm=(
                    None
                    if data.get("grad_clip_norm", 10.0) is None
                    else float(data.get("grad_clip_norm", 10.0))
                ),
                seed=int(data.get("seed", 0)),
                dist_only=json_bool(data, "dist_only"),
                direct_only=json_bool(data, "direct_only"),
                detach_projection=json_bool(data, "detach_projection"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed adaptation config: {exc}") from exc


def default_adaptation_config(
    world: World, alpha: float | None = None, **overrides
) -> AdaptationConfig:
    """Config over all training encoders and all domains, equal weights.

    With ``alpha=None`` each domain gets weight 1/N, so a one-domain world
    reduces to the unweighted single-domain objective and a two-domain
    world gets the stock 0.5/0.5 blend.
    """
    domain_ids = tuple(d.domain_id for d in world.domains)
    if alpha is None:
        alpha = 1.0 / len(domain_ids)
    base = dict(
        encoder_ids=world.train_encoder_ids,
        domain_ids=domain_ids,
        weights=tuple(DomainWeight(d, alpha) for d in domain_ids),
    )
    base.update(overrides)
    return AdaptationConfig(**base)


@dataclass
class OptimizerState:
    m: dict[str, Array]
    v: dict[str, Array]
    step: int = 0


def init_optimizer_state(params: dict[str, Array]) -> OptimizerState:
    return OptimizerState(
        m={name: np.zeros_like(arr) for name, arr in params.items()},
        v={name: np.zeros_like(arr) for name, arr in params.items()},
        step=0,
    )


def adam_step(
    params: dict[str, Array],
    grads: dict[str, Array],
    state: OptimizerState,
    config: AdaptationConfig,
) -> tuple[dict[str, Array], OptimizerState]:
    """One bias-corrected Adam update; inputs are left untouched."""
    t = state.step + 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    new_params: dict[str, Array] = {}
    new_m: dict[str, Array] = {}
    new_v: dict[str, Array] = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ConfigError(f"gradient for {name!r} has shape {g.shape}, expected {p.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for {name!r} at optimizer step {t}")
        m = b1 * state.m[name] + (1.0 - b1) * g
        v = b2 * state.v[name] + (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        new_params[name] = p - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
        new_m[name] = m
        new_v[name] = v
    return new_params, OptimizerState(m=new_m, v=new_v, step=t)


def clip_gradients(
    grads: dict[str, Array], max_norm: Optional[float]
) -> tuple[dict[str, Array], float]:
    """Joint-norm clipping over all parameter gradients.

    Returns the (possibly rescaled) gradients and the pre-clip global
    norm.  The direction is preserved; only the length changes.  The
    degenerate-start direction loss spikes to roughly 1/eps for one
    step, and an unclipped spike of that size poisons Adam's second
    moment for hundreds of steps afterwards.
    """
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if max_norm is None or norm <= max_norm or norm == 0.0:
        return grads, norm
    scale = max_norm / norm
    return {name: g * scale for name, g in grads.items()}, norm


@dataclass(frozen=True)
class MetricSnapshot:
    step: int
    report: MetricsReport


@dataclass(frozen=True)
class Checkpoint:
    step: int
    params: GeneratorParams


@dataclass
class RunRecord:
    """Everything one adaptation run produced."""

    config: AdaptationConfig
    step_losses: list[LossBreakdown]  # index i holds step i + 1
    snapshots: list[MetricSnapshot]
    final_params: GeneratorParams
    checkpoints: dict[str, Checkpoint]  # "first", "best", "last"

    def snapshot_at(self, step: int) -> MetricsReport:
        for snap in self.snapshots:
            if snap.step == step:
                return snap.report
        raise KeyError(f"no snapshot at step {step}")


def training_batches(config: AdaptationConfig, d_z: int) -> Iterator[Array]:
    """The deterministic latent-batch stream of a run, one batch per step."""
    rng = stream_rng(config.seed, "train-z")
    for _ in range(config.steps):
        yield rng.standard_normal((config.batch_size, d_z))


def check_separability(
    world: World,
    encoder_ids: tuple[str, ...],
    domain_ids: tuple[str, ...],
    threshold: float = SEPARABILITY_THRESHOLD,
) -> dict[str, float]:
    """Centroid-gap-over-spread ratio per training encoder.

    With a single domain the source cluster stands in as the second
    set.  Raises :class:`DegenerateDomain` if any encoder fails the
    threshold, naming the worst offender.
    """
    ratios: dict[str, float] = {}
    for encoder_id in encoder_ids:
        enc = world.encoder(encoder_id)
        sets = [world.feature_set(enc, d) for d in domain_ids]
        if len(sets) < 2:
            k = max(world.domain(d).k for d in domain_ids)
            sets.append(world.source_feature_set(enc, k))
        ratios[encoder_id] = separation_ratio(sets)
    failing = {eid: r for eid, r in ratios.items() if not r > threshold}
    if failing:
        worst = min(failing, key=failing.get)
        raise DegenerateDomain(
            f"domains are not separable under encoder {worst!r}: "
            f"ratio {failing[worst]:.3f} <= {threshold} "
            f"(all ratios: { {k: round(v, 3) for k, v in ratios.items()} })"
        )
    return ratios


def run_adaptation(
    config: AdaptationConfig,
    world: World,
    subspaces: dict[str, dict[str, DomainSubspace]],
    *,
    snapshot_every: int = 25,
    snapshot_samples: int = 128,
    separability_threshold: float = SEPARABILITY_THRESHOLD,
) -> RunRecord:
    """Adapt a copy of the source generator toward the configured domains.

    ``subspaces`` must hold one entry per (encoder, domain) for every
    configured training encoder and for the held-out encoder, which the
    metric snapshots use.
    """
    config.validate()
    for encoder_id in config.encoder_ids:
        if encoder_id not in world.train_encoder_ids:
            raise ConfigError(f"encoder {encoder_id!r} is not a training encoder")
    for domain_id in config.domain_ids:
        world.domain(domain_id)
    held_out = world.held_out_encoder
    if held_out.encoder_id in config.encoder_ids:
        raise ConfigError("the held-out encoder cannot be used for training")
    needed = list(config.encoder_ids) + [held_out.encoder_id]
    for encoder_id in needed:
        per_domain = subspaces.get(encoder_id)
        if per_domain is None:
            raise ConfigError(f"missing subspaces for encoder {encoder_id!r}")
        for domain_id in config.domain_ids:
            if domain_id not in per_domain:
                raise ConfigError(
                    f"missing subspace for encoder {encoder_id!r}, domain {domain_id!r}"
                )

    check_separability(
        world, config.encoder_ids, config.domain_ids, separability_threshold
    )

    source = world.source_generator
    encoders = [world.encoder(eid) for eid in config.encoder_ids]
    weights = config.ordered_weights()
    held_subs = {d: subspaces[held_out.encoder_id][d] for d in config.domain_ids}
    refs = {d: world.references[d] for d in config.domain_ids}
    eval_seed = derive_seed(config.seed, "snapshot-eval")

    params = make_target_generator(source).to_dict()
    state = init_optimizer_state(params)

    snapshots: list[MetricSnapshot] = []
    best: Optional[Checkpoint] = None
    best_consistency = -np.inf

    def take_snapshot(step: int, current: dict[str, Array]) -> None:
        nonlocal best, best_consistency
        gen = GeneratorParams.from_dict(current, trainable=True)
        report = evaluate(
            gen, source, held_out, held_subs, refs, snapshot_samples, eval_seed
        )
        snapshots.append(MetricSnapshot(step=step, report=report))
        if step >= 1 and report.consistency > best_consistency:
            best_consistency = report.consistency
            best = Checkpoint(step=step, params=gen)

    first = Checkpoint(step=0, params=GeneratorParams.from_dict(params, trainable=True))
    take_snapshot(0, params)

    step_losses: list[LossBreakdown] = []
    for step, z_batch in enumerate(training_batches(config, source.d_z), start=1):
        target = GeneratorParams.from_dict(params, trainable=True)
        try:
            breakdown, grads = hda_objective(
                z_batch,
                source,
                target,
                encoders,
                subspaces,
                list(weights),
                config.lam,
                dist_only=config.dist_only,
                direct_only=config.direct_only,
                detach_projection=config.detach_projection,
            )
            if not np.isfinite(breakdown.total):
                raise NumericalError(f"non-finite loss at step {step}")
            grads, _ = clip_gradients(grads, config.grad_clip_norm)
            params, state = adam_step(params, grads, state, config)
        except NumericalError as exc:
            exc.step = step
            exc.last_good_params = target
            raise
        step_losses.append(breakdown)
        if step == 1 or step % snapshot_every == 0 or step == config.steps:
            take_snapshot(step, params)

    final = GeneratorParams.from_dict(params, trainable=True)
    checkpoints = {
        "first": first,
        "best": best if best is not None else Checkpoint(step=config.steps, params=final),
        "last": Checkpoint(step=config.steps, params=final),
    }
    return RunRecord(
        config=config,
        step_losses=step_losses,
        snapshots=snapshots,
        final_params=final,
        checkpoints=checkpoints,
    )


def run_single_domain(
    config: AdaptationConfig,
    world: World,
    subspaces: dict[str, dict[str, DomainSubspace]],
    **kwargs,
) -> RunRecord:
    """Single-domain adaptation; a thin wrapper over :func:`run_adaptation`."""
    if len(config.domain_ids) != 1:
        raise ConfigError(
            f"run_single_domain expects exactly one domain, got {list(config.domain_ids)}"
        )
    return run_adaptation(config, world, subspaces, **kwargs)


def save_run(record: RunRecord, out_dir, world_dir: str = "") -> None:
    """Write ``run_record.json`` plus the per-step ``log.jsonl``."""
    os.makedirs(out_dir, exist_ok=True)
    doc = {
        "config": record.config.to_json_dict(),
        "world_dir": world_dir,
        "snapshots": [
            {"step": snap.step, "report": snap.report.to_json_dict()}
            for snap in record.snapshots
        ],
        "final_params": record.final_params.to_json_dict(),
        "checkpoints": {
            name: {"step": ckpt.step, "params": ckpt.params.to_json_dict()}
            for name, ckpt in record.checkpoints.items()
        },
    }
    with open(os.path.join(out_dir, RUN_RECORD_FILE), "w", encoding="utf8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, LOG_FILE), "w", encoding="utf8") as fh:
        for i, breakdown in enumerate(record.step_losses, start=1):
            line = {"step": i}
            line.update(breakdown.to_json_dict())
            fh.write(json.dumps(line) + "\n")


def load_run(run_dir) -> tuple[RunRecord, str]:
    """Rebuild a :class:`RunRecord` from a run directory."""
    record_path = os.path.join(run_dir, RUN_RECORD_FILE)
    if not os.path.isfile(record_path):
        raise ConfigError(f"{record_path}: run record not found")
    with open(record_path, "r", encoding="utf8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{record_path}: invalid JSON: {exc}") from exc
    try:
        config = AdaptationConfig.from_json_dict(doc["config"])
        snapshots = [
            MetricSnapshot(step=int(s["step"]), report=MetricsReport.from_json_dict(s["report"]))
            for s in doc["snapshots"]
        ]
        final = GeneratorParams.from_json_dict(doc["final_params"])
        checkpoints = {
            name: Checkpoint(
                step=int(c["step"]), params=GeneratorParams.from_json_dict(c["params"])
            )
            for name, c in doc["checkpoints"].items()
        }
        world_dir = str(doc.get("world_dir", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{record_path}: malformed run record: {exc}") from exc
    log_path = os.path.join(run_dir, LOG_FILE)
    step_losses: list[LossBreakdown] = []
    if os.path.isfile(log_path):
        with open(log_path, "r", encoding="utf8") as fh:
            for line in fh:
                if line.strip():
                    step_losses.append(LossBreakdown.from_json_dict(json.loads(line)))
    record = RunRecord(
        config=config,
        step_losses=step_losses,
        snapshots=snapshots,
        final_params=final,
        checkpoints=checkpoints,
    )
    return record, world_dir
