"""Adaptation loop: Adam on the hybrid objective, with logging and snapshots.

The loop is purely sequential and seeded: configuration plus seed fully
determine every number in the resulting :class:`RunRecord`.  Latent
batches, snapshot evaluations and world construction all draw from
separate labelled streams, so a run with fewer steps sees exactly the
same batches as the prefix of a longer run.
"""
from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError, DegenerateDomain, NumericalError
from .losses import DomainWeight, LossBreakdown, ObjectivePlan, loss_breakdowns, loss_total
from .metrics import MetricsReport, SnapshotPlan
from .seeding import derive_seed, stream_rng
from .subspace import DomainSubspace, finite_json, separation_ratio, write_atomic, write_json
from .worlds import (
    GeneratorParams,
    World,
    flatten_generator,
    generator_views,
    json_doc,
    read_document,
    read_object,
    unflatten_generator,
)

# bench/probes.py times these names in this module; nothing here calls them
from .losses import hda_objective  # noqa: F401  (probe site)
from .metrics import evaluate  # noqa: F401  (probe site)

Array = np.ndarray

RUN_RECORD_FILE = "run_record.json"
LOG_FILE = "log.jsonl"

#: Minimum inter-centroid distance over intra-set spread required before training.
SEPARABILITY_THRESHOLD = 3.0

#: Metric snapshots are taken at step 1, every this many steps, and the last step.
SNAPSHOT_EVERY = 25

#: Latent samples per metric snapshot.
SNAPSHOT_SAMPLES = 128

#: ``AdaptationConfig`` field names whose JSON key differs.
_JSON_RENAMES = {"lam": "lambda"}


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

    def __post_init__(self):
        object.__setattr__(self, "encoder_ids", tuple(self.encoder_ids))
        object.__setattr__(self, "domain_ids", tuple(self.domain_ids))
        object.__setattr__(self, "weights", tuple(self.weights))
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
        return json_doc(self, _JSON_RENAMES)

    @classmethod
    def from_json_dict(cls, data: dict) -> "AdaptationConfig":
        return read_object(cls, data, "adaptation config", _JSON_RENAMES)


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
    """Adam's moments, vectors laid out as the parameter vector.

    ``layout`` names the parameters in that vector, each with the offset where it ends.
    """

    m: Array
    v: Array
    layout: tuple[tuple[str, int], ...]
    step: int = 0


def init_optimizer_state(params: dict[str, Array]) -> OptimizerState:
    """Zero moments for the vector whose consecutive named views are ``params``."""
    ends = list(itertools.accumulate(arr.size for arr in params.values()))
    size = ends[-1] if ends else 0
    return OptimizerState(m=np.zeros(size), v=np.zeros(size), layout=tuple(zip(params, ends)))


def adam_step(
    params: Array, grads: Array, state: OptimizerState, config: AdaptationConfig
) -> tuple[Array, OptimizerState]:
    """One bias-corrected Adam update of a parameter vector; inputs are left untouched."""
    t = state.step + 1
    if grads.shape != params.shape:
        raise ConfigError(f"gradient has shape {grads.shape}, expected {params.shape}")
    bad = np.flatnonzero(~np.isfinite(grads))
    if bad.size:
        name = next(name for name, end in state.layout if bad[0] < end)
        raise NumericalError(f"non-finite gradient for {name!r} at optimizer step {t}")
    b1, b2 = config.adam_beta1, config.adam_beta2
    m = b1 * state.m + (1.0 - b1) * grads
    v = b2 * state.v + (1.0 - b2) * (grads * grads)
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    new_params = params - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    return new_params, OptimizerState(m=m, v=v, layout=state.layout, step=t)


def clip_gradients(grads: Array, max_norm: Optional[float]) -> tuple[Array, float]:
    """Norm clipping of the gradient vector.

    Returns the (possibly rescaled) gradient and its pre-clip norm.  The
    direction is preserved; only the length changes.  The
    degenerate-start direction loss spikes to roughly 1/eps for one
    step, and an unclipped spike of that size poisons Adam's second
    moment for hundreds of steps afterwards.
    """
    norm = float(np.sqrt(grads @ grads))
    if max_norm is None or norm <= max_norm or norm == 0.0:
        return grads, norm
    return grads * (max_norm / norm), norm


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


@dataclass(frozen=True)
class _RunFile:
    """What ``run_record.json`` holds: a :class:`RunRecord` less its losses, plus the world."""

    config: AdaptationConfig
    world_dir: str
    snapshots: tuple[MetricSnapshot, ...]
    final_params: GeneratorParams
    checkpoints: dict[str, Checkpoint]


def training_chunks(config: AdaptationConfig, d_z: int) -> Iterator[Array]:
    """The deterministic latent stream of a run, ``(S, B, d_z)`` per chunk of ``S`` steps.

    A chunk spans at most a snapshot interval and holds at most as many
    latent rows as a snapshot evaluates, but at least one step; the last
    chunk holds the steps left.  One draw of ``S`` batches equals ``S``
    draws of one batch, so a run with fewer steps sees exactly the
    batches of a longer run's prefix.
    """
    rng = stream_rng(config.seed, "train-z")
    size = max(1, min(SNAPSHOT_EVERY, SNAPSHOT_SAMPLES // config.batch_size))
    for start in range(0, config.steps, size):
        yield rng.standard_normal((min(size, config.steps - start), config.batch_size, d_z))


def training_batches(config: AdaptationConfig, d_z: int) -> Iterator[Array]:
    """The deterministic latent-batch stream of a run, one batch per step."""
    for chunk in training_chunks(config, d_z):
        yield from chunk


def check_separability(
    world: World,
    encoder_ids: tuple[str, ...],
    domain_ids: tuple[str, ...],
) -> dict[str, float]:
    """Centroid-gap-over-spread ratio per training encoder.

    With a single domain the source cluster stands in as the second
    set.  Raises :class:`DegenerateDomain` if any encoder fails
    :data:`SEPARABILITY_THRESHOLD`, naming the worst offender.
    """
    ratios: dict[str, float] = {}
    for encoder_id in encoder_ids:
        enc = world.encoder(encoder_id)
        sets = [world.feature_set(enc, d) for d in domain_ids]
        if len(sets) < 2:
            k = max(world.domain(d).k for d in domain_ids)
            sets.append(world.source_feature_set(enc, k))
        ratios[encoder_id] = separation_ratio(sets)
    failing = {eid: r for eid, r in ratios.items() if not r > SEPARABILITY_THRESHOLD}
    if failing:
        worst = min(failing, key=failing.get)
        raise DegenerateDomain(
            f"domains are not separable under encoder {worst!r}: "
            f"ratio {failing[worst]:.3f} <= {SEPARABILITY_THRESHOLD} "
            f"(all ratios: { {k: round(v, 3) for k, v in ratios.items()} })"
        )
    return ratios


def run_adaptation(
    config: AdaptationConfig,
    world: World,
    subspaces: dict[str, dict[str, DomainSubspace]],
) -> RunRecord:
    """Adapt a copy of the source generator toward the configured domains.

    ``subspaces`` must hold one entry per (encoder, domain) for every
    configured training encoder and for the held-out encoder, which the
    metric snapshots use.
    """
    for encoder_id in config.encoder_ids:
        if encoder_id not in world.train_encoder_ids:
            raise ConfigError(f"encoder {encoder_id!r} is not a training encoder")
    for domain_id in config.domain_ids:
        world.domain(domain_id)
    held_out = world.held_out_encoder
    if held_out.encoder_id in config.encoder_ids:
        raise ConfigError("the held-out encoder cannot be used for training")
    for encoder_id in (*config.encoder_ids, held_out.encoder_id):
        missing = [d for d in config.domain_ids if d not in subspaces.get(encoder_id, {})]
        if missing:
            raise ConfigError(f"missing subspaces for encoder {encoder_id!r}, domains {missing}")

    check_separability(world, config.encoder_ids, config.domain_ids)

    source = world.source_generator
    objective = ObjectivePlan(
        source,
        [world.encoder(eid) for eid in config.encoder_ids],
        subspaces,
        list(config.ordered_weights()),
        config.lam,
        dist_only=config.dist_only,
        direct_only=config.direct_only,
    )
    snapshot = SnapshotPlan(
        source,
        held_out,
        {d: subspaces[held_out.encoder_id][d] for d in config.domain_ids},
        {d: world.references[d] for d in config.domain_ids},
        SNAPSHOT_SAMPLES,
        derive_seed(config.seed, "snapshot-eval"),
    )

    # the target generator as one vector; the Adam update is copied into it in place
    params = flatten_generator(source)
    views = generator_views(params, source)
    state = init_optimizer_state(views)

    snapshots: list[MetricSnapshot] = []
    best: Optional[Checkpoint] = None
    best_consistency = -np.inf

    def take_snapshot(step: int) -> GeneratorParams:
        nonlocal best, best_consistency
        gen = unflatten_generator(params, source)
        report = snapshot(gen)
        snapshots.append(MetricSnapshot(step=step, report=report))
        if step >= 1 and report.consistency > best_consistency:
            best_consistency = report.consistency
            best = Checkpoint(step=step, params=gen)
        return gen

    first = Checkpoint(step=0, params=take_snapshot(0))

    # per-encoder batch sums of each step's distance and direction losses
    dist_sums = np.zeros((config.steps, len(objective.encoder_ids)))
    direct_sums = np.zeros_like(dist_sums)
    step = 0
    for z_chunk in training_chunks(config, source.d_z):
        # the source side depends on no trained parameter: one call per chunk
        f_chunk = (
            [None] * len(z_chunk) if config.dist_only else objective.source_embeddings(z_chunk)
        )
        for z_batch, f_s in zip(z_chunk, f_chunk):
            step += 1
            dist, direct = dist_sums[step - 1], direct_sums[step - 1]  # this step's rows
            try:
                dist[:], direct[:], grads = objective(z_batch, views, f_s)
                total = loss_total(dist, direct, config.batch_size, objective.lam)
                if not np.isfinite(total):
                    raise NumericalError(f"non-finite loss at step {step}")
                grads, _ = clip_gradients(grads, config.grad_clip_norm)
                params[:], state = adam_step(params, grads, state, config)
            except NumericalError as exc:
                exc.step = step
                exc.last_good_params = unflatten_generator(params, source)
                raise
            if step == 1 or step % SNAPSHOT_EVERY == 0 or step == config.steps:
                final = take_snapshot(step)
    step_losses = loss_breakdowns(
        objective.encoder_ids, dist_sums, direct_sums, config.batch_size, objective.lam
    )

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
) -> RunRecord:
    """Single-domain adaptation; a thin wrapper over :func:`run_adaptation`."""
    if len(config.domain_ids) != 1:
        raise ConfigError(
            f"run_single_domain expects exactly one domain, got {list(config.domain_ids)}"
        )
    return run_adaptation(config, world, subspaces)


def save_run(record: RunRecord, out_dir, world_dir: str = "") -> None:
    """Write ``run_record.json`` plus the per-step ``log.jsonl``, each replaced whole.

    A non-finite value is a :class:`NumericalError` raised before either file is touched.
    """
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, LOG_FILE)
    log_text = "".join(
        finite_json(log_path, {"step": i, **breakdown.to_json_dict()}) + "\n"
        for i, breakdown in enumerate(record.step_losses, start=1)
    )
    doc = _RunFile(
        config=record.config,
        world_dir=world_dir,
        snapshots=tuple(record.snapshots),
        final_params=record.final_params,
        checkpoints=record.checkpoints,
    )
    # the log text is checked above; write_json checks the record before writing it
    write_json(os.path.join(out_dir, RUN_RECORD_FILE), json_doc(doc))
    write_atomic(log_path, log_text)


def load_run(run_dir) -> tuple[RunRecord, str]:
    """Rebuild a :class:`RunRecord` and its world directory from a run directory.

    Every key of ``run_record.json`` is checked by the type of its field;
    a wrong one is a :class:`ConfigError` naming the file and the key.
    """
    doc = read_document(_RunFile, os.path.join(run_dir, RUN_RECORD_FILE), "run record")
    log_path = os.path.join(run_dir, LOG_FILE)
    step_losses: list[LossBreakdown] = []
    if os.path.isfile(log_path):
        with open(log_path, "r", encoding="utf8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    try:
                        step_losses.append(LossBreakdown.from_json_dict(json.loads(line)))
                    except (ValueError, ConfigError) as exc:
                        raise ConfigError(f"{log_path}: line {lineno}: {exc}") from exc
    record = RunRecord(
        config=doc.config,
        step_losses=step_losses,
        snapshots=list(doc.snapshots),
        final_params=doc.final_params,
        checkpoints=doc.checkpoints,
    )
    return record, doc.world_dir
