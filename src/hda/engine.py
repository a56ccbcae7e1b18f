"""Adaptation loop: Adam on the hybrid objective, with per-step losses and snapshots.

The loop is purely sequential and seeded: configuration plus seed fully
determine every number in the resulting :class:`RunRecord`.  Latent
batches, snapshot evaluations and world construction all draw from
separate labelled streams, so a run with fewer steps sees exactly the
same batches as the prefix of a longer run.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError, DegenerateDomain, NumericalError
from .losses import DomainWeight, ObjectivePlan, loss_total
from .metrics import MetricsReport, SnapshotPlan
from .seeding import derive_seed, stream_rng
from .files import json_doc, read_document, write_json
from .subspace import DomainSubspace, FeatureSet, locked_array, separation_ratio
from .worlds import (
    GeneratorParams,
    World,
    encode,
    flatten_generator,
    generator_views,
    unflatten_generator,
)

# bench/probes.py times these names in this module; nothing here calls them
from .losses import hda_objective  # noqa: F401  (probe site)
from .metrics import evaluate  # noqa: F401  (probe site)

Array = np.ndarray

RUN_RECORD_FILE = "run_record.json"

#: Minimum inter-centroid distance over intra-set spread required before training.
SEPARABILITY_THRESHOLD = 3.0

#: Metric snapshots are taken at step 1, every this many steps, and the last step.
SNAPSHOT_EVERY = 25

#: Latent samples per metric snapshot.
SNAPSHOT_SAMPLES = 128

#: Latent rows one stacked snapshot evaluation holds at most.  A run's
#: snapshots wait, in step order, until ``_SNAPSHOT_ROWS // SNAPSHOT_SAMPLES``
#: of them (at least one) fill a stack, so the working set does not grow
#: with the step count.  On a shared 2-core Xeon the 14 snapshots of a
#: stock run took a median 6.2 ms one by one, 4.7 ms in stacks of 2,
#: 4.1 ms in stacks of 4 and 3.8-4.1 ms in stacks of 8 or 14, and the
#: run's ``tracemalloc`` peak read 0.62, 0.72 and 1.18 MiB at 256, 512
#: and 1,024 rows: 512 rows keep nearly all of the gain at a small peak.
_SNAPSHOT_ROWS = 512

#: Adam's moment decay rates and denominator offset.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

#: The checkpoints of a run.
_CHECKPOINTS = frozenset(("first", "best", "last"))


@dataclass(frozen=True)
class AdaptationConfig:
    """All knobs of one adaptation run."""

    encoder_ids: tuple[str, ...]
    domain_ids: tuple[str, ...]
    weights: tuple[DomainWeight, ...]
    lam: float = field(default=1.0, metadata={"json": "lambda"})
    steps: int = 300
    batch_size: int = 4
    learning_rate: float = 2e-3
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
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise ConfigError(f"lambda must be >= 0 and finite, got {self.lam}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (self.learning_rate > 0.0 and math.isfinite(self.learning_rate)):
            raise ConfigError(f"learning_rate must be > 0 and finite, got {self.learning_rate}")
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


def equal_weights(domain_ids) -> tuple[DomainWeight, ...]:
    """Weight 1/N for each of N domains, none for none.

    One domain then gets the unweighted single-domain objective, and two
    get the stock 0.5/0.5 blend.
    """
    return tuple(DomainWeight(d, 1.0 / len(domain_ids)) for d in domain_ids)


def default_adaptation_config(world: World, **overrides) -> AdaptationConfig:
    """Config over all training encoders and all domains, :func:`equal_weights`."""
    domain_ids = tuple(d.domain_id for d in world.domains)
    base = dict(
        encoder_ids=world.train_encoder_ids,
        domain_ids=domain_ids,
        weights=equal_weights(domain_ids),
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
) -> None:
    """One bias-corrected Adam update of a parameter vector and of ``state``, in place.

    A non-finite gradient raises :class:`NumericalError` naming its
    parameter before anything is written.
    """
    t = state.step + 1
    if grads.shape != params.shape:
        raise ConfigError(f"gradient has shape {grads.shape}, expected {params.shape}")
    if not np.isfinite(grads).all():
        bad = np.flatnonzero(~np.isfinite(grads))
        name = next(name for name, end in state.layout if bad[0] < end)
        raise NumericalError(f"non-finite gradient for {name!r} at optimizer step {t}")
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (grads * grads)
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPS
    m_hat *= config.learning_rate
    m_hat /= v_hat
    params -= m_hat
    state.step = t


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
    if not math.isfinite(norm):
        raise NumericalError(f"gradient norm {norm} cannot be clipped")
    return grads * (max_norm / norm), norm


@dataclass(frozen=True)
class MetricSnapshot:
    step: int
    report: MetricsReport


@dataclass(frozen=True)
class Checkpoint:
    step: int
    params: GeneratorParams


# only bench/workloads.py reads these (via step_losses); ROADMAP item 1 deletes them in its src half
@dataclass(frozen=True)
class EncoderTerms:
    encoder_id: str
    dist_term: float
    direct_term: float


@dataclass(frozen=True)
class LossBreakdown:
    """One step's objective value with its per-encoder decomposition.

    ``total == sum(dist_term + lam * direct_term)`` over the encoders;
    terms an ablation removed from the objective are recorded as 0.
    """

    total: float
    lam: float
    per_encoder: tuple[EncoderTerms, ...]


@dataclass(frozen=True)
class RunRecord:
    """Everything one adaptation run produced, as ``run_record.json`` holds it.

    Row ``i`` of ``dist`` and ``direct`` holds step ``i + 1``'s per-encoder
    batch means of the two losses, one column per ``config.encoder_ids``;
    both are read-only and finite.  ``world_dir`` names the run's world
    directory once the record is saved.
    """

    config: AdaptationConfig
    world_dir: str = field(default="", kw_only=True)
    dist: Array  # (steps, E)
    direct: Array  # (steps, E)
    snapshots: tuple[MetricSnapshot, ...]
    checkpoints: dict[str, Checkpoint]  # "first", "best", "last"

    def __post_init__(self):
        shape = (self.config.steps, len(self.config.encoder_ids))
        for name in ("dist", "direct"):
            object.__setattr__(self, name, locked_array(getattr(self, name), name, shape=shape))
        object.__setattr__(self, "snapshots", tuple(self.snapshots))
        if self.checkpoints.keys() != _CHECKPOINTS:
            got = sorted(self.checkpoints)
            raise ConfigError(
                f"checkpoints must be an object of exactly {sorted(_CHECKPOINTS)}, got {got!r}"
            )

    @property
    def final_params(self) -> GeneratorParams:
        """The parameters of the last step: the ``last`` checkpoint's."""
        return self.checkpoints["last"].params

    @property
    def step_losses(self) -> list[LossBreakdown]:
        """One breakdown per step, built from ``dist`` and ``direct``; index i holds step i + 1."""
        ids, lam = self.config.encoder_ids, self.config.lam
        return [
            LossBreakdown(
                total=loss_total(dist, direct, 1, lam),
                lam=lam,
                per_encoder=tuple(map(EncoderTerms, ids, dists, directs)),
            )
            for dist, direct, dists, directs in zip(
                self.dist, self.direct, self.dist.tolist(), self.direct.tolist()
            )
        ]

    def snapshot_at(self, step: int) -> MetricsReport:
        for snap in self.snapshots:
            if snap.step == step:
                return snap.report
        raise KeyError(f"no snapshot at step {step}")


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


def check_separability(
    world: World,
    encoder_ids: tuple[str, ...],
    domain_ids: tuple[str, ...],
) -> dict[str, float]:
    """Centroid-gap-over-spread ratio per training encoder.

    Every encoder's sets go through one stacked :func:`separation_ratio`,
    which takes their means and spreads as the world's feature grid made
    them.  With a single domain the source cluster, drawn once, stands in
    as each encoder's second set.  Raises :class:`DegenerateDomain` if any
    encoder fails :data:`SEPARABILITY_THRESHOLD`, naming the worst offender.
    """
    encoders = [world.encoder(encoder_id) for encoder_id in encoder_ids]
    rows = [[world.feature_set(enc, d) for d in domain_ids] for enc in encoders]
    if len(domain_ids) < 2:
        source_points = world.source_points(max(world.domain(d).k for d in domain_ids))
        for enc, row in zip(encoders, rows):
            row.append(FeatureSet(encode(enc, source_points), domain_id="source"))
    ratios = dict(zip(encoder_ids, separation_ratio(rows)))
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
    metric snapshots use.  A subspace whose rank equals its embedding
    width is the whole space, whose distances are rounding noise: it is
    a :class:`DegenerateDomain`.
    """
    for encoder_id in config.encoder_ids:
        if encoder_id not in world.train_encoder_ids:
            raise ConfigError(f"encoder {encoder_id!r} is not a training encoder")
    targets = world.held_out_targets(subspaces, config.domain_ids)
    held_out = world.held_out_encoder
    for encoder_id in config.encoder_ids:
        missing = [d for d in config.domain_ids if d not in subspaces.get(encoder_id, {})]
        if missing:
            raise ConfigError(f"missing subspaces for encoder {encoder_id!r}, domains {missing}")
    for encoder_id in (*config.encoder_ids, held_out.encoder_id):
        for domain_id in config.domain_ids:
            sub = subspaces[encoder_id][domain_id]
            if sub.rank == sub.dim:
                raise DegenerateDomain(
                    f"subspace of domain {domain_id!r} under encoder {encoder_id!r} has rank "
                    f"{sub.rank}, the full embedding width: its distances are rounding noise"
                )

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
        *targets,
        SNAPSHOT_SAMPLES,
        derive_seed(config.seed, "snapshot-eval"),
    )

    # the target generator as one vector, which Adam updates in place
    params = flatten_generator(source)
    views = generator_views(params, source)
    state = init_optimizer_state(views)

    # (step, parameter copy) of the snapshots not yet evaluated, in step order
    pending: list[tuple[int, Array]] = []
    snapshots: list[MetricSnapshot] = []
    best: Optional[tuple[int, Array]] = None
    best_consistency = -np.inf

    def evaluate_pending() -> None:
        nonlocal best, best_consistency
        reports = snapshot.evaluate_stack(np.array([copy for _, copy in pending]), source)
        for (step, copy), report in zip(pending, reports):
            snapshots.append(MetricSnapshot(step=step, report=report))
            if step >= 1 and report.consistency > best_consistency:
                best_consistency = report.consistency
                best = (step, copy)
        pending.clear()

    def take_snapshot(step: int) -> None:
        pending.append((step, params.copy()))
        if len(pending) * SNAPSHOT_SAMPLES >= _SNAPSHOT_ROWS:
            evaluate_pending()

    def checkpoint(step: int, flat: Array) -> Checkpoint:
        return Checkpoint(step=step, params=unflatten_generator(flat, source))

    first = checkpoint(0, params)
    take_snapshot(0)

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
                adam_step(params, grads, state, config)
            except NumericalError as exc:
                exc.step = step
                exc.last_good_params = unflatten_generator(params, source)
                raise
            if step == 1 or step % SNAPSHOT_EVERY == 0 or step == config.steps:
                take_snapshot(step)
    if pending:
        evaluate_pending()

    last = checkpoint(config.steps, params)
    checkpoints = {
        "first": first,
        "best": last if best is None else checkpoint(*best),
        "last": last,
    }
    inv_batch = 1.0 / config.batch_size
    return RunRecord(
        config=config,
        dist=dist_sums * inv_batch,
        direct=direct_sums * inv_batch,
        snapshots=snapshots,
        checkpoints=checkpoints,
    )


def save_run(record: RunRecord, out_dir, world_dir: str = "") -> None:
    """Write ``run_record.json`` with ``world_dir``, replaced whole.

    A non-finite value is a :class:`NumericalError` raised before the file is touched.
    """
    path = os.path.join(out_dir, RUN_RECORD_FILE)
    write_json(path, json_doc(replace(record, world_dir=world_dir)))


def load_run(run_dir) -> tuple[RunRecord, str]:
    """Rebuild a :class:`RunRecord` and its world directory from a run directory.

    Every key of ``run_record.json`` is checked by the type of its field,
    and ``dist`` and ``direct`` by the run config's steps and encoders; a
    wrong one is a :class:`ConfigError` naming the file and the key.
    """
    record = read_document(RunRecord, os.path.join(run_dir, RUN_RECORD_FILE), "run record")
    return record, record.world_dir
