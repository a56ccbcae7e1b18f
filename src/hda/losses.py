"""Directional subspace losses, single-domain and hybrid.

For a target embedding ``f_t`` and a domain subspace with projection
``f*``:

* distance loss: ``|f* - f_t|^2``;
* direction loss: ``1 - cos(f_t - f_s, f* - f_t)``, with both norms
  smoothed as ``sqrt(|v|^2 + eps^2)`` so the loss stays finite when a
  displacement vanishes.

The hybrid forms weight several domains: distance terms add with
weights ``alpha_i``; the direction loss compares the source-to-target
displacement against the weighted sum of per-domain perpendiculars.
The full objective sums ``dist + lambda * direct`` over the encoder
ensemble and averages over a latent batch.  Gradients flow through the
projection unless ``detach_projection`` is set.

Every loss here is one tape expression whatever the number of domains
and encoders: the ``D`` domain subspaces (zero-padded to one rank) and
the ``E`` encoders are leading axes of ``(D, E, B, d)`` perpendiculars,
and the alpha-weighted sums reduce the domain axis.  The single-encoder
losses are the same expression without the ensemble axis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var
from .errors import ConfigError, DimensionError
from .subspace import DomainSubspace, project  # noqa: F401  (bench/probes.py times it here)
from .worlds import (
    EncoderSpec,
    GeneratorParams,
    encode,
    encode_var,
    generator_forward_var,
    generator_param_vars,
)

Array = np.ndarray

#: Smoothing constant for the direction-loss norms.
NORM_EPS = 1e-8


@dataclass(frozen=True)
class DomainWeight:
    domain_id: str
    alpha: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ConfigError(f"weight for {self.domain_id!r} must be positive")

    def to_json_dict(self) -> dict:
        return {"domain_id": self.domain_id, "alpha": self.alpha}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DomainWeight":
        try:
            return cls(domain_id=data["domain_id"], alpha=float(data["alpha"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed weight entry: {exc}") from exc


@dataclass(frozen=True)
class EncoderTerms:
    encoder_id: str
    dist_term: float
    direct_term: float


@dataclass(frozen=True)
class LossBreakdown:
    """Objective value with its per-encoder decomposition.

    ``total == sum(dist_term + lam * direct_term)`` over the encoders;
    terms an ablation removed from the objective are recorded as 0.
    """

    total: float
    per_encoder: tuple[EncoderTerms, ...]
    lam: float

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "lambda": self.lam,
            "per_encoder": [
                {"encoder_id": t.encoder_id, "dist": t.dist_term, "direct": t.direct_term}
                for t in self.per_encoder
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LossBreakdown":
        try:
            return cls(
                total=float(data["total"]),
                per_encoder=tuple(
                    EncoderTerms(t["encoder_id"], float(t["dist"]), float(t["direct"]))
                    for t in data["per_encoder"]
                ),
                lam=float(data["lambda"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed loss record: {exc}") from exc


def _perpendiculars(f_t: Var, subspaces, lead: tuple[int, ...], detach: bool) -> Var:
    """``f* - f_t`` for every subspace, as one expression.

    ``subspaces`` lists a grid of shape ``lead`` in row-major order, and
    ``lead`` leads the result: ``(D,)`` subspaces against ``(B, d)`` rows
    give ``(D, B, d)``, and a ``(D, E)`` grid against ``(E, B, d)``
    ensemble rows gives ``(D, E, B, d)``.  The projection keeps
    :func:`subspace.project`'s order, ``((f - mu) U) Uᵀ + mu``.
    """
    tape = f_t.tape
    d = f_t.shape[-1]
    if any(s.dim != d for s in subspaces):
        raise DimensionError(
            f"embedding has shape {f_t.shape}, subspaces live in {[s.dim for s in subspaces]}"
        )
    means = np.array([s.mean for s in subspaces]).reshape(lead + (1, d))
    # lower ranks are padded with zero columns, which changes no projection
    bases = np.zeros((len(subspaces), d, max(s.rank for s in subspaces)))
    for padded, s in zip(bases, subspaces):
        padded[:, : s.rank] = s.basis
    bases = bases.reshape(lead + bases.shape[1:])
    # a detached projection is the same expression on a constant copy
    source = tape.constant(f_t.value) if detach else f_t
    mean = tape.constant(means)
    centered = ad.sub(source, mean)
    coords = ad.linear(centered, tape.constant(np.swapaxes(bases, -1, -2)))
    lifted = ad.linear(coords, tape.constant(bases))
    return ad.sub(ad.add(lifted, mean), f_t)


def _domain_weights(weights, ndim: int) -> Array:
    """The alphas shaped to scale the leading domain axis of an ``ndim`` array."""
    return np.array([w.alpha for w in weights]).reshape((-1,) + (1,) * (ndim - 1))


def _one_minus_cosine(u: Var, v: Var, eps: float) -> Var:
    tape = u.tape
    cos = ad.div(ad.dot(u, v), ad.mul(ad.norm_eps(u, eps), ad.norm_eps(v, eps)))
    return ad.sub(tape.constant(np.ones(cos.shape)), cos)


def _hybrid_dist(perps: Var, weights) -> Var:
    """Alpha-weighted squared distances, summed over the domain axis."""
    sq = ad.sq_norm(perps)
    return ad.vsum(ad.mul(sq, perps.tape.constant(_domain_weights(weights, sq.value.ndim))), 0)


def _hybrid_direct(f_s: Var, f_t: Var, perps: Var, weights, eps: float) -> Var:
    """Direction loss against the alpha-weighted sum of the perpendiculars."""
    alpha = perps.tape.constant(_domain_weights(weights, perps.value.ndim))
    return _one_minus_cosine(ad.sub(f_t, f_s), ad.vsum(ad.mul(perps, alpha), 0), eps)


def _per_row(loss: Var, f_t: Var) -> Var:
    """``loss`` shaped like the rows of ``f_t``: a scalar for one vector."""
    rows = f_t.shape[:-1]
    return loss if loss.shape == rows else ad.reshape(loss, rows)


def dist_loss(
    f_t: Var, subspace: DomainSubspace, *, detach_projection: bool = False
) -> Var:
    """Squared distance from ``f_t`` to its projection onto the subspace.

    ``f_t`` is one embedding ``(d,)`` (scalar loss) or a batch ``(B, d)``
    (one loss per row); the same holds for every loss below.
    """
    return hybrid_dist_loss(
        f_t, [subspace], [DomainWeight("domain", 1.0)], detach_projection=detach_projection
    )


def direct_loss(
    f_s: Var,
    f_t: Var,
    subspace: DomainSubspace,
    *,
    eps: float = NORM_EPS,
    detach_projection: bool = False,
) -> Var:
    """One minus the cosine between ``f_t - f_s`` and ``f* - f_t``."""
    return hybrid_direct_loss(
        f_s, f_t, [subspace], [DomainWeight("domain", 1.0)],
        eps=eps, detach_projection=detach_projection,
    )


def _check_hybrid_args(subspaces, weights) -> None:
    if not weights:
        raise ConfigError("hybrid losses need at least one domain weight")
    if len(subspaces) != len(weights):
        raise ConfigError(
            f"{len(subspaces)} subspaces paired with {len(weights)} weights"
        )


def hybrid_dist_loss(
    f_t: Var,
    subspaces: list[DomainSubspace],
    weights: list[DomainWeight],
    *,
    detach_projection: bool = False,
) -> Var:
    """Weighted sum of per-domain distance losses."""
    _check_hybrid_args(subspaces, weights)
    perps = _perpendiculars(f_t, subspaces, (len(subspaces),), detach_projection)
    return _per_row(_hybrid_dist(perps, weights), f_t)


def hybrid_direct_loss(
    f_s: Var,
    f_t: Var,
    subspaces: list[DomainSubspace],
    weights: list[DomainWeight],
    *,
    eps: float = NORM_EPS,
    detach_projection: bool = False,
) -> Var:
    """Direction loss against the weighted sum of per-domain perpendiculars."""
    _check_hybrid_args(subspaces, weights)
    perps = _perpendiculars(f_t, subspaces, (len(subspaces),), detach_projection)
    return _per_row(_hybrid_direct(f_s, f_t, perps, weights, eps), f_t)


def hda_objective(
    z_batch,
    source_gen: GeneratorParams,
    target_gen: GeneratorParams,
    encoders: list[EncoderSpec],
    subspaces_per_encoder: dict[str, dict[str, DomainSubspace]],
    weights: list[DomainWeight],
    lam: float,
    *,
    dist_only: bool = False,
    direct_only: bool = False,
    detach_projection: bool = False,
) -> tuple[LossBreakdown, dict[str, Array]]:
    """Full objective over a latent batch, with target-generator gradients.

    Returns the batch-mean loss breakdown and the gradient of the total
    with respect to each target generator parameter array.  Source
    generator and encoders enter as constants: their weights receive no
    gradient and are never modified.
    """
    z_batch = np.asarray(z_batch, dtype=np.float64)
    if z_batch.ndim != 2:
        raise DimensionError(f"latent batch must be (n, d_z), got shape {z_batch.shape}")
    if z_batch.shape[0] < 1:
        raise ConfigError("latent batch is empty")
    if z_batch.shape[1] != target_gen.d_z:
        raise DimensionError(
            f"latents have dimension {z_batch.shape[1]}, generator wants {target_gen.d_z}"
        )
    if not encoders:
        raise ConfigError("need at least one encoder")
    if lam < 0.0:
        raise ConfigError(f"lambda must be >= 0, got {lam}")
    if dist_only and direct_only:
        raise ConfigError("dist_only and direct_only are mutually exclusive")
    _check_hybrid_args([None] * len(weights), weights)
    for enc in encoders:
        per_domain = subspaces_per_encoder.get(enc.encoder_id)
        if per_domain is None:
            raise ConfigError(f"no subspaces supplied for encoder {enc.encoder_id!r}")
        for w in weights:
            sub_i = per_domain.get(w.domain_id)
            if sub_i is None:
                raise ConfigError(
                    f"encoder {enc.encoder_id!r} has no subspace for domain {w.domain_id!r}"
                )
            if sub_i.dim != enc.d_e:
                raise DimensionError(
                    f"subspace for ({enc.encoder_id!r}, {w.domain_id!r}) lives in "
                    f"dimension {sub_i.dim}, encoder outputs {enc.d_e}"
                )

    inv_batch = 1.0 / z_batch.shape[0]
    tape = Tape()
    param_vars = generator_param_vars(tape, target_gen)
    x_target = generator_forward_var(tape, param_vars, z_batch)
    f_t = encode_var(tape, encoders, x_target)  # (E, B, d_e)
    grid = [subspaces_per_encoder[e.encoder_id][w.domain_id] for w in weights for e in encoders]
    perps = _perpendiculars(f_t, grid, (len(weights), len(encoders)), detach_projection)
    dist = direct = rows = None  # (E, B): per encoder and latent
    if not direct_only:
        dist = rows = _hybrid_dist(perps, weights)
    if not dist_only:
        x_source = source_gen.forward(z_batch)
        f_s = tape.constant(np.array([encode(enc, x_source) for enc in encoders]))
        direct = _hybrid_direct(f_s, f_t, perps, weights, NORM_EPS)
        weighted = ad.smul(lam, direct)
        rows = weighted if rows is None else ad.add(rows, weighted)
    tape.backward(ad.vsum(rows), seed=inv_batch)
    grads = {name: np.array(var.grad) for name, var in param_vars.items()}

    per_encoder = []
    total = 0.0
    for e, enc in enumerate(encoders):
        dist_term = 0.0 if dist is None else float(dist.value[e].sum()) * inv_batch
        direct_term = 0.0 if direct is None else float(direct.value[e].sum()) * inv_batch
        per_encoder.append(EncoderTerms(enc.encoder_id, dist_term, direct_term))
        total += dist_term + lam * direct_term
    return LossBreakdown(total=total, per_encoder=tuple(per_encoder), lam=lam), grads
