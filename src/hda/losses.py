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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var
from .errors import ConfigError, DimensionError
from .subspace import DomainSubspace, project
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


def _projection_var(f_t: Var, subspace: DomainSubspace, detach: bool) -> Var:
    tape = f_t.tape
    if f_t.shape[-1:] != subspace.mean.shape:
        raise DimensionError(
            f"embedding has shape {f_t.shape}, subspace lives in {subspace.mean.shape}"
        )
    if detach:
        return tape.constant(project(subspace, f_t.value))
    centered = ad.bias_add(f_t, tape.constant(-subspace.mean))
    coords = ad.linear(centered, tape.constant(subspace.basis.T))
    lifted = ad.linear(coords, tape.constant(subspace.basis))
    return ad.bias_add(lifted, tape.constant(subspace.mean))


def _perpendiculars(f_t: Var, subspaces, detach: bool) -> list[Var]:
    """``f* - f_t`` for each subspace: one projection per subspace."""
    return [ad.sub(_projection_var(f_t, sub_i, detach), f_t) for sub_i in subspaces]


def _weighted_sum(terms: list[Var], weights) -> Var:
    total = None
    for term, w in zip(terms, weights):
        term = ad.smul(w.alpha, term)
        total = term if total is None else ad.add(total, term)
    return total


def _one_minus_cosine(u: Var, v: Var, eps: float) -> Var:
    tape = u.tape
    cos = ad.div(ad.dot(u, v), ad.mul(ad.norm_eps(u, eps), ad.norm_eps(v, eps)))
    return ad.sub(tape.constant(np.ones(cos.shape)), cos)


def _hybrid_dist(perps: list[Var], weights) -> Var:
    return _weighted_sum([ad.sq_norm(p) for p in perps], weights)


def _hybrid_direct(f_s: Var, f_t: Var, perps: list[Var], weights, eps: float) -> Var:
    return _one_minus_cosine(ad.sub(f_t, f_s), _weighted_sum(perps, weights), eps)


def dist_loss(
    f_t: Var, subspace: DomainSubspace, *, detach_projection: bool = False
) -> Var:
    """Squared distance from ``f_t`` to its projection onto the subspace.

    ``f_t`` is one embedding ``(d,)`` (scalar loss) or a batch ``(B, d)``
    (one loss per row); the same holds for every loss below.
    """
    (perp,) = _perpendiculars(f_t, [subspace], detach_projection)
    return ad.sq_norm(perp)


def direct_loss(
    f_s: Var,
    f_t: Var,
    subspace: DomainSubspace,
    *,
    eps: float = NORM_EPS,
    detach_projection: bool = False,
) -> Var:
    """One minus the cosine between ``f_t - f_s`` and ``f* - f_t``."""
    (perp,) = _perpendiculars(f_t, [subspace], detach_projection)
    return _one_minus_cosine(ad.sub(f_t, f_s), perp, eps)


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
    return _hybrid_dist(_perpendiculars(f_t, subspaces, detach_projection), weights)


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
    perps = _perpendiculars(f_t, subspaces, detach_projection)
    return _hybrid_direct(f_s, f_t, perps, weights, eps)


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
    x_source = None if dist_only else source_gen.forward(z_batch)
    per_encoder = []
    rows = None  # (B,) per-latent objective, summed over encoders
    for enc in encoders:
        f_t = encode_var(tape, enc, x_target)
        subs = [subspaces_per_encoder[enc.encoder_id][w.domain_id] for w in weights]
        perps = _perpendiculars(f_t, subs, detach_projection)
        enc_rows = None
        dist_term = direct_term = 0.0
        if not direct_only:
            enc_rows = _hybrid_dist(perps, weights)
            dist_term = float(enc_rows.value.sum()) * inv_batch
        if not dist_only:
            f_s = tape.constant(encode(enc, x_source))
            direct = _hybrid_direct(f_s, f_t, perps, weights, NORM_EPS)
            direct_term = float(direct.value.sum()) * inv_batch
            weighted = ad.smul(lam, direct)
            enc_rows = weighted if enc_rows is None else ad.add(enc_rows, weighted)
        rows = enc_rows if rows is None else ad.add(rows, enc_rows)
        per_encoder.append(EncoderTerms(enc.encoder_id, dist_term, direct_term))

    tape.backward(ad.vsum(rows), seed=inv_batch)
    grads = {name: np.array(var.grad) for name, var in param_vars.items()}
    total = 0.0
    for terms in per_encoder:
        total += terms.dist_term + lam * terms.direct_term
    return LossBreakdown(total=total, per_encoder=tuple(per_encoder), lam=lam), grads
