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
projection.

The ``D`` domain subspaces (zero-padded to one rank) and the ``E``
encoders are leading axes of ``(D, E, B, d)`` perpendiculars, and the
alpha-weighted sums reduce the domain axis.  The public losses
(:func:`dist_loss`, :func:`hybrid_dist_loss` and the direction forms)
are tape expressions over these arrays, without the ensemble axis.  The
full objective (:class:`ObjectivePlan`, :func:`hda_objective`) is closed
form: numpy computes its value and its hand-written gradient, and
:func:`hda.diagnostics.tape_objective` keeps the same objective as one
tape expression, the oracle it is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ConfigError, DimensionError
from .subspace import DomainSubspace
from .worlds import PARAM_FIELDS, EncoderSpec, GeneratorParams, generator_views, stack_encoders
from .worlds import json_doc, read_object

# bench/probes.py times these names in this module; nothing here calls them
from .subspace import project  # noqa: F401  (probe site)
from .worlds import encode, encode_var, generator_forward_var  # noqa: F401  (probe sites)

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
        return json_doc(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "DomainWeight":
        return read_object(cls, data, "weight entry")


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


def _stacked_subspaces(subspaces, lead: tuple[int, ...], d: int) -> tuple[Array, Array]:
    """Means ``lead + (1, d)`` and bases ``lead + (d, r)`` of a row-major grid of subspaces.

    Lower ranks are padded with zero columns, which changes no projection.
    """
    if any(s.dim != d for s in subspaces):
        raise DimensionError(
            f"embeddings have width {d}, subspaces live in {[s.dim for s in subspaces]}"
        )
    means = np.array([s.mean for s in subspaces]).reshape(lead + (1, d))
    bases = np.zeros((len(subspaces), d, max(s.rank for s in subspaces)))
    for padded, s in zip(bases, subspaces):
        padded[:, : s.rank] = s.basis
    return means, bases.reshape(lead + bases.shape[1:])


def _perpendiculars(f_t: Var, subspaces, lead: tuple[int, ...]) -> Var:
    """``f* - f_t`` for every subspace, as one expression.

    ``subspaces`` lists a grid of shape ``lead`` in row-major order, and
    ``lead`` leads the result: ``(D,)`` subspaces against ``(B, d)`` rows
    give ``(D, B, d)``, and a ``(D, E)`` grid against ``(E, B, d)``
    ensemble rows gives ``(D, E, B, d)``.  The projection keeps
    :func:`subspace.project`'s order, ``((f - mu) U) Uᵀ + mu``.
    """
    tape = f_t.tape
    means, bases = _stacked_subspaces(subspaces, lead, f_t.shape[-1])
    mean = tape.constant(means)
    centered = ad.sub(f_t, mean)
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


def dist_loss(f_t: Var, subspace: DomainSubspace) -> Var:
    """Squared distance from ``f_t`` to its projection onto the subspace.

    ``f_t`` is one embedding ``(d,)`` (scalar loss) or a batch ``(B, d)``
    (one loss per row); the same holds for every loss below.
    """
    return hybrid_dist_loss(f_t, [subspace], [DomainWeight("domain", 1.0)])


def direct_loss(
    f_s: Var, f_t: Var, subspace: DomainSubspace, *, eps: float = NORM_EPS
) -> Var:
    """One minus the cosine between ``f_t - f_s`` and ``f* - f_t``."""
    return hybrid_direct_loss(f_s, f_t, [subspace], [DomainWeight("domain", 1.0)], eps=eps)


def _check_hybrid_args(subspaces, weights) -> None:
    if not weights:
        raise ConfigError("hybrid losses need at least one domain weight")
    if len(subspaces) != len(weights):
        raise ConfigError(
            f"{len(subspaces)} subspaces paired with {len(weights)} weights"
        )


def hybrid_dist_loss(
    f_t: Var, subspaces: list[DomainSubspace], weights: list[DomainWeight]
) -> Var:
    """Weighted sum of per-domain distance losses."""
    _check_hybrid_args(subspaces, weights)
    perps = _perpendiculars(f_t, subspaces, (len(subspaces),))
    return _per_row(_hybrid_dist(perps, weights), f_t)


def hybrid_direct_loss(
    f_s: Var,
    f_t: Var,
    subspaces: list[DomainSubspace],
    weights: list[DomainWeight],
    *,
    eps: float = NORM_EPS,
) -> Var:
    """Direction loss against the weighted sum of per-domain perpendiculars."""
    _check_hybrid_args(subspaces, weights)
    perps = _perpendiculars(f_t, subspaces, (len(subspaces),))
    return _per_row(_hybrid_direct(f_s, f_t, perps, weights, eps), f_t)


def loss_total(dist_sums: Array, direct_sums: Array, batch_size: int, lam: float) -> float:
    """Objective total of one step's ``(E,)`` per-encoder batch sums of the two losses.

    Each encoder's batch means give ``dist + lam * direct``, and these
    add in encoder order, as :class:`LossBreakdown` records them.
    """
    inv_batch = 1.0 / batch_size
    return sum(
        d * inv_batch + lam * (r * inv_batch)
        for d, r in zip(dist_sums.tolist(), direct_sums.tolist())
    )


def loss_breakdowns(
    encoder_ids, dist_sums: Array, direct_sums: Array, batch_size: int, lam: float
) -> list[LossBreakdown]:
    """One breakdown per row of ``(steps, E)`` per-encoder batch sums."""
    inv_batch = 1.0 / batch_size
    dist_terms, direct_terms = (dist_sums * inv_batch).tolist(), (direct_sums * inv_batch).tolist()
    return [
        LossBreakdown(
            total=loss_total(dist_row, direct_row, batch_size, lam),
            per_encoder=tuple(map(EncoderTerms, encoder_ids, dists, directs)),
            lam=lam,
        )
        for dist_row, direct_row, dists, directs in zip(
            dist_sums, direct_sums, dist_terms, direct_terms
        )
    ]


class ObjectivePlan:
    """The full objective's run constants, checked once; a call gives value and gradient.

    The plan stacks the encoder weights along the ensemble axis and the
    ``(D, E)`` grid of subspaces to zero-padded bases, as the tape losses
    do.  The source side does not depend on the trained parameters, so
    :meth:`source_embeddings` computes it for a chunk of steps at once.
    A call takes a ``(B, d_z)`` latent batch, the target generator's
    arrays by name and the batch's ``(E, B, d_e)`` source embeddings
    (``None`` when only the distance loss is on), computes the objective
    in numpy and its gradient by the hand-written vector-Jacobian
    product of the same expression.  It returns the ``(E,)`` per-encoder
    batch sums of the distance and direction losses, and the gradient
    as one vector in :func:`hda.worlds.flatten_generator`'s layout.
    """

    def __init__(
        self,
        source_gen: GeneratorParams,
        encoders: list[EncoderSpec],
        subspaces_per_encoder: dict[str, dict[str, DomainSubspace]],
        weights: list[DomainWeight],
        lam: float,
        *,
        dist_only: bool = False,
        direct_only: bool = False,
    ):
        if not encoders:
            raise ConfigError("need at least one encoder")
        if lam < 0.0:
            raise ConfigError(f"lambda must be >= 0, got {lam}")
        if dist_only and direct_only:
            raise ConfigError("dist_only and direct_only are mutually exclusive")
        _check_hybrid_args([None] * len(weights), weights)
        try:
            grid = [
                subspaces_per_encoder[e.encoder_id][w.domain_id] for w in weights for e in encoders
            ]
        except KeyError as exc:
            raise ConfigError(f"no subspace supplied for encoder or domain {exc}") from exc
        self.w1, self.b1, self.w2, self.b2 = stack_encoders(encoders)
        self.w1_t, self.w2_t = np.swapaxes(self.w1, -1, -2), np.swapaxes(self.w2, -1, -2)
        if self.w1.shape[-1] != source_gen.d_x:
            raise DimensionError(
                f"encoders read width {self.w1.shape[-1]}, the generator writes {source_gen.d_x}"
            )
        lead = (len(weights), len(encoders))
        self.means, self.bases = _stacked_subspaces(grid, lead, self.w2.shape[1])
        self.bases_t = np.swapaxes(self.bases, -1, -2)
        self.alpha = _domain_weights(weights, 4)  # (D, 1, 1, 1)
        self.source, self.lam = source_gen, float(lam)
        self.encoder_ids = tuple(e.encoder_id for e in encoders)
        self.dist_only, self.direct_only = dist_only, direct_only

    def _encode(self, x: Array) -> tuple[Array, Array]:
        """``(..., E, B, d_e)`` embeddings of ``(..., B, d_x)`` rows, and the units before relu."""
        pre = ad.matmul_rows(x[..., None, :, :], self.w1_t) + self.b1
        hidden = np.where(pre > 0.0, pre, 0.0)
        return ad.matmul_rows(hidden, self.w2_t) + self.b2, pre

    def source_embeddings(self, z_chunk: Array) -> Array:
        """``(S, E, B, d_e)`` source embeddings of ``(S, B, d_z)`` latent batches.

        The products are stacked per batch, one BLAS call each, so entry
        ``s`` equals the embeddings of batch ``s`` alone bit for bit; one
        product over all ``S * B`` rows would round differently.
        """
        return self._encode(self.source.forward(z_chunk))[0]

    def __call__(
        self, z_batch: Array, params: dict[str, Array], f_s: Optional[Array]
    ) -> tuple[Array, Array, Array]:
        inv_batch = 1.0 / z_batch.shape[0]
        w1, b1, w2, b2 = (params[n] for n in PARAM_FIELDS)
        hidden = np.tanh(ad.matmul_rows(z_batch, w1.T) + b1)
        f_t, pre = self._encode(ad.matmul_rows(hidden, w2.T) + b2)
        lifted = ad.matmul_rows(ad.matmul_rows(f_t - self.means, self.bases), self.bases_t)
        perps = lifted + self.means - f_t  # (D, E, B, d)
        dist_sums = direct_sums = np.zeros(f_t.shape[0])  # (E,): summed over the batch
        g_perps = np.zeros_like(perps)  # d total / d perps
        g_f = np.zeros_like(f_t)  # d total / d f_t, other than through perps
        if not self.direct_only:
            dist = ((perps * perps).sum(axis=-1) * self.alpha[..., 0]).sum(axis=0)  # (E, B)
            dist_sums = dist.sum(axis=-1)
            g_perps += (2.0 * inv_batch) * self.alpha * perps
        if not self.dist_only:
            u = f_t - f_s
            v = (perps * self.alpha).sum(axis=0)
            nu = np.sqrt((u * u).sum(axis=-1) + NORM_EPS * NORM_EPS)
            nv = np.sqrt((v * v).sum(axis=-1) + NORM_EPS * NORM_EPS)
            dot, den = (u * v).sum(axis=-1), nu * nv
            direct = 1.0 - dot / den
            direct_sums = direct.sum(axis=-1)
            # the tape's reverse steps in its order, so that a subnormal
            # lambda rounds the same way in both
            g_cos = -(self.lam * inv_batch)
            g_dot, g_den = (g_cos / den)[..., None], -g_cos * dot / (den * den)
            g_f += g_dot * v + (g_den * nv / nu)[..., None] * u
            g_perps += (g_dot * u + (g_den * nu / nv)[..., None] * v) * self.alpha
        # perps = P(f_t) - f_t: the direct term, then the one through P
        g_f -= g_perps.sum(axis=0)
        g_f += ad.matmul_rows(ad.matmul_rows(g_perps, self.bases), self.bases_t).sum(axis=0)
        g_pre = np.where(pre > 0.0, ad.matmul_rows(g_f, self.w2), 0.0)
        g_x = ad.matmul_rows(g_pre, self.w1).sum(axis=0)
        g_hidden = ad.matmul_rows(g_x, w2) * (1.0 - hidden * hidden)
        grads = np.concatenate([
            ad.matmul_rows(g_hidden.T, z_batch).ravel(),
            g_hidden.sum(axis=0),
            ad.matmul_rows(g_x.T, hidden).ravel(),
            g_x.sum(axis=0),
        ])
        return dist_sums, direct_sums, grads


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
) -> tuple[LossBreakdown, dict[str, Array]]:
    """Full objective over a latent batch, with target-generator gradients.

    Returns the batch-mean loss breakdown and the gradient of the total
    with respect to each target generator parameter array.  Source
    generator and encoders enter as constants: their weights receive no
    gradient and are never modified.  Builds an :class:`ObjectivePlan`
    for this one call, a chunk of one step.
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
    plan = ObjectivePlan(
        source_gen, encoders, subspaces_per_encoder, weights, lam,
        dist_only=dist_only, direct_only=direct_only,
    )
    f_s = None if dist_only else plan.source_embeddings(z_batch[None])[0]
    params = {name: getattr(target_gen, name) for name in PARAM_FIELDS}
    dist_sums, direct_sums, grads = plan(z_batch, params, f_s)
    breakdown = loss_breakdowns(
        plan.encoder_ids, dist_sums[None], direct_sums[None], len(z_batch), plan.lam
    )[0]
    return breakdown, generator_views(grads, target_gen)
