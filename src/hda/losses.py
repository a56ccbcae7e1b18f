"""Directional subspace losses, single-domain and hybrid.

For a target embedding ``f_t`` and a domain subspace with projection
``f*``:

* distance loss: ``|f* - f_t|^2``;
* direction loss: ``1 - cos(f_t - f_s, f* - f_t)``, with both norms
  smoothed as ``sqrt(|v|^2 + eps^2)`` (``eps`` is :data:`NORM_EPS`) so
  the loss stays finite when a displacement vanishes.

The hybrid forms weight several domains: distance terms add with
weights ``alpha_i``; the direction loss compares the source-to-target
displacement against the weighted sum of per-domain perpendiculars.
The full objective sums ``dist + lambda * direct`` over the encoder
ensemble and averages over a latent batch.  Gradients flow through the
projection.

The public losses (:func:`dist_loss`, :func:`hybrid_dist_loss` and the
direction forms) are tape expressions over ``(d,)`` or ``(B, d)`` rows,
built one domain at a time: each subspace projects with its own mean
and basis, and each domain's term is scaled by its alpha and added in
domain order.  The full objective (:class:`ObjectivePlan`,
:func:`hda_objective`) is closed form: it stacks the ``D`` domain
subspaces (zero-padded to one rank) and the ``E`` encoders as leading
axes of ``(D, E, B, d)`` perpendiculars, and numpy computes its value
and its hand-written gradient.  :func:`hda.diagnostics.tape_objective`
builds the same objective from the tape losses, encoder by encoder,
and shares none of that stacking: it is the oracle the closed form is
tested against.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ConfigError, DimensionError
from .subspace import DomainSubspace
from .worlds import PARAM_FIELDS, EncoderSpec, GeneratorParams, stack_encoders

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
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ConfigError(f"weight for {self.domain_id!r} must be positive and finite")


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


def _perpendicular(f_t: Var, subspace: DomainSubspace) -> Var:
    """``f* - f_t``, projected in :func:`subspace.project`'s order, ``((f - mu) U) Uᵀ + mu``."""
    tape = f_t.tape
    mean = tape.constant(subspace.mean)
    coords = ad.linear(ad.sub(f_t, mean), tape.constant(subspace.basis.T))
    lifted = ad.linear(coords, tape.constant(subspace.basis))
    return ad.sub(ad.add(lifted, mean), f_t)


def _weighted_sum(terms: list[Var], weights) -> Var:
    """``sum_i alpha_i * term_i``, added in domain order."""
    return functools.reduce(ad.add, [ad.smul(w.alpha, t) for t, w in zip(terms, weights)])


def _one_minus_cosine(u: Var, v: Var) -> Var:
    tape = u.tape
    cos = ad.div(ad.dot(u, v), ad.mul(ad.norm_eps(u, NORM_EPS), ad.norm_eps(v, NORM_EPS)))
    return ad.sub(tape.constant(np.ones(cos.shape)), cos)


def dist_loss(f_t: Var, subspace: DomainSubspace) -> Var:
    """Squared distance from ``f_t`` to its projection onto the subspace.

    ``f_t`` is one embedding ``(d,)`` (scalar loss) or a batch ``(B, d)``
    (one loss per row); the same holds for every loss below.
    """
    return ad.sq_norm(_perpendicular(f_t, subspace))


def direct_loss(f_s: Var, f_t: Var, subspace: DomainSubspace) -> Var:
    """One minus the cosine between ``f_t - f_s`` and ``f* - f_t``."""
    return _one_minus_cosine(ad.sub(f_t, f_s), _perpendicular(f_t, subspace))


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
    return _weighted_sum([dist_loss(f_t, s) for s in subspaces], weights)


def hybrid_direct_loss(
    f_s: Var, f_t: Var, subspaces: list[DomainSubspace], weights: list[DomainWeight]
) -> Var:
    """Direction loss against the weighted sum of per-domain perpendiculars."""
    _check_hybrid_args(subspaces, weights)
    target = _weighted_sum([_perpendicular(f_t, s) for s in subspaces], weights)
    return _one_minus_cosine(ad.sub(f_t, f_s), target)


def loss_total(dist_sums: Array, direct_sums: Array, batch_size: int, lam: float) -> float:
    """Objective total of one step's ``(E,)`` per-encoder batch sums of the two losses.

    Each encoder's batch means give ``dist + lam * direct``, and these
    add in encoder order.
    """
    inv_batch = 1.0 / batch_size
    return sum(
        d * inv_batch + lam * (r * inv_batch)
        for d, r in zip(dist_sums.tolist(), direct_sums.tolist())
    )


class ObjectivePlan:
    """The full objective's run constants, checked once; a call gives value and gradient.

    The plan stacks the encoder weights along the ensemble axis, the
    ``(D, E)`` grid of subspaces to zero-padded bases and the alphas to
    scale the domain axis.  The source side does not depend on the
    trained parameters, so :meth:`source_embeddings` computes it for a
    chunk of steps at once.
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
        if not (lam >= 0.0 and math.isfinite(lam)):
            raise ConfigError(f"lambda must be >= 0 and finite, got {lam}")
        if dist_only and direct_only:
            raise ConfigError("dist_only and direct_only are mutually exclusive")
        if not weights:
            raise ConfigError("hybrid losses need at least one domain weight")
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
        self.alpha = np.array([w.alpha for w in weights]).reshape(-1, 1, 1, 1)
        self.source, self.lam = source_gen, float(lam)
        self.encoder_ids = tuple(e.encoder_id for e in encoders)
        self.dist_only, self.direct_only = dist_only, direct_only

    def _encode(self, x: Array) -> tuple[Array, Array]:
        """``(..., E, B, d_e)`` embeddings of ``(..., B, d_x)`` rows, and where relu passes."""
        pre = ad.matmul_rows(x[..., None, :, :], self.w1_t)
        pre += self.b1
        active = pre > 0.0
        f = ad.matmul_rows(np.where(active, pre, 0.0), self.w2_t)
        f += self.b2
        return f, active

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
        add = np.add.reduce
        w1, b1, w2, b2 = (params[n] for n in PARAM_FIELDS)
        hidden = ad.matmul_rows(z_batch, w1.T)
        hidden += b1
        np.tanh(hidden, out=hidden)
        x = ad.matmul_rows(hidden, w2.T)
        x += b2
        f_t, active = self._encode(x)
        perps = ad.matmul_rows(ad.matmul_rows(f_t - self.means, self.bases), self.bases_t)
        perps += self.means
        perps -= f_t  # (D, E, B, d)
        dist_sums = direct_sums = np.zeros(f_t.shape[0])  # (E,): summed over the batch
        # the gradients accumulate from zero: d total / d perps, and
        # d total / d f_t other than through perps
        g_perps = g_f = 0.0
        if not self.direct_only:
            dist = add(perps * perps, -1)
            dist *= self.alpha[..., 0]
            dist_sums = add(add(dist, 0), -1)
            g_perps += (2.0 * inv_batch) * self.alpha * perps
        if not self.dist_only:
            u = f_t - f_s
            v = add(perps * self.alpha, 0)
            nu, nv = add(u * u, -1), add(v * v, -1)
            nu += NORM_EPS * NORM_EPS
            nv += NORM_EPS * NORM_EPS
            np.sqrt(nu, out=nu)
            np.sqrt(nv, out=nv)
            dot, den = add(u * v, -1), nu * nv
            direct = dot / den
            np.subtract(1.0, direct, out=direct)
            direct_sums = add(direct, -1)
            # the tape's reverse steps in its order, so that a subnormal
            # lambda rounds the same way in both
            g_cos = -(self.lam * inv_batch)
            g_dot, g_den = (g_cos / den)[..., None], -g_cos * dot
            g_den /= den * den
            g_f += g_dot * v + (g_den * nv / nu)[..., None] * u
            g_perps += (g_dot * u + (g_den * nu / nv)[..., None] * v) * self.alpha
        # perps = P(f_t) - f_t: the direct term, then the one through P
        g_f -= add(g_perps, 0)
        g_f += add(ad.matmul_rows(ad.matmul_rows(g_perps, self.bases), self.bases_t), 0)
        g_pre = np.where(active, ad.matmul_rows(g_f, self.w2), 0.0)
        g_x = add(ad.matmul_rows(g_pre, self.w1), 0)
        g_hidden = ad.matmul_rows(g_x, w2)
        tanh_grad = hidden * hidden
        np.subtract(1.0, tanh_grad, out=tanh_grad)
        g_hidden *= tanh_grad
        grads = np.concatenate([
            ad.matmul_rows(g_hidden.T, z_batch).ravel(),
            add(g_hidden, 0),
            ad.matmul_rows(g_x.T, hidden).ravel(),
            add(g_x, 0),
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
) -> tuple[Array, Array, Array]:
    """Full objective over a latent batch, with target-generator gradients.

    Returns what an :class:`ObjectivePlan` call returns: the ``(E,)``
    per-encoder batch sums of the distance and direction losses (their
    total is :func:`loss_total`), and the gradient of the total as one
    :func:`hda.worlds.flatten_generator` vector of the target.  Source
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
    return plan(z_batch, params, f_s)
