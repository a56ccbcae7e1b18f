"""Held-out evaluation of an adapted generator.

All three metrics are computed under a held-out encoder that never
contributed a training gradient:

* ``semantic_similarity``: negative mean distance from generated
  embeddings to each domain subspace (higher is better);
* ``consistency``: mean cosine between source and target embeddings of
  the same latent, measuring how much source identity survives;
* ``diversity``: mean intra-cluster pairwise embedding distance after
  assigning each sample to its nearest reference embedding.

Reports are pure functions of (inputs, seed) and serialize to 12
significant digits with a fixed key order, so repeated evaluations are
byte-identical.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import SERIAL_GEMM_SIZE, matmul_rows
from .errors import ConfigError, DimensionError
from .seeding import stream_rng
from .subspace import DomainSubspace, project, write_json
from .worlds import EncoderSpec, GeneratorParams, encode

Array = np.ndarray

#: Latent samples and seed of a held-out evaluation (``hda eval`` and the ablation grid).
EVAL_SAMPLES = 256
EVAL_SEED = 0


def round12(x: float) -> float:
    """Round to 12 significant digits (the report precision)."""
    return float(f"{float(x):.12g}")


@dataclass(frozen=True)
class MetricsReport:
    semantic_similarity: dict[str, float]  # domain_id -> -mean subspace distance
    consistency: float
    diversity: float
    n_samples: int

    def to_json_dict(self) -> dict:
        return {
            "semantic_similarity": {
                domain: round12(value) for domain, value in self.semantic_similarity.items()
            },
            "consistency": round12(self.consistency),
            "diversity": round12(self.diversity),
            "n_samples": self.n_samples,
        }

    def mean_distance(self, domain_id: str) -> float:
        """Positive mean subspace distance for one domain."""
        return -self.semantic_similarity[domain_id]


def write_report(report: MetricsReport, path) -> None:
    """Write the report as JSON, replacing ``path`` whole; a non-finite metric is refused."""
    write_json(path, report.to_json_dict())


def _pairwise_cosine(a: Array, b: Array) -> Array:
    dots = np.einsum("ij,ij->i", a, b)
    norms = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    out = np.zeros(a.shape[0])
    nonzero = norms > 0.0
    out[nonzero] = dots[nonzero] / norms[nonzero]
    return np.clip(out, -1.0, 1.0)


def _mean_subspace_distance(subspace: DomainSubspace, embeddings: Array) -> float:
    residuals = project(subspace, embeddings) - embeddings
    return float(np.mean(np.linalg.norm(residuals, axis=1)))


# A Gram-form d² carries an absolute error of a few ulps of |xi|² + |xj|²,
# so pairs with d² above this share of it keep a relative error of about
# eps / 1e-4 ~ 2e-12; pairs at or below it are recomputed as direct norms.
_GRAM_CANCELLATION = 1e-4


def _cluster_pair_distances(members: Array) -> Array:
    """Distances of all member pairs ``i < j``, in ``np.triu_indices`` order.

    The members are centred on their mean and each squared distance is
    taken as ``|xi|² + |xj|² - 2 xi·xj``, with the products through
    :func:`autodiff.matmul_rows`.  Rows are taken in blocks of at most
    :data:`autodiff.SERIAL_GEMM_SIZE` distances (one row, if a row alone
    holds more), so memory stays bounded at any cluster size.  A pair
    whose squared distance is at most ``_GRAM_CANCELLATION`` times
    ``|xi|² + |xj|²`` is recomputed as the norm of its difference, so
    every distance is within about 2e-12 relative of the direct norm and
    duplicate rows score exactly 0.
    """
    m = members.shape[0]
    centred = members - np.mean(members, axis=0)
    sq = np.einsum("ij,ij->i", centred, centred)
    out = np.empty(m * (m - 1) // 2)
    start = filled = 0
    while start < m - 1:
        cols = m - start - 1
        stop = min(m - 1, start + max(1, SERIAL_GEMM_SIZE // cols))
        # row start + r pairs with column start + 1 + c where c >= r, taken row by row
        above = np.arange(cols) >= np.arange(stop - start)[:, None]
        scale = np.add.outer(sq[start:stop], sq[start + 1 :])
        dist = matmul_rows(centred[start:stop], centred[start + 1 :].T)
        dist *= -2.0
        dist += scale  # squared distances
        close = (dist <= _GRAM_CANCELLATION * scale) & above
        np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
        r, c = np.divmod(np.flatnonzero(close), cols)
        dist[r, c] = np.linalg.norm(members[start + r] - members[start + 1 + c], axis=1)
        upper = dist[above]
        out[filled : filled + upper.size] = upper
        start, filled = stop, filled + upper.size
    return out


# Centred on the references' mean, a Gram-form d² is within about
# (d + 4)·eps of |e|² + |r|² (about 4e-15 at d = 16).  A row whose two
# smallest d² lie more than this share of |e|² + max |r|² apart has one
# nearest reference at either precision; the smallest such share on the
# benchmark's eval_sweep inputs is about 8e-7.  Closer rows are assigned
# by direct norms.
_NEAREST_MARGIN = 1e-8


def _nearest_reference(embeddings: Array, reference_embeddings: Array) -> Array:
    """Each embedding's nearest reference: ``argmin`` of the direct norms, exactly.

    Both sets are centred on the references' mean and each squared
    distance is taken as ``|e|² + |r|² - 2 e·r``, with the products
    through :func:`autodiff.matmul_rows`, so no ``(n, R, d)`` difference
    tensor is built.  A row whose two smallest squared distances are not
    more than ``_NEAREST_MARGIN`` times ``|e|² + max |r|²`` apart (a tie,
    a near tie or a non-finite value) is recomputed as the ``argmin`` of
    the norms of its differences, so the result equals that expression's
    element for element, first index on exact ties included.
    """
    centre = np.mean(reference_embeddings, axis=0)
    centred = embeddings - centre
    refs = reference_embeddings - centre
    sq = np.einsum("ij,ij->i", centred, centred)
    ref_sq = np.einsum("ij,ij->i", refs, refs)
    d2 = matmul_rows(centred, refs.T)
    d2 *= -2.0
    d2 += sq[:, None]
    d2 += ref_sq
    assignment = np.argmin(d2, axis=1)
    if refs.shape[0] > 1:
        d2.partition(1, axis=1)
        gap = d2[:, 1] - d2[:, 0]
        rows = np.flatnonzero(~(gap > _NEAREST_MARGIN * (sq + np.max(ref_sq))))
        if rows.size:
            diffs = embeddings[rows, None, :] - reference_embeddings[None, :, :]
            assignment[rows] = np.argmin(np.linalg.norm(diffs, axis=2), axis=1)
    return assignment


def _diversity(embeddings: Array, reference_embeddings: Array) -> float:
    """Mean pairwise distance inside nearest-reference clusters.

    Each sample joins the cluster of its nearest reference, found in Gram
    form with near ties settled by direct norms
    (:func:`_nearest_reference`).  Clusters with fewer than two members
    carry no pairwise distance and are skipped; a fully collapsed
    generator therefore scores 0.
    """
    assignment = _nearest_reference(embeddings, reference_embeddings)
    sizes = np.bincount(assignment, minlength=reference_embeddings.shape[0])
    cluster_means = [
        float(np.mean(_cluster_pair_distances(embeddings[assignment == cluster])))
        for cluster in np.flatnonzero(sizes >= 2)
    ]
    if not cluster_means:
        return 0.0
    return float(np.mean(cluster_means))


class SnapshotPlan:
    """The fixed inputs of repeated held-out evaluations, checked once.

    A plan holds the ``eval-z`` latents of ``seed``, the source
    generator's held-out embeddings of them and the held-out embeddings
    of the references.  A call evaluates one target generator against
    them.  ``held_out_subspaces`` and ``references`` are keyed by domain
    id; references are x-space vectors.
    """

    def __init__(
        self,
        source_gen: GeneratorParams,
        held_out_encoder: EncoderSpec,
        held_out_subspaces: dict[str, DomainSubspace],
        references: dict[str, Array],
        n_samples: int,
        seed: int,
    ):
        if n_samples < 2:
            raise ConfigError(f"n_samples must be >= 2, got {n_samples}")
        if not held_out_subspaces:
            raise ConfigError("no held-out subspaces supplied")
        if set(held_out_subspaces) != set(references):
            raise ConfigError(
                f"subspace domains {sorted(held_out_subspaces)} do not match "
                f"reference domains {sorted(references)}"
            )
        self.source, self.encoder = source_gen, held_out_encoder
        self.subspaces = held_out_subspaces
        self.z = stream_rng(seed, "eval-z").standard_normal((int(n_samples), source_gen.d_z))
        self.f_source = encode(held_out_encoder, source_gen.forward(self.z))
        self.reference_embeddings = np.vstack(
            [encode(held_out_encoder, references[d]) for d in references]
        )

    def __call__(self, target_gen: GeneratorParams) -> MetricsReport:
        if target_gen.d_z != self.source.d_z or target_gen.d_x != self.source.d_x:
            raise DimensionError("target and source generators have mismatched dimensions")
        f_target = encode(self.encoder, target_gen.forward(self.z))
        semantic = {
            domain_id: -_mean_subspace_distance(subspace, f_target)
            for domain_id, subspace in self.subspaces.items()
        }
        return MetricsReport(
            semantic_similarity=semantic,
            consistency=float(np.mean(_pairwise_cosine(self.f_source, f_target))),
            diversity=_diversity(f_target, self.reference_embeddings),
            n_samples=self.z.shape[0],
        )


def evaluate(
    target_gen: GeneratorParams,
    source_gen: GeneratorParams,
    held_out_encoder: EncoderSpec,
    held_out_subspaces: dict[str, DomainSubspace],
    references: dict[str, Array],
    n_samples: int,
    seed: int,
) -> MetricsReport:
    """Evaluate a target generator against the source under a held-out encoder.

    Builds a :class:`SnapshotPlan` for this one call.
    """
    plan = SnapshotPlan(
        source_gen, held_out_encoder, held_out_subspaces, references, n_samples, seed
    )
    return plan(target_gen)
