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

The diversity sums each cluster's pair distances in bounded blocks of
one Gram-form product.  A block makes one masked write: only its
self-distances are set to +inf before the cancellation test, whose
``min`` may also see the mirrored non-pairs, since each is a pair of
the same block taken the other way round; the non-pairs are zeroed once
at the end.  Norms and means are the ufuncs ``np.linalg.norm`` and
``np.mean`` run, without their wrappers, so every report keeps its bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import ConfigError, DimensionError
from .seeding import stream_rng
from .subspace import DomainSubspace, _mean, project
from .worlds import EncoderSpec, GeneratorParams, encode, flatten_generator, forward_stack

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


def _row_norms(x: Array) -> Array:
    """``np.linalg.norm(x, axis=-1)`` bit for bit: its ufuncs, without its wrapper and copies."""
    sq = np.add.reduce(x * x, axis=-1)
    return np.sqrt(sq, out=sq)


def _pairwise_cosine(a: Array, a_norms: Array, b: Array) -> Array:
    """Cosine of each ``(n, d)`` row of ``a`` with that row of each ``(S, n, d)`` slice of ``b``.

    ``a_norms`` is :func:`_row_norms` of ``a``.  A pair with a zero norm
    scores 0.
    """
    dots = np.einsum("ij,...ij->...i", a, b)
    norms = a_norms * _row_norms(b)
    out = np.zeros(norms.shape)
    np.divide(dots, norms, out=out, where=norms > 0.0)
    return np.clip(out, -1.0, 1.0, out=out)


def _mean_subspace_distance(subspace: DomainSubspace, embeddings: Array) -> Array:
    """Mean distance of each ``(S, n, d)`` slice's rows to their projection, ``(S,)``."""
    residuals = project(subspace, embeddings)
    residuals -= embeddings
    return _mean(_row_norms(residuals), axis=-1)


# The squared distance |xi|² + |xj|² - 2 xi·xj of centred rows comes from
# one dot product of [xi, |xi|², 1] with [-2 xj, 1, |xj|²].  No term of it
# exceeds |xi|² + |xj|² in magnitude (2 |xi·xj| <= |xi|² + |xj|²), so its
# rounding error is a few ulps of |xi|² + |xj|², as when the three terms
# are added one by one.  Pairs with d² above this share of it therefore
# keep a relative error of about eps / 1e-4 ~ 2e-12; pairs at or below it
# are recomputed as direct norms.
_GRAM_CANCELLATION = 1e-4

# A diversity block holds at most _PAIR_BLOCK_SIZE distances (or one
# sample's partners, if they alone are more), which bounds its memory at
# any cluster size.  It is no wider than it has rows, so its (R, R) corner
# fits in _NON_PAIRS, the mask of the pairs it does not hold.
_PAIR_BLOCK_SIZE = 1 << 16
_NON_PAIRS = np.triu(np.ones((isqrt(_PAIR_BLOCK_SIZE),) * 2, dtype=bool), 1)


def _augmented(centred: Array) -> tuple[Array, Array]:
    """Rows ``[c, |c|², 1]`` and columns ``[-2c, 1, |c|²]`` of centred samples.

    Row ``i`` of the first times column ``j`` of the second is the
    squared distance ``|ci|² + |cj|² - 2 ci·cj``.  Both are filled in
    place, and the columns are C-ordered: a block's product reads them
    faster than a transposed view, with the same bits.
    """
    n, d = centred.shape
    left, right = np.empty((n, d + 2)), np.empty((d + 2, n))
    sq = np.einsum("ij,ij->i", centred, centred, out=right[d + 1])
    left[:, :d] = centred
    left[:, d] = sq
    left[:, d + 1] = 1.0
    np.multiply(centred.T, -2.0, out=right[:d])
    right[d] = 1.0
    return left, right


def _recompute_cancellations(
    block: Array, rows: Array, cols: Array, rows_sq: Array, cols_sq: Array
) -> None:
    """Overwrite each entry of ``block`` at or below the cancellation share with its direct ``d²``.

    Entry ``(q, p)`` at most ``_GRAM_CANCELLATION`` times ``rows_sq[q] +
    cols_sq[p]`` becomes ``|rows[q] - cols[p]|²``.
    """
    q, p = np.nonzero(block <= _GRAM_CANCELLATION * np.add.outer(rows_sq, cols_sq))
    diff = rows[q] - cols[p]
    block[q, p] = np.einsum("ij,ij->i", diff, diff)


def _pair_block(samples: Array, left: Array, right: Array, start: int, stop: int, hi: int) -> Array:
    """Distances from samples ``start:stop`` to their partners up to ``hi``.

    Entry ``(q, p)`` of the ``(hi - start - 1, stop - start)`` result is
    the distance between samples ``start + 1 + q`` and ``start + p`` when
    ``q >= p``, and 0 otherwise, so each pair of ``start:hi`` with its
    lower member in ``start:stop`` appears once.  ``left`` and ``right``
    are :func:`_augmented` of the samples centred on their cluster's mean,
    and the block is one product of them.
    When some squared distance may be at most ``_GRAM_CANCELLATION``
    times ``|ci|² + |cj|²``, each such pair is recomputed from the raw
    samples (:func:`_recompute_cancellations`), so every distance is
    within about 2e-12 relative of the direct norm and duplicate rows are
    exactly 0 apart.

    Only the corner's self-distances ``(p - 1, p)`` are masked (+inf)
    before that test; the mirrored non-pairs above them stay in its
    ``min`` and are zeroed with the self-distances in one masked write
    at the end.  A mirrored entry is a pair of this block taken the other
    way round, so it can only send the block to the recomputation, which
    selects entry by entry and so picks no pair that the masked block
    would not have picked.
    """
    block = left[start + 1 : hi] @ right[:, start:stop]  # squared distances
    width, d = stop - start, left.shape[1] - 2
    np.fill_diagonal(block[: width - 1, 1:width], np.inf)
    rows_sq, cols_sq = left[start + 1 : hi, d], right[d + 1, start:stop]
    if not block.min() > _GRAM_CANCELLATION * (rows_sq.max() + cols_sq.max()):
        rows, cols = samples[start + 1 : hi], samples[start:stop]
        _recompute_cancellations(block, rows, cols, rows_sq, cols_sq)
    np.copyto(block[:width], 0.0, where=_NON_PAIRS[:width, :width])
    return np.sqrt(block, out=block)


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
    distance is taken as ``|e|² + |r|² - 2 e·r``, with one product per
    row block, so no ``(n, R, d)`` difference tensor is built.  A row
    whose two smallest squared distances are not more than
    ``_NEAREST_MARGIN`` times ``|e|² + max |r|²`` apart (a tie, duplicate
    references included, a near tie or a non-finite value) is
    recomputed as the ``argmin`` of the norms of its differences, so the
    result equals that expression's element for element, first index on
    exact ties included.  The ``(rows, R)`` squared distances are taken
    in row blocks of at most ``_PAIR_BLOCK_SIZE`` entries, and the
    recomputed rows in blocks whose ``(rows, R, d)`` difference tensor
    holds at most as many (or one row's, if they alone are more), so
    memory stays bounded at any reference count.
    """
    r = reference_embeddings.shape[0]
    centre = _mean(reference_embeddings, axis=0)
    refs = reference_embeddings - centre
    ref_sq = np.einsum("ij,ij->i", refs, refs)
    assignment = np.empty(embeddings.shape[0], dtype=np.intp)
    gram_rows = max(1, _PAIR_BLOCK_SIZE // r)
    norm_rows = max(1, _PAIR_BLOCK_SIZE // reference_embeddings.size)
    for start in range(0, embeddings.shape[0], gram_rows):
        centred = embeddings[start : start + gram_rows] - centre
        sq = np.einsum("ij,ij->i", centred, centred)
        d2 = centred @ refs.T
        d2 *= -2.0
        d2 += sq[:, None]
        d2 += ref_sq
        assignment[start : start + gram_rows] = np.argmin(d2, axis=1)
        if r == 1:
            continue
        d2.partition(1, axis=1)
        gap = d2[:, 1] - d2[:, 0]
        rows = start + np.flatnonzero(~(gap > _NEAREST_MARGIN * (sq + ref_sq.max())))
        for i in range(0, rows.size, norm_rows):
            block = rows[i : i + norm_rows]
            diffs = embeddings[block, None, :] - reference_embeddings
            assignment[block] = np.argmin(np.linalg.norm(diffs, axis=2), axis=1)
    return assignment


def _diversity(embeddings: Array, reference_embeddings: Array) -> Array:
    """Mean pairwise distance inside nearest-reference clusters, per ``(S, n, d)`` slice.

    Each sample joins the cluster of its nearest reference, found for
    the rows of every slice at once in Gram form with near ties settled
    by direct norms (:func:`_nearest_reference`, exact at any row count).
    The samples are sorted by (slice, cluster) once (stably, so each
    cluster keeps their order), centred on their cluster's mean, and each
    cluster's distances are summed block by block (:func:`_pair_block`),
    each block at most ``_PAIR_BLOCK_SIZE`` distances (or one sample's
    partners, if they alone are more), so memory stays bounded at any
    cluster size.  Clusters with fewer than two members carry no pairwise
    distance and are skipped; a fully collapsed generator therefore
    scores 0.  A slice with any non-finite sample scores NaN and takes no
    part in the clustering, so the other slices keep their values.
    """
    out = np.full(embeddings.shape[0], np.nan)
    finite = np.isfinite(embeddings).all(axis=(1, 2))
    # copied only when a slice is left out: copying every slice made a 1,024-row evaluate
    # about 6% slower (shared 2-core Xeon)
    kept = embeddings if finite.all() else embeddings[finite]
    if not len(kept):
        return out
    s, n, d = kept.shape
    r = reference_embeddings.shape[0]
    rows = kept.reshape(-1, d)
    # cluster c of the k-th finite slice has key k * r + c
    keys = _nearest_reference(rows, reference_embeddings)
    keys += np.repeat(r * np.arange(s), n)
    samples = rows[np.argsort(keys, kind="stable")]
    sizes = np.bincount(keys)
    owners = np.flatnonzero(sizes) // r
    sizes = sizes[sizes > 0]
    ends = np.cumsum(sizes)
    means = np.add.reduceat(samples, ends - sizes, axis=0) / sizes[:, None]
    left, right = _augmented(samples - np.repeat(means, sizes, axis=0))
    cluster_means = [[] for _ in range(s)]
    pairs = sizes >= 2
    for owner, m, hi in zip(owners[pairs], sizes[pairs], ends[pairs]):
        total, start = 0.0, hi - m
        while start < hi - 1:
            stop = min(hi - 1, start + max(1, _PAIR_BLOCK_SIZE // (hi - start - 1)))
            # summed as made, so no block is still alive while the next one is built
            total += np.add.reduce(_pair_block(samples, left, right, start, stop, hi), axis=None)
            start = stop
        cluster_means[owner].append(total / (m * (m - 1) // 2))
    out[finite] = [float(np.mean(c)) if c else 0.0 for c in cluster_means]
    return out


class SnapshotPlan:
    """The fixed inputs of repeated held-out evaluations, checked once.

    A plan holds the ``eval-z`` latents of ``seed``, the source
    generator's held-out embeddings of them with their norms, and the
    held-out embeddings of the references.  :meth:`evaluate_stack` evaluates a stack of
    target generators against them in one pass; a call evaluates one
    generator as a stack of one.  ``held_out_subspaces`` and
    ``references`` are keyed by domain id; references are x-space
    vectors.
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
        for domain_id, rows in references.items():
            if len(rows) == 0:
                raise ConfigError(f"no reference rows for domain {domain_id!r}")
        self.source, self.encoder = source_gen, held_out_encoder
        self.subspaces = held_out_subspaces
        self.z = stream_rng(seed, "eval-z").standard_normal((int(n_samples), source_gen.d_z))
        self.f_source = encode(held_out_encoder, source_gen.forward(self.z))
        self.source_norms = _row_norms(self.f_source)
        self.reference_embeddings = np.vstack(
            [encode(held_out_encoder, references[d]) for d in references]
        )

    def __call__(self, target_gen: GeneratorParams) -> MetricsReport:
        return self.evaluate_stack(flatten_generator(target_gen)[None], target_gen)[0]

    def evaluate_stack(self, params: Array, like: GeneratorParams) -> list[MetricsReport]:
        """One report per row of ``params``, an ``(S, P)`` stack of generators.

        Each row is a :func:`flatten_generator` vector shaped as
        ``like``'s.  The forward pass, the encoding and each projection
        run as stacked products, one BLAS call per slice, and the
        diversity clusters every slice's rows at once, so each report
        equals the one its generator gets alone bit for bit.
        """
        if np.ndim(params) != 2:
            raise DimensionError(
                f"params must be an (S, P) stack of generator vectors, got shape {np.shape(params)}"
            )
        if like.d_z != self.source.d_z or like.d_x != self.source.d_x:
            raise DimensionError("target and source generators have mismatched dimensions")
        f_target = encode(self.encoder, forward_stack(params, like, self.z))
        distances = {
            domain_id: _mean_subspace_distance(subspace, f_target)
            for domain_id, subspace in self.subspaces.items()
        }
        consistency = _mean(_pairwise_cosine(self.f_source, self.source_norms, f_target), axis=-1)
        diversity = _diversity(f_target, self.reference_embeddings)
        return [
            MetricsReport(
                semantic_similarity={d: -float(values[s]) for d, values in distances.items()},
                consistency=float(consistency[s]),
                diversity=float(diversity[s]),
                n_samples=self.z.shape[0],
            )
            for s in range(params.shape[0])
        ]


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
