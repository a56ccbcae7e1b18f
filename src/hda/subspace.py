"""Affine embedding subspaces estimated from few-shot feature sets.

A domain with reference features ``f_1 .. f_k`` is summarised by the
affine subspace ``{mean + basis @ c}`` where ``mean`` is the feature
average and ``basis`` holds the orthonormal right singular vectors of the
mean-centred ``k x d`` feature matrix.  :func:`build_subspace` takes them
from one stacked thin singular value decomposition of ``n`` such centred
matrices of one shape (``n = 1`` for a single feature set); each slice of
the stack equals its own decomposition bit for bit.

Distances to a subspace are always measured to the orthogonal
projection ``f* = basis @ basis.T @ (p - mean) + mean``, computed for a
batch of row vectors as ``(P - mean) @ basis @ basis.T + mean``, with the
mean added in place on the product.

This module holds the geometry only; feature CSVs and subspace JSONs
go through :mod:`hda.files`.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateDomain, DimensionError

Array = np.ndarray

#: Singular values below ``RANK_TOLERANCE * s_max`` are treated as zero.
RANK_TOLERANCE = 1e-8

_AXES = {1: "a vector", 2: "a matrix", 3: "a stack of matrices"}


def locked_array(
    value, name: str, *, ndim: int | None = None, shape: tuple | None = None
) -> Array:
    """A read-only float64 copy of ``value`` with ``ndim`` axes or exactly ``shape``, all finite."""
    arr = np.array(value, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise DimensionError(f"{name} must be {_AXES[ndim]}, got shape {arr.shape}")
    if shape is not None and arr.shape != shape:
        raise DimensionError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _mean(x: Array, axis: int = 0) -> Array:
    """``np.mean(x, axis=axis)`` bit for bit: the same sum and division, without its wrapper."""
    return np.add.reduce(x, axis=axis) / x.shape[axis]


def assemble(cls, **values):
    """A frozen ``cls`` holding ``values`` as given, without running its ``__post_init__``.

    Only for slices of stacks that a stacked builder has already locked
    with :func:`locked_array` and checked as a whole, which the
    constructor would copy and check again slice by slice.
    """
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class FeatureSet:
    """Reference features of one domain under one encoder.

    ``mean`` is their average and ``spread`` their mean distance to it.
    """

    features: Array  # (k, d)
    domain_id: str = ""
    mean: Array = field(init=False)  # (d,)
    spread: float = field(init=False)

    def __post_init__(self):
        feats = locked_array(self.features, "features", ndim=2)
        if feats.shape[0] < 1:
            raise DegenerateDomain("a feature set needs at least one vector")
        mean = locked_array(_mean(feats), "mean")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "spread", float(_spread(feats, mean)))

    @classmethod
    def stack(cls, features, domain_id: str | Sequence[str] = "") -> list:
        """The sets of ``(..., n, k, d)`` features, each equal to its slice's own set bit for bit.

        ``(n, k, d)`` gives a list of ``n`` sets, and each axis before ``n``
        nests the lists once more.  ``domain_id`` names every set, or each
        set of a list in turn.  The stack is copied, checked, averaged and
        spread once; each set holds read-only views into it.
        """
        feats = locked_array(features, "features")
        if feats.ndim < 3:
            raise DimensionError(f"features must be a stack of matrices, got shape {feats.shape}")
        if feats.shape[-2] < 1:
            raise DegenerateDomain("a feature set needs at least one vector")
        ids = [domain_id] * feats.shape[-3] if isinstance(domain_id, str) else domain_id
        means = locked_array(_mean(feats, axis=-2), "mean")

        def sets(f, m, s):
            if f.ndim > 3:
                return list(map(sets, f, m, s))
            return [
                assemble(cls, features=x, domain_id=i, mean=y, spread=z)
                for x, y, z, i in zip(f, m, s, ids, strict=True)
            ]

        return sets(feats, means, _spread(feats, means).tolist())

    @property
    def k(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class DomainSubspace:
    """Affine subspace ``{mean + basis @ c}`` with orthonormal basis columns.

    The constructor checks shapes and finiteness only: the orthonormal basis
    and the positive, non-increasing singular values come from
    :func:`build_subspace`, which runs the same checks once per stack and
    assembles its subspaces without the constructor.
    """

    mean: Array  # (d,)
    basis: Array  # (d, r); r == 0 encodes a single point
    singular_values: Array  # (r,)

    def __post_init__(self):
        mean = locked_array(self.mean, "mean", ndim=1)
        basis = locked_array(self.basis, "basis", ndim=2)
        d, r = basis.shape
        if d != mean.shape[0]:
            raise DimensionError(f"basis has {d} rows but mean has length {mean.shape[0]}")
        if r > d:
            raise DimensionError(f"rank {r} exceeds ambient dimension {d}")
        svals = locked_array(self.singular_values, "singular_values", shape=(r,))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "singular_values", svals)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def build_subspace(
    features: FeatureSet | Sequence[FeatureSet],
) -> DomainSubspace | list[DomainSubspace]:
    """Estimate the affine subspace spanned by a few-shot feature set.

    ``features`` is one :class:`FeatureSet`, giving its
    :class:`DomainSubspace`, or a sequence of sets of one ``(k, d)``,
    giving a list of their subspaces in order.  Either way the centred
    features go through one stacked SVD, and each subspace equals the
    one its set gives alone bit for bit.  The rank keeps every singular
    value above ``RANK_TOLERANCE`` times the largest one of its set, and
    never exceeds ``min(k - 1, d)``.  A single reference (``k == 1``)
    defines no direction at all and is rejected, as are all-zero centred
    features; the error names the set's domain.
    """
    sets = [features] if isinstance(features, FeatureSet) else list(features)
    if not sets:
        raise DegenerateDomain("no feature sets to build subspaces from")
    shapes = {fs.features.shape for fs in sets}
    if len(shapes) != 1:
        raise DimensionError(f"stacked feature sets need one (k, d), got {sorted(shapes)}")
    k = sets[0].k
    if k < 2:
        raise DegenerateDomain(
            f"{sets[0].domain_id or 'feature set'}: {k} reference(s) cannot span a subspace"
        )
    centered = np.array([fs.features for fs in sets]) - np.array([fs.mean for fs in sets])[:, None]
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    zero = np.flatnonzero(svals[:, 0] <= 0.0)
    if zero.size:
        raise DegenerateDomain(
            f"{sets[zero[0]].domain_id or 'feature set'}: all centred features are zero"
        )
    # DomainSubspace's checks, once for the stack: the shapes hold by construction
    vt = locked_array(vt, "basis")
    svals = locked_array(svals, "singular_values")
    ranks = np.count_nonzero(svals > RANK_TOLERANCE * svals[:, :1], axis=1)
    subspaces = []
    for fs, s, v, rank in zip(sets, svals, vt, np.minimum(ranks, k - 1).tolist()):
        basis = np.array(v[:rank].T)
        basis.setflags(write=False)
        subspaces.append(
            assemble(DomainSubspace, mean=fs.mean, basis=basis, singular_values=s[:rank])
        )
    return subspaces[0] if isinstance(features, FeatureSet) else subspaces


def project(subspace: DomainSubspace, point) -> Array:
    """Orthogonal projection of a ``(d,)`` point, ``(n, d)`` rows or ``(S, n, d)`` stacked rows.

    Each slice of a stack equals its own projection bit for bit.
    """
    p = np.asarray(point, dtype=np.float64)
    if not 1 <= p.ndim <= 3 or p.shape[-1:] != subspace.mean.shape:
        raise DimensionError(
            f"point has shape {p.shape}, subspace lives in {subspace.mean.shape}"
        )
    out = (p - subspace.mean) @ subspace.basis @ subspace.basis.T
    out += subspace.mean
    return out


def subspace_distance_sq(subspace: DomainSubspace, point) -> float:
    """Squared Euclidean distance from ``point`` to its projection."""
    residual = project(subspace, point) - np.asarray(point, dtype=np.float64)
    return float(residual @ residual)


def pca2d_export(feature_sets: list[FeatureSet]) -> list[tuple[str, float, float]]:
    """Project pooled features onto their top-2 principal directions.

    Returns one ``(domain_id, x, y)`` row per feature vector.  Fewer
    than three pooled points leave the plane underdetermined and raise
    :class:`DegenerateDomain`.
    """
    if not feature_sets:
        raise DegenerateDomain("no feature sets to export")
    dim = feature_sets[0].dim
    for fs in feature_sets:
        if fs.dim != dim:
            raise DimensionError("feature sets have mismatched dimensions")
    pooled = np.vstack([fs.features for fs in feature_sets])
    if pooled.shape[0] < 3:
        raise DegenerateDomain(
            f"need at least 3 pooled features for a 2D projection, got {pooled.shape[0]}"
        )
    centered = pooled - _mean(pooled)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    directions = np.zeros((2, dim))
    directions[: min(2, vt.shape[0])] = vt[:2]
    coords = (centered @ directions.T).tolist()
    rows: list[tuple[str, float, float]] = []
    offset = 0
    for i, fs in enumerate(feature_sets):
        label = fs.domain_id or f"set{i}"
        rows.extend((label, x, y) for x, y in coords[offset : offset + fs.k])
        offset += fs.k
    return rows


def _spread(points: Array, centroid: Array) -> Array:
    """Mean distance from each ``(k, d)`` slice of ``points`` to its ``(d,)`` slice of ``centroid``.

    Per slice, the bits of ``np.mean(np.linalg.norm(points - centroid,
    axis=1))``: the same ufuncs, without the Python wrappers around them.
    """
    diff = points - centroid[..., None, :]
    diff *= diff
    dist = np.add.reduce(diff, axis=-1)
    return _mean(np.sqrt(dist, out=dist), axis=-1)


def separation_ratio(feature_sets):
    """Minimum inter-centroid distance over mean intra-set spread.

    ``feature_sets`` is a list of sets, giving their ratio, or a stack of
    such lists of one length, giving one ratio per list, equal to the
    list's own bit for bit.  Values above ~3 mean the sets form visibly
    distinct clusters.
    """
    single = bool(feature_sets) and isinstance(feature_sets[0], FeatureSet)
    rows = [feature_sets] if single else feature_sets
    if len({len(row) for row in rows}) != 1 or len(rows[0]) < 2:
        raise ConfigError("separation needs lists of at least two feature sets, all of one length")
    n = len(rows[0])
    mean_spreads = _mean(np.array([[fs.spread for fs in row] for row in rows]), axis=1)
    ratios = []
    for row, mean_spread in zip(rows, mean_spreads.tolist()):
        gaps = (row[i].mean - row[j].mean for i in range(n) for j in range(i + 1, n))
        # np.linalg.norm of a vector is sqrt(x.dot(x)); a stacked reduction may round otherwise
        min_gap = min(float(np.sqrt(gap.dot(gap))) for gap in gaps)
        ratios.append(float("inf") if mean_spread == 0.0 else min_gap / mean_spread)
    return ratios[0] if single else ratios


def separation_ratio_2d(rows: list[tuple[str, float, float]]) -> float:
    """Same ratio as :func:`separation_ratio`, on exported 2D coordinates.

    The rows form one set per label, in order of first appearance, each
    holding its rows in their order.
    """
    coords = np.array([row[1:] for row in rows], dtype=np.float64).reshape(-1, 2)
    groups: dict[str, list[int]] = {}
    for i, (label, _, _) in enumerate(rows):
        groups.setdefault(label, []).append(i)
    return separation_ratio(
        [FeatureSet(coords[indices], domain_id=label) for label, indices in groups.items()]
    )
