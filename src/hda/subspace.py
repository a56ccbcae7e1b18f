"""Affine embedding subspaces estimated from few-shot feature sets.

A domain with reference features ``f_1 .. f_k`` is summarised by the
affine subspace ``{mean + basis @ c}`` where ``mean`` is the feature
average and ``basis`` holds the orthonormal left singular vectors of the
mean-centred feature matrix, taken from one thin singular value
decomposition of the centred ``k x d`` matrix.

Distances to a subspace are always measured to the orthogonal
projection ``f* = basis @ basis.T @ (p - mean) + mean``, computed for a
batch of row vectors as ``(P - mean) @ basis @ basis.T + mean``.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autodiff import matmul_rows
from .errors import ConfigError, DegenerateDomain, DimensionError, NumericalError

Array = np.ndarray

#: Singular values below ``RANK_TOLERANCE * s_max`` are treated as zero.
RANK_TOLERANCE = 1e-8

_AXES = {1: "a vector", 2: "a matrix"}


def locked_array(
    value, name: str, *, ndim: Optional[int] = None, shape: Optional[tuple] = None
) -> Array:
    """A read-only float64 copy of ``value`` with ``ndim`` axes or exactly ``shape``, all finite."""
    arr = np.array(value, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise DimensionError(f"{name} must be {_AXES[ndim]}, got shape {arr.shape}")
    if shape is not None and arr.shape != shape:
        raise DimensionError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FeatureSet:
    """Reference features of one domain under one encoder; ``mean`` is their average."""

    features: Array  # (k, d)
    domain_id: str = ""
    mean: Array = field(init=False)  # (d,)

    def __post_init__(self):
        feats = locked_array(self.features, "features", ndim=2)
        if feats.shape[0] < 1:
            raise DegenerateDomain("a feature set needs at least one vector")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "mean", locked_array(feats.mean(axis=0), "mean"))

    @property
    def k(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def finite_json(path: str, doc, indent: Optional[int] = None) -> str:
    """``doc`` as JSON text; a NaN or infinity, which JSON cannot hold, is refused."""
    try:
        return json.dumps(doc, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path}: refusing to write a non-finite value: {exc}") from exc


def read_json(path, kind: str):
    """The JSON document in the file ``path``, parsed but not yet checked.

    A missing file, or text that is not JSON, is a :class:`ConfigError`
    naming ``path``; ``kind`` says what the missing file should hold.
    """
    if not os.path.isfile(path):
        raise ConfigError(f"{path}: {kind} not found")
    with open(path, "r", encoding="utf8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def write_json(path, doc) -> None:
    """Replace ``path`` with ``doc`` as indented JSON; a non-finite value is refused first."""
    write_atomic(path, finite_json(path, doc, indent=2) + "\n")


def write_atomic(path: str, text: str) -> None:
    """Replace ``path`` through a temporary file beside it, never leaving a partial file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _refuse_non_finite(path, values) -> None:
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{path}: refusing to write a non-finite value")


def write_feature_csv(path, features: Array) -> None:
    """Write a ``(k, d)`` feature matrix; first line is ``d,k``."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise DimensionError(f"expected a (k, d) array, got shape {feats.shape}")
    _refuse_non_finite(path, feats)
    k, d = feats.shape
    lines = [f"{d},{k}"]
    for row in feats:
        lines.append(",".join(repr(float(v)) for v in row))
    write_atomic(path, "\n".join(lines) + "\n")


def read_feature_csv(path) -> Array:
    with open(path, "r", encoding="utf8") as fh:
        # (file line number, text) of the non-blank lines, so errors name the file's line
        lines = [(i, line.strip()) for i, line in enumerate(fh, start=1) if line.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty feature file")
    header = lines[0][1].split(",")
    if len(header) != 2:
        raise ConfigError(f"{path}: header must be 'd,k'")
    try:
        d, k = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ConfigError(f"{path}: non-integer header") from exc
    if len(lines) - 1 != k:
        raise ConfigError(f"{path}: header promises {k} rows, found {len(lines) - 1}")
    rows = []
    for i, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != d:
            raise ConfigError(f"{path}: line {i} has {len(parts)} values, expected {d}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ConfigError(f"{path}: line {i} has a non-numeric value") from exc
        if not np.all(np.isfinite(rows[-1])):
            raise ConfigError(f"{path}: line {i} has a non-finite value")
    return np.array(rows, dtype=np.float64).reshape(k, d)


@dataclass(frozen=True)
class DomainSubspace:
    """Affine subspace ``{mean + basis @ c}`` with orthonormal basis columns.

    The constructor checks shapes and finiteness only: the orthonormal basis
    and the positive, non-increasing singular values come from
    :func:`build_subspace`.
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

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "basis": self.basis.tolist(),
            "singular_values": self.singular_values.tolist(),
        }


def build_subspace(features: FeatureSet) -> DomainSubspace:
    """Estimate the affine subspace spanned by a few-shot feature set.

    The rank keeps every singular value above ``RANK_TOLERANCE`` times
    the largest one, and never exceeds ``min(k - 1, d)``.  A single
    reference (``k == 1``) defines no direction at all and is rejected.
    """
    k = features.k
    if k < 2:
        raise DegenerateDomain(
            f"{features.domain_id or 'feature set'}: {k} reference(s) cannot span a subspace"
        )
    centered = features.features - features.mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    if svals[0] <= 0.0:
        raise DegenerateDomain(
            f"{features.domain_id or 'feature set'}: all centred features are zero"
        )
    rank = int(np.count_nonzero(svals > RANK_TOLERANCE * svals[0]))
    rank = min(rank, k - 1)
    return DomainSubspace(mean=features.mean, basis=vt[:rank].T, singular_values=svals[:rank])


def project(subspace: DomainSubspace, point) -> Array:
    """Orthogonal projection of a ``(d,)`` point or ``(n, d)`` rows onto the subspace."""
    p = np.asarray(point, dtype=np.float64)
    if p.ndim not in (1, 2) or p.shape[-1:] != subspace.mean.shape:
        raise DimensionError(
            f"point has shape {p.shape}, subspace lives in {subspace.mean.shape}"
        )
    coords = matmul_rows(p - subspace.mean, subspace.basis)
    return matmul_rows(coords, subspace.basis.T) + subspace.mean


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
    centered = pooled - pooled.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    directions = np.zeros((2, dim))
    directions[: min(2, vt.shape[0])] = vt[:2]
    coords = centered @ directions.T
    rows: list[tuple[str, float, float]] = []
    offset = 0
    for i, fs in enumerate(feature_sets):
        label = fs.domain_id or f"set{i}"
        for x, y in coords[offset : offset + fs.k]:
            rows.append((label, float(x), float(y)))
        offset += fs.k
    return rows


def write_pca2d_csv(path, rows: list[tuple[str, float, float]]) -> None:
    _refuse_non_finite(path, [(x, y) for _, x, y in rows])
    lines = ["domain_id,x,y"]
    for label, x, y in rows:
        lines.append(f"{label},{repr(x)},{repr(y)}")
    write_atomic(path, "\n".join(lines) + "\n")


def _spread(points: Array, centroid: Array) -> float:
    return float(np.mean(np.linalg.norm(points - centroid, axis=1)))


def separation_ratio(feature_sets: list[FeatureSet]) -> float:
    """Minimum inter-centroid distance over mean intra-set spread.

    Values above ~3 mean the sets form visibly distinct clusters.
    """
    if len(feature_sets) < 2:
        raise ConfigError("separation needs at least two feature sets")
    centroids = [fs.mean for fs in feature_sets]
    spreads = [_spread(fs.features, fs.mean) for fs in feature_sets]
    min_gap = min(
        float(np.linalg.norm(centroids[i] - centroids[j]))
        for i in range(len(centroids))
        for j in range(i + 1, len(centroids))
    )
    mean_spread = float(np.mean(spreads))
    if mean_spread == 0.0:
        return float("inf")
    return min_gap / mean_spread


def separation_ratio_2d(rows: list[tuple[str, float, float]]) -> float:
    """Same ratio as :func:`separation_ratio`, on exported 2D coordinates."""
    groups: dict[str, list[tuple[float, float]]] = {}
    for label, x, y in rows:
        groups.setdefault(label, []).append((x, y))
    sets = [FeatureSet(points, domain_id=label) for label, points in groups.items()]
    return separation_ratio(sets)
