"""Affine embedding subspaces estimated from few-shot feature sets.

A domain with reference features ``f_1 .. f_k`` is summarised by the
affine subspace ``{mean + basis @ c}`` where ``mean`` is the feature
average and ``basis`` holds the orthonormal left singular vectors of the
mean-centred feature matrix.  The singular value decomposition is
obtained from the eigendecomposition of the small ``k x k`` Gram matrix
of the centred features, lifted back to feature space and cleaned up
with modified Gram-Schmidt (two passes per column).

Distances to a subspace are always measured to the orthogonal
projection ``f* = basis @ basis.T @ (p - mean) + mean``, computed for a
batch of row vectors as ``(P - mean) @ basis @ basis.T + mean``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import matmul_rows
from .errors import ConfigError, DegenerateDomain, DimensionError

Array = np.ndarray

#: Singular values below ``rank_tolerance * s_max`` are treated as zero.
DEFAULT_RANK_TOLERANCE = 1e-8

_ORTHONORMALITY_TOL = 1e-10
_MEAN_TOL = 1e-12


def _locked_array(value, *, ndim: int, name: str) -> Array:
    arr = np.array(value, dtype=np.float64)
    if arr.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FeatureSet:
    """Reference features of one domain under one encoder."""

    features: Array  # (k, d)
    mean: Array  # (d,)
    domain_id: str = ""

    def __post_init__(self):
        feats = _locked_array(self.features, ndim=2, name="features")
        mean = _locked_array(self.mean, ndim=1, name="mean")
        if feats.shape[0] < 1:
            raise DegenerateDomain("a feature set needs at least one vector")
        if feats.shape[1] != mean.shape[0]:
            raise DimensionError(
                f"mean length {mean.shape[0]} does not match feature width {feats.shape[1]}"
            )
        if np.max(np.abs(mean - feats.mean(axis=0))) > _MEAN_TOL:
            raise ConfigError("stored mean is not the average of the features")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "mean", mean)

    @classmethod
    def from_features(cls, vectors, domain_id: str = "") -> "FeatureSet":
        feats = np.array(vectors, dtype=np.float64)
        if feats.ndim != 2:
            raise DimensionError(f"expected a (k, d) array, got shape {feats.shape}")
        return cls(features=feats, mean=feats.mean(axis=0), domain_id=domain_id)

    @property
    def k(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def save_csv(self, path) -> None:
        write_feature_csv(path, self.features)

    @classmethod
    def from_csv(cls, path, domain_id: str = "") -> "FeatureSet":
        return cls.from_features(read_feature_csv(path), domain_id=domain_id)


def write_feature_csv(path, features: Array) -> None:
    """Write a ``(k, d)`` feature matrix; first line is ``d,k``."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise DimensionError(f"expected a (k, d) array, got shape {feats.shape}")
    k, d = feats.shape
    lines = [f"{d},{k}"]
    for row in feats:
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_feature_csv(path) -> Array:
    with open(path, "r", encoding="utf8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty feature file")
    header = lines[0].split(",")
    if len(header) != 2:
        raise ConfigError(f"{path}: header must be 'd,k'")
    try:
        d, k = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ConfigError(f"{path}: non-integer header") from exc
    if len(lines) - 1 != k:
        raise ConfigError(f"{path}: header promises {k} rows, found {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != d:
            raise ConfigError(f"{path}: line {i} has {len(parts)} values, expected {d}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ConfigError(f"{path}: line {i} has a non-numeric value") from exc
    return np.array(rows, dtype=np.float64).reshape(k, d)


@dataclass(frozen=True)
class DomainSubspace:
    """Affine subspace ``{mean + basis @ c}`` with orthonormal basis columns."""

    mean: Array  # (d,)
    basis: Array  # (d, r); r == 0 encodes a single point
    singular_values: Array  # (r,)

    def __post_init__(self):
        mean = _locked_array(self.mean, ndim=1, name="mean")
        basis = np.array(self.basis, dtype=np.float64)
        if basis.ndim != 2:
            raise DimensionError(f"basis must be a matrix, got shape {basis.shape}")
        if not np.all(np.isfinite(basis)):
            raise ConfigError("basis contains non-finite entries")
        d, r = basis.shape
        if d != mean.shape[0]:
            raise DimensionError(f"basis has {d} rows but mean has length {mean.shape[0]}")
        if r > d:
            raise DimensionError(f"rank {r} exceeds ambient dimension {d}")
        svals = np.array(self.singular_values, dtype=np.float64)
        if svals.ndim != 1 or svals.shape[0] != r:
            raise DimensionError("need one singular value per basis column")
        if r > 0:
            if not np.all(svals > 0.0):
                raise ConfigError("singular values must be strictly positive")
            if np.any(np.diff(svals) > 0.0):
                raise ConfigError("singular values must be non-increasing")
            gram = basis.T @ basis
            if np.max(np.abs(gram - np.eye(r))) > _ORTHONORMALITY_TOL:
                raise ConfigError("basis columns are not orthonormal")
        basis.setflags(write=False)
        svals.setflags(write=False)
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

    @classmethod
    def from_json_dict(cls, data: dict) -> "DomainSubspace":
        try:
            mean = np.array(data["mean"], dtype=np.float64)
            basis = np.array(data["basis"], dtype=np.float64)
            svals = np.array(data["singular_values"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed subspace document: {exc}") from exc
        if basis.ndim == 1:
            # a rank-0 subspace serialises its basis as d empty rows
            basis = basis.reshape(mean.shape[0], 0)
        return cls(mean=mean, basis=basis, singular_values=svals)


def _orthonormalize(columns: Array) -> Array:
    """Modified Gram-Schmidt with one re-orthogonalization pass per column."""
    q = np.array(columns, dtype=np.float64)
    for j in range(q.shape[1]):
        for _ in range(2):
            for i in range(j):
                q[:, j] -= (q[:, i] @ q[:, j]) * q[:, i]
        norm = np.linalg.norm(q[:, j])
        if norm <= 0.0:
            raise DegenerateDomain("basis column collapsed during orthonormalization")
        q[:, j] /= norm
    return q


def build_subspace(
    features: FeatureSet,
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
    *,
    allow_point_subspace: bool = False,
) -> DomainSubspace:
    """Estimate the affine subspace spanned by a few-shot feature set.

    The rank keeps every singular value above ``rank_tolerance`` times
    the largest one, and never exceeds ``min(k - 1, d)``.  A single
    reference (``k == 1``) defines no direction at all: it is rejected
    unless ``allow_point_subspace`` is set, in which case a rank-0
    subspace (projection returns the mean) is produced.
    """
    if not (0.0 < rank_tolerance < 1.0):
        raise ConfigError(f"rank_tolerance must lie in (0, 1), got {rank_tolerance}")
    k, d = features.k, features.dim
    if k < 2:
        if allow_point_subspace:
            return DomainSubspace(
                mean=features.mean,
                basis=np.zeros((d, 0)),
                singular_values=np.zeros(0),
            )
        raise DegenerateDomain(
            f"{features.domain_id or 'feature set'}: {k} reference(s) cannot span a "
            "subspace; pass allow_point_subspace to accept a single point"
        )
    centered = features.features - features.mean
    gram = centered @ centered.T
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
    svals = np.sqrt(np.maximum(eigvals, 0.0))
    if svals[0] <= 0.0:
        raise DegenerateDomain(
            f"{features.domain_id or 'feature set'}: all centred features are zero"
        )
    rank = int(np.count_nonzero(svals > rank_tolerance * svals[0]))
    rank = min(rank, k - 1, d)
    lifted = centered.T @ eigvecs[:, :rank] / svals[:rank]
    # exact-arithmetic lifted columns are unit vectors; a tiny norm marks a
    # noise eigenvalue of an exactly degenerate set that slipped past the
    # rank cut (the Gram route's noise floor sits near sqrt(machine eps),
    # which is the default cut itself)
    keep = np.linalg.norm(lifted, axis=0) > 0.5
    basis = _orthonormalize(lifted[:, keep])
    return DomainSubspace(
        mean=features.mean, basis=basis, singular_values=svals[:rank][keep]
    )


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


def subspace_distance(subspace: DomainSubspace, point) -> float:
    return float(np.sqrt(subspace_distance_sq(subspace, point)))


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
    lines = ["domain_id,x,y"]
    for label, x, y in rows:
        lines.append(f"{label},{repr(x)},{repr(y)}")
    with open(path, "w", encoding="utf8") as fh:
        fh.write("\n".join(lines) + "\n")


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
    sets = [
        FeatureSet.from_features(np.array(points, dtype=np.float64), domain_id=label)
        for label, points in groups.items()
    ]
    return separation_ratio(sets)
