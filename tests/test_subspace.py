"""Affine subspace construction and projection against hand values and lstsq."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hda.errors import ConfigError, DegenerateDomain, NumericalError
from hda.seeding import stream_rng
from hda.subspace import (
    DomainSubspace,
    FeatureSet,
    build_subspace,
    pca2d_export,
    project,
    read_feature_csv,
    separation_ratio,
    separation_ratio_2d,
    subspace_distance_sq,
    write_feature_csv,
    write_pca2d_csv,
)


def _sub_from(points) -> DomainSubspace:
    return build_subspace(FeatureSet(np.asarray(points, dtype=np.float64)))


def test_plane_from_three_points():
    sub = _sub_from([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    np.testing.assert_allclose(sub.mean, [2 / 3, 2 / 3, 0.0], atol=1e-12)
    assert sub.rank == 2
    projector = sub.basis @ sub.basis.T
    np.testing.assert_allclose(projector, np.diag([1.0, 1.0, 0.0]), atol=1e-10)
    np.testing.assert_allclose(
        project(sub, np.array([0.5, 0.5, 5.0])), [0.5, 0.5, 0.0], atol=1e-10
    )


def test_line_from_two_points():
    sub = _sub_from([[0.0, 0.0], [2.0, 0.0]])
    np.testing.assert_allclose(sub.mean, [1.0, 0.0], atol=1e-12)
    assert sub.rank == 1
    assert abs(sub.basis[0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert sub.basis[1, 0] == pytest.approx(0.0, abs=1e-12)


def test_repeated_points_do_not_inflate_rank():
    p, q = [0.0, 1.0, 2.0], [3.0, 1.0, 2.0]
    sub = _sub_from([p, q, p, q, p, q])
    assert sub.rank == 1


def test_rank_capped_by_shot_count():
    rng = stream_rng(0, "subspace-test")
    sub = _sub_from(rng.standard_normal((3, 16)))
    assert sub.rank == 2


@pytest.mark.parametrize("s2", [2e-8, 5e-8, 1e-7, 1e-6])
def test_small_second_singular_value_is_exact(s2):
    # centred features U diag(1, s2) V^T: a Gram-matrix eigen-route squares
    # s2 to ~1e-15, below its own rounding noise, and loses it
    rng = stream_rng(4, "subspace-test", s2)
    for _ in range(50):
        a = rng.standard_normal((10, 2))
        u, _ = np.linalg.qr(a - a.mean(axis=0))
        v, _ = np.linalg.qr(rng.standard_normal((16, 2)))
        sub = _sub_from(3.0 + u @ np.diag([1.0, s2]) @ v.T)
        assert sub.rank == 2
        np.testing.assert_allclose(sub.singular_values, [1.0, s2], rtol=1e-6)


def test_distance_to_axis_line():
    sub = _sub_from([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
    point = np.array([2.0, 3.0, 4.0])
    np.testing.assert_allclose(project(sub, point), [2.0, 0.0, 0.0], atol=1e-12)
    assert subspace_distance_sq(sub, point) == pytest.approx(25.0, rel=1e-12)


def test_projection_invariants_on_random_instances():
    rng = stream_rng(1, "subspace-test")
    for _ in range(50):
        k = int(rng.integers(2, 9))
        d = int(rng.integers(2, 13))
        sub = _sub_from(rng.standard_normal((k, d)))
        p = 3.0 * rng.standard_normal(d)
        proj = project(sub, p)
        # projecting twice changes nothing
        np.testing.assert_allclose(project(sub, proj), proj, atol=1e-12)
        # the residual is perpendicular to every basis direction
        residual = p - proj
        assert np.max(np.abs(sub.basis.T @ residual)) <= 1e-9
        # the mean is its own projection
        np.testing.assert_allclose(project(sub, sub.mean), sub.mean, atol=1e-12)


def test_projection_invariant_under_basis_rotation():
    rng = stream_rng(2, "subspace-test")
    sub = _sub_from(rng.standard_normal((6, 10)))
    q, _ = np.linalg.qr(rng.standard_normal((sub.rank, sub.rank)))
    rotated = DomainSubspace(
        mean=sub.mean, basis=sub.basis @ q, singular_values=sub.singular_values.copy()
    )
    p = rng.standard_normal(10)
    np.testing.assert_allclose(project(rotated, p), project(sub, p), atol=1e-10)


def test_distance_matches_least_squares():
    rng = stream_rng(3, "subspace-test")
    for _ in range(200):
        k = int(rng.integers(2, 11))
        d = int(rng.integers(2, 33))
        sub = _sub_from(rng.standard_normal((k, d)))
        p = 2.0 * rng.standard_normal(d)
        got = subspace_distance_sq(sub, p)
        coeffs, _, _, _ = np.linalg.lstsq(sub.basis, p - sub.mean, rcond=None)
        want = float(np.sum((sub.mean + sub.basis @ coeffs - p) ** 2))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def _point_subspace(mean) -> DomainSubspace:
    mean = np.asarray(mean, dtype=float)
    return DomainSubspace(mean=mean, basis=np.zeros((mean.size, 0)), singular_values=np.zeros(0))


def test_single_shot_requires_opt_in():
    # one reference spans no direction; a point subspace is built directly
    with pytest.raises(DegenerateDomain, match="1 reference"):
        build_subspace(FeatureSet(np.array([[1.0, 2.0, 3.0]])))
    sub = _point_subspace([1.0, 2.0, 3.0])
    assert sub.rank == 0
    np.testing.assert_allclose(project(sub, np.array([9.0, 9.0, 9.0])), sub.mean)
    assert subspace_distance_sq(sub, np.array([1.0, 2.0, 4.0])) == pytest.approx(1.0)


def test_point_subspace_json_document():
    sub = _point_subspace([1.0, 2.0])
    # a rank-0 subspace writes its basis as d empty rows
    doc = json.loads(json.dumps(sub.to_json_dict()))
    assert doc == {"mean": [1.0, 2.0], "basis": [[], []], "singular_values": []}


def test_feature_csv_round_trip(tmp_path):
    rng = stream_rng(5, "subspace-test")
    feats = rng.standard_normal((10, 16))
    path = tmp_path / "refs.csv"
    write_feature_csv(path, feats)
    np.testing.assert_array_equal(read_feature_csv(path), feats)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_csv_writers_refuse_non_finite_values_and_leave_no_file(tmp_path, bad):
    feats = np.ones((3, 4))
    feats[1, 2] = bad
    path = tmp_path / "refs.csv"
    with pytest.raises(NumericalError, match="refs.csv: refusing to write a non-finite"):
        write_feature_csv(path, feats)
    with pytest.raises(NumericalError, match="viz.csv: refusing to write a non-finite"):
        write_pca2d_csv(tmp_path / "viz.csv", [("a", 0.5, 1.0), ("b", bad, 2.0)])
    assert list(tmp_path.iterdir()) == []


def test_feature_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("3,2\n1.0,2.0,3.0\n", encoding="utf8")
    with pytest.raises(ConfigError):
        read_feature_csv(path)


def test_separation_ratio_hand_value():
    a = FeatureSet(np.array([[0.0, 0.0], [0.0, 2.0]]), domain_id="a")
    b = FeatureSet(np.array([[10.0, 0.0], [10.0, 2.0]]), domain_id="b")
    assert separation_ratio([a, b]) == pytest.approx(10.0, rel=1e-12)


def test_separation_ratio_needs_two_sets():
    a = FeatureSet(np.zeros((2, 2)), domain_id="a")
    with pytest.raises(ConfigError):
        separation_ratio([a])


def test_pca2d_separates_distinct_clusters(tmp_path):
    rng = stream_rng(6, "subspace-test")
    d = 16
    offset = np.zeros(d)
    offset[0] = 10.0
    a = FeatureSet(offset + 0.1 * rng.standard_normal((20, d)), domain_id="a")
    b = FeatureSet(-offset + 0.1 * rng.standard_normal((20, d)), domain_id="b")
    rows = pca2d_export([a, b])
    assert len(rows) == 40
    ax = np.mean([x for label, x, y in rows if label == "a"])
    bx = np.mean([x for label, x, y in rows if label == "b"])
    assert abs(ax - bx) == pytest.approx(20.0, abs=1.0)
    assert separation_ratio_2d(rows) > 10.0
    # the CSV export carries the same rows
    path = tmp_path / "viz.csv"
    write_pca2d_csv(path, rows)
    assert path.read_text(encoding="utf8").count("\n") == 41


def test_pca2d_needs_three_points():
    a = FeatureSet(np.zeros((2, 4)), domain_id="a")
    with pytest.raises(DegenerateDomain):
        pca2d_export([a])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 8), d=st.integers(2, 12))
def test_projection_never_increases_distance(seed, k, d):
    rng = stream_rng(seed, "subspace-prop")
    sub = _sub_from(rng.standard_normal((k, d)))
    p = 3.0 * rng.standard_normal(d)
    proj = project(sub, p)
    # any other subspace point is at least as far away as the projection
    other = sub.mean + sub.basis @ rng.standard_normal(sub.rank)
    assert np.sum((p - proj) ** 2) <= np.sum((p - other) ** 2) + 1e-9


def _oracle_features(rng, kind: str, k: int, d: int, s2: float):
    """``(k, d)`` features: spread rows, a few rows repeated, or a tiny second singular value."""
    if kind == "spread":
        return 10.0 ** rng.integers(-3, 4) * rng.standard_normal((k, d))
    if kind == "repeated":
        distinct = rng.standard_normal((int(rng.integers(min(k, 2), k + 1)), d))
        return np.resize(distinct, (k, d))
    # the construction of test_small_second_singular_value_is_exact
    a = rng.standard_normal((k, 2))
    u, _ = np.linalg.qr(a - a.mean(axis=0))
    v, _ = np.linalg.qr(rng.standard_normal((d, 2)))
    return 3.0 + u @ np.diag([1.0, s2]) @ v.T


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(2, 12),
    d=st.integers(1, 33),
    kind=st.sampled_from(["spread", "repeated", "near-rank-deficient"]),
    s2=st.sampled_from([1e-9, 2e-8, 1e-7, 1e-6]),
)
def test_built_subspaces_hold_the_invariants_the_constructors_trust(seed, k, d, kind, s2):
    # FeatureSet and DomainSubspace check shapes only; the invariants of
    # build_subspace's output are checked here
    if kind == "near-rank-deficient":
        assume(k >= 3 and d >= 2)
    x = _oracle_features(stream_rng(seed, "subspace-oracle"), kind, k, d, s2)
    fs = FeatureSet(x)
    sub = build_subspace(fs)
    r = sub.rank
    np.testing.assert_allclose(sub.basis.T @ sub.basis, np.eye(r), rtol=0.0, atol=1e-10)
    assert np.all(sub.singular_values > 0.0)
    assert np.all(np.diff(sub.singular_values) <= 0.0)
    assert r <= min(k - 1, d)
    np.testing.assert_allclose(fs.mean, x.mean(axis=0), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(sub.mean, x.mean(axis=0), rtol=0.0, atol=1e-12)
    for arr in (fs.features, fs.mean, sub.mean, sub.basis, sub.singular_values):
        assert not arr.flags.writeable
