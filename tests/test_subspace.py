"""Affine subspace construction and projection against hand values and lstsq."""

import ast
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hda
from hda.errors import ConfigError, DegenerateDomain, DimensionError, NumericalError
from hda.files import json_doc, read_feature_csv, write_atomic, write_csv
from hda.seeding import stream_rng
from hda.subspace import (
    DomainSubspace,
    FeatureSet,
    build_subspace,
    pca2d_export,
    project,
    separation_ratio,
    separation_ratio_2d,
    subspace_distance_sq,
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
    doc = json.loads(json.dumps(json_doc(sub)))
    assert doc == {"mean": [1.0, 2.0], "basis": [[], []], "singular_values": []}


def _file_uses(node, scope: str, uses: set) -> set:
    """``(scope, what)`` for each function in ``node`` that uses json's readers or writers
    (``what`` is ``"json"``) or calls builtin ``open``, ``os.replace`` or ``os.remove``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = f"{scope.split('.')[0]}.{node.name}"
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "json"
        and node.attr in ("load", "loads", "dump", "dumps")
    ) or (isinstance(node, ast.ImportFrom) and node.module == "json"):
        uses.add((scope, "json"))
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            uses.add((scope, "open"))
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "os"
            and func.attr in ("replace", "remove")
        ):
            uses.add((scope, f"os.{func.attr}"))
    for child in ast.iter_child_nodes(node):
        _file_uses(child, scope, uses)
    return uses


def test_json_is_read_and_written_only_by_read_json_and_write_json():
    uses: set = set()
    for path in sorted(Path(hda.__file__).parent.glob("*.py")):
        _file_uses(ast.parse(path.read_text(encoding="utf8")), path.stem, uses)
    assert {scope for scope, what in uses if what == "json"} == {
        "files.read_json",
        "files.write_json",
    }
    # every file is opened, replaced and removed in hda.files alone
    assert {scope.split(".")[0] for scope, _ in uses} == {"files"}
    assert {(scope, what) for scope, what in uses if what != "json"} == {
        ("files.read_json", "open"),
        ("files.write_atomic", "open"),
        ("files.write_atomic", "os.replace"),
        ("files.write_atomic", "os.remove"),
        ("files.read_feature_csv", "open"),
    }


def test_feature_csv_round_trip(tmp_path):
    rng = stream_rng(5, "subspace-test")
    feats = rng.standard_normal((10, 16))
    path = tmp_path / "refs.csv"
    write_csv(path, ("16", "10"), feats)
    np.testing.assert_array_equal(read_feature_csv(path), feats)


#: ``(header, good row, index of a number in it)`` of each CSV the package writes:
#: reference features, ``export-viz`` coordinates and the ablation grid
_CSV_LAYOUTS = {
    "refs.csv": (("4", "3"), [1.0, 2.0, 3.0, 4.0], 2),
    "viz.csv": (("domain_id", "x", "y"), ("a", 0.5, 1.0), 1),
    "ablation.csv": (
        ("variant", "encoder_mode", "encoder_ids", "final_total", "consistency", "diversity"),
        ("full", "ensemble", "train0|train1", 0.25, 0.5, 0.75),
        5,
    ),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_csv_writers_refuse_non_finite_values_and_leave_no_file(tmp_path, bad):
    for name, (header, good, at) in _CSV_LAYOUTS.items():
        broken = list(good)
        broken[at] = bad
        path = tmp_path / "out" / name
        with pytest.raises(NumericalError, match=f"{name}: refusing to write a non-finite"):
            write_csv(path, header, [good, broken])
        # nothing is written, not even the missing directory
        assert list(tmp_path.iterdir()) == []
        write_csv(path, header, [good])
        assert path.read_text(encoding="utf8").splitlines()[1] == ",".join(
            v if isinstance(v, str) else repr(v) for v in good
        )
        path.unlink()
        path.parent.rmdir()


def test_write_atomic_creates_a_missing_parent_and_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "a" / "b" / "out.json"
    write_atomic(path, "one\n")
    write_atomic(path, "two\n")
    assert path.read_text(encoding="utf8") == "two\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a", "b", "out.json"]


def test_feature_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("3,2\n1.0,2.0,3.0\n", encoding="utf8")
    with pytest.raises(ConfigError):
        read_feature_csv(path)


def test_separation_ratio_hand_value():
    a = FeatureSet(np.array([[0.0, 0.0], [0.0, 2.0]]), domain_id="a")
    b = FeatureSet(np.array([[10.0, 0.0], [10.0, 2.0]]), domain_id="b")
    assert separation_ratio([a, b]) == pytest.approx(10.0, rel=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_means_and_ratios_equal_numpys_bit_for_bit(seed):
    # FeatureSet and separation_ratio skip np.mean's and np.linalg.norm's wrappers
    rng = stream_rng(seed, "reduction-oracle")
    d = int(rng.integers(1, 40))
    sets = [
        FeatureSet(
            rng.standard_normal((int(rng.integers(1, 300)), d)) * 10.0 ** rng.uniform(-3, 3)
            + rng.standard_normal(d)
        )
        for _ in range(int(rng.integers(2, 5)))
    ]
    for fs in sets:
        assert fs.mean.tobytes() == np.mean(fs.features, axis=0).tobytes()
    stack = rng.standard_normal((3, int(rng.integers(1, 30)), d))
    for fs, x in zip(FeatureSet.stack(stack), stack):
        assert fs.features.tobytes() == x.tobytes()
        assert fs.mean.tobytes() == np.mean(x, axis=0).tobytes()
    spreads = [float(np.mean(np.linalg.norm(fs.features - fs.mean, axis=1))) for fs in sets]
    assert [fs.spread for fs in sets] == spreads
    gaps = [float(np.linalg.norm(a.mean - b.mean)) for a, b in itertools.combinations(sets, 2)]
    assert separation_ratio(sets) == min(gaps) / float(np.mean(spreads))
    # a (E, n, k, d) grid: nested lists of sets, each equal to its slice's own set
    n = int(rng.integers(2, 12))
    grid = rng.standard_normal((3, n, int(rng.integers(1, 30)), d)) * 10.0 ** rng.uniform(-3, 3)
    ids = [f"d{j}" for j in range(n)]
    rows = FeatureSet.stack(grid, ids)
    for row, block in zip(rows, grid):
        for fs, x, domain_id in zip(row, block, ids):
            alone = FeatureSet(x, domain_id=domain_id)
            assert fs.domain_id == domain_id and fs.features.tobytes() == x.tobytes()
            assert fs.mean.tobytes() == np.mean(x, axis=0).tobytes() == alone.mean.tobytes()
            assert fs.spread == alone.spread
    assert [fs.domain_id for fs in FeatureSet.stack(grid[0], "one")] == ["one"] * n
    # a stack of rows gives each row's ratio alone
    assert separation_ratio(rows) == [
        separation_ratio([FeatureSet(fs.features) for fs in row]) for row in rows
    ]


def test_a_stack_names_its_degenerate_domain():
    rng = stream_rng(4, "degenerate-stack")
    fine = FeatureSet(rng.standard_normal((3, 4)), domain_id="fine")
    flat = FeatureSet(np.ones((3, 4)), domain_id="flat")
    with pytest.raises(DegenerateDomain, match="^flat: all centred features are zero"):
        build_subspace([fine, flat])
    with pytest.raises(DegenerateDomain, match="^solo: 1 reference"):
        build_subspace(FeatureSet.stack(rng.standard_normal((2, 1, 4)), domain_id="solo"))
    with pytest.raises(DimensionError, match=r"one \(k, d\)"):
        build_subspace([fine, FeatureSet(rng.standard_normal((4, 4)))])
    with pytest.raises(DegenerateDomain, match="no feature sets"):
        build_subspace([])


def test_separation_ratio_needs_two_sets():
    a = FeatureSet(np.zeros((2, 2)), domain_id="a")
    with pytest.raises(ConfigError):
        separation_ratio([a])
    with pytest.raises(ConfigError, match="all of one length"):
        separation_ratio([[a, a], [a]])


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
    write_csv(path, ("domain_id", "x", "y"), rows)
    assert path.read_text(encoding="utf8").count("\n") == 41


def _separation_ratio_2d_by_lists(rows):
    """The ratio over rows grouped through Python lists, as the module once did."""
    groups = {}
    for label, x, y in rows:
        groups.setdefault(label, []).extend((x, y))
    sets = [FeatureSet(np.reshape(xy, (-1, 2)), domain_id=label) for label, xy in groups.items()]
    return separation_ratio(sets)


@pytest.mark.parametrize("seed", range(5))
def test_separation_ratio_2d_of_interleaved_labels_equals_the_list_grouping(seed):
    rng = stream_rng(seed, "subspace-test")
    centres = {"c": (0.0, 0.0), "a": (3.0, 0.5), "b": (-1.0, 4.0)}
    labels = rng.choice(list(centres), size=60).tolist()
    rows = [
        (label, *(np.add(centres[label], rng.standard_normal(2)) * 1.7).tolist())
        for label in labels
    ]
    assert separation_ratio_2d(rows) == _separation_ratio_2d_by_lists(rows)


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
