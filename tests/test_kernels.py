"""Cross-checks of the intersection-volume kernel against an oracle.

``_kernels.intersection_volume`` clips one polytope's faces against the
other's half-spaces; the oracle below collects points and takes their
convex hull with Qhull. The two are algorithmically unrelated, so their
agreement on random poses is strong evidence for both; a Monte-Carlo
estimate referees a few cases from a third direction.
"""

import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from rhombikit import _kernels
from rhombikit.geometry import (
    CANONICAL_VERTICES,
    FACE_VERTICES,
    _swept_cells_uncached,
    blocker_table,
    rotation_from_axis_angle,
)
from rhombikit.lattice import FACE_DIRS


def _loop_edges(polys):
    """Endpoints (P, Q) of every polygon boundary edge, the polygons being
    of any lengths.

    Edges shared by two faces appear twice; duplicates only add repeated
    candidate points, which the hull does not mind.
    """
    loops = [np.asarray(poly, dtype=float) for poly in polys]
    return np.vstack(loops), np.vstack([np.roll(p, -1, axis=0) for p in loops])


def _edge_crossings(p, q, planes_cut, planes_a, planes_b, eps):
    """Edge/plane crossing points lying inside both polytopes."""
    d = q - p
    nrm = planes_cut[:, :3]
    dn = d @ nrm.T  # (E, K)
    pn = p @ nrm.T - planes_cut[:, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -pn / dn
    ok = (np.abs(dn) > 1e-300) & (t >= -1e-12) & (t <= 1.0 + 1e-12)
    ei, ki = np.nonzero(ok)
    if len(ei) == 0:
        return np.empty((0, 3))
    x = p[ei] + np.clip(t[ei, ki], 0.0, 1.0)[:, None] * d[ei]
    inside = np.all(x @ planes_a[:, :3].T - planes_a[:, 3] <= eps, axis=1) & np.all(
        x @ planes_b[:, :3].T - planes_b[:, 3] <= eps, axis=1
    )
    return x[inside]


_EPS = 1e-9  # the kernel's in-plane tolerance


def _hull_volume(polys_a, planes_a, polys_b, planes_b):
    """Volume of the intersection via point collection + convex hull.

    The intersection of two convex polytopes is the convex hull of: A's
    vertices inside B, B's vertices inside A, and every edge-facet
    crossing point that lies inside both. Degenerate (flat or empty)
    collections have zero volume. The inputs may be any nested sequences,
    as the kernel's may: the blocker sweep passes lists.
    """
    planes_a, planes_b = np.asarray(planes_a), np.asarray(planes_b)
    pa, qa = _loop_edges(polys_a)
    pb, qb = _loop_edges(polys_b)

    chunks = [
        pa[np.all(pa @ planes_b[:, :3].T - planes_b[:, 3] <= _EPS, axis=1)],
        pb[np.all(pb @ planes_a[:, :3].T - planes_a[:, 3] <= _EPS, axis=1)],
        _edge_crossings(pa, qa, planes_b, planes_a, planes_b, _EPS),
        _edge_crossings(pb, qb, planes_a, planes_a, planes_b, _EPS),
    ]
    arr = np.vstack(chunks)
    if len(arr) < 4:
        return 0.0
    if np.ptp(arr, axis=0).min() < 1e-12:
        return 0.0  # axis-aligned flat set, zero volume
    try:
        return float(ConvexHull(arr, qhull_options="Pp").volume)
    except QhullError:
        return 0.0  # coplanar or otherwise degenerate: grazing contact


_BASE_POLYS = np.array(
    [[CANONICAL_VERTICES[i] for i in loop] for loop in FACE_VERTICES], dtype=float
)
_DIRS = np.array(FACE_DIRS, dtype=float)


def _cell(rot: np.ndarray, shift: np.ndarray):
    """Face polygons and half-spaces of a rotated, shifted cell."""
    polys = np.einsum("ij,fvj->fvi", rot, _BASE_POLYS) + shift
    normals = _DIRS @ rot.T
    planes = np.hstack([normals, (normals @ shift + 2.0)[:, None]])
    return polys, planes


def _both(a, b):
    """(oracle, kernel) volumes of the same pair."""
    va = _hull_volume(*a, *b)
    vb = _kernels.intersection_volume(*a, *b)
    return va, vb


def _mc_volume(planes_a, planes_b, rng, n=200_000):
    """Monte-Carlo referee: sample the joint bounding box."""
    pts = rng.uniform(-4.5, 4.5, size=(n, 3))
    inside = np.all(pts @ planes_a[:, :3].T - planes_a[:, 3] <= 0, axis=1) & np.all(
        pts @ planes_b[:, :3].T - planes_b[:, 3] <= 0, axis=1
    )
    return inside.mean() * 9.0**3


class TestKnownVolumes:
    def test_identical_cells(self):
        a = _cell(np.eye(3), np.zeros(3))
        va, vb = _both(a, a)
        assert va == pytest.approx(16.0, abs=1e-9)
        assert vb == pytest.approx(16.0, abs=1e-9)

    def test_face_touching_neighbors_zero(self):
        a = _cell(np.eye(3), np.zeros(3))
        b = _cell(np.eye(3), 2.0 * np.array((1.0, 1.0, 0.0)))
        va, vb = _both(a, b)
        assert va == pytest.approx(0.0, abs=1e-12)
        assert vb == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_cells_zero(self):
        a = _cell(np.eye(3), np.zeros(3))
        b = _cell(np.eye(3), np.array((10.0, 0.0, 0.0)))
        va, vb = _both(a, b)
        assert va == 0.0 and vb == 0.0

    def test_half_shift_overlap_symmetry(self):
        # sliding one cell along a face normal: both paths agree and the
        # overlap shrinks monotonically
        a = _cell(np.eye(3), np.zeros(3))
        prev = 16.0
        for frac in (0.25, 0.5, 0.75, 1.0):
            b = _cell(np.eye(3), 2.0 * frac * np.array((1.0, 1.0, 0.0)))
            va, vb = _both(a, b)
            assert va == pytest.approx(vb, abs=1e-9)
            assert va <= prev + 1e-12
            prev = va


class TestCrossValidation:
    def test_random_poses_agree(self):
        # each pair is also moved by a common offset, which must not
        # change the kernel's volume (the offsets have their own generator,
        # so the poses are those the test has always drawn)
        rng = np.random.default_rng(2024)
        offsets = np.random.default_rng(2025).uniform(-50.0, 50.0, size=(150, 3))
        disagreements = []
        for offset in offsets:
            rot_a = rotation_from_axis_angle(rng.normal(size=3), rng.uniform(0, 360))
            rot_b = rotation_from_axis_angle(rng.normal(size=3), rng.uniform(0, 360))
            shift = rng.uniform(-3.0, 3.0, size=3)
            a = _cell(rot_a, np.zeros(3))
            b = _cell(rot_b, shift)
            va, vb = _both(a, b)
            if abs(va - vb) > 1e-8:
                disagreements.append((shift, va, vb))
            a = _cell(rot_a, offset)
            b = _cell(rot_b, shift + offset)
            moved = _kernels.intersection_volume(*a, *b)
            if abs(moved - vb) > 1e-9:
                disagreements.append((offset, vb, moved))
        assert not disagreements

    def test_monte_carlo_referee(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            rot_b = rotation_from_axis_angle(rng.normal(size=3), rng.uniform(0, 360))
            shift = rng.uniform(-1.5, 1.5, size=3)
            a = _cell(np.eye(3), np.zeros(3))
            b = _cell(rot_b, shift)
            va, vb = _both(a, b)
            mc = _mc_volume(a[1], b[1], rng)
            assert va == pytest.approx(vb, abs=1e-9)
            assert va == pytest.approx(mc, abs=0.35)  # ~3 sigma for 2e5 samples

    def test_scaled_tetrahedron_pair(self):
        # non-cell convex inputs: clipped tetra against a cell, as given
        # and with both moved off the origin; faces CCW from outside
        tet = np.array(
            [
                [[0, 3, 0], [3, 0, 0], [0, 0, 0]],
                [[3, 0, 0], [0, 0, 3], [0, 0, 0]],
                [[0, 0, 3], [0, 3, 0], [0, 0, 0]],
                [[0, 3, 0], [0, 0, 3], [3, 0, 0]],
            ],
            dtype=float,
        )
        loops = tet.tolist()
        edges = [list(zip(loop, loop[1:] + loop[:1])) for loop in loops]
        assert _kernels.fan_volume(edges) == pytest.approx(4.5)  # 27/6
        # half-space form of the tetra
        planes_t = np.array(
            [
                [0.0, 0.0, -1.0, 0.0],
                [0.0, -1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0],
                [1 / math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3), 3 / math.sqrt(3)],
            ]
        )
        for shift in (np.zeros(3), np.array((0.5, -1.0, 2.0))):
            polys = tet + shift
            planes = planes_t.copy()
            planes[:, 3] += planes_t[:, :3] @ shift
            cell = _cell(np.eye(3), shift)
            va = _hull_volume(polys, planes, *cell)
            vb = _kernels.intersection_volume(polys, planes, *cell)
            assert va == pytest.approx(vb, abs=1e-9)
            assert va == pytest.approx(2.0, abs=1e-9)  # partially outside


class TestBlockerTable:
    def test_swept_roll_matches_hull_oracle(self, monkeypatch):
        # the table's swept roll, recomputed with the hull oracle in the
        # kernel's place; the table itself was built by the kernel
        table = blocker_table()
        monkeypatch.setattr(_kernels, "intersection_volume", _hull_volume)
        swept = _swept_cells_uncached(FACE_DIRS[0], FACE_DIRS[1])
        assert swept == table[(0, 1)]

    def test_swept_roll_literal(self):
        # the one swept roll, FACE_DIRS[0] -> FACE_DIRS[1], written out
        assert blocker_table()[(0, 1)] == {
            (-2, -2, 0), (-2, -1, -1), (-2, -1, 1), (-2, 0, -2), (-2, 0, 0),
            (-2, 1, -1), (-1, -2, -1), (-1, -1, -2), (0, -1, -1),
        }
