"""Cross-checks of the intersection-volume kernel against an oracle.

``_kernels.intersection_volume`` clips one polytope's faces against the
other's half-spaces; the oracle below collects points and takes their
convex hull with Qhull. The two are algorithmically unrelated, so their
agreement on random poses is strong evidence for both; a Monte-Carlo
estimate referees a few cases from a third direction.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from rhombikit import _kernels
from rhombikit.geometry import (
    _VOL_EPS,
    CANONICAL_VERTICES,
    FACE_VERTICES,
    _planes_and_axes,
    _rodrigues,
    _swept_cells_uncached,
    blocker_table,
    roll_transform,
    rotation_from_axis_angle,
    shared_face_edge,
)
from rhombikit.lattice import FACE_DIRS, ROLLS


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

    def test_swept_roll_by_the_kernel_alone(self):
        # the reference sweep: the kernel at every 1-degree pose on every
        # candidate whose circumsphere meets the mover's, with no sphere
        # or plane test; the mover built by roll_transform in numpy
        f, t = FACE_DIRS[0], FACE_DIRS[1]
        home = 2.0 * np.array(f, dtype=float)
        angles = [k * math.radians(1.0) for k in range(120)] + [2.0 * math.pi / 3.0]
        movers = []
        for theta in angles:
            rot, trans = roll_transform(f, t, theta)
            centre = rot @ home + trans
            movers.append((centre, _cell(rot, centre)))
        skip = {(0, 0, 0), f, t}
        blockers, calls = set(), 0
        for q in itertools.product(range(-3, 4), repeat=3):
            if sum(q) % 2 or q in skip:
                continue
            w = 2.0 * np.array(q, dtype=float)
            cell = _cell(np.eye(3), w)
            for centre, mover in movers:
                if np.linalg.norm(centre - w) < 4.0:
                    calls += 1
                    if _kernels.intersection_volume(*mover, *cell) > _VOL_EPS:
                        blockers.add(q)
        assert calls == 1641
        assert blockers == blocker_table()[(0, 1)]

    def test_build_calls_the_kernel_only_for_real_overlaps(self, monkeypatch):
        # 3 calls today; at least one, so that a traced build still
        # times the kernel
        calls = []
        kernel = _kernels.intersection_volume
        monkeypatch.setattr(
            _kernels, "intersection_volume", lambda *a: calls.append(a) or kernel(*a)
        )
        _swept_cells_uncached(FACE_DIRS[0], FACE_DIRS[1])
        assert 1 <= len(calls) <= 9


def _grazing_poses(rng):
    """(rotation rows, centre, must clear) of a mover posed against the
    cell at the origin, for the plane test's hardest cases: the neighbour
    across each face, slid along the face normal so that the two overlap
    by depths from 1e-13 to 1e-5 (d.x units) or part by as much; that
    neighbour turned about each edge of the shared face by angles from
    1e-13 to 1 radian either way, which lifts it off the face onto the
    edge alone when it turns toward the next face; and seeded random
    poses near the contact distance. Exact contacts and gaps must clear."""
    depths = [0.0] + [s * 10.0**e for e in np.arange(-13.0, -4.9, 0.5) for s in (1, -1)]
    eye = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    for d in FACE_DIRS:
        for depth in depths:
            yield eye, tuple((2.0 - depth / 2.0) * x for x in d), depth <= 0.0
    for i, d in enumerate(FACE_DIRS):
        for j in ROLLS[i]:
            e0, e1 = shared_face_edge(d, FACE_DIRS[j])  # an edge of face d
            axis = tuple(b - a for a, b in zip(e0, e1))
            home = tuple(2.0 * x - a for x, a in zip(d, e0))
            for theta in [0.0] + [s * 10.0**e for e in range(-13, 1) for s in (1, -1)]:
                rot = _rodrigues(axis, theta)
                c = tuple(sum(r * x for r, x in zip(row, home)) + a for row, a in zip(rot, e0))
                lifts = sum(x * (ci - 2.0 * di) for x, ci, di in zip(FACE_DIRS[j], c, d)) >= 0
                yield rot, c, theta == 0.0 or lifts
    for _ in range(300):
        rot = _rodrigues(rng.normal(size=3).tolist(), rng.uniform(0.0, 2.0 * math.pi))
        u = rng.normal(size=3)
        c = tuple((rng.uniform(2.0 * math.sqrt(2.0), 4.0) * u / np.linalg.norm(u)).tolist())
        yield rot, c, False


def test_plane_test_clears_only_what_carries_no_volume():
    # the sweep's plane test counts two cells as separated when they
    # overlap by less than its tolerance along a face normal; wherever it
    # does, the overlap's volume must be below the blocking threshold
    origin = _cell(np.eye(3), np.zeros(3))
    cleared = settled = 0
    for rot, c, must_clear in _grazing_poses(np.random.default_rng(29)):
        _, axes = _planes_and_axes(rot, c)
        clear = any(lim < 0.0 for *_, lim in axes)  # n.w > lim at w = 0
        settled += must_clear
        assert clear or not must_clear, (rot, c)
        if clear:
            cleared += 1
            mover = _cell(np.array(rot), np.array(c))
            assert _hull_volume(*mover, *origin) <= _VOL_EPS, (rot, c)
    assert settled > 100 and cleared > settled
