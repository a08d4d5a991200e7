"""Cross-checks of the intersection-volume kernel against an oracle.

The oracle below clips one polytope's faces against the other's
half-spaces; ``_kernels.intersection_volume`` collects points and takes
their convex hull. The two are algorithmically unrelated, so their
agreement on random poses is strong evidence for both; a Monte-Carlo
estimate referees a few cases from a third direction.
"""

import math

import numpy as np
import pytest

from rhombikit import _kernels
from rhombikit.geometry import CANONICAL_VERTICES, FACE_VERTICES, rotation_from_axis_angle
from rhombikit.lattice import FACE_DIRS

_MAXV = 32  # max vertices a clipped face can accumulate (12 clips of a quad)


def _clip_volume(polys_a, lens_a, planes_a, polys_b, lens_b, planes_b, eps):
    """Volume of the intersection by clipping A against B's half-spaces.

    Sutherland-Hodgman in 3D: every face polygon of A is clipped against
    each plane of B in turn; each cut contributes a cap polygon built from
    the clip-segment endpoints ordered around their centroid. The volume
    of what survives comes from the divergence theorem over triangle fans.
    A's own planes are accepted for signature parity and not used.
    """
    nf = polys_a.shape[0]
    maxv = polys_a.shape[1]
    nfmax = nf + planes_b.shape[0]
    cur = np.zeros((nfmax, maxv, 3))
    cur_len = np.zeros(nfmax, dtype=np.int64)
    cur[:nf, :, :] = polys_a
    cur_len[:nf] = lens_a
    n_faces = nf

    out = np.zeros((nfmax, maxv, 3))
    out_len = np.zeros(nfmax, dtype=np.int64)
    section = np.zeros((2 * nfmax, 3))

    for k in range(planes_b.shape[0]):
        nx, ny, nz, c = planes_b[k, 0], planes_b[k, 1], planes_b[k, 2], planes_b[k, 3]
        n_out = 0
        n_sec = 0
        alive = False
        for f in range(n_faces):
            m = cur_len[f]
            if m == 0:
                continue
            nv = 0
            for i in range(m):
                px, py, pz = cur[f, i, 0], cur[f, i, 1], cur[f, i, 2]
                j = (i + 1) % m
                qx, qy, qz = cur[f, j, 0], cur[f, j, 1], cur[f, j, 2]
                dp = nx * px + ny * py + nz * pz - c
                dq = nx * qx + ny * qy + nz * qz - c
                pin = dp <= eps
                qin = dq <= eps
                if pin:
                    out[n_out, nv, 0] = px
                    out[n_out, nv, 1] = py
                    out[n_out, nv, 2] = pz
                    nv += 1
                if pin != qin and abs(dp - dq) > 1e-300:
                    t = dp / (dp - dq)
                    if t < 0.0:
                        t = 0.0
                    elif t > 1.0:
                        t = 1.0
                    ix = px + t * (qx - px)
                    iy = py + t * (qy - py)
                    iz = pz + t * (qz - pz)
                    out[n_out, nv, 0] = ix
                    out[n_out, nv, 1] = iy
                    out[n_out, nv, 2] = iz
                    nv += 1
                    section[n_sec, 0] = ix
                    section[n_sec, 1] = iy
                    section[n_sec, 2] = iz
                    n_sec += 1
            if nv >= 3:
                out_len[n_out] = nv
                n_out += 1
                alive = True
        if not alive:
            return 0.0
        # cap polygon: order unique section points around their centroid
        if n_sec >= 3:
            cx = 0.0
            cy = 0.0
            cz = 0.0
            for i in range(n_sec):
                cx += section[i, 0]
                cy += section[i, 1]
                cz += section[i, 2]
            cx /= n_sec
            cy /= n_sec
            cz /= n_sec
            # in-plane basis (e1, e2) with e1 x e2 along +n
            ax, ay, az = abs(nx), abs(ny), abs(nz)
            if ax <= ay and ax <= az:
                hx, hy, hz = 1.0, 0.0, 0.0
            elif ay <= az:
                hx, hy, hz = 0.0, 1.0, 0.0
            else:
                hx, hy, hz = 0.0, 0.0, 1.0
            e1x = hy * nz - hz * ny
            e1y = hz * nx - hx * nz
            e1z = hx * ny - hy * nx
            norm = (e1x * e1x + e1y * e1y + e1z * e1z) ** 0.5
            e1x /= norm
            e1y /= norm
            e1z /= norm
            e2x = ny * e1z - nz * e1y
            e2y = nz * e1x - nx * e1z
            e2z = nx * e1y - ny * e1x
            nn = (nx * nx + ny * ny + nz * nz) ** 0.5
            e2x /= nn
            e2y /= nn
            e2z /= nn
            ang = np.empty(n_sec)
            for i in range(n_sec):
                vx = section[i, 0] - cx
                vy = section[i, 1] - cy
                vz = section[i, 2] - cz
                u = vx * e1x + vy * e1y + vz * e1z
                v = vx * e2x + vy * e2y + vz * e2z
                ang[i] = np.arctan2(v, u)
            order = np.argsort(ang)
            nv = 0
            for oi in range(n_sec):
                i = order[oi]
                if nv > 0:
                    lx = out[n_out, nv - 1, 0]
                    ly = out[n_out, nv - 1, 1]
                    lz = out[n_out, nv - 1, 2]
                    d2 = (
                        (section[i, 0] - lx) ** 2
                        + (section[i, 1] - ly) ** 2
                        + (section[i, 2] - lz) ** 2
                    )
                    if d2 < 1e-20:
                        continue
                if nv < maxv:
                    out[n_out, nv, 0] = section[i, 0]
                    out[n_out, nv, 1] = section[i, 1]
                    out[n_out, nv, 2] = section[i, 2]
                    nv += 1
            if nv >= 3:
                out_len[n_out] = nv
                n_out += 1
        cur, out = out, cur
        cur_len, out_len = out_len, cur_len
        n_faces = n_out

    # divergence theorem over triangle fans
    vol = 0.0
    for f in range(n_faces):
        m = cur_len[f]
        x0, y0, z0 = cur[f, 0, 0], cur[f, 0, 1], cur[f, 0, 2]
        for i in range(1, m - 1):
            x1, y1, z1 = cur[f, i, 0], cur[f, i, 1], cur[f, i, 2]
            x2, y2, z2 = cur[f, i + 1, 0], cur[f, i + 1, 1], cur[f, i + 1, 2]
            vol += (
                x0 * (y1 * z2 - z1 * y2)
                - y0 * (x1 * z2 - z1 * x2)
                + z0 * (x1 * y2 - y1 * x2)
            )
    vol /= 6.0
    return vol if vol > 0.0 else 0.0


_BASE_POLYS = np.array(
    [[CANONICAL_VERTICES[i] for i in loop] for loop in FACE_VERTICES], dtype=float
)
_LENS = np.full(12, 4, dtype=np.int64)
_DIRS = np.array(FACE_DIRS, dtype=float)


def _cell(rot: np.ndarray, shift: np.ndarray):
    """Padded polygons and half-spaces of a rotated, shifted cell."""
    polys = np.einsum("ij,fvj->fvi", rot, _BASE_POLYS) + shift
    normals = _DIRS @ rot.T
    planes = np.hstack([normals, (normals @ shift + 2.0)[:, None]])
    padded = np.zeros((12, _MAXV, 3))
    padded[:, :4, :] = polys
    return padded, planes


def _both(a, b):
    """(oracle, kernel) volumes of the same pair."""
    va = _clip_volume(a[0], _LENS, a[1], b[0], _LENS, b[1], 1e-9)
    vb = _kernels.intersection_volume(a[0], _LENS, a[1], b[0], _LENS, b[1], 1e-9)
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
        rng = np.random.default_rng(2024)
        disagreements = []
        for _ in range(150):
            rot_a = rotation_from_axis_angle(rng.normal(size=3), rng.uniform(0, 360))
            rot_b = rotation_from_axis_angle(rng.normal(size=3), rng.uniform(0, 360))
            shift = rng.uniform(-3.0, 3.0, size=3)
            a = _cell(rot_a, np.zeros(3))
            b = _cell(rot_b, shift)
            va, vb = _both(a, b)
            if abs(va - vb) > 1e-8:
                disagreements.append((shift, va, vb))
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
        # non-cell convex inputs: clipped tetra against a cell
        tet = np.array(
            [
                [[0, 0, 0], [3, 0, 0], [0, 3, 0], [0, 0, 0]],
                [[0, 0, 0], [0, 0, 3], [3, 0, 0], [0, 0, 0]],
                [[0, 0, 0], [0, 3, 0], [0, 0, 3], [0, 0, 0]],
                [[3, 0, 0], [0, 0, 3], [0, 3, 0], [3, 0, 0]],
            ],
            dtype=float,
        )
        lens = np.full(4, 3, dtype=np.int64)
        padded = np.zeros((4, _MAXV, 3))
        padded[:, :4, :] = tet
        # half-space form of the tetra
        planes_t = np.array(
            [
                [0.0, 0.0, -1.0, 0.0],
                [0.0, -1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0],
                [1 / math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3), 3 / math.sqrt(3)],
            ]
        )
        cell = _cell(np.eye(3), np.zeros(3))
        va = _clip_volume(padded, lens, planes_t, cell[0], _LENS, cell[1], 1e-9)
        vb = _kernels.intersection_volume(
            padded, lens, planes_t, cell[0], _LENS, cell[1], 1e-9
        )
        assert va == pytest.approx(vb, abs=1e-9)
        assert 0.0 < va < 4.5  # tetra volume is 27/6 = 4.5, partially outside

