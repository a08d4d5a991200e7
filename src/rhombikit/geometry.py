"""Exact Euclidean geometry of the canonical cell.

The canonical cell is the rhombic dodecahedron with the 8 cube-type
vertices (+-1, +-1, +-1) and the 6 axis-type vertices (+-2, 0, 0),
(0, +-2, 0), (0, 0, +-2). At this scale every face plane is d.x = 2 for a
neighbor direction d, the face centers coincide with the FACE_DIRS
vectors, and a cell at lattice position p has its Euclidean center at 2p.
All twelve faces are congruent rhombi with diagonal ratio sqrt(2).

Besides the static solid (mesh, frames, dihedral angle, packing density)
this module covers the two geometric queries the rest of the package
needs: ground-contact classification of a rotated structure, and the
swept-volume blocker table for 120-degree edge rolls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from . import _kernels
from .errors import ValidationError
from .lattice import (
    DIR_PERM,
    FACE_DIRS,
    Configuration,
    Pos,
    _as_real,
    _check_dir,
    _dir_index,
    _echo,
    _require_nonempty,
    _roll_faces,
    add,
    apply_rotation,
)

# --------------------------------------------------------------------------
# canonical solid
# --------------------------------------------------------------------------

CANONICAL_VERTICES: tuple[Pos, ...] = tuple(
    sorted(
        list(itertools.product((-1, 1), repeat=3))
        + [
            (2, 0, 0),
            (-2, 0, 0),
            (0, 2, 0),
            (0, -2, 0),
            (0, 0, 2),
            (0, 0, -2),
        ]
    )
)

_VERT_INDEX = {v: i for i, v in enumerate(CANONICAL_VERTICES)}


def _frozen(a) -> np.ndarray:
    """A read-only float copy of the array-like a, the one conversion of
    array input: every array a frozen dataclass holds (so that neither it
    nor its caller's array can change the other), a world rotation and a
    rotation axis. Input numpy cannot read as floats (ragged, not numbers,
    an int past the float range) raises ValidationError."""
    try:
        out = np.array(a, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"not an array of numbers: {_echo(a)}") from None
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FaceFrame:
    """Right-handed orthonormal frame of one rhombic face.

    center sits at the FACE_DIRS vector, long_axis runs along the long
    diagonal toward its lexicographically larger endpoint, short_axis
    completes the frame so that normal = long_axis x short_axis.
    """

    center: np.ndarray
    normal: np.ndarray
    long_axis: np.ndarray
    short_axis: np.ndarray


def _build_frames() -> tuple[FaceFrame, ...]:
    frames = []
    for d in FACE_DIRS:
        verts = [v for v in CANONICAL_VERTICES if np.dot(v, d) == 2]
        octa = sorted(v for v in verts if 2 in v or -2 in v)
        center = np.array(d, dtype=float)
        normal = center / math.sqrt(2.0)
        long_axis = np.array(octa[1], dtype=float) - center
        long_axis /= np.linalg.norm(long_axis)
        short_axis = np.cross(normal, long_axis)
        frames.append(FaceFrame(*map(_frozen, (center, normal, long_axis, short_axis))))
    return tuple(frames)


_FRAMES = _build_frames()


def face_frame(d: Pos | int) -> FaceFrame:
    """Frame of the face whose outward normal points along d, given as a
    direction vector or as an index into FACE_DIRS."""
    if not isinstance(d, (tuple, list, np.ndarray)):
        return _FRAMES[_check_dir(d)]
    return _FRAMES[_dir_index(d)]


def _face_vertex_cycle(d: Pos) -> tuple[int, ...]:
    """Vertex indices of face d, CCW from outside, starting at the
    positive long-axis endpoint."""
    fr = face_frame(d)
    verts = [v for v in CANONICAL_VERTICES if np.dot(v, d) == 2]

    def angle(v):
        rel = np.array(v, dtype=float) - fr.center
        a = math.atan2(float(rel @ fr.short_axis), float(rel @ fr.long_axis))
        return a % (2.0 * math.pi)

    ordered = sorted(verts, key=angle)
    return tuple(_VERT_INDEX[v] for v in ordered)


FACE_VERTICES: tuple[tuple[int, ...], ...] = tuple(
    _face_vertex_cycle(d) for d in FACE_DIRS
)

# the 24 edges as sorted vertex-index pairs
CELL_EDGES: tuple[tuple[int, int], ...] = tuple(
    sorted(
        {
            tuple(sorted((cyc[i], cyc[(i + 1) % 4])))
            for cyc in FACE_VERTICES
            for i in range(4)
        }
    )
)


@dataclass(frozen=True)
class Mesh:
    """Polygon mesh: float vertices plus CCW-from-outside index loops."""

    vertices: np.ndarray
    faces: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", _frozen(self.vertices))


def canonical_cell_mesh() -> Mesh:
    """Mesh of one cell centered at the origin (14 vertices, 12 rhombi)."""
    return Mesh(CANONICAL_VERTICES, FACE_VERTICES)


def mesh_volume(m: Mesh) -> float:
    """Signed volume by the divergence theorem (positive for outward CCW)."""
    v = m.vertices.tolist()
    return _kernels.fan_volume(
        [[(v[i], v[j]) for i, j in zip(f, f[1:] + f[:1])] for f in m.faces]
    )


def mesh_surface_area(m: Mesh) -> float:
    area = 0.0
    v = m.vertices
    for face in m.faces:
        v0 = v[face[0]]
        for i in range(1, len(face) - 1):
            area += 0.5 * float(
                np.linalg.norm(np.cross(v[face[i]] - v0, v[face[i + 1]] - v0))
            )
    return area


def _face_plane(m: Mesh, face: tuple[int, ...]) -> tuple[np.ndarray, float]:
    """Outward unit normal and offset (n.x = c) of a planar mesh face."""
    v = m.vertices
    n = np.cross(v[face[1]] - v[face[0]], v[face[2]] - v[face[1]])
    n = n / np.linalg.norm(n)
    return n, float(n @ v[face[0]])


def dihedral_angle() -> float:
    """Interior angle across every edge of the cell mesh, in degrees.

    Derived from the mesh itself: for each pair of faces sharing an edge
    the interior dihedral is pi minus the angle between outward normals.
    The solid is face-transitive, so all 24 edges agree; the spread is
    checked here and the common value returned.
    """
    m = canonical_cell_mesh()
    planes = [_face_plane(m, f) for f in m.faces]
    angles = []
    for i in range(12):
        for j in range(i + 1, 12):
            if len(set(m.faces[i]) & set(m.faces[j])) == 2:
                cosang = float(np.clip(planes[i][0] @ planes[j][0], -1.0, 1.0))
                angles.append(180.0 - math.degrees(math.acos(cosang)))
    if max(angles) - min(angles) > 1e-9:
        raise AssertionError("mesh dihedral angles disagree")
    return sum(angles) / len(angles)


def inradius() -> float:
    """Distance from the cell center to each face plane (from the mesh)."""
    m = canonical_cell_mesh()
    return min(abs(_face_plane(m, f)[1]) for f in m.faces)


def packing_density() -> float:
    """Volume fraction of the inscribed sphere, pi/sqrt(18) ~ 0.74048.

    Computed from mesh-derived quantities (inradius and cell volume), not
    from the closed form, so the mesh itself is on the hook.
    """
    r = inradius()
    return (4.0 / 3.0) * math.pi * r**3 / mesh_volume(canonical_cell_mesh())


# --------------------------------------------------------------------------
# ground contact
# --------------------------------------------------------------------------


class ContactType(Enum):
    POINT = "point"
    EDGE = "edge"
    FACE = "face"


@dataclass(frozen=True)
class GroundContact:
    """Result of resting a rotated structure on the z = min plane."""

    contact_type: ContactType
    support_points: np.ndarray
    per_cell: dict[Pos, ContactType]

    def __post_init__(self) -> None:
        object.__setattr__(self, "support_points", _frozen(self.support_points))


# a cell's contact type by its number of support vertices: no three
# vertices of the cell are collinear, so three or four span a face
_BY_COUNT = {
    1: ContactType.POINT,
    2: ContactType.EDGE,
    3: ContactType.FACE,
    4: ContactType.FACE,
}


def check_world_rotation(world_rot) -> np.ndarray:
    rot = _frozen(world_rot)
    if rot.shape != (3, 3):
        raise ValidationError(f"rotation must be 3x3, got shape {rot.shape}")
    if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-6) or abs(
        np.linalg.det(rot) - 1.0
    ) > 1e-6:
        raise ValidationError("rotation matrix is not a proper rotation")
    return rot


_EPS_Z = 1e-6  # height tolerance of the support set, canonical units


def classify_ground_contact(c: Configuration, world_rot) -> GroundContact:
    """Rest the rotated structure on the ground and classify the contact.

    The structure is rotated rigidly by world_rot, the ground is the
    horizontal plane through the lowest vertex, and the support set is
    every vertex within 1e-6 canonical units (_EPS_Z, fixed) of it. Each
    touching cell is classified by the number of its own support
    vertices: one is point contact, two are edge contact, and three or
    four are face contact (three occur when a face-down cell tilts
    slightly about a face diagonal and lifts one vertex out of the
    tolerance). The structure's type is that of the touching cell with
    the most support vertices: a tilt that keeps one cell's face within
    the tolerance can lift vertices of cells further along out of it, so
    the cells' own classes may differ.
    """
    _require_nonempty(c)
    rot = check_world_rotation(world_rot)

    base = np.array(CANONICAL_VERTICES, dtype=float)
    centers = 2.0 * np.array([cell.pos for cell in c.cells], dtype=float)
    world = (centers[:, None, :] + base[None, :, :]) @ rot.T
    z = world[:, :, 2]
    zmin = float(z.min())
    mask = z <= zmin + _EPS_Z

    per_cell: dict[Pos, ContactType] = {}
    support = []
    for i, cell in enumerate(c.cells):
        pts = world[i][mask[i]]
        if len(pts) == 0:
            continue
        per_cell[cell.pos] = _BY_COUNT[len(pts)]
        support.append(pts)

    pts = np.vstack(support)
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    return GroundContact(_BY_COUNT[max(map(len, support))], pts[order], per_cell)


# --------------------------------------------------------------------------
# structure meshes
# --------------------------------------------------------------------------


def structure_mesh(c: Configuration) -> Mesh:
    """Union mesh of all cells with coincident interior faces removed.

    A face is interior exactly when the neighbor cell across it is also
    occupied, so the face count is 12n minus twice the number of adjacent
    pairs. The result is watertight whenever the configuration is
    connected.
    """
    _require_nonempty(c)
    vert_ids: dict[Pos, int] = {}
    verts: list[Pos] = []
    faces: list[tuple[int, ...]] = []
    for cell in c.cells:
        base = (2 * cell.pos[0], 2 * cell.pos[1], 2 * cell.pos[2])
        for di, d in enumerate(FACE_DIRS):
            if add(cell.pos, d) in c:
                continue
            loop = []
            for vi in FACE_VERTICES[di]:
                v = CANONICAL_VERTICES[vi]
                w = (base[0] + v[0], base[1] + v[1], base[2] + v[2])
                idx = vert_ids.get(w)
                if idx is None:
                    idx = len(verts)
                    vert_ids[w] = idx
                    verts.append(w)
                loop.append(idx)
            faces.append(tuple(loop))
    return Mesh(verts, tuple(faces))


# --------------------------------------------------------------------------
# swept volumes
# --------------------------------------------------------------------------


def shared_face_edge(d1: Pos, d2: Pos) -> tuple[Pos, Pos]:
    """Endpoints of the edge shared by faces d1 and d2, sorted."""
    i1, i2 = _roll_faces(d1, d2)
    a, b = sorted(
        CANONICAL_VERTICES[i] for i in set(FACE_VERTICES[i1]) & set(FACE_VERTICES[i2])
    )
    return a, b


def _rodrigues(axis: np.ndarray, theta: float) -> np.ndarray:
    u = axis / np.linalg.norm(axis)
    k = np.array(
        [[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]]
    )
    return np.eye(3) * math.cos(theta) + math.sin(theta) * k + (
        1.0 - math.cos(theta)
    ) * np.outer(u, u)


def rotation_from_axis_angle(axis, degrees: float) -> np.ndarray:
    """Proper rotation matrix about an arbitrary axis through the origin."""
    a = _frozen(axis)
    if a.shape != (3,) or not np.isfinite(a).all() or math.hypot(*a) < 1e-12:
        raise ValidationError("rotation axis must be a finite nonzero 3-vector")
    # a power-of-two scale is exact, so it changes no bit of the unit axis,
    # and it keeps the norm of a huge axis from overflowing
    a = np.ldexp(a, -math.frexp(np.abs(a).max())[1])
    return _rodrigues(a, math.radians(_as_real(degrees, "rotation angle")))


def roll_transform(from_dir: Pos, to_dir: Pos, theta: float):
    """Rigid transform of the mover at roll angle theta (radians).

    Returns (rot, trans) such that a mover point x maps to rot @ x + trans.
    theta = 0 is the rest pose on from_dir; the signed angle runs to
    +2*pi/3 when the mover reaches to_dir. The rotation axis is the edge
    shared by the substrate faces from_dir and to_dir.
    """
    e0, e1 = shared_face_edge(from_dir, to_dir)
    axis = np.array(e1, dtype=float) - np.array(e0, dtype=float)
    a0 = np.array(e0, dtype=float)
    start = 2.0 * np.array(from_dir, dtype=float)
    target = 2.0 * np.array(to_dir, dtype=float)
    # a positive turn about axis carries start toward target (exact: integers)
    sgn = 1.0 if axis @ np.cross(start - a0, target - a0) > 0 else -1.0
    r = _rodrigues(axis, sgn * theta)
    return r, a0 - r @ a0


_SQRT2 = math.sqrt(2.0)
_DIRS_ARR = np.array(FACE_DIRS, dtype=float)
_BASE_POLYS = np.array(
    [[CANONICAL_VERTICES[i] for i in loop] for loop in FACE_VERTICES], dtype=float
)
_POLY_LENS = np.full(12, 4, dtype=np.int64)
_VOL_EPS = 1e-9  # overlap volume that blocks, canonical units^3


def _swept_cells_uncached(
    from_dir: Pos, to_dir: Pos, step_deg: float = 1.0
) -> frozenset[Pos]:
    """Sweep one roll directly (blocker_table's builder; the tests also
    run it at a finer step_deg to check convergence)."""
    fd = np.array(from_dir, dtype=float)
    n_steps = int(math.ceil(120.0 / step_deg))
    thetas = np.linspace(0.0, 2.0 * math.pi / 3.0, n_steps + 1)

    rots = []
    shifts = []
    for th in thetas:
        r, t = roll_transform(from_dir, to_dir, th)
        rots.append(r)
        shifts.append(t)
    rots = np.array(rots)
    shifts = np.array(shifts)

    start_polys = _BASE_POLYS + 2.0 * fd  # (12, 4, 3) at rest pose
    # mover face polygons, centers, and half-spaces for every sampled angle
    movers = np.einsum("tij,fvj->tfvi", rots, start_polys) + shifts[:, None, None, :]
    centers = np.einsum("tij,j->ti", rots, 2.0 * fd) + shifts
    normals = np.einsum("tij,fj->tfi", rots, _DIRS_ARR)
    offsets = np.einsum("tfi,ti->tf", normals, centers) + 2.0
    planes_a = np.concatenate([normals, offsets[:, :, None]], axis=2)

    # separating-plane precomputation: mover support values along the fixed
    # candidate normals, and canonical-cell support values along the mover
    # normals, for every angle. A candidate can only overlap at angles
    # where no face plane of either body separates them.
    verts_t = movers.reshape(len(thetas), -1, 3)  # (T, 48, 3)
    min_av = np.einsum("tvi,di->tvd", verts_t, _DIRS_ARR).min(axis=1)  # (T, 12)
    base_v = np.array(CANONICAL_VERTICES, dtype=float)
    min_bv = np.einsum("tfi,vi->tfv", normals, base_v).min(axis=2)  # (T, 12)

    skip = {(0, 0, 0), tuple(from_dir), tuple(to_dir)}
    blockers: set[Pos] = set()

    for q in itertools.product(range(-3, 4), repeat=3):
        if sum(q) % 2 != 0 or q in skip:
            continue
        w = 2.0 * np.array(q, dtype=float)
        dist = np.linalg.norm(centers - w, axis=1)
        near = dist < 4.0  # circumspheres must overlap
        if not near.any():
            continue
        if np.any(dist[near] < 2.0 * _SQRT2 - 1e-9):
            blockers.add(q)  # inscribed spheres overlap: definite hit
            continue
        sep_b = np.any(min_av > (2.0 + _DIRS_ARR @ w) + 1e-12, axis=1)
        sep_a = np.any(
            np.einsum("tfi,i->tf", normals, w) + min_bv > offsets + 1e-12, axis=1
        )
        near &= ~(sep_a | sep_b)
        if not near.any():
            continue
        planes_b = np.hstack([_DIRS_ARR, (2.0 + _DIRS_ARR @ w)[:, None]])
        polys_b = _BASE_POLYS + w
        for k in np.nonzero(near)[0]:
            vol = _kernels.intersection_volume(
                movers[k], _POLY_LENS, planes_a[k],
                polys_b, _POLY_LENS, planes_b, 1e-9,
            )
            if vol > _VOL_EPS:
                blockers.add(q)
                break
    return frozenset(blockers)


def swept_cells(from_dir: Pos, to_dir: Pos) -> frozenset[Pos]:
    """Lattice offsets (relative to the substrate) crossed by a roll.

    An offset is returned when the canonical cell there overlaps the
    mover with volume above 1e-9 canonical units^3 at any 1-degree step
    of the 120-degree roll from from_dir to to_dir. Grazing face or edge
    contact carries no volume and so never blocks. The substrate itself
    and the start/destination offsets are excluded. Both directions must
    be integer face-direction vectors sharing an edge; the answer is
    read from blocker_table().
    """
    key = _roll_faces(from_dir, to_dir)  # checked before the table is built
    return blocker_table()[key]


@cache
def blocker_table() -> dict[tuple[int, int], frozenset[Pos]]:
    """The full 48-entry blocker table, built on first call and cached.

    Keys are (from_index, to_index) pairs into FACE_DIRS. Only the roll
    FACE_DIRS[0] -> FACE_DIRS[1] is swept (1-degree steps); each of the
    24 lattice rotations maps it onto one roll and, reversed, onto that
    roll's reverse, which fills all 48 keys. Callers share the returned
    dict and must not mutate it.
    """
    base = _swept_cells_uncached(FACE_DIRS[0], FACE_DIRS[1])
    # each roll rotates this one or its reverse (same swept volume)
    table = {}
    for r, perm in enumerate(DIR_PERM):
        cells = frozenset(apply_rotation(r, q) for q in base)
        table[(perm[0], perm[1])] = table[(perm[1], perm[0])] = cells
    return table
