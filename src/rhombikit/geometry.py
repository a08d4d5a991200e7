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

numpy is imported only inside the functions that build or read public
arrays (the face frames, the Mesh and GroundContact arrays, and the
array-valued rotations); every other vector job, the mesh measures
included, runs in plain floats and ints through _dot, _cross, _rodrigues
and lattice's _mat_apply. So importing this module, building the blocker
table and the validate, plan, replay and dock-check commands never load
it; export, contact and analyze load it on first use, since their
results are arrays. The blocker sweep takes its poses from one Rodrigues
rule, _rodrigues, which rotation_from_axis_angle and roll_transform wrap
as arrays. Each face's long axis is stated once, in
integers, by _LONG_AXES; the float frames normalise it.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import TYPE_CHECKING

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
    _mat_apply,
    _require_nonempty,
    _roll_faces,
    add,
    apply_rotation,
    sub,
)

if TYPE_CHECKING:
    import numpy as np

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
    rotation axis. Its entries must be real numbers by lattice._as_real's
    rule for their type: ints and floats, numpy ones too, but no strings
    (numeric or not), bools, complex numbers or other objects. Input that
    breaks the rule, is ragged or holds an int past the float range raises
    ValidationError."""
    import numpy as np

    try:
        src = np.asarray(a)
        kind = src.dtype.kind
        if kind not in "iufO" or (kind == "O" and not all(
            isinstance(x, numbers.Real) and not isinstance(x, bool) for x in src.flat
        )):
            raise TypeError
        out = src.astype(float)
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


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _face_vertex_cycle(d: Pos) -> tuple[int, ...]:
    """Vertex indices of face d, CCW from outside, starting at the
    positive long-axis endpoint: that endpoint (the lexicographically
    larger of the two axis-type vertices), the cube-type vertex on the
    side of the short axis d x long, the other endpoint and the other
    cube-type vertex. The face center is d, so this is integer work."""
    verts = [v for v in CANONICAL_VERTICES if _dot(v, d) == 2]
    lo, hi = sorted(v for v in verts if 2 in v or -2 in v)
    short = _cross(d, sub(hi, d))
    left, right = sorted(
        (v for v in verts if v not in (lo, hi)), key=lambda v: -_dot(sub(v, d), short)
    )
    return tuple(_VERT_INDEX[v] for v in (hi, left, lo, right))


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


# each face's long axis, centre to positive endpoint, in integers: the
# one statement of the frame's orientation, exact under lattice rotations
_LONG_AXES: tuple[Pos, ...] = tuple(
    sub(CANONICAL_VERTICES[cycle[0]], d) for d, cycle in zip(FACE_DIRS, FACE_VERTICES)
)


@cache
def _frames() -> tuple[FaceFrame, ...]:
    """The 12 face frames, in FACE_DIRS order, built on first use."""
    import numpy as np

    frames = []
    for d, long_axis in zip(FACE_DIRS, _LONG_AXES):
        center = np.array(d, dtype=float)
        normal = center / math.sqrt(2.0)
        long_axis = np.array(long_axis, dtype=float) / math.hypot(*long_axis)
        short_axis = np.cross(normal, long_axis)
        frames.append(FaceFrame(*map(_frozen, (center, normal, long_axis, short_axis))))
    return tuple(frames)


def face_frame(d: Pos | int) -> FaceFrame:
    """Frame of the face whose outward normal points along d, given as a
    direction vector or as an index into FACE_DIRS."""
    import numpy as np

    if not isinstance(d, (tuple, list, np.ndarray)):
        return _frames()[_check_dir(d)]
    return _frames()[_dir_index(d)]


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
    v = m.vertices.tolist()
    area = 0.0
    for face in m.faces:
        v0 = v[face[0]]
        for i, j in zip(face[1:-1], face[2:]):
            area += 0.5 * math.hypot(*_cross(sub(v[i], v0), sub(v[j], v0)))
    return area


def _face_planes(m: Mesh) -> list[tuple[tuple[float, ...], float]]:
    """Outward unit normal and offset (n.x = c) of each planar mesh face."""
    v = m.vertices.tolist()
    planes = []
    for f in m.faces:
        n = _cross(sub(v[f[1]], v[f[0]]), sub(v[f[2]], v[f[1]]))
        r = math.hypot(*n)
        n = (n[0] / r, n[1] / r, n[2] / r)
        planes.append((n, _dot(n, v[f[0]])))
    return planes


def dihedral_angle() -> float:
    """Interior angle across every edge of the cell mesh, in degrees.

    Derived from the mesh itself: for each pair of faces sharing an edge
    the interior dihedral is pi minus the angle between outward normals.
    The solid is face-transitive, so all 24 edges agree; the spread is
    checked here and the common value returned.
    """
    m = canonical_cell_mesh()
    planes = _face_planes(m)
    angles = []
    for i in range(12):
        for j in range(i + 1, 12):
            if len(set(m.faces[i]) & set(m.faces[j])) == 2:
                cosang = min(max(_dot(planes[i][0], planes[j][0]), -1.0), 1.0)
                angles.append(180.0 - math.degrees(math.acos(cosang)))
    if max(angles) - min(angles) > 1e-9:
        raise AssertionError("mesh dihedral angles disagree")
    return sum(angles) / len(angles)


def inradius() -> float:
    """Distance from the cell center to each face plane (from the mesh)."""
    return min(abs(c) for _, c in _face_planes(canonical_cell_mesh()))


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
    import numpy as np

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
    import numpy as np

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


def _rodrigues(axis, theta: float) -> tuple[tuple[float, float, float], ...]:
    """Rows of the rotation by theta radians about axis, a nonzero finite
    3-vector: cos(theta) I + sin(theta) [u]x + (1 - cos(theta)) u u^T for
    the unit axis u. The one rotation rule: the blocker sweep reads it in
    plain floats, rotation_from_axis_angle and roll_transform as arrays."""
    n = math.hypot(*axis)
    x, y, z = axis[0] / n, axis[1] / n, axis[2] / n
    c, s = math.cos(theta), math.sin(theta)
    t = 1.0 - c
    return (
        (c + t * (x * x), t * (x * y) - s * z, t * (x * z) + s * y),
        (t * (y * x) + s * z, c + t * (y * y), t * (y * z) - s * x),
        (t * (z * x) - s * y, t * (z * y) + s * x, c + t * (z * z)),
    )


def rotation_from_axis_angle(axis, degrees: float) -> np.ndarray:
    """Proper rotation matrix about an arbitrary axis through the origin."""
    import numpy as np

    a = _frozen(axis)
    if a.shape != (3,) or not np.isfinite(a).all() or math.hypot(*a) < 1e-12:
        raise ValidationError("rotation axis must be a finite nonzero 3-vector")
    # a power-of-two scale is exact, so it changes no bit of the unit axis,
    # and it keeps the norm of a huge axis from overflowing
    v = a.tolist()
    e = math.frexp(max(map(abs, v)))[1]
    theta = math.radians(_as_real(degrees, "rotation angle"))
    return np.array(_rodrigues([math.ldexp(x, -e) for x in v], theta))


def _roll_axis(from_dir: Pos, to_dir: Pos) -> tuple[Pos, Pos]:
    """A point on the edge a roll turns about (the edge's smaller end) and
    the edge's direction, signed so that a positive turn carries the mover
    from from_dir toward to_dir. Integers, so the sign is exact."""
    e0, e1 = shared_face_edge(from_dir, to_dir)
    axis = sub(e1, e0)
    start = sub(add(from_dir, from_dir), e0)
    target = sub(add(to_dir, to_dir), e0)
    if _dot(axis, _cross(start, target)) < 0:
        axis = sub((0, 0, 0), axis)
    return e0, axis


def roll_transform(from_dir: Pos, to_dir: Pos, theta: float):
    """Rigid transform of the mover at roll angle theta (radians).

    Returns (rot, trans) such that a mover point x maps to rot @ x + trans.
    theta = 0 is the rest pose on from_dir; the signed angle runs to
    +2*pi/3 when the mover reaches to_dir. The rotation axis is the edge
    shared by the substrate faces from_dir and to_dir.
    """
    import numpy as np

    a0, axis = _roll_axis(from_dir, to_dir)
    r = np.array(_rodrigues(axis, theta))
    a0 = np.array(a0, dtype=float)
    return r, a0 - r @ a0


_SQRT2 = math.sqrt(2.0)
_VOL_EPS = 1e-9  # overlap volume that blocks, canonical units^3
_BASE_FACES = tuple(tuple(CANONICAL_VERTICES[i] for i in loop) for loop in FACE_VERTICES)


def _support(x: float, y: float, z: float) -> float:
    """Largest (x, y, z).v over the canonical cell's vertices v: |.|_1 at
    a cube-type vertex or 2 |.|_inf at an axis-type one."""
    x, y, z = abs(x), abs(y), abs(z)
    return max(x + y + z, 2.0 * max(x, y, z))


def _swept_cells_uncached(
    from_dir: Pos, to_dir: Pos, step_deg: float = 1.0
) -> frozenset[Pos]:
    """Sweep one roll directly (blocker_table's builder; the tests also
    run it at a finer step_deg to check convergence).

    At each sampled angle the mover's rest-pose point x sits at
    R (x - a0) + a0, R from _rodrigues. A candidate cell is settled by
    the first test that can: no overlap where the circumspheres miss, a
    hit where the inscribed spheres meet, no overlap where a face plane
    of either cell separates them, and otherwise the volume kernel. The
    plane test needs no vertices: the candidate at w lies beyond a face
    plane with normal a when a.(w - c) exceeds the two cells' supports
    along a, for a = -d over the candidate's faces d and a = R d over the
    mover's, and the cell's support is _support in closed form."""
    a0, axis = _roll_axis(from_dir, to_dir)
    n_steps = int(math.ceil(120.0 / step_deg))
    step = 2.0 * math.pi / 3.0 / n_steps
    home = add(from_dir, from_dir)  # the mover's rest-pose center
    rest = [sub(add(v, home), a0) for v in CANONICAL_VERTICES]

    poses = []  # per angle: center, mover polygons, face planes, separating axes
    for th in [k * step for k in range(n_steps)] + [2.0 * math.pi / 3.0]:
        rot = _rodrigues(axis, th)
        rot_t = tuple(zip(*rot))
        c = add(_mat_apply(rot, sub(home, a0)), a0)
        verts = [add(_mat_apply(rot, x), a0) for x in rest]
        polys = [[verts[i] for i in loop] for loop in FACE_VERTICES]
        planes = [(*n, _dot(n, c) + 2.0) for n in (_mat_apply(rot, d) for d in FACE_DIRS)]
        axes = [(*n, off + _support(*n) + 1e-12) for *n, off in planes] + [
            (-d[0], -d[1], -d[2], 2.0 + _support(*_mat_apply(rot_t, d)) - _dot(d, c) + 1e-12)
            for d in FACE_DIRS
        ]
        poses.append((c, polys, planes, axes))

    skip = {(0, 0, 0), tuple(from_dir), tuple(to_dir)}
    blockers: set[Pos] = set()
    for q in itertools.product(range(-3, 4), repeat=3):
        if sum(q) % 2 != 0 or q in skip:
            continue
        w = (2.0 * q[0], 2.0 * q[1], 2.0 * q[2])
        dists = [math.dist(pose[0], w) for pose in poses]
        if min(dists) < 2.0 * _SQRT2 - 1e-9:
            blockers.add(q)  # inscribed spheres overlap: definite hit
            continue
        cell = None  # the candidate's polygons and planes, once needed
        for k in [k for k, dist in enumerate(dists) if dist < 4.0]:
            _, polys_a, planes_a, axes = poses[k]  # circumspheres overlap
            if any(nx * w[0] + ny * w[1] + nz * w[2] > lim for nx, ny, nz, lim in axes):
                continue
            if cell is None:
                cell = (
                    [[add(v, w) for v in face] for face in _BASE_FACES],
                    [(*d, 2.0 + _dot(d, w)) for d in FACE_DIRS],
                )
            if _kernels.intersection_volume(polys_a, planes_a, *cell) > _VOL_EPS:
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
