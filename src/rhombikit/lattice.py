"""Integer arithmetic on the face-centered cubic lattice.

Positions are integer triples whose coordinate sum is even; each position
has 12 nearest neighbors reached by the signed permutations of (1, 1, 0).
The module also carries the 24 proper rotations of the cell shape (the
chiral octahedral group) as exact signed-permutation matrices, so cell
orientations compose without any floating point. Connectivity is decided
here too: is_connected for a configuration; contacts, which finds each
packed position's face neighbors once, by index; and removable_cells,
one lowlink pass over those contacts for the cells that can leave
without splitting the rest (the legality test a roll needs; no
Configuration is required).

The move generator and the planner hold a position as one int,
``pack((x, y, z)) = x * 2**(2*PACK_BITS) + y * 2**PACK_BITS + z``. The
encoding is exact while y and z lie in ``[-PACK_LIMIT, PACK_LIMIT)``
(x is unbounded), and there it keeps the lexicographic order of the
triples and is linear: a neighbor step, a roll's shadow offset or a
translation is one int addition (``PACKED_DIRS`` are the packed face
directions). Callers pack positions relative to an origin of their own
choosing with pack_frame, which checks that range.

The package's value rules live here too, one home each: _as_int (an int
or numpy integer, never a bool), _as_int_in (such an int in a range;
_check_rot and _check_dir are the index rules), _as_real (a finite int
or float), _require_nonempty, and _echo, through which every error
message prints the value it refuses, however large.

Enumeration conventions (fixed, relied on by file formats and tests):

* ``FACE_DIRS`` lists the 12 neighbor directions in ascending
  lexicographic order.
* ``ROLLS[f]`` lists, in that order, the indices of the 4 faces that
  share an edge with face f: the only statement of that rule, and
  _roll_faces the only statement of its error.
* ``ROTATIONS`` lists the 24 rotation matrices in descending lexicographic
  order of their row-major flattening, which places the identity at
  index 0.
* ``DIR_PERM[r]`` is the permutation of the face directions that rotation
  r induces, and it fixes r, so the composition and inverse tables are
  read off it: ``ROT_MUL[a][b]`` (apply b, then a) is the rotation whose
  permutation is ``DIR_PERM[a][DIR_PERM[b][d]]``.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Iterable, Iterator, Sequence

from .errors import ValidationError

Pos = tuple[int, int, int]
Matrix = tuple[tuple[int, int, int], ...]

# --------------------------------------------------------------------------
# face directions
# --------------------------------------------------------------------------

FACE_DIRS: tuple[Pos, ...] = tuple(
    sorted(
        p
        for p in itertools.product((-1, 0, 1), repeat=3)
        if sorted(map(abs, p)) == [0, 1, 1]
    )
)

FACE_DIR_INDEX: dict[Pos, int] = {d: i for i, d in enumerate(FACE_DIRS)}

# index of the opposite face for each direction
OPPOSITE_DIR: tuple[int, ...] = tuple(
    FACE_DIR_INDEX[(-d[0], -d[1], -d[2])] for d in FACE_DIRS
)

# per face, the indices of the 4 faces sharing an edge with it, in
# FACE_DIRS order: the directions at 60 degrees (dot product 1). A cell
# on face f can roll about each of f's edges onto one of them
ROLLS: tuple[tuple[int, ...], ...] = tuple(
    tuple(j for j, e in enumerate(FACE_DIRS) if sum(map(operator.mul, d, e)) == 1)
    for d in FACE_DIRS
)


def _echo(v) -> str:
    """repr(v) for an error message, which every message that prints an
    input uses. A value repr refuses to print (an int past Python's
    digit limit for str, alone or inside a tuple or list) is named by its
    type instead, so that the message itself cannot raise."""
    try:
        return repr(v)
    except ValueError:
        return f"<unprintable {type(v).__name__}>"


def _as_int(v, name: str = "value") -> int:
    """v as an int: ints and numpy integers, not bools (bool subclasses
    int) or floats. Raises ValidationError naming v otherwise."""
    if type(v) is int:  # the common case, settled without a call
        return v
    try:
        if isinstance(v, bool):
            raise TypeError
        return operator.index(v)
    except TypeError:
        raise ValidationError(f"{name} must be an int, got {_echo(v)}") from None


def _as_real(v, name: str) -> float:
    """v as a float, if it is a finite real number: ints (numpy ones too)
    and floats, not bools (bool subclasses int), NaN, infinities or ints
    too large for a float. Raises ValidationError naming v otherwise."""
    if type(v) is float and math.isfinite(v):  # the common case
        return v
    if isinstance(v, numbers.Real) and not isinstance(v, bool):
        try:
            f = float(v)
        except OverflowError:  # an int beyond the float range
            f = math.inf
        if math.isfinite(f):
            return f
    raise ValidationError(f"{name} must be a finite number, got {_echo(v)}")


def _as_int_in(v, name: str, lo: int, hi: int | None = None) -> int:
    """v as an int in lo..hi (no upper end when hi is None), by _as_int's
    rule. Raises ValidationError naming v otherwise."""
    try:
        i = _as_int(v)
        if lo <= i and (hi is None or i <= hi):
            return i
    except ValidationError:
        pass
    span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    raise ValidationError(f"{name} must be an int {span}, got {_echo(v)}")


def is_valid_pos(p: Sequence[int]) -> bool:
    """True when p is an integer triple with even coordinate sum."""
    try:
        check_pos(p)
    except ValidationError:
        return False
    return True


def check_pos(p: Sequence[int]) -> Pos:
    """Validate and normalize a lattice position, raising ValidationError."""
    if (
        type(p) is tuple
        and len(p) == 3
        and type(p[0]) is type(p[1]) is type(p[2]) is int
        and not (p[0] + p[1] + p[2]) % 2
    ):
        return p  # already normal: a tuple of three ints with an even sum
    try:
        if len(p) != 3:
            raise ValidationError
        t = (_as_int(p[0]), _as_int(p[1]), _as_int(p[2]))
    except (TypeError, ValidationError):
        raise ValidationError(
            f"lattice position must be an integer triple, got {_echo(p)}"
        ) from None
    if sum(t) % 2 != 0:
        raise ValidationError(f"lattice position {_echo(t)} has odd coordinate sum")
    return t


def add(p: Pos, d: Pos) -> Pos:
    return (p[0] + d[0], p[1] + d[1], p[2] + d[2])


def sub(p: Pos, q: Pos) -> Pos:
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


# --------------------------------------------------------------------------
# packed positions
# --------------------------------------------------------------------------

PACK_BITS = 32
PACK_LIMIT = 1 << (PACK_BITS - 1)  # y and z lie in [-PACK_LIMIT, PACK_LIMIT)
_MASK = (1 << PACK_BITS) - 1


def pack(p: Pos) -> int:
    """One int for a position whose y and z lie in the exact range."""
    return (p[0] << 2 * PACK_BITS) + (p[1] << PACK_BITS) + p[2]


def unpack(v: int) -> Pos:
    """The position pack encoded as v: z and y are read back as the
    balanced residues of the low fields, and x is what is left."""
    z = ((v + PACK_LIMIT) & _MASK) - PACK_LIMIT
    v = (v - z) >> PACK_BITS
    y = ((v + PACK_LIMIT) & _MASK) - PACK_LIMIT
    return ((v - y) >> PACK_BITS, y, z)


def pack_frame(
    positions: Sequence[Pos], origin: Pos, margin: int = 0
) -> tuple[int, ...]:
    """pack(p - origin) for each position, in order.

    Raises ValidationError unless every y and z offset from the origin
    stays in the exact range even after moving margin more steps away.
    """
    oy, oz = origin[1], origin[2]
    spread = max((max(abs(p[1] - oy), abs(p[2] - oz)) for p in positions), default=0)
    if spread + margin >= PACK_LIMIT:
        raise ValidationError(
            f"positions span {_echo(spread)} lattice steps in y or z from "
            f"{_echo(origin)}; with {_echo(margin)} more steps that leaves the "
            f"exact range of {PACK_LIMIT} (see lattice.PACK_BITS)"
        )
    return tuple(pack(sub(p, origin)) for p in positions)


PACKED_DIRS: tuple[int, ...] = tuple(pack(d) for d in FACE_DIRS)


def neighbors(p: Sequence[int]) -> list[Pos]:
    """The 12 nearest-neighbor positions of p, in FACE_DIRS order."""
    p = check_pos(p)
    return [add(p, d) for d in FACE_DIRS]


def lattice_distance(p: Sequence[int], q: Sequence[int]) -> int:
    """Minimal number of neighbor steps between two lattice positions.

    Closed form: max(Chebyshev distance, ceil(L1 distance / 2)). Each step
    changes every coordinate by at most 1 (so Chebyshev is a lower bound)
    and the L1 norm by at most 2 (so half the L1 norm is too); the maximum
    of the two bounds is achievable on this lattice, which the test suite
    confirms against a breadth-first-search oracle out to radius 6.
    """
    p = check_pos(p)
    q = check_pos(q)
    ax = abs(q[0] - p[0])
    ay = abs(q[1] - p[1])
    az = abs(q[2] - p[2])
    return max(ax, ay, az, -((ax + ay + az) // -2))


# --------------------------------------------------------------------------
# rotation group
# --------------------------------------------------------------------------


def _det(m: Matrix) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _generate_rotations() -> tuple[Matrix, ...]:
    """The signed permutation matrices of determinant 1 (their rows are
    signed unit vectors), in descending order, which for rows of three
    entries is that of the row-major flattening."""
    units = [p for p in itertools.product((-1, 0, 1), repeat=3) if sum(map(abs, p)) == 1]
    return tuple(sorted(
        (m for m in itertools.product(units, repeat=3) if _det(m) == 1), reverse=True
    ))


ROTATIONS: tuple[Matrix, ...] = _generate_rotations()
ROTATION_INDEX: dict[Matrix, int] = {m: i for i, m in enumerate(ROTATIONS)}
IDENTITY: int = ROTATION_INDEX[((1, 0, 0), (0, 1, 0), (0, 0, 1))]
assert IDENTITY == 0 and len(ROTATIONS) == 24


def _mat_apply(m: Matrix, v: Sequence[int]) -> Pos:
    return (
        m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2],
        m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2],
        m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2],
    )


def _check_rot(r: int) -> int:
    return _as_int_in(r, "rotation index", 0, 23)


def _check_dir(d: int) -> int:
    return _as_int_in(d, "face direction index", 0, 11)


def _dir_index(d) -> int:
    """FACE_DIRS index of a direction vector of ints (numpy ints too;
    bools and floats are rejected like everywhere else)."""
    try:
        i = FACE_DIR_INDEX.get(tuple(_as_int(x) for x in d))
    except (TypeError, ValidationError):
        i = None
    if i is None:
        raise ValidationError(f"not a face direction: {_echo(d)}")
    return i


def _roll_faces(d1, d2) -> tuple[int, int]:
    """FACE_DIRS indices of two direction vectors (by _dir_index's rule)
    whose faces share an edge by ROLLS; the one statement of the error
    for faces that do not."""
    i1, i2 = _dir_index(d1), _dir_index(d2)
    if i2 not in ROLLS[i1]:
        raise ValidationError(
            f"faces {FACE_DIRS[i1]} and {FACE_DIRS[i2]} do not share an edge"
        )
    return i1, i2


# the permutation of FACE_DIRS each rotation induces fixes the rotation
# (the directions span space), so composition and inverse are read off
# the permutations: "apply b, then a" is the one whose permutation is
# a[b[d]], and the inverse's permutation is the inverse permutation
DIR_PERM: tuple[tuple[int, ...], ...] = tuple(
    tuple(FACE_DIR_INDEX[_mat_apply(m, d)] for d in FACE_DIRS) for m in ROTATIONS
)
_PERM_INDEX: dict[tuple[int, ...], int] = {p: r for r, p in enumerate(DIR_PERM)}
ROT_MUL: tuple[tuple[int, ...], ...] = tuple(
    tuple(_PERM_INDEX[tuple(map(a.__getitem__, b))] for b in DIR_PERM) for a in DIR_PERM
)
ROT_INV: tuple[int, ...] = tuple(
    _PERM_INDEX[tuple(sorted(range(12), key=p.__getitem__))] for p in DIR_PERM
)


def rotation_matrix(r: int) -> Matrix:
    """The 3x3 signed-integer matrix of a rotation index."""
    return ROTATIONS[_check_rot(r)]


def compose(r1: int, r2: int) -> int:
    """Index of the rotation 'apply r2, then r1' (matrix product r1 @ r2)."""
    return ROT_MUL[_check_rot(r1)][_check_rot(r2)]


def inverse(r: int) -> int:
    """Index of the inverse rotation."""
    return ROT_INV[_check_rot(r)]


def apply_rotation(r: int, p: Sequence[int]) -> Pos:
    """Rotate a lattice position about the origin."""
    return _mat_apply(ROTATIONS[_check_rot(r)], check_pos(p))


def apply_rotation_dir(r: int, d: int) -> int:
    """Rotate a face direction (both given and returned as indices)."""
    return DIR_PERM[_check_rot(r)][_check_dir(d)]


# --------------------------------------------------------------------------
# cells and configurations
# --------------------------------------------------------------------------


class CellKind(Enum):
    ACTIVE = "active"
    PASSIVE = "passive"


@dataclass(frozen=True, slots=True)
class Cell:
    """One unit cell: lattice position, kind, and orientation index."""

    pos: Pos
    kind: CellKind = CellKind.PASSIVE
    orient: int = IDENTITY

    def __post_init__(self) -> None:
        # the value rules return a normal value itself, which needs no set
        if (pos := check_pos(self.pos)) is not self.pos:
            object.__setattr__(self, "pos", pos)
        if (orient := _check_rot(self.orient)) is not self.orient:
            object.__setattr__(self, "orient", orient)
        if not isinstance(self.kind, CellKind):
            raise ValidationError(f"bad cell kind {_echo(self.kind)}")


class Configuration:
    """An immutable finite set of cells with pairwise distinct positions."""

    __slots__ = ("cells", "_by_pos")

    def __init__(self, cells: Iterable[Cell]):
        cs = sorted(cells, key=lambda c: c.pos)
        by_pos = {c.pos: c for c in cs}
        if len(by_pos) != len(cs):  # sorted, so a duplicate follows its twin
            dup = next(a.pos for a, b in zip(cs, cs[1:]) if a.pos == b.pos)
            raise ValidationError(f"duplicate cell position {_echo(dup)}")
        self.cells: tuple[Cell, ...] = tuple(cs)
        self._by_pos: dict[Pos, Cell] = by_pos

    @classmethod
    def from_positions(
        cls,
        positions: Iterable[Sequence[int]],
        kind: CellKind = CellKind.PASSIVE,
        orient: int = IDENTITY,
    ) -> "Configuration":
        return cls(Cell(p, kind, orient) for p in positions)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    def __contains__(self, pos: Pos) -> bool:
        return pos in self._by_pos

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Configuration) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"Configuration({len(self.cells)} cells)"

    @property
    def positions(self) -> tuple[Pos, ...]:
        return tuple(c.pos for c in self.cells)

    def cell_at(self, pos: Pos) -> Cell:
        return self._by_pos[pos]

    def translate(self, offset: Sequence[int]) -> "Configuration":
        """Shift all cells by an even-sum offset."""
        off = check_pos(offset)
        return Configuration(
            Cell(add(c.pos, off), c.kind, c.orient) for c in self.cells
        )


def _require_nonempty(*configs: Configuration) -> None:
    """Raise ValidationError unless every configuration has a cell."""
    if not all(configs):
        raise ValidationError("configuration is empty")


def canonicalize(c: Configuration) -> Configuration:
    """Translate so the lexicographically smallest position is the origin.

    Any two configurations equal up to translation canonicalize to the same
    value (translations between valid positions always have even coordinate
    sum, so the shift is always valid). Kinds and orientations ride along.
    """
    _require_nonempty(c)
    m = c.cells[0].pos  # cells are kept sorted
    if m == (0, 0, 0):
        return c
    return c.translate((-m[0], -m[1], -m[2]))


def _one_piece(occupied: AbstractSet[int]) -> bool:
    """Do the packed positions of a nonempty set form one face-connected piece?"""
    start = next(iter(occupied))
    seen = {start}
    stack = [start]
    while stack:
        p = stack.pop()
        for d in PACKED_DIRS:
            n = p + d
            if n in occupied and n not in seen:
                seen.add(n)
                stack.append(n)
    return len(seen) == len(occupied)


Contacts = list[list[tuple[int, int]]]

# (f, PACKED_DIRS[f], opposite of f) for the six faces whose packed
# direction is negative; the other six are their opposites
_LOWER_FACES = tuple((f, d, OPPOSITE_DIR[f]) for f, d in enumerate(PACKED_DIRS) if d < 0)


def contacts(positions: Sequence[int]) -> Contacts:
    """Per index of sorted packed positions (one pack_frame frame), the
    cells it rests on, as (face index, neighbor index) pairs in FACE_DIRS
    order: positions[i] == positions[j] + PACKED_DIRS[f].

    Each cell i looks up, in a position -> index dict, the six cells j
    it could rest on by a face f whose packed direction is negative
    (faces 0-5; such a j comes later in the order), and enters each
    contact found for both cells: (f, j) for i and (opposite of f, i)
    for j. So there are six lookups per cell and the cost stays linear
    in n. The cells are taken in descending order, so a cell's own
    contacts (faces 0-5) come first, and the others (faces 6-11) arrive
    afterwards from ever smaller cells, which is ascending face order.
    """
    index = {p: i for i, p in enumerate(positions)}
    get = index.get
    adj: Contacts = [[] for _ in positions]
    for i in range(len(positions) - 1, -1, -1):
        p, on = positions[i], adj[i]
        for f, d, g in _LOWER_FACES:
            j = get(p - d)
            if j is not None:
                on.append((f, j))
                adj[j].append((g, i))
    return adj


def _lowlink(adj: Contacts, root: int) -> tuple[int, set[int]]:
    """(cells reached from root, articulation cells of root's piece):
    one iterative lowlink pass (Hopcroft & Tarjan, CACM 1973) over the
    contact lists of contacts().

    The edge back to a cell's DFS parent needs no skip: it lowers low[v]
    to at most disc[parent], which the cut test low[v] >= disc[parent]
    still passes, and low[parent] <= disc[parent] already.
    """
    disc = [-1] * len(adj)
    low = [0] * len(adj)
    disc[root] = 0
    reached = 1
    artic: set[int] = set()
    root_children = 0
    stack = [(root, iter(adj[root]))]
    while stack:
        v, it = stack[-1]
        for _, w in it:
            dw = disc[w]
            if dw < 0:
                disc[w] = low[w] = reached
                reached += 1
                stack.append((w, iter(adj[w])))
                break
            if dw < low[v]:
                low[v] = dw
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if len(stack) == 1:
                    root_children += 1
                elif low[v] >= disc[u]:
                    artic.add(u)
    if root_children >= 2:
        artic.add(root)
    return reached, artic


def is_connected(c: Configuration) -> bool:
    """True when the face-adjacency graph of the cells has one component."""
    _require_nonempty(c)
    try:
        packed = pack_frame(c.positions, c.cells[0].pos)
    except ValidationError:
        # n connected cells span at most n - 1 steps on every axis, far
        # inside the exact range
        return False
    return _one_piece(set(packed))


def removable_cells(adj: Contacts) -> set[int]:
    """The indices of the cells whose removal leaves the rest in one
    piece, from the contact lists of contacts().

    A single cell is removable. For a connected set these are the
    non-articulation cells, found in one lowlink pass; in a disconnected
    one, only an isolated cell can be, and only when the cells without
    it are connected.
    """
    n = len(adj)
    if n <= 1:
        return set(range(n))
    reached, artic = _lowlink(adj, 0)
    if reached == n:
        return set(range(n)) - artic
    # the rest of an isolated cell i is one piece when a pass from
    # another root reaches all of it
    return {i for i in range(n) if not adj[i] and _lowlink(adj, int(i == 0))[0] == n - 1}
