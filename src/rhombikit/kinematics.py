"""The 120-degree edge pivot: one cell rolling about a substrate cell.

A mover resting on a substrate face can roll about any of that face's
four edges and land on the adjacent face, because every face pair related
by an edge roll realigns exactly (the same property that makes the shape
roll in your hand). A move is described by the mover, the substrate, and
the substrate faces it leaves and lands on; legality additionally demands
that the destination is free, the structure stays connected without the
mover (lattice.removable_cells, the one articulation pass both check_move
and legal_moves use), and nothing occupies the volume the mover sweeps
through.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import IllegalMove, ValidationError
from .geometry import blocker_table, shared_face_edge
from .lattice import (
    FACE_DIRS,
    FACE_DIR_INDEX,
    ROTATIONS,
    Cell,
    Configuration,
    Pos,
    _mat_apply,
    add,
    check_pos,
    compose,
    removable_cells,
    sub,
)


class MoveLegality(Enum):
    LEGAL = "legal"
    DESTINATION_OCCUPIED = "destination_occupied"
    SWEPT_VOLUME_BLOCKED = "swept_volume_blocked"
    DISCONNECTS_STRUCTURE = "disconnects_structure"
    MOVER_ABSENT = "mover_absent"
    SUBSTRATE_ABSENT = "substrate_absent"
    UNSTABLE = "unstable"  # strict mode only: mover would land with a single attachment


@dataclass(frozen=True)
class PivotMove:
    """One roll: mover = substrate + from_dir pivots to substrate + to_dir."""

    mover: Pos
    substrate: Pos
    from_dir: Pos
    to_dir: Pos

    def __post_init__(self) -> None:
        object.__setattr__(self, "mover", check_pos(self.mover))
        object.__setattr__(self, "substrate", check_pos(self.substrate))
        f = tuple(self.from_dir)
        t = tuple(self.to_dir)
        if f not in FACE_DIR_INDEX or t not in FACE_DIR_INDEX:
            raise ValidationError(f"bad face directions {f!r}, {t!r}")
        object.__setattr__(self, "from_dir", f)
        object.__setattr__(self, "to_dir", t)
        if sum(a * b for a, b in zip(f, t)) != 1:
            raise ValidationError(f"faces {f} and {t} do not share an edge")
        if sub(self.mover, self.substrate) != f:
            raise ValidationError(
                f"mover {self.mover} is not at substrate {self.substrate} + {f}"
            )

    @property
    def destination(self) -> Pos:
        return add(self.substrate, self.to_dir)

    def reversed(self) -> "PivotMove":
        """The move that rolls the cell back where it came from."""
        return PivotMove(self.destination, self.substrate, self.to_dir, self.from_dir)


def pivot_destinations(d: Pos) -> list[Pos]:
    """The four directions reachable from face d by one edge roll.

    Exactly the face directions at 60 degrees to d (dot product 1), in
    FACE_DIRS order; these are the faces sharing an edge with face d.
    """
    t = tuple(d)
    if t not in FACE_DIR_INDEX:
        raise ValidationError(f"not a face direction: {d!r}")
    return [e for e in FACE_DIRS if sum(a * b for a, b in zip(t, e)) == 1]


def _trace(m) -> int:
    return m[0][0] + m[1][1] + m[2][2]


def _solve_pivot_rotations() -> dict[tuple[int, int], int]:
    """For each (from, to) pair, the unique 120-degree body rotation.

    The rotation axis is the shared edge of the two substrate faces, so
    candidates are the order-3 group elements fixing the edge direction;
    the one whose roll about the edge line carries the mover's cell onto
    the destination cell wins. Solved exactly in integers once at import.
    """
    table: dict[tuple[int, int], int] = {}
    for fi, f in enumerate(FACE_DIRS):
        for t in pivot_destinations(f):
            ti = FACE_DIR_INDEX[t]
            e0, e1 = shared_face_edge(f, t)
            axis = sub(e1, e0)
            start = (2 * f[0] - e0[0], 2 * f[1] - e0[1], 2 * f[2] - e0[2])
            target = (2 * t[0], 2 * t[1], 2 * t[2])
            sols = [
                ri
                for ri, m in enumerate(ROTATIONS)
                if _trace(m) == 0
                and _mat_apply(m, axis) == axis
                and add(_mat_apply(m, start), e0) == target
            ]
            if len(sols) != 1:  # pragma: no cover - geometric impossibility
                raise AssertionError(f"pivot rotation not unique for {f}->{t}")
            table[(fi, ti)] = sols[0]
    return table


_PIVOT_ROTATIONS = _solve_pivot_rotations()


def pivot_rotation(move: PivotMove) -> int:
    """Rotation index applied to the mover's orientation by the roll.

    This is the linear part of the rigid roll about the pivot edge: an
    order-3 element (120 degrees, trace zero) that fixes the edge
    direction and carries the mover's cell onto the destination cell.
    Reversing the move yields the inverse element.
    """
    fi = FACE_DIR_INDEX[move.from_dir]
    ti = FACE_DIR_INDEX[move.to_dir]
    return _PIVOT_ROTATIONS[(fi, ti)]


def check_move(
    c: Configuration, move: PivotMove, strict_stability: bool = False
) -> MoveLegality:
    """Classify a move, reporting the first failed check.

    Check order: mover present, substrate present, destination free,
    connectivity without the mover (the mover is in removable_cells),
    swept volume clear. With
    strict_stability the mover must additionally land with at least one
    neighbor besides the substrate.
    """
    if move.mover not in c:
        return MoveLegality.MOVER_ABSENT
    if move.substrate not in c:
        return MoveLegality.SUBSTRATE_ABSENT
    dest = move.destination
    if dest in c:
        return MoveLegality.DESTINATION_OCCUPIED
    if move.mover not in removable_cells(c):
        return MoveLegality.DISCONNECTS_STRUCTURE
    fi = FACE_DIR_INDEX[move.from_dir]
    ti = FACE_DIR_INDEX[move.to_dir]
    for offset in blocker_table()[(fi, ti)]:
        if add(move.substrate, offset) in c:
            return MoveLegality.SWEPT_VOLUME_BLOCKED
    if strict_stability:
        support = sum(
            1
            for d in FACE_DIRS
            if (n := add(dest, d)) in c and n != move.substrate and n != move.mover
        )
        if support == 0:
            return MoveLegality.UNSTABLE
    return MoveLegality.LEGAL


def apply_move(
    c: Configuration, move: PivotMove, strict_stability: bool = False
) -> Configuration:
    """Carry out a legal move and return the new configuration.

    The mover keeps its kind; its orientation picks up the pivot
    rotation. Raises IllegalMove (carrying the legality reason) when the
    move fails check_move.
    """
    legality = check_move(c, move, strict_stability)
    if legality is not MoveLegality.LEGAL:
        raise IllegalMove(f"move {move} is illegal: {legality.value}", reason=legality)
    cell = c.cell_at(move.mover)
    moved = Cell(move.destination, cell.kind, compose(pivot_rotation(move), cell.orient))
    return Configuration(
        [moved] + [x for x in c.cells if x.pos != move.mover]
    )


def legal_moves(
    c: Configuration, strict_stability: bool = False
) -> list[PivotMove]:
    """All legal moves, ordered by (mover position, from index, to index).

    Equivalent to filtering every candidate through check_move, but the
    connectivity analysis (removable_cells, the expensive part) runs
    once per configuration instead of once per candidate, which matters
    inside the planner's inner loop.
    """
    table = blocker_table()
    removable: set[Pos] | None = None  # computed once, on first demand
    out = []
    for cell in c.cells:  # cells are sorted by position
        mover = cell.pos
        for fi, f in enumerate(FACE_DIRS):
            s = sub(mover, f)
            if s not in c:
                continue
            if removable is None:
                removable = removable_cells(c)
            if mover not in removable:
                break
            for t in pivot_destinations(f):
                dest = add(s, t)
                if dest in c:
                    continue
                ti = FACE_DIR_INDEX[t]
                if any(add(s, b) in c for b in table[(fi, ti)]):
                    continue
                if strict_stability and not any(
                    (n := add(dest, d)) in c and n != s and n != mover
                    for d in FACE_DIRS
                ):
                    continue
                out.append(PivotMove(mover, s, f, t))
    return out
