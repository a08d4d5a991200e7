"""The 120-degree edge pivot: one cell rolling about a substrate cell.

A mover resting on a substrate face can roll about any of that face's
four edges and land on the adjacent face, because every face pair related
by an edge roll realigns exactly (the same property that makes the shape
roll in your hand). A move is described by the mover, the substrate, and
the substrate faces it leaves and lands on; legality additionally demands
that the destination is free, the structure stays connected without the
mover (lattice.removable_cells, the one articulation pass both check_move
and the move generator use), and nothing occupies the volume the mover
sweeps through. The one generator, _legal_rolls, takes the sorted
occupied positions packed as ints (lattice.pack) and returns plain
(index, substrate, from_index, to_index) tuples: the mover's index in
the positions it was given, the substrate packed and the faces as
FACE_DIRS indices, so a caller that holds the positions reads the mover
without searching for it. legal_moves and check_move pack a
configuration relative to its own smallest position (lattice.pack_frame)
and unpack the result, so they take and return ordinary coordinates of
any size; the planner memoizes successor ids only and runs the
generator again for the steps of the plan it returns, and both it and
legal_moves turn a roll back into a PivotMove with _pivot. The faces a
roll may go between are lattice.ROLLS. The generator tests a
candidate's destination and swept volume together, as one set test of
the occupied positions relative to the substrate against the roll's
shadow (destination plus blocker offsets, a frozenset of packed ints);
check_move tests the same shadow (its to index's entry of the face's
rolls, whose order is that of lattice.ROLLS).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache

from .errors import IllegalMove, ValidationError
from .geometry import blocker_table
from .lattice import (
    DIR_PERM,
    FACE_DIRS,
    FACE_DIR_INDEX,
    OPPOSITE_DIR,
    PACKED_DIRS,
    ROLLS,
    ROTATIONS,
    Cell,
    Configuration,
    Pos,
    _dir_index,
    _echo,
    _roll_faces,
    add,
    check_pos,
    compose,
    pack,
    pack_frame,
    removable_cells,
    sub,
    unpack,
)


class MoveLegality(Enum):
    LEGAL = "legal"
    DESTINATION_OCCUPIED = "destination_occupied"
    SWEPT_VOLUME_BLOCKED = "swept_volume_blocked"
    DISCONNECTS_STRUCTURE = "disconnects_structure"
    MOVER_ABSENT = "mover_absent"
    SUBSTRATE_ABSENT = "substrate_absent"
    UNSTABLE = "unstable"  # strict mode only: mover would land with a single attachment


@dataclass(frozen=True, slots=True)
class PivotMove:
    """One roll: mover = substrate + from_dir pivots to substrate + to_dir."""

    mover: Pos
    substrate: Pos
    from_dir: Pos
    to_dir: Pos

    def __post_init__(self) -> None:
        object.__setattr__(self, "mover", check_pos(self.mover))
        object.__setattr__(self, "substrate", check_pos(self.substrate))
        fi, ti = _roll_faces(self.from_dir, self.to_dir)
        f = FACE_DIRS[fi]
        object.__setattr__(self, "from_dir", f)
        object.__setattr__(self, "to_dir", FACE_DIRS[ti])
        if sub(self.mover, self.substrate) != f:
            raise ValidationError(
                f"mover {_echo(self.mover)} is not at substrate "
                f"{_echo(self.substrate)} + {f}"
            )

    @property
    def destination(self) -> Pos:
        return add(self.substrate, self.to_dir)

    def reversed(self) -> "PivotMove":
        """The move that rolls the cell back where it came from."""
        return PivotMove(self.destination, self.substrate, self.to_dir, self.from_dir)


def pivot_destinations(d: Pos) -> list[Pos]:
    """The four directions reachable from face d by one edge roll: the
    faces sharing an edge with face d (lattice.ROLLS), in FACE_DIRS order.
    """
    return [FACE_DIRS[j] for j in ROLLS[_dir_index(d)]]


def _solve_pivot_rotations() -> dict[tuple[int, int], int]:
    """For each (from, to) pair, the unique 120-degree body rotation.

    The pivot axis is the body diagonal orthogonal to from-face f and
    to-face t. The six face directions orthogonal to it form a hexagon
    with 60-degree steps: f, t, ..., -f. A 120-degree turn (trace 0) in
    the sense from f to t moves each two steps, so it carries t onto -f;
    exactly one such turn does. Read off the integer tables at import.
    """
    table: dict[tuple[int, int], int] = {}
    for fi, tis in enumerate(ROLLS):
        for ti in tis:
            sols = [
                ri
                for ri, m in enumerate(ROTATIONS)
                if m[0][0] + m[1][1] + m[2][2] == 0  # trace 0: a 120-degree turn
                and DIR_PERM[ri][ti] == OPPOSITE_DIR[fi]
            ]
            if len(sols) != 1:  # pragma: no cover - geometric impossibility
                raise AssertionError(f"pivot rotation not unique for {fi}->{ti}")
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
    if move.destination in c:
        return MoveLegality.DESTINATION_OCCUPIED
    origin, packed = _frame(c)
    occupied = set(packed)
    mover = pack(sub(move.mover, origin))
    if mover not in removable_cells(occupied):
        return MoveLegality.DISCONNECTS_STRUCTURE
    s = pack(sub(move.substrate, origin))
    fi = FACE_DIR_INDEX[move.from_dir]
    ti = FACE_DIR_INDEX[move.to_dir]
    # the generator's shadow of the roll; its destination is known free
    if any(s + o in occupied for o in _roll_table()[fi][2][ROLLS[fi].index(ti)][1]):
        return MoveLegality.SWEPT_VOLUME_BLOCKED
    if strict_stability and not _supported(occupied, s + PACKED_DIRS[ti], s, mover):
        return MoveLegality.UNSTABLE
    return MoveLegality.LEGAL


def _frame(c: Configuration) -> tuple[Pos, tuple[int, ...]]:
    """c's smallest position and its positions packed relative to it,
    sorted (pack keeps the order); an empty c packs to nothing. The
    margin covers the two steps a roll's shadow reaches beyond the cells."""
    positions = c.positions
    origin = min(positions, default=(0, 0, 0))
    return origin, pack_frame(positions, origin, margin=2)


def _supported(occupied, dest: int, substrate: int, mover: int) -> bool:
    """Does dest touch an occupied cell other than the substrate and the mover?"""
    return any(
        (n := dest + d) in occupied and n != substrate and n != mover
        for d in PACKED_DIRS
    )


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
        raise IllegalMove(
            f"move {_echo(move)} is illegal: {legality.value}", reason=legality
        )
    cell = c.cell_at(move.mover)
    moved = Cell(move.destination, cell.kind, compose(pivot_rotation(move), cell.orient))
    return Configuration(
        [moved] + [x for x in c.cells if x.pos != move.mover]
    )


def legal_moves(
    c: Configuration, strict_stability: bool = False
) -> list[PivotMove]:
    """All legal moves, ordered by (mover position, from index, to index).

    Equivalent to filtering every candidate through check_move.
    """
    origin, packed = _frame(c)
    return [
        _pivot(origin, packed[index], s, fi, ti)
        for index, s, fi, ti in _legal_rolls(packed, strict_stability)
    ]


def _pivot(origin: Pos, mover: int, substrate: int, fi: int, ti: int) -> PivotMove:
    """The PivotMove of a packed roll, in the coordinates where the
    frame's origin is origin: the one way back from a roll to a move."""
    mover_pos, substrate_pos = add(unpack(mover), origin), add(unpack(substrate), origin)
    return PivotMove(mover_pos, substrate_pos, FACE_DIRS[fi], FACE_DIRS[ti])


Roll = tuple[int, int, int, int]  # (mover's index, substrate, from index, to index)


@cache
def _roll_table() -> list[tuple[int, int, list[tuple[int, frozenset[int]]]]]:
    """[(from index, from step, [(to index, shadow), ...]), ...] in
    FACE_DIRS order, the to indices those of lattice.ROLLS, the steps and
    shadows packed.

    A roll's shadow is its destination offset plus its blocker offsets,
    all relative to the substrate: the roll is free exactly when no
    occupied cell lies in it.
    """
    table = blocker_table()
    return [
        (fi, PACKED_DIRS[fi], [
            (ti, frozenset((PACKED_DIRS[ti], *map(pack, table[fi, ti])))) for ti in tis
        ])
        for fi, tis in enumerate(ROLLS)
    ]


def _legal_rolls(positions: tuple[int, ...], strict: bool) -> list[Roll]:
    """The legal moves of sorted packed positions, in legal_moves' order.

    The connectivity analysis (removable_cells, the expensive part) runs
    once per call. Per substrate, the occupied positions are taken
    relative to it once, so that each candidate roll costs one set test
    against its shadow.
    """
    occupied = set(positions)
    removable = removable_cells(occupied)
    around: dict[int, set[int]] = {}  # substrate -> occupied offsets from it
    out = []
    for index, mover in enumerate(positions):
        if mover not in removable:
            continue
        for fi, f, rolls in _roll_table():
            s = mover - f
            if s not in occupied:
                continue
            rel = around.get(s)
            if rel is None:
                rel = around[s] = {p - s for p in positions}
            for ti, shadow in rolls:
                if not rel.isdisjoint(shadow):
                    continue
                if strict and not _supported(occupied, s + PACKED_DIRS[ti], s, mover):
                    continue
                out.append((index, s, fi, ti))
    return out
