import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhombikit.errors import IllegalMove, ValidationError
from rhombikit.geometry import FACE_VERTICES, CANONICAL_VERTICES, shared_face_edge
from rhombikit.kinematics import (
    MoveLegality,
    PivotMove,
    _legal_rolls,
    _roll_table,
    apply_move,
    check_move,
    legal_moves,
    pivot_destinations,
    pivot_rotation,
)
from rhombikit.lattice import (
    FACE_DIRS,
    FACE_DIR_INDEX,
    IDENTITY,
    ROLLS,
    ROTATIONS,
    Cell,
    CellKind,
    Configuration,
    add,
    compose,
    is_connected,
    lattice_distance,
    pack,
    sub,
)

from conftest import random_connected_positions


def _grown(drawn):
    """A connected configuration grown from the origin: each step puts a
    cell next to an earlier one (a taken spot is skipped), and the cells
    take the drawn kinds and orientations in order."""
    steps, looks = drawn
    cells = [(0, 0, 0)]
    for i, d in steps:
        p = add(cells[i % len(cells)], d)
        if p not in cells:
            cells.append(p)
    return Configuration(Cell(p, k, r) for p, (k, r) in zip(cells, looks))


# 2-9 cells (the first step always adds one), mixed kinds and orientations
_connected = st.tuples(
    st.lists(
        st.tuples(st.integers(0, 8), st.sampled_from(FACE_DIRS)),
        min_size=1,
        max_size=8,
    ),
    st.lists(
        st.tuples(st.sampled_from(CellKind), st.integers(0, 23)),
        min_size=9,
        max_size=9,
    ),
).map(_grown)


def _all_pairs():
    for f in FACE_DIRS:
        for t in pivot_destinations(f):
            yield f, t


class TestPivotDestinations:
    def test_example(self):
        assert set(pivot_destinations((1, 1, 0))) == {
            (1, 0, 1),
            (1, 0, -1),
            (0, 1, 1),
            (0, 1, -1),
        }

    def test_four_for_all_dirs(self):
        for d in FACE_DIRS:
            dests = pivot_destinations(d)
            assert len(dests) == 4
            assert dests == sorted(dests)  # fixed enumeration order

    def test_symmetric_relation(self):
        for d in FACE_DIRS:
            for e in pivot_destinations(d):
                assert d in pivot_destinations(e)

    def test_matches_mesh_edge_incidence(self):
        # destinations are exactly the faces sharing a mesh edge with d
        for di, d in enumerate(FACE_DIRS):
            sharing = [
                FACE_DIRS[dj]
                for dj in range(12)
                if dj != di
                and len(set(FACE_VERTICES[di]) & set(FACE_VERTICES[dj])) == 2
            ]
            assert sorted(sharing) == pivot_destinations(d)

    def test_example_shared_edge(self):
        assert shared_face_edge((1, 1, 0), (1, 0, 1)) == ((1, 1, 1), (2, 0, 0))

    def test_invalid_dir(self):
        with pytest.raises(ValidationError):
            pivot_destinations((2, 0, 0))

    @pytest.mark.parametrize("bad", [(True, True, False), (1.0, 1.0, 0.0), (1.0, 1, 0)])
    def test_bool_and_float_dirs_rejected(self, bad):
        with pytest.raises(ValidationError, match="face direction"):
            pivot_destinations(bad)

    def test_numpy_int_dir_accepted(self):
        assert pivot_destinations(np.array((1, 1, 0))) == pivot_destinations((1, 1, 0))


class TestPivotRotation:
    def test_all_48_order_three_trace_zero(self):
        for f, t in _all_pairs():
            move = PivotMove(f, (0, 0, 0), f, t)
            r = pivot_rotation(move)
            m = np.array(ROTATIONS[r])
            assert np.trace(m) == 0
            assert compose(r, compose(r, r)) == IDENTITY

    def test_fixes_edge_direction_and_rolls_cell(self):
        for f, t in _all_pairs():
            move = PivotMove(f, (0, 0, 0), f, t)
            r = pivot_rotation(move)
            m = np.array(ROTATIONS[r])
            e0, e1 = shared_face_edge(f, t)
            axis = np.subtract(e1, e0)
            assert np.array_equal(m @ axis, axis)
            # the roll about the edge line carries the mover cell onto the
            # destination cell
            start = 2 * np.array(f)
            assert np.array_equal(np.array(e0) + m @ (start - e0), 2 * np.array(t))

    def test_preserves_vertex_set(self):
        verts = set(CANONICAL_VERTICES)
        for f, t in _all_pairs():
            r = pivot_rotation(PivotMove(f, (0, 0, 0), f, t))
            m = np.array(ROTATIONS[r])
            assert {tuple(m @ v) for v in verts} == verts

    def test_reverse_is_inverse(self):
        for f, t in _all_pairs():
            move = PivotMove(f, (0, 0, 0), f, t)
            assert compose(pivot_rotation(move), pivot_rotation(move.reversed())) == IDENTITY

    def test_step_between_faces_is_a_face_dir(self):
        for f, t in _all_pairs():
            assert sub(t, f) in FACE_DIR_INDEX

    def test_orientation_update_matches_physical_roll(self):
        # tracking a marked body point through the affine roll about the
        # pivot edge must agree with the orientation bookkeeping: the
        # marker at R_o v relative to the old center sits at R_(r o) v
        # relative to the new one
        rng = np.random.default_rng(67)
        for f, t in _all_pairs():
            o = int(rng.integers(24))
            v = np.array([1.0, 1.0, -1.0])  # a body-local marker vertex
            r = pivot_rotation(PivotMove(f, (0, 0, 0), f, t))
            e0, e1 = shared_face_edge(f, t)
            rot = np.array(ROTATIONS[r])
            world_before = 2 * np.array(f) + np.array(ROTATIONS[o]) @ v
            world_after = np.array(e0) + rot @ (world_before - np.array(e0))
            predicted = 2 * np.array(t) + np.array(ROTATIONS[compose(r, o)]) @ v
            assert np.allclose(world_after, predicted)


class TestPivotMoveValidation:
    def test_non_adjacent_faces_rejected(self):
        with pytest.raises(ValidationError):
            PivotMove((1, 1, 0), (0, 0, 0), (1, 1, 0), (-1, -1, 0))

    def test_mover_substrate_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            PivotMove((2, 2, 0), (0, 0, 0), (1, 1, 0), (1, 0, 1))

    def test_destination(self):
        m = PivotMove((1, 1, 0), (0, 0, 0), (1, 1, 0), (1, 0, 1))
        assert m.destination == (1, 0, 1)

    @pytest.mark.parametrize("bad", [(True, True, False), (1.0, 1.0, 0.0), (1.0, 1, 0)])
    def test_bool_and_float_dirs_rejected(self, bad):
        with pytest.raises(ValidationError, match="face direction"):
            PivotMove((1, 1, 0), (0, 0, 0), bad, (1, 0, 1))
        with pytest.raises(ValidationError, match="face direction"):
            PivotMove((1, 1, 0), (0, 0, 0), (1, 1, 0), bad)

    def test_numpy_int_dirs_stored_as_face_dirs(self):
        m = PivotMove((1, 1, 0), (0, 0, 0), np.array((1, 1, 0)), [1, 0, 1])
        assert m == PivotMove((1, 1, 0), (0, 0, 0), (1, 1, 0), (1, 0, 1))
        assert m.from_dir is FACE_DIRS[FACE_DIR_INDEX[(1, 1, 0)]]
        assert all(type(x) is int for x in m.from_dir + m.to_dir)


class TestCheckMove:
    def setup_method(self):
        self.move = PivotMove((1, 1, 0), (0, 0, 0), (1, 1, 0), (1, 0, 1))

    def test_legal_two_cell(self):
        c = Configuration.from_positions([(0, 0, 0), (1, 1, 0)])
        assert check_move(c, self.move) is MoveLegality.LEGAL

    def test_destination_occupied(self):
        c = Configuration.from_positions([(0, 0, 0), (1, 1, 0), (1, 0, 1)])
        assert check_move(c, self.move) is MoveLegality.DESTINATION_OCCUPIED

    def test_disconnects_structure(self):
        line = Configuration.from_positions([(0, 0, 0), (1, 1, 0), (2, 2, 0)])
        assert check_move(line, self.move) is MoveLegality.DISCONNECTS_STRUCTURE

    def test_mover_absent(self):
        c = Configuration.from_positions([(0, 0, 0), (1, 0, -1)])
        assert check_move(c, self.move) is MoveLegality.MOVER_ABSENT

    def test_substrate_absent(self):
        c = Configuration.from_positions([(1, 1, 0), (2, 1, 1)])
        assert check_move(c, self.move) is MoveLegality.SUBSTRATE_ABSENT

    def test_swept_volume_blocked(self, blocker_table_ready):
        # (0,1,1) blocks the (1,1,0)->(1,0,1) roll; keep the rest connected
        c = Configuration.from_positions([(0, 0, 0), (1, 1, 0), (0, 1, 1)])
        assert check_move(c, self.move) is MoveLegality.SWEPT_VOLUME_BLOCKED

    def test_check_order_destination_before_connectivity(self):
        # middle of a line moving onto an occupied destination: destination
        # check fires first in the documented order
        c = Configuration.from_positions([(0, 0, 0), (1, 1, 0), (2, 2, 0), (1, 0, 1)])
        assert check_move(c, self.move) is MoveLegality.DESTINATION_OCCUPIED

    def test_strict_stability(self):
        c = Configuration.from_positions([(0, 0, 0), (1, 1, 0)])
        assert check_move(c, self.move, strict_stability=True) is MoveLegality.UNSTABLE
        # (0,-1,1) braces the landing: adjacent to the destination, adjacent
        # to the substrate (so nothing disconnects), and not a blocker
        c2 = Configuration.from_positions([(0, 0, 0), (1, 1, 0), (0, -1, 1)])
        assert sub(self.move.destination, (0, -1, 1)) in FACE_DIR_INDEX
        assert check_move(c2, self.move, strict_stability=True) is MoveLegality.LEGAL
        assert check_move(c2, self.move) is MoveLegality.LEGAL


class TestApplyMove:
    def test_bookkeeping(self):
        c = Configuration.from_positions([(0, 0, 0), (1, 1, 0)])
        m = PivotMove((1, 1, 0), (0, 0, 0), (1, 1, 0), (1, 0, 1))
        c2 = apply_move(c, m)
        assert c2.positions == ((0, 0, 0), (1, 0, 1))

    def test_kind_preserved_orientation_composed(self):
        c = Configuration(
            [Cell((0, 0, 0)), Cell((1, 1, 0), CellKind.ACTIVE, orient=5)]
        )
        m = PivotMove((1, 1, 0), (0, 0, 0), (1, 1, 0), (1, 0, 1))
        c2 = apply_move(c, m)
        moved = c2.cell_at((1, 0, 1))
        assert moved.kind is CellKind.ACTIVE
        assert moved.orient == compose(pivot_rotation(m), 5)

    def test_cell_count_invariant_and_connected(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            c = Configuration.from_positions(random_connected_positions(rng, 6))
            moves = legal_moves(c)
            if not moves:
                continue
            m = moves[rng.integers(len(moves))]
            c2 = apply_move(c, m)
            assert len(c2) == len(c)
            assert is_connected(c2)
            assert all(sum(cell.pos) % 2 == 0 for cell in c2.cells)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(_connected)
    def test_move_then_reverse_restores(self, c):
        for m in legal_moves(c):
            c2 = apply_move(c, m)
            assert m.reversed() in legal_moves(c2)  # reversibility
            # positions, kinds and orientations restored
            assert apply_move(c2, m.reversed()) == c

    def test_illegal_move_raises_with_reason(self):
        c = Configuration.from_positions([(0, 0, 0), (1, 1, 0), (1, 0, 1)])
        m = PivotMove((1, 1, 0), (0, 0, 0), (1, 1, 0), (1, 0, 1))
        with pytest.raises(IllegalMove) as ei:
            apply_move(c, m)
        assert ei.value.reason is MoveLegality.DESTINATION_OCCUPIED


def _brute_legal_moves(c, strict, verdicts):
    """Every candidate roll filtered through check_move, in legal_moves'
    order; the verdict of each candidate is counted in verdicts."""
    brute = []
    for cell in c.cells:
        for f in FACE_DIRS:
            s = sub(cell.pos, f)
            if s not in c:
                continue
            for t in pivot_destinations(f):
                m = PivotMove(cell.pos, s, f, t)
                verdict = check_move(c, m, strict)
                verdicts[verdict] += 1
                if verdict is MoveLegality.LEGAL:
                    brute.append(m)
    return brute


def _assert_filters_exercised(verdicts):
    # the move generator tests the destination and the blockers in one
    # set test; both halves must have rejected some candidate
    assert verdicts[MoveLegality.SWEPT_VOLUME_BLOCKED] > 0, verdicts
    assert verdicts[MoveLegality.DESTINATION_OCCUPIED] > 0, verdicts


class TestLegalMoves:
    def test_two_cell_count(self):
        # an isolated mover on one substrate face has exactly 4 pivots;
        # both cells can move, so 8 in total
        c = Configuration.from_positions([(0, 0, 0), (1, 1, 0)])
        moves = legal_moves(c)
        assert len(moves) == 8
        per_mover = {}
        for m in moves:
            per_mover.setdefault(m.mover, []).append(m)
        assert all(len(v) == 4 for v in per_mover.values())

    def test_deterministic_lexicographic_order(self):
        c = Configuration.from_positions([(0, 0, 0), (1, 1, 0), (1, 0, 1)])
        moves = legal_moves(c)
        keys = [
            (m.mover, FACE_DIR_INDEX[m.from_dir], FACE_DIR_INDEX[m.to_dir])
            for m in moves
        ]
        assert keys == sorted(keys)

    def test_single_cell_no_moves(self):
        assert legal_moves(Configuration.from_positions([(0, 0, 0)])) == []

    def test_equivalent_to_check_move_filter(self):
        # the brute filter checks candidate enumeration, destination,
        # blocker and stability filtering; both sides share
        # lattice.removable_cells, whose own independent oracle is
        # tests/test_lattice.py::TestRemovableCells
        rng = np.random.default_rng(83)
        configs = []
        for _ in range(40):
            configs.append(
                Configuration.from_positions(
                    random_connected_positions(rng, int(rng.integers(2, 9)))
                )
            )
        # disconnected inputs too: two separated clusters, and a cluster
        # plus an isolated cell (whose removal reconnects the rest)
        configs.append(
            Configuration.from_positions([(0, 0, 0), (1, 1, 0), (4, 4, 0), (5, 5, 0)])
        )
        configs.append(
            Configuration.from_positions([(0, 0, 0), (1, 1, 0), (6, 6, 0)])
        )
        # and one structure of the paper's 48 cells
        configs.append(Configuration.from_positions(random_connected_positions(rng, 48)))
        for strict in (False, True):
            verdicts = Counter()
            for c in configs:
                assert legal_moves(c, strict) == _brute_legal_moves(c, strict, verdicts)
            _assert_filters_exercised(verdicts)

            # and generated configurations of mixed kinds and orientations
            generated = Counter()

            @settings(derandomize=True, deadline=None, max_examples=100)
            @given(_connected)
            def agrees(c):
                assert legal_moves(c, strict) == _brute_legal_moves(c, strict, generated)

            agrees()
            _assert_filters_exercised(generated)

    # sha256 of repr([_legal_rolls(packed shape, strict) for each shape])
    # over the 475 four-cell box shapes, recorded at commit dbee4b5, whose
    # generator probed all 12 faces of every cell for a substrate
    RECORDED_ROLLS = {
        False: "cb1fce9135a3970175b0af450b49a9b005da9bcfeeee1f9ffd931d46ac6c51b3",
        True: "6f66b17d6a99faba6a83a49be3d334ed321e6f3a01f8307a21157fd98a6fd5e0",
    }

    @pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
    def test_generator_matches_recorded_rolls(self, shape_graphs, strict):
        shapes, _, _ = shape_graphs[4]
        assert len(shapes) == 475
        rolls = [_legal_rolls(tuple(map(pack, s)), strict) for s in shapes]
        digest = hashlib.sha256(repr(rolls).encode()).hexdigest()
        assert digest == self.RECORDED_ROLLS[strict]


class TestRollTable:
    def test_support_sets_match_a_neighbour_scan(self):
        # the cells next to the destination, found by distance in a box
        # around the substrate, less the substrate and the mover's start
        origin = (0, 0, 0)
        box = [
            p
            for p in itertools.product(range(-3, 4), repeat=3)
            if sum(p) % 2 == 0
        ]
        table = _roll_table()
        assert len(table) == 12
        for fi, rolls in enumerate(table):
            assert [ti for ti, _, _ in rolls] == list(ROLLS[fi])
            for ti, _, support in rolls:
                dest = FACE_DIRS[ti]
                scan = {
                    pack(p)
                    for p in box
                    if lattice_distance(p, dest) == 1 and p not in (origin, FACE_DIRS[fi])
                }
                assert len(scan) == 10
                assert support == scan, (fi, ti)


def _shifted(m: PivotMove, off) -> PivotMove:
    return PivotMove(add(m.mover, off), add(m.substrate, off), m.from_dir, m.to_dir)


class TestFarFromTheOrigin:
    # legal_moves and check_move pack a configuration relative to its own
    # smallest position, so coordinates of any size give the results of
    # the same shape at the origin, shifted
    OFF = (10**12, -(10**12), 0)

    @pytest.mark.parametrize("strict", [False, True])
    def test_legal_moves_shift_with_the_configuration(self, strict):
        rng = np.random.default_rng(5)
        for _ in range(30):
            c = Configuration.from_positions(
                random_connected_positions(rng, int(rng.integers(2, 8)))
            )
            far = c.translate(self.OFF)
            assert legal_moves(far, strict) == [
                _shifted(m, self.OFF) for m in legal_moves(c, strict)
            ]

    @pytest.mark.parametrize("strict", [False, True])
    def test_check_move_shifts_with_the_configuration(self, strict):
        rng = np.random.default_rng(6)
        verdicts = Counter()
        for _ in range(30):
            c = Configuration.from_positions(
                random_connected_positions(rng, int(rng.integers(2, 8)))
            )
            far = c.translate(self.OFF)
            for cell in c.cells:
                for f, t in _all_pairs():
                    m = PivotMove(cell.pos, sub(cell.pos, f), f, t)
                    v = check_move(c, m, strict)
                    verdicts[v] += 1
                    assert check_move(far, _shifted(m, self.OFF), strict) is v
        assert len(verdicts) >= 5, verdicts

    def test_span_beyond_the_exact_range_rejected(self):
        # two cells further apart in y than a packed field holds
        from rhombikit.lattice import PACK_LIMIT

        c = Configuration.from_positions([(0, 0, 0), (1, 1, 0), (0, 2 * PACK_LIMIT, 0)])
        with pytest.raises(ValidationError, match="exact range"):
            legal_moves(c)
        m = PivotMove((1, 1, 0), (0, 0, 0), (1, 1, 0), (1, 0, 1))
        with pytest.raises(ValidationError, match="exact range"):
            check_move(c, m)
