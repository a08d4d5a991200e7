import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhombikit.errors import ValidationError
from rhombikit.geometry import shared_face_edge, swept_cells
from rhombikit.kinematics import PivotMove
from rhombikit.lattice import (
    DIR_PERM,
    FACE_DIRS,
    FACE_DIR_INDEX,
    IDENTITY,
    OPPOSITE_DIR,
    PACK_LIMIT,
    PACKED_DIRS,
    ROLLS,
    ROTATIONS,
    ROT_INV,
    ROT_MUL,
    Cell,
    CellKind,
    Configuration,
    _roll_faces,
    add,
    apply_rotation,
    apply_rotation_dir,
    canonicalize,
    compose,
    contacts,
    inverse,
    is_connected,
    lattice_distance,
    neighbors,
    pack,
    pack_frame,
    removable_cells,
    rotation_matrix,
    sub,
    unpack,
)

from conftest import (
    bfs_distance_map,
    random_connected_positions,
    random_valid_pos,
    union_find_connected,
)


class TestFaceDirs:
    def test_twelve_signed_permutations(self):
        assert len(FACE_DIRS) == 12
        assert len(set(FACE_DIRS)) == 12
        for d in FACE_DIRS:
            assert sorted(map(abs, d)) == [0, 1, 1]

    def test_closed_under_negation(self):
        for i, d in enumerate(FACE_DIRS):
            neg = (-d[0], -d[1], -d[2])
            assert neg in FACE_DIR_INDEX
            assert OPPOSITE_DIR[i] == FACE_DIR_INDEX[neg]

    def test_lexicographic_order(self):
        assert list(FACE_DIRS) == sorted(FACE_DIRS)


class TestNeighbors:
    def test_origin_neighbors(self):
        result = neighbors((0, 0, 0))
        assert len(result) == 12
        for expected in [(1, 1, 0), (1, 0, -1), (0, -1, -1)]:
            assert expected in result

    def test_adjacency_symmetric(self):
        assert (0, 0, 0) in neighbors((1, 1, 0))
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_valid_pos(rng)
            for q in neighbors(p):
                assert p in neighbors(q)

    def test_even_sum_closure(self):
        for q in neighbors((2, 0, 0)):
            assert sum(q) % 2 == 0

    def test_fixed_enumeration_order(self):
        p = (4, 2, 0)
        assert neighbors(p) == [add(p, d) for d in FACE_DIRS]

    def test_invalid_position_rejected(self):
        with pytest.raises(ValidationError):
            neighbors((1, 0, 0))
        with pytest.raises(ValidationError):
            neighbors((1.0, 1.0, 0.0))  # type: ignore[arg-type]
        with pytest.raises(ValidationError):
            neighbors((True, True, 0))  # bool subclasses int

    def test_is_valid_pos(self):
        from rhombikit.lattice import is_valid_pos

        assert is_valid_pos((1, 1, 0))
        assert not is_valid_pos((1, 0, 0))
        assert not is_valid_pos((1.0, 1.0, 0.0))
        assert not is_valid_pos((1, 1))


class TestLatticeDistance:
    def test_identity_and_single_step(self):
        assert lattice_distance((0, 0, 0), (0, 0, 0)) == 0
        assert lattice_distance((0, 0, 0), (1, 1, 0)) == 1

    def test_example_against_bfs(self):
        dist = bfs_distance_map(3)
        assert dist[(2, 2, 2)] == 3
        assert lattice_distance((0, 0, 0), (2, 2, 2)) == 3

    def test_exact_agreement_with_bfs_radius_6(self):
        # the closed form is only adopted because it matches BFS out to
        # radius 6; radius 4 is the contractual minimum
        dist = bfs_distance_map(6)
        for p in itertools.product(range(-6, 7), repeat=3):
            if sum(p) % 2:
                continue
            assert lattice_distance((0, 0, 0), p) == dist[p], p

    def test_metric_axioms_sampled(self):
        rng = np.random.default_rng(7)
        pts = [random_valid_pos(rng, 8) for _ in range(30)]
        for p, q, r in zip(pts, pts[10:], pts[20:]):
            dpq = lattice_distance(p, q)
            assert dpq >= 0
            assert (dpq == 0) == (p == q)
            assert dpq == lattice_distance(q, p)
            assert lattice_distance(p, r) <= dpq + lattice_distance(q, r)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            lattice_distance((0, 0, 1), (0, 0, 0))


class TestRotationGroup:
    def test_group_size_and_matrix_shape(self):
        assert len(ROTATIONS) == 24
        assert len(set(ROTATIONS)) == 24
        for m in ROTATIONS:
            arr = np.array(m)
            assert set(arr.flatten()) <= {-1, 0, 1}
            assert (np.abs(arr).sum(axis=0) == 1).all()
            assert (np.abs(arr).sum(axis=1) == 1).all()
            assert round(np.linalg.det(arr)) == 1

    def test_group_axioms_exhaustive(self):
        assert rotation_matrix(IDENTITY) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        for a in range(24):
            assert compose(a, IDENTITY) == a == compose(IDENTITY, a)
            assert compose(a, inverse(a)) == IDENTITY
            for b in range(24):
                assert 0 <= ROT_MUL[a][b] < 24  # closure
        # associativity on a sample
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c = rng.integers(0, 24, size=3)
            assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_identity_action(self):
        assert apply_rotation(IDENTITY, (1, 1, 0)) == (1, 1, 0)

    def test_body_diagonal_three_cycle(self):
        # some order-3 element cycles (1,1,0) -> (0,1,1) -> (1,0,1) -> back
        cycle = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
        found = [
            r
            for r in range(24)
            if all(
                apply_rotation(r, cycle[i]) == cycle[(i + 1) % 3] for i in range(3)
            )
        ]
        assert len(found) == 1
        r = found[0]
        assert compose(r, compose(r, r)) == IDENTITY
        m = np.array(rotation_matrix(r))
        assert np.array_equal(m @ (1, 1, 1), np.array((1, 1, 1)))  # axis fixed

    def test_every_rotation_permutes_face_dirs(self):
        for r in range(24):
            images = [apply_rotation_dir(r, d) for d in range(12)]
            assert sorted(images) == list(range(12))
            for d in range(12):
                assert apply_rotation(r, FACE_DIRS[d]) == FACE_DIRS[DIR_PERM[r][d]]

    def test_rotate_dir_accepts_numpy_ints(self):
        assert apply_rotation_dir(np.int64(5), np.int64(3)) == DIR_PERM[5][3]

    @pytest.mark.parametrize("d", [-1, 12, 1.5, True, False, None, "1"])
    def test_rotate_dir_bad_direction_rejected(self, d):
        with pytest.raises(ValidationError, match="expected an integer|0..11"):
            apply_rotation_dir(0, d)

    @pytest.mark.parametrize("r", [-1, 24, 1.5, True, None])
    def test_bad_rotation_index_rejected(self, r):
        with pytest.raises(ValidationError):
            apply_rotation_dir(r, 0)
        with pytest.raises(ValidationError):
            compose(r, 0)

    def test_inverse_table(self):
        for r in range(24):
            m = np.array(rotation_matrix(r))
            minv = np.array(rotation_matrix(ROT_INV[r]))
            assert np.array_equal(m @ minv, np.eye(3, dtype=int))

    def test_mul_table_is_the_matrix_product(self):
        # the tables are read off the face permutations; the matrices are
        # the oracle. The group axioms alone would also pass the opposite
        # group (a transposed table)
        index = {m: i for i, m in enumerate(ROTATIONS)}
        for a, ma in enumerate(ROTATIONS):
            for b, mb in enumerate(ROTATIONS):
                product = tuple(map(tuple, (np.array(ma) @ np.array(mb)).tolist()))
                assert ROT_MUL[a][b] == index[product], (a, b)
            assert ROT_INV[a] == index[tuple(zip(*ma))]  # the transpose

    def test_rotations_are_the_proper_signed_permutations_in_order(self):
        # the 48 signed permutation matrices, numpy's determinant picking
        # the 24 proper ones; the index order is descending by flattening
        proper = set()
        for perm in itertools.permutations(np.eye(3, dtype=int)):
            for signs in itertools.product((1, -1), repeat=3):
                m = np.array(perm) * np.array(signs)[:, None]
                if round(np.linalg.det(m)) == 1:
                    proper.add(tuple(map(tuple, m.tolist())))
        assert set(ROTATIONS) == proper
        flat = [sum(m, ()) for m in ROTATIONS]
        assert flat == sorted(flat, reverse=True)


class TestEdgeRule:
    """lattice.ROLLS decides which faces share an edge, and _roll_faces
    states the one error for a pair that does not; every caller raises it."""

    CALLERS = {
        "PivotMove": lambda f, t: PivotMove(f, (0, 0, 0), f, t),
        "swept_cells": swept_cells,
        "shared_face_edge": shared_face_edge,
        "_roll_faces": _roll_faces,
    }

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    @pytest.mark.parametrize(
        "t", [(-1, -1, 0), (1, -1, 0), (1, 1, 0)], ids=["opposite", "orthogonal", "same"]
    )
    def test_one_message(self, caller, t):
        with pytest.raises(ValidationError) as info:
            self.CALLERS[caller](np.array((1, 1, 0)), t)
        assert str(info.value) == f"faces (1, 1, 0) and {t} do not share an edge"

    def test_indices_of_a_roll(self):
        for fi, f in enumerate(FACE_DIRS):
            for ti in ROLLS[fi]:
                assert _roll_faces(f, FACE_DIRS[ti]) == (fi, ti)


class TestConfiguration:
    def test_kind_must_be_a_cell_kind(self):
        with pytest.raises(ValidationError, match="^bad cell kind 'active'$"):
            Cell((0, 0, 0), "active")

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Configuration(
                [Cell((0, 0, 0)), Cell((0, 0, 0), CellKind.ACTIVE)]
            )

    def test_smallest_duplicate_named(self):
        cells = [Cell(p) for p in [(2, 2, 0), (1, 1, 0), (0, 0, 0), (2, 2, 0), (1, 1, 0)]]
        with pytest.raises(ValidationError) as info:
            Configuration(cells)
        assert str(info.value) == "duplicate cell position (1, 1, 0)"

    def test_metadata_preserved_by_translate(self):
        c = Configuration(
            [Cell((0, 0, 0), CellKind.ACTIVE, 5), Cell((1, 1, 0), CellKind.PASSIVE, 7)]
        )
        t = c.translate((2, 0, 0))
        assert t.cell_at((2, 0, 0)).kind is CellKind.ACTIVE
        assert t.cell_at((2, 0, 0)).orient == 5
        assert t.cell_at((3, 1, 0)).orient == 7

    def test_invalid_cell_position(self):
        with pytest.raises(ValidationError):
            Cell((1, 0, 0))

    def test_odd_translation_rejected(self):
        c = Configuration.from_positions([(0, 0, 0)])
        with pytest.raises(ValidationError):
            c.translate((1, 0, 0))

    def test_from_positions_reports_the_cell_rule(self):
        with pytest.raises(ValidationError) as info:
            Configuration.from_positions([(0, 0, 0), (1, 0, 0)])
        with pytest.raises(ValidationError) as direct:
            Cell((1, 0, 0))
        assert str(info.value) == str(direct.value)

    def test_equal_configurations_hash_equal(self):
        a = Configuration.from_positions([(0, 0, 0), (1, 1, 0), (2, 0, 2)])
        b = Configuration.from_positions([(2, 0, 2), (0, 0, 0), (1, 1, 0)])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != a.translate((2, 0, 0))


class TestCanonicalize:
    def test_already_canonical(self):
        c = Configuration.from_positions([(0, 0, 0)])
        assert canonicalize(c).positions == ((0, 0, 0),)

    def test_simple_translation(self):
        c = Configuration.from_positions([(2, 2, 0), (3, 3, 0)])
        assert canonicalize(c).positions == ((0, 0, 0), (1, 1, 0))

    def test_translation_invariance_property(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            pos = random_connected_positions(rng, int(rng.integers(1, 9)))
            c = Configuration.from_positions(pos)
            off = random_valid_pos(rng, 6)
            assert canonicalize(c.translate(off)) == canonicalize(c)

    def test_idempotent(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            c = Configuration.from_positions(
                random_connected_positions(rng, 5)
            ).translate((4, 2, 0))
            once = canonicalize(c)
            assert canonicalize(once) == once

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            canonicalize(Configuration([]))


class TestIsConnected:
    def test_examples(self):
        assert is_connected(Configuration.from_positions([(0, 0, 0), (1, 1, 0)]))
        assert not is_connected(Configuration.from_positions([(0, 0, 0), (2, 2, 0)]))

    def test_union_find_oracle_equivalence(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            # mix of connected clusters and scattered cells
            pos = set(random_connected_positions(rng, 12))
            while len(pos) < 20:
                pos.add(random_valid_pos(rng, 4))
            pos = sorted(pos)
            c = Configuration.from_positions(pos)
            assert is_connected(c) == union_find_connected(pos)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            is_connected(Configuration([]))


def _walk_plus_far_cells(drawn):
    """The cells of a walk from the origin plus `far` cells far from it
    and from each other."""
    steps, far = drawn
    walk = dict.fromkeys(itertools.accumulate(steps, add, initial=(0, 0, 0)))
    return list(walk) + [(100 * k, 100 * k, 0) for k in range(1, far + 1)]


# a walk of up to 40 steps (1-41 distinct cells) plus up to two far
# cells: one piece, a cluster plus an isolated cell, two isolated cells,
# or three pieces
_pieces = st.tuples(
    st.lists(st.sampled_from(FACE_DIRS), max_size=40), st.integers(0, 2)
).map(_walk_plus_far_cells)


class TestRemovableCells:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(_pieces)
    def test_matches_is_connected_without_each_cell(self, positions):
        # removable_cells works on the contacts of packed positions; the
        # walk's steps take y and z negative too, so every field sign is
        # exercised. The oracle is a union-find over the cells without
        # each one, which shares no code with the lowlink pass
        packed = sorted(map(pack, positions))
        expected = {
            i
            for i, p in enumerate(packed)
            if len(packed) == 1
            or union_find_connected(unpack(q) for q in packed if q != p)
        }
        assert removable_cells(contacts(packed)) == expected

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(_pieces)
    def test_contacts_are_the_face_neighbours(self, positions):
        packed = sorted(map(pack, positions))
        assert contacts(packed) == [
            [
                (f, packed.index(q))
                for f, d in enumerate(FACE_DIRS)
                if (q := pack(sub(unpack(p), d))) in packed
            ]
            for p in packed
        ]


# a position whose y and z lie in the exact range, x anywhere
_packable = st.tuples(
    st.integers(-(2**80), 2**80),
    st.integers(-PACK_LIMIT, PACK_LIMIT - 1),
    st.integers(-PACK_LIMIT, PACK_LIMIT - 1),
)
# y and z in half the range, so that two of them add up inside it
_half = st.tuples(
    st.integers(-(2**80), 2**80),
    st.integers(-PACK_LIMIT // 2, PACK_LIMIT // 2 - 1),
    st.integers(-PACK_LIMIT // 2, PACK_LIMIT // 2 - 1),
)


class TestPacking:
    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(_packable)
    def test_round_trip(self, p):
        assert unpack(pack(p)) == p

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(_packable, _packable)
    def test_keeps_lexicographic_order(self, a, b):
        assert (pack(a) < pack(b)) == (a < b)
        assert (pack(a) == pack(b)) == (a == b)

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(_half, _half)
    def test_linear(self, a, d):
        assert pack(a) + pack(d) == pack(add(a, d))
        assert pack(a) - pack(d) == pack(sub(a, d))
        assert unpack(pack(a) + pack(d)) == add(a, d)

    def test_range_is_tight(self):
        edge = (0, PACK_LIMIT - 1, -PACK_LIMIT)
        assert unpack(pack(edge)) == edge
        for p in [(0, PACK_LIMIT, 0), (0, 0, PACK_LIMIT), (3, -PACK_LIMIT - 1, 0)]:
            assert unpack(pack(p)) != p

    def test_packed_dirs(self):
        assert PACKED_DIRS == tuple(map(pack, FACE_DIRS))
        assert list(PACKED_DIRS) == sorted(PACKED_DIRS)

    def test_pack_frame_guards_the_range(self):
        origin = (10**12, -(10**12), 0)
        inside = [origin, add(origin, (0, PACK_LIMIT - 3, 1))]
        assert pack_frame(inside, origin, margin=2) == (
            0,
            pack((0, PACK_LIMIT - 3, 1)),
        )
        with pytest.raises(ValidationError, match="exact range"):
            pack_frame(inside, origin, margin=3)
        with pytest.raises(ValidationError, match="exact range"):
            pack_frame([origin, add(origin, (1, 0, -PACK_LIMIT + 1))], origin, 1)

    def test_is_connected_beyond_the_range(self):
        # cells further apart than the range can hold are never connected
        far = Configuration.from_positions([(0, 0, 0), (0, 2 * PACK_LIMIT, 0)])
        assert not is_connected(far)
        huge = Configuration.from_positions([(10**15, 10**15, 0), (10**15 + 1, 10**15 + 1, 0)])
        assert is_connected(huge)
