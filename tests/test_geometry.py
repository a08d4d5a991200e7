import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from rhombikit.analytics import Trajectory
from rhombikit.errors import ValidationError
from rhombikit.geometry import (
    CANONICAL_VERTICES,
    CELL_EDGES,
    FACE_VERTICES,
    ContactType,
    GroundContact,
    Mesh,
    canonical_cell_mesh,
    check_world_rotation,
    classify_ground_contact,
    dihedral_angle,
    face_frame,
    inradius,
    mesh_surface_area,
    mesh_volume,
    packing_density,
    roll_transform,
    rotation_from_axis_angle,
    shared_face_edge,
    structure_mesh,
    swept_cells,
    blocker_table,
    _LONG_AXES,
    _swept_cells_uncached,
)
from rhombikit import lattice
from rhombikit.kinematics import PivotMove, pivot_destinations, pivot_rotation
from rhombikit.lattice import (
    FACE_DIRS,
    FACE_DIR_INDEX,
    ROTATIONS,
    Configuration,
    apply_rotation,
    lattice_distance,
)

from conftest import random_connected_positions


def _align_to_minus_z(v):
    """A proper rotation sending direction v to straight down."""
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    target = np.array([0.0, 0.0, -1.0])
    axis = np.cross(v, target)
    if np.linalg.norm(axis) < 1e-12:
        axis = np.array([1.0, 0.0, 0.0])
    deg = math.degrees(math.acos(float(np.clip(v @ target, -1, 1))))
    return rotation_from_axis_angle(axis, deg)


class TestCanonicalMesh:
    def test_counts(self):
        m = canonical_cell_mesh()
        assert len(m.vertices) == 14
        assert len(m.faces) == 12
        assert all(len(f) == 4 for f in m.faces)

    def test_vertex_sets(self):
        cube = {v for v in CANONICAL_VERTICES if set(map(abs, v)) == {1}}
        octa = {v for v in CANONICAL_VERTICES if sorted(map(abs, v)) == [0, 0, 2]}
        assert len(cube) == 8 and len(octa) == 6

    def test_each_face_mixes_vertex_types(self):
        for loop in FACE_VERTICES:
            kinds = sorted(
                max(map(abs, CANONICAL_VERTICES[i])) for i in loop
            )
            assert kinds == [1, 1, 2, 2]  # two cube-type, two axis-type

    def test_volume_exact_and_hull_oracle(self):
        m = canonical_cell_mesh()
        assert mesh_volume(m) == pytest.approx(16.0, abs=1e-9)
        hull = ConvexHull(np.array(CANONICAL_VERTICES, dtype=float))
        assert mesh_volume(m) == pytest.approx(hull.volume, abs=1e-9)
        assert mesh_surface_area(m) == pytest.approx(hull.area, abs=1e-9)

    def test_faces_planar_rhombi_with_sqrt2_diagonals(self):
        m = canonical_cell_mesh()
        for loop in m.faces:
            pts = m.vertices[list(loop)]
            # planar
            n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
            for p in pts:
                assert abs((p - pts[0]) @ n) < 1e-12
            # equal sides
            sides = [np.linalg.norm(pts[(i + 1) % 4] - pts[i]) for i in range(4)]
            assert max(sides) - min(sides) < 1e-12
            # diagonal ratio sqrt(2)
            d1 = np.linalg.norm(pts[2] - pts[0])
            d2 = np.linalg.norm(pts[3] - pts[1])
            assert max(d1, d2) / min(d1, d2) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_face_vertices_literal(self):
        # each face's loop, CCW from outside from the positive long-axis end
        assert FACE_VERTICES == (
            (5, 2, 0, 1), (6, 1, 0, 3), (7, 4, 0, 2), (8, 3, 0, 4),
            (6, 9, 5, 1), (7, 2, 5, 10), (8, 11, 6, 3), (8, 4, 7, 12),
            (13, 10, 5, 9), (13, 9, 6, 11), (13, 12, 7, 10), (13, 11, 8, 12),
        )

    def test_face_example_1_1_0(self):
        # long diagonal of face (1,1,0) runs (2,0,0) <-> (0,2,0), length 2*sqrt2
        loop = FACE_VERTICES[FACE_DIR_INDEX[(1, 1, 0)]]
        verts = {CANONICAL_VERTICES[i] for i in loop}
        assert verts == {(2, 0, 0), (0, 2, 0), (1, 1, 1), (1, 1, -1)}
        assert np.linalg.norm(np.subtract((1, 1, 1), (1, 1, -1))) == pytest.approx(2)
        assert np.linalg.norm(np.subtract((2, 0, 0), (0, 2, 0))) == pytest.approx(
            2 * math.sqrt(2)
        )

    def test_normals_outward_and_centroids_match_dirs(self):
        m = canonical_cell_mesh()
        for di, loop in enumerate(m.faces):
            pts = m.vertices[list(loop)]
            centroid = pts.mean(axis=0)
            assert np.allclose(centroid, FACE_DIRS[di], atol=1e-12)
            n = np.cross(pts[1] - pts[0], pts[2] - pts[1])
            assert n @ centroid > 0  # outward
            assert np.allclose(
                n / np.linalg.norm(n),
                np.array(FACE_DIRS[di]) / math.sqrt(2),
                atol=1e-12,
            )

    def test_surface_area_is_twelve_congruent_faces(self):
        m = canonical_cell_mesh()
        pts = m.vertices[list(m.faces[0])]
        d1 = np.linalg.norm(pts[2] - pts[0])
        d2 = np.linalg.norm(pts[3] - pts[1])
        one_face = 0.5 * d1 * d2
        assert mesh_surface_area(m) == pytest.approx(12 * one_face, abs=1e-9)

    def test_edge_count(self):
        assert len(CELL_EDGES) == 24


    def test_mesh_holds_a_read_only_copy(self):
        # the caller's vertices stay writeable; nested lists are accepted
        v = np.array(CANONICAL_VERTICES, dtype=float)
        m = Mesh(v, FACE_VERTICES)
        assert v.flags.writeable and not m.vertices.flags.writeable
        listed = Mesh([list(p) for p in CANONICAL_VERTICES], FACE_VERTICES)
        assert listed.vertices.dtype == float
        assert np.array_equal(listed.vertices, m.vertices)
        assert mesh_volume(listed) == pytest.approx(16.0, abs=1e-9)


class TestFaceFrames:
    @pytest.mark.parametrize("d", FACE_DIRS)
    def test_orthonormal_right_handed(self, d):
        fr = face_frame(d)
        assert np.allclose(fr.center, d)
        for a in (fr.normal, fr.long_axis, fr.short_axis):
            assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
        assert abs(fr.normal @ fr.long_axis) < 1e-12
        assert abs(fr.normal @ fr.short_axis) < 1e-12
        assert abs(fr.long_axis @ fr.short_axis) < 1e-12
        assert np.allclose(np.cross(fr.long_axis, fr.short_axis), fr.normal, atol=1e-12)
        # normal parallel to the face direction
        assert abs(fr.normal @ (np.array(d) / math.sqrt(2))) == pytest.approx(1.0)

    def test_long_axis_sign_convention(self):
        fr = face_frame((1, 1, 0))
        # endpoints (2,0,0) and (0,2,0); the lexicographically larger is (2,0,0)
        assert np.allclose(
            fr.center + math.sqrt(2) * fr.long_axis, (2, 0, 0), atol=1e-12
        )

    def test_integer_long_axes_normalise_to_the_frames(self):
        # the one integer statement of each long axis, which docking's
        # long-axis sign reads, against the float frames
        for f, axis in enumerate(_LONG_AXES):
            assert all(type(c) is int for c in axis)
            unit = np.array(axis) / np.linalg.norm(axis)
            assert np.allclose(unit, face_frame(f).long_axis, rtol=0.0, atol=1e-15)

    def test_short_axis_hits_cube_vertices(self):
        for d in FACE_DIRS:
            fr = face_frame(d)
            for sgn in (1, -1):
                tip = fr.center + sgn * fr.short_axis
                assert tuple(np.round(tip).astype(int)) in CANONICAL_VERTICES

    def test_opposite_faces_have_opposite_normals(self):
        for d in FACE_DIRS:
            nd = tuple(-c for c in d)
            assert np.allclose(face_frame(d).normal, -face_frame(nd).normal)

    def test_bad_direction(self):
        with pytest.raises(ValidationError):
            face_frame((1, 0, 0))

    def test_index_forms(self):
        assert face_frame(np.int64(3)) is face_frame(3) is face_frame(FACE_DIRS[3])

    @pytest.mark.parametrize("d", [-1, 12, 1.5, 3.0, True, None, "3"])
    def test_bad_index_rejected(self, d):
        with pytest.raises(ValidationError):
            face_frame(d)


class TestScalars:
    def test_dihedral_angle(self):
        assert dihedral_angle() == pytest.approx(120.0, abs=1e-9)

    def test_adjacent_normal_angle_supplement(self):
        n1 = np.array((1, 1, 0)) / math.sqrt(2)
        n2 = np.array((1, 0, 1)) / math.sqrt(2)
        assert math.degrees(math.acos(n1 @ n2)) == pytest.approx(60.0, abs=1e-9)

    def test_all_adjacent_pairs_agree(self):
        m = canonical_cell_mesh()
        vals = []
        for i in range(12):
            for j in range(12):
                if i != j and len(set(m.faces[i]) & set(m.faces[j])) == 2:
                    ni = np.array(FACE_DIRS[i]) / math.sqrt(2)
                    nj = np.array(FACE_DIRS[j]) / math.sqrt(2)
                    vals.append(180 - math.degrees(math.acos(np.clip(ni @ nj, -1, 1))))
        assert len(vals) == 48
        assert all(v == pytest.approx(120.0, abs=1e-9) for v in vals)

    def test_packing_density(self):
        assert packing_density() == pytest.approx(math.pi / math.sqrt(18), abs=1e-9)
        assert packing_density() > 0.74

    def test_inradius(self):
        assert inradius() == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_density_times_volume_is_sphere_volume(self):
        r = inradius()
        sphere = 4.0 / 3.0 * math.pi * r**3
        assert packing_density() * mesh_volume(canonical_cell_mesh()) == pytest.approx(
            sphere, abs=1e-9
        )


class TestRotationFromAxisAngle:
    def test_proper_rotation(self):
        r = rotation_from_axis_angle((1, 2, -2), 37.0)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)

    # huge-int: beyond the float range, refused rather than an OverflowError
    @pytest.mark.parametrize(
        "deg", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="huge-int")]
    )
    def test_non_finite_angle_rejected(self, deg):
        with pytest.raises(ValidationError, match="angle"):
            rotation_from_axis_angle((1, 0, 0), deg)

    @pytest.mark.parametrize(
        "axis", [(math.nan, 0, 0), (1, math.inf, 0), (0, 0, -math.inf), (0, 0, 0)]
    )
    def test_bad_axis_rejected(self, axis):
        with pytest.raises(ValidationError, match="axis"):
            rotation_from_axis_angle(axis, 90.0)

    @pytest.mark.parametrize("axis", [(1e308, 1e308, 0), (-1.7e308, -1.7e308, 0)])
    def test_huge_axis_gives_its_direction_rotation(self, axis):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = rotation_from_axis_angle(axis, 90.0)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)
        sign = math.copysign(1.0, axis[0])
        assert np.allclose(r, rotation_from_axis_angle((sign, sign, 0), 90.0), atol=1e-12)

    def test_power_of_two_scale_changes_no_bit(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            axis = rng.normal(size=3) * 10.0 ** rng.uniform(-5, 5)
            deg = rng.uniform(-360, 360)
            r = rotation_from_axis_angle(axis, deg)
            for k in (-8, -1, 3, 200):
                assert np.array_equal(rotation_from_axis_angle(np.ldexp(axis, k), deg), r)

    @pytest.mark.parametrize("axis", [(1e-13, 0, 0), (1e-200, 1e-200, 0), (5e-324, 0, 0)])
    def test_sub_threshold_axis_rejected(self, axis):
        with pytest.raises(ValidationError, match="axis"):
            rotation_from_axis_angle(axis, 90.0)


ROLLS = [(f, t) for f in FACE_DIRS for t in pivot_destinations(f)]


class TestRollTransform:
    @pytest.mark.parametrize("f,t", ROLLS)
    def test_rest_pose_is_identity(self, f, t):
        rot, trans = roll_transform(f, t, 0.0)
        assert np.allclose(rot, np.eye(3), atol=1e-12)
        assert np.allclose(trans, 0.0, atol=1e-12)

    @pytest.mark.parametrize("f,t", ROLLS)
    def test_full_roll_lands_on_destination(self, f, t):
        rot, trans = roll_transform(f, t, 2.0 * math.pi / 3.0)
        verts = np.array(CANONICAL_VERTICES, dtype=float)
        moved = (verts + 2.0 * np.array(f)) @ rot.T + trans
        want = {tuple(v + 2 * np.array(t)) for v in CANONICAL_VERTICES}
        assert {tuple(np.rint(v).astype(int)) for v in moved} == want
        assert np.allclose(moved, np.rint(moved), atol=1e-9)
        # the float roll ends at the integer pivot rotation of the move
        r = pivot_rotation(PivotMove(f, (0, 0, 0), f, t))
        assert np.allclose(rot, ROTATIONS[r], atol=1e-12)


class TestGroundContact:
    def test_rotation_must_be_3x3(self):
        with pytest.raises(ValidationError, match=r"^rotation must be 3x3, got shape \(2, 2\)$"):
            check_world_rotation(np.eye(2))

    def test_holds_a_read_only_copy(self):
        pts = np.zeros((1, 3))
        res = GroundContact(ContactType.POINT, pts, {(0, 0, 0): ContactType.POINT})
        assert pts.flags.writeable and not res.support_points.flags.writeable

    def test_identity_single_cell_point(self):
        c = Configuration.from_positions([(0, 0, 0)])
        res = classify_ground_contact(c, np.eye(3))
        assert res.contact_type is ContactType.POINT
        assert np.allclose(res.support_points, [[0, 0, -2]])

    def test_face_down(self):
        c = Configuration.from_positions([(0, 0, 0)])
        rot = _align_to_minus_z((1, 1, 0))
        res = classify_ground_contact(c, rot)
        assert res.contact_type is ContactType.FACE
        assert len(res.support_points) == 4

    def test_edge_down(self):
        c = Configuration.from_positions([(0, 0, 0)])
        e0, e1 = shared_face_edge((1, 1, 0), (1, 0, 1))
        outward = np.array((1, 1, 0)) + np.array((1, 0, 1))  # edge bisector
        res = classify_ground_contact(c, _align_to_minus_z(outward))
        assert res.contact_type is ContactType.EDGE
        assert len(res.support_points) == 2
        got = {tuple(np.round(p, 6)) for p in res.support_points}
        want_len = np.linalg.norm(np.subtract(e1, e0))
        pts = sorted(got)
        assert np.linalg.norm(np.subtract(pts[1], pts[0])) == pytest.approx(want_len)

    def test_random_rotations_exhaustive_classes(self):
        rng = np.random.default_rng(5)
        c = Configuration.from_positions([(0, 0, 0), (1, 1, 0)])
        seen = set()
        for _ in range(300):
            axis = rng.normal(size=3)
            deg = rng.uniform(0, 360)
            res = classify_ground_contact(c, rotation_from_axis_angle(axis, deg))
            seen.add(res.contact_type)
            # oracle: affine dimension of the support hull
            pts = res.support_points
            dim = 0 if len(pts) == 1 else np.linalg.matrix_rank(pts[1:] - pts[0], tol=1e-6)
            assert res.contact_type is {
                0: ContactType.POINT,
                1: ContactType.EDGE,
                2: ContactType.FACE,
            }[int(dim)]
        assert seen == {ContactType.POINT}  # generic rotations: point contact

    def test_aligned_rotations_produce_all_three(self):
        c = Configuration.from_positions([(0, 0, 0)])
        cases = {
            ContactType.POINT: np.eye(3),
            ContactType.FACE: _align_to_minus_z((1, 1, 0)),
            ContactType.EDGE: _align_to_minus_z((2, 1, 1)),
        }
        for want, rot in cases.items():
            assert classify_ground_contact(c, rot).contact_type is want

    def test_translation_and_z_rotation_invariance(self):
        rng = np.random.default_rng(9)
        base = Configuration.from_positions(random_connected_positions(rng, 5))
        rot = rotation_from_axis_angle(rng.normal(size=3), rng.uniform(0, 360))
        t0 = classify_ground_contact(base, rot).contact_type
        assert classify_ground_contact(base.translate((2, 4, 0)), rot).contact_type is t0
        spin = rotation_from_axis_angle((0, 0, 1), 72.5) @ rot
        assert classify_ground_contact(base, spin).contact_type is t0

    def test_multi_cell_same_type(self):
        c = Configuration.from_positions([(0, 0, 0), (1, 1, 0), (2, 2, 0)])
        res = classify_ground_contact(c, _align_to_minus_z((0, 0, 2)))
        assert res.contact_type is ContactType.POINT
        assert set(res.per_cell.values()) == {ContactType.POINT}

    def test_three_support_vertices_are_face_contact(self):
        # face (1, 1, 0) down, then tilted by 7e-7 rad about its long
        # diagonal: one short-diagonal end sinks to the new lowest point,
        # the long-diagonal ends stay 7e-7 above it (inside the 1e-6
        # support tolerance) and the other short-diagonal end rises 1.4e-6
        down = _align_to_minus_z((1, 1, 0))
        tilt = rotation_from_axis_angle(down @ np.array([1.0, -1.0, 0.0]), math.degrees(7e-7))
        res = classify_ground_contact(Configuration.from_positions([(0, 0, 0)]), tilt @ down)
        assert len(res.support_points) == 3
        assert res.contact_type is ContactType.FACE

    def test_tilted_long_structure_typed_by_its_best_supported_cell(self):
        # a 12-cell line resting on face (1, 1, 0) and tilted by 2e-8 to
        # 3e-7 rad: cells further along lift vertices out of the support
        # tolerance, so the touching cells disagree; the structure is as
        # supported as its best cell, and each cell keeps its own class
        line = Configuration.from_positions([(k, -k, 0) for k in range(12)])
        down = _align_to_minus_z((1, 1, 0))
        rng = np.random.default_rng(18)
        mixed = 0
        for _ in range(300):
            turn = rotation_from_axis_angle(
                rng.normal(size=3), math.degrees(rng.uniform(2e-8, 3e-7))
            )
            rot = turn @ down
            res = classify_ground_contact(line, rot)
            assert res.contact_type is ContactType.FACE
            z = (2.0 * np.array(line.positions)[:, None, :] + CANONICAL_VERTICES) @ rot[2]
            counts = (z <= z.min() + 1e-6).sum(axis=1)
            assert res.per_cell == {
                p: (None, ContactType.POINT, ContactType.EDGE, ContactType.FACE,
                    ContactType.FACE)[n]
                for p, n in zip(line.positions, counts) if n
            }
            mixed += len(set(res.per_cell.values())) > 1
        assert mixed >= 100, mixed

    def test_support_count_agrees_with_rank_oracle(self):
        # the count rule against the affine dimension of the support
        # vertices (matrix rank at the support tolerance), on random
        # rotations and on poses that put a vertex, an edge or a face down,
        # each tilted by a small random turn
        rng = np.random.default_rng(31)
        edges = [np.add(CANONICAL_VERTICES[a], CANONICAL_VERTICES[b]) for a, b in CELL_EDGES]
        downs = list(CANONICAL_VERTICES) + edges + list(FACE_DIRS)
        rots = [
            rotation_from_axis_angle(rng.normal(size=3), rng.uniform(0, 360))
            for _ in range(300)
        ]
        for d in downs:
            for deg in (0.0, 1e-8, 1e-6, 1e-5, 3e-5, 5e-5, 1e-4, 1e-2, 1.0):
                rots.append(rotation_from_axis_angle(rng.normal(size=3), deg) @ _align_to_minus_z(d))
        single = Configuration.from_positions([(0, 0, 0)])
        counts = set()
        for rot in rots:
            res = classify_ground_contact(single, rot)
            pts = res.support_points
            rank = 0 if len(pts) == 1 else np.linalg.matrix_rank(pts[1:] - pts[0], tol=1e-6)
            want = (ContactType.POINT, ContactType.EDGE, ContactType.FACE)[int(rank)]
            assert res.contact_type is want, (len(pts), rank)
            counts.add(len(pts))
        assert counts == {1, 2, 3, 4}

    def test_degenerate_rotation_rejected(self):
        c = Configuration.from_positions([(0, 0, 0)])
        with pytest.raises(ValidationError):
            classify_ground_contact(c, np.zeros((3, 3)))
        with pytest.raises(ValidationError):
            classify_ground_contact(c, -np.eye(3))  # improper (det -1)

    def test_empty_config_rejected(self):
        with pytest.raises(ValidationError):
            classify_ground_contact(Configuration([]), np.eye(3))


class TestStructureMesh:
    def test_single_cell(self):
        m = structure_mesh(Configuration.from_positions([(0, 0, 0)]))
        assert len(m.faces) == 12
        assert len(m.vertices) == 14

    def test_two_adjacent_cells(self):
        m = structure_mesh(Configuration.from_positions([(0, 0, 0), (1, 1, 0)]))
        assert len(m.faces) == 22

    def test_face_count_formula_random(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            pos = random_connected_positions(rng, int(rng.integers(2, 10)))
            c = Configuration.from_positions(pos)
            pairs = sum(
                1
                for p, q in itertools.combinations(pos, 2)
                if lattice_distance(p, q) == 1
            )
            m = structure_mesh(c)
            assert len(m.faces) == 12 * len(pos) - 2 * pairs

    def test_watertight_when_connected(self):
        rng = np.random.default_rng(29)
        c = Configuration.from_positions(random_connected_positions(rng, 6))
        m = structure_mesh(c)
        edge_use: dict[tuple[int, int], int] = {}
        for loop in m.faces:
            for i in range(len(loop)):
                a, b = loop[i], loop[(i + 1) % len(loop)]
                edge_use[(min(a, b), max(a, b))] = (
                    edge_use.get((min(a, b), max(a, b)), 0) + 1
                )
        assert set(edge_use.values()) == {2}

    def test_union_volume_adds_up(self):
        c = Configuration.from_positions([(0, 0, 0), (1, 1, 0), (1, 0, 1)])
        assert mesh_volume(structure_mesh(c)) == pytest.approx(48.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            structure_mesh(Configuration([]))


class TestRolls:
    def test_rolls_are_the_faces_sharing_an_edge(self):
        # lattice.ROLLS against the dot-product rule, against the mesh
        # (the faces whose vertex cycles share exactly two vertices) and
        # against what shared_face_edge accepts
        for fi, f in enumerate(FACE_DIRS):
            by_dot = tuple(j for j, t in enumerate(FACE_DIRS) if np.dot(f, t) == 1)
            by_mesh = tuple(
                j for j in range(12) if len(set(FACE_VERTICES[fi]) & set(FACE_VERTICES[j])) == 2
            )
            accepted = []
            for j, t in enumerate(FACE_DIRS):
                try:
                    shared_face_edge(f, t)
                except ValidationError:
                    continue
                accepted.append(j)
            assert lattice.ROLLS[fi] == by_dot == by_mesh == tuple(accepted)
            assert len(lattice.ROLLS[fi]) == 4
        assert sum(map(len, lattice.ROLLS)) == len(blocker_table()) == 48


class TestSweptCells:
    def test_non_adjacent_pair_rejected(self):
        with pytest.raises(ValidationError):
            swept_cells((1, 1, 0), (-1, -1, 0))
        with pytest.raises(ValidationError):
            swept_cells((1, 1, 0), (1, -1, 0))

    def test_known_pair(self, blocker_table_ready):
        got = swept_cells((1, 1, 0), (1, 0, 1))
        assert got == {
            (0, 1, 1),
            (1, 1, 2),
            (1, 2, 1),
            (2, -1, 1),
            (2, 0, 0),
            (2, 0, 2),
            (2, 1, -1),
            (2, 1, 1),
            (2, 2, 0),
        }

    def test_all_offsets_within_distance_two(self, blocker_table_ready):
        for (fi, ti), blockers in blocker_table_ready.items():
            for q in blockers:
                assert lattice_distance((0, 0, 0), q) <= 2

    def test_excluded_offsets(self, blocker_table_ready):
        for (fi, ti), blockers in blocker_table_ready.items():
            assert FACE_DIRS[ti] not in blockers
            assert FACE_DIRS[fi] not in blockers
            assert (0, 0, 0) not in blockers

    def test_equivariance_all_rotations(self, blocker_table_ready):
        base = swept_cells((1, 1, 0), (1, 0, 1))
        for r in range(24):
            f2 = apply_rotation(r, (1, 1, 0))
            t2 = apply_rotation(r, (1, 0, 1))
            rotated = {apply_rotation(r, q) for q in base}
            assert swept_cells(f2, t2) == rotated

    def test_reverse_roll_same_blockers(self, blocker_table_ready):
        for fi, f in enumerate(FACE_DIRS):
            for ti, t in enumerate(FACE_DIRS):
                if (fi, ti) in blocker_table_ready:
                    assert blocker_table_ready[(fi, ti)] == blocker_table_ready[(ti, fi)]

    def test_derived_entries_match_direct_sweep(self, blocker_table_ready):
        # the table sweeps FACE_DIRS[0] -> FACE_DIRS[1] only; the first pair
        # lies in the other rotation orbit and is reached only through
        # reversal, the second through a non-identity rotation
        for f, t in [((1, 1, 0), (1, 0, 1)), ((1, 0, 1), (1, 1, 0))]:
            key = (FACE_DIR_INDEX[f], FACE_DIR_INDEX[t])
            assert blocker_table_ready[key] == _swept_cells_uncached(f, t)

    def test_convergence_half_step(self):
        # halving the angular step must not change the result
        for f, t in [((1, 1, 0), (1, 0, 1)), ((0, -1, 1), (-1, 0, 1))]:
            assert _swept_cells_uncached(f, t, 0.5) == swept_cells(f, t)


# (1, 1, 0) spelled with bools or floats, or not as a triple of ints
BAD_DIRS = [(True, True, False), (1.0, 1.0, 0.0), (1.0, 1, 0), (1, 1), "110"]


class TestDirectionVectors:
    @pytest.mark.parametrize("bad", BAD_DIRS)
    def test_face_frame_rejects(self, bad):
        with pytest.raises(ValidationError):
            face_frame(bad)

    @pytest.mark.parametrize("bad", BAD_DIRS)
    def test_shared_face_edge_rejects(self, bad):
        with pytest.raises(ValidationError, match="face direction"):
            shared_face_edge(bad, (1, 0, 1))
        with pytest.raises(ValidationError, match="face direction"):
            shared_face_edge((1, 0, 1), bad)

    @pytest.mark.parametrize("bad", BAD_DIRS)
    def test_swept_cells_rejects(self, bad):
        with pytest.raises(ValidationError, match="face direction"):
            swept_cells(bad, (1, 0, 1))
        with pytest.raises(ValidationError, match="face direction"):
            swept_cells((1, 0, 1), bad)

    def test_numpy_ints_accepted(self, blocker_table_ready):
        f, t = np.array((1, 1, 0)), (np.int64(1), np.int64(0), np.int64(1))
        assert face_frame(f) is face_frame((1, 1, 0))
        assert shared_face_edge(f, t) == shared_face_edge((1, 1, 0), (1, 0, 1))
        assert swept_cells(f, t) == swept_cells((1, 1, 0), (1, 0, 1))


_ONE_CELL = Configuration.from_positions([(0, 0, 0)])


class TestArrayInputs:
    # input that is not an array of real numbers (ragged, or holding
    # strings, numeric ones too, bools, complex numbers or None) is a
    # ValidationError, not a leaked ValueError or TypeError
    @pytest.mark.parametrize(
        "call",
        [
            lambda: classify_ground_contact(_ONE_CELL, "abc"),
            lambda: classify_ground_contact(_ONE_CELL, [[1, 0, 0], [0, 1], [0, 0, 1]]),
            lambda: classify_ground_contact(_ONE_CELL, [[1j, 0, 0]] * 3),
            lambda: classify_ground_contact(_ONE_CELL, np.eye(3).astype(str)),
            lambda: classify_ground_contact(_ONE_CELL, np.eye(3, dtype=bool)),
            lambda: rotation_from_axis_angle([1, [0, 1]], 3),
            lambda: rotation_from_axis_angle((10**400, 0, 0), 3),
            lambda: rotation_from_axis_angle(("1", 0, 0), 3),
            lambda: Trajectory("a", [0, 1], [[0, 0], [1]]),
            lambda: Trajectory("a", ["0", "1"], [["0", "0"], ["1", "2"]]),
            lambda: Trajectory("a", [0, 1], [[0, 0], [1, None]]),
            lambda: Mesh([[0, 0, 0], [1]], ()),
            lambda: Mesh([["0", "0", "0"], ["1", "1", "1"]], ()),
            lambda: Mesh([[True, False, False]], ()),
        ],
        ids=[
            "contact-str",
            "contact-ragged",
            "contact-complex",
            "contact-numeric-str",
            "contact-bool",
            "axis-ragged",
            "axis-huge-int",
            "axis-numeric-str",
            "trajectory-ragged",
            "trajectory-numeric-str",
            "trajectory-none",
            "mesh-ragged",
            "mesh-numeric-str",
            "mesh-bool",
        ],
    )
    def test_unreadable_array_raises_validation_error(self, call):
        with pytest.raises(ValidationError, match="array of numbers"):
            call()

    def test_numbers_of_any_width_accepted(self):
        # numpy scalars, and ints past int64 inside the float range
        tr = Trajectory("a", [np.int32(0), 2**70], [[np.float32(0.5), 0], [1, 2]])
        assert tr.t.tolist() == [0.0, 2.0**70] and tr.xy[0, 0] == 0.5
        rot = classify_ground_contact(_ONE_CELL, np.eye(3, dtype=np.int64))
        assert rot.contact_type is ContactType.POINT
