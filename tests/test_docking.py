import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rhombikit import docking
from rhombikit.docking import (
    EPS_MATCH,
    CellLayout,
    ContactAlignment,
    FaceLayout,
    MagnetSpec,
    Polarity,
    contact_map,
    default_cell_layout,
    default_face_positions,
    enumerate_valid_layouts,
    is_attractive_contact,
    validate_genderless,
)
from rhombikit.errors import PairingError, UnsupportedSymmetry, ValidationError
from rhombikit.geometry import face_frame
from rhombikit.lattice import (
    DIR_PERM,
    FACE_DIR_INDEX,
    FACE_DIRS,
    OPPOSITE_DIR,
    ROTATIONS,
    ROT_INV,
)

N, S = Polarity.N, Polarity.S

# the golden result of the exhaustive 16-assignment search on the default
# profile (positions in lexicographic order): unlike poles across both
# diagonals, and its global inversion
GOLDEN_VALID = ((N, S, S, N), (S, N, N, S))


def _face(polarities, positions=None):
    positions = positions or default_face_positions()
    return FaceLayout(tuple(MagnetSpec(p, pol) for p, pol in zip(positions, polarities)))


def _shifted_positions(delta):
    """Default positions with magnets 0 and 3 moved delta outward along the
    long axis: still two-fold symmetric, but off their mirror partners."""
    (u0, v0), p1, p2, (u3, v3) = default_face_positions()
    return [(u0 - delta, v0), p1, p2, (u3 + delta, v3)]


def _mirror_position_sets(count, seed):
    """Seeded doubly mirror-symmetric position sets of 2-8 magnets: one
    or two orbits of (+-u, +-v), each generic (four magnets), on one
    diagonal (two) or at the centre (one). A set has genderless
    assignments exactly when every orbit is generic, as a magnet on a
    mirror axis faces itself."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        pts = set()
        for _ in range(int(rng.choice((1, 2), p=(0.6, 0.4)))):
            u, v = np.round(rng.uniform(0.05, 0.6, size=2), 3)
            kind = int(rng.choice(4, p=(0.2, 0.35, 0.35, 0.1)))
            u, v = ((u, v), (u, 0.0), (0.0, v), (0.0, 0.0))[kind]
            pts |= {(a * u, b * v) for a in (1, -1) for b in (1, -1)}
        if len(pts) >= 2:
            out.append(sorted(pts))
    return out


def _symmetric_position_sets(count, seed):
    """Seeded (k, positions) pairs of 2-10 magnets, k in 2..5: orbits of
    k points under rotation by 2*pi/k, some with their mirror orbit
    across the first symmetry axis (so that flipped copies can pair) and
    some without (so that they cannot), plus the centre now and then."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        k = int(rng.integers(2, 6))
        pts = [(0.0, 0.0)] if rng.random() < 0.15 else []
        for _ in range(int(rng.integers(1, 10 // k + 1))):
            r, a = rng.uniform(0.1, 0.6), rng.uniform(0.05, math.pi / k - 0.05)
            mirrored = rng.random() < 0.7
            for j in range(k):
                for s in (1, -1) if mirrored else (1,):
                    t = s * a + 2 * math.pi * j / k
                    pts.append((r * math.cos(t), r * math.sin(t)))
        if not 2 <= len(pts) <= 10:
            continue
        try:
            FaceLayout(tuple(MagnetSpec(p, N) for p in pts), k)
        except ValidationError:
            continue  # two orbits came too close
        out.append((k, pts))
    return out


def _per_assignment_reference(pts, k):
    """The in-plane check of each of the 2^m assignments, in binary order
    with N before S: under each of the k alignments every magnet meets an
    unlike pole, and an alignment that leaves a magnet without a partner
    passes no assignment."""
    try:
        maps = [docking._partners(pts, docking._mate(pts, 1, j, k)) for j in range(k)]
    except PairingError:
        return ()
    return tuple(
        bits
        for bits in itertools.product((N, S), repeat=len(pts))
        if all(bits[i] is not bits[p] for partner in maps for i, p in enumerate(partner))
    )


@st.composite
def _permuted_symmetric_sets(draw):
    """(k, positions): a k-fold symmetric set of up to 12 magnets, k in
    2..6, drawn like _symmetric_position_sets and listed in a drawn
    order."""
    k = draw(st.integers(2, 6))
    pts = [(0.0, 0.0)] if draw(st.integers(0, 5)) == 0 else []
    for _ in range(draw(st.integers(1, 12 // k))):
        r = draw(st.floats(0.1, 0.6))
        a = draw(st.floats(0.05, math.pi / k - 0.05))
        mirrored = draw(st.booleans())
        for j in range(k):
            for s in (1, -1) if mirrored else (1,):
                t = s * a + 2 * math.pi * j / k
                pts.append((r * math.cos(t), r * math.sin(t)))
    assume(len(pts) <= 12)
    try:
        FaceLayout(tuple(MagnetSpec(p, N) for p in pts), k)
    except ValidationError:
        assume(False)  # two orbits came too close
    return k, draw(st.permutations(pts))


def _mirrored_orbits(count):
    """count doubly mirror-symmetric 4-point orbits (k = 2), listed with
    the 2-fold orbit (u, v), (-u, -v) of each first and the mirror images
    (u, -v), (-u, v) after them all, so that magnet 2 * count + i is the
    mirror image of magnet i."""
    orbits = [(0.1 + 0.05 * o, 0.07 + 0.03 * o) for o in range(count)]
    return [p for u, v in orbits for p in ((u, v), (-u, -v))] + [
        p for u, v in orbits for p in ((u, -v), (-u, v))
    ]


def _mirror_alignment(d=(1, 1, 0)):
    """Identity-orientation contact across world direction d."""
    di = FACE_DIR_INDEX[d]
    return ContactAlignment(di, 0, OPPOSITE_DIR[di], 0, 0)


class TestLayoutValidation:
    def test_polarity_must_be_a_polarity(self):
        with pytest.raises(ValidationError, match="^bad polarity 'N'$"):
            MagnetSpec((0.5, 0.0), "N")

    def test_no_magnets_rejected(self):
        with pytest.raises(ValidationError, match="^face layout has no magnets$"):
            FaceLayout(())

    def test_default_positions_inside_face(self):
        for u, v in default_face_positions():
            assert abs(u) / math.sqrt(2) + abs(v) < 1.0

    def test_min_separation_enforced(self):
        with pytest.raises(ValidationError, match="closer"):
            FaceLayout(
                (
                    MagnetSpec((0.1, 0.1), N),
                    MagnetSpec((0.1, 0.1 + 1e-7), S),
                    MagnetSpec((-0.1, -0.1), N),
                    MagnetSpec((-0.1, -0.1 - 1e-7), S),
                )
            )

    def test_symmetry_enforced(self):
        with pytest.raises(ValidationError, match="symmetric"):
            FaceLayout((MagnetSpec((0.3, 0.1), N), MagnetSpec((0.4, 0.2), S)))

    @pytest.mark.parametrize("k", [10**7, 10**12])
    def test_click_inside_the_tolerance_is_not_symmetry(self, k):
        # one click of a huge k moves no magnet out of EPS_MATCH, so each
        # would pair with itself; the default magnets are 2-fold only
        mags = default_cell_layout().faces[0].magnets
        with pytest.raises(ValidationError, match=f"{k}-fold symmetric"):
            FaceLayout(mags, symmetry=k)
        with pytest.raises(ValidationError, match=f"{k}-fold symmetric"):
            enumerate_valid_layouts(default_face_positions(), k=k)

    def test_centre_magnet_pairs_with_itself(self):
        # a magnet at the centre is its own image under every click
        centre = (MagnetSpec((0.0, 0.0), N),)
        pair = (MagnetSpec((0.3, 0.1), N), MagnetSpec((-0.3, -0.1), S))
        assert FaceLayout(centre + pair, symmetry=2).symmetry == 2

    def test_symmetry_below_two_rejected(self):
        with pytest.raises(UnsupportedSymmetry):
            FaceLayout((MagnetSpec((0.3, 0.1), N),), symmetry=1)

    @pytest.mark.parametrize("symmetry", [2.0, "2", True, None])
    def test_symmetry_must_be_int(self, symmetry):
        pts = default_face_positions()
        with pytest.raises(ValidationError, match="must be an int"):
            FaceLayout(tuple(MagnetSpec(p, N) for p in pts), symmetry=symmetry)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "a", None])
    @pytest.mark.parametrize("coord", [0, 1])
    def test_magnet_position_must_be_finite_number(self, bad, coord):
        pos = [0.3, 0.2]
        pos[coord] = bad
        with pytest.raises(ValidationError, match="finite numbers"):
            MagnetSpec(tuple(pos), N)

    @pytest.mark.parametrize("pos", [5, None, 0.3, (0.3,), (0.3, 0.1, 0.2)])
    def test_magnet_position_must_be_2d_point(self, pos):
        with pytest.raises(ValidationError, match="2D point"):
            MagnetSpec(pos, N)
        with pytest.raises(ValidationError, match="2D point"):
            enumerate_valid_layouts([pos, (-0.3, -0.2)])

    @pytest.mark.parametrize("positions", [5, None, 0.3])
    def test_position_list_must_be_a_sequence(self, positions):
        with pytest.raises(ValidationError, match="nonempty list of 2D points"):
            enumerate_valid_layouts(positions)

    def test_magnet_position_accepts_numpy_scalars(self):
        m = MagnetSpec((np.float64(0.3), np.int64(1)), N)
        assert m.pos == (0.3, 1.0) and type(m.pos[1]) is float

    def test_cell_layout_needs_12_faces(self):
        f = _face(GOLDEN_VALID[0])
        with pytest.raises(ValidationError):
            CellLayout((f,) * 11)
        assert CellLayout.uniform(f).magnet_count() == 48

    @pytest.mark.parametrize("magnets", [((0.5, 0.2), (-0.5, -0.2)), (None,), 5, "NS"])
    def test_face_layout_needs_magnet_specs(self, magnets):
        with pytest.raises(ValidationError, match="sequence of MagnetSpecs"):
            FaceLayout(magnets)

    @pytest.mark.parametrize("faces", [(None,) * 12, 5, ("face",) * 12])
    def test_cell_layout_needs_face_layouts(self, faces):
        with pytest.raises(ValidationError, match="sequence of FaceLayouts"):
            CellLayout(faces)

    def test_cell_layout_holds_its_own_tuple(self):
        # a list input is copied, so the frozen layout is hashable and the
        # caller's list cannot change it
        f = _face(GOLDEN_VALID[0])
        faces = [f] * 12
        layout = CellLayout(faces)
        faces[0] = _face(GOLDEN_VALID[1])
        assert layout.faces == (f,) * 12
        assert hash(layout) == hash(CellLayout.uniform(f))


class TestContactMap:
    def test_magnet_counts_must_match(self):
        two = FaceLayout((MagnetSpec((0.5, 0.0), N), MagnetSpec((-0.5, 0.0), S)))
        with pytest.raises(PairingError, match="^magnet counts differ: 4 vs 2$"):
            contact_map(_face(GOLDEN_VALID[0]), two, _mirror_alignment())

    def test_identity_alignment_four_pairs(self):
        f = _face(GOLDEN_VALID[0])
        pairs = contact_map(f, f, _mirror_alignment())
        assert len(pairs) == 4
        assert sorted(i for i, _ in pairs) == [0, 1, 2, 3]
        assert sorted(j for _, j in pairs) == [0, 1, 2, 3]

    def test_perturbed_magnet_pairing_error(self):
        # shift one magnet and its 180-degree partner together: the layout
        # stays two-fold symmetric but no longer matches mirror-aligned copies
        f = _face((N, S, S, N), _shifted_positions(10 * 1e-6))
        with pytest.raises(PairingError):
            contact_map(f, f, _mirror_alignment())

    def test_turn_periodicity(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            # random mirror-symmetric quad (the only 2-fold patterns that
            # can pair at all under a flipped contact)
            u, v = rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.4)
            pts = sorted([(u, v), (u, -v), (-u, v), (-u, -v)])
            pols = tuple(rng.choice([N, S]) for _ in pts)
            f = FaceLayout(tuple(MagnetSpec(p, pol) for p, pol in zip(pts, pols)))
            al0 = _mirror_alignment()
            al2 = ContactAlignment(al0.face_a, 0, al0.face_b, 0, turn=2)
            assert contact_map(f, f, al0) == contact_map(f, f, al2)

    def test_pairing_involutive(self):
        f = _face(GOLDEN_VALID[0])
        rng = np.random.default_rng(43)
        for _ in range(25):
            ra, rb = int(rng.integers(24)), int(rng.integers(24))
            di = int(rng.integers(12))
            d_world = DIR_PERM[ra]  # choose faces consistent with a contact
            fa = DIR_PERM[ROT_INV[ra]][di]
            fb = DIR_PERM[ROT_INV[rb]][OPPOSITE_DIR[di]]
            fwd = ContactAlignment(fa, ra, fb, rb, 0)
            bwd = ContactAlignment(fb, rb, fa, ra, 0)
            pairs = contact_map(f, f, fwd)
            back = contact_map(f, f, bwd)
            assert sorted((j, i) for i, j in pairs) == sorted(back)

    def test_non_coincident_alignment_rejected(self):
        f = _face(GOLDEN_VALID[0])
        with pytest.raises(PairingError):
            contact_map(f, f, ContactAlignment(0, 0, 0, 0, 0))


class TestAlignmentValidation:
    @pytest.mark.parametrize(
        "fields",
        [
            (-1, 0, 0, 0),
            (0, -1, 0, 0),  # once paired like orientation 23
            (-12, 0, 0, 0),  # once gave world_dir() 0
            (12, 0, 0, 0),
            (0, 0, 0, 24),
            (0, 1.0, 0, 0),
            (True, 0, 0, 0),
            (0, 0, None, 0),
        ],
    )
    def test_bad_index_rejected(self, fields):
        with pytest.raises(ValidationError):
            ContactAlignment(*fields)

    @pytest.mark.parametrize("turn", [0.5, 1.0, True, "1", None])
    def test_turn_must_be_int(self, turn):
        with pytest.raises(ValidationError):
            ContactAlignment(0, 0, 11, 0, turn)

    def test_numpy_indices_normalized(self):
        al = ContactAlignment(*(np.int64(v) for v in (0, 3, 11, 3, -1)))
        assert al == ContactAlignment(0, 3, 11, 3, -1)
        assert all(type(v) is int for v in vars(al).values())


class TestAttraction:
    def test_all_n_vs_all_n_repulsive(self):
        f = _face((N, N, N, N))
        assert not is_attractive_contact(f, f, _mirror_alignment())

    def test_all_n_vs_all_s_gendered(self):
        fn = _face((N, N, N, N))
        fs = _face((S, S, S, S))
        assert is_attractive_contact(fn, fs, _mirror_alignment())

    def test_chosen_pattern_attracts_under_both_turns(self):
        f = _face(GOLDEN_VALID[0])
        di = FACE_DIR_INDEX[(1, 1, 0)]
        for turn in (0, 1):
            al = ContactAlignment(di, 0, OPPOSITE_DIR[di], 0, turn)
            assert is_attractive_contact(f, f, al)

    def test_attraction_mutual(self):
        f = _face(GOLDEN_VALID[0])
        g = _face(GOLDEN_VALID[1])
        fwd = _mirror_alignment()
        bwd = ContactAlignment(fwd.face_b, 0, fwd.face_a, 0, 0)
        assert is_attractive_contact(f, g, fwd) == is_attractive_contact(g, f, bwd)


def _relabeled(layout: CellLayout, r: int) -> CellLayout:
    """Apply one rotation to a whole cell layout (consistent relabeling).

    Face f moves to face r(f); magnet coordinates transfer through the two
    face frames, which differ by an in-plane half-turn or nothing.
    """
    rot = np.array(ROTATIONS[r], dtype=float)
    faces = [None] * 12
    for f in range(12):
        f2 = DIR_PERM[r][f]
        src = face_frame(f)
        dst = face_frame(f2)
        m = np.array(
            [
                [dst.long_axis @ rot @ src.long_axis, dst.long_axis @ rot @ src.short_axis],
                [dst.short_axis @ rot @ src.long_axis, dst.short_axis @ rot @ src.short_axis],
            ]
        )
        mags = []
        for mag in layout.faces[f].magnets:
            uv = m @ np.array(mag.pos)
            mags.append(MagnetSpec((float(uv[0]), float(uv[1])), mag.polarity))
        faces[f2] = FaceLayout(tuple(mags), layout.faces[f].symmetry)
    return CellLayout(tuple(faces))


class TestValidateGenderless:
    def test_default_layout_passes(self):
        ok, cex = validate_genderless(default_cell_layout())
        assert ok and cex is None

    def test_uniform_all_n_fails_with_counterexample(self):
        layout = CellLayout.uniform(_face((N, N, N, N)))
        ok, cex = validate_genderless(layout)
        assert not ok
        assert cex is not None
        # the counterexample really is a violating alignment
        assert not is_attractive_contact(
            layout.faces[cex.face_a], layout.faces[cex.face_b], cex
        )

    def test_randomized_spot_checks_subset(self):
        layout = default_cell_layout()
        rng = np.random.default_rng(47)
        for _ in range(500):
            di = int(rng.integers(12))
            ra = int(rng.integers(24))
            rb = int(rng.integers(24))
            fa = DIR_PERM[ROT_INV[ra]][di]
            fb = DIR_PERM[ROT_INV[rb]][OPPOSITE_DIR[di]]
            al = ContactAlignment(fa, ra, fb, rb, 0)
            assert is_attractive_contact(layout.faces[fa], layout.faces[fb], al)

    def test_rotation_relabel_invariance(self):
        layout = default_cell_layout()
        for r in (0, 3, 7, 11, 17, 23):
            ok, _ = validate_genderless(_relabeled(layout, r))
            assert ok

    def test_fcc_triangle_all_contacts_attract(self):
        # three mutually adjacent cells: every shared face must attract
        layout = default_cell_layout()
        triangle = [(0, 0, 0), (1, 1, 0), (1, 0, 1)]
        for p, q in itertools.combinations(triangle, 2):
            d = tuple(b - a for a, b in zip(p, q))
            di = FACE_DIR_INDEX[d]
            al = ContactAlignment(di, 0, OPPOSITE_DIR[di], 0, 0)
            assert is_attractive_contact(
                layout.faces[di], layout.faces[OPPOSITE_DIR[di]], al
            )

    def test_mixed_magnet_counts_rejected(self):
        f4 = _face(GOLDEN_VALID[0])
        f2 = FaceLayout((MagnetSpec((0.3, 0.1), N), MagnetSpec((-0.3, -0.1), S)))
        with pytest.raises(ValidationError):
            validate_genderless(CellLayout((f4,) * 11 + (f2,)))


class TestEnumeration:
    def test_golden_set(self):
        valid = enumerate_valid_layouts(default_face_positions())
        assert valid == GOLDEN_VALID

    def test_every_member_passes_validation(self):
        positions = default_face_positions()
        for assignment in enumerate_valid_layouts(positions):
            layout = CellLayout.uniform(_face(assignment, positions))
            ok, _ = validate_genderless(layout)
            assert ok

    def test_non_members_fail_validation(self):
        positions = default_face_positions()
        valid = set(enumerate_valid_layouts(positions))
        for bits in itertools.product((N, S), repeat=4):
            if bits in valid:
                continue
            ok, _ = validate_genderless(CellLayout.uniform(_face(bits, positions)))
            assert not ok

    def test_closed_under_global_inversion(self):
        valid = set(enumerate_valid_layouts(default_face_positions()))
        flipped = {tuple(p.flipped() for p in v) for v in valid}
        assert flipped == valid

    def test_matches_uniform_cell_validation(self):
        # the in-plane check against the full 576-alignment sweep of the
        # pattern stamped on all 12 faces
        sets = _mirror_position_sets(300, seed=12)
        nonempty = 0
        for pts in sets:
            want = tuple(
                bits
                for bits in itertools.product((N, S), repeat=len(pts))
                if validate_genderless(CellLayout.uniform(_face(bits, pts)))[0]
            )
            assert enumerate_valid_layouts(pts) == want, pts
            nonempty += bool(want)
        assert nonempty >= 30

    def test_both_long_axis_signs_occur(self):
        # contact_map of a uniform layout uses _mate(uv, s, 0, 2); the
        # in-plane check covers both s only if both occur
        signs = set()
        for ra in range(24):
            fa = DIR_PERM[ROT_INV[ra]][0]
            la = np.array(ROTATIONS[ra]) @ face_frame(fa).long_axis
            for rb in range(24):
                fb = DIR_PERM[ROT_INV[rb]][OPPOSITE_DIR[0]]
                lb = np.array(ROTATIONS[rb]) @ face_frame(fb).long_axis
                signs.add(round(float(la @ lb)))
        assert signs == {1, -1}

    @pytest.mark.parametrize("k", [2, 3])
    def test_near_coincident_positions_rejected(self, k):
        pts = []
        for j in range(k):
            a = 2 * math.pi * j / k
            for r in (0.3, 0.3 + 1e-7):
                pts.append((r * math.cos(a), r * math.sin(a)))
        with pytest.raises(ValidationError, match="closer"):
            enumerate_valid_layouts(pts, k=k)

    # huge-int: beyond the float range, refused rather than an OverflowError
    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, True, pytest.param(10**400, id="huge-int")]
    )
    def test_bad_positions_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite numbers"):
            enumerate_valid_layouts([(0.3, bad), (-0.3, -0.2)], k=2)

    @pytest.mark.parametrize("k", [3, 6])
    @pytest.mark.parametrize("decimals", [5, 6, 7])
    def test_rounded_orbits_checked_at_the_pairing_tolerance(self, k, decimals):
        # a k-fold orbit of mirror pairs written with a few decimals: the
        # symmetry check pairs positions within EPS_MATCH, as docking does,
        # so rounding errors below it (6 or 7 decimals) are accepted with
        # the exact orbit's assignments, and larger ones (5) refused
        def orbit(digits=None):
            pts = []
            for j in range(k):
                for a in (0.3 + 2 * math.pi * j / k, -0.3 + 2 * math.pi * j / k):
                    p = (0.4 * math.cos(a), 0.4 * math.sin(a))
                    pts.append(p if digits is None else tuple(round(x, digits) for x in p))
            return pts

        exact = enumerate_valid_layouts(orbit(), k=k)
        assert len(exact) == 2
        if decimals >= 6:
            assert enumerate_valid_layouts(orbit(decimals), k=k) == exact
            FaceLayout(tuple(MagnetSpec(p, N) for p in orbit(decimals)), symmetry=k)
        else:
            with pytest.raises(ValidationError, match=f"{k}-fold symmetric"):
                enumerate_valid_layouts(orbit(decimals), k=k)
            with pytest.raises(ValidationError, match=f"{k}-fold symmetric"):
                FaceLayout(tuple(MagnetSpec(p, N) for p in orbit(decimals)), symmetry=k)

    def test_k1_unsupported(self):
        with pytest.raises(UnsupportedSymmetry):
            enumerate_valid_layouts([(0.1, 0.2)], k=1)

    def test_asymmetric_positions_rejected(self):
        with pytest.raises(ValidationError):
            enumerate_valid_layouts([(0.1, 0.2), (0.3, 0.1)], k=2)

    def test_triangular_face_three_magnets_empty(self):
        # an odd orbit forces a fixed point under some flipped alignment,
        # which can never attract; three-fold faces need even mirror orbits
        tri = [
            (math.cos(a), math.sin(a))
            for a in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3)
        ]
        assert enumerate_valid_layouts(tri, k=3) == ()

    def test_triangular_face_six_magnets_nonempty(self):
        # two mirror-paired three-fold orbits admit genderless assignments,
        # matching the claim that the scheme covers triangular faces
        pts = []
        for j in range(3):
            base = 2 * math.pi * j / 3
            for s in (1, -1):
                a = base + s * math.pi / 7
                pts.append((math.cos(a), math.sin(a)))
        valid = enumerate_valid_layouts(pts, k=3)
        assert len(valid) > 0
        flipped = {tuple(p.flipped() for p in v) for v in valid}
        assert flipped == set(valid)

    def test_square_face_k4(self):
        # same story as the triangle: one four-fold orbit either hits a
        # reflection axis or cannot pair, so use two mirror-paired orbits
        pts = []
        for j in range(4):
            base = 2 * math.pi * j / 4
            for s in (1, -1):
                a = base + s * math.pi / 9
                pts.append((0.5 * math.cos(a), 0.5 * math.sin(a)))
        valid = enumerate_valid_layouts(pts, k=4)
        assert len(valid) > 0

    def test_matches_per_assignment_path(self):
        # the walk over consistent prefixes against the check of every
        # assignment, on sets of which some cannot pair at all
        nonempty = unpairable = 0
        for k, pts in _symmetric_position_sets(60, seed=21):
            want = _per_assignment_reference(pts, k)
            assert enumerate_valid_layouts(pts, k=k) == want, (k, pts)
            nonempty += bool(want)
            try:
                for j in range(k):
                    docking._partners(pts, docking._mate(pts, 1, j, k))
            except PairingError:
                unpairable += 1
        assert nonempty >= 10 and unpairable >= 10, (nonempty, unpairable)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(_permuted_symmetric_sets())
    def test_matches_per_assignment_path_in_any_order(self, drawn):
        # the walk prunes by magnet index, so the order of the positions
        # decides which partner of a pair is checked; the seeded sets
        # above come in their generation order only
        k, pts = drawn
        assert enumerate_valid_layouts(pts, k=k) == _per_assignment_reference(pts, k)

    def test_forty_magnet_face(self):
        # 2^40 assignments, of which the walk holds at most 2^10 prefixes;
        # each 2-fold orbit (u, v), (-u, -v) comes first, so a walk that
        # checked reflection partners alone would hold 2^20 of them
        pts = _mirrored_orbits(10)
        valid = enumerate_valid_layouts(pts)
        assert len(valid) == 2**10
        assert list(valid) == sorted(valid, key=lambda bits: [p is S for p in bits])
        assert {tuple(p.flipped() for p in bits) for bits in valid} == set(valid)
        for bits in valid:  # each orbit's two halves take opposite poles
            assert all(bits[20 + i] is bits[i].flipped() for i in range(20))

    @pytest.mark.parametrize("k", [4.0, "4", True])
    def test_non_int_k_rejected(self, k):
        with pytest.raises(ValidationError, match="must be an int"):
            enumerate_valid_layouts([(0.5, 0.2), (-0.5, -0.2)], k=k)


def _full_sweep_oracle(layout):
    """Reference check: every one of the 12 contact directions x 24 x 24
    orientation pairs, in that order, with its own pairing and polarity
    test. validate_genderless must agree on the verdict and on the first
    counterexample."""
    if len({len(f.magnets) for f in layout.faces}) != 1:
        raise ValidationError("all faces must carry the same magnet count")
    local = []
    for f in range(12):
        fr = face_frame(f)
        uv = layout.faces[f].positions()
        local.append(fr.center + uv[:, 0:1] * fr.long_axis + uv[:, 1:2] * fr.short_axis)
    rots = np.array(ROTATIONS, dtype=float)
    world = np.einsum("rij,fmj->rfmi", rots, np.array(local))  # (24, 12, m, 3)
    pols = [f.polarities() for f in layout.faces]
    for d_idx, d in enumerate(FACE_DIRS):
        shift = 2.0 * np.array(d, dtype=float)
        for ra in range(24):
            fa = DIR_PERM[ROT_INV[ra]][d_idx]
            for rb in range(24):
                fb = DIR_PERM[ROT_INV[rb]][OPPOSITE_DIR[d_idx]]
                pa, pb = world[ra, fa], world[rb, fb] + shift
                d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
                partner = np.argmin(d2, axis=1)
                align = ContactAlignment(fa, ra, fb, rb, 0)
                if (
                    d2[np.arange(len(partner)), partner].max() > EPS_MATCH**2
                    or len(set(partner.tolist())) != len(partner)
                    or any(pols[fa][i] is pols[fb][j] for i, j in enumerate(partner))
                ):
                    return False, align
    return True, None


def _mixed_layouts(count, seed):
    """Cells whose faces each carry NSSN or SNNS, with one face random."""
    rng = np.random.default_rng(seed)
    assignments = list(itertools.product((N, S), repeat=4))
    out = []
    for _ in range(count):
        faces = [_face(GOLDEN_VALID[int(rng.integers(2))]) for _ in range(12)]
        faces[int(rng.integers(12))] = _face(assignments[int(rng.integers(16))])
        out.append(CellLayout(tuple(faces)))
    return out


def _agree(layout):
    want = _full_sweep_oracle(layout)
    assert validate_genderless(layout) == want
    return want


class TestOneDirectionMatchesFullSweep:
    def test_uniform_layouts(self):
        verdicts = [
            _agree(CellLayout.uniform(_face(bits)))[0]
            for bits in itertools.product((N, S), repeat=4)
        ]
        assert sum(verdicts) == len(GOLDEN_VALID)

    def test_relabelled_layouts(self):
        golden = default_cell_layout()
        mixed = _mixed_layouts(3, seed=5)
        for r in (0, 3, 7, 11, 17, 23):
            assert _agree(_relabeled(golden, r)) == (True, None)
            for layout in mixed:
                _agree(_relabeled(layout, r))

    def test_seeded_mixed_layouts(self):
        results = [_agree(layout) for layout in _mixed_layouts(240, seed=2024)]
        # the corpus must exercise more than one counterexample, or a sweep
        # over the wrong direction could pass unnoticed
        assert len({cex for ok, cex in results if not ok}) >= 5

    @pytest.mark.parametrize("delta", [1e-7, 4e-7, 1e-5, 0.2])
    @pytest.mark.parametrize("eps", [EPS_MATCH])
    def test_perturbed_positions(self, delta, eps):
        # shifts below the pairing tolerance still pair; above it they
        # break the golden pattern
        positions = _shifted_positions(delta)
        for bits in (GOLDEN_VALID[0], GOLDEN_VALID[1], (N, N, S, S)):
            layout = CellLayout.uniform(_face(bits, positions))
            ok, _ = _agree(layout)
            assert ok == (bits in GOLDEN_VALID and delta < eps)
            _agree(_relabeled(layout, 7))
        # one perturbed face among unperturbed ones
        faces = [_face(GOLDEN_VALID[0])] * 12
        faces[4] = _face(GOLDEN_VALID[0], positions)
        _agree(CellLayout(tuple(faces)))


def _embedded_contact_map(a, b, align):
    """Reference pairing in world space: both layouts embedded through their
    3-D face frames and cell orientations, cell A at the origin and cell B
    one lattice step across the shared face."""
    if not align.is_coincident():
        raise PairingError("faces are not geometrically coincident")

    def local(layout, face, turn):
        fr = face_frame(face)
        uv = layout.positions()
        if turn % layout.symmetry:
            ang = 2.0 * math.pi * turn / layout.symmetry
            c, s = math.cos(ang), math.sin(ang)
            uv = uv @ np.array([[c, -s], [s, c]]).T
        return fr.center + uv[:, 0:1] * fr.long_axis + uv[:, 1:2] * fr.short_axis

    ra = np.array(ROTATIONS[align.orient_a], dtype=float)
    rb = np.array(ROTATIONS[align.orient_b], dtype=float)
    shift = 2.0 * np.array(FACE_DIRS[align.world_dir()], dtype=float)
    pa = local(a, align.face_a, 0) @ ra.T
    pb = local(b, align.face_b, align.turn) @ rb.T + shift
    if len(a.magnets) != len(b.magnets):
        raise PairingError("magnet counts differ")
    return list(enumerate(docking._partners(pa, pb)))


def _oracle_face_pairs(k, count, seed):
    """Seeded (A, B) face pairs: one or two k-fold orbits, mirror-closed or
    not, B being A, A mirrored or A turned by 90 degrees, in shuffled
    magnet order. Mixes pairings with PairingErrors under every s."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        base = rng.uniform(-0.4, 0.4, size=(int(rng.integers(1, 3)), 2))
        if rng.integers(2):
            base = np.vstack([base, base * (1.0, -1.0)])
        orbit = np.vstack(
            [
                base @ np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]).T
                for a in 2.0 * math.pi * np.arange(k) / k
            ]
        )
        pols = [(N, S)[int(x)] for x in rng.integers(0, 2, len(orbit))]
        a = FaceLayout(tuple(MagnetSpec(tuple(p), q) for p, q in zip(orbit, pols)), k)
        pb = (orbit, orbit * (1.0, -1.0), orbit[:, ::-1] * (-1.0, 1.0))[int(rng.integers(3))]
        perm = rng.permutation(len(pb))
        b = FaceLayout(tuple(MagnetSpec(tuple(pb[i]), pols[i]) for i in perm), k)
        out.append((a, b))
    return out


def _outcome(fn, a, b, align):
    try:
        return fn(a, b, align)
    except PairingError:
        return "PairingError"


class TestContactMapMatchesEmbedding:
    @pytest.mark.parametrize("k,count,seed", [(2, 6, 11), (4, 3, 12)])
    def test_seeded_layouts(self, k, count, seed):
        outcomes = set()
        for a, b in _oracle_face_pairs(k, count, seed):
            for di in (0, 5, 10):
                for ra in range(0, 24, 3):
                    fa = DIR_PERM[ROT_INV[ra]][di]
                    for rb in range(24):
                        fb = DIR_PERM[ROT_INV[rb]][OPPOSITE_DIR[di]]
                        for turn in range(k):
                            al = ContactAlignment(fa, ra, fb, rb, turn)
                            got = _outcome(contact_map, a, b, al)
                            assert got == _outcome(_embedded_contact_map, a, b, al), al
                            outcomes.add(got == "PairingError")
        assert outcomes == {True, False}  # both pairings and errors compared
