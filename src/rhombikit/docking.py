"""Magnet layouts on cell faces and genderless docking validation.

Every face carries a handful of axially poled disc magnets, described by
their outward pole (N or S) and their position in the face frame (long
axis, short axis). Two aligned faces dock when every magnet finds a
partner directly opposite and every such pair is north-to-south. Faces
pair in 2-D face coordinates, through one in-plane map, ``_mate``.

A cell layout is *genderless* when that holds for every face pair, every
pair of cell orientations, and every face-to-face alignment the lattice
can realize, so that any cell can grab any other cell in any legal pose.
``validate_genderless`` checks that exhaustively (24 x 24 orientations
across one contact direction, which stands for all 12 by lattice
symmetry). ``enumerate_valid_layouts`` lists the polarity assignments
of one face pattern that pass a single in-plane check of a k-fold
symmetric face, which covers any polyhedron with such faces for k >= 2;
for the cell's two-fold faces it gives exactly validate_genderless's
verdict on the pattern stamped onto all 12 faces. It walks the magnets
in order and keeps only the prefixes that pass so far, at most 2^c of
them for c orbits of the face's symmetry group, so it never tries the
2^m assignments of m magnets one by one. Below two-fold
symmetry no assignment can survive a flipped alignment and the scheme
does not apply. Pairing tolerance is the constant EPS_MATCH: _partners,
the one point matcher, applies it both to docking and to FaceLayout's
check that its positions are k-fold symmetric.

Magnets pair as plain 2-D float points, and the long-axis sign of a
contact is the sign of an integer dot product of two rotated integer
long axes (geometry._LONG_AXES), so it is exact. numpy is imported only
by FaceLayout.positions, which returns an array: validating, searching
and the dock-check command never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .errors import PairingError, UnsupportedSymmetry, ValidationError
from .geometry import _LONG_AXES, _dot
from .lattice import (
    DIR_PERM,
    OPPOSITE_DIR,
    ROTATIONS,
    ROT_INV,
    _as_int,
    _as_real,
    _check_dir,
    _check_rot,
    _echo,
    _mat_apply,
)

if TYPE_CHECKING:
    import numpy as np

EPS_MATCH = 1e-6  # in-plane coincidence tolerance for magnet pairing

_SQRT2 = math.sqrt(2.0)


class Polarity(Enum):
    """Pole facing outward from the face."""

    N = "N"
    S = "S"

    def flipped(self) -> "Polarity":
        return Polarity.S if self is Polarity.N else Polarity.N


@dataclass(frozen=True)
class MagnetSpec:
    """One magnet: 2D position in the face frame plus outward polarity."""

    pos: tuple[float, float]
    polarity: Polarity

    def __post_init__(self) -> None:
        try:
            if len(self.pos) != 2:
                raise ValidationError
            pos = tuple(_as_real(x, "magnet coordinate") for x in self.pos)
        except (TypeError, ValidationError):
            raise ValidationError(
                "magnet position must be a 2D point of finite numbers, "
                f"got {_echo(self.pos)}"
            ) from None
        object.__setattr__(self, "pos", pos)
        if not isinstance(self.polarity, Polarity):
            raise ValidationError(f"bad polarity {_echo(self.polarity)}")


def _turned(points, angle: float) -> list[tuple[float, float]]:
    """2D points turned by angle (radians) about the face centre."""
    c, s = math.cos(angle), math.sin(angle)
    return [(c * u - s * v, s * u + c * v) for u, v in points]


def _partners(pa, pb) -> list[int]:
    """Index into pb of the point nearest each point of pa (the first such
    on a tie); the points are sequences of numbers of any one dimension.

    Raises PairingError when some point of pa has no partner within
    EPS_MATCH or two points share one partner.
    """
    partner = []
    for i, p in enumerate(pa):
        d2 = [sum((x - y) * (x - y) for x, y in zip(p, q)) for q in pb]
        j = min(range(len(d2)), key=d2.__getitem__)
        if d2[j] > EPS_MATCH * EPS_MATCH:
            raise PairingError(f"magnet {i} of face A has no partner within {EPS_MATCH}")
        partner.append(j)
    if len(set(partner)) != len(partner):
        raise PairingError("magnet pairing is not one-to-one")
    return partner


def _tuple_of(kind: type, items, what: str) -> tuple:
    """items as a tuple, each of them a kind; ValidationError otherwise."""
    try:
        out = tuple(items)
        if all(isinstance(x, kind) for x in out):
            return out
    except TypeError:
        pass
    raise ValidationError(f"{what} must be a sequence of {kind.__name__}s, got {_echo(items)}")


@dataclass(frozen=True)
class FaceLayout:
    """The magnets of one face.

    The symmetry order k is an int (numpy ints too, not bools) of at
    least two whose turn, 2*pi/k, a float can hold. Positions must be
    pairwise separated by more than twice the pairing tolerance and, as
    a multiset, invariant under the face's k-fold rotation (otherwise
    some realizable alignment could not pair all magnets): the rotated
    positions pair with the positions (_partners, within EPS_MATCH), and
    only a magnet within EPS_MATCH of the face centre pairs with itself.
    The separation makes that pairing unique; the last rule keeps a click
    too small to move any magnet out of the tolerance, under a huge k,
    from passing every face. The rhombic cell faces have k = 2.
    """

    magnets: tuple[MagnetSpec, ...]
    symmetry: int = 2

    def __post_init__(self) -> None:
        mags = _tuple_of(MagnetSpec, self.magnets, "face layout magnets")
        object.__setattr__(self, "magnets", mags)
        if not mags:
            raise ValidationError("face layout has no magnets")
        k = _as_int(self.symmetry, "symmetry order")
        if k < 2:
            raise UnsupportedSymmetry(
                f"genderless docking needs at least two-fold symmetry, got k={_echo(k)}"
            )
        _as_real(k, "symmetry order")
        object.__setattr__(self, "symmetry", k)
        points = [m.pos for m in mags]
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if math.dist(points[i], points[j]) <= 2 * EPS_MATCH:
                    raise ValidationError(
                        f"magnets {i} and {j} are closer than the pairing tolerance"
                    )
        try:
            partner = _partners(_turned(points, 2.0 * math.pi / k), points)
            if any(i == j and math.hypot(*points[i]) > EPS_MATCH for i, j in enumerate(partner)):
                raise PairingError("an off-centre magnet pairs with itself")
        except PairingError:
            raise ValidationError(
                f"magnet positions are not {_echo(k)}-fold symmetric"
            ) from None

    def positions(self) -> np.ndarray:
        import numpy as np

        return np.array([m.pos for m in self.magnets], dtype=float)

    def polarities(self) -> tuple[Polarity, ...]:
        return tuple(m.polarity for m in self.magnets)


@dataclass(frozen=True)
class CellLayout:
    """One FaceLayout per face direction, indexed like FACE_DIRS."""

    faces: tuple[FaceLayout, ...]

    def __post_init__(self) -> None:
        faces = _tuple_of(FaceLayout, self.faces, "cell layout faces")
        if len(faces) != 12:
            raise ValidationError(f"cell layout needs 12 faces, got {len(faces)}")
        object.__setattr__(self, "faces", faces)

    @classmethod
    def uniform(cls, face: FaceLayout) -> "CellLayout":
        """Stamp one face pattern onto all 12 faces (in face-local frames)."""
        return cls((face,) * 12)

    def magnet_count(self) -> int:
        return sum(len(f.magnets) for f in self.faces)


@dataclass(frozen=True)
class ContactAlignment:
    """A realizable face-to-face meeting of two cells.

    Cell A sits at the origin with orientation orient_a and presents its
    local face face_a; cell B sits one lattice step away with orientation
    orient_b presenting face_b. turn adds j extra clicks of the face's
    in-plane symmetry rotation on top of B's orientation.
    """

    face_a: int
    orient_a: int
    face_b: int
    orient_b: int
    turn: int = 0

    def __post_init__(self) -> None:
        for name in ("face_a", "face_b"):
            object.__setattr__(self, name, _check_dir(getattr(self, name)))
        for name in ("orient_a", "orient_b"):
            object.__setattr__(self, name, _check_rot(getattr(self, name)))
        object.__setattr__(self, "turn", _as_int(self.turn, "turn"))

    def world_dir(self) -> int:
        """Index of the world direction from cell A toward cell B."""
        return DIR_PERM[self.orient_a][self.face_a]

    def is_coincident(self) -> bool:
        db = DIR_PERM[self.orient_b][self.face_b]
        return db == OPPOSITE_DIR[self.world_dir()]


def _mate(uv, s: int, turn: int, k: int) -> list[tuple[float, float]]:
    """Partner magnet positions, 2D points, in our face frame.

    The partner's pattern turns by turn clicks of its k-fold symmetry,
    then (u, v) maps to (s*u, -s*v): s = +1 when the two long axes are
    parallel, and the short axes oppose because the normals do.
    """
    if turn % k:  # turn may pass the float range; the click is an int ratio
        uv = _turned(uv, 2.0 * math.pi * (turn % k / k))
    return [(s * u, -s * v) for u, v in uv]


def contact_map(
    a: FaceLayout, b: FaceLayout, align: ContactAlignment
) -> list[tuple[int, int]]:
    """Pair up magnets of two faces brought into contact.

    Maps B's magnets into A's face frame with _mate, s being the sign of
    the dot product of the two faces' integer long axes (_LONG_AXES)
    turned by their cells' orientations, exact in integers, and matches
    magnets whose positions coincide within EPS_MATCH. Returns index
    pairs (i_a, i_b); raises PairingError when any magnet lacks a partner
    or the faces cannot coincide at all.
    """
    if not align.is_coincident():
        raise PairingError(
            f"faces are not geometrically coincident under {_echo(align)}"
        )
    if len(a.magnets) != len(b.magnets):
        raise PairingError(
            f"magnet counts differ: {len(a.magnets)} vs {len(b.magnets)}"
        )
    la = _mat_apply(ROTATIONS[align.orient_a], _LONG_AXES[align.face_a])
    lb = _mat_apply(ROTATIONS[align.orient_b], _LONG_AXES[align.face_b])
    s = 1 if _dot(la, lb) > 0 else -1
    pb = _mate([m.pos for m in b.magnets], s, align.turn, b.symmetry)
    return list(enumerate(_partners([m.pos for m in a.magnets], pb)))


def is_attractive_contact(
    a: FaceLayout, b: FaceLayout, align: ContactAlignment
) -> bool:
    """True when every paired magnet couple is north-to-south."""
    pairs = contact_map(a, b, align)
    pol_a = a.polarities()
    pol_b = b.polarities()
    return all(pol_a[i] is not pol_b[j] for i, j in pairs)


def validate_genderless(layout: CellLayout) -> tuple[bool, ContactAlignment | None]:
    """Exhaustively check attachment over every realizable alignment.

    Sweeps all 24 x 24 orientation pairs across contact direction
    FACE_DIRS[0]; the local faces in contact follow from the orientations.
    That one direction stands for all 12: a lattice rotation g maps the
    alignment (d, ra, rb) to (g.d, g.ra, g.rb) with the same local faces
    in contact and the same long-axis sign (g turns both long axes), so
    contact_map computes the very same pairing. So a
    direction has a violation exactly when FACE_DIRS[0] has one, and a
    sweep of all 12 directions in order, FACE_DIRS[0] first and (ra, rb)
    in the same order, returns the same first counterexample. In-plane
    turns need no separate sweep because the lattice's own rotation group
    already realizes every click of the two-fold faces.
    Returns (True, None) or (False, first violating alignment).
    """
    counts = {len(f.magnets) for f in layout.faces}
    if len(counts) != 1:
        raise ValidationError("all faces must carry the same magnet count")
    for ra in range(24):
        fa = DIR_PERM[ROT_INV[ra]][0]
        for rb in range(24):
            fb = DIR_PERM[ROT_INV[rb]][OPPOSITE_DIR[0]]
            align = ContactAlignment(fa, ra, fb, rb, 0)
            try:
                if not is_attractive_contact(layout.faces[fa], layout.faces[fb], align):
                    return False, align
            except PairingError:
                return False, align
    return True, None


# --------------------------------------------------------------------------
# layout search
# --------------------------------------------------------------------------


def default_face_positions() -> tuple[tuple[float, float], ...]:
    """Four magnet positions, mirror-symmetric about both face diagonals.

    Four magnets per face in a doubly mirror-symmetric arrangement is the
    hardware profile this models. They sit at half the long
    half-diagonal (sqrt(2) in canonical units) and 0.35 of the short one
    (1), inside the face; other radii go to enumerate_valid_layouts as
    explicit positions.
    """
    u = 0.5 * _SQRT2
    v = 0.35
    return tuple(sorted({(-u, -v), (-u, v), (u, -v), (u, v)}))


def enumerate_valid_layouts(
    face_positions: Sequence[tuple[float, float]], k: int = 2
) -> tuple[tuple[Polarity, ...], ...]:
    """All polarity assignments that make one face pattern genderless.

    The assignments that pass the in-plane check of a k-fold symmetric
    face, the condition for any polyhedron with such faces: when two
    copies of the face meet, one is flipped over, so the map from partner
    coordinates into our frame is one of k reflections (an in-plane click
    then the mirror across the first symmetry axis, _mate with s = 1), and
    under each of them every magnet must meet an unlike pole. The k
    partner maps depend on the positions only; when one leaves a magnet
    without a partner, nothing passes. For the rhombic cell (k = 2) this
    is exactly validate_genderless of the pattern stamped on all 12
    faces: with the same pattern on every face, contact_map of each of
    the 576 alignments maps the partner by _mate(uv, s, 0, 2) with s = +1
    or -1, which are the clicks j = 0 and j = 1, and both signs occur
    among the alignments.

    The search walks the magnets in index order and keeps only the
    prefixes no check has failed yet, extending each with N, then S, so
    the result comes in binary order with N before S. Magnet i's pole
    must be unlike that of each reflection partner p[i] <= i: a
    reflection is an involution, and FaceLayout's separation makes the
    pairing unique, so each partner pair is checked once its later magnet
    is placed, and a magnet that is its own partner never passes. It must
    also be like that of each earlier p[q[i]], a rotation image that the
    first rule would force anyway: this removes no assignment, but it
    holds the walk to at most 2^c prefixes, c being the number of
    components of the partner graph (the orbits of the face's symmetry
    group), where the first rule alone can hold 2^(m/2) for m magnets.
    The positions and k must make a FaceLayout (finite, separated, k-fold
    symmetric).
    """
    try:  # each position obeys MagnetSpec's rule (two finite real numbers)
        mags = tuple(MagnetSpec(p, Polarity.N) for p in face_positions)
    except TypeError:  # raised only by iterating face_positions
        mags = ()
    if not mags:
        raise ValidationError(
            "face positions must be a nonempty list of 2D points, "
            f"got {_echo(face_positions)}"
        )
    k = FaceLayout(mags, k).symmetry  # checks k and the positions
    pts = [m.pos for m in mags]
    try:
        maps = [_partners(pts, _mate(pts, 1, j, k)) for j in range(k)]
    except PairingError:
        return ()  # some alignment leaves a magnet without a partner
    prefixes: list[tuple[Polarity, ...]] = [()]
    for i in range(len(pts)):
        unlike = {p[i] for p in maps if p[i] <= i}
        alike = {p[q[i]] for p in maps for q in maps if p[q[i]] < i}
        prefixes = [
            bits
            for pre in prefixes
            for bits in (pre + (Polarity.N,), pre + (Polarity.S,))
            if all(bits[j] is not bits[i] for j in unlike)
            and all(bits[j] is bits[i] for j in alike)
        ]
    return tuple(prefixes)


def default_cell_layout() -> CellLayout:
    """The shipped reference layout: default positions, first assignment
    returned by the exhaustive search, stamped on all 12 faces."""
    positions = default_face_positions()
    valid = enumerate_valid_layouts(positions)
    if not valid:  # pragma: no cover - the search is known to succeed
        raise AssertionError("no genderless assignment exists for the default profile")
    face = FaceLayout(
        tuple(MagnetSpec(p, pol) for p, pol in zip(positions, valid[0]))
    )
    return CellLayout.uniform(face)
