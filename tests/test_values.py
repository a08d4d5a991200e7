"""The value rules every public validator shares (lattice owns them):
an int is a Python or numpy integer, never a bool; a real is a finite
int or float; and an error message echoes an offending value without
raising, however large it is. Each case below builds a value in code,
as a library caller would, not through a file parser."""

import math
from enum import IntEnum

import numpy as np
import pytest

from rhombikit.analytics import (
    DesignMeta,
    Trajectory,
    report_table,
    rotation_direction,
    summarize,
    trial_stats,
)
from rhombikit.docking import (
    ContactAlignment,
    FaceLayout,
    MagnetSpec,
    Polarity,
    default_face_positions,
    enumerate_valid_layouts,
)
from rhombikit.errors import ValidationError
from rhombikit.geometry import ContactType, canonical_cell_mesh
from rhombikit.io import StructureDoc, export_obj
from rhombikit.kinematics import PivotMove, legal_moves
from rhombikit.lattice import (
    FACE_DIRS,
    Cell,
    Configuration,
    _as_int,
    _as_real,
    _dir_index,
    _echo,
    check_pos,
    is_connected,
)
from rhombikit.planner import PlannerOptions, goal_matches

HUGE = 10**5000  # past the 4,300 digits str() of an int allows

N = Polarity.N
ORIGIN = Configuration.from_positions([(0, 0, 0)])
FACE = tuple(MagnetSpec(p, N) for p in default_face_positions())


def _design(**kw):
    fields = dict(passive=2, active=1, body_length_cm=9.5, body_weight_g=77.0)
    return DesignMeta("X", contact=ContactType.POINT, **{**fields, **kw})


def _far(v):
    """Two cells v steps apart in y: a valid configuration no packed
    frame can hold."""
    return Configuration.from_positions([(0, 0, 0), (v, v, 0)])


_TRIAL = Trajectory("t", np.arange(3.0), np.zeros((3, 2)))

# each takes the scalar under test in the parameter the id names
VALIDATORS = {
    "Cell.pos": lambda v: Cell((v, 1, 0)),
    "Cell.pos.scalar": lambda v: Cell(v),
    "Cell.orient": lambda v: Cell((0, 0, 0), orient=v),
    "check_pos": lambda v: check_pos((1, v, 0)),
    "MagnetSpec.pos": lambda v: MagnetSpec((v, 0.5), N),
    "ContactAlignment.face_a": lambda v: ContactAlignment(v, 0, 0, 0),
    "ContactAlignment.orient_b": lambda v: ContactAlignment(0, 0, 0, v),
    "FaceLayout.symmetry": lambda v: FaceLayout(FACE, symmetry=v),
    "PlannerOptions.max_states": lambda v: PlannerOptions(max_states=v),
    "StructureDoc.scale_cm_per_unit": lambda v: StructureDoc(ORIGIN, v),
    "DesignMeta.passive": lambda v: _design(passive=v),
    "DesignMeta.active": lambda v: _design(active=v),
    "enumerate_valid_layouts.k": lambda v: enumerate_valid_layouts(
        default_face_positions(), k=v
    ),
    "rotation_direction.theta_min": lambda v: rotation_direction(_TRIAL, theta_min=v),
    "export_obj.scale": lambda v: export_obj(canonical_cell_mesh(), scale=v),
    "is_connected": lambda v: is_connected(_far(v)),
    "legal_moves": lambda v: legal_moves(_far(v)),
    "goal_matches": lambda v: goal_matches(_far(v), _far(v)),
}


@pytest.mark.parametrize("value", [HUGE, -HUGE], ids=["plus", "minus"])
@pytest.mark.parametrize("call", VALIDATORS.values(), ids=VALIDATORS.keys())
def test_huge_int_raises_only_validation_error(call, value):
    # a message that echoed such a value used to raise a bare ValueError
    # (or an OverflowError where a float was made of it)
    try:
        call(value)
    except ValidationError:
        pass


@pytest.mark.parametrize("value", [HUGE, -HUGE], ids=["plus", "minus"])
def test_far_flung_cells_are_not_connected(value):
    assert is_connected(_far(value)) is False


# each builds from one value and returns what it keeps of it
INT_PARAMS = {
    "Cell.pos": lambda v: Cell((v, v, 0)).pos,
    "Cell.orient": lambda v: Cell((0, 0, 0), orient=v).orient,
    "check_pos": lambda v: check_pos((v, 0, v)),
    "ContactAlignment": lambda v: (lambda a: (a.face_a, a.orient_b, a.turn))(
        ContactAlignment(v, 0, 0, v, v)
    ),
    "FaceLayout.symmetry": lambda v: FaceLayout(FACE, symmetry=v).symmetry,
    "PlannerOptions.max_states": lambda v: PlannerOptions(max_states=v).max_states,
    "DesignMeta.counts": lambda v: (lambda m: (m.passive, m.active))(
        _design(passive=v, active=v)
    ),
    "enumerate_valid_layouts.k": lambda v: enumerate_valid_layouts(
        default_face_positions(), k=v
    ),
    "MagnetSpec.pos": lambda v: MagnetSpec((v, v), N).pos,
    "StructureDoc.scale_cm_per_unit": lambda v: StructureDoc(ORIGIN, v).scale_cm_per_unit,
    "DesignMeta.body": lambda v: (lambda m: (m.body_length_cm, m.body_weight_g))(
        _design(body_length_cm=v, body_weight_g=v)
    ),
    "rotation_direction.theta_min": lambda v: rotation_direction(_TRIAL, theta_min=v),
    "export_obj.scale": lambda v: export_obj(canonical_cell_mesh(), scale=v),
}


@pytest.mark.parametrize("make", INT_PARAMS.values(), ids=INT_PARAMS.keys())
def test_numpy_int_accepted_wherever_an_int_is(make):
    # PlannerOptions.max_states and the symmetry order used to refuse it
    got, want = make(np.int64(2)), make(2)
    assert got == want
    assert repr(got) == repr(want)  # kept as the plain int or float


@pytest.mark.parametrize("value", [True, 2.0, "2", None], ids=repr)
@pytest.mark.parametrize(
    "name", ["Cell.orient", "FaceLayout.symmetry", "PlannerOptions.max_states"]
)
def test_ints_refuse_bools_floats_and_strings(name, value):
    with pytest.raises(ValidationError, match="must be an int"):
        INT_PARAMS[name](value)


def test_unprintable_value_echoed_by_type():
    with pytest.raises(ValidationError, match=r"lattice position <unprintable tuple>"):
        check_pos((HUGE, 1, 0))
    with pytest.raises(ValidationError, match=r"got <unprintable int>"):
        PlannerOptions(max_states=-HUGE)


# the rules take a plain int, float or int triple by a shortcut on its
# exact type; every other value, subclasses included, goes the long way
class _Two(IntEnum):
    TWO = 2


class _Real(float):
    pass


class _Triple(tuple):
    pass


class _Row(list):
    pass


@pytest.mark.parametrize(
    "value, want",
    [(2, 2), (-HUGE, -HUGE), (np.int64(2), 2), (np.uint8(2), 2), (_Two.TWO, 2)],
    ids=_echo,
)
def test_as_int_gives_a_plain_int(value, want):
    got = _as_int(value)
    assert got == want and type(got) is int


@pytest.mark.parametrize(
    "value", [True, np.bool_(True), 2.0, np.float64(2.0), _Real(2.0), "2", None], ids=_echo
)
def test_as_int_refuses_what_is_not_an_int(value):
    with pytest.raises(ValidationError, match="must be an int"):
        _as_int(value)


@pytest.mark.parametrize(
    "value, want",
    [
        (2.5, 2.5),
        (-0.0, -0.0),
        (_Real(2.5), 2.5),
        (np.float64(2.5), 2.5),
        (np.float32(0.5), 0.5),
        (2, 2.0),
        (np.int64(2), 2.0),
        (_Two.TWO, 2.0),
    ],
    ids=_echo,
)
def test_as_real_gives_a_plain_float(value, want):
    got = _as_real(value, "v")
    assert type(got) is float and repr(got) == repr(want)


@pytest.mark.parametrize(
    "value",
    [
        math.nan,
        math.inf,
        -math.inf,
        _Real("nan"),
        _Real("inf"),
        np.float64("nan"),
        True,
        np.bool_(True),
        HUGE,
        "2.5",
        None,
    ],
    ids=_echo,
)
def test_as_real_refuses_what_is_not_a_finite_number(value):
    with pytest.raises(ValidationError, match="v must be a finite number"):
        _as_real(value, "v")


@pytest.mark.parametrize(
    "pos",
    [
        (1, 1, 0),
        [1, 1, 0],
        _Triple((1, 1, 0)),
        _Row([1, 1, 0]),
        (np.int64(1), 1, 0),
        (_Two.TWO, 0, 0),
        (-HUGE, HUGE, 0),
    ],
    ids=_echo,
)
def test_check_pos_gives_a_plain_int_tuple(pos):
    got = check_pos(pos)
    assert type(got) is tuple and [type(x) for x in got] == [int] * 3
    assert got == tuple(int(x) for x in pos)


@pytest.mark.parametrize(
    "pos, message",
    [
        ((1, 1, 1), "odd coordinate sum"),
        (_Triple((1, 0, 0)), "odd coordinate sum"),
        (_Row([0, 0, _Two.TWO - 1]), "odd coordinate sum"),
        ((True, 1, 0), "integer triple"),
        ((1.0, 1, 0), "integer triple"),
        (_Triple((1, 1)), "integer triple"),
        ((1, 1, 0, 0), "integer triple"),
        ((1, 1, None), "integer triple"),
        ({"x": 0, "y": 0, "z": 0}, "integer triple"),
    ],
    ids=_echo,
)
def test_check_pos_refuses_what_is_not_a_position(pos, message):
    with pytest.raises(ValidationError, match=message):
        check_pos(pos)


XYZ = {"x": 0, "y": 0, "z": 0}


@pytest.mark.parametrize(
    "call",
    [
        Cell,
        lambda p: Configuration.from_positions([p]),
        lambda p: PivotMove(p, (0, 0, 0), (1, 1, 0), (1, 0, 1)),
        lambda p: PivotMove((1, 1, 0), (0, 0, 0), p, (1, 0, 1)),
    ],
    ids=["Cell", "from_positions", "PivotMove.mover", "PivotMove.from_dir"],
)
def test_str_keyed_mapping_raises_validation_error(call):
    # it used to raise a bare KeyError: 0 from check_pos
    with pytest.raises(ValidationError):
        call(XYZ)


# a face direction is an integer triple by check_pos's rule that names
# one of FACE_DIRS; every spelling of it gives that entry's index
@pytest.mark.parametrize("index", range(12))
@pytest.mark.parametrize(
    "spell",
    [
        tuple,
        list,
        np.array,
        lambda d: tuple(np.int64(x) for x in d),
        _Triple,
        lambda d: dict(enumerate(d)),
    ],
    ids=["tuple", "list", "array", "numpy-ints", "tuple-subclass", "int-keyed-dict"],
)
def test_dir_index_reads_every_spelling_of_a_direction(spell, index):
    assert _dir_index(spell(FACE_DIRS[index])) == index


NOT_DIRECTIONS = {
    "floats": (1.0, 1.0, 0.0),
    "one-float": (1, 1.0, 0),
    "float-array": np.array([1.0, 1.0, 0.0]),
    "bools": (True, True, False),
    "one-bool": (1, True, 0),
    "odd-sum": (1, 0, 0),
    "odd-sum-3": (1, 1, 1),
    "even-non-face": (2, 0, 0),
    "origin": (0, 0, 0),
    "pair": (1, 1),
    "four": (1, 1, 0, 0),
    "None": None,
    "str": "110",
    "str-keyed-dict": XYZ,
    "iterator": iter((1, 1, 0)),  # accepted before directions went through check_pos
}


@pytest.mark.parametrize("d", NOT_DIRECTIONS.values(), ids=NOT_DIRECTIONS.keys())
def test_dir_index_refuses_what_is_not_a_face_direction(d):
    with pytest.raises(ValidationError, match="not a face direction"):
        _dir_index(d)


@pytest.mark.parametrize("count", [10**400, HUGE], ids=["10**400", "HUGE"])
@pytest.mark.parametrize("name", ["passive", "active"])
def test_design_counts_a_float_cannot_hold_are_refused(name, count):
    # report_table divides the counts as floats: 10**400 raised an
    # OverflowError there, and HUGE a bare ValueError (str's digit limit)
    with pytest.raises(ValidationError, match=f"{name} must be a finite number"):
        _design(**{name: count})


def test_design_counts_a_float_can_hold_are_reported():
    meta = _design(passive=10**300)
    table = report_table([summarize([trial_stats(_TRIAL)], meta)])
    assert f"| No. of passive cells | {10**300} |" in table

