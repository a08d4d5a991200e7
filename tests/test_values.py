"""The value rules every public validator shares (lattice owns them):
an int is a Python or numpy integer, never a bool; a real is a finite
int or float; and an error message echoes an offending value without
raising, however large it is. Each case below builds a value in code,
as a library caller would, not through a file parser."""

import numpy as np
import pytest

from rhombikit.analytics import DesignMeta, Trajectory, rotation_direction
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
from rhombikit.kinematics import legal_moves
from rhombikit.lattice import Cell, Configuration, check_pos, is_connected
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
