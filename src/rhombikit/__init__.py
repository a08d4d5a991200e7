"""Rhombic dodecahedral cell modeling on the face-centered cubic lattice.

Subpackages:

* lattice    - positions, neighbor directions, the 24-element rotation group
* geometry   - canonical cell mesh, frames, contact classes, swept volumes
* docking    - magnet layouts and genderless docking validation
* kinematics - 120-degree edge pivots and their legality
* planner    - minimal pivot-move plans, breadth-first from one or both ends
* analytics  - trajectory metrics and design summary tables
* io         - file formats (JSON structures/plans/layouts, CSV, OBJ)
* cli        - the ``rhombikit`` command
"""

from .errors import (
    IllegalMove,
    PairingError,
    ParseError,
    RhombikitError,
    UnsupportedSymmetry,
    ValidationError,
)
from .lattice import (
    FACE_DIRS,
    ROTATIONS,
    Cell,
    CellKind,
    Configuration,
    canonicalize,
    is_connected,
    lattice_distance,
    neighbors,
)

__version__ = "0.1.0"

__all__ = [
    "FACE_DIRS",
    "ROTATIONS",
    "Cell",
    "CellKind",
    "Configuration",
    "IllegalMove",
    "PairingError",
    "ParseError",
    "RhombikitError",
    "UnsupportedSymmetry",
    "ValidationError",
    "canonicalize",
    "is_connected",
    "lattice_distance",
    "neighbors",
    "__version__",
]
