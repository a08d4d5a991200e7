"""The benchmark's tracer wraps package functions by name, at their home
module and at every module that imported them. A refactor that drops or
rebinds one of those names must fail here, not first in a benchmark run.
"""

import importlib.util
from pathlib import Path

from rhombikit import docking, kinematics
from rhombikit.lattice import Configuration

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_counts_and_uninstalls():
    tracing = _load_tracing()
    originals = [
        (owner, attr, getattr(owner, attr))
        for _, owners, attr, _ in tracing.SPANS
        for owner in owners
    ] + [(cls, attr, getattr(cls, attr)) for _, cls, attr in tracing.COUNTS]
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises if a traced name is missing or rebound
        kinematics.blocker_table()
        kinematics.legal_moves(Configuration.from_positions([(0, 0, 0), (1, 1, 0)]))
        assert docking.validate_genderless(docking.default_cell_layout()) == (True, None)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
    names = {span[2] for span in tracer.spans}
    assert {
        "geometry.blocker_table",
        "kinematics.legal_moves",
        "docking.validate_genderless",
    } <= names
    assert tracer.counts["kinematics.pivot_moves_built"] > 0
