import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rhombikit
from rhombikit import io as rio
from rhombikit.cli import build_parser, cli_main
from rhombikit.docking import (
    CellLayout,
    FaceLayout,
    MagnetSpec,
    Polarity,
    default_cell_layout,
    default_face_positions,
)
from rhombikit.errors import ParseError, ValidationError
from rhombikit.geometry import canonical_cell_mesh, structure_mesh
from rhombikit.lattice import Cell, CellKind, Configuration
from rhombikit.planner import SearchStats, plan

from conftest import random_connected_positions


def _fresh_python(code: str, *argv: str) -> str:
    """stdout of code run by a fresh interpreter that imports the same
    rhombikit as this process, from an uninstalled checkout
    (PYTHONPATH=src) as well as from site-packages."""
    package_root = str(Path(rhombikit.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def _random_doc(rng, n=6):
    cells = [
        Cell(p, rng.choice([CellKind.ACTIVE, CellKind.PASSIVE]), int(rng.integers(24)))
        for p in random_connected_positions(rng, n)
    ]
    return rio.StructureDoc(Configuration(cells), float(rng.uniform(0.5, 3.0)))


class TestStructureFiles:
    def test_round_trip_random(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            doc = _random_doc(rng)
            text = rio.dumps_structure(doc)
            back = rio.parse_structure(json.loads(text))
            assert back.config == doc.config
            assert all(
                (a.kind, a.orient) == (b.kind, b.orient)
                for a, b in zip(back.config.cells, doc.config.cells)
            )
            assert back.scale_cm_per_unit == pytest.approx(doc.scale_cm_per_unit)

    def test_serialization_deterministic(self):
        rng = np.random.default_rng(73)
        doc = _random_doc(rng)
        assert rio.dumps_structure(doc) == rio.dumps_structure(doc)

    def test_duplicate_position_names_index(self):
        data = {
            "cells": [
                {"pos": [0, 0, 0], "kind": "passive"},
                {"pos": [0, 0, 0], "kind": "active"},
            ]
        }
        with pytest.raises(ParseError) as info:
            rio.parse_structure(data)
        assert (info.value.location, info.value.message) == (
            "cells[1].pos",
            "duplicate position [0, 0, 0] (first at cells[0])",
        )

    def test_odd_sum_names_offending_cell(self):
        data = {"cells": [{"pos": [1, 0, 0], "kind": "passive"}]}
        with pytest.raises(ParseError, match=r"cells\[0\]"):
            rio.parse_structure(data)

    def test_bad_json_located(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"cells": [}', encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            rio.load_structure(p)

    def test_bad_orient(self):
        data = {"cells": [{"pos": [0, 0, 0], "kind": "passive", "orient": 24}]}
        with pytest.raises(ParseError, match="orient"):
            rio.parse_structure(data)

    def test_cell_rule_reported_at_its_field(self):
        # Cell owns the orientation rule; io reports it where it was read
        data = {"cells": [{"pos": [0, 0, 0], "kind": "passive", "orient": -1}]}
        with pytest.raises(ParseError, match=re.escape("cells[0].orient: rotation index")):
            rio.parse_structure(data)

    def test_numpy_orient_serializes(self):
        # Cell keeps the int its check returns, not the numpy scalar
        cell = Cell((0, 0, 0), CellKind.ACTIVE, np.int64(3))
        assert type(cell.orient) is int
        doc = rio.StructureDoc(Configuration([cell]))
        assert rio.parse_structure(json.loads(rio.dumps_structure(doc))) == doc

    @pytest.mark.parametrize(
        "scale", [-1.0, 0.0, math.nan, math.inf, True, 10**400],
        ids=["negative", "zero", "nan", "inf", "bool", "huge-int"],
    )
    def test_structure_doc_owns_the_scale_rule(self, scale):
        # every document dumps_structure can write, load_structure reads
        with pytest.raises(ValidationError, match="scale_cm_per_unit"):
            rio.StructureDoc(Configuration.from_positions([(0, 0, 0)]), scale)

    @pytest.mark.parametrize("scale", [-1.0, 0, -5])
    def test_non_positive_scale_is_parse_error(self, scale):
        data = {"cells": [{"pos": [0, 0, 0], "kind": "passive"}], "scale_cm_per_unit": scale}
        with pytest.raises(ParseError, match="scale_cm_per_unit must be positive"):
            rio.parse_structure(data)

    def test_scale_read_as_float(self):
        doc = rio.StructureDoc(Configuration.from_positions([(0, 0, 0)]), np.int64(2))
        assert type(doc.scale_cm_per_unit) is float and doc.scale_cm_per_unit == 2.0
        assert rio.parse_structure(json.loads(rio.dumps_structure(doc))) == doc

    def test_unsupported_version(self):
        with pytest.raises(ParseError, match="format_version"):
            rio.parse_structure({"format_version": 99, "cells": []})


    @pytest.mark.parametrize(
        "text, where",
        [
            ('{"cells": [{"pos": [0, 0, 0], "kind": "passive", "orient": true}]}',
             "cells[0]"),
            ('{"cells": [{"pos": [0, 0, 0], "kind": "passive"}], '
             '"scale_cm_per_unit": NaN}', "scale_cm_per_unit"),
            ('{"cells": [{"pos": [0, 0, 0], "kind": "passive"}], '
             '"scale_cm_per_unit": Infinity}', "scale_cm_per_unit"),
        ],
    )
    def test_boolean_and_non_finite_numbers_rejected(self, text, where):
        with pytest.raises(ParseError, match=re.escape(where)):
            rio.parse_structure(json.loads(text))

    @pytest.mark.parametrize(
        "text",
        ['{"cells": [], "scale_cm_per_unit": ' + "9" * 5000 + "}", "[" * 100_000],
        ids=["5000-digit integer", "100000-deep array"],
    )
    def test_json_the_decoder_cannot_hold_is_parse_error(self, tmp_path, text):
        path = tmp_path / "big.json"
        path.write_text(text)
        with pytest.raises(ParseError, match="invalid JSON"):
            rio.load_structure(path)


class TestPlanFiles:
    def test_round_trip(self):
        line = Configuration.from_positions([(0, 0, 0), (1, 1, 0), (2, 2, 0)])
        tri = Configuration.from_positions([(0, 0, 0), (1, 1, 0), (1, 0, 1)])
        res = plan(line, tri)
        doc = rio.PlanDoc(rio.StructureDoc(line), res.plan.moves)
        text = rio.dumps_plan(doc)
        back = rio.parse_plan(json.loads(text))
        assert back.start.config == line
        assert back.moves == res.plan.moves

    def test_bad_face_index(self):
        data = {
            "start": {"cells": [{"pos": [0, 0, 0], "kind": "passive"}]},
            "moves": [{"mover": [1, 1, 0], "substrate": [0, 0, 0], "from": 11, "to": 99}],
        }
        with pytest.raises(ParseError, match=r"moves\[0\]"):
            rio.parse_plan(data)

    def test_boolean_face_index_rejected(self):
        # True is an int in Python and would otherwise read as face 1
        data = {
            "start": {"cells": [{"pos": [0, 0, 0], "kind": "passive"}]},
            "moves": [
                {"mover": [1, 1, 0], "substrate": [0, 0, 0], "from": 0, "to": True}
            ],
        }
        with pytest.raises(ParseError, match=r"moves\[0\].*'to'"):
            rio.parse_plan(data)


class TestLayoutFiles:
    def test_round_trip_default_layout(self):
        layout = default_cell_layout()
        text = rio.dumps_layout(layout)
        back = rio.parse_layout(json.loads(text))
        assert back == layout

    def test_wrong_face_count(self):
        data = {"faces": []}
        with pytest.raises(ParseError, match="12 faces"):
            rio.parse_layout(data)

    @pytest.mark.parametrize("symmetry", [1, 0, -3, True])
    def test_symmetry_below_two_is_parse_error(self, symmetry):
        data = rio.layout_to_dict(default_cell_layout())
        data["faces"][3]["symmetry"] = symmetry
        with pytest.raises(ParseError, match=r"faces\[3\]"):
            rio.parse_layout(data)

    def test_non_finite_magnet_position_rejected(self):
        data = rio.layout_to_dict(default_cell_layout())
        data["faces"][0]["magnets"][1]["pos"] = [float("nan"), 0.5]
        with pytest.raises(ParseError, match=re.escape("faces[0].magnets[1].pos")):
            rio.parse_layout(data)


class TestPositionsFiles:
    def test_pairs_read_as_floats(self):
        assert rio.parse_positions({"positions": [[1, 0.5], [-0.5, 0]]}) == [
            (1.0, 0.5),
            (-0.5, 0.0),
        ]

    @pytest.mark.parametrize(
        "bad",
        ["[true, 0.5]", "[NaN, 0.5]", "[0.5, -Infinity]",
         pytest.param(f"[{10**400}, 0.5]", id="huge-int")],
    )
    def test_boolean_and_non_finite_rejected(self, bad):
        text = '{"positions": [[0.5, 0.5], ' + bad + "]}"
        with pytest.raises(ParseError, match=re.escape("positions[1]")):
            rio.parse_positions(json.loads(text))



class TestDesignFiles:
    DESIGN = {
        "name": "Design A",
        "passive": 2,
        "active": 1,
        "body_length_cm": 9.5,
        "body_weight_g": 77,
        "contact": "point",
    }

    def test_single_design_object(self):
        (spec,) = rio.parse_designs(dict(self.DESIGN))
        assert spec.meta.body_length_cm == 9.5 and spec.trial_ids is None

    @pytest.mark.parametrize(
        "key, value",
        [("body_length_cm", float("nan")), ("body_weight_g", float("inf")),
         ("active", True), ("passive", False)],
    )
    def test_boolean_and_non_finite_rejected(self, key, value):
        data = {"designs": [dict(self.DESIGN), dict(self.DESIGN, **{key: value})]}
        with pytest.raises(ParseError, match=re.escape(f"designs[1]: field {key!r}")):
            rio.parse_designs(data)

    def test_repeated_trial_id_located(self):
        # a trial listed twice would be counted twice by analyze
        data = {"designs": [dict(self.DESIGN), dict(self.DESIGN, trials=["T0", "T1", "T0"])]}
        with pytest.raises(ParseError) as info:
            rio.parse_designs(data)
        assert (info.value.location, info.value.message) == (
            "designs[1].trials[2]",
            "duplicate trial id 'T0' (first at designs[1].trials[0])",
        )

    @pytest.mark.parametrize("key, value", [("active", 0), ("passive", -1)])
    def test_design_meta_rule_reported_at_the_design(self, key, value):
        # DesignMeta owns the cell-count rule; io reports it at the design
        data = {"designs": [dict(self.DESIGN), dict(self.DESIGN, **{key: value})]}
        with pytest.raises(
            ParseError, match=re.escape("designs[1]: need passive >= 0 and active >= 1")
        ):
            rio.parse_designs(data)


def _version_docs():
    design = dict(TestDesignFiles.DESIGN)
    structure = {"cells": [{"pos": [0, 0, 0], "kind": "passive"}]}
    return {
        "structure": (rio.parse_structure, structure),
        "plan": (rio.parse_plan, {"start": structure, "moves": []}),
        "layout": (rio.parse_layout, rio.layout_to_dict(default_cell_layout())),
        "positions": (rio.parse_positions, {"positions": [[0.5, 0.2], [-0.5, -0.2]]}),
        "designs": (rio.parse_designs, {"designs": [design]}),
        "design": (rio.parse_designs, design),
    }


class TestFormatVersion:
    @pytest.mark.parametrize("kind", sorted(_version_docs()))
    @pytest.mark.parametrize("version", [True, 1.0, 2, 0, "1", None])
    def test_only_int_one_accepted(self, kind, version):
        parse, doc = _version_docs()[kind]
        with pytest.raises(ParseError, match="format_version"):
            parse(dict(doc, format_version=version))

    @pytest.mark.parametrize("kind", sorted(_version_docs()))
    def test_one_or_missing_accepted(self, kind):
        parse, doc = _version_docs()[kind]
        doc = {k: v for k, v in doc.items() if k != "format_version"}
        assert parse(dict(doc, format_version=1)) == parse(doc)


def _malformed_files():
    """loader -> (file text, location, message) of one malformed document."""
    layout = rio.layout_to_dict(default_cell_layout())
    layout["faces"][2]["magnets"][1]["polarity"] = "X"
    design = dict(TestDesignFiles.DESIGN, contact="blob")
    cell = {"pos": [0, 0, 0], "kind": "passive"}
    move = {"mover": [1, 1, 0], "substrate": [0, 0, 0], "from": 0, "to": 99}
    return {
        "load_structure": (
            json.dumps({"cells": [dict(cell, kind="solid")]}),
            "cells[0].kind",
            "kind must be one of ['active', 'passive']",
        ),
        "load_plan": (
            json.dumps({"start": {"cells": [cell]}, "moves": [move]}),
            "moves[0].to",
            "face direction index must be an int in 0..11, got 99",
        ),
        "load_layout": (
            json.dumps(layout),
            "faces[2].magnets[1].polarity",
            "polarity must be 'N' or 'S'",
        ),
        "load_positions": (
            json.dumps({"positions": [[0.5, 0.5], "x"]}),
            "positions[1]",
            "position must be a list",
        ),
        "load_designs": (
            json.dumps({"designs": [design]}),
            "designs[0].contact",
            "contact must be one of ['edge', 'face', 'point']",
        ),
        "load_trajectories": (
            "trial_id,t,x,y\nA,0,0,0\nA,oops,1,1\n",
            "line 3",
            "bad numeric value: could not convert string to float: 'oops'",
        ),
    }


def _wrong_typed_items():
    """list field -> (parser, document with one wrong-typed item, location,
    message), one per JSON list the parsers walk."""
    cell = {"pos": [0, 0, 0], "kind": "passive"}
    faces = rio.layout_to_dict(default_cell_layout())
    faces["faces"][3] = "x"
    magnets = rio.layout_to_dict(default_cell_layout())
    magnets["faces"][2]["magnets"][1] = 7
    design = dict(TestDesignFiles.DESIGN)
    return {
        "cells": (rio.parse_structure, {"cells": [cell, 5]},
                  "cells[1]", "cell must be an object"),
        "moves": (rio.parse_plan, {"start": {"cells": [cell]}, "moves": [[]]},
                  "moves[0]", "move must be an object"),
        "faces": (rio.parse_layout, faces, "faces[3]", "face must be an object"),
        "magnets": (rio.parse_layout, magnets,
                    "faces[2].magnets[1]", "magnet must be an object"),
        "positions": (rio.parse_positions, {"positions": [[0.5, 0.5], {"u": 1}]},
                      "positions[1]", "position must be a list"),
        "designs": (rio.parse_designs, {"designs": [design, None]},
                    "designs[1]", "design must be an object"),
        "trials": (rio.parse_designs, {"designs": [dict(design, trials=["T0", 5])]},
                   "designs[0].trials[1]", "trial id must be a string"),
    }


class TestListItems:
    @pytest.mark.parametrize("field", sorted(_wrong_typed_items()))
    def test_wrong_typed_item_located(self, field):
        parse, doc, location, message = _wrong_typed_items()[field]
        with pytest.raises(ParseError) as info:
            parse(doc)
        assert (info.value.location, info.value.message) == (location, message)

    def test_single_design_located_at_designs_0(self):
        with pytest.raises(ParseError) as info:
            rio.parse_designs(dict(TestDesignFiles.DESIGN, contact="blob"))
        assert info.value.location == "designs[0].contact"


def _error_paths():
    """case -> (parser, document, location, message) of one malformed
    input per parser error path not covered elsewhere."""
    cell = {"pos": [0, 0, 0], "kind": "passive"}
    layout = rio.layout_to_dict(default_cell_layout())
    layout["faces"][1]["dir"] = 2
    header = "trial_id,t,x,y\n"
    return {
        "missing_field": (rio.parse_structure, {"cells": [cell, {"kind": "passive"}]},
                          "cells[1]", "missing field 'pos'"),
        "wrong_field_type": (rio.parse_structure, {"cells": [dict(cell, kind=5)]},
                             "cells[0]", "field 'kind' has wrong type"),
        "not_an_object": (rio.parse_structure, [cell], None,
                          "structure document must be a JSON object"),
        "no_cells": (rio.parse_structure, {"cells": []}, None, "structure has no cells"),
        "faces_out_of_order": (rio.parse_layout, layout, "faces[1].dir",
                               "faces must be listed in direction order; expected dir 1"),
        "column_count": (rio.parse_trajectories, header + "A,0,0,0\nA,1,1\n",
                         "line 3", "expected 4 columns, got 3"),
        "empty_trial_id": (rio.parse_trajectories, header + " ,0,0,0\n",
                           "line 2", "empty trial_id"),
        "no_data_rows": (rio.parse_trajectories, header, None, "no data rows"),
        # blank rows, empty or all spaces, are skipped: never a column count
        "blank_rows_only": (rio.parse_trajectories, header + "\n , ,\n", None,
                            "no data rows"),
        "blank_rows_skipped": (rio.parse_trajectories, header + "\n , ,\nA,0\n",
                               "line 4", "expected 4 columns, got 2"),
        "no_designs": (rio.parse_designs, {"designs": []}, None, "no designs given"),
    }


class TestErrorPaths:
    @pytest.mark.parametrize("case", sorted(_error_paths()))
    def test_message_and_location(self, case):
        parse, document, location, message = _error_paths()[case]
        with pytest.raises(ParseError) as info:
            parse(document)
        assert (info.value.location, info.value.message) == (location, message)


class TestFileDoors:
    """Every loader reads through one door and every writer writes through one."""

    @pytest.mark.parametrize("loader", sorted(_malformed_files()))
    def test_undecodable_file_is_parse_error_naming_it(self, tmp_path, loader):
        path = tmp_path / "bad"
        path.write_bytes(b"\xff")
        with pytest.raises(ParseError, match="can't decode byte 0xff") as info:
            getattr(rio, loader)(path)
        assert info.value.source == str(path)

    @pytest.mark.parametrize("loader", sorted(_malformed_files()))
    def test_malformed_file_located_and_named(self, tmp_path, loader):
        text, location, message = _malformed_files()[loader]
        path = tmp_path / "doc"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            getattr(rio, loader)(path)
        err = info.value
        assert (err.source, err.location, err.message) == (str(path), location, message)
        assert str(err) == f"{path}: {location}: {message}"

    def test_byte_order_mark_dropped_from_csv(self, files, capsys):
        # Excel's "CSV UTF-8" and Notepad start the file with a BOM, which
        # is no part of the header's first name
        tmp = files["tmp"]
        rows = "trial_id,t,x,y\r\nA,0,0,0\r\nA,30,50,0\r\nA,60,10,0\r\n"
        (tmp / "t.csv").write_bytes(b"\xef\xbb\xbf" + rows.encode("utf-8"))
        (tmp / "d.json").write_text(json.dumps(TestDesignFiles.DESIGN), encoding="utf-8")
        args = ["analyze", "--csv", str(tmp / "t.csv"), "--design", str(tmp / "d.json")]
        assert cli_main(args + ["--json"]) == 0
        (design,) = json.loads(capsys.readouterr().out)["designs"]
        assert (design["name"], design["trials"], design["mean_distance_cm"]) == (
            "Design A", 1, 90.0
        )

    def test_byte_order_mark_dropped_from_json(self, files, capsys):
        path = files["tmp"] / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + Path(files["line"]).read_bytes())
        assert cli_main(["validate", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["connected"] is True
        assert rio.load_structure(path) == rio.load_structure(files["line"])

    def test_every_writer_writes_lf_utf8(self, files):
        tmp = files["tmp"]
        doc = rio.load_structure(files["line"])
        plan_doc = rio.PlanDoc(doc, ())
        layout = default_cell_layout()
        rio.save_structure(doc, tmp / "s.json")
        rio.save_plan(plan_doc, tmp / "p.json")
        rio.save_layout(layout, tmp / "l.json")
        assert cli_main(["export", "--structure", files["line"], "--obj", str(tmp / "m.obj")]) == 0
        expected = {
            "s.json": rio.dumps_structure(doc),
            "p.json": rio.dumps_plan(plan_doc),
            "l.json": rio.dumps_layout(layout),
            "m.obj": rio.export_obj(structure_mesh(doc.config)),
        }
        for name, text in expected.items():
            data = (tmp / name).read_bytes()
            assert b"\r" not in data and data.decode("utf-8") == text, name


class TestTrajectoryFiles:
    def test_field_over_the_csv_limit_located(self):
        text = "trial_id,t,x,y\na,0,0," + "1" * 200000
        with pytest.raises(ParseError, match="field larger than field limit") as info:
            rio.parse_trajectories(text)
        assert info.value.location == "line 2"

    def test_basic_and_heading(self):
        text = "trial_id,t,x,y\nA,0,0,0\nA,1,3,4\nB,0,1,1\nB,2,2,2\n"
        trs = rio.parse_trajectories(text)
        assert [t.trial_id for t in trs] == ["A", "B"]
        assert trs[0].xy.shape == (2, 2)
        text_h = "trial_id,t,x,y,heading\nA,0,0,0,0.0\nA,1,3,4,1.5\n"
        trs = rio.parse_trajectories(text_h)
        assert trs[0].heading is not None

    def test_crlf_accepted(self):
        text = "trial_id,t,x,y\r\nA,0,0,0\r\nA,1,1,1\r\n"
        assert len(rio.parse_trajectories(text)) == 1

    def test_non_increasing_time_rejected(self):
        text = "trial_id,t,x,y\nA,1,0,0\nA,1,1,1\n"
        with pytest.raises(ParseError, match="increasing"):
            rio.parse_trajectories(text)

    def test_bad_number_located(self):
        text = "trial_id,t,x,y\nA,0,0,0\nA,oops,1,1\n"
        with pytest.raises(ParseError, match="line 3"):
            rio.parse_trajectories(text)

    def test_location_counts_physical_lines(self):
        # a quoted trial_id spans lines 2 and 3, so the bad row is line 4
        text = 'trial_id,t,x,y\n"A\nB",0,0,0\nA,oops,1,1\n'
        with pytest.raises(ParseError) as info:
            rio.parse_trajectories(text)
        assert info.value.location == "line 4"

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            rio.parse_trajectories("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize(
        "text",
        [
            "trial_id,t,x,y\nA,0,0,0\nA,1,nan,1\n",
            "trial_id,t,x,y\nA,0,0,0\nA,inf,1,1\n",
            "trial_id,t,x,y\nA,0,0,0\nA,1,1,-Infinity\n",
            "trial_id,t,x,y,heading\nA,0,0,0,0\nA,1,1,1,nan\n",
        ],
    )
    def test_non_finite_values_rejected(self, text):
        # the field's value rule names it, and the row's line is kept
        with pytest.raises(ParseError, match="must be a finite number, got ") as info:
            rio.parse_trajectories(text)
        assert info.value.location == "line 3"

    def test_empty(self):
        with pytest.raises(ParseError):
            rio.parse_trajectories("")


class TestObjExport:
    def test_single_cell_counts(self):
        text = rio.export_obj(canonical_cell_mesh())
        lines = text.splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 14
        assert sum(1 for l in lines if l.startswith("f ")) == 12

    def test_scale_doubles_coordinates(self):
        m = canonical_cell_mesh()
        t1 = rio.export_obj(m, 1.0)
        t2 = rio.export_obj(m, 2.0)
        v1 = [float(x) for x in t1.splitlines()[0].split()[1:]]
        v2 = [float(x) for x in t2.splitlines()[0].split()[1:]]
        assert v2 == [2 * x for x in v1]

    def test_byte_deterministic(self):
        m = structure_mesh(Configuration.from_positions([(0, 0, 0), (1, 1, 0)]))
        assert rio.export_obj(m) == rio.export_obj(m)

    def test_empty_mesh_rejected(self):
        from rhombikit.geometry import Mesh

        with pytest.raises(ValidationError):
            rio.export_obj(Mesh(np.zeros((0, 3)), ()))

    # huge-int: beyond the float range, refused rather than an OverflowError
    @pytest.mark.parametrize(
        "scale", [math.nan, math.inf, -math.inf, 0.0, -1.0, pytest.param(10**400, id="huge-int")]
    )
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ValidationError, match="scale"):
            rio.export_obj(canonical_cell_mesh(), scale)



@pytest.fixture()
def files(tmp_path):
    line = {
        "cells": [
            {"pos": [0, 0, 0], "kind": "passive"},
            {"pos": [1, 1, 0], "kind": "active"},
            {"pos": [2, 2, 0], "kind": "passive"},
        ]
    }
    tri = {
        "cells": [
            {"pos": [0, 0, 0], "kind": "passive"},
            {"pos": [1, 1, 0], "kind": "passive"},
            {"pos": [1, 0, 1], "kind": "active"},
        ]
    }
    two = {
        "cells": [
            {"pos": [0, 0, 0], "kind": "passive"},
            {"pos": [1, 1, 0], "kind": "active"},
        ]
    }
    paths = {}
    for name, data in (("line", line), ("tri", tri), ("two", two)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(data), encoding="utf-8")
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    return paths


class TestCli:
    def test_validate_ok(self, files, capsys):
        assert cli_main(["validate", files["line"]]) == 0
        out = capsys.readouterr().out
        assert "connected: yes" in out

    def test_validate_duplicate_exit_1(self, files, capsys):
        p = files["tmp"] / "dup.json"
        p.write_text(
            json.dumps(
                {
                    "cells": [
                        {"pos": [0, 0, 0], "kind": "passive"},
                        {"pos": [0, 0, 0], "kind": "passive"},
                    ]
                }
            ),
            encoding="utf-8",
        )
        assert cli_main(["validate", str(p)]) == 1
        err = capsys.readouterr().err
        assert "duplicate" in err and "[0, 0, 0]" in err

    def test_validate_disconnected_exit_1(self, files, capsys):
        p = files["tmp"] / "disc.json"
        p.write_text(
            json.dumps(
                {
                    "cells": [
                        {"pos": [0, 0, 0], "kind": "passive"},
                        {"pos": [4, 4, 0], "kind": "passive"},
                    ]
                }
            ),
            encoding="utf-8",
        )
        assert cli_main(["validate", str(p)]) == 1

    def test_plan_roundtrip_through_replay(self, files, capsys):
        plan_path = str(files["tmp"] / "plan.json")
        code = cli_main(
            ["plan", "--from", files["line"], "--to", files["tri"],
             "--plan-out", plan_path]
        )
        assert code == 0
        assert cli_main(["replay", "--plan", plan_path]) == 0

    def test_plan_size_mismatch_exit_2(self, files):
        assert cli_main(["plan", "--from", files["two"], "--to", files["tri"]]) == 2

    def test_plan_kind_mismatch_exit_2(self, files, capsys):
        # six cells: a search would spend the whole budget and exit 3
        for name, actives in (("one", {0}), ("two", {0, 5})):
            cells = [
                {"pos": [k, k, 0], "kind": "active" if k in actives else "passive"}
                for k in range(6)
            ]
            (files["tmp"] / f"{name}.json").write_text(json.dumps({"cells": cells}))
        code = cli_main(
            ["plan", "--from", str(files["tmp"] / "one.json"),
             "--to", str(files["tmp"] / "two.json"),
             "--kind-sensitive", "--max-states", "100000", "--json"]
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["reason"] == "kind_mismatch"
        assert payload["states_expanded"] == 0
        assert (payload["generated"], payload["memo_size"]) == (0, 0)
        assert (payload["evaluations"], payload["memo_hits"]) == (0, 0)

    def test_plan_json_counters_follow_search_stats(self, files, capsys):
        # every SearchStats field but the wall time, read from the class
        assert cli_main(["plan", "--from", files["line"], "--to", files["tri"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        counters = {f.name for f in dataclasses.fields(SearchStats)} - {"wall_time"}
        assert set(payload) == counters | {"status", "reason", "moves"}

    def test_plan_json_reports_search_counters(self, files, capsys):
        code = cli_main(["plan", "--from", files["line"], "--to", files["tri"], "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # a fresh Planner meets in the middle, each expansion on either
        # side through its memo
        assert payload["memo_size"] == payload["states_expanded"]
        assert payload["memo_hits"] == 0
        assert payload["generated"] >= payload["frontier_peak"] > 0
        # no loop evaluates a bound
        assert payload["evaluations"] == 0

    @pytest.mark.parametrize("exact", [False, True])
    def test_plan_max_states_past_2_31(self, files, capsys, exact):
        # translation matching needs no drift margin from the budget;
        # exact-position search does, and says that max_states set it
        args = ["plan", "--from", files["line"], "--to", files["tri"],
                "--max-states", "3000000000"] + ["--exact-position"] * exact
        code = cli_main(args)
        captured = capsys.readouterr()
        if exact:
            assert code == 1
            assert "max_states" in captured.err
        else:
            assert code == 0
            assert "status: success" in captured.out

    def test_plan_budget_exit_3(self, files):
        assert (
            cli_main(
                ["plan", "--from", files["line"], "--to", files["tri"],
                 "--max-states", "1"]
            )
            == 3
        )

    def test_missing_file_exit_4(self, files):
        assert cli_main(["validate", str(files["tmp"] / "nope.json")]) == 4

    def test_unknown_flag_exit_1(self, files, capsys):
        assert cli_main(["validate", "--bogus", files["line"]]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_command_exit_1(self, capsys):
        assert cli_main([]) == 1

    def test_export_two_cells_22_faces(self, files):
        out = str(files["tmp"] / "two.obj")
        assert cli_main(["export", "--structure", files["two"], "--obj", out]) == 0
        text = Path(out).read_text(encoding="utf-8")
        assert sum(1 for l in text.splitlines() if l.startswith("f ")) == 22

    def test_export_byte_deterministic(self, files):
        a = str(files["tmp"] / "a.obj")
        b = str(files["tmp"] / "b.obj")
        cli_main(["export", "--structure", files["two"], "--obj", a])
        cli_main(["export", "--structure", files["two"], "--obj", b])
        assert Path(a).read_bytes() == Path(b).read_bytes()

    @pytest.mark.parametrize("scale", ["nan", "inf", "0"])
    def test_export_bad_scale_exit_1_writes_nothing(self, files, capsys, scale):
        out = files["tmp"] / "bad.obj"
        code = cli_main(
            ["export", "--structure", files["two"], "--obj", str(out), "--scale", scale]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "scale" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("rot", ["1,0,0,inf", "1,0,0,nan", "nan,0,0,90", "0,inf,0,90"])
    def test_contact_non_finite_rotation_exit_1(self, files, capsys, rot):
        code = cli_main(["contact", "--structure", files["two"], f"--rot={rot}"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "rotation" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_contact_json(self, files, capsys):
        code = cli_main(
            ["contact", "--structure", files["two"], "--rot", "1,-1,0,-90", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["contact"] == "face"

    def test_contact_huge_axis_is_its_direction(self, files, capsys):
        contacts = []
        for rot in ("1e308,1e308,0,90", "1,1,0,90"):
            assert cli_main(
                ["contact", "--structure", files["two"], f"--rot={rot}", "--json"]
            ) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            contacts.append(json.loads(captured.out)["contact"])
        assert contacts[0] == contacts[1]

    def test_dock_check_layout_modes(self, files, capsys):
        layout_path = str(files["tmp"] / "layout.json")
        rio.save_layout(default_cell_layout(), layout_path)
        assert cli_main(["dock-check", "--layout", layout_path]) == 0
        assert "genderless: yes" in capsys.readouterr().out
        assert cli_main(["dock-check", "--enumerate", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid_assignments"] == ["NSSN", "SNNS"]

    def test_dock_check_mixed_layout_counterexample(self, files, capsys):
        # NSSN on every face but face 5, which carries the inverse SNNS: the
        # first violation pins both the sweep direction and the sweep order
        def face(pols):
            return FaceLayout(
                tuple(
                    MagnetSpec(p, Polarity(c))
                    for p, c in zip(default_face_positions(), pols)
                )
            )

        faces = [face("NSSN")] * 12
        faces[5] = face("SNNS")
        layout_path = str(files["tmp"] / "mixed.json")
        rio.save_layout(CellLayout(tuple(faces)), layout_path)
        assert cli_main(["dock-check", "--layout", layout_path, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["genderless"] is False
        assert payload["counterexample"] == {
            "face_a": 0, "orient_a": 0, "face_b": 5, "orient_b": 10, "turn": 0
        }

    def test_dock_check_requires_mode(self, capsys):
        assert cli_main(["dock-check"]) == 1

    def test_planning_path_imports_no_scipy(self, tmp_path):
        # a fresh interpreter, since this one has scipy loaded by the tests;
        # it imports the same rhombikit as this process, from an uninstalled
        # checkout (PYTHONPATH=src) as well as from site-packages
        shapes = {
            "line": [(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0)],
            "bent": [(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 2, 1)],
        }
        for name, cells in shapes.items():
            doc = {"cells": [{"pos": list(p), "kind": "passive"} for p in cells]}
            (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        line, bent, plan_path, layout = (
            str(tmp_path / f)
            for f in ("line.json", "bent.json", "plan.json", "layout.json")
        )
        rio.save_layout(default_cell_layout(), layout)
        runs = [
            ["validate", line],
            ["plan", "--from", line, "--to", bent, "--plan-out", plan_path],
            ["replay", "--plan", plan_path],
            ["dock-check", "--enumerate"],
            ["dock-check", "--layout", layout],
        ]
        # numpy too stays unloaded: by the imports, and by the five
        # commands, the blocker-table sweep and the docking checks included
        code = (
            "import json, sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))\n"
            "from rhombikit import cli, geometry, io\n"
            "imported = loaded()\n"
            "codes = [cli.cli_main(a) for a in json.loads(sys.argv[1])]\n"
            "built = geometry.blocker_table.cache_info().currsize == 1\n"
            "print(json.dumps([codes, imported, loaded(), built]))\n"
        )
        out = _fresh_python(code, json.dumps(runs))
        codes, imported, loaded, table_built = json.loads(out.splitlines()[-1])
        assert codes == [0, 0, 0, 0, 0]
        assert table_built  # plan and replay ran the volume kernel
        assert imported == []
        assert loaded == []

    def test_each_module_loads_what_it_uses(self, files):
        # in a fresh interpreter: io loads the modules that own the types
        # a parser builds only when that parser runs, the planner needs
        # neither docking nor analytics, and the commands that do not
        # plan load neither the planner nor kinematics
        tmp = files["tmp"]
        rio.save_layout(default_cell_layout(), tmp / "layout.json")
        (tmp / "t.csv").write_text("trial_id,t,x,y\nA,0,0,0\nA,30,50,0\n", encoding="utf-8")
        (tmp / "d.json").write_text(json.dumps(TestDesignFiles.DESIGN), encoding="utf-8")
        line = files["line"]
        commands = [
            ["validate", line],
            ["dock-check", "--layout", str(tmp / "layout.json")],
            ["dock-check", "--enumerate"],
            ["export", "--structure", line, "--obj", str(tmp / "m.obj")],
            ["contact", "--structure", line, "--rot", "0,0,1,30"],
            ["analyze", "--csv", str(tmp / "t.csv"), "--design", str(tmp / "d.json")],
        ]

        def loaded(module, argv=None):
            code = (
                f"import json, sys\nfrom rhombikit import {module}\n"
                + ("assert cli.cli_main(json.loads(sys.argv[1])) == 0\n" if argv else "")
                + "print(json.dumps([m for m in sys.modules if m.startswith('rhombikit.')]))\n"
            )
            out = _fresh_python(code, json.dumps(argv))
            return {m.split(".")[1] for m in json.loads(out.splitlines()[-1])}

        assert loaded("io").isdisjoint({"analytics", "docking", "geometry", "kinematics"})
        assert loaded("planner").isdisjoint({"analytics", "docking"})
        for argv in commands:
            assert loaded("cli", argv).isdisjoint({"planner", "kinematics"}), argv

    def test_analyze_end_to_end(self, files, capsys):
        csv_path = files["tmp"] / "trials.csv"
        rows = ["trial_id,t,x,y"]
        for trial, (d, n) in enumerate(zip([111, 141], [8, 4])):
            rows.append(f"T{trial},0,0,0")
            rows.append(f"T{trial},30,{(d + n) / 2},0")
            rows.append(f"T{trial},60,{n},0")
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        design_path = files["tmp"] / "design.json"
        design_path.write_text(
            json.dumps(
                {
                    "designs": [
                        {
                            "name": "Design A",
                            "passive": 2,
                            "active": 1,
                            "body_length_cm": 9.5,
                            "body_weight_g": 77,
                            "contact": "point",
                            "trials": ["T0", "T1"],
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        assert (
            cli_main(["analyze", "--csv", str(csv_path), "--design", str(design_path)])
            == 0
        )
        out = capsys.readouterr().out
        assert "| Body weight (g) | 77 |" in out
        # out-and-back tracks of lengths 111 and 141: mean distance 126
        assert "| Avg. distance traveled (cm) | 126 +/- " in out

    def test_analyze_repeated_trial_exit_1(self, files, capsys):
        tmp = files["tmp"]
        (tmp / "t.csv").write_text(
            "trial_id,t,x,y\nT0,0,0,0\nT0,30,1,1\n", encoding="utf-8"
        )
        design = dict(TestDesignFiles.DESIGN, trials=["T0", "T0"])
        (tmp / "d.json").write_text(json.dumps(design), encoding="utf-8")
        argv = ["analyze", "--csv", str(tmp / "t.csv"), "--design", str(tmp / "d.json")]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {tmp / 'd.json'}: designs[0].trials[1]: "
            "duplicate trial id 'T0' (first at designs[0].trials[0])\n"
        )

    def test_json_outputs_parse(self, files, capsys):
        assert cli_main(["validate", files["line"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"cells": 3, "active": 1, "passive": 2, "connected": True}

    def test_help_exits_zero(self, capsys):
        assert cli_main(["-h"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_full_pipeline_plan_replay_validate_export(self, files, capsys):
        tmp = files["tmp"]
        plan_path = str(tmp / "p.json")
        final_path = str(tmp / "final.json")
        obj_path = str(tmp / "final.obj")
        assert (
            cli_main(
                ["plan", "--from", files["line"], "--to", files["tri"],
                 "--algorithm", "bfs", "--plan-out", plan_path]
            )
            == 0
        )
        assert cli_main(["replay", "--plan", plan_path, "--out", final_path]) == 0
        assert cli_main(["validate", final_path]) == 0
        assert cli_main(["export", "--structure", final_path, "--obj", obj_path,
                         "--scale", "2.5"]) == 0
        text = Path(obj_path).read_text(encoding="utf-8")
        # the triangle goal has 3 mutually adjacent cells: 12*3 - 2*3 faces
        assert sum(1 for l in text.splitlines() if l.startswith("f ")) == 30
        # kinds survive the pipeline: one active cell throughout
        final = rio.load_structure(final_path)
        active = [c for c in final.config.cells if c.kind.value == "active"]
        assert len(active) == 1

    def test_plan_flag_variants(self, files):
        for extra in (["--exact-position"], ["--kind-sensitive"], ["--strict"]):
            code = cli_main(
                ["plan", "--from", files["line"], "--to", files["tri"]] + extra
            )
            assert code in (0, 2)  # strict mode may legitimately find no path

    def test_dock_check_single_face_symmetry(self, files, capsys):
        import math

        pts = []
        for j in range(3):
            base = 2 * math.pi * j / 3
            for s in (1, -1):
                a = base + s * math.pi / 7
                pts.append([math.cos(a), math.sin(a)])
        pos_path = files["tmp"] / "tri_pos.json"
        pos_path.write_text(json.dumps({"positions": pts}), encoding="utf-8")
        code = cli_main(
            ["dock-check", "--enumerate", "--positions", str(pos_path),
             "--symmetry", "3", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["valid_assignments"]) > 0

    @pytest.mark.parametrize("k", [2, 3])
    def test_dock_check_near_coincident_positions_exit_1(self, files, capsys, k):
        pts = []
        for j in range(k):
            a = 2 * math.pi * j / k
            for r in (0.3, 0.3 + 1e-7):
                pts.append([r * math.cos(a), r * math.sin(a)])
        pos_path = files["tmp"] / "close_pos.json"
        pos_path.write_text(json.dumps({"positions": pts}), encoding="utf-8")
        code = cli_main(
            ["dock-check", "--enumerate", "--positions", str(pos_path),
             "--symmetry", str(k)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "closer than the pairing tolerance" in captured.err

    def test_dock_check_symmetry_beyond_the_tolerance_exit_1(self, capsys):
        # one click of k = 10**7 moves no default magnet out of EPS_MATCH
        code = cli_main(["dock-check", "--enumerate", "--symmetry", "10000000"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: magnet positions are not 10000000-fold symmetric\n"

    def test_analyze_non_utf8_csv_exit_1(self, files, capsys):
        csv_path = files["tmp"] / "t.csv"
        csv_path.write_bytes(b"trial_id,t,x,y\nA,0,0,0\nA,1,\xff,0\n")
        design_path = files["tmp"] / "d.json"
        design_path.write_text(json.dumps(TestDesignFiles.DESIGN), encoding="utf-8")
        code = cli_main(["analyze", "--csv", str(csv_path), "--design", str(design_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {csv_path}: invalid CSV: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_readme_cli_block_matches_parser(self):
        # every flag of every subcommand, as the README CLI block names it
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8"
        )
        block = text.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1]
        block = block.split("```", 1)[0].replace("\\\n", " ")
        documented: dict[str, set[str]] = {}
        for line in block.splitlines():
            words = line.split()
            if words[:1] == ["rhombikit"]:
                documented.setdefault(words[1], set()).update(
                    re.findall(r"--[a-z][a-z-]*", line)
                )
        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        parsed = {
            name: {o for a in p._actions for o in a.option_strings}
            - {"-h", "--help", "--json"}
            for name, p in sub.choices.items()
        }
        assert documented == parsed

    @pytest.mark.parametrize("theta", ["nan", "-inf", "-1"])
    def test_analyze_bad_theta_min_exit_1(self, files, capsys, theta):
        csv_path = files["tmp"] / "t.csv"
        csv_path.write_text(
            "trial_id,t,x,y\nA,0,0,0\nA,30,50,0\nA,60,10,0\n", encoding="utf-8"
        )
        design_path = files["tmp"] / "d.json"
        design_path.write_text(
            json.dumps(
                {"name": "Solo", "passive": 1, "active": 1, "body_length_cm": 7,
                 "body_weight_g": 50, "contact": "edge"}
            ),
            encoding="utf-8",
        )
        code = cli_main(
            ["analyze", "--csv", str(csv_path), "--design", str(design_path),
             f"--theta-min={theta}", "--json"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "theta_min" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_analyze_csv_format_and_json(self, files, capsys):
        csv_path = files["tmp"] / "t.csv"
        csv_path.write_text(
            "trial_id,t,x,y\nA,0,0,0\nA,30,50,0\nA,60,10,0\n", encoding="utf-8"
        )
        design_path = files["tmp"] / "d.json"
        design_path.write_text(
            json.dumps(
                {
                    "name": "Solo",
                    "passive": 1,
                    "active": 1,
                    "body_length_cm": 7,
                    "body_weight_g": 50,
                    "contact": "edge",
                }
            ),
            encoding="utf-8",
        )
        assert (
            cli_main(
                ["analyze", "--csv", str(csv_path), "--design", str(design_path),
                 "--format", "csv"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.startswith("metric,Solo")
        assert (
            cli_main(
                ["analyze", "--csv", str(csv_path), "--design", str(design_path),
                 "--json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["designs"][0]["mean_distance_cm"] == pytest.approx(90.0)

    @staticmethod
    def _json_runs(files):
        """subcommand -> argv of each --json run, with its input files."""
        tmp = files["tmp"]
        rio.save_layout(default_cell_layout(), tmp / "layout.json")
        (tmp / "t.csv").write_text(
            "trial_id,t,x,y\nA,0,0,0\nA,30,50,0\nA,60,10,0\n", encoding="utf-8"
        )
        (tmp / "d.json").write_text(json.dumps(TestDesignFiles.DESIGN), encoding="utf-8")
        plan_path = str(tmp / "plan.json")
        return {
            "validate": ["validate", files["line"]],
            "dock-check-layout": ["dock-check", "--layout", str(tmp / "layout.json")],
            "dock-check-enumerate": ["dock-check", "--enumerate"],
            "plan": ["plan", "--from", files["line"], "--to", files["tri"],
                     "--plan-out", plan_path],
            "replay": ["replay", "--plan", plan_path, "--out", str(tmp / "final.json")],
            "contact": ["contact", "--structure", files["two"], "--rot", "1,-1,0,-90"],
            "analyze": ["analyze", "--csv", str(tmp / "t.csv"),
                        "--design", str(tmp / "d.json")],
            "export": ["export", "--structure", files["line"],
                       "--obj", str(tmp / "m.obj")],
        }

    @pytest.mark.parametrize(
        "command",
        ["validate", "dock-check-layout", "dock-check-enumerate", "plan", "replay",
         "contact", "analyze", "export"],
    )
    def test_json_output_is_canonical(self, files, capsys, command):
        runs = self._json_runs(files)
        if command == "replay":
            assert cli_main(runs["plan"]) == 0
            capsys.readouterr()
        assert cli_main(runs[command] + ["--json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_analyze_text_prints_the_table(self, files, capsys, fmt):
        # the table goes out as it is: one final newline, and a design
        # name holding a line separator is not split
        tmp = files["tmp"]
        (tmp / "t.csv").write_text(
            "trial_id,t,x,y\nA,0,0,0\nA,30,50,0\nA,60,10,0\n", encoding="utf-8"
        )
        name = "Line\u2028Sep"
        design = dict(TestDesignFiles.DESIGN, name=name)
        (tmp / "d.json").write_text(json.dumps(design), encoding="utf-8")
        argv = ["analyze", "--csv", str(tmp / "t.csv"), "--design", str(tmp / "d.json"),
                "--format", fmt]
        assert cli_main(argv) == 0
        (trajectory,) = rio.load_trajectories(tmp / "t.csv")
        (spec,) = rio.load_designs(tmp / "d.json")
        summary = rhombikit.analytics.summarize(
            [rhombikit.analytics.trial_stats(trajectory)], spec.meta
        )
        table = rhombikit.analytics.report_table(
            [summary], "markdown" if fmt == "md" else "csv"
        )
        assert capsys.readouterr().out == table
        assert name in table
