"""File formats: structures, plans, magnet layouts, trajectories, OBJ.

JSON documents carry a format_version field. Every JSON text, saved or
printed by the CLI, is _json's: sorted keys, two-space indentation and
a final newline, so identical inputs serialize to identical bytes.
Every JSON list a parser reads is walked by _items, which locates the
item at index i as <list>[i] and refuses an item of the wrong JSON type
there; _once refuses a repeated cell position or trial id at the
repeat, naming where it first came. Every file passes one door each
way. Every loader reads through _read: a file that is not UTF-8, not
valid JSON or CSV, or malformed in any field raises ParseError naming
the file (.source) and the offending field or line (.location), never a
bare traceback. The parse_* functions take the decoded document and
only locate errors; the rule itself belongs to the type that owns it.
Every saver, and the CLI's OBJ export, writes through _write: UTF-8
with LF line ends, so the bytes are the same on every platform.

Importing this module loads only lattice and errors: each parser
imports the module that owns the types it builds (analytics, docking,
geometry, kinematics) when it first runs, so a process that reads only
structures never loads them.
"""

from __future__ import annotations

import csv
import io as _io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ParseError, ValidationError
from .lattice import (
    FACE_DIR_INDEX,
    FACE_DIRS,
    Cell,
    CellKind,
    Configuration,
    _as_real,
    _check_dir,
    _echo,
    check_pos,
)

if TYPE_CHECKING:
    from .analytics import DesignMeta, Trajectory
    from .docking import CellLayout
    from .geometry import Mesh
    from .kinematics import PivotMove

FORMAT_VERSION = 1

_KINDS = {k.value: k for k in CellKind}


@dataclass(frozen=True)
class StructureDoc:
    """A structure file's payload: the cells plus an optional physical
    scale (centimeters per canonical unit), a positive finite number."""

    config: Configuration
    scale_cm_per_unit: float | None = None

    def __post_init__(self) -> None:
        scale = self.scale_cm_per_unit
        if scale is not None:
            value = _as_real(scale, "scale_cm_per_unit")
            if value <= 0:
                raise ValidationError(
                    f"scale_cm_per_unit must be positive, got {_echo(scale)}"
                )
            object.__setattr__(self, "scale_cm_per_unit", value)


def _read(path: str | Path, parse, kind: str = "JSON"):
    """parse(document) of the UTF-8 file at path, the document being the
    decoded JSON value, or the text itself for a CSV file. A leading
    byte-order mark, which Excel and Notepad write, is dropped; the
    writers write none. The one reader of every loader: a file that does
    not decode, and every ParseError the parser raises, comes out as a
    ParseError naming the file."""
    try:
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
            document = json.loads(text) if kind == "JSON" else text
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"invalid JSON: {exc.msg}", location=f"line {exc.lineno} column {exc.colno}"
            ) from exc
        except (ValueError, RecursionError) as exc:  # not UTF-8, huge int literal, deep nesting
            raise ParseError(f"invalid {kind}: {exc}") from exc
        return parse(document)
    except ParseError as exc:
        raise ParseError(exc.message, str(path), exc.location) from exc


def _write(path: str | Path, text: str) -> None:
    """The one writer of every output file: UTF-8 with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _owned(where, make, *args, **kwargs):
    """make(*args, **kwargs), with the ValidationError of the type or
    function that owns the rule reported as a ParseError at where."""
    try:
        return make(*args, **kwargs)
    except ValidationError as exc:
        raise ParseError(str(exc), location=where) from exc


def _field(obj: dict, key: str, types, where: str, required=True, default=None):
    if key not in obj:
        if required:
            raise ParseError(f"missing field {key!r}", location=where)
        return default
    val = obj[key]
    if not isinstance(val, types):
        raise ParseError(f"field {key!r} has wrong type", location=where)
    if isinstance(val, (int, float)):
        _owned(where, _as_real, val, f"field {key!r}")
    return val


def _document(data: object, what: str) -> dict:
    """data, checked to be a JSON object whose format_version, optional,
    is the int 1 when present (not true, not 1.0)."""
    if not isinstance(data, dict):
        raise ParseError(f"{what} document must be a JSON object")
    v = data.get("format_version", FORMAT_VERSION)
    if type(v) is not int or v != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {_echo(v)}")
    return data


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}


def _items(values: list, where: str, what: str, kind=dict):
    """(location, item) for each item of a JSON list, the location
    where[i]; an item that is not of the JSON type kind (an object, a
    list or a string) raises ParseError "<what> must be ..." at its
    location."""
    for i, item in enumerate(values):
        location = f"{where}[{i}]"
        if not isinstance(item, kind):
            raise ParseError(f"{what} must be {_JSON_TYPES[kind]}", location=location)
        yield location, item


def _once(first: dict, key, what: str, where: str, location: str | None = None):
    """Record in first where key is first met. A key met again raises
    ParseError "duplicate <what> <key> (first at <where it was first
    met>)" at location, by default where, the key printed as JSON writes
    it (a position as a list)."""
    if key in first:
        shown = _echo(list(key) if isinstance(key, tuple) else key)
        raise ParseError(
            f"duplicate {what} {shown} (first at {first[key]})", location=location or where
        )
    first[key] = where


def _json(obj) -> str:
    """The one JSON text: sorted keys, two-space indent, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _checked(obj: dict, key: str, types, rule, where: str):
    """rule(obj[key]) for a field of the given JSON types; the rule's
    owner reports its ValidationError as a ParseError at where.key."""
    return _owned(f"{where}.{key}", rule, _field(obj, key, types, where))


# --------------------------------------------------------------------------
# structures
# --------------------------------------------------------------------------


def parse_structure(data: object) -> StructureDoc:
    data = _document(data, "structure")
    scale = _field(data, "scale_cm_per_unit", (int, float), "", required=False)
    raw_cells = _field(data, "cells", list, "")
    cells = []
    seen: dict[tuple[int, int, int], str] = {}  # position -> first location
    for where, rc in _items(raw_cells, "cells", "cell"):
        pos = _checked(rc, "pos", list, check_pos, where)
        _once(seen, pos, "position", where, f"{where}.pos")
        kind_raw = _field(rc, "kind", str, where)
        if kind_raw not in _KINDS:
            raise ParseError(
                f"kind must be one of {sorted(_KINDS)}", location=f"{where}.kind"
            )
        orient = _field(rc, "orient", int, where, required=False, default=0)
        cells.append(_owned(f"{where}.orient", Cell, pos, _KINDS[kind_raw], orient))
    if not cells:
        raise ParseError("structure has no cells")
    return _owned(None, StructureDoc, Configuration(cells), scale)


def structure_to_dict(doc: StructureDoc) -> dict:
    out: dict = {
        "format_version": FORMAT_VERSION,
        "cells": [
            {"pos": list(c.pos), "kind": c.kind.value, "orient": c.orient}
            for c in doc.config.cells
        ],
    }
    if doc.scale_cm_per_unit is not None:
        out["scale_cm_per_unit"] = doc.scale_cm_per_unit
    return out


def dumps_structure(doc: StructureDoc) -> str:
    return _json(structure_to_dict(doc))


def load_structure(path: str | Path) -> StructureDoc:
    return _read(path, parse_structure)


def save_structure(doc: StructureDoc, path: str | Path) -> None:
    _write(path, dumps_structure(doc))


# --------------------------------------------------------------------------
# plans
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanDoc:
    start: StructureDoc
    moves: tuple[PivotMove, ...]


def parse_plan(data: object) -> PlanDoc:
    from .kinematics import PivotMove

    data = _document(data, "plan")
    start = parse_structure(_field(data, "start", dict, ""))
    raw_moves = _field(data, "moves", list, "")
    moves = []
    for where, rm in _items(raw_moves, "moves", "move"):
        mover, substrate = (
            _checked(rm, k, list, check_pos, where) for k in ("mover", "substrate")
        )
        fi, ti = (_checked(rm, k, int, _check_dir, where) for k in ("from", "to"))
        moves.append(
            _owned(where, PivotMove, mover, substrate, FACE_DIRS[fi], FACE_DIRS[ti])
        )
    return PlanDoc(start, tuple(moves))


def plan_to_dict(doc: PlanDoc) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "start": structure_to_dict(doc.start),
        "moves": [
            {
                "mover": list(m.mover),
                "substrate": list(m.substrate),
                "from": FACE_DIR_INDEX[m.from_dir],
                "to": FACE_DIR_INDEX[m.to_dir],
            }
            for m in doc.moves
        ],
    }


def dumps_plan(doc: PlanDoc) -> str:
    return _json(plan_to_dict(doc))


def load_plan(path: str | Path) -> PlanDoc:
    return _read(path, parse_plan)


def save_plan(doc: PlanDoc, path: str | Path) -> None:
    _write(path, dumps_plan(doc))


# --------------------------------------------------------------------------
# magnet layouts
# --------------------------------------------------------------------------


def parse_layout(data: object) -> CellLayout:
    from .docking import CellLayout, FaceLayout, MagnetSpec, Polarity

    polarities = {p.value: p for p in Polarity}
    data = _document(data, "layout")
    raw_faces = _field(data, "faces", list, "")
    faces = []
    for i, (where, rf) in enumerate(_items(raw_faces, "faces", "face")):
        d = _field(rf, "dir", int, where)
        if d != i:
            raise ParseError(
                f"faces must be listed in direction order; expected dir {i}",
                location=f"{where}.dir",
            )
        symmetry = _field(rf, "symmetry", int, where, required=False, default=2)
        magnets = []
        raw_magnets = _field(rf, "magnets", list, where)
        for mwhere, rmag in _items(raw_magnets, f"{where}.magnets", "magnet"):
            pos = _field(rmag, "pos", list, mwhere)
            pol = _field(rmag, "polarity", str, mwhere)
            if pol not in polarities:
                raise ParseError(
                    "polarity must be 'N' or 'S'", location=f"{mwhere}.polarity"
                )
            magnets.append(
                _owned(f"{mwhere}.pos", MagnetSpec, tuple(pos), polarities[pol])
            )
        faces.append(_owned(where, FaceLayout, tuple(magnets), symmetry))
    return _owned(None, CellLayout, tuple(faces))


def layout_to_dict(layout: CellLayout) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "faces": [
            {
                "dir": i,
                "symmetry": f.symmetry,
                "magnets": [
                    {"pos": list(m.pos), "polarity": m.polarity.value}
                    for m in f.magnets
                ],
            }
            for i, f in enumerate(layout.faces)
        ],
    }


def dumps_layout(layout: CellLayout) -> str:
    return _json(layout_to_dict(layout))


def load_layout(path: str | Path) -> CellLayout:
    return _read(path, parse_layout)


def save_layout(layout: CellLayout, path: str | Path) -> None:
    _write(path, dumps_layout(layout))


def parse_positions(data: object) -> list[tuple[float, float]]:
    """2D magnet positions for the layout search: {"positions": [[u, v], ...]},
    each by MagnetSpec's position rule."""
    from .docking import MagnetSpec, Polarity

    data = _document(data, "positions")
    raw_positions = _field(data, "positions", list, "")
    return [
        _owned(where, MagnetSpec, tuple(rp), Polarity.N).pos
        for where, rp in _items(raw_positions, "positions", "position", list)
    ]


def load_positions(path: str | Path) -> list[tuple[float, float]]:
    return _read(path, parse_positions)


# --------------------------------------------------------------------------
# trajectories (CSV)
# --------------------------------------------------------------------------


def _records(reader):
    """The CSV reader's records, one at a time; a csv.Error (a field over
    csv.field_size_limit()) becomes a ParseError at the reader's line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"invalid CSV: {exc}", location=f"line {reader.line_num}") from exc


def parse_trajectories(text: str) -> list[Trajectory]:
    """Parse `trial_id,t,x,y[,heading]` CSV into per-trial trajectories.

    Trials appear in order of first occurrence; timestamps must increase
    strictly within each trial.
    """
    from .analytics import Trajectory

    reader = csv.reader(_io.StringIO(text))
    records = _records(reader)
    header = next(records, None)
    if header is None:
        raise ParseError("empty trajectory file")
    header = [h.strip() for h in header]
    if header not in (["trial_id", "t", "x", "y"], ["trial_id", "t", "x", "y", "heading"]):
        raise ParseError("header must be trial_id,t,x,y[,heading]", location="line 1")
    has_heading = len(header) == 5

    rows: dict[str, list[tuple[float, float, float, float | None]]] = {}
    for row in records:
        lineno = reader.line_num  # the row's last physical line
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} columns, got {len(row)}", location=f"line {lineno}"
            )
        trial = row[0].strip()
        if not trial:
            raise ParseError("empty trial_id", location=f"line {lineno}")
        try:
            values = [_as_real(float(v), name) for name, v in zip(header[1:], row[1:])]
        except (ValueError, ValidationError) as exc:
            raise ParseError(f"bad numeric value: {exc}", location=f"line {lineno}") from exc
        rows.setdefault(trial, []).append((*values[:3], values[3] if has_heading else None))

    if not rows:
        raise ParseError("no data rows")
    return [
        _owned(
            None,
            Trajectory,
            trial,
            [r[0] for r in data],
            [r[1:3] for r in data],
            [r[3] for r in data] if has_heading else None,
        )
        for trial, data in rows.items()
    ]


def load_trajectories(path: str | Path) -> list[Trajectory]:
    return _read(path, parse_trajectories, "CSV")


# --------------------------------------------------------------------------
# design metadata
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignSpec:
    meta: DesignMeta
    trial_ids: tuple[str, ...] | None  # None: all trials in the file


def parse_designs(data: object) -> list[DesignSpec]:
    from .analytics import DesignMeta
    from .geometry import ContactType

    contacts = {c.value: c for c in ContactType}
    data = _document(data, "design")
    if "designs" in data:
        raw_list = _field(data, "designs", list, "")
    else:
        raw_list = [data]
    out = []
    for where, rd in _items(raw_list, "designs", "design"):
        contact_raw = _field(rd, "contact", str, where).lower()
        if contact_raw not in contacts:
            raise ParseError(
                f"contact must be one of {sorted(contacts)}", location=f"{where}.contact"
            )
        meta = _owned(
            where,
            DesignMeta,
            name=_field(rd, "name", str, where),
            passive=_field(rd, "passive", int, where),
            active=_field(rd, "active", int, where),
            body_length_cm=_field(rd, "body_length_cm", (int, float), where),
            body_weight_g=_field(rd, "body_weight_g", (int, float), where),
            contact=contacts[contact_raw],
        )
        trials = _field(rd, "trials", list, where, required=False)
        if trials is not None:
            first: dict[str, str] = {}  # trial id -> first location
            for twhere, t in _items(trials, f"{where}.trials", "trial id", str):
                _once(first, t, "trial id", twhere)
            trials = tuple(trials)
        out.append(DesignSpec(meta, trials))
    if not out:
        raise ParseError("no designs given")
    return out


def load_designs(path: str | Path) -> list[DesignSpec]:
    return _read(path, parse_designs)


# --------------------------------------------------------------------------
# OBJ export
# --------------------------------------------------------------------------


def export_obj(m: Mesh, scale: float = 1.0) -> str:
    """Wavefront OBJ text: fixed 6-decimal vertices, 1-based CCW faces."""
    if len(m.vertices) == 0 or len(m.faces) == 0:
        raise ValidationError("mesh is empty")
    if _as_real(scale, "scale") <= 0:
        raise ValidationError(f"scale must be finite and positive, got {_echo(scale)}")
    lines = []
    for v in m.vertices:
        lines.append(f"v {v[0] * scale:.6f} {v[1] * scale:.6f} {v[2] * scale:.6f}")
    for face in m.faces:
        lines.append("f " + " ".join(str(i + 1) for i in face))
    return "\n".join(lines) + "\n"
