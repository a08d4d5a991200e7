"""Command-line interface.

Subcommands: validate, dock-check, plan, replay, contact, analyze,
export. Exit codes: 0 success, 1 validation failure, 2 no plan exists,
3 search budget exhausted, 4 I/O error. Every command prints
deterministic output; pass --json for machine-readable results.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from . import io as rio

# docking and analytics stay imported at module level, although only
# dock-check and analyze use them: perfbench's tracer patches their
# functions under this module's names after their home modules, checking
# each name against the original first, so a name resolved on first use
# (PEP 562) would already be its wrapper. The planner, patched only at
# home, is imported by plan and replay alone.
from .analytics import RotationDirection, report_table, summarize, trial_stats
from .docking import (
    default_face_positions,
    enumerate_valid_layouts,
    validate_genderless,
)
from .errors import RhombikitError, ValidationError
from .geometry import (
    classify_ground_contact,
    rotation_from_axis_angle,
    structure_mesh,
)
from .lattice import CellKind, _echo, is_connected

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NO_PATH = 2
EXIT_BUDGET = 3
EXIT_IO = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 with usage instead of argparse's exit 2
        raise _UsageError(f"{message}\n{self.format_usage()}".rstrip())


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(rio._json(payload), end="")
    else:
        for line in text_lines:
            print(line)


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    doc = rio.load_structure(args.structure)
    cfg = doc.config
    connected = is_connected(cfg)
    active = sum(1 for c in cfg.cells if c.kind is CellKind.ACTIVE)
    payload = {
        "cells": len(cfg),
        "active": active,
        "passive": len(cfg) - active,
        "connected": connected,
    }
    _emit(
        args,
        payload,
        [
            f"cells: {len(cfg)} ({active} active, {len(cfg) - active} passive)",
            f"connected: {'yes' if connected else 'no'}",
        ],
    )
    if not connected:
        if not args.json:
            print("validation failed: structure is not connected", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_dock_check(args) -> int:
    if args.enumerate:
        positions = (
            rio.load_positions(args.positions)
            if args.positions
            else list(default_face_positions())
        )
        valid = [
            "".join(p.value for p in v)
            for v in enumerate_valid_layouts(positions, k=args.symmetry)
        ]
        payload = {
            "positions": [list(p) for p in positions],
            "symmetry": args.symmetry,
            "valid_assignments": valid,
        }
        _emit(
            args,
            payload,
            [f"valid assignments: {len(valid)}"] + ["  " + v for v in valid],
        )
        return EXIT_OK
    if not args.layout:
        raise _UsageError("dock-check needs --layout FILE or --enumerate")
    layout = rio.load_layout(args.layout)
    ok, counterexample = validate_genderless(layout)
    payload = {"genderless": ok}
    lines = [f"genderless: {'yes' if ok else 'no'}"]
    if counterexample is not None:
        payload["counterexample"] = dataclasses.asdict(counterexample)
        lines.append(
            "counterexample: face {face_a} (orient {orient_a}) against face {face_b} "
            "(orient {orient_b})".format(**payload["counterexample"])
        )
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_VALIDATION


def _cmd_plan(args) -> int:
    from .planner import Algorithm, Planner, PlannerOptions, PlanStatus, SearchStats

    start_doc = rio.load_structure(getattr(args, "from"))
    goal_doc = rio.load_structure(args.to)
    opts = PlannerOptions(
        max_states=args.max_states,
        algorithm=Algorithm(args.algorithm),
        match_up_to_translation=not args.exact_position,
        strict_stability=args.strict,
        kind_sensitive=args.kind_sensitive,
    )
    result = Planner(opts).plan(start_doc.config, goal_doc.config)
    payload = {"status": result.status.value, "reason": result.reason}
    payload.update(  # every search counter; the wall time is not deterministic
        (f.name, getattr(result.stats, f.name))
        for f in dataclasses.fields(SearchStats)
        if f.name != "wall_time"
    )
    lines = [f"status: {result.status.value}"]
    if result.reason:
        lines.append(f"reason: {result.reason}")
    if result.ok:
        payload["moves"] = len(result.plan.moves)
        lines.append(f"moves: {len(result.plan.moves)}")
        if args.plan_out:
            rio.save_plan(
                rio.PlanDoc(start_doc, result.plan.moves), args.plan_out
            )
            lines.append(f"plan written to {args.plan_out}")
    lines.append(f"states expanded: {result.stats.states_expanded}")
    _emit(args, payload, lines)
    if result.status is PlanStatus.NO_PATH:
        return EXIT_NO_PATH
    if result.status is PlanStatus.BUDGET_EXHAUSTED:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_replay(args) -> int:
    from .planner import Plan, SearchStats, replay as replay_plan

    doc = rio.load_plan(args.plan)
    plan = Plan(doc.moves, SearchStats(0, 0, 0.0), goal=None)
    final = rio.StructureDoc(
        replay_plan(doc.start.config, plan), doc.start.scale_cm_per_unit
    )
    payload = {"moves": len(doc.moves), "final": rio.structure_to_dict(final)}
    lines = [
        f"replayed {len(doc.moves)} moves",
        "final positions: "
        + " ".join(str(list(c.pos)) for c in final.config.cells),
    ]
    if args.out:
        rio.save_structure(final, args.out)
        lines.append(f"final structure written to {args.out}")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_contact(args) -> int:
    doc = rio.load_structure(args.structure)
    parts = args.rot.split(",")
    if len(parts) != 4:
        raise _UsageError("--rot expects 'ax,ay,az,deg'")
    try:
        ax, ay, az, deg = (float(p) for p in parts)
    except ValueError:
        raise _UsageError("--rot expects numeric 'ax,ay,az,deg'") from None
    rot = rotation_from_axis_angle((ax, ay, az), deg)
    res = classify_ground_contact(doc.config, rot)
    payload = {
        "contact": res.contact_type.value,
        "support_points": [[round(v, 9) for v in p] for p in res.support_points],
        "touching_cells": {
            str(list(pos)): t.value for pos, t in sorted(res.per_cell.items())
        },
    }
    lines = [f"contact: {res.contact_type.value}"]
    lines += [
        "support: " + " ".join(f"({p[0]:.6f}, {p[1]:.6f}, {p[2]:.6f})" for p in res.support_points)
    ]
    lines += [
        f"cell {list(pos)}: {t.value}" for pos, t in sorted(res.per_cell.items())
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    trajectories = rio.load_trajectories(args.csv)
    designs = rio.load_designs(args.design)
    by_id = {tr.trial_id: tr for tr in trajectories}
    summaries = []
    rotations = []  # per design: trials per rotation direction
    for spec in designs:
        if spec.trial_ids is None:
            trs = trajectories
        else:
            missing = [t for t in spec.trial_ids if t not in by_id]
            if missing:
                raise ValidationError(
                    f"design {_echo(spec.meta.name)}: "
                    f"unknown trial ids {_echo(missing)}"
                )
            trs = [by_id[t] for t in spec.trial_ids]
        stats = [trial_stats(tr, theta_min=args.theta_min) for tr in trs]
        summaries.append(summarize(stats, spec.meta))
        rotations.append(
            {d.value: sum(1 for s in stats if s.rotation is d) for d in RotationDirection}
        )
    table = report_table(summaries, "markdown" if args.format == "md" else "csv")
    payload = {
        "table": table,
        "designs": [
            {
                "name": s.meta.name,
                "trials": s.trial_count,
                "mean_distance_cm": s.mean_distance,
                "sd_distance_cm": s.sd_distance,
                "mean_net_displacement_cm": s.mean_net_displacement,
                "sd_net_displacement_cm": s.sd_net_displacement,
                "rotation": rotation,
            }
            for s, rotation in zip(summaries, rotations)
        ],
    }
    # the table as one line: splitting it would break a design name that
    # holds a line separator such as U+2028
    _emit(args, payload, [table.removesuffix("\n")])
    return EXIT_OK


def _cmd_export(args) -> int:
    doc = rio.load_structure(args.structure)
    scale = args.scale if args.scale is not None else (doc.scale_cm_per_unit or 1.0)
    mesh = structure_mesh(doc.config)
    rio._write(args.obj, rio.export_obj(mesh, scale))
    _emit(
        args,
        {
            "vertices": len(mesh.vertices),
            "faces": len(mesh.faces),
            "obj": args.obj,
            "scale_cm_per_unit": scale,
        },
        [
            f"wrote {args.obj}: {len(mesh.vertices)} vertices, "
            f"{len(mesh.faces)} faces (scale {scale} cm/unit)"
        ],
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="rhombikit", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("validate", _cmd_validate, "check a structure file")
    p.add_argument("structure")

    p = add("dock-check", _cmd_dock_check, "validate or search magnet layouts")
    p.add_argument("--layout", help="cell layout JSON to validate")
    p.add_argument("--enumerate", action="store_true", help="search assignments")
    p.add_argument("--positions", help="2D magnet positions JSON")
    p.add_argument("--symmetry", type=int, default=2, help="face symmetry order k")

    p = add("plan", _cmd_plan, "plan a reconfiguration")
    p.add_argument("--from", required=True, help="start structure JSON")
    p.add_argument("--to", required=True, help="goal structure JSON")
    p.add_argument(
        "--algorithm",
        choices=["bfs", "astar"],
        default="astar",
        help="astar grows layers from both ends (from the start only under "
        "--strict), bfs from the start only; both give minimal plans",
    )
    p.add_argument("--max-states", type=int, default=1_000_000)
    p.add_argument("--plan-out", help="write the plan JSON here")
    p.add_argument(
        "--exact-position",
        action="store_true",
        help="match the goal at exact coordinates instead of up to translation",
    )
    p.add_argument("--kind-sensitive", action="store_true")
    p.add_argument("--strict", action="store_true", help="strict stability checks")

    p = add("replay", _cmd_replay, "replay a plan file")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", help="write the final structure here")

    p = add("contact", _cmd_contact, "classify ground contact")
    p.add_argument("--structure", required=True)
    p.add_argument("--rot", required=True, help="world rotation 'ax,ay,az,deg'")

    p = add("analyze", _cmd_analyze, "trajectory analytics report")
    p.add_argument("--csv", required=True, help="trajectory CSV")
    p.add_argument("--design", required=True, help="design metadata JSON")
    p.add_argument("--format", choices=["md", "csv"], default="md")
    p.add_argument(
        "--theta-min",
        type=float,
        default=math.pi,
        help="rotation threshold in radians",
    )

    p = add("export", _cmd_export, "export a structure mesh as OBJ")
    p.add_argument("--structure", required=True)
    p.add_argument("--obj", required=True)
    p.add_argument("--scale", type=float, help="cm per canonical unit")

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse exits on -h/--help
            return int(exc.code or 0)
        if not getattr(args, "func", None):
            raise _UsageError(parser.format_usage().rstrip())
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except RhombikitError as exc:
        index = getattr(exc, "index", None)  # IllegalMove in a move sequence
        where = f" (move {index})" if index is not None else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
