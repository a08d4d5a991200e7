"""The cli_cold workload: every `rhombikit` subcommand as a fresh process.

A pass runs each command once, one after another, as a user at a shell
would: `python -m rhombikit.cli ... --json` on files the generator wrote.
Every process pays the import, and `plan` and `replay` also pay the lazy
blocker-table build. Each command's wall time is taken around the
whole subprocess. After the passes the outputs are checked against
in-process results: exit codes, plan lengths against a BFS optimum on a
separate Planner, the replayed final state against the goal, the
docking verdicts, and the `analyze` numbers against rhombikit.analytics.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gen
from harness import ROOT, Outcome, peak_rss_mb

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 150


@dataclass(frozen=True)
class Inputs:
    cells: list  # positions of the structure file
    kinds: list
    start: list
    goal: list
    rotation: str  # --rot argument for `contact`


def write_inputs(seed: int, workdir: Path) -> Inputs:
    """Generate every input file of the pass into workdir."""
    files, facts = gen.cli_inputs(seed)
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    return Inputs(**facts)


def commands(inp: Inputs) -> list[tuple[str, list[str]]]:
    """(name, argv) of one pass, in the order a user would run them."""
    return [
        ("validate", ["validate", "structure.json"]),
        ("export", ["export", "--structure", "structure.json", "--obj", "out.obj"]),
        ("contact", ["contact", "--structure", "structure.json", f"--rot={inp.rotation}"]),
        ("plan", ["plan", "--from", "start.json", "--to", "goal.json", "--plan-out", "plan.json"]),
        ("plan_bfs", ["plan", "--from", "start.json", "--to", "goal.json", "--algorithm", "bfs"]),
        ("replay", ["replay", "--plan", "plan.json"]),
        ("dock_layout", ["dock-check", "--layout", "layout.json"]),
        ("dock_enumerate", ["dock-check", "--enumerate", "--positions", "positions.json"]),
        ("analyze", ["analyze", "--csv", "trials.csv", "--design", "designs.json"]),
    ]


LIGHT = ("validate", "export", "contact")


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_pass(inp: Inputs, workdir: Path, trace_dir: Path | None = None) -> dict:
    """Run every command once. Returns name -> (wall s, exit code, stdout).

    With trace_dir, each command runs under perfbench/cli_child.py and
    leaves its trace record in trace_dir/<name>.json.
    """
    env = _env()
    out = {}
    for name, argv in commands(inp):
        if trace_dir is None:
            cmd = [sys.executable, "-m", "rhombikit.cli", *argv, "--json"]
        else:
            record = str(trace_dir / f"{name}.json")
            cmd = [sys.executable, str(HERE / "cli_child.py"), record, *argv, "--json"]
        t0 = perf_counter()
        try:
            res = subprocess.run(
                cmd, cwd=workdir, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            out[name] = (perf_counter() - t0, None, "")
            continue
        out[name] = (perf_counter() - t0, res.returncode, res.stdout)
    return out


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


class Expected:
    """In-process answers for the pass's inputs, computed once."""

    def __init__(self, inp: Inputs, workdir: Path):
        from rhombikit import io as rio
        from rhombikit.analytics import RotationDirection, summarize, trial_stats
        from rhombikit.docking import enumerate_valid_layouts
        from rhombikit.geometry import classify_ground_contact, rotation_from_axis_angle
        from rhombikit.lattice import Configuration
        from rhombikit.planner import Algorithm, Planner, PlannerOptions

        self.inp = inp
        cfg = rio.load_structure(workdir / "structure.json").config
        ax, ay, az, deg = (float(v) for v in inp.rotation.split(","))
        self.contact = classify_ground_contact(
            cfg, rotation_from_axis_angle((ax, ay, az), deg)
        ).contact_type.value
        oracle = Planner(PlannerOptions(algorithm=Algorithm.BFS))
        res = oracle.plan(Configuration.from_positions(inp.start), Configuration.from_positions(inp.goal))
        self.moves = len(res.plan) if res.ok else -1
        positions = rio.load_positions(workdir / "positions.json")
        self.assignments = [
            "".join(p.value for p in v) for v in enumerate_valid_layouts(positions)
        ]
        trajectories = {t.trial_id: t for t in rio.load_trajectories(workdir / "trials.csv")}
        self.designs = []
        for spec in rio.load_designs(workdir / "designs.json"):
            stats = [trial_stats(trajectories[t]) for t in spec.trial_ids]
            s = summarize(stats, spec.meta)
            self.designs.append(
                {
                    "name": s.meta.name,
                    "trials": s.trial_count,
                    "mean_distance_cm": s.mean_distance,
                    "sd_distance_cm": s.sd_distance,
                    "mean_net_displacement_cm": s.mean_net_displacement,
                    "sd_net_displacement_cm": s.sd_net_displacement,
                    "rotation": {
                        d.value: sum(1 for x in stats if x.rotation is d)
                        for d in RotationDirection
                    },
                }
            )


def check_pass(results: dict, exp: Expected, workdir: Path, out: Outcome) -> None:
    inp = exp.inp
    checks = {
        "validate": lambda p: p["cells"] == len(inp.cells)
        and p["connected"] is True
        and p["active"] == inp.kinds.count("active"),
        "export": lambda p: p["vertices"] > 0
        and p["faces"] > 0
        and len((workdir / "out.obj").read_text().splitlines()) == p["vertices"] + p["faces"],
        "contact": lambda p: p["contact"] == exp.contact,
        "plan": lambda p: p["status"] == "success" and p["moves"] == exp.moves,
        "plan_bfs": lambda p: p["status"] == "success" and p["moves"] == exp.moves,
        "replay": lambda p: p["moves"] == exp.moves
        and gen.normalize([tuple(c["pos"]) for c in p["final"]["cells"]]) == gen.normalize(inp.goal),
        "dock_layout": lambda p: p["genderless"] is True,
        "dock_enumerate": lambda p: gen.GENDERLESS_PATTERN in p["valid_assignments"]
        and p["valid_assignments"] == exp.assignments,
        "analyze": lambda p: p["designs"] == exp.designs,
    }
    for name, (_, code, stdout) in results.items():
        out.attempted += 1
        if code != 0:
            out.fail(f"{name}: exit code {code}")
            continue
        try:
            ok = checks[name](json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            out.fail(f"{name}: unreadable --json output ({exc})")
            continue
        if not ok:
            out.fail(f"{name}: output does not match the expected result")


# --------------------------------------------------------------------------
# workload
# --------------------------------------------------------------------------


def setup(seed: int, workdir: Path, repeats: int) -> tuple[Inputs, float]:
    """Write the inputs `repeats` times; returns them and the median time."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        inp = write_inputs(seed, workdir)
        times.append(perf_counter() - t0)
    return inp, statistics.median(times)


def summarize(walls: list[dict]) -> dict:
    """Figures from per-pass command wall times (name -> seconds)."""
    def med(fn):
        return statistics.median(fn(w) for w in walls)

    return {
        "astar_wall_s": (med(lambda w: w["plan"]), "s"),
        "bfs_wall_s": (med(lambda w: w["plan_bfs"]), "s"),
        "pass_s": (med(lambda w: sum(w.values())), "s"),
        "ops_per_s": (med(lambda w: len(w) / sum(w.values())), "1/s"),
        "plans_per_s": (med(lambda w: 2.0 / (w["plan"] + w["plan_bfs"])), "1/s"),
        "cli_replay_s": (med(lambda w: w["replay"]), "s"),
        "cli_dock_check_s": (med(lambda w: w["dock_layout"] + w["dock_enumerate"]), "s"),
        "cli_analyze_s": (med(lambda w: w["analyze"]), "s"),
        "cli_light_s": (statistics.median(w[n] for w in walls for n in LIGHT), "s"),
    }


def measure(inp: Inputs, seconds, smoke, trace, workdir: Path, out: Outcome):
    """Timed passes until the time is used up, then the checks; with
    trace, one more pass under cli_child.py. Returns the figures and the
    trace records (empty without trace)."""
    t_end = perf_counter() + seconds
    passes = [run_pass(inp, workdir)]
    while not smoke and perf_counter() < t_end:
        passes.append(run_pass(inp, workdir))
    figures = summarize([{n: r[0] for n, r in p.items()} for p in passes])
    figures["peak_rss_mb"] = (peak_rss_mb(children=True), "MB")
    figures["passes"] = (len(passes), "count")

    exp = Expected(inp, workdir)
    for p in passes:
        check_pass(p, exp, workdir, out)
    records = []
    if trace:
        trace_dir = workdir / "trace"
        trace_dir.mkdir()
        traced = run_pass(inp, workdir, trace_dir)
        check_pass(traced, exp, workdir, out)
        for name, _ in commands(inp):
            path = trace_dir / f"{name}.json"
            if path.exists():
                records.append(json.loads(path.read_text(encoding="utf-8")))
        traced_s = sum(r[0] for r in traced.values())
        figures["trace.overhead_ratio"] = (traced_s / figures["pass_s"][0], "ratio")
    return figures, records

