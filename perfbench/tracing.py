"""Per-layer tracing from the benchmark's own wrappers.

Nothing under src/ knows about tracing. ``Tracer.install`` replaces each
traced function both at its home module attribute and at every name a
caller imported it under (``rhombikit.planner.legal_moves`` as well as
``rhombikit.kinematics.legal_moves``), so calls made through either name
are seen; ``Tracer.uninstall`` puts the originals back.

Each call becomes a span ``(id, parent id, name, start, end)`` kept in a
list in memory. The spans are aggregated (or written with ``dump``) once,
when the run ends. A span's self time is its duration minus the time its
child spans cover; calls nest on one thread, so a span's children never
overlap and their durations add up.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter

import rhombikit._kernels
import rhombikit.cli
import rhombikit.geometry
import rhombikit.io
import rhombikit.kinematics
import rhombikit.lattice
import rhombikit.planner
from rhombikit import analytics, docking

kin = rhombikit.kinematics
plan_mod = rhombikit.planner
rio = rhombikit.io
cli = rhombikit.cli


def _count_moves(tracer, moves):
    tracer.counts["kinematics.moves_returned"] += len(moves)


def _count_search(tracer, result):
    tracer.counts["planner.states_expanded"] += result.stats.states_expanded
    peak = tracer.counts["planner.frontier_peak"]
    tracer.counts["planner.frontier_peak"] = max(peak, result.stats.frontier_peak)


TABLE = "geometry.blocker_table"

# span name -> (owner objects holding the function, attribute, result hook)
SPANS = (
    ("geometry.blocker_table", (rhombikit.geometry, kin), "blocker_table", None),
    ("geometry.volume", (rhombikit._kernels,), "intersection_volume", None),
    ("kinematics.legal_moves", (kin, plan_mod), "legal_moves", _count_moves),
    ("kinematics.check_move", (kin,), "check_move", None),
    ("lattice.is_connected", (rhombikit.lattice, rhombikit, plan_mod, cli), "is_connected", None),
    ("planner.plan", (plan_mod.Planner,), "plan", _count_search),
    ("planner.heuristic", (plan_mod,), "_translation_bound", None),
    ("planner.heuristic", (plan_mod,), "_assignment_bound", None),
    ("docking.validate_genderless", (docking, cli), "validate_genderless", None),
    ("io.load", (rio,), "load_structure", None),
    ("io.load", (rio,), "load_plan", None),
    ("io.load", (rio,), "load_layout", None),
    ("io.load", (rio,), "load_positions", None),
    ("io.load", (rio,), "load_designs", None),
    ("io.load_trajectories", (rio,), "load_trajectories", None),
    ("io.save", (rio,), "save_structure", None),
    ("io.save", (rio,), "save_plan", None),
    ("io.save", (rio,), "save_layout", None),
    ("analytics.trial_stats", (analytics, cli), "trial_stats", None),
    ("analytics.summarize", (analytics, cli), "summarize", None),
    ("analytics.report_table", (analytics, cli), "report_table", None),
)

# count name -> (class, method); counted without a span, as these run
# hundreds of thousands of times per search
COUNTS = (
    ("kinematics.pivot_moves_built", kin.PivotMove, "__post_init__"),
    ("lattice.configs_built", rhombikit.lattice.Configuration, "__init__"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack = [0]
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owners, attr, wrapper, original):
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the traced function")
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, owners, attr, hook in SPANS:
            original = getattr(owners[0], attr)
            self._patch(owners, attr, self._span(name, original, hook), original)
        for name, cls, attr in COUNTS:
            original = getattr(cls, attr)
            self._patch((cls,), attr, self._counter(name, original), original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def record(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def dump(self, path, extra: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**self.record(), **(extra or {})}, fh)


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total, self and net time in seconds.

    Net time is the total less the time of blocker_table() calls nested
    anywhere below the span: the first legal_moves or check_move of a
    process pays for the lazy table build, and geometry.blocker_table_s
    reports that cost on its own. Spans are appended as they finish, so every span
    comes after all of its descendants.
    """
    child_time: defaultdict[int, float] = defaultdict(float)
    table_time: defaultdict[int, float] = defaultdict(float)
    out: dict[str, dict[str, float]] = {}
    for sid, parent, name, t0, t1 in spans:
        dur = t1 - t0
        child_time[parent] += dur
        nested = table_time.pop(sid, 0.0)
        table_time[parent] += dur if name == TABLE else nested
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "net_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - child_time.pop(sid, 0.0)
        agg["net_s"] += dur - nested
    return out


def layer_metrics(records: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the records of one or more traced processes.

    Counts and times add up over the records, except the blocker-table
    figures, which are per table build (the median over the processes
    that built one), and the frontier peak, which is a maximum.
    """
    tot: defaultdict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "net_s": 0.0}
    )
    counts: defaultdict[str, int] = defaultdict(int)
    builds = []
    for rec in records:
        per = span_totals(rec["spans"])
        for name, agg in per.items():
            for key, v in agg.items():
                tot[name][key] += v
        for key, v in rec["counts"].items():
            if key == "planner.frontier_peak":
                counts[key] = max(counts[key], v)
            else:
                counts[key] += v
        if "geometry.volume" in per:
            builds.append((per[TABLE]["total_s"], per["geometry.volume"]["calls"]))
    if not builds:
        raise RuntimeError("the traced run never built the blocker table")

    def calls(name):
        return tot[name]["calls"]

    def per_call(name, scale):
        return tot[name]["net_s"] / calls(name) * scale if calls(name) else 0.0

    expanded = counts["planner.states_expanded"]
    legal = calls("kinematics.legal_moves")
    imports = [rec["import_s"] for rec in records if "import_s" in rec]
    m = {
        "geometry.blocker_table_s": (statistics.median(b[0] for b in builds), "s"),
        "geometry.volume_calls": (statistics.median(b[1] for b in builds), "count"),
        "geometry.volume_us_per_call": (per_call("geometry.volume", 1e6), "us"),
        "kinematics.legal_moves.calls": (legal, "count"),
        "kinematics.legal_moves.self_s": (tot["kinematics.legal_moves"]["self_s"], "s"),
        "kinematics.legal_moves.us_per_call": (per_call("kinematics.legal_moves", 1e6), "us"),
        "kinematics.moves_per_call": (counts["kinematics.moves_returned"] / max(1, legal), "count"),
        "kinematics.pivot_moves_built": (counts["kinematics.pivot_moves_built"], "count"),
        "kinematics.check_move.calls": (calls("kinematics.check_move"), "count"),
        "kinematics.check_move.us_per_call": (per_call("kinematics.check_move", 1e6), "us"),
        "lattice.configs_built": (counts["lattice.configs_built"], "count"),
        "lattice.is_connected.calls": (calls("lattice.is_connected"), "count"),
        "planner.plan.calls": (calls("planner.plan"), "count"),
        "planner.plan.self_s": (tot["planner.plan"]["self_s"], "s"),
        "planner.states_expanded": (expanded, "count"),
        "planner.states_per_s": (expanded / tot["planner.plan"]["net_s"], "1/s"),
        "planner.frontier_peak": (counts["planner.frontier_peak"], "count"),
        "planner.memo_hit_ratio": (1.0 - legal / expanded, "ratio"),
        "planner.heuristic.calls": (calls("planner.heuristic"), "count"),
        "planner.heuristic.us_per_call": (per_call("planner.heuristic", 1e6), "us"),
        "io.load_s": (tot["io.load"]["total_s"], "s"),
        "io.save_s": (tot["io.save"]["total_s"], "s"),
    }
    if calls("io.load_trajectories"):  # the layers only cli_cold calls
        m["io.load_trajectories_s"] = (tot["io.load_trajectories"]["total_s"], "s")
    if calls("docking.validate_genderless"):
        m["docking.validate_genderless.calls"] = (calls("docking.validate_genderless"), "count")
        m["docking.validate_genderless.ms_per_call"] = (per_call("docking.validate_genderless", 1e3), "ms")
    if calls("analytics.trial_stats"):
        m["analytics.trial_stats.calls"] = (calls("analytics.trial_stats"), "count")
        m["analytics.self_s"] = (
            sum(agg["self_s"] for name, agg in tot.items() if name.startswith("analytics.")),
            "s",
        )
    if imports:
        m["cli.import_s"] = (statistics.median(imports), "s")
    return m
