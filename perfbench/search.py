"""The in-process planning workloads: deep_search and batch_sweep.

Both are closed loops: one process, one client, one query at a time.
A pass plans every query of the workload's fixed set once; passes repeat
until the run's time is used up, and the end-to-end figures are medians
over passes. Only the ``plan()`` call of each query is timed. The plans
of the first pass are then checked: each is written and read back
through ``rhombikit.io``, replayed with ``planner.replay`` (legality of
every move and the goal), and its length compared with an independent
optimum. Later passes must produce the same moves.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gen
from harness import Outcome, peak_rss_mb, percentile

from rhombikit import geometry
from rhombikit import io as rio
from rhombikit.errors import IllegalMove, ValidationError
from rhombikit.lattice import Cell, CellKind, Configuration
from rhombikit.planner import Algorithm, Plan, Planner, PlannerOptions, replay

ASTAR, BFS = Algorithm.ASTAR, Algorithm.BFS


@dataclass(frozen=True)
class Mode:
    """One planner option set; batch_sweep keeps one Planner per mode."""

    name: str
    algorithm: Algorithm
    match_up_to_translation: bool = True
    strict_stability: bool = False
    kind_sensitive: bool = False

    def options(self, max_states: int, algorithm: Algorithm | None = None):
        return PlannerOptions(
            max_states=max_states,
            algorithm=algorithm or self.algorithm,
            match_up_to_translation=self.match_up_to_translation,
            strict_stability=self.strict_stability,
            kind_sensitive=self.kind_sensitive,
        )


TRANSLATION = Mode("translation", ASTAR)
BREADTH = Mode("bfs", BFS)
EXACT = Mode("exact", ASTAR, match_up_to_translation=False)
STRICT = Mode("strict", ASTAR, strict_stability=True)
KINDS = Mode("kinds", ASTAR, kind_sensitive=True)


@dataclass(frozen=True)
class Query:
    mode: Mode
    start: Configuration
    goal: Configuration
    length: int | None = None  # recorded optimum, when known


MODES = {m.name: m for m in (TRANSLATION, BREADTH, EXACT, STRICT, KINDS)}


def _config(cells, kinds=None) -> Configuration:
    kinds = kinds or ["passive"] * len(cells)
    return Configuration(Cell(tuple(p), CellKind(k)) for p, k in zip(cells, kinds))


def to_queries(raw: list[dict]) -> list[Query]:
    """Configurations from the generator's package-free queries."""
    return [
        Query(
            MODES[r["mode"]],
            _config(r["start"], r["start_kinds"]),
            _config(r["goal"], r["goal_kinds"]),
            r["length"],
        )
        for r in raw
    ]


# --------------------------------------------------------------------------
# passes and checks
# --------------------------------------------------------------------------

MAX_STATES = 100_000


@dataclass
class PassResult:
    latencies: list  # seconds per query
    results: list  # PlanResult per query


def run_pass(queries: list[Query], shared_planners: bool) -> PassResult:
    """Plan every query once. deep_search builds a fresh Planner per
    query, as `rhombikit plan` does; batch_sweep reuses one per mode."""
    planners: dict[Mode, Planner] = {}
    latencies, results = [], []
    for q in queries:
        if shared_planners:
            planner = planners.get(q.mode)
            if planner is None:
                planner = planners[q.mode] = Planner(q.mode.options(MAX_STATES))
        else:
            planner = Planner(q.mode.options(MAX_STATES))
        t0 = perf_counter()
        res = planner.plan(q.start, q.goal)
        latencies.append(perf_counter() - t0)
        results.append(res)
    return PassResult(latencies, results)


def check_pass(queries, first: PassResult, later: PassResult, out: Outcome) -> None:
    """A later pass must succeed with the first pass's moves."""
    for i, (q, a, b) in enumerate(zip(queries, first.results, later.results)):
        out.attempted += 1
        if not b.ok:
            out.fail(f"query {i} ({q.mode.name}): {b.status.value} {b.reason}")
        elif a.ok and a.plan.moves != b.plan.moves:
            out.fail(f"query {i} ({q.mode.name}): plan differs between passes")


def verify(queries, res_pass: PassResult, expected: list, workdir: Path, out: Outcome) -> None:
    """Check one pass: status, replay through a plan file, and the
    length where the optimum is known (see optimal_lengths)."""
    path = workdir / "plan.json"
    for i, (q, res, want) in enumerate(zip(queries, res_pass.results, expected)):
        out.attempted += 1
        where = f"query {i} ({q.mode.name})"
        if not res.ok:
            out.fail(f"{where}: {res.status.value} {res.reason}")
            continue
        rio.save_plan(rio.PlanDoc(rio.StructureDoc(q.start), res.plan.moves), path)
        doc = rio.load_plan(path)
        plan = Plan(
            doc.moves,
            res.stats,
            goal=q.goal,
            match_up_to_translation=q.mode.match_up_to_translation,
            kind_sensitive=q.mode.kind_sensitive,
        )
        try:
            replay(doc.start.config, plan, q.mode.strict_stability)
        except (IllegalMove, ValidationError) as exc:
            out.fail(f"{where}: replay failed: {exc}")
            continue
        if want is not None and len(res.plan) != want:
            out.fail(f"{where}: {len(res.plan)} moves, optimum is {want}")


# unrecorded queries whose length is checked against a separate Planner;
# the queries come in seeded random order, so these are a random sample
# (checking all 800 of batch_sweep's would cost about 12 s a run)
ORACLE_SAMPLE = 200


def optimal_lengths(queries: list[Query]) -> list[int | None]:
    """Recorded optima where the catalog has them; for the first
    ORACLE_SAMPLE other queries, a separate Planner per mode searching
    with the other algorithm (BFS for the A* modes, A* for the BFS
    mode); None for the rest. -1 marks a query with no plan."""
    planners: dict[Mode, Planner] = {}
    out = []
    searched = 0
    for q in queries:
        if q.length is not None:
            out.append(q.length)
            continue
        if searched == ORACLE_SAMPLE:
            out.append(None)
            continue
        searched += 1
        planner = planners.get(q.mode)
        if planner is None:
            other = BFS if q.mode.algorithm is ASTAR else ASTAR
            planner = planners[q.mode] = Planner(q.mode.options(10**6, other))
        res = planner.plan(q.start, q.goal)
        out.append(len(res.plan) if res.ok else -1)
    return out


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


def setup(workload: str, seed: int, smoke: bool, tracer=None) -> list[Query]:
    """The lazy blocker-table build, traced when a tracer is given, then
    the inputs."""
    if tracer is not None:
        tracer.install()
    try:
        geometry.blocker_table()
    finally:
        if tracer is not None:
            tracer.uninstall()
    make = gen.deep_queries if workload == "deep_search" else gen.batch_queries
    return to_queries(make(seed, smoke))


def summarize(queries, latencies: list[list[float]]) -> dict:
    """Figures from per-pass, per-query latencies: medians over passes,
    latencies pooled for the percentiles."""
    def wall(lat, algorithm):
        return sum(d for q, d in zip(queries, lat) if q.mode.algorithm is algorithm)

    pooled = sorted(x for lat in latencies for x in lat)
    tail, label = percentile(pooled)
    return {
        "astar_wall_s": (statistics.median(wall(lat, ASTAR) for lat in latencies), "s"),
        "bfs_wall_s": (statistics.median(wall(lat, BFS) for lat in latencies), "s"),
        "pass_s": (statistics.median(sum(lat) for lat in latencies), "s"),
        "ops_per_s": (statistics.median(len(lat) / sum(lat) for lat in latencies), "1/s"),
        "plan_ms_p50": (statistics.median(pooled) * 1e3, "ms"),
        f"plan_ms_{label}": (tail * 1e3, "ms"),
    }


def measure(workload, queries, seconds, smoke, tracer, workdir, out) -> dict:
    """Timed passes until the time is used up (one for the smoke size),
    then the checks; with a tracer, one more pass traced."""
    shared = workload == "batch_sweep"
    t_end = perf_counter() + seconds
    passes = [run_pass(queries, shared)]
    while not smoke and perf_counter() < t_end:
        passes.append(run_pass(queries, shared))
    figures = summarize(queries, [p.latencies for p in passes])
    figures["peak_rss_mb"] = (peak_rss_mb(), "MB")
    figures["passes"] = (len(passes), "count")
    figures["plan_samples"] = (len(passes) * len(queries), "count")

    first = passes[0]
    t0 = perf_counter()
    expected = optimal_lengths(queries)
    verify(queries, first, expected, workdir, out)
    for later in passes[1:]:
        check_pass(queries, first, later, out)
    figures["check_s"] = (perf_counter() - t0, "s")
    if tracer is not None:
        tracer.install()
        try:
            traced = run_pass(queries, shared)
            verify(queries, traced, expected, workdir, out)
        finally:
            tracer.uninstall()
        check_pass(queries, first, traced, out)
        figures["trace.overhead_ratio"] = (sum(traced.latencies) / figures["pass_s"][0], "ratio")
    return figures
