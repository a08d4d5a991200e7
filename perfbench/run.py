#!/usr/bin/env python3
"""rhombikit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

* batch_sweep  - >= 1000 small queries over five option modes, one
                 reused Planner per mode
* cli_cold     - every `rhombikit` subcommand as a fresh process
* deep_search  - long one-shot A* and BFS searches, a fresh Planner each;
                 runnable, but not in BENCHMARK.json (see README.md)

Inputs come from perfbench/gen.py and depend only on --seed. Every line
but the last is for people: the metrics by name with their units
(including figures BENCHMARK.json does not gate), the provenance of the
run and any failed checks. The last line is one JSON object with keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, measured untraced; with --trace 1 they
are its per_layer list, from one extra pass run under the benchmark's
wrappers (perfbench/tracing.py).

--smoke shrinks every workload to a tiny size for the smoke tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from harness import ROOT, Outcome, provenance

HERE = Path(__file__).resolve().parent
WORKLOADS = ("deep_search", "batch_sweep", "cli_cold")
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one pass")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap


def _search_setup(args):
    """Import, first blocker_table() and inputs, timed together. With
    --trace 1 the wrappers are on while the table is built."""
    t0 = perf_counter()
    import search

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    queries = search.setup(args.workload, args.seed, args.smoke, tracer)
    return search, queries, tracer, perf_counter() - t0


def _setup_in_child(args) -> float:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def _run(args, workdir: Path, out) -> tuple[dict, list]:
    """Returns (figures, trace records)."""
    if args.workload == "cli_cold":
        import cli_cold

        inp, setup_s = cli_cold.setup(args.seed, workdir, 1 if args.smoke else 5)
        figures, records = cli_cold.measure(inp, args.seconds, args.smoke, args.trace, workdir, out)
        figures["setup_s"] = (setup_s, "s")
    else:
        search, queries, tracer, setup_s = _search_setup(args)
        figures = search.measure(
            args.workload, queries, args.seconds, args.smoke, tracer, workdir, out
        )
        records = [tracer.record()] if tracer else []
        samples = [setup_s]
        if not args.smoke and not args.trace:
            samples += [_setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
        figures["setup_s"] = (statistics.median(samples), "s")
        figures["setup_samples"] = (len(samples), "count")
    return figures, records


def main(argv=None) -> int:
    load_1min = os.getloadavg()[0]
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "rhombikit" / "__init__.py").is_file():
        print(f"error: no rhombikit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_only:
        *_, setup_s = _search_setup(args)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = Outcome()
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        figures, records = _run(args, workdir, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if records:
        import tracing

        figures.update(tracing.layer_metrics(records))
    figures["error_rate"] = (out.failed / max(1, out.attempted), "ratio")

    for name, (value, unit) in sorted(figures.items()):
        print(f"{name} = {value:.6g} {unit}")
    print("provenance: " + json.dumps(provenance(load_1min), sort_keys=True))
    for problem in out.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)

    bad = [m["name"] for m in wanted if figures.get(m["name"], (0, None))[1] != m["unit"]]
    if bad:
        print(f"error: no figure with BENCHMARK.json's unit for {bad}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": figures[m["name"]][0], "unit": m["unit"]} for m in wanted
    }
    print(
        json.dumps(
            {
                "correct": out.failed == 0,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
