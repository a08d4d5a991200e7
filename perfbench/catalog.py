"""Record the fixed query catalog that the workloads place by seed.

Some queries are too costly to check against an independent optimum in
every run (7-8 cell A*, BFS at exact positions), and random
strict-stability pairs are almost never solvable. Those queries therefore come from this catalog: random
connected pairs grown with fixed catalog seeds, kept when their cost
falls in a band, with the optimal plan length recorded once. A run's
``--seed`` then rotates and translates each pair (see gen.place), which
keeps the optimum.

Regenerate with (takes a few minutes):

    PYTHONPATH=src python3 perfbench/catalog.py > perfbench/catalog.json
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402

from rhombikit.lattice import Configuration  # noqa: E402
from rhombikit.planner import Algorithm, Planner, PlannerOptions  # noqa: E402

# (section, sizes, options, expansion band, how many, catalog seed)
SECTIONS = (
    ("astar", (7, 8), dict(algorithm=Algorithm.ASTAR), (1500, 5000), 1, 101),
    ("bfs", (5, 6), dict(algorithm=Algorithm.BFS), (800, 3000), 4, 202),
    ("strict", (4, 5), dict(algorithm=Algorithm.BFS, strict_stability=True), (1, 10**6), 24, 303),
    ("exact", (3, 4), dict(algorithm=Algorithm.BFS, match_up_to_translation=False), (1, 3000), 40, 404),
)


# the line->bent family: (cells, bend direction, section)
FAMILY = ((8, (1, 0, 1), "astar"), (7, (-1, 1, 0), "astar"), (5, (-1, 1, 0), "bfs"))


def _entry(start, goal, opts, max_states):
    res = Planner(PlannerOptions(max_states=max_states, **opts)).plan(
        Configuration.from_positions(start), Configuration.from_positions(goal)
    )
    if not res.ok:
        return None
    print(f"{opts} n={len(start)} len={len(res.plan)} exp={res.stats.states_expanded}", file=sys.stderr)
    return {
        "start": [list(p) for p in start],
        "goal": [list(p) for p in goal],
        "length": len(res.plan),
        "expanded": res.stats.states_expanded,
    }


def _search(sizes, opts, band, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice(sizes)
        start, goal = gen.grow(rng, n), gen.grow(rng, n)
        if gen.normalize(start) == gen.normalize(goal):
            continue
        entry = _entry(start, goal, opts, band[1])
        if entry is not None and entry["expanded"] >= band[0]:
            out.append(entry)
    return out


def main() -> None:
    catalog = {name: _search(*rest) for name, *rest in SECTIONS}
    options = {name: opts for name, _, opts, *_ in SECTIONS}
    for n, bend, section in FAMILY:
        entry = _entry(gen.line(n), gen.bent(n, d2=bend), options[section], 10**5)
        catalog[section].insert(0, entry)
    print(json.dumps(catalog, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
