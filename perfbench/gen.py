"""Seeded inputs for every workload, written without importing rhombikit.

The generator knows only the FCC lattice (positions with an even
coordinate sum, twelve neighbour steps) and the 24 proper rotations of
the cube, so the inputs a seed produces do not change when the package
under test changes. Every function takes a ``random.Random`` and touches
no other source of randomness: the same seed gives the same inputs, and
``python3 perfbench/gen.py --seed N`` checks that byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

DIRS = tuple(
    sorted(
        p
        for p in itertools.product((-1, 0, 1), repeat=3)
        if sorted(map(abs, p)) == [0, 1, 1]
    )
)


def _det(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _rotations():
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            m = tuple(
                tuple(signs[r] if c == perm[r] else 0 for c in range(3))
                for r in range(3)
            )
            if _det(m) == 1:
                out.append(m)
    return tuple(sorted(out, reverse=True))


ROTATIONS = _rotations()


def add(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2])


def rotate(m, p):
    return tuple(m[r][0] * p[0] + m[r][1] * p[1] + m[r][2] * p[2] for r in range(3))


def normalize(cells) -> tuple:
    """Sorted positions translated so the smallest one is the origin."""
    m = min(cells)
    return tuple(sorted((p[0] - m[0], p[1] - m[1], p[2] - m[2]) for p in cells))


# --------------------------------------------------------------------------
# configurations
# --------------------------------------------------------------------------


def grow(rng: random.Random, n: int) -> list:
    """A random connected n-cell configuration grown from the origin.

    Each step adds one empty neighbour of the cells placed so far, drawn
    uniformly from the sorted frontier.
    """
    cells = [(0, 0, 0)]
    occupied = {(0, 0, 0)}
    while len(cells) < n:
        frontier = sorted(
            {add(p, d) for p in cells for d in DIRS} - occupied
        )
        q = rng.choice(frontier)
        cells.append(q)
        occupied.add(q)
    return sorted(cells)


def line(n: int) -> list:
    """n cells in a straight row along (1, 1, 0)."""
    return [(k, k, 0) for k in range(n)]


def bent(n: int, d2) -> list:
    """line() for the first ceil(n/2) cells, then a row along d2."""
    head = line((n + 1) // 2)
    tip = head[-1]
    return head + [add(tip, (k * d2[0], k * d2[1], k * d2[2])) for k in range(1, n - len(head) + 1)]


def place(rng: random.Random, pairs, joint: bool = False):
    """Apply one random rotation and translation to every (start, goal).

    Rotations and translations are symmetries of the lattice and of the
    roll geometry, so the optimal plan length of each pair is unchanged
    while the coordinates, and with them the planner's tie-breaking,
    differ from seed to seed. Start and goal get independent shifts, or
    one shared shift when ``joint`` (goals at exact positions).
    """
    out = []
    for start, goal in pairs:
        m = rng.choice(ROTATIONS)
        s1 = _even_shift(rng, 6)
        s2 = s1 if joint else _even_shift(rng, 6)
        out.append(
            tuple(
                sorted(add(rotate(m, p), s) for p in cells)
                for cells, s in ((start, s1), (goal, s2))
            )
        )
    return out


def _even_shift(rng: random.Random, r: int):
    while True:
        s = (rng.randint(-r, r), rng.randint(-r, r), rng.randint(-r, r))
        if sum(s) % 2 == 0:
            return s


def kinds_for(rng: random.Random, n: int) -> list:
    """Mixed active/passive kinds with at least one of each for n >= 2."""
    n_active = rng.randint(1, max(1, n - 1))
    ks = ["active"] * n_active + ["passive"] * (n - n_active)
    rng.shuffle(ks)
    return ks


# --------------------------------------------------------------------------
# documents (the file formats of rhombikit.io, built as plain dicts)
# --------------------------------------------------------------------------


def structure_doc(cells, kinds=None, scale=None) -> dict:
    kinds = kinds or ["passive"] * len(cells)
    doc = {
        "format_version": 1,
        "cells": [
            {"pos": list(p), "kind": k, "orient": 0} for p, k in zip(cells, kinds)
        ],
    }
    if scale is not None:
        doc["scale_cm_per_unit"] = scale
    return doc


def face_positions(rng: random.Random) -> list:
    """Four magnets mirror-symmetric about both face diagonals, inside the
    rhombus (fractions a, b of the half-diagonals with a + b < 1)."""
    a = round(rng.uniform(0.15, 0.55), 6)
    b = round(rng.uniform(0.1, 0.85 - a), 6)
    u, v = a * math.sqrt(2.0), b
    return sorted([(-u, -v), (-u, v), (u, -v), (u, v)])


# With the positions sorted as face_positions returns them, the pattern
# N S S N (and its flip) is the genderless assignment.
GENDERLESS_PATTERN = "NSSN"


def layout_doc(positions) -> dict:
    magnets = [
        {"pos": [u, v], "polarity": pol}
        for (u, v), pol in zip(positions, GENDERLESS_PATTERN)
    ]
    return {
        "format_version": 1,
        "faces": [{"dir": i, "symmetry": 2, "magnets": magnets} for i in range(12)],
    }


def trajectory_csv(rng: random.Random, designs: int, trials: int, samples: int):
    """Trajectory CSV text and design metadata for `rhombikit analyze`.

    Each trial is a noisy arc with a heading column; a third of the
    trials turn clockwise, a third counterclockwise and a third barely
    turn, so every rotation class occurs.
    """
    lines = ["trial_id,t,x,y,heading"]
    design_docs = []
    for d in range(designs):
        ids = []
        for k in range(trials):
            tid = f"d{d}t{k}"
            ids.append(tid)
            turn = (k % 3 - 1) * rng.uniform(1.5, 3.0) * math.pi
            speed = rng.uniform(0.2, 1.0)
            x = y = 0.0
            for i in range(samples):
                h = turn * i / (samples - 1) + rng.gauss(0.0, 0.01)
                x += speed * math.cos(h) + rng.gauss(0.0, 0.02)
                y += speed * math.sin(h) + rng.gauss(0.0, 0.02)
                lines.append(f"{tid},{i * 0.1:.1f},{x:.6f},{y:.6f},{h:.6f}")
        design_docs.append(
            {
                "name": f"design{d}",
                "passive": rng.randint(0, 4),
                "active": rng.randint(1, 3),
                "body_length_cm": round(rng.uniform(3.0, 12.0), 3),
                "body_weight_g": round(rng.uniform(20.0, 200.0), 3),
                "contact": rng.choice(["point", "edge", "face"]),
                "trials": ids,
            }
        )
    return "\n".join(lines) + "\n", {"designs": design_docs}


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# workload inputs
# --------------------------------------------------------------------------

CATALOG = json.loads(
    (Path(__file__).resolve().parent / "catalog.json").read_text(encoding="utf-8")
)


def _query(mode, start, goal, length=None, start_kinds=None, goal_kinds=None) -> dict:
    return {
        "mode": mode,
        "start": start,
        "goal": goal,
        "length": length,
        "start_kinds": start_kinds,
        "goal_kinds": goal_kinds,
    }


def _from_catalog(rng, section: str, mode: str, picks=None, joint=False) -> list:
    """The section's pairs, cycled to ``picks`` queries, each placed by
    rng (the same pair placed twice is two different queries)."""
    entries = CATALOG[section]
    if picks is not None:
        entries = [entries[i % len(entries)] for i in range(picks)]
    placed = place(rng, [(e["start"], e["goal"]) for e in entries], joint)
    return [_query(mode, s, g, e["length"]) for (s, g), e in zip(placed, entries)]


def deep_queries(seed: int, smoke: bool = False) -> list:
    """The line->bent family plus recorded random pairs, placed by seed:
    7-8 cells for A*, 5 cells for BFS. The smoke size keeps the first
    query of each set."""
    rng = random.Random(seed)
    astar = _from_catalog(rng, "astar", "translation")
    bfs = _from_catalog(rng, "bfs", "bfs")
    if smoke:
        astar, bfs = astar[:1], bfs[:1]
    return astar + bfs


# queries per pass for each batch_sweep mode: how many of each size, or
# how many recorded pairs (placed by seed) where random pairs will not do.
# Fixed counts per size keep the work of a pass nearly the same from seed
# to seed. 5-cell BFS and 4-cell kind-sensitive queries cost one to two
# orders of magnitude more than 3-cell ones, so they are rare or absent
# here; deep_search has the long searches.
BATCH_MIX = (
    ("translation", {3: 150, 4: 300, 5: 150}),
    ("bfs", {3: 60, 4: 60}),
    ("exact", 120),  # BFS at exact positions is too costly to check
    ("strict", 100),  # random pairs are rarely solvable
    ("kinds", {3: 60, 4: 20}),
)


def batch_queries(seed: int, smoke: bool = False) -> list:
    """Small seeded queries for every option mode, in a seeded order."""
    rng = random.Random(seed)
    out = []
    for mode, counts in BATCH_MIX:
        if isinstance(counts, int):
            picks = max(2, counts // 50) if smoke else counts
            out += _from_catalog(rng, mode, mode, picks=picks, joint=mode == "exact")
            continue
        for n, count in counts.items():
            for _ in range(max(1, count // 50) if smoke else count):
                start, goal = grow(rng, n), grow(rng, n)
                if mode == "kinds":
                    kinds = kinds_for(rng, n)
                    goal_kinds = list(kinds)
                    rng.shuffle(goal_kinds)
                    out.append(_query(mode, start, goal, None, kinds, goal_kinds))
                else:
                    out.append(_query(mode, start, goal))
    rng.shuffle(out)
    return out


def cli_inputs(seed: int) -> tuple[dict, dict]:
    """(file name -> text, facts the checks need) for cli_cold."""
    rng = random.Random(seed)
    cells = grow(rng, 6)
    kinds = kinds_for(rng, 6)
    start, goal = grow(rng, 4), grow(rng, 4)
    while normalize(start) == normalize(goal):
        goal = grow(rng, 4)
    positions = face_positions(rng)
    trials, designs = trajectory_csv(rng, designs=3, trials=6, samples=400)
    axis = [round(rng.uniform(-1.0, 1.0), 6) for _ in range(3)]
    angle = round(rng.uniform(0.0, 180.0), 6)
    files = {
        "structure.json": dumps(structure_doc(cells, kinds, scale=1.9)),
        "start.json": dumps(structure_doc(start)),
        "goal.json": dumps(structure_doc(goal)),
        "layout.json": dumps(layout_doc(positions)),
        "positions.json": dumps({"positions": [list(p) for p in positions]}),
        "trials.csv": trials,
        "designs.json": dumps(designs),
    }
    facts = {
        "cells": cells,
        "kinds": kinds,
        "start": start,
        "goal": goal,
        "rotation": ",".join(str(v) for v in axis + [angle]),
    }
    return files, facts


def _fingerprint(seed: int) -> str:
    """Digest of every input the three workloads get from one seed."""
    files, facts = cli_inputs(seed)
    doc = {
        "deep_search": deep_queries(seed),
        "batch_sweep": batch_queries(seed),
        "cli_cold": {"files": files, "facts": facts},
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    """Self-check: the same seed must give byte-identical inputs, also in
    a second process with another string-hash seed."""
    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--digest", action="store_true", help="print the digest only")
    args = ap.parse_args(argv)
    mine = _fingerprint(args.seed)
    if args.digest:
        print(mine)
        return 0
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed + 1))
    res = subprocess.run(
        [sys.executable, __file__, "--seed", str(args.seed), "--digest"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    if res.stdout.strip() != mine or _fingerprint(args.seed) != mine:
        print(f"seed {args.seed}: inputs differ between generations", file=sys.stderr)
        return 1
    print(f"seed {args.seed}: inputs identical ({mine[:16]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
