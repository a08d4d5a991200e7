"""Shared test oracles and fixtures.

The oracles here are deliberately independent of the implementation
paths they check: breadth-first search over neighbor steps for the
distance closed form, union-find for connectivity, divergence-free hull
volumes for meshes, and a from-scratch state-graph search for the
planner. They share only the definitional layers (neighbor directions,
move legality) with the code under test.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import strategies as st

from rhombikit.lattice import FACE_DIRS, Configuration, add, sub

# --------------------------------------------------------------------------
# lattice oracles
# --------------------------------------------------------------------------


def bfs_distance_map(radius: int) -> dict[tuple[int, int, int], int]:
    """Exact step counts from the origin for all points within a box."""
    dist = {(0, 0, 0): 0}
    queue = deque([(0, 0, 0)])
    cap = radius + 2  # expand a margin so in-box shortest paths are exact
    while queue:
        p = queue.popleft()
        for d in FACE_DIRS:
            n = add(p, d)
            if n not in dist and max(abs(c) for c in n) <= cap:
                dist[n] = dist[p] + 1
                queue.append(n)
    return dist


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def union_find_connected(positions) -> bool:
    positions = list(positions)
    uf = UnionFind(positions)
    occupied = set(positions)
    for p in positions:
        for d in FACE_DIRS:
            q = add(p, d)
            if q in occupied:
                uf.union(p, q)
    roots = {uf.find(p) for p in positions}
    return len(roots) == 1


def random_valid_pos(rng: np.random.Generator, radius: int = 20):
    while True:
        p = tuple(int(v) for v in rng.integers(-radius, radius + 1, size=3))
        if sum(p) % 2 == 0:
            return p


def random_connected_positions(rng: np.random.Generator, n: int):
    """Grow a random connected cluster from the origin."""
    cells = [(0, 0, 0)]
    occupied = {(0, 0, 0)}
    while len(cells) < n:
        base = cells[rng.integers(0, len(cells))]
        step = FACE_DIRS[rng.integers(0, 12)]
        q = add(base, step)
        if q not in occupied:
            occupied.add(q)
            cells.append(q)
    return cells


def _walk_plus_far_cells(drawn):
    """The cells of a walk from the origin plus `far` cells far from it
    and from each other."""
    steps, far = drawn
    walk = dict.fromkeys(itertools.accumulate(steps, add, initial=(0, 0, 0)))
    return list(walk) + [(100 * k, 100 * k, 0) for k in range(1, far + 1)]


# a walk of up to 40 steps (1-41 distinct cells) plus up to two far
# cells: one piece, a cluster plus an isolated cell, two isolated cells,
# or three pieces
pieces = st.tuples(
    st.lists(st.sampled_from(FACE_DIRS), max_size=40), st.integers(0, 2)
).map(_walk_plus_far_cells)


# --------------------------------------------------------------------------
# planner-side oracle: canonical shape graph over pivot moves
# --------------------------------------------------------------------------


def canon_positions(positions):
    m = min(positions)
    return tuple(sorted(sub(p, m) for p in positions))


def enumerate_box_shapes(n: int, radius: int = 2):
    """All canonical connected n-cell shapes placeable inside the box."""
    box = [
        p
        for p in itertools.product(range(-radius, radius + 1), repeat=3)
        if sum(p) % 2 == 0
    ]
    boxset = set(box)
    shapes = set()
    seen: set[frozenset] = set()
    for seed in box:
        stack = [frozenset([seed])]
        while stack:
            cur = stack.pop()
            if len(cur) == n:
                shapes.add(canon_positions(tuple(cur)))
                continue
            if cur in seen:
                continue
            seen.add(cur)
            for p in cur:
                for d in FACE_DIRS:
                    q = add(p, d)
                    if q in boxset and q not in cur:
                        nxt = cur | {q}
                        if nxt not in seen:
                            stack.append(nxt)
    return sorted(shapes)


def oracle_successors(state, strict=False):
    """Canonical successor states via kinematics, bypassing the planner."""
    from rhombikit.kinematics import MoveLegality, PivotMove, check_move

    cfg = Configuration.from_positions(state)
    occupied = set(state)
    out = []
    for mover in state:
        for f in FACE_DIRS:
            s = sub(mover, f)
            if s not in occupied:
                continue
            for t in FACE_DIRS:
                if sum(a * b for a, b in zip(f, t)) != 1:
                    continue
                if add(s, t) in occupied:
                    continue
                move = PivotMove(mover, s, f, t)
                if check_move(cfg, move, strict) is MoveLegality.LEGAL:
                    nxt = canon_positions(
                        [add(s, t) if p == mover else p for p in state]
                    )
                    out.append(nxt)
    return out


class ShapeGraph:
    """Full reachable canonical shape graph for a fixed cell count, over
    the strictly stable moves alone with strict. A strict graph is
    directed: a strict move's reverse need not be strict."""

    def __init__(self, seeds, strict=False):
        self.succ: dict[tuple, list] = {}
        queue = deque(seeds)
        while queue:
            s = queue.popleft()
            if s in self.succ:
                continue
            nxt = oracle_successors(s, strict)
            self.succ[s] = nxt
            queue.extend(t for t in nxt if t not in self.succ)

    def distances_from(self, start):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in self.succ[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist


def _shape_graphs(sizes, strict=False):
    out = {}
    for n in sizes:
        shapes = enumerate_box_shapes(n)
        graph = ShapeGraph(shapes, strict)
        dists = {s: graph.distances_from(s) for s in shapes}
        out[n] = (shapes, graph, dists)
    return out


@pytest.fixture(scope="session")
def shape_graphs():
    """(in-box shapes, full graph, all-pairs distances from box shapes)
    for n = 2, 3, 4."""
    return _shape_graphs((2, 3, 4))


@pytest.fixture(scope="session")
def strict_shape_graphs():
    """shape_graphs over the strictly stable moves, for n = 3, 4."""
    return _shape_graphs((3, 4), strict=True)


@pytest.fixture(scope="session")
def blocker_table_ready():
    """Force the swept-volume table build outside timed test sections."""
    from rhombikit.geometry import blocker_table

    return blocker_table()
