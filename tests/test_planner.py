import dataclasses
import gc
import itertools
import math
import os
import subprocess
import sys
import textwrap
from collections import deque
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rhombikit.errors import IllegalMove, ValidationError
from rhombikit.io import PlanDoc, StructureDoc, dumps_plan
from rhombikit.kinematics import PivotMove, apply_move, legal_moves
from rhombikit.lattice import (
    FACE_DIRS,
    IDENTITY,
    PACK_LIMIT,
    PACKED_DIRS,
    ROTATION_INDEX,
    Cell,
    CellKind,
    Configuration,
    add,
    apply_rotation,
    canonicalize,
    compose,
    lattice_distance,
    pack,
    sub,
    unpack,
)
import rhombikit.planner
from rhombikit.planner import (
    _assignment_bound,
    _axis_bound,
    _step,
    _translation_bound,
    Algorithm,
    Plan,
    Planner,
    PlannerOptions,
    PlanStatus,
    SearchStats,
    goal_matches,
    heuristic,
    plan,
    replay,
)

from conftest import (
    canon_positions,
    oracle_successors,
    random_connected_positions,
    random_valid_pos,
)


def _query_ids(planner, start, goal):
    """The planner's ids of a query's start and goal: each cell packed
    relative to the start's smallest position (each configuration's own
    with translation matching), doubled plus its kind bit (passive 1)
    when kind-sensitive."""
    k = planner._kind_bits

    def state_id(c, origin):
        return planner._id(
            tuple((pack(sub(cell.pos, origin)) << k) + (k and cell.kind is CellKind.PASSIVE) for cell in c)
        )

    origin = start.cells[0].pos
    goal_origin = goal.cells[0].pos if planner.opts.match_up_to_translation else origin
    return state_id(start, origin), state_id(goal, goal_origin)


def _fifo_reference(planner, start_id, goal_id):
    """A FIFO breadth-first loop over the planner's own successors, from
    and to the planner's ids, with its goal test at dequeue: (states
    expanded, plan length or None)."""
    depth = {start_id: 0}
    queue = deque([start_id])
    expanded = 0
    while queue:
        state = queue.popleft()
        expanded += 1
        if state == goal_id:
            return expanded, depth[state]
        for nxt in planner._successors(state):
            if nxt not in depth:
                depth[nxt] = depth[state] + 1
                queue.append(nxt)
    return expanded, None


LINE3 = Configuration.from_positions([(0, 0, 0), (1, 1, 0), (2, 2, 0)])
TRI3 = Configuration.from_positions([(0, 0, 0), (1, 1, 0), (1, 0, 1)])


# a lattice position from (x, y, k): z = 2k plus the parity of x + y
_lattice_pos = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-2, 2)).map(
    lambda t: (t[0], t[1], 2 * t[2] + (t[0] + t[1]) % 2)
)


@st.composite
def _equal_size_sets(draw, max_n=7):
    """Two tuples of 1-max_n distinct lattice positions each, of equal size."""
    n = draw(st.integers(1, max_n))
    side = st.lists(_lattice_pos, min_size=n, max_size=n, unique=True).map(tuple)
    return draw(side), draw(side)


def _axis_memo_bound(goal):
    """_translation_bound against one goal's positions, with each axis's
    _axis_bound memoized on the state's sorted coordinates: the 4-cell
    box tests bound hundreds of thousands of states that share a few
    hundred axis profiles."""
    axes = [sorted(c) for c in zip(*goal)]
    memos = ({}, {}, {})

    def bound(positions):
        b = []
        for coords, g, memo in zip(zip(*positions), axes, memos):
            key = tuple(sorted(coords))
            if key not in memo:
                memo[key] = _axis_bound(key, g)
            b.append(memo[key])
        return max(*b, math.ceil(sum(b) / 2))

    return bound


LINE4 = [(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0)]
TETRA4 = [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]

# compact shapes, far apart, that strict stability can plan between too
C4 = [(2, -2, -4), (3, -3, -4), (3, -2, -3), (4, -3, -5)]
D4 = [(-6, -3, -3), (-5, -4, -3), (-5, -3, -2), (-4, -3, -3)]
E4 = [(-5, -1, -6), (-4, 0, -6), (-3, -1, -6), (-3, 0, -7)]
F4 = [(0, 1, 5), (1, 1, 4), (1, 1, 6), (1, 2, 5)]
A5 = [(-1, 3, 6), (0, 2, 6), (1, 1, 6), (2, 0, 6), (2, 2, 6)]
B5 = [(0, -6, -2), (0, -5, -3), (0, -5, -1), (1, -6, -1), (1, -5, -2)]
G5 = [(-6, -1, 5), (-6, 2, 4), (-5, -1, 4), (-5, 0, 5), (-5, 1, 4)]
H5 = [(-6, 2, 4), (-6, 3, 5), (-5, 0, 5), (-5, 1, 4), (-4, 1, 5)]


def _with_actives(positions, active):
    """Cells at positions, active at the given indices, passive elsewhere."""
    return Configuration(
        Cell(p, CellKind.ACTIVE if i in active else CellKind.PASSIVE)
        for i, p in enumerate(positions)
    )


_each_mode = pytest.mark.parametrize(
    "opts",
    [
        PlannerOptions(),
        PlannerOptions(match_up_to_translation=False),
        PlannerOptions(strict_stability=True),
        PlannerOptions(kind_sensitive=True),
    ],
    ids=["translation", "exact", "strict", "kinds"],
)


def _mode_queries(opts):
    """(start, goal) pairs of 4 and 5 cells that every mode of _each_mode
    can plan: with exact positions each goal is moved onto its start."""
    pairs = [(C4, D4), (E4, F4), (A5, B5), (G5, H5), (C4, F4), (E4, D4)]
    for a, b in pairs:
        if not opts.match_up_to_translation:
            d = tuple(p - q for p, q in zip(min(a), min(b)))
            b = [tuple(p + e for p, e in zip(q, d)) for q in b]
        yield _with_actives(a, {0}), _with_actives(b, {1})


@st.composite
def _pair_query(draw):
    """A mode (translation, exact or kinds) and two connected
    configurations of one size, each grown cell by cell from the origin:
    2-5 cells with translation matching, 2-4 in exact positions. With
    kinds the goal holds the start's kinds in a drawn order."""
    mode = draw(st.sampled_from(["translation", "exact", "kinds"]))
    n = draw(st.integers(2, 4 if mode == "exact" else 5))

    steps = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 11)), min_size=3 * n, max_size=3 * n)

    def grown():
        cells = [(0, 0, 0)]
        for base, face in draw(steps):
            q = add(cells[base % len(cells)], FACE_DIRS[face])
            if q not in cells and len(cells) < n:
                cells.append(q)
        assume(len(cells) == n)
        return cells

    start, goal = grown(), grown()
    kinds = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    goal_kinds = draw(st.permutations(kinds)) if mode == "kinds" else kinds
    opts = PlannerOptions(
        max_states=20_000,
        match_up_to_translation=mode != "exact",
        kind_sensitive=mode == "kinds",
    )
    def actives(ks):
        return {i for i, k in enumerate(ks) if k}

    return opts, _with_actives(start, actives(kinds)), _with_actives(goal, actives(goal_kinds))


class TestOptions:
    @pytest.mark.parametrize("algorithm", ["astar", "bogus", None])
    def test_algorithm_must_be_a_member(self, algorithm):
        with pytest.raises(ValidationError):
            PlannerOptions(algorithm=algorithm)

    @pytest.mark.parametrize("max_states", [float("nan"), True, 2.5, 0, "10"])
    def test_max_states_must_be_a_positive_int(self, max_states):
        with pytest.raises(ValidationError):
            PlannerOptions(max_states=max_states)

    @pytest.mark.parametrize(
        "flag", ["match_up_to_translation", "strict_stability", "kind_sensitive"]
    )
    @pytest.mark.parametrize("value", ["no", "yes", 0.0, 1, None])
    def test_flags_must_be_bools(self, flag, value):
        with pytest.raises(ValidationError, match=flag):
            PlannerOptions(**{flag: value})

    def test_valid_options_accepted(self):
        opts = PlannerOptions(max_states=1, algorithm=Algorithm.BFS)
        assert (opts.max_states, opts.algorithm) == (1, Algorithm.BFS)


class TestHeuristic:
    def test_zero_on_equal(self):
        assert heuristic(TRI3, TRI3) == 0
        assert heuristic(TRI3, TRI3, match_up_to_translation=True) == 0

    def test_single_cell_exact_distance(self):
        c = Configuration.from_positions([(0, 0, 0)])
        g = Configuration.from_positions([(2, 2, 2)])
        assert heuristic(c, g) == 3

    def test_translation_mode_zero_on_translates(self):
        g = TRI3.translate((4, 4, 0))
        assert heuristic(TRI3, g, match_up_to_translation=True) == 0
        assert heuristic(TRI3, g) > 0

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            heuristic(LINE3, Configuration.from_positions([(0, 0, 0)]))

    def test_aligned_assignment_would_overestimate(self):
        # one pivot turns S into a translate of G, so the true quotient
        # distance is 1; a minimum-cost assignment at the canonical
        # alignment evaluates to 2, which is why the translation-mode
        # heuristic uses the per-axis relaxation instead
        s = Configuration.from_positions([(0, 0, 0), (1, -1, 0)])
        g = Configuration.from_positions([(0, 0, 0), (0, 1, 1)])
        assert heuristic(s, g) == 2  # exact-position assignment value
        assert heuristic(s, g, match_up_to_translation=True) <= 1
        result = plan(s, g)
        assert len(result.plan.moves) == 1

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(_equal_size_sets())
    def test_assignment_is_min_over_permutations(self, sides):
        a, b = sides
        best = min(
            sum(lattice_distance(p, q) for p, q in zip(a, perm))
            for perm in itertools.permutations(b)
        )
        assert _assignment_bound(a, b) == best

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(_equal_size_sets(6))
    @example(sides=(((0, 0, 0), (1, 1, 0)), ((0, 0, 0), (3, -1, 2))))
    @example(
        sides=(
            ((0, 0, 0), (1, 1, 0), (2, 0, 0), (4, 0, 2)),
            ((0, 0, 0), (-2, 2, 0), (1, 1, 2), (3, -3, 0)),
        )
    )
    def test_translation_bound_matches_brute_force(self, sides):
        # per axis, the best matching over all pairings and integer shifts
        # (any optimal shift lies between the extreme differences); even
        # sizes are where the median has two candidates
        a, b = sides
        per_axis = []
        for i in range(3):
            xs = [p[i] for p in a]
            best = None
            for perm in set(itertools.permutations(q[i] for q in b)):
                d = [x - y for x, y in zip(xs, perm)]
                for k in range(min(d), max(d) + 1):
                    cost = sum(abs(e - k) for e in d)
                    if best is None or cost < best:
                        best = cost
            per_axis.append(best)
        bx, by, bz = per_axis
        want = max(bx, by, bz, math.ceil((bx + by + bz) / 2))
        ca, cb = Configuration.from_positions(a), Configuration.from_positions(b)
        assert heuristic(ca, cb, True) == want

    def test_admissible_on_all_3cell_box_instances(self, shape_graphs):
        shapes, graph, dists = shape_graphs[3]
        for s in shapes:
            cs = Configuration.from_positions(s)
            for g in shapes:
                d = dists[s].get(g)
                if d is None:
                    continue
                h = heuristic(cs, Configuration.from_positions(g), True)
                assert h <= d, (s, g, h, d)

    def test_consistent_on_all_3cell_box_moves(self, shape_graphs):
        # one move changes either bound by at most 1; the search loop
        # relies on this to treat a state's first expansion as optimal
        shapes, _, _ = shape_graphs[3]
        goals = [Configuration.from_positions(g) for g in shapes]
        for s in shapes:
            cs = Configuration.from_positions(s)
            for move in legal_moves(cs):
                cn = apply_move(cs, move)
                for g in goals:
                    for t in (True, False):
                        d = heuristic(cs, g, t) - heuristic(cn, g, t)
                        assert abs(d) <= 1, (s, move, g.positions, t, d)

    def test_admissible_on_all_4cell_box_pairs(self, shape_graphs):
        # every ordered pair of the 475 four-cell box shapes is reachable;
        # the translation bound never exceeds the pair's distance. One
        # memoized bound per goal serves every state; against the first
        # goal each value is checked with _translation_bound itself
        shapes, _, dists = shape_graphs[4]
        pairs = 0
        for g in shapes:
            bound = _axis_memo_bound(g)
            for s in shapes:
                h, d = bound(s), dists[s][g]
                assert h <= d, (s, g, h, d)
                if g == shapes[0]:
                    assert h == _translation_bound(s, g), (s, g, h)
                pairs += 1
        assert pairs == len(shapes) ** 2 == 225_625

    @pytest.mark.parametrize("translate", [True, False], ids=["translation", "exact"])
    def test_consistent_on_all_4cell_box_moves(self, shape_graphs, translate):
        # |h(c) - h(c')| <= 1 across every legal move of every 4-cell box
        # shape, against a seeded sample of goals; with exact positions each
        # goal sits at a seeded offset, not always at the shapes' origin
        shapes, _, _ = shape_graphs[4]
        rng = np.random.default_rng(404)
        goals = []
        for i in rng.choice(len(shapes), size=8, replace=False):
            off = (0, 0, 0) if translate else random_valid_pos(rng, radius=2)
            g = tuple(sorted(add(p, off) for p in shapes[i]))
            goals.append(_axis_memo_bound(g) if translate else partial(_assignment_bound, b=g))

        moves = 0
        for s in shapes:
            for move in legal_moves(Configuration.from_positions(s)):
                nxt = tuple(sorted(move.destination if p == move.mover else p for p in s))
                for bound in goals:
                    d = bound(s) - bound(nxt)
                    assert abs(d) <= 1, (s, move, d)
                moves += 1
        assert moves > 5 * len(shapes)


class TestPlan:
    def test_trivial(self):
        res = plan(TRI3, TRI3)
        assert res.ok and len(res.plan.moves) == 0
        assert res.stats.states_expanded == 1

    def test_line_to_triangle_matches_oracle(self, shape_graphs):
        shapes, graph, dists = shape_graphs[3]
        oracle = dists[canon_positions(LINE3.positions)][
            canon_positions(TRI3.positions)
        ]
        for algo in Algorithm:
            res = plan(LINE3, TRI3, PlannerOptions(algorithm=algo))
            assert res.ok
            assert len(res.plan.moves) == oracle
            final = replay(LINE3, res.plan)
            assert goal_matches(final, TRI3)

    def test_size_mismatch_is_no_path(self):
        res = plan(Configuration.from_positions([(0, 0, 0), (1, 1, 0)]), TRI3)
        assert res.status is PlanStatus.NO_PATH
        assert res.reason == "size_mismatch"

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_kind_mismatch_is_no_path_without_search(self, algorithm):
        # no move changes a cell's kind, so different active counts can
        # never match; this must be known without searching the space
        line6 = [(k, k, 0) for k in range(6)]
        opts = PlannerOptions(algorithm=algorithm, kind_sensitive=True)
        res = plan(_with_actives(line6, {0}), _with_actives(line6, {0, 5}), opts)
        assert res.status is PlanStatus.NO_PATH
        assert res.reason == "kind_mismatch"
        assert (res.stats.states_expanded, res.stats.frontier_peak) == (0, 0)
        # without kinds the same pair is already at its goal
        assert plan(_with_actives(line6, {0}), _with_actives(line6, {0, 5})).ok

    def test_disconnected_inputs_rejected(self):
        disc = Configuration.from_positions([(0, 0, 0), (2, 2, 0), (4, 4, 0)])
        with pytest.raises(ValidationError):
            plan(disc, TRI3)
        with pytest.raises(ValidationError):
            plan(TRI3, disc)

    def test_budget_exhausted(self):
        res = plan(LINE3, TRI3, PlannerOptions(max_states=1))
        assert res.status is PlanStatus.BUDGET_EXHAUSTED

    def test_bfs_astar_agree_on_all_2_and_3_cell_instances(self, shape_graphs):
        for n in (2, 3):
            shapes, graph, dists = shape_graphs[n]
            bfs = Planner(PlannerOptions(algorithm=Algorithm.BFS))
            astar = Planner(PlannerOptions(algorithm=Algorithm.ASTAR))
            for s in shapes:
                cs = Configuration.from_positions(s)
                for g in shapes:
                    d = dists[s].get(g)
                    if d is None:
                        continue
                    rb = bfs.plan(cs, Configuration.from_positions(g))
                    ra = astar.plan(cs, Configuration.from_positions(g))
                    assert rb.ok and ra.ok
                    assert len(rb.plan.moves) == len(ra.plan.moves) == d

    def test_bfs_counters_match_fifo_reference(self, shape_graphs):
        # BFS tests each state as it is discovered, so it expands no more
        # than a FIFO loop that tests at dequeue, for the same lengths
        shapes, _, _ = shape_graphs[3]
        bfs = Planner(PlannerOptions(algorithm=Algorithm.BFS))
        fewer = 0
        for s in shapes:
            cs = Configuration.from_positions(s)
            for g in shapes:
                cg = Configuration.from_positions(g)
                expanded, length = _fifo_reference(bfs, *_query_ids(bfs, cs, cg))
                res = bfs.plan(cs, cg)
                assert res.stats.states_expanded <= expanded, (s, g)
                assert (len(res.plan.moves) if res.ok else None) == length, (s, g)
                fewer += res.stats.states_expanded < expanded
        assert fewer
        # line -> tetrahedron, 4 moves: the FIFO loop expands 177 states;
        # BFS expands depths 0-2 (37 states) and 26 of depth 3's 66, the
        # last of which discovers the goal, and every expansion enters the
        # memo. The peak is depth 3's 66 plus the goal's one-state layer
        start, goal = Configuration.from_positions(LINE4), Configuration.from_positions(TETRA4)
        fresh = Planner(PlannerOptions(algorithm=Algorithm.BFS))
        assert _fifo_reference(fresh, *_query_ids(fresh, start, goal)) == (177, 4)
        stats = Planner(PlannerOptions(algorithm=Algorithm.BFS)).plan(start, goal).stats
        counters = (stats.states_expanded, stats.frontier_peak, stats.generated, stats.memo_size)
        assert counters == (63, 67, 176, 63)

    def test_plan_length_bounded_below_by_heuristic(self, shape_graphs):
        shapes, _, dists = shape_graphs[3]
        for s in shapes[::5]:
            cs = Configuration.from_positions(s)
            for g in shapes[::7]:
                if dists[s].get(g) is None:
                    continue
                res = plan(cs, Configuration.from_positions(g))
                h = heuristic(cs, Configuration.from_positions(g), True)
                assert len(res.plan.moves) >= h

    def test_exact_position_mode(self):
        g = TRI3.translate((2, 2, 0))
        res = plan(TRI3, g, PlannerOptions(match_up_to_translation=False))
        assert res.ok and len(res.plan.moves) > 0
        final = replay(TRI3, res.plan)
        assert final.positions == g.positions

    def test_non_canonical_start_replays_in_callers_frame(self):
        # moves must come out in the caller's coordinates even when the
        # search internally renormalizes the frame after every step
        start = LINE3.translate((4, -2, 0))
        goal = TRI3.translate((-6, 0, 2))
        res = plan(start, goal)
        assert res.ok
        first = res.plan.moves[0]
        assert first.mover in start.positions
        final = replay(start, res.plan)
        assert goal_matches(final, goal)

    def test_kind_sensitive_mode(self):
        from rhombikit.lattice import Cell, CellKind

        s = Configuration(
            [Cell((0, 0, 0), CellKind.ACTIVE), Cell((1, 1, 0), CellKind.PASSIVE)]
        )
        g = Configuration(
            [Cell((0, 0, 0), CellKind.PASSIVE), Cell((1, 1, 0), CellKind.ACTIVE)]
        )
        # shape-wise the goal is already met; kind-wise it is not
        assert goal_matches(s, g, kind_sensitive=False)
        assert not goal_matches(s, g, kind_sensitive=True)
        res = plan(s, g, PlannerOptions(kind_sensitive=True))
        assert res.ok
        assert len(res.plan.moves) > 0
        final = replay(s, res.plan)
        assert goal_matches(final, g, kind_sensitive=True)

    def test_goal_matches_empty_and_translation(self):
        empty = Configuration([])
        for translate in (True, False):
            with pytest.raises(ValidationError):
                goal_matches(empty, empty, match_up_to_translation=translate)
        with pytest.raises(ValidationError):
            replay(empty, Plan((), SearchStats(0, 0, 0.0), goal=empty))
        off = (2, 0, 2)
        assert goal_matches(TRI3.translate(off), TRI3)
        assert not goal_matches(
            TRI3.translate(off), TRI3, match_up_to_translation=False
        )

    def test_deterministic_serialized_plans(self):
        doc_a = None
        for _ in range(2):
            res = plan(LINE3, TRI3)
            doc = dumps_plan(PlanDoc(StructureDoc(LINE3), res.plan.moves))
            if doc_a is None:
                doc_a = doc
            assert doc == doc_a

    @pytest.mark.parametrize("kind_sensitive", [False, True])
    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_builds_pivot_moves_only_for_the_plan(
        self, monkeypatch, algorithm, kind_sensitive
    ):
        # states are position tuples from start to goal: the search
        # builds no Configuration, and a PivotMove only per plan move
        line5 = [(k, k, 0) for k in range(5)]
        bent5 = [(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 2, 1), (4, 2, 2)]
        start, goal = _with_actives(line5, {4}), _with_actives(bent5, {4})
        built = {"moves": 0, "configs": 0}
        post_init, init = PivotMove.__post_init__, Configuration.__init__

        def counted_post_init(self):
            built["moves"] += 1
            post_init(self)

        def counted_init(self, cells):
            built["configs"] += 1
            init(self, cells)

        monkeypatch.setattr(PivotMove, "__post_init__", counted_post_init)
        monkeypatch.setattr(Configuration, "__init__", counted_init)
        opts = PlannerOptions(algorithm=algorithm, kind_sensitive=kind_sensitive)
        res = Planner(opts).plan(start, goal)
        assert res.ok and len(res.plan.moves) == (6 if kind_sensitive else 4)
        assert built == {"moves": len(res.plan.moves), "configs": 0}

    @_each_mode
    def test_reused_planner_matches_fresh_across_goals(self, opts):
        # nothing of one query may leak into the next through a reused
        # planner, whose ids, memo, moves and emitted positions carry over
        reused = Planner(opts)
        for start, goal in _mode_queries(opts):
            assert not goal_matches(start, goal, True, opts.kind_sensitive)
            got, want = reused.plan(start, goal), Planner(opts).plan(start, goal)
            where = (start.positions, goal.positions)
            assert got.status is want.status, where
            assert (got.plan and got.plan.moves) == (want.plan and want.plan.moves)
            for name in ("states_expanded", "frontier_peak", "generated", "evaluations"):
                assert getattr(got.stats, name) == getattr(want.stats, name), (name, where)

    def test_search_calls_no_bound(self, monkeypatch):
        # the benchmark's tracer wraps _translation_bound and reports its
        # calls as bound evaluations: the search evaluates none (its
        # layers grow from both ends, 18 expansions over both sides), and
        # heuristic() calls it once
        calls = [0]
        original = rhombikit.planner._translation_bound

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(rhombikit.planner, "_translation_bound", counted)
        start, goal = Configuration.from_positions(LINE4), Configuration.from_positions(TETRA4)
        res = Planner().plan(start, goal)
        assert res.ok and len(res.plan.moves) == 4
        assert (res.stats.states_expanded, res.stats.frontier_peak) == (18, 52)
        assert calls[0] == res.stats.evaluations == 0
        assert heuristic(start, goal, True) <= 4 and calls[0] == 1

    def test_strict_lengths_match_the_strict_shape_graph(self, strict_shape_graphs):
        # every 3-cell pair and a stride of 4-cell pairs, through one
        # reused planner per algorithm; every strict plan replays strictly
        planners = [Planner(PlannerOptions(algorithm=a, strict_stability=True)) for a in Algorithm]
        for n, starts, goals in ((3, slice(None), slice(None)), (4, slice(None, None, 7), slice(3, None, 11))):
            shapes, _, dists = strict_shape_graphs[n]
            for s in shapes[starts]:
                cs = Configuration.from_positions(s)
                for g in shapes[goals]:
                    want = dists[s].get(g)
                    for planner in planners:
                        res = planner.plan(cs, Configuration.from_positions(g))
                        assert (len(res.plan) if res.ok else None) == want, (s, g)
                        if res.ok:
                            replay(cs, res.plan, strict_stability=True)

    def test_strict_stability_option(self):
        res = plan(LINE3, TRI3, PlannerOptions(strict_stability=True))
        # whatever the outcome, every move of a successful plan must
        # satisfy the strict checker on replay
        if res.ok:
            replay(LINE3, res.plan, strict_stability=True)


class TestPackedStates:
    @pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
    def test_successors_match_oracle_on_4cell_box_shapes(self, shape_graphs, strict):
        shapes, _, _ = shape_graphs[4]
        planner = Planner(PlannerOptions(strict_stability=strict))
        for s in shapes:
            got = [
                tuple(map(unpack, planner._states[nxt]))
                for nxt in planner._successors(planner._id(tuple(map(pack, s))))
            ]
            assert got == oracle_successors(s, strict), s

    @pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
    def test_rotation_maps_successors_on_4cell_box_shapes(self, shape_graphs, strict):
        # rotating a shape rotates its successor multiset. The 90-degree
        # turn about z and the 120-degree turn about (1, 1, 1) generate all
        # 24 lattice rotations, so these two stand for every one
        gens = [
            ROTATION_INDEX[((0, -1, 0), (1, 0, 0), (0, 0, 1))],
            ROTATION_INDEX[((0, 0, 1), (1, 0, 0), (0, 1, 0))],
        ]
        group = {IDENTITY}
        while len(grown := group | {compose(g, r) for g in gens for r in group}) > len(group):
            group = grown
        assert len(group) == 24
        planner = Planner(PlannerOptions(strict_stability=strict))

        def successors(positions):
            i = planner._id(tuple(map(pack, canon_positions(positions))))
            return sorted(
                tuple(map(unpack, planner._states[j])) for j in planner._successors(i)
            )

        shapes, _, _ = shape_graphs[4]
        for s in shapes:
            after = successors(s)
            for r in gens:
                turned = successors([apply_rotation(r, p) for p in s])
                want = sorted(canon_positions([apply_rotation(r, p) for p in t]) for t in after)
                assert turned == want, (s, r)

    def test_kind_sensitive_successors_keep_each_kind(self, shape_graphs):
        # the oracle here is legal_moves plus apply_move on Configurations:
        # each successor is the moved configuration, canonicalized, with
        # every cell's kind where apply_move put it
        shapes, _, _ = shape_graphs[4]
        planner = Planner(PlannerOptions(kind_sensitive=True))
        for i, s in enumerate(shapes):
            c = _with_actives(s, {i % 4, (i // 4) % 4})
            state = tuple(
                2 * pack(cell.pos) + (cell.kind is CellKind.PASSIVE) for cell in c
            )
            got = [
                tuple((unpack(e >> 1), e & 1) for e in planner._states[nxt])
                for nxt in planner._successors(planner._id(state))
            ]
            want = [
                tuple(
                    (cell.pos, int(cell.kind is CellKind.PASSIVE))
                    for cell in canonicalize(apply_move(c, m))
                )
                for m in legal_moves(c)
            ]
            assert got == want, s

    @pytest.mark.parametrize("kind_bits", [0, 1], ids=["plain", "kinds"])
    @pytest.mark.parametrize("translate", [False, True], ids=["exact", "translation"])
    def test_step_matches_roll_then_shift(self, kind_bits, translate):
        # the two-pass reference _step replaces: move the element (its kind
        # bit kept) and sort, then with translate subtract the smallest
        # position from every element. The reference also gives the shift
        def reference(state, at, dest):
            rest = list(state)
            e = rest.pop(at)
            rolled = tuple(sorted(rest + [(dest << kind_bits) + (e & kind_bits)]))
            m = rolled[0] >> kind_bits if translate else 0
            return tuple(x - (m << kind_bits) for x in rolled), m

        rng = np.random.default_rng(23)
        shifts = 0
        for _ in range(500):
            n = int(rng.integers(1, 8))
            offset = tuple(2 * int(v) for v in rng.integers(-4, 5, size=3))
            packed = sorted(pack(p) + pack(offset) for p in random_connected_positions(rng, n))
            state = tuple((p << kind_bits) + int(rng.integers(2)) * kind_bits for p in packed)
            dest = packed[rng.integers(n)] + PACKED_DIRS[rng.integers(12)]
            if dest in packed:
                continue
            at = int(rng.integers(n))
            got = _step(state, at, dest, kind_bits, translate)
            want, shift = reference(state, at, dest)
            assert got == want
            assert type(got) is tuple and all(type(e) is int for e in got)
            shifts += shift != 0
        assert shifts > 0 if translate else shifts == 0

    @pytest.mark.parametrize("translate", [True, False])
    def test_exact_range_guarded(self, translate):
        # the goal's y and z reach D + 1 from the start's smallest
        # position; with max_states steps of drift that is the range's edge
        far = PACK_LIMIT - 11
        goal = TRI3.translate((0, far, far))
        opts = PlannerOptions(max_states=9, match_up_to_translation=translate)
        res = plan(LINE3, goal, opts)
        assert res.ok if translate else res.status is PlanStatus.BUDGET_EXHAUSTED
        opts = PlannerOptions(max_states=10, match_up_to_translation=translate)
        if translate:  # each shape is packed in its own frame
            assert plan(LINE3, goal, opts).ok
        else:
            with pytest.raises(ValidationError, match="exact range"):
                plan(LINE3, goal, opts)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(_pair_query(), st.data())
    def test_far_from_origin_plans_shift_with_the_input(self, query, data):
        # a query translated by an even offset, far from the origin and
        # still inside the exact range less max_states, plans the plain
        # query's moves shifted by that offset, in every mode
        opts, start, goal = query
        near = plan(start, goal, opts)
        assume(near.ok)
        reach = PACK_LIMIT - opts.max_states - 20
        half = st.integers(-(10**15), 10**15), st.integers(-reach // 2, reach // 2)
        off = tuple(2 * v for v in data.draw(st.tuples(half[0], half[1], half[1])))
        far = plan(start.translate(off), goal.translate(off), opts)
        assert far.ok
        assert far.plan.moves == tuple(
            PivotMove(add(m.mover, off), add(m.substrate, off), m.from_dir, m.to_dir)
            for m in near.plan.moves
        )
        replay(start.translate(off), far.plan)

    def test_search_counters(self):
        assert SearchStats(0, 0, 0.0) == SearchStats(0, 0, 0.0, 0, 0)
        planner = Planner()
        start, goal = Configuration.from_positions(LINE4), Configuration.from_positions(TETRA4)
        first = planner.plan(start, goal).stats
        # 126 states entered into the two parent maps besides the start and
        # the goal; every expansion on either side went through the memo
        assert (first.states_expanded, first.generated, first.memo_size) == (18, 126, 18)
        assert (first.evaluations, first.memo_hits) == (0, 0)
        again = planner.plan(start, goal).stats
        # _emit adds no memo entry, not even for the meeting state
        assert (again.generated, again.memo_size) == (126, 18)
        assert (again.evaluations, again.memo_hits) == (0, 18)
        assert len(planner._succ) == 18
        bfs = Planner(PlannerOptions(algorithm=Algorithm.BFS)).plan(start, goal).stats
        assert bfs.evaluations == 0
        # the goal is found as its parent's successors are taken, so
        # every BFS expansion enters the memo too
        assert bfs.memo_hits == 0 and bfs.memo_size == bfs.states_expanded

    def test_budget_exit_counts_no_successors_for_the_last_expansion(self):
        planner = Planner(PlannerOptions(max_states=5))
        start, goal = Configuration.from_positions(LINE4), Configuration.from_positions(TETRA4)
        first = planner.plan(start, goal)
        assert first.status is PlanStatus.BUDGET_EXHAUSTED
        assert (first.stats.memo_size, first.stats.memo_hits) == (4, 0)
        assert planner.plan(start, goal).stats.memo_hits == 4

    @pytest.mark.parametrize("budget", [2**31 - 2, 2**31 + 1])
    def test_max_states_past_the_exact_range(self, budget):
        # translation matching takes its drift margin from the cell count,
        # so any budget plans; exact-position search takes the budget as
        # its margin and names it when that leaves the exact range
        goal = TRI3.translate((5, -3, 0))
        assert plan(LINE3, goal, PlannerOptions(max_states=budget)).ok
        exact = PlannerOptions(max_states=budget, match_up_to_translation=False)
        with pytest.raises(ValidationError, match="exact range.*max_states"):
            plan(LINE3, TRI3, exact)
        below = PlannerOptions(max_states=2**31 - 3, match_up_to_translation=False)
        assert plan(LINE3, TRI3, below).ok  # LINE3 spans 2 steps in y


class TestStateIds:
    START = Configuration.from_positions(LINE4)
    GOAL = Configuration.from_positions(TETRA4)

    def test_ids_round_trip_and_persist_across_queries(self):
        planner = Planner()
        planner.plan(self.START, self.GOAL)
        states = list(planner._states)
        assert [planner._ids[s] for s in states] == list(range(len(states)))
        assert all(planner._id(s) == i for i, s in enumerate(states))
        assert planner._states == states  # _id registers nothing known
        # a later query over the same space keeps every id and adds on top
        planner.plan(self.GOAL, Configuration.from_positions(C4))
        assert planner._states[: len(states)] == states
        assert all(planner._ids[s] == i for i, s in enumerate(states))
        # memo entries hold ids; they name what a fresh generator builds
        fresh = Planner()
        for i, succ in planner._succ.items():
            assert all(type(j) is int for j in succ)
            want = fresh._successors(fresh._id(planner._states[i]))
            assert [planner._states[j] for j in succ] == [fresh._states[j] for j in want]

    def test_each_planner_numbers_its_own_states(self):
        a, b = Planner(), Planner(PlannerOptions(kind_sensitive=True))
        a.plan(self.START, self.GOAL)
        before = list(a._states)
        assert (b._ids, b._states, b._succ) == ({}, [], {})
        b.plan(self.START, self.GOAL)
        assert a._states == before  # b's states went to b alone

    def test_each_state_expanded_at_most_once(self, monkeypatch):
        # each side enters a state into its map once and expands it at
        # most once, and the two sides never expand the same state, so no
        # state is expanded twice in one search. _emit expands none: it reads
        # the memo, and computes, without storing, the successor ids of a
        # meeting state the search never expanded forward
        expanded = []
        successors = Planner._successors

        def spy(self, i):
            expanded.append(i)
            return successors(self, i)

        monkeypatch.setattr(Planner, "_successors", spy)
        planner = Planner()
        for start, goal in ((self.START, self.GOAL), (self.GOAL, Configuration.from_positions(C4))):
            del expanded[:]
            res = planner.plan(start, goal)
            assert res.ok
            assert len(expanded) == len(set(expanded)) == res.stats.states_expanded
            assert res.stats.evaluations == 0


class TestMeetInTheMiddle:
    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(_pair_query())
    def test_default_matches_forward_bfs(self, query):
        # the default search against BFS and against the tests' own FIFO
        # loop: equal lengths, both plans replay, and two fresh planners
        # write the same bytes
        opts, start, goal = query
        bfs = Planner(dataclasses.replace(opts, algorithm=Algorithm.BFS)).plan(start, goal)
        assume(bfs.ok)
        got = [Planner(opts).plan(start, goal) for _ in range(2)]
        assert all(r.ok for r in got)
        ref = Planner(opts)
        _, length = _fifo_reference(ref, *_query_ids(ref, start, goal))
        assert len(got[0].plan) == len(bfs.plan) == length
        for res in (bfs, got[0]):
            replay(start, res.plan)
        a, b = (dumps_plan(PlanDoc(StructureDoc(start), r.plan.moves)) for r in got)
        assert a == b

    def test_strict_astar_matches_bfs(self):
        # strict mode grows the start's side only under either algorithm
        queries = list(_mode_queries(PlannerOptions(strict_stability=True)))
        queries += [(LINE3, TRI3), (TRI3, LINE3)]
        astar = Planner(PlannerOptions(strict_stability=True))
        bfs = Planner(PlannerOptions(strict_stability=True, algorithm=Algorithm.BFS))
        for start, goal in queries:
            a, b = astar.plan(start, goal), bfs.plan(start, goal)
            assert a.status is b.status
            assert (a.plan and a.plan.moves) == (b.plan and b.plan.moves)
            for name in ("states_expanded", "frontier_peak", "generated", "memo_size"):
                assert getattr(a.stats, name) == getattr(b.stats, name), name

    def test_meeting_lengths_match_the_shape_graph(self, shape_graphs):
        # every 3-cell pair, both ways, through one reused planner
        shapes, _, dists = shape_graphs[3]
        planner = Planner()
        for s in shapes:
            cs = Configuration.from_positions(s)
            for g in shapes:
                res = planner.plan(cs, Configuration.from_positions(g))
                want = dists[s].get(g)
                assert (len(res.plan) if res.ok else None) == want, (s, g)
                if res.ok:
                    replay(cs, res.plan)

    def test_one_move_object_per_distinct_move(self, monkeypatch):
        # a Planner builds a PivotMove once per move and hands the same
        # object to every plan that makes it; another Planner builds its own
        start, goal = Configuration.from_positions(LINE4), Configuration.from_positions(TETRA4)
        planner = Planner()
        first = planner.plan(start, goal).plan.moves
        built = [0]
        post_init = PivotMove.__post_init__

        def counted(self):
            built[0] += 1
            post_init(self)

        monkeypatch.setattr(PivotMove, "__post_init__", counted)
        again = planner.plan(start, goal).plan.moves
        assert built[0] == 0
        assert all(a is b for a, b in zip(first, again))
        fresh = Planner().plan(start, goal).plan.moves
        assert fresh == first and built[0] == len(fresh)
        assert not any(a is b for a, b in zip(first, fresh))

    def test_move_positions_are_the_callers_tuples(self):
        # positions of the start reappear in the moves as the start's own
        # tuple objects, not equal copies
        start = Configuration.from_positions([(k + 4, k, 2) for k in range(5)])
        goal = Configuration.from_positions(
            [(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 2, 1), (4, 2, 2)]
        )
        res = Planner().plan(start, goal)
        own = {p: p for p in start.positions}
        held = [p for m in res.plan.moves for p in (m.mover, m.substrate) if p in own]
        assert held and all(p is own[p] for p in held)

    def test_equal_state_elements_share_one_int(self):
        planner = Planner(PlannerOptions(kind_sensitive=True))
        assert planner.plan(_with_actives(LINE4, {0}), _with_actives(TETRA4, {1})).ok
        elements = [e for state in planner._states for e in state]
        assert len({id(e) for e in elements}) == len(set(elements)) < len(elements)


def _goal_key(c: Configuration, translate: bool, kinds: bool) -> tuple:
    """What the planner's goal test compares, from Configuration methods:
    the cells, translated to the origin with translation matching, with
    their kinds when kind-sensitive."""
    if translate:
        c = canonicalize(c)
    return tuple((cell.pos, kinds and cell.kind) for cell in c)


class TestMemoLayout:
    @_each_mode
    def test_each_emitted_move_is_the_first_roll_to_its_successor(self, opts):
        # _emit decodes a step from the parent's memo as the first roll
        # that reaches the child: the one the search recorded, since a
        # later roll to the same child is no shorter. legal_moves lists
        # the rolls in the memo's order, so that is the first legal move
        # whose result has the next configuration's goal key
        strict = opts.strict_stability
        translate, kinds = opts.match_up_to_translation, opts.kind_sensitive
        queries = list(_mode_queries(opts))
        if not strict:  # a 2-cell move always lands on one attachment
            two = Configuration.from_positions
            queries += [
                (two([(0, 0, 0), (1, 1, 0)]), two(b))
                for b in ([(0, 0, 0), (1, 0, 1)], [(0, 0, 0), (1, -1, 0)])
            ]
        planner = Planner(opts)
        ties = 0
        for start, goal in queries:
            res = planner.plan(start, goal)
            assert res.ok
            c = start
            for move in res.plan.moves:
                nxt = apply_move(c, move, strict)
                key = _goal_key(nxt, translate, kinds)
                same = [
                    m
                    for m in legal_moves(c, strict)
                    if _goal_key(apply_move(c, m, strict), translate, kinds) == key
                ]
                assert move == same[0]
                ties += len(same) > 1
                c = nxt
            assert goal_matches(c, goal, translate, kinds)
        # up to translation, either cell of two of one kind can make a
        # 2-cell step, so there the first and the last such roll differ
        if translate and not strict:
            assert ties

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_memo_holds_untracked_tuples_of_ints(self, algorithm):
        # tuples of ints only: the cyclic GC untracks them at its first
        # pass over them, so later collections skip the memo
        planner = Planner(PlannerOptions(algorithm=algorithm, kind_sensitive=True))
        assert planner.plan(_with_actives(LINE4, {0}), _with_actives(TETRA4, {1})).ok
        gc.collect()
        assert planner._succ
        for succ in planner._succ.values():
            assert type(succ) is tuple and not gc.is_tracked(succ)
            assert all(type(x) is int for x in succ)

    def test_plans_share_one_tuple_per_position(self):
        # the plans a Planner returns hold each distinct position once,
        # across moves and across queries, so results a caller keeps
        # stay small; the positions are those of a fresh Planner's plans
        line5 = Configuration.from_positions([(k, k, 0) for k in range(5)])
        bent5 = Configuration.from_positions(
            [(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 2, 1), (4, 2, 2)]
        )
        planner = Planner()
        results = [planner.plan(line5, bent5), planner.plan(bent5, line5)]
        fresh = [Planner().plan(line5, bent5), Planner().plan(bent5, line5)]
        assert all(r.ok for r in results)
        assert [r.plan.moves for r in results] == [r.plan.moves for r in fresh]
        held = [p for r in results for m in r.plan.moves for p in (m.mover, m.substrate)]
        assert len({id(p) for p in held}) == len(set(held)) < len(held)

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads the RSS from /proc"
    )
    def test_one_shot_bfs_peak_rss_ceiling(self):
        # BFS line -> bent over 6 cells, with a fresh Planner as
        # `rhombikit plan` runs it: 34,657 expansions. Measured from the
        # RSS after the blocker-table build to the peak RSS (VmHWM: unlike
        # ru_maxrss, it does not carry over the forking parent's peak)
        code = textwrap.dedent(
            """
            from rhombikit import geometry
            from rhombikit.lattice import Configuration
            from rhombikit.planner import Algorithm, Planner, PlannerOptions

            def status_kb(field):
                with open("/proc/self/status") as f:
                    for line in f:
                        if line.startswith(field + ":"):
                            return int(line.split()[1])

            geometry.blocker_table()
            line = [(k, k, 0) for k in range(6)]
            bent = line[:3] + [(2 - k, 2 + k, 0) for k in (1, 2, 3)]
            before_kb = status_kb("VmRSS")
            opts = PlannerOptions(max_states=300_000, algorithm=Algorithm.BFS)
            res = Planner(opts).plan(
                Configuration.from_positions(line), Configuration.from_positions(bent)
            )
            print(res.status.value, len(res.plan), res.stats.states_expanded,
                  (status_kb("VmHWM") - before_kb) / 1024)
            """
        )
        package_root = str(Path(rhombikit.planner.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(
            p for p in (package_root, os.environ.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=pythonpath),
            timeout=300,
        )
        assert out.returncode == 0, out.stderr
        status, length, expanded, grown_mb = out.stdout.split()
        assert (status, length, expanded) == ("success", "12", "34657")
        assert float(grown_mb) < 40


class TestReplay:
    def test_empty_plan(self):
        p = Plan((), SearchStats(0, 0, 0.0))
        assert replay(TRI3, p) == TRI3

    def test_emitted_plans_replay_with_connected_intermediates(self):
        from rhombikit.kinematics import apply_move
        from rhombikit.lattice import is_connected

        res = plan(LINE3, TRI3)
        current = LINE3
        for move in res.plan.moves:
            current = apply_move(current, move)
            assert is_connected(current)
        assert goal_matches(current, TRI3)

    def test_corrupted_plan_detected(self):
        res = plan(LINE3, TRI3)
        moves = list(res.plan.moves)
        bad = PivotMove((4, 4, 0), (3, 3, 0), (1, 1, 0), (1, 0, 1))
        corrupted = Plan(
            tuple([bad] + moves[1:]),
            res.plan.stats,
            goal=res.plan.goal,
        )
        with pytest.raises((IllegalMove, ValidationError)) as ei:
            replay(LINE3, corrupted)
        if isinstance(ei.value, IllegalMove):
            assert ei.value.index == 0

    def test_goal_mismatch_detected(self):
        res = plan(LINE3, TRI3)
        truncated = Plan(
            res.plan.moves[:-1],
            res.plan.stats,
            goal=res.plan.goal,
        )
        with pytest.raises(ValidationError, match="goal"):
            replay(LINE3, truncated)
