"""Search for pivot-move sequences between configurations.

States are configurations deduplicated up to translation (canonical
form); a goal is reached when the shapes coincide, optionally also
matching cell kinds. The search's goal test and goal_matches (which
replay uses) compare the same canonical key. One best-first loop runs
both algorithms: A* orders states by depth plus a lower bound, and
breadth-first search is the same loop with a zero bound, which pops
states in (depth, discovery) order just as a FIFO queue would. Both
return minimal plans; A* expands fewer states. Because every bound used
is consistent (one move changes it by at most 1), the first expansion of
a state is at its optimal depth, so a single parent table holding each
state's best depth also serves as the closed set.

A state is a sorted tuple of ints, one per cell: the cell's position
packed by lattice.pack (x * 2**64 + y * 2**32 + z), which keeps the
(x, y, z) order, so tie-breaks and plans are those of position tuples.
In kind-sensitive mode each element is 2 * packed + kind bit (active 0,
passive 1), which sorts the same way. The search runs in the start's
frame: positions are taken relative to the start's smallest one, and
with translation matching every state is shifted to its own smallest
position (one int subtraction per cell, in _step); _emit adds the
shifts and the start's position back. A packed position is exact while
its y and z lie within lattice.PACK_LIMIT (2**31) of the frame's origin.
A canonical connected state of n cells stays within n - 1 steps of its
origin per axis, and a move reaches three steps further (one for the
mover, two for a roll's shadow), so with translation matching plan()
checks the start and the goal with n + 2 steps of margin, which any
connected shape passes. Without it no cell drifts more than one step per
expansion, so plan() checks that every y and z of the start and the goal
stays inside the range with max_states steps to spare, and raises
ValidationError naming max_states otherwise.

Each Planner numbers the states it meets: a state gets a small int id
the first time it is generated (_ids maps the tuple to its id, _states
maps it back), and from then on the search handles ids only. The move
generator kinematics._legal_rolls takes the packed positions and names
each roll's mover by its index in them, which is its index in the state;
a successor is its parent's tuple with the element at that index removed
and the destination's (same kind bit) inserted in order, shifted when its
smallest position moved. _step builds it as one list and makes one
tuple of it; _successors and _emit both take that step. A successor is
kept once in the registry however many parents reach it. Successors
are memoized per Planner, so that repeated queries over one state space
(parameter sweeps, test batteries) stay cheap, in ints only: _succ
maps an id to the tuple of its successor ids in generator order, and
nothing else. A tuple of ints refers to nothing the cyclic GC must
follow, so the collector untracks it at its first pass and later
collections skip the memo. The parent table (id -> depth, parent id,
bound), the heap entries and the goal test key on ids. PivotMoves are
built only for the returned plan: for each step _emit runs the
generator on the parent again and takes the roll at the child's first
index in the parent's memo entry, which is the one the search recorded
(a later roll to the same child is no shorter and is skipped), builds
its PivotMove with kinematics._pivot, and takes the shift from _step.
The Planner hands out one tuple per distinct position across the plans
it returns (_emitted, kept like the axis tuples), so the results a
caller keeps hold each position once.

The exact-position heuristic is an optimal assignment between cell
positions under the lattice step metric (each move relocates one cell by
one step, so the matching cost never overestimates), solved on plain
ints by shortest augmenting paths. For translation-invariant matching an
assignment at any fixed alignment can overestimate the true quotient
distance, so the heuristic instead uses a translation-minimized per-axis
relaxation, which is admissible and consistent on the quotient; see the
test suite for the counterexample that rules out the aligned-assignment
variant. That relaxation compares axis profiles (the sorted coordinates
per axis). What a bound reads of a state, its bound input, does not
depend on the goal, so each Planner computes it once per id, on the id's
first evaluation, and keeps it for later plan() calls: the axis profile
with translation matching (each axis tuple shared with every equal one
the Planner has seen), else the positions. Positions come from a table
that decodes each state element once, on first sight (_Positions). The
bound itself depends on the goal, so it is evaluated once per state per
plan() call and kept in the state's parent-table entry, where a re-push
at a shorter depth finds it. The goal's profile is computed once per
plan() call and carries one memo per axis, which maps a state's sorted
coordinates on that axis to its bound against the goal's; since one move
changes at most one coordinate per axis, most evaluations find all three
axes there. The memos live in the goal profile, so they last one plan()
call and are never shared between goals.
"""

from __future__ import annotations

import heapq
import operator
import time
from bisect import insort
from dataclasses import dataclass, field
from enum import Enum

from .errors import IllegalMove, ValidationError
from .kinematics import PivotMove, _legal_rolls, _pivot, apply_move
from .kinematics import legal_moves  # noqa: F401 - perfbench's tracer patches it here
from .lattice import (
    PACKED_DIRS,
    CellKind,
    Configuration,
    Pos,
    _as_int_in,
    _echo,
    _require_nonempty,
    is_connected,
    pack_frame,
    unpack,
)


class Algorithm(Enum):
    BFS = "bfs"
    ASTAR = "astar"


class PlanStatus(Enum):
    SUCCESS = "success"
    NO_PATH = "no_path"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class PlannerOptions:
    max_states: int = 1_000_000
    algorithm: Algorithm = Algorithm.ASTAR
    match_up_to_translation: bool = True
    strict_stability: bool = False
    kind_sensitive: bool = False

    def __post_init__(self) -> None:
        budget = _as_int_in(self.max_states, "max_states", 1)
        object.__setattr__(self, "max_states", budget)
        if not isinstance(self.algorithm, Algorithm):
            raise ValidationError(f"not an Algorithm: {_echo(self.algorithm)}")
        for name in ("match_up_to_translation", "strict_stability", "kind_sensitive"):
            value = getattr(self, name)
            if type(value) is not bool:
                raise ValidationError(f"{name} must be a bool, got {_echo(value)}")


@dataclass(frozen=True, slots=True)
class SearchStats:
    """Counters of one plan() call. generated counts the successors
    pushed onto the frontier (the start not included); memo_size is the
    number of states whose successors the Planner holds at return;
    evaluations counts bound evaluations, one per distinct state in the
    parent table under A* and 0 under BFS; memo_hits counts the
    expansions whose successors the memo already held. Those two are
    derived at return, not counted per state."""

    states_expanded: int
    frontier_peak: int
    wall_time: float
    generated: int = 0
    memo_size: int = 0
    evaluations: int = 0
    memo_hits: int = 0


@dataclass(frozen=True, slots=True)
class Plan:
    """A move sequence, replayable from the start configuration it was
    planned for, plus the goal criterion it was planned against."""

    moves: tuple[PivotMove, ...]
    stats: SearchStats
    goal: Configuration | None = None
    match_up_to_translation: bool = True
    kind_sensitive: bool = False

    def __len__(self) -> int:
        return len(self.moves)


@dataclass(frozen=True, slots=True)
class PlanResult:
    status: PlanStatus
    plan: Plan | None = None
    reason: str | None = None
    stats: SearchStats = field(
        default_factory=lambda: SearchStats(0, 0, 0.0)
    )

    @property
    def ok(self) -> bool:
        return self.status is PlanStatus.SUCCESS


# --------------------------------------------------------------------------
# heuristics
# --------------------------------------------------------------------------


def _assignment_bound(a: tuple[Pos, ...], b: tuple[Pos, ...]) -> int:
    """Minimum total lattice distance over one-to-one pairings of a and b.

    Shortest augmenting paths with dual potentials (the Hungarian method
    in the form of Jonker & Volgenant, Computing 1987): O(n^3) on plain
    ints, one row added per phase. a and b have the same length. Columns
    are 1-based; column 0 and row 0 are the virtual start of each phase.
    """
    cost = [None]
    for p in a:
        row = [0]
        for q in b:
            dx = abs(p[0] - q[0])
            dy = abs(p[1] - q[1])
            dz = abs(p[2] - q[2])
            # lattice_distance, inlined: it validates both positions per call
            row.append(max(dx, dy, dz, -((dx + dy + dz) // -2)))
        cost.append(row)
    n = len(b)
    cols = range(1, n + 1)
    inf = 1 << 62
    u = [0] * (n + 1)  # row potentials
    v = [0] * (n + 1)  # column potentials
    owner = [0] * (n + 1)  # row assigned to each column, 0 for none
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        slack = [inf] * (n + 1)
        way = [0] * (n + 1)  # previous column on the shortest path
        used = [False] * (n + 1)
        while owner[j0]:  # grow the tree until it reaches a free column
            used[j0] = True
            i0 = owner[j0]
            row, ui = cost[i0], u[i0]
            delta, j1 = inf, 0
            for j in cols:
                if not used[j]:
                    r = row[j] - ui - v[j]
                    if r < slack[j]:
                        slack[j], way[j] = r, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:  # flip the augmenting path
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    return sum(cost[owner[j]][j] for j in cols)


def _axes(positions: tuple[Pos, ...]) -> tuple:
    """The x, y and z coordinates of sorted positions, each a sorted
    tuple (hashable, so it can key an axis memo).

    The x coordinates of sorted positions come out sorted already.
    """
    xs, ys, zs = zip(*positions)
    return xs, tuple(sorted(ys)), tuple(sorted(zs))


def _axis_bound(sa, ga) -> int:
    """min over integer shifts of the optimal 1D matching cost.

    Sorted-to-sorted matching is optimal on a line, and the best shift of
    the sorted differences d is their median d[m]. The total deviation
    from it is sum(d[m+1:]) - sum(d[:m]) + d[m] * (m - (n - m - 1)): each
    of the m entries below the median adds d[m], each of the n - m - 1
    above it takes d[m] away.
    """
    d = sorted(map(operator.sub, sa, ga))
    m = len(d) // 2
    return sum(d[m + 1:]) - sum(d[:m]) + d[m] * (2 * m + 1 - len(d))


def _translation_bound(a_axes: tuple, goal_profile: tuple) -> int:
    """The translation-minimized per-axis bound between a state's axis
    profile (see _axes) and a goal profile (see _bound).

    Each axis's bound is looked up in that axis's memo, which belongs to
    the goal profile, and computed only on a miss: it depends on nothing
    but the state's and the goal's sorted coordinates on the axis.
    """
    (sx, sy, sz), ((gx, mx), (gy, my), (gz, mz)) = a_axes, goal_profile
    bx = mx.get(sx)
    if bx is None:
        bx = mx[sx] = _axis_bound(sx, gx)
    by = my.get(sy)
    if by is None:
        by = my[sy] = _axis_bound(sy, gy)
    bz = mz.get(sz)
    if bz is None:
        bz = mz[sz] = _axis_bound(sz, gz)
    return max(bx, by, bz, -((bx + by + bz) // -2))


def heuristic(
    c: Configuration,
    goal: Configuration,
    match_up_to_translation: bool = False,
) -> int:
    """Admissible lower bound on the number of moves from c to goal.

    Exact-position mode pairs the cells by a minimum-cost assignment
    under the lattice step metric. Translation-invariant mode minimizes a
    per-axis matching relaxation over all alignments instead, because no
    single alignment's assignment is a valid lower bound on the
    translation quotient. Zero exactly when the goal criterion already
    holds.
    """
    _require_nonempty(c, goal)
    if len(c) != len(goal):
        raise ValidationError(
            f"configurations differ in size: {len(c)} vs {len(goal)}"
        )
    translate = match_up_to_translation
    a = _axes(c.positions) if translate else c.positions
    bound, goal_profile = _bound(goal.positions, translate)
    return bound(a, goal_profile)


def _bound(goal: tuple[Pos, ...], translate: bool) -> tuple:
    """(bound, goal profile) of a matching mode and a goal's positions,
    the bound called as bound(a, goal_profile) with a state's bound input
    a: its axis profile (see _axes) with translate, else its positions.
    With translate the goal profile is the goal's sorted coordinates per
    axis, each paired with an empty memo of state bounds on that axis;
    else the goal's positions. plan() calls this once per call, so the
    memos last that call and hold one goal's values, and a wrapper
    installed on the bound's module name before then sees every
    evaluation."""
    if not translate:
        return _assignment_bound, goal
    return _translation_bound, tuple((g, {}) for g in _axes(goal))


# --------------------------------------------------------------------------
# search
# --------------------------------------------------------------------------

# a sorted tuple of packed positions; when kind-sensitive, each element is
# 2 * packed + kind bit (active 0, passive 1), which sorts the same way
_State = tuple


def _state(c: Configuration, origin: Pos, kind_bits: int, margin: int = 0) -> _State:
    """c as a state in the frame of origin (see lattice.pack_frame)."""
    packed = pack_frame(c.positions, origin, margin)
    if kind_bits:
        return tuple(
            (p << 1) + (cell.kind is CellKind.PASSIVE)
            for p, cell in zip(packed, c.cells)
        )
    return packed


def _step(
    state: _State, at: int, dest: int, kind_bits: int, translate: bool
) -> tuple[_State, int]:
    """The goal key of state with its element at index at moved to packed
    position dest, keeping the element's kind bit. With translate the
    key is shifted so its smallest position is the origin. Returns the
    key and the packed shift subtracted (0 when the minimum stays put).

    Subtracting the minimum keeps a sorted state sorted and leaves each
    kind bit where it is.
    """
    nxt = list(state)
    insort(nxt, (dest << kind_bits) + (nxt.pop(at) & kind_bits))
    m = nxt[0] >> kind_bits if translate else 0
    if m == 0:
        return tuple(nxt), 0
    d = m << kind_bits
    return tuple([e - d for e in nxt]), m


class _Positions(dict):
    """State element -> position, decoded on first sight: bound inputs are
    built from Pos tuples, and looking an element up is cheaper than
    unpacking it."""

    __slots__ = ("kind_bits",)

    def __init__(self, kind_bits: int):
        self.kind_bits = kind_bits

    def __missing__(self, e: int) -> Pos:
        p = self[e] = unpack(e >> self.kind_bits)
        return p


class Planner:
    """Reusable search engine; memoizes successor expansion per state.

    Each instance numbers the canonical states it meets (_ids, _states)
    and keeps per expanded id the successor ids (_succ), a tuple of ints
    that the cyclic GC untracks, and per id, once first evaluated, the
    bound input (_inputs, see _bound_input). _emit regenerates the rolls
    of each step on the returned path and takes the one at the child's
    first index, and _emitted holds one tuple per position the
    returned plans use. None of these depends on a goal, so they serve
    every query of the instance. The states are
    canonical under the instance's options, so strict_stability, kind
    sensitivity and the translation quotient are all fixed by the
    options it is built with; queries that differ in any of them need
    separate instances. The registry, the memo and the position table
    hold frame-relative values only; _emitted holds the caller's
    coordinates.
    """

    def __init__(self, opts: PlannerOptions | None = None):
        self.opts = opts or PlannerOptions()
        self._kind_bits = int(self.opts.kind_sensitive)
        self._ids: dict[_State, int] = {}
        self._states: list[_State] = []
        self._inputs: list = []  # id -> bound input, None until evaluated
        self._succ: dict[int, tuple[int, ...]] = {}  # id -> successor ids
        self._pos = _Positions(self._kind_bits)
        self._axis: dict[tuple, tuple] = {}  # axis tuples, one object each
        self._emitted: dict[Pos, Pos] = {}  # plan positions, one tuple each

    def _id(self, state: _State) -> int:
        """The id of a canonical state, numbered on first sight."""
        i = self._ids.get(state)
        if i is None:
            i = self._ids[state] = len(self._states)
            self._states.append(state)
            self._inputs.append(None)
        return i

    # -- successor generation ----------------------------------------------

    def _rolls_of(self, state: _State) -> list:
        """The generator's rolls of a state, in its memo entry's order."""
        k = self._kind_bits
        positions = tuple(e >> k for e in state) if k else state
        return _legal_rolls(positions, self.opts.strict_stability)

    def _successors(self, i: int) -> tuple[int, ...]:
        """Successor ids of state id i, in move-generator order."""
        cached = self._succ.get(i)
        if cached is not None:
            return cached
        state = self._states[i]
        k = self._kind_bits
        translate = self.opts.match_up_to_translation
        ids, states, inputs = self._ids, self._states, self._inputs
        out = []
        for at, substrate, _, ti in self._rolls_of(state):
            canon, _ = _step(state, at, substrate + PACKED_DIRS[ti], k, translate)
            j = ids.get(canon)
            if j is None:  # _id inlined: a call here costs ~4 % of a one-shot search
                j = ids[canon] = len(states)
                states.append(canon)
                inputs.append(None)
            out.append(j)
        out = self._succ[i] = tuple(out)
        return out

    def _bound_input(self, i: int) -> tuple:
        """What the bound compares with a goal profile for state id i:
        with translation matching its axis profile (see _axes), each axis
        tuple shared with every equal one this instance has seen; else
        its positions."""
        positions = tuple(map(self._pos.__getitem__, self._states[i]))
        if not self.opts.match_up_to_translation:
            return positions
        xs, ys, zs = _axes(positions)
        seen = self._axis.setdefault
        return seen(xs, xs), seen(ys, ys), seen(zs, zs)

    # -- public entry -------------------------------------------------------

    def plan(self, start: Configuration, goal: Configuration) -> PlanResult:
        t0 = time.perf_counter()
        _require_nonempty(start, goal)
        if not is_connected(start):
            raise ValidationError("start configuration is not connected")
        if not is_connected(goal):
            raise ValidationError("goal configuration is not connected")
        ks = self.opts.kind_sensitive
        translate = self.opts.match_up_to_translation
        # only kind-sensitive mode reads the kinds
        kinds = ks and [sorted(cell.kind.value for cell in c) for c in (start, goal)]
        if len(start) != len(goal) or kinds and kinds[0] != kinds[1]:
            return PlanResult(  # a move never changes a cell's kind
                PlanStatus.NO_PATH,
                reason="size_mismatch" if len(start) != len(goal) else "kind_mismatch",
                stats=SearchStats(0, 0, time.perf_counter() - t0),
            )

        # the search runs in the start's frame (its smallest position is
        # the origin). With translate every state is canonical: connected,
        # its n cells lie within n - 1 steps of its origin on each axis, and
        # a move reaches one step further for the mover and two for the
        # roll's shadow, so n + 2 steps of margin keep every state exact.
        # Without it no cell drifts further than one step per expansion from
        # where it started, so the margin is the budget
        budget = self.opts.max_states
        k = self._kind_bits
        origin = start.cells[0].pos
        if translate:
            margin, goal_origin = len(start) + 2, goal.cells[0].pos
        else:
            margin, goal_origin = budget, origin
        try:
            start_state = _state(start, origin, k, margin)
            goal_state = _state(goal, goal_origin, k, margin)
        except ValidationError as exc:  # connected shapes fit n + 2 steps
            raise ValidationError(
                f"{exc}; an exact-position search lets a cell drift up to "
                f"max_states ({_echo(budget)}) steps"
            ) from None
        start_id, goal_id = self._id(start_state), self._id(goal_state)
        astar = self.opts.algorithm is Algorithm.ASTAR
        memo_before = len(self._succ)

        if astar:
            inputs, bound_input = self._inputs, self._bound_input
            goal_positions = tuple(map(self._pos.__getitem__, goal_state))
            bound, goal_profile = _bound(goal_positions, translate)

            def h(i: int) -> int:
                a = inputs[i]
                if a is None:
                    a = inputs[i] = bound_input(i)
                return bound(a, goal_profile)
        else:
            def h(i: int) -> int:
                return 0

        # id -> (depth, parent id, bound); the depth is the best found so
        # far and is optimal once the state is expanded, because both
        # bounds (and zero) are consistent
        b = h(start_id)
        parents: dict[int, tuple] = {start_id: (0, None, b)}
        # (f, -g, push counter): lower f first, then the deeper entry; a
        # zero bound makes this the (depth, discovery) order of BFS
        heap: list = [(b, 0, 0, start_id)]
        counter = 0
        expanded = 0
        peak = 1
        i = None
        pop, push, entry = heapq.heappop, heapq.heappush, parents.get
        successors = self._successors
        while heap:
            _, negg, _, i = pop(heap)
            g = -negg
            if g > parents[i][0]:
                continue  # stale entry: a shorter path was pushed later
            expanded += 1
            if i == goal_id or expanded >= budget:
                break
            g += 1
            for nxt in successors(i):
                old = entry(nxt)
                if old is None:
                    b = h(nxt)
                elif old[0] <= g:
                    continue  # covers expanded states too
                else:
                    b = old[2]  # a shorter path to a state already bounded
                parents[nxt] = (g, i, b)
                counter += 1
                push(heap, (g + b, -g, counter, nxt))
            peak = max(peak, len(heap))

        def stats() -> SearchStats:
            # the goal's or the budget's last expansion takes no successors
            searched = expanded - (i == goal_id or expanded >= budget)
            return SearchStats(
                expanded,
                peak,
                time.perf_counter() - t0,
                counter,
                len(self._succ),
                len(parents) if astar else 0,
                searched - (len(self._succ) - memo_before),
            )

        # a search that runs dry ends without a break: its last state is
        # not the goal and the budget is not spent
        if i == goal_id:
            return self._emit(start, goal, i, parents, stats)
        if expanded >= budget:
            return PlanResult(
                PlanStatus.BUDGET_EXHAUSTED,
                reason=f"expanded {expanded} states",
                stats=stats(),
            )
        return PlanResult(
            PlanStatus.NO_PATH, reason="state space exhausted", stats=stats()
        )

    def _emit(self, start, goal, goal_id, parents, stats) -> PlanResult:
        # walk back to the start, collecting the ids of the path
        path = [goal_id]
        while (parent := parents[path[-1]][1]) is not None:
            path.append(parent)
        path.reverse()

        # regenerate each step's rolls as _successors did: the search
        # recorded the first roll that reaches the child (a later one to
        # the same child is no shorter), the one at the first index of the
        # child's id in the parent's memo entry. The packed offset maps
        # each canonical frame back onto the start's frame, and the
        # start's smallest position maps that frame back to the caller's
        # coordinates
        k = self._kind_bits
        translate = self.opts.match_up_to_translation
        origin = start.cells[0].pos
        offset = 0
        moves = []
        for parent, child in zip(path, path[1:]):
            state = self._states[parent]
            at, substrate, fi, ti = self._rolls_of(state)[self._succ[parent].index(child)]
            mover = state[at] >> k
            moves.append(_pivot(origin, mover + offset, substrate + offset, fi, ti, self._emitted))
            offset += _step(state, at, substrate + PACKED_DIRS[ti], k, translate)[1]
        final = stats()
        plan = Plan(
            tuple(moves),
            final,
            goal=goal,
            match_up_to_translation=self.opts.match_up_to_translation,
            kind_sensitive=self.opts.kind_sensitive,
        )
        return PlanResult(PlanStatus.SUCCESS, plan=plan, stats=final)


def plan(
    start: Configuration, goal: Configuration, opts: PlannerOptions | None = None
) -> PlanResult:
    """One-shot planning entry point; see Planner for batch queries."""
    return Planner(opts).plan(start, goal)


def goal_matches(
    c: Configuration,
    goal: Configuration,
    match_up_to_translation: bool = True,
    kind_sensitive: bool = False,
) -> bool:
    """Does a configuration meet the goal criterion?

    Compares the same canonical key the planner's goal test uses.
    """
    _require_nonempty(c, goal)
    if len(c) != len(goal):
        return False
    oc, og = c.cells[0].pos, goal.cells[0].pos
    if not match_up_to_translation and oc != og:
        return False
    # each packed relative to its own smallest position is already in
    # the canonical form _step gives the search's states
    k = int(kind_sensitive)
    return _state(c, oc, k) == _state(goal, og, k)


def replay(
    start: Configuration,
    p: Plan,
    strict_stability: bool = False,
) -> Configuration:
    """Apply a plan's moves to the start, failing fast on illegal moves.

    Raises IllegalMove (with the offending index) on any illegal step and
    ValidationError when the final configuration misses the plan's
    recorded goal criterion.
    """
    current = start
    for i, move in enumerate(p.moves):
        try:
            current = apply_move(current, move, strict_stability)
        except IllegalMove as exc:
            exc.index = i
            raise
    if p.goal is not None and not goal_matches(
        current, p.goal, p.match_up_to_translation, p.kind_sensitive
    ):
        raise ValidationError("replayed configuration does not match the plan goal")
    return current
