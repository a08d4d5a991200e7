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
position (_canonical, one int subtraction per cell); _emit adds the
shifts and the start's position back. A packed position is exact while
its y and z lie within lattice.PACK_LIMIT (2**31) of the frame's origin;
as no cell drifts more than one step per expansion, plan() checks once
that every y and z of the start and the goal stays inside that range
with max_states steps to spare, and raises ValidationError otherwise.
The move generator kinematics._legal_rolls takes the packed positions,
and its raw move tuples are memoized per Planner so that repeated
queries over one state space (parameter sweeps, test batteries) stay
cheap; a successor is its parent's tuple with the mover's element
removed and the destination's (same kind bit) inserted in order, and
PivotMoves are built only for the returned plan.

The exact-position heuristic is an optimal assignment between cell
positions under the lattice step metric (each move relocates one cell by
one step, so the matching cost never overestimates), solved on plain
ints by shortest augmenting paths. For translation-invariant matching an
assignment at any fixed alignment can overestimate the true quotient
distance, so the heuristic instead uses a translation-minimized per-axis
relaxation, which is admissible and consistent on the quotient; see the
test suite for the counterexample that rules out the aligned-assignment
variant. That relaxation compares axis profiles (the sorted coordinates
per axis). Both bounds take position tuples: each Planner decodes a
state element once, on first sight, into a table it keeps (_Positions),
and looks the elements up from then on. The goal's profile is computed
once per plan() call and carries one memo per axis, which maps a state's
sorted coordinates on that axis to its bound against the goal's; since
one move changes at most one coordinate per axis, most evaluations find
all three axes there. The memos live in the goal profile, so they last
one plan() call and are never shared between goals.
"""

from __future__ import annotations

import heapq
import operator
import time
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from enum import Enum

from .errors import IllegalMove, ValidationError
from .kinematics import PivotMove, Roll, _legal_rolls, apply_move
from .kinematics import legal_moves  # noqa: F401 - perfbench's tracer patches it here
from .lattice import (
    FACE_DIRS,
    PACKED_DIRS,
    CellKind,
    Configuration,
    Pos,
    add,
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
        m = self.max_states
        if type(m) is not int or m < 1:  # also rejects bools
            raise ValidationError(f"max_states must be an int >= 1, got {m!r}")
        if not isinstance(self.algorithm, Algorithm):
            raise ValidationError(f"not an Algorithm: {self.algorithm!r}")
        for name in ("match_up_to_translation", "strict_stability", "kind_sensitive"):
            value = getattr(self, name)
            if type(value) is not bool:
                raise ValidationError(f"{name} must be a bool, got {value!r}")


@dataclass(frozen=True)
class SearchStats:
    """Counters of one plan() call. generated counts the successors
    pushed onto the frontier (the start not included); memo_size is the
    number of states whose successors the Planner holds at return."""

    states_expanded: int
    frontier_peak: int
    wall_time: float
    generated: int = 0
    memo_size: int = 0


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    profile (see _axes) and a goal profile (see _goal_profile).

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
    if len(c) == 0 or len(goal) == 0:
        raise ValidationError("configurations must be nonempty")
    if len(c) != len(goal):
        raise ValidationError(
            f"configurations differ in size: {len(c)} vs {len(goal)}"
        )
    translate = match_up_to_translation
    return _bound(c.positions, _goal_profile(goal.positions, translate), translate)


def _goal_profile(goal: tuple[Pos, ...], translate: bool) -> tuple:
    """What _bound compares a state with: with translate, the goal's
    sorted coordinates per axis, each paired with an empty memo of state
    bounds on that axis; else the goal's positions. Computed once per
    plan() call, so the memos last that call and hold one goal's values.
    """
    if not translate:
        return goal
    return tuple((g, {}) for g in _axes(goal))


def _bound(a: tuple[Pos, ...], goal_profile: tuple, translate: bool) -> int:
    if translate:
        return _translation_bound(_axes(a), goal_profile)
    return _assignment_bound(a, goal_profile)


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


def _canonical(state: _State, kind_bits: int, translate: bool) -> tuple[_State, int]:
    """The goal key of a state: with translate, shifted so its smallest
    position is the origin. Returns the key and the packed shift
    subtracted.

    Subtracting the minimum keeps a sorted state sorted and leaves each
    kind bit where it is.
    """
    if not translate:
        return state, 0
    m = state[0] >> kind_bits
    if m == 0:
        return state, 0
    d = m << kind_bits
    return tuple(e - d for e in state), m


class _Positions(dict):
    """State element -> position, decoded on first sight: the bounds take
    Pos tuples, and looking an element up is cheaper than unpacking it."""

    __slots__ = ("kind_bits",)

    def __init__(self, kind_bits: int):
        self.kind_bits = kind_bits

    def __missing__(self, e: int) -> Pos:
        p = self[e] = unpack(e >> self.kind_bits)
        return p


class Planner:
    """Reusable search engine; memoizes successor expansion per state.

    The memo's states are canonical under the instance's options, so
    strict_stability, kind sensitivity and the translation quotient are
    all fixed by the options it is built with; queries that differ in any
    of them need separate instances. The memo and the position table hold
    frame-relative values only, so they serve every query of the instance.
    """

    def __init__(self, opts: PlannerOptions | None = None):
        self.opts = opts or PlannerOptions()
        self._kind_bits = int(self.opts.kind_sensitive)
        self._succ: dict[_State, list[tuple[Roll, _State, int]]] = {}
        self._pos = _Positions(self._kind_bits)

    # -- successor generation ----------------------------------------------

    def _successors(self, state: _State) -> list[tuple[Roll, _State, int]]:
        """Successors of a canonical state: (roll tuple in this frame,
        successor canonical state, packed canonicalization shift)."""
        cached = self._succ.get(state)
        if cached is not None:
            return cached
        k = self._kind_bits
        positions = tuple(e >> k for e in state) if k else state
        out = []
        for roll in _legal_rolls(positions, self.opts.strict_stability):
            mover, substrate, _, ti = roll
            nxt = list(state)
            # mover << k sorts at or just before the mover's element
            bit = nxt.pop(bisect_left(state, mover << k)) - (mover << k)
            insort(nxt, ((substrate + PACKED_DIRS[ti]) << k) + bit)
            canon, shift = _canonical(tuple(nxt), k, self.opts.match_up_to_translation)
            out.append((roll, canon, shift))
        self._succ[state] = out
        return out

    # -- public entry -------------------------------------------------------

    def plan(self, start: Configuration, goal: Configuration) -> PlanResult:
        t0 = time.perf_counter()
        if len(start) == 0 or len(goal) == 0:
            raise ValidationError("start and goal must be nonempty")
        if not is_connected(start):
            raise ValidationError("start configuration is not connected")
        if not is_connected(goal):
            raise ValidationError("goal configuration is not connected")
        ks = self.opts.kind_sensitive
        translate = self.opts.match_up_to_translation
        kinds = [sorted(cell.kind.value for cell in c) for c in (start, goal)]
        if len(start) != len(goal) or ks and kinds[0] != kinds[1]:
            return PlanResult(  # a move never changes a cell's kind
                PlanStatus.NO_PATH,
                reason="size_mismatch" if len(start) != len(goal) else "kind_mismatch",
                stats=SearchStats(0, 0, time.perf_counter() - t0),
            )

        # the search runs in the start's frame (its smallest position is
        # the origin), and with translate every state is canonical; no
        # cell drifts further than one step per expansion from where it
        # started, so budget steps of margin keep every state exact
        budget = self.opts.max_states
        k = self._kind_bits
        origin = start.cells[0].pos
        start_state = _state(start, origin, k, budget)
        goal_state = _state(goal, goal.cells[0].pos if translate else origin, k, budget)
        pos = self._pos.__getitem__
        goal_profile = _goal_profile(tuple(map(pos, goal_state)), translate)

        if self.opts.algorithm is Algorithm.ASTAR:
            def h(s: _State) -> int:
                return _bound(tuple(map(pos, s)), goal_profile, translate)
        else:
            def h(s: _State) -> int:
                return 0

        # state -> (depth, parent state, move in parent frame, shift); the
        # depth is the best found so far and is optimal once the state is
        # expanded, because both bounds (and zero) are consistent
        parents: dict[_State, tuple] = {start_state: (0, None, None, None)}
        # (f, -g, push counter): lower f first, then the deeper entry; a
        # zero bound makes this the (depth, discovery) order of BFS
        heap: list = [(h(start_state), 0, 0, start_state)]
        counter = 0
        expanded = 0
        peak = 1
        state = None
        while heap:
            _, negg, _, state = heapq.heappop(heap)
            g = -negg
            if g > parents[state][0]:
                continue  # stale entry: a shorter path was pushed later
            expanded += 1
            if state == goal_state or expanded >= budget:
                break
            g += 1
            for move, nxt, shift in self._successors(state):
                old = parents.get(nxt)
                if old is not None and old[0] <= g:
                    continue  # covers expanded states too
                parents[nxt] = (g, state, move, shift)
                counter += 1
                heapq.heappush(heap, (g + h(nxt), -g, counter, nxt))
            peak = max(peak, len(heap))

        def stats() -> SearchStats:
            return SearchStats(
                expanded, peak, time.perf_counter() - t0, counter, len(self._succ)
            )

        # a search that runs dry ends without a break: its last state is
        # not the goal and the budget is not spent
        if state == goal_state:
            return self._emit(start, goal, state, parents, stats)
        if expanded >= budget:
            return PlanResult(
                PlanStatus.BUDGET_EXHAUSTED,
                reason=f"expanded {expanded} states",
                stats=stats(),
            )
        return PlanResult(
            PlanStatus.NO_PATH, reason="state space exhausted", stats=stats()
        )

    def _emit(self, start, goal, goal_state, parents, stats) -> PlanResult:
        # walk back to the start, collecting moves in canonical frames
        chain: list[tuple[Roll, int]] = []
        state = goal_state
        while True:
            _, parent, move, shift = parents[state]
            if parent is None:
                break
            chain.append((move, shift))
            state = parent
        chain.reverse()

        # re-express each move in the caller's coordinates: the packed
        # offset maps each canonical frame back onto the start's frame,
        # and the start's smallest position maps that frame back
        origin = start.cells[0].pos
        offset = 0
        moves = []
        for (mover, substrate, fi, ti), shift in chain:
            moves.append(
                PivotMove(
                    add(unpack(mover + offset), origin),
                    add(unpack(substrate + offset), origin),
                    FACE_DIRS[fi],
                    FACE_DIRS[ti],
                )
            )
            offset += shift
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
    if len(c) == 0 or len(goal) == 0:
        raise ValidationError("configurations must be nonempty")
    if len(c) != len(goal):
        return False
    oc, og = c.cells[0].pos, goal.cells[0].pos
    if not match_up_to_translation and oc != og:
        return False
    # each packed relative to its own smallest position is already in
    # the canonical form _canonical gives the search's states
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
