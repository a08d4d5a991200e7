"""Search for pivot-move sequences between configurations.

States are configurations deduplicated up to translation (canonical
form); a goal is reached when the shapes coincide, optionally also
matching cell kinds. The search's goal test and goal_matches (which
replay uses) compare the same canonical key. One breadth-first loop
returns minimal plans: it keeps one parent map rooted at the start and
one rooted at the goal, and each round expands the whole current layer
of one side. Every newly discovered state is tested against the other
side's map, and the first hit ends the search. Every roll is reversible
over the same blockers, so without strict stability a state's
predecessors are its successors, and the default algorithm meets in the
middle (Pohl, "Bi-directional Search", Machine Intelligence 6, 1971):
each round grows the smaller side (the start's on a tie). Until a hit
the two discovered sets are disjoint, so the distance exceeds d_start +
d_goal, the depths of the two current layers; a hit from depth d_start
+ 1 has length at most d_start + 1 + d_goal, so it is optimal.
Algorithm.BFS, and strict stability under either algorithm, grow the
start's side only, so the goal's map stays {goal: None} and the test
against it is the goal test, made as each state is discovered. Strict
mode cannot grow the goal's side because its predecessors are not its
successors: a strict roll must land next to a cell besides the
substrate, while its reverse must start next to one. A start already at
the goal returns at once.

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
expansion from the start or the goal, so plan() checks that every y and
z of the start and the goal stays inside the range with max_states steps
to spare, and raises ValidationError naming max_states otherwise.

Each Planner numbers the states it meets: a state gets a small int id
the first time it is generated (_ids maps the tuple to its id, _states
maps it back), and from then on the search handles ids only. The move
generator kinematics._legal_rolls takes the packed positions and names
each roll's mover by its index in them, which is its index in the state;
a successor is its parent's tuple with the element at that index removed
and the destination's (same kind bit) inserted in order, shifted when its
smallest position moved. _step builds it as one list and makes one
tuple of it; _successors and _emit both take that step. A successor is
kept once in the registry however many parents reach it, and its
elements are the Planner's own int objects (_elems, one per value).
Successors are memoized per Planner, so that repeated queries over one
state space (parameter sweeps, test batteries) stay cheap, in ints only:
_succ maps an id to the tuple of its successor ids in generator order,
and nothing else. A tuple of ints refers to nothing the cyclic GC must
follow, so the collector untracks it at its first pass and later
collections skip the memo. Both sides of the loop read it. The parent
maps and the goal test key on ids.

PivotMoves are built only for the returned plan. _emit walks the start
side's parents to the meeting state and then the goal side's parents to
the goal; each step is a forward move (on the goal side by
reversibility). Each step takes the roll at the child's first index in
the parent's successor ids: its memo entry, or, for a meeting state only
the goal side reached, the ids _successor_ids computes without storing
them. _emit runs the generator on the parent again and steps only that
roll, for its shift. On the start side that is the roll the search
recorded, and on either side a later roll to the same child is no
shorter. The Planner hands out one PivotMove per distinct move,
looked up by its face indices and mover position before one is built
(_moves), and one tuple per distinct position (_emitted, seeded with the
start's and the goal's own), so the results a caller keeps hold each
move and each position once.

No loop evaluates a bound. heuristic() stays public: a lower bound on
the number of moves, by an optimal assignment between cell positions
under the lattice step metric (each move relocates one cell by one step,
so the matching cost never overestimates), solved on plain ints by
shortest augmenting paths. For translation-invariant matching an
assignment at any fixed alignment can overestimate the true quotient
distance, so the heuristic instead uses a translation-minimized per-axis
relaxation, which is admissible and consistent on the quotient; see the
test suite for the counterexample that rules out the aligned-assignment
variant. That relaxation compares axis profiles (the sorted coordinates
per axis), sorted afresh at each call.
"""

from __future__ import annotations

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
    add,
    is_connected,
    pack_frame,
    unpack,
)


class Algorithm(Enum):
    """Which sides plan()'s loop grows. ASTAR, the default, grows the
    start's and the goal's (meets in the middle) without strict
    stability and the start's only with it; BFS always grows the start's
    only. Both give minimal plans. ASTAR keeps its name for the options
    and the CLI's --algorithm astar, though no loop evaluates
    heuristic()."""

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
    """Counters of one plan() call. states_expanded counts expansions on
    both sides; frontier_peak is the largest sum of the two current
    layers at the start of a round, the goal's one state included when
    the start's side grows alone; a start already at the goal counts 1
    of each. generated counts the states entered into the parent maps,
    their roots (the start and the goal) not included; memo_size is the
    number of states whose successors the Planner holds at return;
    evaluations is 0, as no loop evaluates a bound (the field stays in
    the CLI's JSON); memo_hits counts the expansions whose successors the
    memo already held. generated, memo_size and memo_hits are derived at
    return, not counted per state."""

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


def _translation_bound(a: tuple[Pos, ...], g: tuple[Pos, ...]) -> int:
    """The translation-minimized per-axis bound between two position
    sets of the same size: each axis's sorted coordinates are matched by
    _axis_bound, and the three axis bounds combine as the lattice step
    metric combines coordinate differences."""
    bx, by, bz = (_axis_bound(sorted(sa), sorted(ga)) for sa, ga in zip(zip(*a), zip(*g)))
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
    holds. The bound is looked up by its module name at each call, where
    a wrapper installed on that name sees it.
    """
    _require_nonempty(c, goal)
    if len(c) != len(goal):
        raise ValidationError(
            f"configurations differ in size: {len(c)} vs {len(goal)}"
        )
    bound = _translation_bound if match_up_to_translation else _assignment_bound
    return bound(c.positions, goal.positions)


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


class Planner:
    """Reusable search engine; memoizes successor expansion per state.

    One loop, _search, serves both algorithms and every mode. Each
    instance numbers the canonical states it meets (_ids, _states),
    with one int object per state element (_elems), and keeps per
    expanded id the successor ids (_succ), a tuple of ints that the
    cyclic GC untracks. _emit takes each step of the returned path at
    the child's first index in the parent's successor ids; _moves
    holds one PivotMove per move and _emitted one tuple per position the
    returned plans use. None of these depends on a goal, so they serve
    every query of the instance. The states are canonical under the
    instance's options, so strict_stability, kind sensitivity and the
    translation quotient are all fixed by the options it is built with;
    queries that differ in any of them need separate instances. The
    registry and the memo hold frame-relative values only; _moves and
    _emitted hold the caller's coordinates.
    """

    def __init__(self, opts: PlannerOptions | None = None):
        self.opts = opts or PlannerOptions()
        self._kind_bits = int(self.opts.kind_sensitive)
        self._ids: dict[_State, int] = {}
        self._states: list[_State] = []
        self._elems: dict[int, int] = {}  # state elements, one int object each
        self._succ: dict[int, tuple[int, ...]] = {}  # id -> successor ids
        self._moves: dict[int, dict] = {}  # from * 12 + to -> mover -> plan move
        self._emitted: dict[Pos, Pos] = {}  # plan positions, one tuple each

    def _id(self, state: _State) -> int:
        """The id of a canonical state, numbered on first sight."""
        i = self._ids.get(state)
        if i is None:
            state = tuple(map(self._elems.setdefault, state, state))
            i = self._ids[state] = len(self._states)
            self._states.append(state)
        return i

    # -- successor generation ----------------------------------------------

    def _rolls_of(self, state: _State) -> list:
        """The generator's rolls of a state, in its memo entry's order."""
        k = self._kind_bits
        positions = tuple(e >> k for e in state) if k else state
        return _legal_rolls(positions, self.opts.strict_stability)

    def _successors(self, i: int) -> tuple[int, ...]:
        """Successor ids of state id i, in move-generator order, memoized."""
        cached = self._succ.get(i)
        if cached is None:
            cached = self._succ[i] = self._successor_ids(i)
        return cached

    def _successor_ids(self, i: int) -> tuple[int, ...]:
        """Successor ids of state id i, in move-generator order, computed
        without a memo lookup and not stored."""
        state = self._states[i]
        k = self._kind_bits
        translate = self.opts.match_up_to_translation
        ids, states, elem = self._ids, self._states, self._elems.setdefault
        out = []
        for at, substrate, _, ti in self._rolls_of(state):
            canon, _ = _step(state, at, substrate + PACKED_DIRS[ti], k, translate)
            j = ids.get(canon)
            if j is None:  # _id inlined: a call here costs ~4 % of a one-shot search
                canon = tuple(map(elem, canon, canon))
                j = ids[canon] = len(states)
                states.append(canon)
            out.append(j)
        return tuple(out)

    # -- the search -------------------------------------------------------

    def _search(self, start_id: int, goal_id: int, budget: int, both: bool) -> tuple:
        """Layers grown from the start, and with both from the goal too,
        until a discovered state is in both parent maps (see the module
        docstring). Returns (meeting id or None, the start side's parent
        map, the goal side's, expansions, expansions that took successors,
        frontier peak); a parent map takes an id to its parent's, its root
        to None. The budget's last expansion takes no successors."""
        sides = ({start_id: None}, {goal_id: None})
        if start_id == goal_id:
            return start_id, *sides, 1, 0, 1
        layers = [[start_id], [goal_id]]
        successors = self._successors
        expanded = peak = 0
        while layers[0] and layers[1]:
            peak = max(peak, len(layers[0]) + len(layers[1]))
            # the smaller side, the start's on a tie or when it grows alone
            s = both and len(layers[1]) < len(layers[0])
            near, far = sides[s], sides[not s]
            grown = []
            for i in layers[s]:
                expanded += 1
                if expanded >= budget:
                    return None, *sides, expanded, expanded - 1, peak
                for j in successors(i):
                    if j not in near:
                        near[j] = i
                        if j in far:
                            return j, *sides, expanded, expanded, peak
                        grown.append(j)
            layers[s] = grown
        return None, *sides, expanded, expanded, peak

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
        # the start or the goal, so the margin is the budget
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
        memo_before = len(self._succ)
        # a strict state's predecessors are not its successors, so strict
        # mode grows the start's side only, as BFS does
        both = self.opts.algorithm is Algorithm.ASTAR and not self.opts.strict_stability
        meet, parents, goal_side, expanded, searched, peak = self._search(
            start_id, goal_id, budget, both
        )
        memo_size = len(self._succ)
        moves = None if meet is None else self._emit(start, goal, meet, parents, goal_side)
        stats = SearchStats(
            expanded,
            peak,
            time.perf_counter() - t0,
            len(parents) + len(goal_side) - 2,
            memo_size,
            0,
            searched - (memo_size - memo_before),
        )
        if moves is not None:
            plan = Plan(
                moves,
                stats,
                goal=goal,
                match_up_to_translation=translate,
                kind_sensitive=ks,
            )
            return PlanResult(PlanStatus.SUCCESS, plan=plan, stats=stats)
        if expanded >= budget:
            return PlanResult(
                PlanStatus.BUDGET_EXHAUSTED,
                reason=f"expanded {expanded} states",
                stats=stats,
            )
        return PlanResult(
            PlanStatus.NO_PATH, reason="state space exhausted", stats=stats
        )

    def _emit(self, start, goal, meet, parents, goal_side) -> tuple[PivotMove, ...]:
        # the ids of the path: the start side's parents back from the
        # meeting state, reversed, then the goal side's on to the goal
        path = [meet]
        while (parent := parents[path[-1]]) is not None:
            path.append(parent)
        path.reverse()
        while (parent := goal_side[path[-1]]) is not None:
            path.append(parent)

        # each step takes the roll at the child's first index in the
        # parent's successor ids (its memo entry, or computed when the
        # search never expanded the parent forward) and steps it for its
        # shift. The packed offset maps each canonical frame back onto the
        # start's frame, and the start's smallest position maps that frame
        # back to the caller's coordinates
        k = self._kind_bits
        translate = self.opts.match_up_to_translation
        origin = start.cells[0].pos
        seen, known = self._emitted, self._moves
        for p in start.positions + goal.positions:
            seen.setdefault(p, p)
        offset = 0
        moves = []
        for parent, child in zip(path, path[1:]):
            state = self._states[parent]
            succ = self._succ.get(parent) or self._successor_ids(parent)
            at, substrate, fi, ti = self._rolls_of(state)[succ.index(child)]
            _, shift = _step(state, at, substrate + PACKED_DIRS[ti], k, translate)
            mover = (state[at] >> k) + offset
            pos = add(unpack(mover), origin)
            by_pos = known.setdefault(fi * 12 + ti, {})  # moves by faces, then mover
            move = by_pos.get(pos)
            if move is None:
                move = by_pos[pos] = _pivot(origin, mover, substrate + offset, fi, ti, seen)
            moves.append(move)
            offset += shift
        return tuple(moves)


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
