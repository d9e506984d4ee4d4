"""Puzzle model: parameters, bank states, state graphs, and move-script checks.

The classic instance has a crew of missionaries and cannibals crossing a river
in a small boat.  A state records how many of each group stand on the starting
bank and where the boat is.  Wherever missionaries and cannibals share a bank
(or the boat), the missionaries must outnumber the cannibals by at least the
safety margin.  A generic multi-species puzzle covers variants such as
wolf-goat-cabbage through caller-supplied bank and boat predicates.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import compress, product, repeat
from math import prod
from operator import add, mul
from typing import Callable, Iterator, NamedTuple

from .digraph import Digraph, count_shortest_paths, shortest_paths


class McParams(NamedTuple):
    missionaries: int
    cannibals: int
    boat_capacity: int
    safety_margin: int = 0


class BankState(NamedTuple):
    """Population of the starting bank plus boat position (1 = start bank, 0 = far bank)."""

    missionaries: int
    cannibals: int
    boat: int


class Move(NamedTuple):
    """One boat crossing: who is aboard and which way it sails."""

    missionaries: int
    cannibals: int
    forward: bool

    def render(self) -> str:
        sign = "" if self.forward else "-"
        return f"{sign}({self.missionaries},{self.cannibals})"


StatePath = tuple[BankState, ...]


class ParamError(ValueError):
    """Invalid puzzle parameters; `code` names the violated constraint."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# Size limits, read by `validate_params` alone: the state box (M+1)(C+1) bounds the states and
# the crossing bound 2(M+1)(C+1)L the edges, at most one per state and load.  At 9.3
# million, (54, 54, 54, -54) counts in 0.7 s; at 1.6e10, (300, 300, 600, -600) took over 60 s.
MAX_STATE_BOX = 100_000
MAX_CROSSINGS = 10_000_000


def validate_params(p: McParams) -> None:
    """Raise ParamError unless p is a well-posed instance within the size limits.

    After the crew, the boat and the initial state come the box (M+1)(C+1), then the crossing
    bound 2(M+1)(C+1)L, L the loads m <= M, c <= C, 1 <= m + c <= B, all before any compile."""
    if p.missionaries < 1:
        raise ParamError("missionaries", f"need at least 1 missionary, got {p.missionaries}")
    if p.cannibals < 1:
        raise ParamError("cannibals", f"need at least 1 cannibal, got {p.cannibals}")
    if p.boat_capacity < 2:
        raise ParamError("boat-capacity", f"boat must hold at least 2, got {p.boat_capacity}")
    if not _mc_rule(p.safety_margin, (p.missionaries, p.cannibals)):
        raise ParamError(
            "initial-state",
            f"initial state is illegal: surplus {p.missionaries - p.cannibals} "
            f"is below the safety margin {p.safety_margin}",
        )
    box = (p.missionaries + 1) * (p.cannibals + 1)
    if box > MAX_STATE_BOX:
        raise ParamError("state-box",
                         f"state box (M+1)(C+1) = {box} is above the limit {MAX_STATE_BOX}")
    # L: the pairs (m, c) <= (mb, cb), less a corner triangle with m + c > B, less (0, 0).
    mb, cb = min(p.missionaries, p.boat_capacity), min(p.cannibals, p.boat_capacity)
    over = max(mb + cb - p.boat_capacity, 0)
    loads = (mb + 1) * (cb + 1) - over * (over + 1) // 2 - 1
    if 2 * box * loads > MAX_CROSSINGS:
        raise ParamError("crossing-bound", f"crossing bound 2(M+1)(C+1)L = {2 * box * loads}, "
                         f"L = {loads} loads, is above the limit {MAX_CROSSINGS}")


# ---------------------------------------------------------------------------
# Generic multi-species puzzles
# ---------------------------------------------------------------------------

BankRule = Callable[[tuple[int, ...], bool], bool]
BoatRule = Callable[[tuple[int, ...]], bool]


class _SpeciesFields(NamedTuple):
    names: tuple[str, ...]
    amounts: tuple[int, ...]
    boat_capacity: int
    bank_rule: BankRule
    boat_rule: BoatRule
    allow_empty_boat: bool = False


class SpeciesPuzzle(_SpeciesFields):
    """A k-species river crossing.

    `bank_rule(populations, boat_present)` decides whether a bank holding the given populations
    is safe, and must be a pure function of the two: the compile asks each pair at most once,
    and skips the pairs whose answer cannot matter.  `boat_rule(load)` decides whether a nonzero
    load may ride the boat (loads are already size-limited by `boat_capacity`).
    `allow_empty_boat` lets the boat cross with no cargo, which puzzles with an implicit
    ferryman (wolf-goat-cabbage) require.

    The fields are a NamedTuple's; this subclass gives each instance the
    `__dict__` that `cached_property` stores in.  `_replace` compiles afresh.
    """

    @cached_property
    def state_graph(self) -> tuple[Digraph, tuple[SpeciesState, ...]]:
        """`species_graph` of this puzzle, compiled once."""
        return species_graph(self)


SpeciesState = tuple[tuple[int, ...], int]  # (populations on start bank, boat flag)


def species_loads(sp: SpeciesPuzzle) -> tuple[tuple[int, ...], ...]:
    """All boat loads the puzzle admits, in ascending lexicographic order."""
    out = []
    # No load carries more of a species than the puzzle has: such a load fits no bank.
    for load in product(*(range(min(a, sp.boat_capacity) + 1) for a in sp.amounts)):
        total = sum(load)
        if total > sp.boat_capacity:
            continue
        if total == 0:
            if sp.allow_empty_boat:
                out.append(load)
            continue
        if sp.boat_rule(load):
            out.append(load)
    return tuple(out)


def _mc_rule(margin: int, group: tuple[int, ...], boat_present: bool = False) -> bool:
    """The MC rule: wherever both groups are present, missionaries lead by at least `margin`."""
    m, c = group
    return not (m > 0 and c > 0 and m - c < margin)


def mc_species(p: McParams) -> SpeciesPuzzle:
    """The missionaries-and-cannibals instance expressed as a two-species puzzle.

    One predicate is both the bank rule and the boat rule: wherever both groups
    are present, the missionaries lead by at least the safety margin.
    """
    safe = partial(_mc_rule, p.safety_margin)
    return SpeciesPuzzle(
        names=("missionaries", "cannibals"),
        amounts=(p.missionaries, p.cannibals),
        boat_capacity=p.boat_capacity,
        bank_rule=safe,
        boat_rule=safe,
    )


def wolf_goat_cabbage() -> SpeciesPuzzle:
    """The wolf, goat, and cabbage puzzle: goat never left alone with either neighbor."""

    def bank_rule(v: tuple[int, ...], boat_present: bool) -> bool:
        if boat_present:
            return True
        wolf, goat, cabbage = v
        return not (goat and (wolf or cabbage))

    def boat_rule(load: tuple[int, ...]) -> bool:
        return True

    return SpeciesPuzzle(
        names=("wolf", "goat", "cabbage"),
        amounts=(1, 1, 1),
        boat_capacity=1,
        bank_rule=bank_rule,
        boat_rule=boat_rule,
        allow_empty_boat=True,
    )


def species_graph(sp: SpeciesPuzzle) -> tuple[Digraph, tuple[SpeciesState, ...]]:
    """State graph of a species puzzle, compiled as rule tables, then wiring.

    The legal states are in vertex order, so numbering is reproducible: vertex 1 is the initial
    state (everyone and the boat on the start bank), vertex n the goal (everyone and the boat
    across), and the others sit between them in lexicographic order.  The graph is palindromic:
    vertex n+1-v is the complement of v (banks swapped, boat flipped), every edge flips the
    boat, and u -> v is an edge exactly when n+1-v -> n+1-u is one.  The wiring and
    `meet_in_the_middle` rely on it.  Raises ValueError when the puzzle is ill-posed."""
    near, far = _rule_tables(sp)
    states = sorted([*zip(near, repeat(0)), *zip(far, repeat(1))])
    # The goal, (0, ..., 0) without the boat, sorts first; the initial state, (amounts, 1), last.
    states = (states[-1], *states[1:-1], states[0])
    return Digraph(_crossings(sp, states)), states


def _rule_tables(sp: SpeciesPuzzle) -> tuple[Iterator[tuple[int, ...]], ...]:
    """The start banks of the legal states, first with the boat across, then with it at home.

    `bank_rule` is asked without the boat on each vector i of the box, in `product` order, then
    with it on the far bank (vector N-1-i) of each i that passed.  That pair decides state (i, 0)
    and its mirror (N-1-i, 1), so no pair is asked twice, nor one whose answer cannot matter.
    The same two orders, picked by those answers, give the vectors, so no box index is decoded.
    Raises ValueError on a negative amount, or when the initial position itself is unsafe: such a
    puzzle is ill-posed, not unsolvable."""
    if min(sp.amounts, default=0) < 0:
        raise ValueError(f"amounts must be non-negative, got {sp.amounts}")
    up = [range(a + 1) for a in sp.amounts]
    down = [r[::-1] for r in up]  # counting each digit down walks the far banks in up's order
    alone = list(map(sp.bank_rule, product(*up), repeat(False)))
    with_boat = list(map(sp.bank_rule, compress(product(*down), alone), repeat(True)))
    if not (alone[0] and with_boat[0]):
        raise ValueError("initial position violates the bank rule")
    return tuple(compress(compress(product(*box), alone), with_boat) for box in (up, down))


def _crossings(sp: SpeciesPuzzle, states: tuple[SpeciesState, ...]) -> tuple[tuple[int, ...], ...]:
    """Each state's sorted row of successors.  From the start bank, a crossing subtracts the
    load's offset, on a mixed radix padded so that a load fits exactly when it lands on a legal
    state.  Crossings reverse, so by the palindrome n+1-v's row is v's, j to n+1-j, reversed."""
    # padded is the radix with spare[k] more values below digit k: no crossing borrows, and a
    # load that the start bank cannot hold lands off the box, on a 0.
    spare = [min(a, sp.boat_capacity) for a in sp.amounts]
    sizes = [a + 1 + s for a, s in zip(sp.amounts, spare)]
    padded = [prod(sizes[k + 1:]) for k in range(len(sizes))]
    spots = [sum(map(mul, map(add, vec, spare), padded)) for vec, _ in states]
    across = [0] * prod(sizes)  # across[spot]: the vertex there with the boat across, else 0
    for v, (spot, (_, flag)) in enumerate(zip(spots, states), start=1):
        if not flag:
            across[spot] = v
    offsets = [sum(map(mul, load, padded)) for load in species_loads(sp)]
    n = len(states)
    rows = [()] * n
    for v, (spot, (_, flag)) in enumerate(zip(spots, states), start=1):
        if flag:
            row = sorted([j for o in offsets if (j := across[spot - o])])
            rows[v - 1], rows[n - v] = tuple(row), tuple([n + 1 - j for j in reversed(row)])
    return tuple(rows)


def mc_graph(p: McParams) -> tuple[Digraph, tuple[BankState, ...]]:
    """State graph of an MC instance; vertex i maps to the i-th returned BankState."""
    validate_params(p)
    graph, raw = mc_species(p).state_graph
    states = tuple(BankState(vec[0], vec[1], flag) for vec, flag in raw)
    return graph, states


def solve_species(sp: SpeciesPuzzle) -> tuple[int, tuple[tuple[SpeciesState, ...], ...]] | None:
    """All shortest solutions of a species puzzle as state sequences, or None.

    The tuple holds every solution, so its size grows with their count; stream a large
    listing with `shortest_paths` on `sp.state_graph` instead."""
    return _shortest_solutions(*sp.state_graph)


def solve_mc(p: McParams) -> tuple[int, tuple[StatePath, ...]] | None:
    """All shortest MC solutions, sorted lexicographically by state sequence, or None.

    The tuple holds every solution: `solve_mc(McParams(30, 1, 2, 0))` runs out of memory on
    its 13-digit count.  Stream a large listing with `mc_graph` and `shortest_paths`."""
    return _shortest_solutions(*mc_graph(p))


def _shortest_solutions(graph: Digraph, states: tuple) -> tuple[int, tuple[tuple, ...]] | None:
    counted = count_shortest_paths(graph, 1, graph.n)
    if counted is None:
        return None
    # Paths come out in lexicographic vertex order, and the vertices between the
    # initial state (1) and the goal (n) are numbered in state order, so the
    # decoded state sequences are already sorted.
    paths = shortest_paths(counted)
    return counted.length, tuple(tuple(states[v - 1] for v in path) for path in paths)


# ---------------------------------------------------------------------------
# Move scripts: bridging to state paths, and validation
# ---------------------------------------------------------------------------


def path_to_moves(path: StatePath) -> tuple[Move, ...]:
    """Read the crossing sequence off a state path."""
    moves = []
    for a, b in zip(path, path[1:]):
        forward = a.boat == 1
        e1 = a.missionaries - b.missionaries if forward else b.missionaries - a.missionaries
        e2 = a.cannibals - b.cannibals if forward else b.cannibals - a.cannibals
        moves.append(Move(e1, e2, forward))
    return tuple(moves)


class Violation(NamedTuple):
    index: int
    rule: str
    message: str


def validate_solution(p: McParams, moves: tuple[Move, ...]) -> Violation | None:
    """Check a move script from the initial state; None means fully legal and complete."""
    total_m, total_c, capacity, margin = p
    m, c, boat = total_m, total_c, 1
    for idx, mv in enumerate(moves):
        e1, e2, forward = mv
        if e1 < 0 or e2 < 0:
            return Violation(idx, "load-range", f"negative load {mv.render()}")
        if e1 + e2 == 0:
            return Violation(idx, "empty-boat", "the boat cannot cross empty")
        if e1 + e2 > capacity:
            return Violation(
                idx, "boat-capacity",
                f"load {mv.render()} exceeds capacity {capacity}")
        if not _mc_rule(margin, (e1, e2)):
            return Violation(
                idx, "boat-balance",
                f"load {mv.render()} violates the margin {margin}")
        if forward != (boat == 1):
            return Violation(idx, "boat-side", "move direction does not match the boat's bank")
        if forward:
            m, c = m - e1, c - e2
        else:
            m, c = m + e1, c + e2
        boat = 1 - boat
        if not (0 <= m <= total_m and 0 <= c <= total_c):
            bank = "start" if forward else "far"
            return Violation(idx, "availability", f"not enough people on the {bank} bank")
        if not (_mc_rule(margin, (m, c)) and _mc_rule(margin, (total_m - m, total_c - c))):
            return Violation(
                idx, "bank-balance",
                f"state {(m, c, boat)} leaves missionaries outnumbered beyond the margin")
    if (m, c, boat) != (0, 0, 0):
        return Violation(len(moves), "incomplete", f"script ends at {(m, c, boat)}, not the goal")
    return None


def spell_out(p: McParams, path: StatePath) -> str:
    """Spell a solution out crossing by crossing, ending with a completion line.

    Raises ValueError, naming the index of the first defect, unless `path` is
    a solution that visits no state twice.
    """
    if not path or path[0] != BankState(p.missionaries, p.cannibals, 1):
        raise ValueError("index 0: path must start at the initial state")
    for i, (a, b) in enumerate(zip(path, path[1:])):
        if b.boat != 1 - a.boat:
            raise ValueError(f"index {i}: the boat does not cross from {tuple(a)} to {tuple(b)}")
    moves = path_to_moves(path)
    violation = validate_solution(p, moves)
    if violation is not None:
        raise ValueError(f"index {violation.index}: {violation.message}")
    seen = set()
    for i, state in enumerate(path):
        if state in seen:
            raise ValueError(f"index {i}: state {tuple(state)} repeats")
        seen.add(state)
    lines = []
    for i, move in enumerate(moves, start=1):
        after = path[i]
        total = move.missionaries + move.cannibals
        verb = "crosses" if total == 1 else "cross"
        where = "to the far bank" if move.forward else "back to the start bank"
        lines.append(
            f"{i}. {_load_text(move)} {verb} {where}; "
            f"start bank: {_crew_text(after.missionaries, after.cannibals)}; "
            f"far bank: {_crew_text(p.missionaries - after.missionaries, p.cannibals - after.cannibals)}."
        )
    crossings = len(path) - 1
    lines.append(
        f"done: all {_plural(p.missionaries, 'missionary', 'missionaries')} and "
        f"{_plural(p.cannibals, 'cannibal', 'cannibals')} are on the far bank after "
        f"{_plural(crossings, 'crossing', 'crossings')}."
    )
    return "\n".join(lines)


def _plural(n: int, singular: str, plural: str) -> str:
    return f"{n} {singular if n == 1 else plural}"


def _load_text(move: Move) -> str:
    parts = []
    if move.missionaries:
        parts.append(_plural(move.missionaries, "missionary", "missionaries"))
    if move.cannibals:
        parts.append(_plural(move.cannibals, "cannibal", "cannibals"))
    return " and ".join(parts)


def _crew_text(m: int, c: int) -> str:
    return (f"{_plural(m, 'missionary', 'missionaries')}, "
            f"{_plural(c, 'cannibal', 'cannibals')}")
