"""Puzzle model: parameters, bank states, state graphs, and move-script checks.

The classic instance has a crew of missionaries and cannibals crossing a river
in a small boat.  A state records how many of each group stand on the starting
bank and where the boat is.  Wherever missionaries and cannibals share a bank
(or the boat), the missionaries must outnumber the cannibals by at least the
safety margin.  A generic multi-species puzzle covers variants such as
wolf-goat-cabbage through caller-supplied bank and boat predicates.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, product
from math import prod
from operator import add, mul
from typing import Callable, NamedTuple

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


def validate_params(p: McParams) -> None:
    """Raise ParamError unless p describes a well-posed puzzle instance."""
    if p.missionaries < 1:
        raise ParamError("missionaries", f"need at least 1 missionary, got {p.missionaries}")
    if p.cannibals < 1:
        raise ParamError("cannibals", f"need at least 1 cannibal, got {p.cannibals}")
    if p.boat_capacity < 2:
        raise ParamError("boat-capacity", f"boat must hold at least 2, got {p.boat_capacity}")
    if not _mc_safe(p.missionaries, p.cannibals, p.safety_margin):
        raise ParamError(
            "initial-state",
            f"initial state is illegal: surplus {p.missionaries - p.cannibals} "
            f"is below the safety margin {p.safety_margin}",
        )


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

    `bank_rule(populations, boat_present)` decides whether a bank holding the
    given populations is safe; `boat_rule(load)` decides whether a nonzero load
    may ride the boat (loads are already size-limited by `boat_capacity`).
    `allow_empty_boat` lets the boat cross with no cargo, which puzzles with an
    implicit ferryman (wolf-goat-cabbage) require.

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


def _mc_safe(m: int, c: int, margin: int) -> bool:
    """The MC rule: wherever both groups are present, missionaries lead by at least `margin`."""
    return not (m > 0 and c > 0 and m - c < margin)


def mc_species(p: McParams) -> SpeciesPuzzle:
    """The missionaries-and-cannibals instance expressed as a two-species puzzle.

    One predicate is both the bank rule and the boat rule: wherever both groups
    are present, the missionaries lead by at least the safety margin.
    """
    margin = p.safety_margin

    def safe(group: tuple[int, ...], boat_present: bool = False) -> bool:
        m, c = group
        return _mc_safe(m, c, margin)

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
    """State graph of a species puzzle, compiled as rule tables, then numbering, then wiring.

    It is palindromic: vertex n+1-v is the complement of v (banks swapped, boat flipped), every
    edge flips the boat, and u -> v is an edge exactly when n+1-v -> n+1-u is one.
    `meet_in_the_middle` relies on it.  Raises ValueError when the puzzle is ill-posed."""
    present, absent = _rule_tables(sp)
    states = _legal_states(sp.amounts, present, absent)
    return Digraph(_crossings(sp, states)), states


def _rule_tables(sp: SpeciesPuzzle) -> tuple[list[bool], list[bool]]:
    """`bank_rule` on each vector of the box, in `product` order, with the boat and without.

    Vector i has its far bank at vector N-1-i, so the rule runs once per vector and boat side.
    Raises ValueError on a negative amount, or when the initial position itself is unsafe: such
    a puzzle is ill-posed, not unsolvable."""
    if min(sp.amounts, default=0) < 0:
        raise ValueError(f"amounts must be non-negative, got {sp.amounts}")
    boxes = [range(a + 1) for a in sp.amounts]
    present = [sp.bank_rule(vec, True) for vec in product(*boxes)]
    absent = [sp.bank_rule(vec, False) for vec in product(*boxes)]
    if not (present[-1] and absent[0]):
        raise ValueError("initial position violates the bank rule")
    return present, absent


def _legal_states(amounts: tuple, present: list, absent: list) -> tuple[SpeciesState, ...]:
    """The legal states in vertex order, so numbering is reproducible.

    Vertex 1 is the initial state (everyone and the boat on the start bank), vertex n the goal
    (everyone and the boat across); the others sit between them in lexicographic order."""
    last = len(present) - 1
    order = [(last, 1)]  # the initial state; the goal (0, 0) comes last
    order += sorted([(i, 0) for i in compress(range(1, last + 1), absent[1:]) if present[last - i]]
                    + [(i, 1) for i in compress(range(last), present) if absent[last - i]])
    order.append((0, 0))
    # weights[k] moves i by one of species k.  Only the legal states' vectors are
    # decoded; the box's are never held at once.
    weights = [prod(a + 1 for a in amounts[k + 1:]) for k in range(len(amounts))]
    return tuple((tuple([i // w % (a + 1) for w, a in zip(weights, amounts)]), flag)
                 for i, flag in order)


def _crossings(sp: SpeciesPuzzle, states: tuple[SpeciesState, ...]) -> tuple[tuple[int, ...], ...]:
    """Each state's sorted row of successors.  A crossing subtracts (forward) or adds (back)
    the load's mixed-radix offset, on a radix padded so that a load fits exactly when it
    lands on a legal state."""
    # padded is the radix with spare[k] more values either side of digit k: no crossing carries.
    spare = [min(a, sp.boat_capacity) for a in sp.amounts]
    sizes = [a + 1 + 2 * s for a, s in zip(sp.amounts, spare)]
    padded = [prod(sizes[k + 1:]) for k in range(len(sizes))]
    spots = [sum(map(mul, map(add, vec, spare), padded)) for vec, _ in states]
    vertex = ([0] * prod(sizes), [0] * prod(sizes))  # vertex[flag][spot], 0 off the legal states
    for v, (spot, (_, flag)) in enumerate(zip(spots, states), start=1):
        vertex[flag][spot] = v
    # A load that the leaving bank cannot hold lands off the box, on a 0.
    offsets = [sum(map(mul, load, padded)) for load in species_loads(sp)]
    shifts = (offsets, [-o for o in offsets])  # shifts[flag]: forward crossings subtract
    rows = []
    for spot, (_, flag) in zip(spots, states):
        into = vertex[1 - flag]
        row = [j for shift in shifts[flag] if (j := into[spot + shift])]
        row.sort()
        rows.append(tuple(row))
    return tuple(rows)


def mc_graph(p: McParams) -> tuple[Digraph, tuple[BankState, ...]]:
    """State graph of an MC instance; vertex i maps to the i-th returned BankState."""
    validate_params(p)
    graph, raw = mc_species(p).state_graph
    states = tuple(BankState(vec[0], vec[1], flag) for vec, flag in raw)
    return graph, states


def solve_species(sp: SpeciesPuzzle) -> tuple[int, tuple[tuple[SpeciesState, ...], ...]] | None:
    """All shortest solutions of a species puzzle as state sequences, or None."""
    return _shortest_solutions(*sp.state_graph)


def solve_mc(p: McParams) -> tuple[int, tuple[StatePath, ...]] | None:
    """All shortest MC solutions, sorted lexicographically by state sequence, or None."""
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
        if not _mc_safe(e1, e2, margin):
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
        if not (_mc_safe(m, c, margin) and _mc_safe(total_m - m, total_c - c, margin)):
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
