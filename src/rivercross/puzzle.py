"""Puzzle model: parameters, bank states, state graphs, and move-script checks.

The classic instance has a crew of missionaries and cannibals crossing a river
in a small boat.  A state records how many of each group stand on the starting
bank and where the boat is.  Wherever missionaries and cannibals share a bank
(or the boat), the missionaries must outnumber the cannibals by at least the
safety margin.  A generic multi-species puzzle covers variants such as
wolf-goat-cabbage through caller-supplied bank and boat predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import add, le, sub
from typing import Callable, NamedTuple

from .digraph import Digraph, all_shortest_paths


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
    if p.missionaries - p.cannibals < p.safety_margin:
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


@dataclass(frozen=True)
class SpeciesPuzzle:
    """A k-species river crossing.

    `bank_rule(populations, boat_present)` decides whether a bank holding the
    given populations is safe; `boat_rule(load)` decides whether a nonzero load
    may ride the boat (loads are already size-limited by `boat_capacity`).
    `allow_empty_boat` lets the boat cross with no cargo, which puzzles with an
    implicit ferryman (wolf-goat-cabbage) require.
    """

    names: tuple[str, ...]
    amounts: tuple[int, ...]
    boat_capacity: int
    bank_rule: BankRule
    boat_rule: BoatRule
    allow_empty_boat: bool = False

    @property
    def species_count(self) -> int:
        return len(self.amounts)

    @cached_property
    def loads(self) -> tuple[tuple[int, ...], ...]:
        """`species_loads` of this puzzle, computed once."""
        return species_loads(self)

    @cached_property
    def _successors(self) -> dict[SpeciesState, tuple[tuple[int, ...], ...]]:
        """Each legal state -> the start-bank populations of its successors in `species_graph`."""
        graph, states = species_graph(self)
        return {state: tuple(states[j - 1][0] for j in graph.out(i))
                for i, state in enumerate(states, start=1)}


SpeciesState = tuple[tuple[int, ...], int]  # (populations on start bank, boat flag)


def species_loads(sp: SpeciesPuzzle) -> tuple[tuple[int, ...], ...]:
    """All boat loads the puzzle admits, in ascending lexicographic order."""
    k = sp.species_count
    out = []
    for load in product(range(sp.boat_capacity + 1), repeat=k):
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


def species_state_ok(sp: SpeciesPuzzle, populations: tuple[int, ...], boat_on_start: bool) -> bool:
    """Both banks safe for the given start-bank populations and boat side."""
    far = tuple(a - v for a, v in zip(sp.amounts, populations))
    return sp.bank_rule(populations, boat_on_start) and sp.bank_rule(far, not boat_on_start)


def species_states(sp: SpeciesPuzzle) -> list[SpeciesState]:
    """Every (populations, boat flag) state with both banks safe, in lexicographic order.

    Raises ValueError when the initial position itself is unsafe: such a
    puzzle is ill-posed, not unsolvable.
    """
    if not species_state_ok(sp, sp.amounts, True):
        raise ValueError("initial position violates the bank rule")
    return [(vec, flag)
            for vec in product(*(range(a + 1) for a in sp.amounts))
            for flag in (0, 1)
            if species_state_ok(sp, vec, flag == 1)]


def _shifted(sp: SpeciesPuzzle, vec: tuple[int, ...], forward: bool) -> list[tuple[int, ...]]:
    """Start-bank populations after each of the puzzle's loads crosses from `vec`.

    A forward crossing leaves the start bank, a return crossing the far bank;
    a load fits only if the bank it leaves holds everyone aboard.
    """
    if forward:
        room, step = vec, sub
    else:
        room, step = tuple(map(sub, sp.amounts, vec)), add
    return [tuple(map(step, vec, load)) for load in sp.loads if all(map(le, load, room))]


def mc_species(p: McParams) -> SpeciesPuzzle:
    """The missionaries-and-cannibals instance expressed as a two-species puzzle.

    One predicate is both the bank rule and the boat rule: wherever both groups
    are present, the missionaries lead by at least the safety margin.
    """
    margin = p.safety_margin

    def safe(group: tuple[int, ...], boat_present: bool = False) -> bool:
        m, c = group
        return not (m > 0 and c > 0 and m - c < margin)

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
    """State graph of a species puzzle.

    Vertex 1 is the initial state (everyone and the boat on the start bank),
    vertex n the goal (everyone and the boat across); the remaining states sit
    between them in lexicographic order, so numbering is reproducible.
    """
    initial: SpeciesState = (sp.amounts, 1)
    goal: SpeciesState = (tuple(0 for _ in sp.amounts), 0)
    middle = [s for s in species_states(sp) if s != initial and s != goal]
    ordered = (initial, *middle, goal)
    index = {state: i + 1 for i, state in enumerate(ordered)}
    rows = []
    for vec, flag in ordered:
        targets = (index.get((nxt, 1 - flag)) for nxt in _shifted(sp, vec, flag == 1))
        rows.append(tuple(sorted({j for j in targets if j is not None})))
    return Digraph(tuple(rows)), ordered


def mc_graph(p: McParams) -> tuple[Digraph, tuple[BankState, ...]]:
    """State graph of an MC instance; vertex i maps to the i-th returned BankState."""
    validate_params(p)
    graph, raw = species_graph(mc_species(p))
    states = tuple(BankState(vec[0], vec[1], flag) for vec, flag in raw)
    return graph, states


def solve_species(sp: SpeciesPuzzle) -> tuple[int, tuple[tuple[SpeciesState, ...], ...]] | None:
    """All shortest solutions of a species puzzle as state sequences, or None."""
    return _shortest_solutions(*species_graph(sp))


def solve_mc(p: McParams) -> tuple[int, tuple[StatePath, ...]] | None:
    """All shortest MC solutions, sorted lexicographically by state sequence, or None."""
    return _shortest_solutions(*mc_graph(p))


def _shortest_solutions(graph: Digraph, states: tuple) -> tuple[int, tuple[tuple, ...]] | None:
    found = all_shortest_paths(graph, 1, graph.n)
    if found is None:
        return None
    # Paths come out in lexicographic vertex order, and the vertices between the
    # initial state (1) and the goal (n) are numbered in state order, so the
    # decoded state sequences are already sorted.
    return found.length, tuple(tuple(states[v - 1] for v in path) for path in found.paths)


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


def moves_to_path(p: McParams, moves: tuple[Move, ...]) -> StatePath:
    """Replay a move script from the initial state, returning every state visited."""
    m, c, boat = p.missionaries, p.cannibals, 1
    out = [BankState(m, c, boat)]
    for mv in moves:
        sign = -1 if mv.forward else 1
        m += sign * mv.missionaries
        c += sign * mv.cannibals
        boat = 1 - boat
        out.append(BankState(m, c, boat))
    return tuple(out)


@dataclass(frozen=True)
class Violation:
    index: int
    rule: str
    message: str


def validate_solution(p: McParams, moves: tuple[Move, ...]) -> Violation | None:
    """Check a move script from the initial state; None means fully legal and complete."""
    sp = mc_species(p)
    path = moves_to_path(p, moves)
    for idx, (mv, before, (m, c, boat)) in enumerate(zip(moves, path, path[1:])):
        e1, e2 = mv.missionaries, mv.cannibals
        if e1 < 0 or e2 < 0:
            return Violation(idx, "load-range", f"negative load {mv.render()}")
        if e1 + e2 == 0:
            return Violation(idx, "empty-boat", "the boat cannot cross empty")
        if e1 + e2 > p.boat_capacity:
            return Violation(
                idx, "boat-capacity",
                f"load {mv.render()} exceeds capacity {p.boat_capacity}")
        if not sp.boat_rule((e1, e2)):
            return Violation(
                idx, "boat-balance",
                f"load {mv.render()} violates the margin {p.safety_margin}")
        if mv.forward != (before.boat == 1):
            return Violation(idx, "boat-side", "move direction does not match the boat's bank")
        if not (0 <= m <= p.missionaries and 0 <= c <= p.cannibals):
            bank = "start" if mv.forward else "far"
            return Violation(idx, "availability", f"not enough people on the {bank} bank")
        if not species_state_ok(sp, (m, c), boat == 1):
            return Violation(
                idx, "bank-balance",
                f"state {(m, c, boat)} leaves missionaries outnumbered beyond the margin")
    if path[-1] != (0, 0, 0):
        return Violation(len(moves), "incomplete", f"script ends at {tuple(path[-1])}, not the goal")
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
    violation = validate_solution(p, path_to_moves(path))
    if violation is not None:
        raise ValueError(f"index {violation.index}: {violation.message}")
    seen = set()
    for i, state in enumerate(path):
        if state in seen:
            raise ValueError(f"index {i}: state {tuple(state)} repeats")
        seen.add(state)
    lines = []
    for i, move in enumerate(path_to_moves(path), start=1):
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
