"""Bounded-exhaustive check of the compile: every puzzle in a small scope, none sampled.

    PYTHONPATH=src python tests/exhaustive.py

The scope is every species puzzle with amounts (3,), (2,), (1, 1) or (2, 1),
a boat of 1 to 3 and `allow_empty_boat` either way, whose bank rule is any
truth table over (populations, boat present) that passes the initial position,
and whose boat rule is any subset of the nonzero loads that fit the boat.  On
each puzzle it checks that

- `species_graph` equals `reference_species_graph` from `tests/reference.py`,
  or both raise the same ValueError;
- `states[n-1-k]` is the mirror of `states[k]`: banks swapped, boat flipped;
- u -> v is an edge exactly when n+1-u -> n+1-v is one, and exactly when
  v -> u is one, and every edge flips the boat;
- `count_shortest_paths` from 1 to n agrees with `solve_by_transfer`.

It prints the scope and the number of puzzles checked, so a shrunken scope
shows, and at the first failure names the puzzle and exits 1.  Stdlib only, no
pytest; it takes about 30 s on a 2-core VM, so it stays out of tier-1 and CI
runs it on its own.
"""

from __future__ import annotations

import sys
import time
from itertools import product

from reference import reference_species_graph
from rivercross import SpeciesPuzzle, count_shortest_paths, solve_by_transfer, species_graph

AMOUNTS = [(3,), (2,), (1, 1), (2, 1)]
BOATS = range(1, 4)


def bank_tables(amounts: tuple[int, ...]):
    """Every bank rule over the box, as a dict of (populations, boat present) -> bool, that
    passes the initial position: everyone with the boat, and an empty bank without it."""
    pairs = [(vec, present) for vec in product(*(range(a + 1) for a in amounts))
             for present in (False, True)]
    fixed = {(amounts, True): True, (tuple(0 for _ in amounts), False): True}
    free = [pair for pair in pairs if pair not in fixed]
    for answers in product((False, True), repeat=len(free)):
        yield {**dict(zip(free, answers)), **fixed}


def boat_rules(amounts: tuple[int, ...], boat: int):
    """Every subset of the nonzero loads that fit both the boat and the amounts."""
    loads = [load for load in product(*(range(a + 1) for a in amounts)) if 0 < sum(load) <= boat]
    for keep in product((False, True), repeat=len(loads)):
        yield frozenset(load for load, kept in zip(loads, keep) if kept)


def puzzles(amounts: tuple[int, ...]):
    """Each puzzle of the scope with these amounts, after the bank table and the loads allowed."""
    for table in bank_tables(amounts):
        for boat in BOATS:
            for allowed in boat_rules(amounts, boat):
                for empty in (False, True):
                    yield table, allowed, SpeciesPuzzle(
                        names=tuple("abc"[:len(amounts)]), amounts=amounts, boat_capacity=boat,
                        bank_rule=lambda vec, present, table=table: table[vec, present],
                        boat_rule=allowed.__contains__, allow_empty_boat=empty)


class Fault(Exception):
    """A check that fails on one puzzle."""


def _compiled(compile_, sp):
    try:
        return compile_(sp)
    except ValueError as exc:
        return f"ValueError: {exc}"


def solvable(sp: SpeciesPuzzle) -> bool:
    """Check the compile of `sp`, and say whether the puzzle is well-posed and solvable.
    Raises Fault at the first check that fails."""
    got, want = _compiled(species_graph, sp), _compiled(reference_species_graph, sp)
    if got != want:
        raise Fault(f"species_graph gives {got!r}, the reference {want!r}")
    if isinstance(got, str):
        return False
    graph, states = got
    n = graph.n
    mirrors = [(tuple(a - v for a, v in zip(sp.amounts, vec)), 1 - flag) for vec, flag in states]
    if mirrors != list(reversed(states)):
        raise Fault(f"the states are not palindromic: {states}")
    edges = set(graph.edges())
    if edges != {(n + 1 - u, n + 1 - v) for u, v in edges}:
        raise Fault("the edges are not closed under the mirror")
    if edges != {(v, u) for u, v in edges}:
        raise Fault("the graph is not its own transpose")
    if any(states[u - 1][1] == states[v - 1][1] for u, v in edges):
        raise Fault("an edge leaves the boat where it was")
    counted = count_shortest_paths(graph, 1, n)
    outcome = solve_by_transfer(sp)
    dag = None if counted is None else (counted.length, counted.count)
    walk = (outcome.crossings, outcome.count) if outcome.solvable else None
    if dag != walk:
        raise Fault(f"count_shortest_paths gives {dag}, solve_by_transfer {walk}")
    return dag is not None


def main() -> int:
    started = time.perf_counter()
    print(f"scope: amounts {', '.join(map(str, AMOUNTS))}; boats {BOATS.start}..{BOATS.stop - 1}; "
          "every bank table passing the initial position; every boat-rule subset of the "
          "fitting loads; allow_empty_boat both ways", flush=True)
    total = 0
    for amounts in AMOUNTS:
        checked = solved = 0
        for table, allowed, sp in puzzles(amounts):
            try:
                solved += solvable(sp)
            except Fault as fault:
                print(f"FAIL amounts {amounts}, boat {sp.boat_capacity}, allow_empty_boat "
                      f"{sp.allow_empty_boat}, loads allowed {sorted(allowed)}, bank rule false "
                      f"on {sorted(pair for pair, ok in table.items() if not ok)}: {fault}")
                return 1
            checked += 1
        total += checked
        print(f"amounts {amounts}: {checked:,} puzzles checked, {solved:,} solvable", flush=True)
    print(f"{total:,} puzzles checked, 0 failed; {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
