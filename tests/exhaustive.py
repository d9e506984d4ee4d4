"""Bounded-exhaustive check of the compile: every puzzle in a small scope, none sampled.

    PYTHONPATH=src python tests/exhaustive.py

The scope is every species puzzle with amounts (3,), (2,), (1, 1) or (2, 1),
a boat of 1 to 3 and `allow_empty_boat` either way, whose bank rule is any
truth table over (populations, boat present) that passes the initial position,
and whose boat rule is any subset of the nonzero loads that fit the boat; and
every such puzzle with amounts (1, 1, 1) whose bank rule ignores the boat
side.  On each puzzle it checks that

- `species_graph` equals `reference_species_graph` from `tests/reference.py`,
  or both raise the same ValueError;
- `states[n-1-k]` is the mirror of `states[k]`: banks swapped, boat flipped;
- u -> v is an edge exactly when n+1-u -> n+1-v is one, and exactly when
  v -> u is one, and every edge flips the boat;
- `count_shortest_paths` from 1 to n agrees with `solve_by_transfer` and
  with `count_shortest_walks`;
- the default trace stops by its own rule: a solvable one on g_k, whose
  constant term is the count and where 2k - 1 is the length, an unsolvable
  one on f(legal_state_bound + 1);
- on an unsolvable puzzle, the reached set is found three ways and they are
  equal: the vertices of the search `digraph._search` from 1 to n, the union of
  the last two supports of `walk_rows(graph, 1)` at its first settled row (the
  source alone is row 0), and the vertices of `reference_reachable`'s states;
- on a solvable puzzle, `shortest_paths` lists exactly `count` paths, in
  strictly increasing order, each of `length` crossings from 1 to n along
  edges of the graph, and the k-th is `unrank_shortest_path(counted, k)`.

It prints the scope and the number of puzzles checked, of reached sets
compared and of paths listed, so a shrunken scope shows, and at the first
failure names the puzzle and exits 1.  Stdlib only, no pytest; it takes about
45 s on a 2-core VM, so it stays out of tier-1 and CI runs it on its own.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from itertools import product

from reference import reference_reachable, reference_species_graph
from rivercross import (SpeciesPuzzle, count_shortest_paths, digraph, shortest_paths,
                        solve_by_transfer, species_graph, unrank_shortest_path)
from rivercross.digraph import count_shortest_walks, walk_rows
from rivercross.transfer import legal_state_bound, trace_rows

# The amounts of each scope, and whether its bank rules may read the boat side.
SCOPES = [((3,), True), ((2,), True), ((1, 1), True), ((2, 1), True), ((1, 1, 1), False)]
BOATS = range(1, 4)


def bank_tables(amounts: tuple[int, ...], reads_boat: bool):
    """Every bank rule over the box, as a dict of (populations, boat present) -> bool, that
    passes the initial position: everyone with the boat, and an empty bank without it.  A rule
    that does not read the boat gives a vector one answer with the boat and without."""
    groups = [[(vec, False), (vec, True)] for vec in product(*(range(a + 1) for a in amounts))]
    if reads_boat:
        groups = [[pair] for group in groups for pair in group]
    fixed = {(amounts, True), (tuple(0 for _ in amounts), False)}
    free = [group for group in groups if fixed.isdisjoint(group)]
    held = [pair for group in groups if not fixed.isdisjoint(group) for pair in group]
    for answers in product((False, True), repeat=len(free)):
        table = dict.fromkeys(held, True)
        for group, answer in zip(free, answers):
            table.update(dict.fromkeys(group, answer))
        yield table


def boat_rules(amounts: tuple[int, ...], boat: int):
    """Every subset of the nonzero loads that fit both the boat and the amounts."""
    loads = [load for load in product(*(range(a + 1) for a in amounts)) if 0 < sum(load) <= boat]
    for keep in product((False, True), repeat=len(loads)):
        yield frozenset(load for load, kept in zip(loads, keep) if kept)


def puzzles(amounts: tuple[int, ...], reads_boat: bool):
    """Each puzzle of the scope with these amounts, after the bank table and the loads allowed."""
    for table in bank_tables(amounts, reads_boat):
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


def check(sp: SpeciesPuzzle) -> tuple[int, bool]:
    """Check the compile of `sp`, its count and its listing or its reached set, and return the
    number of shortest solutions listed, 0 when the puzzle is ill-posed or unsolvable, and
    whether its reached sets were compared.  Raises Fault at the first check that fails."""
    got, want = _compiled(species_graph, sp), _compiled(reference_species_graph, sp)
    if got != want:
        raise Fault(f"species_graph gives {got!r}, the reference {want!r}")
    if isinstance(got, str):
        return 0, False
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
    walks = count_shortest_walks(graph, 1, n)
    if walks != dag:
        raise Fault(f"count_shortest_paths gives {dag}, count_shortest_walks {walks}")
    name, last, _ = deque(trace_rows(sp), maxlen=1)[0]  # the default trace's last stage
    if counted is None and name != f"f{legal_state_bound(sp) + 1}":
        raise Fault(f"an unsolvable trace ends on {name}, not f{legal_state_bound(sp) + 1}")
    if counted is not None and (name[0], 2 * int(name[1:]) - 1, last[n]) != (
            "g", counted.length, counted.count):
        raise Fault(f"a solvable trace ends on {name} with constant term {last[n]}, not on the "
                    f"g of {counted.length} crossings with {counted.count}")
    if counted is None:
        check_reached(sp, graph, states)
        return 0, True
    listed, previous = 0, ()
    for path in shortest_paths(counted):
        if not (len(path) == counted.length + 1 and path[0] == 1 and path[-1] == n
                and edges.issuperset(zip(path, path[1:]))):
            raise Fault(f"listed path {listed}, {path}, is no {counted.length}-crossing path "
                        f"from 1 to {n} in the graph")
        if path <= previous:
            raise Fault(f"listed path {listed}, {path}, does not follow {previous}")
        unranked = unrank_shortest_path(counted, listed)
        if unranked != path:
            raise Fault(f"unrank_shortest_path gives {unranked} at {listed}, the listing {path}")
        listed, previous = listed + 1, path
    if listed != counted.count:
        raise Fault(f"shortest_paths lists {listed} paths, count_shortest_paths counts "
                    f"{counted.count}")
    return listed, False


def check_reached(sp: SpeciesPuzzle, graph, states) -> None:
    """The reached set of an unsolvable puzzle, by the search, by the walk and by the reference."""
    searched = set(digraph._search(graph, 1, graph.n)[0])
    before = [1]  # row 0's support: the source alone
    for _, support, settled in walk_rows(graph, 1):
        if settled:
            break
        before = support
    walked = set(before) | set(support)
    vertex = {state: v for v, state in enumerate(states, start=1)}
    referenced = {vertex[state] for state in reference_reachable(sp)}
    if not searched == walked == referenced:
        raise Fault(f"the reached set is {sorted(searched)} by the search, {sorted(walked)} by "
                    f"the walk and {sorted(referenced)} by the reference")


def main() -> int:
    started = time.perf_counter()
    reading, ignoring = ([str(a) for a, reads in SCOPES if reads is side] for side in (True, False))
    print(f"scope: amounts {', '.join(reading)} with every bank table passing the initial "
          f"position, and {', '.join(ignoring)} with every such table that ignores the boat; "
          f"boats {BOATS.start}..{BOATS.stop - 1}; every boat-rule subset of the fitting loads; "
          "allow_empty_boat both ways", flush=True)
    total = total_reached = total_paths = 0
    for amounts, reads_boat in SCOPES:
        checked = solved = reached = paths = 0
        for table, allowed, sp in puzzles(amounts, reads_boat):
            try:
                listed, compared = check(sp)
            except Fault as fault:
                print(f"FAIL amounts {amounts}, boat {sp.boat_capacity}, allow_empty_boat "
                      f"{sp.allow_empty_boat}, loads allowed {sorted(allowed)}, bank rule false "
                      f"on {sorted(pair for pair, ok in table.items() if not ok)}: {fault}")
                return 1
            checked, solved, paths = checked + 1, solved + bool(listed), paths + listed
            reached += compared
        total, total_reached, total_paths = (total + checked, total_reached + reached,
                                             total_paths + paths)
        print(f"amounts {amounts}{'' if reads_boat else ', bank rules ignoring the boat'}: "
              f"{checked:,} puzzles checked, {solved:,} solvable, {reached:,} unsolvable with "
              f"the reached set equal by search, walk and reference, "
              f"{paths:,} shortest solutions listed", flush=True)
    print(f"{total:,} puzzles checked, {total_reached:,} reached sets equal three ways, "
          f"{total_paths:,} shortest solutions listed, 0 failed; "
          f"{time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
