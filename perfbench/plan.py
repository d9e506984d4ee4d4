"""Seeded query plans for the two workloads.

A plan is a list of rounds; each round is a list of queries, and each query is
a CLI argv plus the answer expected for it.  Round 0 is the warm-up and the
rest are measured in order, so the warm-up and the measured set never share a
query.  Every unit of work (a search session, a count instance, a family) is
used at most once per plan.

Rounds are dealt by stratified sampling.  Each class's pool is sorted by the
cost recorded in the expected-answer table and cut into as many equal bins as
the plan needs units of the class; one unit is drawn from each bin.  The units
drawn are cut into strata of one unit per round.  So every round holds the
same number of units of each class and of each cost stratum, and every seed
draws the same spread of costs.  Within a stratum the units are dealt so that
round costs come out level, which keeps round times comparable within a run
and across seeds.  The anchors of each workload are dealt to the first
measured rounds, which every run measures.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from common import COUNT_ANCHORS, FAMILY_ANCHORS, SEARCH_ANCHORS

WORKLOADS = ("search", "count")
# Rounds per plan, warm-up included.  A run stops early once its time is up,
# so later rounds are spare work for faster code.
ROUNDS = {"search": 24, "count": 20}
MIN_ROUNDS = 4  # measured rounds every run makes, however long they take
# Units of each class in every round.  On count, each instance gives one cheap
# matrix answer and one dearer transfer answer, so the median query sits where
# the two meet; the medium classes (unsolvable, trace) fill that middle, so the
# median falls among many queries of similar cost and not in a gap.
PER_ROUND = {
    "search": {"solvable": 29, "unsolvable": 10},
    "count": {"solvable": 2, "unsolvable_m0": 2, "unsolvable_m1": 2, "lopsided": 1,
              "trace": 2, "family": 1},
}
FAMILY_TERMS = (10, 20)  # inclusive range of a family's term count


class Query(NamedTuple):
    argv: tuple[str, ...]
    expect: tuple  # (kind, *values); see run.check


class Unit(NamedTuple):
    key: tuple
    cost: float
    queries: tuple[Query, ...]


def plan(workload: str, seed: int, table: dict) -> list[list[Query]]:
    rng = random.Random(f"{workload}:{seed}")
    rounds = ROUNDS[workload]
    classes, anchors = {"search": _search, "count": _count}[workload](table, rng)
    strata = [s for cls, units in classes.items()
              for s in _strata(units, PER_ROUND[workload][cls], rounds, anchors, rng)]
    # Heaviest strata first; each unit of a stratum goes to a different round,
    # the costliest to the round with the least cost so far, so that round
    # times come out level.  Ties (all of the first stratum) fall randomly.
    # A stratum's anchors go first, to rounds 1, 2, ...
    strata.sort(key=lambda s: (-max(u.cost for u in s), min(u.key for u in s)))
    totals = [0.0] * rounds
    dealt: list[list[Unit]] = [[] for _ in range(rounds)]
    for stratum in strata:
        pinned = sorted((u for u in stratum if u.key in anchors), key=lambda u: u.key)
        first = range(1, len(pinned) + 1)
        if len(pinned) > MIN_ROUNDS:
            raise ValueError(f"{len(pinned)} anchors in one stratum, more than {MIN_ROUNDS}")
        units = pinned + sorted((u for u in stratum if u.key not in anchors),
                                key=lambda u: (-u.cost, u.key))
        order = list(first) + sorted((r for r in range(rounds) if r not in first),
                                     key=lambda r: (totals[r], rng.random()))
        for unit, r in zip(units, order):
            dealt[r].append(unit)
            totals[r] += unit.cost
    out = []
    for units in dealt:
        rng.shuffle(units)
        out.append([q for unit in units for q in unit.queries])
    return out


def _strata(units: list[Unit], per_round: int, rounds: int, anchors: set,
            rng: random.Random) -> list[list[Unit]]:
    """A seeded, cost-stratified draw of the class, cut into strata of one unit per round.

    Anchors are always drawn.  The other units are sorted by cost and cut into
    equal bins, one for each unit still to draw, and one unit is drawn from each.
    """
    need = per_round * rounds
    if need > len(units):
        raise ValueError(f"class of {len(units)} units cannot fill {rounds} rounds "
                         f"of {per_round}")
    pinned = [u for u in units if u.key in anchors]
    rest = sorted((u for u in units if u.key not in anchors), key=lambda u: (u.cost, u.key))
    k = need - len(pinned)
    bins = [rest[i * len(rest) // k:(i + 1) * len(rest) // k] for i in range(k)]
    chosen = pinned + [rng.choice(b) for b in bins]
    chosen.sort(key=lambda u: (u.cost, u.key))
    return [chosen[g * rounds:(g + 1) * rounds] for g in range(per_round)]


def _args(inst) -> list[str]:
    return [str(v) for v in inst]


def _search(table: dict, rng: random.Random):
    entries = table["search"]
    heaviest = max((e for e in entries if e["count"] is not None), key=lambda e: int(e["count"]))
    anchors = set(SEARCH_ANCHORS) | {tuple(heaviest["inst"])}
    classes: dict[str, list[Unit]] = {"solvable": [], "unsolvable": []}
    for e in entries:
        inst = tuple(e["inst"])
        a = _args(inst)
        if e["count"] is None:
            k, spell = 0, ("spell", None, 0)
        else:
            k = rng.randrange(int(e["count"]))
            spell = ("spell", e["crossings"], k)
        counted = ("count", e["crossings"], e["count"])
        queries = [
            Query(("count", *a, "--method", "matrix"), counted),
            Query(("solve", *a), ("digest", 2 if e["count"] is None else 0, e["solve"])),
            Query(("spell", *a, "--index", str(k)), spell),
            Query(("count", *a, "--method", "graph"), counted),
            Query(("strategy", *a), ("applicable", tuple(sorted(e["strategies"])))),
        ]
        queries += [Query(("strategy", *a, "--name", name), ("strategy", moves))
                    for name, moves in sorted(e["strategies"].items())]
        cls = "unsolvable" if e["count"] is None else "solvable"
        classes[cls].append(Unit(inst, e["cost_ms"], tuple(queries)))
    return classes, anchors


def _count(table: dict, rng: random.Random):
    classes: dict[str, list[Unit]] = {}
    for cls, entries in table["count"].items():
        units = []
        for e in entries:
            inst = tuple(e["inst"])
            a = _args(inst)
            if cls == "trace":
                queries = (Query(("trace", *a), ("digest", 0, e["trace"])),)
            else:
                counted = ("count", e["crossings"], e["count"])
                queries = (Query(("count", *a, "--method", "transfer"), counted),
                           Query(("count", *a, "--method", "matrix"), counted))
            units.append(Unit(inst, e["cost_ms"], queries))
        classes[cls] = units
    classes["family"] = _family(table, rng)[0]["family"]
    return classes, set(COUNT_ANCHORS.values()) | set(FAMILY_ANCHORS)


def _family(table: dict, rng: random.Random):
    """Every family as one unit: sequence, then conjecture, on the same terms."""
    units = []
    for e in table["family"]:
        fam = tuple(e["family"])
        # Each family has one length, the same for every seed: a length drawn
        # per seed would change the mix of query sizes from seed to seed.
        n = random.Random(f"terms:{fam}").randint(*FAMILY_TERMS)
        a = [*_args(fam), str(n)]
        queries = (Query(("sequence", *a), ("terms", tuple(e["terms"][:n]))),
                   Query(("conjecture", *a, "--max-order", "4"),
                         ("digest", 0, e["conjecture"][str(n)])))
        units.append(Unit(fam, e["cost_ms"], queries))
    return {"family": units}, set(FAMILY_ANCHORS)


def verify(rounds: list[list[Query]]) -> None:
    """Raise ValueError if an argv repeats anywhere in the plan, warm-up included."""
    seen = set()
    for r, queries in enumerate(rounds):
        for q in queries:
            if q.argv in seen:
                raise ValueError(f"argv {' '.join(q.argv)} repeats (round {r})")
            seen.add(q.argv)
