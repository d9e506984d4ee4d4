"""Self-test of the seeded generator in plan.py.  Run from the repository root:

    python3 perfbench/selftest.py

Checks, for every workload and a few seeds, that the same seed gives the same
argv list, that two seeds give different lists with the same class
proportions in every round, that no argv repeats within a plan, that the
warm-up round shares no unit of work with the measured rounds, and that every
anchor sits in the first MIN_ROUNDS measured rounds, which every run measures.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

from common import COUNT_ANCHORS, FAMILY_ANCHORS, SEARCH_ANCHORS, TABLE
from plan import MIN_ROUNDS, WORKLOADS, plan, verify

SEEDS = (1, 2, 3, 4, 5)


def unit_of(argv: tuple[str, ...]) -> tuple[int, ...]:
    """The instance or family a query belongs to."""
    width = 3 if argv[0] in ("sequence", "conjecture") else 4
    return tuple(int(v) for v in argv[1:1 + width])


def classifier(workload: str, table: dict):
    if workload == "search":
        unsolvable = {tuple(e["inst"]) for e in table["search"] if e["count"] is None}
        return lambda unit: "unsolvable" if unit in unsolvable else "solvable"
    if workload == "count":
        where = {tuple(e["inst"]): cls for cls, es in table["count"].items() for e in es}
        where.update((tuple(e["family"]), "family") for e in table["family"])
        return where.__getitem__
    raise ValueError(workload)


def profile(rounds, classify) -> list[Counter]:
    """Per round, how many units of each class it holds."""
    return [Counter(classify(u) for u in {unit_of(q.argv) for q in queries})
            for queries in rounds]


def main() -> int:
    table = json.loads(TABLE.read_text())
    anchors = {"search": set(SEARCH_ANCHORS),
               "count": set(COUNT_ANCHORS.values()) | set(FAMILY_ANCHORS)}
    failures = []
    for workload in WORKLOADS:
        classify = classifier(workload, table)
        plans = {}
        for seed in SEEDS:
            rounds = plan(workload, seed, table)
            argvs = [q.argv for queries in rounds for q in queries]
            if argvs != [q.argv for queries in plan(workload, seed, table) for q in queries]:
                failures.append(f"{workload} seed {seed}: not reproducible")
            try:
                verify(rounds)
            except ValueError as exc:
                failures.append(f"{workload} seed {seed}: {exc}")
            warm = {unit_of(q.argv) for q in rounds[0]}
            measured = {unit_of(q.argv) for queries in rounds[1:] for q in queries}
            if warm & measured:
                failures.append(f"{workload} seed {seed}: warm-up shares {sorted(warm & measured)}")
            first = {unit_of(q.argv) for queries in rounds[1:1 + MIN_ROUNDS] for q in queries}
            if not anchors[workload] <= first:
                failures.append(f"{workload} seed {seed}: anchors "
                                f"{sorted(anchors[workload] - first)} not in rounds 1 to "
                                f"{MIN_ROUNDS}")
            plans[seed] = (argvs, profile(rounds, classify))
        for a, b in zip(SEEDS, SEEDS[1:]):
            if plans[a][0] == plans[b][0]:
                failures.append(f"{workload}: seeds {a} and {b} give the same list")
            if plans[a][1] != plans[b][1]:
                failures.append(f"{workload}: seeds {a} and {b} differ in class proportions")
        shape = plans[SEEDS[0]][1][1]
        print(f"{workload}: {len(plans[SEEDS[0]][1])} rounds, each with "
              + ", ".join(f"{n} {cls}" for cls, n in sorted(shape.items())))
    for failure in failures:
        print("FAIL", failure)
    print("generator self-test:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
