"""Build the expected-answer table ``expected.json`` that the benchmark checks against.

Every answer comes from the CLI itself, and an instance stays in a pool only
when every counting method that finishes on it agrees: graph, matrix and
transfer on ``search``; matrix and transfer on ``count`` and on each family
term.  The table also records what each unit of work costs (see
``calibrate``); the generator uses those costs only to deal units into rounds
of equal weight.

Run once from the repository root (it takes several minutes):

    python3 perfbench/build_expected.py
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

from common import (INT64_MAX, TABLE, ask, check_anchors, count_text, digest,
                    load_cli)
from plan import _count, _family, _search

CALIBRATION_PASSES = 3

SEARCH_CAP = 10**5  # larger counts make graph enumeration too slow and too big
FAMILY_TERMS = 20
FAMILY_MIN_TERMS = 10

COUNT_POOLS = {
    "solvable": [(n, n, b, 0) for n in range(73, 87) for b in (7, 8, 9)],
    "unsolvable_m0": [(n, n, 3, 0) for n in range(18, 58)],
    "unsolvable_m1": [(n, n - 1, 2, 1) for n in range(24, 64)],
    "lopsided": [(300, 1, 2, 0)] + [(m, 1, 2, 0) for m in range(200, 220)],
    "trace": [(4, 4, 2, 0)] + [(n, n, b, 0) for n in range(10, 30) for b in (4, 5)],
}


def answer(status: int, out: str):
    """(crossings, count text) of a count answer; None marks unsolvable."""
    doc = json.loads(out)
    if status == 2 and not doc["solvable"]:
        return None
    if status != 0 or not doc["solvable"]:
        raise RuntimeError(f"unexpected count answer (status {status})")
    return doc["crossings"], count_text(doc["count"])


def agreed_count(cli, inst, methods=("transfer", "matrix")):
    """The answer the given counting methods agree on, or raise."""
    args = [str(v) for v in inst]
    results = [answer(*ask(cli, ["count", *args, "--method", m])) for m in methods]
    if any(r != results[0] for r in results):
        raise RuntimeError(f"{inst}: methods disagree: {results}")
    return results[0]


def search_entry(cli, inst):
    args = [str(v) for v in inst]
    result = agreed_count(cli, inst)
    if result is not None and int(result[1]) > SEARCH_CAP:
        return None
    if agreed_count(cli, inst, ("graph",)) != result:
        raise RuntimeError(f"{inst}: graph count differs from {result}")
    _, solved = ask(cli, ["solve", *args])
    strategies = {}
    for name in json.loads(ask(cli, ["strategy", *args])[1])["applicable"]:
        status, out = ask(cli, ["strategy", *args, "--name", name])
        doc = json.loads(out)
        if status != 0 or doc["valid"] is not True:
            raise RuntimeError(f"{inst}: strategy {name} fails")
        strategies[name] = doc["move_count"]
    return {
        "inst": list(inst),
        "crossings": None if result is None else result[0],
        "count": None if result is None else result[1],
        "solve": digest(solved),
        "strategies": strategies,
        "cost_ms": None,  # filled in by calibrate
    }


def count_entry(cli, cls, inst):
    if cls == "trace":
        status, out = ask(cli, ["trace", *map(str, inst)])
        doc = json.loads(out)
        if status != 0:
            raise RuntimeError(f"{inst}: trace exits {status}")
        return {"inst": list(inst), "trace": digest(out), "solvable": doc["solvable"],
                "states_bound": doc["states_bound"], "cost_ms": None}
    result = agreed_count(cli, inst)
    if (result is None) != cls.startswith("unsolvable"):
        raise RuntimeError(f"{inst}: solvability does not fit class {cls}")
    if cls == "lopsided" and int(result[1]) <= INT64_MAX:
        raise RuntimeError(f"{inst}: count fits in 64 bits")
    return {"inst": list(inst), "crossings": None if result is None else result[0],
            "count": None if result is None else result[1], "cost_ms": None}


def family_entry(cli, fam):
    from rivercross import families

    s, b, d = fam
    terms = []
    for i in range(1, FAMILY_TERMS + 1):
        result = agreed_count(cli, (i + s, i, b, d))
        terms.append(None if result is None else result[1])
    status, out = ask(cli, ["sequence", str(s), str(b), str(d), str(FAMILY_TERMS)])
    if status != 0 or [count_text(v) for v in json.loads(out)["terms"]] != terms:
        raise RuntimeError(f"family {fam}: sequence differs from the per-term counts")
    # conjecture recomputes the terms; reuse the ones just checked, so that only
    # the fitting runs once per length.
    real = families.family_counts
    families.family_counts = lambda fs, start=1: [
        None if t is None else int(t) for t in terms[start - 1:start - 1 + fs.num_terms]]
    try:
        conjecture = {}
        for n in range(FAMILY_MIN_TERMS, FAMILY_TERMS + 1):
            status, out = ask(cli, ["conjecture", str(s), str(b), str(d), str(n),
                                    "--max-order", "4"])
            if status != 0:
                raise RuntimeError(f"family {fam}: conjecture {n} exits {status}")
            conjecture[str(n)] = digest(out)
    finally:
        families.family_counts = real
    return {"family": list(fam), "terms": terms, "conjecture": conjecture,
            "cost_ms": None}


def calibrate(cli, table: dict) -> None:
    """Record in every pool entry the median of several timings of its unit of work.

    Timings on a shared machine drift by tens of percent over seconds, so each
    unit (the queries plan.py makes of the entry) is timed once per pass, the
    passes visit the units in different orders, and the median is kept.
    """
    rng = random.Random(0)
    entries = {("search", tuple(e["inst"])): e for e in table["search"]}
    entries.update({("count", tuple(e["inst"])): e
                    for es in table["count"].values() for e in es})
    entries.update({("family", tuple(e["family"])): e for e in table["family"]})
    jobs: dict[tuple, list[tuple[str, ...]]] = {}
    for workload, units_of in (("search", _search), ("count", _count), ("family", _family)):
        for units in units_of(table, rng)[0].values():
            for u in units:
                if (workload, u.key) in entries:  # count's families are costed as families
                    jobs[(workload, u.key)] = [q.argv for q in u.queries]
    times: dict[tuple, list[float]] = {key: [] for key in jobs}
    keys = list(jobs)
    for _ in range(CALIBRATION_PASSES):
        rng.shuffle(keys)
        for key in keys:
            start = time.perf_counter()
            for argv in jobs[key]:
                ask(cli, list(argv))
            times[key].append((time.perf_counter() - start) * 1000)
    for key, ts in times.items():
        entries[key]["cost_ms"] = round(statistics.median(ts), 3)


def dump(table: dict) -> str:
    """JSON with one pool entry per line."""
    def block(items, indent):
        pad = " " * indent
        return "[\n" + ",\n".join(pad + json.dumps(e, sort_keys=True) for e in items) + "\n" + pad[:-2] + "]"

    count = ",\n".join(f'    "{cls}": {block(items, 6)}' for cls, items in table["count"].items())
    return (
        "{\n"
        f'  "built_at": {json.dumps(table["built_at"])},\n'
        f'  "search": {block(table["search"], 4)},\n'
        f'  "count": {{\n{count}\n  }},\n'
        f'  "family": {block(table["family"], 4)}\n'
        "}\n"
    )


def main() -> int:
    cli = load_cli()
    started = time.perf_counter()
    search = []
    for m in range(1, 13):
        for c in range(1, 13):
            for b in range(2, 7):
                for d in range(3):
                    if m - c >= d:
                        entry = search_entry(cli, (m, c, b, d))
                        if entry is not None:
                            search.append(entry)
    print(f"search: {len(search)} instances, {time.perf_counter() - started:.0f} s", flush=True)
    count = {cls: [count_entry(cli, cls, inst) for inst in pool]
             for cls, pool in COUNT_POOLS.items()}
    print(f"count: {sum(map(len, count.values()))} instances, "
          f"{time.perf_counter() - started:.0f} s", flush=True)
    family = [family_entry(cli, (s, b, d))
              for s in range(11) for b in range(2, 6) for d in range(3) if s >= d]
    print(f"family: {len(family)} families, {time.perf_counter() - started:.0f} s", flush=True)
    table = {"built_at": {"python": sys.version.split()[0]},
             "search": search, "count": count, "family": family}
    check_anchors(table)
    calibrate(cli, table)
    print(f"costs calibrated, {time.perf_counter() - started:.0f} s", flush=True)
    TABLE.write_text(dump(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
