"""rivercross benchmark: seeded CLI workloads, checked answers, per-layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload search --seed 1 --seconds 50 --trace 0

Each workload is a seeded plan of rounds of CLI command lines (see plan.py).
The queries run in this one process and thread, in a closed loop: each is
issued after the previous one returns.  Every answer is checked against the
expected-answer table ``expected.json``.  Round 0 warms up; measured rounds
follow until their wall times add up to ``--seconds`` (at least MIN_ROUNDS of
them).

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` every other round runs under the tracer (tracer.py) and the last
line reports the per-layer metrics.  The last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it summarise
the run for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from common import (FLAGS, HERE, ROOT, SRC, TABLE, ask, check_anchors, count_text,
                    digest, load_cli)
from plan import MIN_ROUNDS, WORKLOADS, plan, verify
from tracer import LAYERS, Tracer

COLD_STARTS = 9  # at least this many timed fresh interpreters of each kind per run
COLD_TIMEOUT_S = 60


def check(expect: tuple, status: int, out: str) -> bool:
    """True when one CLI answer matches its expected-answer entry."""
    kind = expect[0]
    if kind == "digest":
        return status == expect[1] and digest(out) == expect[2]
    doc = json.loads(out)
    if kind == "count":
        _, crossings, count = expect
        if count is None:
            return status == 2 and doc["solvable"] is False and doc["count"] is None
        return (status == 0 and doc["crossings"] == crossings
                and count_text(doc["count"]) == count)
    if kind == "spell":
        _, crossings, index = expect
        if crossings is None:
            return status == 2 and doc["solvable"] is False
        lines = doc["transcript"]
        return (status == 0 and doc["crossings"] == crossings and doc["index"] == index
                and len(lines) == crossings + 1 and lines[-1].startswith("done:"))
    if kind == "applicable":
        return status == 0 and tuple(doc["applicable"]) == expect[1]
    if kind == "strategy":
        return status == 0 and doc["valid"] is True and doc["move_count"] == expect[1]
    if kind == "terms":
        return status == 0 and tuple(count_text(v) for v in doc["terms"]) == expect[1]
    raise ValueError(f"unknown expectation {kind!r}")


class ColdStarts:
    """Wall times of fresh interpreters: the CLI solving (3,3,2,0), and a bare one.

    Both get the same interpreter, environment and start-up flags; they differ
    only in what they run.  Bytecode is cached (under perfbench/out, whatever
    the caller's PYTHONDONTWRITEBYTECODE says), as it is for an installed
    package, so the untimed first pair compiles and the timed ones do not.
    Pairs are taken between rounds, so that they sample the whole run and not
    one moment of it.
    """

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(HERE / "out" / "pycache")
        self.env = env
        self.cli_cmd = [sys.executable, "-m", "rivercross.cli", "solve", "3", "3", "2", "0", *FLAGS]
        self.bare_cmd = [sys.executable, "-c", "pass"]
        self.setup: list[float] = []
        self.interp: list[float] = []
        self.ok = True

    def _time(self, cmd) -> tuple[float, subprocess.CompletedProcess]:
        start = time.perf_counter()
        done = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=COLD_TIMEOUT_S)
        return time.perf_counter() - start, done

    def pair(self, timed: bool = True) -> None:
        bare, done = self._time(self.bare_cmd)
        self.ok &= done.returncode == 0
        setup, done = self._time(self.cli_cmd)
        try:
            doc = json.loads(done.stdout)
            self.ok &= done.returncode == 0 and (doc["crossings"], doc["count"]) == (11, 4)
        except (ValueError, KeyError):
            self.ok = False
        if timed:
            self.interp.append(bare)
            self.setup.append(setup)


class Run:
    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.out_bytes = 0
        self.traced_answer = tracer.wrap("bench", "bench.query", self.answer) if tracer else None

    def answer(self, query) -> tuple[float, bool, int]:
        """Ask one query; return its latency, whether the answer checked, and its size."""
        start = time.perf_counter()
        try:
            status, out = ask(self.cli, list(query.argv))
        except Exception:  # a crash in the program is a failed query, not a failed run
            latency = time.perf_counter() - start
            print(f"query {' '.join(query.argv)} raised:", file=sys.stderr)
            traceback.print_exc(limit=3, file=sys.stderr)
            return latency, False, 0
        latency = time.perf_counter() - start
        try:
            ok = check(query.expect, status, out)
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            print(f"query {' '.join(query.argv)}: wrong answer (exit {status})", file=sys.stderr)
        return latency, ok, len(out.encode())

    def round(self, queries, traced: bool) -> float:
        """Run one round of queries; return its wall time."""
        answer = self.traced_answer if traced else self.answer
        if traced:
            self.tracer.install()
        start = time.perf_counter()
        for query in queries:
            if traced:
                self.tracer.query = self.attempted
            latency, ok, size = answer(query)
            self.attempted += 1
            self.failed += not ok
            if traced:
                self.out_bytes += size
            else:
                self.latencies.append(latency)
        wall = time.perf_counter() - start
        if traced:
            self.tracer.uninstall()
        return wall


def layer_metrics(tracer, traced_walls: list[float], plain_walls: list[float],
                  run: Run, interp: list[float]) -> dict[str, tuple[float, str]]:
    n = len(traced_walls)
    counters = tracer.counters
    wall = sum(traced_walls) / n
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tracer.self_s(layer) / n, "s")
    m["cli.calls"] = (tracer.calls("cli.main") / n, "count")
    m["cli.out_bytes"] = (run.out_bytes / n, "bytes")
    m["cli.interp_s"] = (statistics.median(interp), "s")
    for name in ("puzzle.states", "puzzle.edges", "puzzle.solutions_decoded"):
        m[name] = (counters[name] / n, "count")
    m["puzzle.loads_calls"] = (tracer.calls("puzzle.species_loads") / n, "count")
    for name in ("digraph.paths", "digraph.path_steps", "walkcount.powers"):
        m[name] = (counters[name] / n, "count")
    m["transfer.shift_s"] = (tracer.fn_self("transfer.transfer_step") / n, "s")
    m["transfer.cleanup_s"] = (tracer.fn_total("transfer.cleanup") / n, "s")
    m["transfer.stages"] = (tracer.calls("transfer.transfer_step") / n, "count")
    received = counters["transfer.cleanup_in"]
    m["transfer.keep_ratio"] = (counters["transfer.cleanup_kept"] / received if received else 0.0,
                                "ratio")
    m["transfer.support_max"] = (counters["transfer.support_max"], "count")
    m["transfer.coeff_bits_max"] = (counters["transfer.coeff_bits_max"], "bits")
    m["transfer.format_s"] = (tracer.fn_total("transfer.format_polynomial") / n, "s")
    m["families.fit_calls"] = (tracer.calls("families.fit_linear_recurrence") / n, "count")
    m["strategies.builds"] = (tracer.calls("strategies.build_strategy") / n, "count")
    m["strategies.applicability_calls"] = (tracer.calls("strategies.applicability") / n, "count")
    loop = tracer.self_s("bench") / n
    layers = sum(v for k, (v, _) in m.items() if k.endswith(".self_s"))
    m["trace.wall_s"] = (wall, "s")
    m["trace.loop_s"] = (loop, "s")
    m["trace.remainder_s"] = (wall - layers - loop, "s")
    m["trace.overhead_s"] = (wall - sum(plain_walls) / len(plain_walls), "s")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = load_cli()
        table = json.loads(TABLE.read_text())
        check_anchors(table)
    except (OSError, ImportError, ValueError, KeyError) as exc:
        print(f"cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    rounds = plan(args.workload, args.seed, table)
    verify(rounds)

    cold = ColdStarts()
    cold.pair(timed=False)  # fills the bytecode and file caches, as any earlier call would
    tracer = Tracer() if args.trace else None
    run = Run(cli, tracer)
    run.round(rounds[0], traced=False)  # warm-up
    run.latencies.clear()

    plain, traced = [], []
    for r, queries in enumerate(rounds[1:], start=1):
        if len(plain) + len(traced) >= MIN_ROUNDS and sum(plain) + sum(traced) >= args.seconds:
            break
        on = bool(args.trace) and r % 2 == 1
        (traced if on else plain).append(run.round(queries, traced=on))
        cold.pair()
    while len(cold.setup) < COLD_STARTS:
        cold.pair()
    measured = len(plain) + len(traced)

    correct = cold.ok and run.failed == 0
    print(f"workload {args.workload}, seed {args.seed}: {measured} measured rounds "
          f"of {len(rounds) - 1} planned, {run.attempted} queries including warm-up")
    print("round walls (s): " + " ".join(f"{w:.3f}" for w in plain)
          + ("; traced: " + " ".join(f"{w:.3f}" for w in traced) if traced else ""))
    print(f"error_rate {run.failed}/{run.attempted}"
          + ("" if cold.ok else "; the cold-start CLI answer was wrong"))
    if args.trace:
        metrics = layer_metrics(tracer, traced, plain, run, cold.interp)
        wall, remainder = metrics["trace.wall_s"][0], metrics["trace.remainder_s"][0]
        balanced = abs(remainder) <= 0.01 * wall
        correct &= balanced
        print(f"traced rounds {len(traced)}: layer self times + loop time = "
              f"{wall - remainder:.6f} s of wall {wall:.6f} s, remainder {remainder:.6f} s"
              + ("" if balanced else " (over 1% of wall: trace does not add up)"))
        if tracer.absent:
            print("absent: " + " ".join(sorted(tracer.absent)))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-{args.seed}.tsv"
        tracer.write_spans(spans)
        print(f"spans: {tracer.span_count()} written to {spans.relative_to(ROOT)}, "
              f"{tracer.spans_dropped} beyond the cap counted but not written")
    else:
        lat = sorted(run.latencies)
        metrics = {
            "setup_s": (statistics.median(cold.setup), "s"),
            "wall_s": (statistics.fmean(plain), "s"),
            "query_p50_ms": (statistics.median(lat) * 1000, "ms"),
            "query_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"latency samples {len(lat)}; {sum(x > metrics['query_p90_ms'][0] / 1000 for x in lat)}"
              f" lie beyond query_p90_ms; cold starts {len(cold.setup)}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
