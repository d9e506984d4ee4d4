"""Per-layer tracing from outside the program.

The tracer wraps every public module-level function of each rivercross module
(a layer) and rebinds the wrapper under every name that refers to the
function in any rivercross module, because ``cli``, ``families`` and
``transfer`` import functions by name.  While installed, each call records a
span (name, start, end, parent span, query id).  The self time of a span is
its duration minus the durations of the spans directly inside it, so the self
times of a tree of spans add up to the duration of its root.

Counters come from the arguments and results of a few named functions.  A
named function that no longer exists, or whose result no longer has the
expected shape, is reported as absent and its counters stay at 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

PACKAGE = "rivercross"
LAYERS = ("cli", "puzzle", "digraph", "walkcount", "transfer", "families", "strategies")
SPAN_CAP = 250_000  # spans kept for the span file; time and counters cover all


def _species_graph(c, args, result):
    graph, _ = result
    c["puzzle.states"] += graph.n
    c["puzzle.edges"] += sum(map(len, graph.neighbors))


def _solutions(c, args, result):
    if result is not None:
        c["puzzle.solutions_decoded"] += len(result[1])


def _paths(c, args, result):
    if result is not None:
        c["digraph.paths"] += len(result.paths)
        c["digraph.path_steps"] += len(result.paths) * result.length


def _powers(c, args, result):
    c["walkcount.powers"] += args[0].n - 1 if result is None else result[0]


def _stage(c, args, result):
    c["transfer.support_max"] = max(c["transfer.support_max"], len(result))
    bits = max((v.bit_length() for v in result.values()), default=0)
    c["transfer.coeff_bits_max"] = max(c["transfer.coeff_bits_max"], bits)


def _cleanup(c, args, result):
    c["transfer.cleanup_in"] += len(args[0])
    c["transfer.cleanup_kept"] += len(result)


# Functions whose calls are counted, and how their results feed the counters.
OBSERVED = {
    "cli.main": None,
    "puzzle.species_graph": _species_graph,
    "puzzle.solve_mc": _solutions,
    "puzzle.species_loads": None,
    "digraph.all_shortest_paths": _paths,
    "walkcount.count_shortest_walks": _powers,
    "transfer.transfer_step": _stage,
    "transfer.cleanup": _cleanup,
    "transfer.format_polynomial": None,
    "families.fit_linear_recurrence": None,
    "strategies.build_strategy": None,
    "strategies.applicability": None,
}


class Tracer:
    def __init__(self):
        self.layers: dict[str, object] = {}
        self.absent: set[str] = set()
        for layer in LAYERS:
            try:
                self.layers[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent.add(layer)
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self.stats: dict[str, list] = {}  # qual -> [self seconds, total seconds, calls]
        self.counters: Counter[str] = Counter()
        self.stack: list[list] = []
        self.query = -1
        # Flat records of (span id, name id, start, end, parent id, query id).
        self.spans = array("d")
        self.spans_dropped = 0
        self._ids = itertools.count()
        self._originals: list[tuple[object, str, object]] = []
        self._wrappers = self._make_wrappers()

    def _make_wrappers(self) -> dict[int, tuple]:
        """id(original function) -> (original, wrapper), for every public function of every layer."""
        wrappers = {}
        for layer, module in self.layers.items():
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                qual = f"{layer}.{name}"
                wrappers[id(fn)] = (fn, self.wrap(layer, qual, fn, OBSERVED.get(qual)))
        self.absent |= set(OBSERVED) - set(self.stats)
        return wrappers

    def wrap(self, layer: str, qual: str, fn, observe=None):
        """A function that calls fn inside a span named qual, charged to layer."""
        name_id = len(self.names)
        self.names.append(qual)
        self.layer_of[qual] = layer
        acc = self.stats[qual] = [0.0, 0.0, 0]
        stack, spans, ids, counters = self.stack, self.spans, self._ids, self.counters
        clock, room = time.perf_counter, 6 * SPAN_CAP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                acc[0] += duration - frame[0]
                acc[1] += duration
                acc[2] += 1
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    parent_id = parent[1]
                else:
                    parent_id = -1
                if len(spans) < room:
                    spans.extend((frame[1], name_id, start, end, parent_id, self.query))
                else:
                    self.spans_dropped += 1
            if observe is not None and qual not in self.absent:
                try:
                    observe(counters, args, result)
                except (AttributeError, TypeError, IndexError, ValueError, KeyError):
                    self.absent.add(qual)
            return result

        return wrapper

    def self_s(self, layer: str) -> float:
        return sum(acc[0] for qual, acc in self.stats.items() if self.layer_of[qual] == layer)

    def fn_self(self, qual: str) -> float:
        return self.stats[qual][0] if qual in self.stats else 0.0

    def fn_total(self, qual: str) -> float:
        return self.stats[qual][1] if qual in self.stats else 0.0

    def calls(self, qual: str) -> int:
        return self.stats[qual][2] if qual in self.stats else 0

    def install(self) -> None:
        """Rebind every wrapped function wherever a rivercross module names it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._originals.append((module, name, value))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for module, name, value in self._originals:
            setattr(module, name, value)
        self._originals.clear()

    def span_count(self) -> int:
        return len(self.spans) // 6

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as TSV, times in seconds from the first span's start."""
        s = self.spans
        origin = min(s[2::6], default=0.0)
        with path.open("w") as f:
            f.write("span\tname\tstart_s\tend_s\tparent\tquery\n")
            for i in range(0, len(s), 6):
                f.write(f"{int(s[i])}\t{self.names[int(s[i + 1])]}\t{s[i + 2] - origin:.9f}\t"
                        f"{s[i + 3] - origin:.9f}\t{int(s[i + 4])}\t{int(s[i + 5])}\n")
