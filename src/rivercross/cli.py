"""Command-line interface: one handler per command, and `main`, the one place that writes.

The exit codes and the output contract are the parser's description, which `--help` shows.

JSON mode writes the bytes of one sorted-key `json.dumps` of the whole document.  At most
one field is an iterator: a marker stands in for it in that dump, and `_streamed` frames it
there one element at a time.  So `solve` writes one solution at a time, in memory bounded by
the state graph, and `trace` one stage at a time; each element is joined from text made once
per state, not sent through json's encoder, and text `solve` and `trace` join theirs so too.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time
from itertools import chain, islice
from typing import TYPE_CHECKING

from . import __version__
from .digraph import (PathCount, count_shortest_paths, shortest_distance, shortest_paths,
                      unrank_shortest_path)
from .puzzle import (
    BankState,
    McParams,
    SpeciesState,
    mc_species,
    spell_out,
    validate_params,
    validate_solution,
)
from .strategies import Strategy, applicability, build_strategy

if TYPE_CHECKING:
    from collections.abc import Callable

    from .families import FamilySpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSOLVABLE = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports Ctrl-C

_INT64_MAX = 2**63 - 1
_MARKER = "\0"  # stands in for the streamed JSON field in the dump; no other field holds it
_PAD = "\n    "  # starts each line of a streamed field's element: its items sit at indent 4
# An error line echoes numbers of any length; a run of over 200 digits keeps its first 20.
_clipped = functools.partial(re.sub, r"\d{201,}",
                             lambda run: f"{run[0][:20]}... ({len(run[0])} digits)")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this tool reserves 2 for 'unsolvable'."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {_clipped(message)}\n")

    def exit(self, status=0, message=None):
        sys.stdout.flush()  # after --help or --version, a closed pipe raises here, not at exit
        super().exit(status, message)

    def _print_message(self, message, file=None):
        file = file or sys.stderr  # unlike argparse, lets an OSError (a closed stdout) reach `main`
        if message and file is not None:  # no stream at all, as argparse allows
            file.write(message)


def main(argv: list[str] | None = None) -> int:
    # Counts can outgrow the 4,300 digits Python converts to decimal by default.
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = _parser().parse_args(argv)
        started = time.perf_counter()
        # Each handler returns its exit status, its JSON fields and its text lines, lazily;
        # this is the only branch on the format, and it builds only the one asked for.
        status, payload, lines = args.handler(args)
        if args.format == "json":
            import json
            # A field only JSON reads is a thunk, built here so that elapsed_ms covers it.
            doc = {key: value() if callable(value) else value for key, value in payload.items()}
            doc["meta"] = {"tool": "rivercross", "version": __version__}
            if not args.deterministic:
                doc["meta"]["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
            streamed = [key for key, value in doc.items() if hasattr(value, "__next__")]
            if not streamed:
                pieces = (json.dumps(doc, sort_keys=True, indent=2), "\n")
            else:  # the one iterator's pieces go where its marker is in the dump
                [key] = streamed
                items, doc[key] = doc[key], _MARKER
                head, tail = json.dumps(doc, sort_keys=True, indent=2).split(json.dumps(_MARKER))
                pieces = chain([head], items, [tail, "\n"])
        else:
            pieces = (line + "\n" for line in lines)
        for piece in pieces:
            sys.stdout.write(piece)
        sys.stdout.flush()  # a closed pipe or a full disk raises here, not at exit
        return status
    except ValueError as exc:  # ParamError included; each is raised before the first byte
        print(f"error: {_clipped(str(exc))}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, KeyboardInterrupt) as exc:  # a reader gone (`| head`), a full disk, Ctrl-C
        if sys.stdout is not sys.__stdout__:
            raise  # a stream the caller put in place is the caller's to handle
        # Closing the stream drops what it still holds, so the flush at exit cannot fail;
        # descriptor 1 stays open.
        try:
            sys.stdout.close()
        except OSError:
            pass
        if isinstance(exc, KeyboardInterrupt):
            print("error: interrupted", file=sys.stderr)
            return EXIT_INTERRUPTED
        if not isinstance(exc, BrokenPipeError):
            print(f"error: write failed: {exc.strerror}", file=sys.stderr)
        return 1  # Python's own exit status on a broken pipe
    finally:
        sys.set_int_max_str_digits(digits)


def _streamed(items, ends: str):
    """The text of a top-level array (`ends` "[]") or object ("{}") in the document, one
    element at a time.  An item is the JSON text of an element, indented as the field's
    elements are (an object's items are '"key": value' text)."""
    sep = ends[0]
    for item in items:
        yield sep + _PAD + item
        sep = ","
    yield ends if sep == ends[0] else "\n  " + ends[1]


def _terms_writer(states, tail, sep: str) -> Callable[[list[int], list[int]], str]:
    """A writer of a trace stage, given as its walk row (counts, support) on the state graph
    whose vertices `states` names: each term of its polynomial in `polynomial_terms` order, as
    the coefficient, then `tail(e)` of the exponents e, made once per vertex; the last `sep` is cut.
    A row holds one boat side, so no two of its vertices share populations, and `rank[v]`, the
    place of v's populations in that order, orders it: a term costs C-level lookups, no call."""
    from .transfer import polynomial_terms
    vecs = [vec for vec, _ in states]
    place = {vec: i for i, (_, vec) in enumerate(polynomial_terms(dict.fromkeys(vecs)))}
    rank = [0, *map(place.__getitem__, vecs)]
    rest = [None, *map(tail, vecs)]

    def write(counts: list[int], support: list[int]) -> str:
        support = sorted(support, key=rank.__getitem__)
        parts = [""] * (2 * len(support))
        parts[::2] = map(str, map(counts.__getitem__, support))
        parts[1::2] = map(rest.__getitem__, support)
        return "".join(parts)[:-len(sep)]

    return write


def _json_stage(states: tuple[SpeciesState, ...]) -> Callable[[list[int], list[int]], str]:
    """A trace stage as `json.dumps(polynomial_terms(poly), indent=2)` writes it, at a streamed
    element's indent: per term `head`, the coefficient, then exponents from one `%` template."""
    head, width = _PAD + "  [" + _PAD + "    ", len(states[0][0])
    exponents = "[" + ",".join([_PAD + "      %d"] * width) + _PAD + "    ]" if width else "[]"
    write = _terms_writer(states, f",{_PAD}    {exponents}{_PAD}  ],{head}".__mod__, "," + head)
    return lambda *row: "[" + head + write(*row) + _PAD + "]" if row[1] else "[]"


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on the first call and reused by every later one.

    `parse_args` returns a fresh namespace, and argparse reads `sys.stdout`,
    `sys.stderr` and `COLUMNS` only when it prints."""
    parser = _Parser(prog="rivercross", description=(
        "Command-line interface. Exit codes: 0 for success (including a solvable instance), "
        "2 when the instance is provably unsolvable, 1 on usage errors and, with the one line "
        "'error: out of memory' or 'error: write failed: <reason>', when memory runs out or "
        "stdout cannot be written, at any point. An interrupt (Ctrl-C) stops the command with "
        "the one line 'error: interrupted' and status 130. A stdout closed before the output ends "
        "(`| head`), after `--help` or `--version` too, stops the command quietly with status "
        "1. Text output is deterministic; JSON output carries a timing field unless "
        "--deterministic is given. Every usage error is reported before the first byte of "
        "stdout. Text lines are written as they are produced, so a long listing is never held "
        "whole; JSON mode builds no text."))
    parser.add_argument("--version", action="version", version=f"rivercross {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    output = _Parser(add_help=False)
    output.add_argument("--format", choices=("text", "json"), default="text")
    output.add_argument("--deterministic", action="store_true",
                        help="omit timing so identical runs are byte-identical")

    instance = _Parser(add_help=False)
    for name, help_text in (
        ("missionaries", "number of missionaries"),
        ("cannibals", "number of cannibals"),
        ("boat", "boat capacity"),
        ("margin", "required surplus of missionaries wherever both groups meet"),
    ):
        instance.add_argument(name, type=int, help=help_text)

    family = _Parser(add_help=False)
    family.add_argument("surplus", type=int, help="missionary surplus over cannibals")
    family.add_argument("boat", type=int, help="boat capacity")
    family.add_argument("margin", type=int, help="safety margin")
    family.add_argument("terms", type=int, help="number of terms to generate")

    p = sub.add_parser("solve", parents=[instance, output],
                       help="find shortest solutions by graph search")
    p.add_argument("--all", action="store_true", help="print every shortest solution")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("spell", parents=[instance, output],
                       help="spell one solution out crossing by crossing")
    p.add_argument("--index", type=int, default=0,
                   help="which solution, in lexicographic order (default 0)")
    p.set_defaults(handler=_cmd_spell)

    p = sub.add_parser("count", parents=[instance, output],
                       help="count shortest solutions without listing them")
    p.add_argument("--method", choices=("graph", "matrix", "transfer"), default="transfer")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("trace", parents=[instance, output],
                       help="print the transfer iteration's polynomials")
    p.add_argument("--steps", type=int, default=None,
                   help="stages to print (default: run to success or the state bound)")
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("sequence", parents=[family, output],
                       help="counting sequence over a one-parameter family")
    p.set_defaults(handler=_cmd_sequence)

    p = sub.add_parser("conjecture", parents=[family, output],
                       help="fit a recurrence and generating function to a family")
    p.add_argument("--max-order", type=int, default=4)
    p.set_defaults(handler=_cmd_conjecture)

    p = sub.add_parser("strategy", parents=[instance, output],
                       help="list applicable strategies or print one move script")
    p.add_argument("--name", choices=[s.value for s in Strategy], default=None)
    p.set_defaults(handler=_cmd_strategy)

    return parser


def _params(args) -> McParams:
    p = McParams(args.missionaries, args.cannibals, args.boat, args.margin)
    validate_params(p)
    return p


def _params_line(p: McParams) -> str:
    return (f"M={p.missionaries} C={p.cannibals} "
            f"B={p.boat_capacity} d={p.safety_margin}")


def _json_count(count: int):
    # Decimal string for anything a 64-bit consumer would truncate.
    return count if abs(count) <= _INT64_MAX else str(count)


def _json_terms(counts) -> list:
    return [None if v is None else _json_count(v) for v in counts]


def _counted(p: McParams) -> tuple[PathCount | None, tuple[SpeciesState, ...]]:
    """Shortest solutions counted on the distance DAG, and the states naming its vertices."""
    graph, states = mc_species(p).state_graph
    return count_shortest_paths(graph, 1, graph.n), states


def _cmd_solve(args):
    p = _params(args)
    counted, states = _counted(p)
    payload: dict = {"command": "solve", "params": p._asdict(), "solvable": counted is not None,
                     "crossings": None, "count": None, "solutions": []}
    if counted is not None:
        # The listing is lazy and read by one format only; without --all, only solution 0 is built.
        # Each format makes a state's text once and joins it for each solution, as it is listed.
        paths = islice(shortest_paths(counted), None if args.all else 1)

        def listing():
            block = [None, *("[\n        %d,\n        %d,\n        %d\n      ]" % (*vec, boat)
                             for vec, boat in states)]
            for path in paths:
                yield "[\n      " + ",\n      ".join(map(block.__getitem__, path)) + "\n    ]"

        payload.update(crossings=counted.length, count=_json_count(counted.count),
                       solutions=_streamed(listing(), "[]"))

    def text():
        yield _params_line(p)
        if counted is None:
            yield "UNSOLVABLE: the goal is unreachable from the initial state"
            return
        yield f"crossings: {counted.length}"
        yield f"solutions: {counted.count}"
        cell = [None, *("[%d,%d,%d]" % (*vec, boat) for vec, boat in states)]
        for k, path in enumerate(paths, start=1):
            yield f"solution {k}: " + " ".join(map(cell.__getitem__, path))

    return EXIT_UNSOLVABLE if counted is None else EXIT_OK, payload, text()


def _cmd_spell(args):
    p = _params(args)
    counted, states = _counted(p)
    payload: dict = {"command": "spell", "params": p._asdict(), "index": args.index,
                     "solvable": counted is not None, "transcript": []}
    if counted is not None:
        if not 0 <= args.index < counted.count:
            raise ValueError(f"index {args.index} out of range: {counted.count} solutions exist")
        path = tuple(BankState(*vec, boat) for vec, boat in
                     (states[v - 1] for v in unrank_shortest_path(counted, args.index)))
        # The transcript is text in both formats; JSON carries its lines.
        payload.update(crossings=counted.length, transcript=spell_out(p, path).split("\n"))

    def text():
        if counted is None:
            yield _params_line(p)
            yield "UNSOLVABLE: nothing to spell out"
        yield from payload["transcript"]

    return EXIT_UNSOLVABLE if counted is None else EXIT_OK, payload, text()


def _count_by_method(p: McParams, method: str):
    """(crossings, count) by the chosen backend, or None when unsolvable."""
    if method == "graph":
        counted, _ = _counted(p)
        return None if counted is None else (counted.length, counted.count)
    # The matrix walk and the transfer are one meeting in the middle on one compile.
    from .transfer import solve_by_transfer
    outcome = solve_by_transfer(mc_species(p))
    return (outcome.crossings, outcome.count) if outcome.solvable else None


def _cmd_count(args):
    p = _params(args)
    result = _count_by_method(p, args.method)
    payload: dict = {"command": "count", "params": p._asdict(), "method": args.method,
                     "solvable": result is not None, "crossings": None, "count": None}
    if result is not None:
        payload.update(crossings=result[0], count=_json_count(result[1]))

    def text():
        yield _params_line(p)
        yield f"method: {args.method}"
        if result is None:
            yield "UNSOLVABLE"
        else:
            yield f"crossings: {result[0]}"
            yield f"count: {result[1]}"

    return EXIT_UNSOLVABLE if result is None else EXIT_OK, payload, text()


def _cmd_trace(args):
    from .transfer import legal_state_bound, trace_rows
    p = _params(args)
    sp = mc_species(p)
    # One lazy pass over the stages, each written by `_terms_writer` in the one format read; text's
    # verdict reads the last, JSON's "solvable" a search.  "f10" < "f2", so JSON holds every row.
    rows = trace_rows(sp, args.steps)
    graph, states = sp.state_graph
    bound = legal_state_bound(sp)

    def polynomials():
        write = _json_stage(states)
        stages = {name: (counts, support) for name, counts, support in rows}
        return _streamed((f'"{name}": ' + write(*stages[name]) for name in sorted(stages)), "{}")

    payload = {"command": "trace", "params": p._asdict(), "polynomials": polynomials,
               "solvable": lambda: shortest_distance(graph, 1, graph.n) is not None,
               "states_bound": bound}

    def text():  # `format_polynomial`'s text: walk counts are positive, a 1 before "*" is left out
        write = _terms_writer(states, lambda vec: "".join(
            f"*x{i}^{e}" if e > 1 else f"*x{i}" for i, e in enumerate(vec, 1) if e) + " + ", " + ")
        yield _params_line(p)
        for length, (name, counts, support) in enumerate(rows):  # stage `name` is A^length's row
            yield f"{name} = " + ((" " + write(counts, support)).replace(" 1*", " ")[1:] or "0")
        if args.steps is None and name[0] == "g":
            yield (f"success: constant term {counts[graph.n]} at stage {name[1:]}; "
                   f"solvable in {length} crossings, {counts[graph.n]} solutions")
        elif args.steps is None:
            yield (f"no constant term through stage {bound + 1}; "
                   f"{bound} legal states, so the instance is UNSOLVABLE")

    return EXIT_OK, payload, text()


def _family(args) -> FamilySpec:
    from .families import FamilySpec
    return FamilySpec(args.surplus, args.boat, args.margin, args.terms)


def _cmd_sequence(args):
    from .families import family_counts, format_terms
    fs = _family(args)
    counts = family_counts(fs)
    payload = {"command": "sequence", "family": fs._asdict(), "terms": lambda: _json_terms(counts)}
    return EXIT_OK, payload, (format_terms(terms) for terms in [counts])  # rendered when read


def _cmd_conjecture(args):
    from .families import conjecture_report
    fs = _family(args)
    report = conjecture_report(fs, args.max_order)
    rec, gf = report.recurrence, report.gf
    payload: dict = {"command": "conjecture", "family": fs._asdict(),
                     "terms": lambda: _json_terms(report.counts), "recurrence": None, "gf": None}
    if rec is not None:
        payload.update(
            recurrence={"order": rec.order, "coefficients": [str(c) for c in rec.coefficients],
                        "valid_from_term": report.valid_from_term},
            gf={"numerator": list(gf.numerator), "denominator": list(gf.denominator)},
            series_ok=report.series_ok)
    return EXIT_OK, payload, (r.render() for r in [report])  # rendered when read


def _cmd_strategy(args):
    p = _params(args)
    names = sorted(s.value for s in applicability(p))
    payload: dict = {"command": "strategy", "params": p._asdict(), "applicable": names}
    moves = check = None
    if args.name is not None:
        moves = build_strategy(p, Strategy(args.name))
        payload.update(name=args.name, moves=None, valid=None)
    if moves is not None:
        check = validate_solution(p, moves)
        payload.update(moves=[[mv.missionaries, mv.cannibals, "F" if mv.forward else "B"]
                              for mv in moves], move_count=len(moves), valid=check is None)

    def text():
        yield _params_line(p)
        if args.name is None:
            yield "applicable: " + (" ".join(names) if names else "(none)")
        elif moves is None:
            yield f"{args.name}: not applicable"
        else:
            yield f"{args.name}:"
            yield from (mv.render() for mv in moves)
            yield f"moves: {len(moves)}"
            yield "valid: yes" if check is None else f"valid: NO ({check.rule} at {check.index})"

    return EXIT_OK, payload, text()


if __name__ == "__main__":
    sys.exit(main())
