"""Byte-identity corpus: every command line below prints what it printed when the digests were made.

`tests/corpus/digests.json` maps each command line to a short sha256 over its
argv, exit status, stdout and stderr, so a failure names the lines that moved.
The corpus runs at `COLUMNS=80`, so `--help` wraps alike on every terminal.
The digests change only with a deliberate change of output.  To check them
without pytest (exit status 1 when a line moved), or to rebuild them:

    PYTHONPATH=src python tests/test_corpus.py
    PYTHONPATH=src python tests/test_corpus.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from itertools import product
from pathlib import Path
from unittest import mock

from rivercross import McParams, Strategy, mc_species, solve_by_transfer, validate_params
from rivercross import cli
from rivercross.cli import main

DIGESTS = Path(__file__).parent / "corpus" / "digests.json"


def solution_count(p: McParams) -> int | None:
    """Shortest solutions of p by the transfer, or None when p is ill-posed or unsolvable."""
    try:
        validate_params(p)
    except ValueError:
        return None
    return solve_by_transfer(mc_species(p)).count


def command_lines():
    """The corpus, in a fixed order: one argv list per command line."""
    commands = [["solve"], ["solve", "--all"], ["spell", "--index", "1"],
                ["count", "--method", "graph"], ["count", "--method", "matrix"],
                ["count", "--method", "transfer"], ["trace", "--steps", "3"], ["strategy"],
                ["trace"], ["spell", "--index", "0"], ["spell", "--index", "-1"]]
    names = [["strategy", "--name", s.value] for s in Strategy]
    formats = [[], ["--format", "json", "--deterministic"]]
    for m, c, b, d in product(range(1, 7), range(1, 7), range(2, 5), range(-1, 3)):
        count = solution_count(McParams(m, c, b, d))
        extra = [["spell", "--index", str(count - 1)]] if count and count > 2 else []
        if m <= 4 and c <= 4:
            extra += names
        for command, fmt in product(commands + extra, formats):
            if d < 0 and command == ["solve", "--all"]:
                continue  # solve 6 5 2 -1 --all alone lists 67,500 solutions
            yield [command[0], str(m), str(c), str(b), str(d), *command[1:], *fmt]
    for m, c, b in product(range(1, 5), range(1, 5), range(2, 5)):  # a margin below -1 reads as -1
        for command, fmt in product([["strategy"], *names], formats):
            yield [command[0], str(m), str(c), str(b), "-2", *command[1:], *fmt]
    for family, fmt in product([["0", "2", "0", "5"], ["1", "3", "1", "8"], ["2", "2", "-1", "6"],
                                ["5", "3", "1", "12"], ["-2", "4", "0", "5"]], formats):
        yield ["sequence", *family, *fmt]
        yield ["conjecture", *family, *fmt]
        yield ["conjecture", *family, "--max-order", "2", *fmt]
    singles = [  # error paths, and a negative margin
        ["spell", "3", "3", "2", "0", "--index", "4"],        # index past the last solution
        ["spell", "3", "3", "2", "0", "--index", "-1"],
        ["solve", "400", "400", "2", "0"],                    # state box above the limit
        ["count", "3", "3", "2", "-1"],                       # d < 0: cannibals may lead by 1
        ["sequence", "-1", "2", "-3", "4"],                   # d < 0 family: term 1 has no missionary
        ["sequence", "0", "2", "0", "0"],
        ["conjecture", "5", "3", "1", "12", "--max-order", "0"],
        ["count", "3", "3", "1", "0"],                        # boat too small
        ["trace", "3", "3", "2", "0", "--steps", "-1"],
    ]
    for argv, fmt in product(singles, formats):
        yield argv + fmt
    yield ["--help"]
    for command in ("solve", "spell", "count", "trace", "sequence", "conjecture", "strategy"):
        yield [command, "--help"]


def digest(argv):
    """Short sha256 over argv, exit status, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(list(argv))
        except SystemExit as exc:  # --help
            status = f"SystemExit({exc.code})"
    blob = json.dumps([argv, status, out.getvalue(), err.getvalue()]).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def digests():
    """{command line: digest} over the whole corpus, with the parser built at 80 columns."""
    with mock.patch.dict(os.environ, COLUMNS="80"):
        cli._parser.cache_clear()  # the parser is cached; a later caller builds its own
        try:
            return {" ".join(argv): digest(argv) for argv in command_lines()}
        finally:
            cli._parser.cache_clear()


def moved_lines(found, expected):
    """Command lines whose digest differs, or that only one side holds."""
    return sorted(line for line in found.keys() | expected.keys()
                  if found.get(line) != expected.get(line))


def test_every_line_prints_what_it_printed():
    expected = json.loads(DIGESTS.read_text())
    moved = moved_lines(digests(), expected)
    assert not moved, f"{len(moved)} lines moved, first: {moved[:20]}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        DIGESTS.parent.mkdir(exist_ok=True)
        DIGESTS.write_text(json.dumps(digests(), indent=0) + "\n")
    elif sys.argv[1:]:
        sys.exit(__doc__)
    else:
        found = digests()
        moved = moved_lines(found, json.loads(DIGESTS.read_text()))
        print(f"{len(found)} lines, {len(moved)} moved", *moved[:20], sep="\n")
        sys.exit(1 if moved else 0)
