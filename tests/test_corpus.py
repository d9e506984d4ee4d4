"""Byte-identity corpus: every command line below prints what it printed when the digests were made.

`tests/corpus/digests.json` maps each command line to a short sha256 over its
argv, exit status, stdout and stderr, so a failure names the lines that moved.
The digests change only with a deliberate change of output.  To rebuild them:

    PYTHONPATH=src python tests/test_corpus.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from itertools import product
from pathlib import Path

from rivercross.cli import main

DIGESTS = Path(__file__).parent / "corpus" / "digests.json"


def command_lines():
    """The corpus, in a fixed order: one argv list per command line."""
    commands = [["solve"], ["solve", "--all"], ["spell", "--index", "1"],
                ["count", "--method", "graph"], ["count", "--method", "matrix"],
                ["count", "--method", "transfer"], ["trace", "--steps", "3"], ["strategy"]]
    formats = [[], ["--format", "json", "--deterministic"]]
    for m, c, b, d in product(range(1, 7), range(1, 7), range(2, 5), range(3)):
        for command, fmt in product(commands, formats):
            yield [command[0], str(m), str(c), str(b), str(d), *command[1:], *fmt]
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


def digest(argv):
    """Short sha256 over argv, exit status, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    blob = json.dumps([argv, status, out.getvalue(), err.getvalue()]).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def digests():
    """{command line: digest} over the whole corpus."""
    return {" ".join(argv): digest(argv) for argv in command_lines()}


def test_every_line_prints_what_it_printed():
    expected = json.loads(DIGESTS.read_text())
    found = digests()
    assert found.keys() == expected.keys()
    moved = [line for line in found if found[line] != expected[line]]
    assert not moved, f"{len(moved)} lines moved, first: {moved[:20]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests(), indent=0) + "\n")
