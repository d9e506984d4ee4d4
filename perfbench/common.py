"""Pieces shared by run.py and build_expected.py.

Both drive the program only through ``rivercross.cli.main``, in process, with
``--format json --deterministic`` appended, so they depend on the command-line
contract and on nothing else in the library.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TABLE = HERE / "expected.json"

FLAGS = ["--format", "json", "--deterministic"]
INT64_MAX = 2**63 - 1

# Results pinned by the acceptance suite or measured with matrix and transfer
# agreeing.  build_expected.py refuses a table that contradicts them and run.py
# refuses to start on one.
ANCHOR_COUNTS = {
    (3, 3, 2, 0): (11, 4),
    (7, 7, 4, 0): (11, 361),
    (80, 80, 8, 0): (53, 24177),
}
ANCHOR_UNSOLVABLE = {(4, 4, 2, 0): 13}  # instance -> legal states (trace states_bound)
FIBONACCI_FAMILY = (5, 3, 1)
SEARCH_ANCHORS = ((3, 3, 2, 0), (7, 7, 4, 0), (4, 4, 2, 0))
COUNT_ANCHORS = {
    "solvable": (80, 80, 8, 0),
    "unsolvable_m0": (30, 30, 3, 0),
    "unsolvable_m1": (40, 39, 2, 1),
    "lopsided": (300, 1, 2, 0),
    "trace": (4, 4, 2, 0),
}
FAMILY_ANCHORS = ((9, 2, 0), (5, 3, 1))


def load_cli():
    """Import the command-line module from the checkout's ``src`` tree."""
    if not (SRC / "rivercross" / "cli.py").is_file():
        raise FileNotFoundError(f"no rivercross sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from rivercross import cli
    return cli


def ask(cli, argv: list[str]) -> tuple[int, str]:
    """Run one command line through the CLI and return (exit status, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = cli.main(argv + FLAGS)
        except SystemExit as exc:  # argparse exits on usage errors
            status = exc.code if isinstance(exc.code, int) else 1
    return status, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def count_text(value) -> str | None:
    """The exact count a JSON answer carries, as a decimal string.

    Raises ValueError when the JSON encoding breaks the CLI's contract:
    counts up to 2**63 - 1 are JSON integers, larger ones decimal strings.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise ValueError(f"count {value!r} is not a number")
    if isinstance(value, int):
        if abs(value) > INT64_MAX:
            raise ValueError(f"count {value} above 2**63 - 1 must be a decimal string")
        return str(value)
    if isinstance(value, str) and value.lstrip("-").isdigit() and abs(int(value)) > INT64_MAX:
        return value
    raise ValueError(f"count {value!r} is neither a small integer nor a large decimal string")


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def check_anchors(table: dict) -> None:
    """Raise ValueError unless every pinned anchor holds in the expected-answer table."""
    search = {tuple(e["inst"]): e for e in table["search"]}
    counted = {tuple(e["inst"]): e for cls in table["count"].values() for e in cls
               if "count" in e}
    for inst, (crossings, count) in ANCHOR_COUNTS.items():
        entry = search.get(inst) or counted.get(inst)
        if entry is None or (entry["crossings"], entry["count"]) != (crossings, str(count)):
            raise ValueError(f"anchor {inst}: expected {crossings} crossings, {count} solutions")
    traced = {tuple(e["inst"]): e for e in table["count"]["trace"]}
    for inst, states in ANCHOR_UNSOLVABLE.items():
        if search[inst]["count"] is not None or traced[inst]["states_bound"] != states:
            raise ValueError(f"anchor {inst}: expected unsolvable with {states} legal states")
    for cls, inst in COUNT_ANCHORS.items():
        if not any(tuple(e["inst"]) == inst for e in table["count"][cls]):
            raise ValueError(f"anchor {inst} missing from count class {cls}")
    families = {tuple(e["family"]): e for e in table["family"]}
    terms = families[FIBONACCI_FAMILY]["terms"]
    want = ["4", "4"] + [str(fibonacci(i + 4)) for i in range(3, len(terms) + 1)]
    if terms != want:
        raise ValueError(f"anchor family {FIBONACCI_FAMILY}: terms are not F(i+4) from i=3")
    for inst in SEARCH_ANCHORS:
        if inst not in search:
            raise ValueError(f"search anchor {inst} missing")
    for fam in FAMILY_ANCHORS:
        if fam not in families:
            raise ValueError(f"family anchor {fam} missing")
