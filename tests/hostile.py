"""Hostile command lines, at and just past each documented limit, each run under caps.

    python tests/hostile.py

Each row of `ROWS` holds a command line, the exit status it must give and the
seconds it may take; a line that ends in `> path` sends its stdout to that
file.  The rows run one at a time, each in a child process under a 256 MiB
address-space cap (`RLIMIT_AS`) and its time limit.  A row passes when the
child exits with its status in time, writes no `Traceback` to stderr and, when
it refuses an input (exit 1), writes nothing to stdout.  A row may also pin
its stdout: the byte count, the newline count and a sha256 prefix, which the
run must match.  Each row prints its status and wall time.

A row marked known fails today for a reason that a ROADMAP item names.  It is
reported and never fails the run; the change that mends it drops the mark.
The script exits 1 when a row that is not marked fails.  Stdlib only; its 24
rows take about 46 s on a 2-core VM.
"""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_SPACE = 256 << 20  # bytes

ROWS = [  # argv, the exit status it must give, its time limit in s, why it is known to fail,
    # and optionally the bytes, newlines and sha256 prefix its stdout must have
    ("solve 400 400 2 0", 1, 5, None),  # the state box, 160,801 against 100,000
    ("count 50000 1 2 0", 1, 5, None),  # the state box, 100,002
    ("count 54 54 54 -54", 0, 10, None),  # the crossing bound, 9.3 million: just inside
    ("count 300 300 600 -600", 1, 5, None),  # the crossing bound, 1.6 * 10^10
    ("trace 3 3 2 0 --steps 22", 0, 5, None),  # --steps at twice the unsolvable default
    ("trace 3 3 2 0 --steps 100000", 1, 5, None),
    # A trace reads no row past its last stage, so the rows before the meeting cost nothing.
    ("trace 2000 1 2 0 --steps 10", 0, 5, None),
    ("trace 3000 1 2 0 --steps 10 --format json --deterministic", 0, 5, None),
    # `solve --all` streams its listing in both formats, so the cap holds the 254,114 solutions
    # of (14,2,3,-1) in text and the 67,500 of (6,5,2,-1) in JSON, which needed 626 MB before
    # its array streamed.  The pins hold their bytes too: the corpus skips `--all` at negative
    # margins.
    ("solve 14 2 3 -1 --all", 0, 10, None, (38_080_958, 254_117, "449fd1f74ba663da")),
    ("solve 6 5 2 -1 --all --format json --deterministic", 0, 10, None,
     (66_960_279, 6_885_018, "530d62bec3194fcf")),
    ("solve 80 80 8 0 --all", 0, 5, None, (13_132_013, 24_180, "5c25684297bd693f")),  # margin 0
    # The last of the 254,114 solutions that the text `--all` row lists, then one past it.
    ("spell 14 2 3 -1 --index 254113", 0, 5, None),
    ("spell 14 2 3 -1 --index 254114", 1, 5, None),
    ("count 3000 1 2 0 --method matrix", 0, 15, None),  # a 4,165-bit count from 3,000 walk rows
    # A full disk: `error: write failed: ...` and exit 1, no traceback.  The check that a
    # refusal writes nothing to stdout cannot see this row: /dev/full keeps no byte.
    ("count 3 3 2 0 > /dev/full", 1, 5, None),
    ("conjecture 0 2 0 200 --max-order 99", 0, 10, None),  # an order bound far above any fit
    ("count 49999 1 2 0 --method graph", 0, 10,
     "item 24: the DAG count keeps every label, about 981 MB"),
    ("solve 49999 1 2 0", 0, 10, "item 24: the DAG count keeps every label"),
    ("spell 49999 1 2 0", 0, 10, "item 24: the DAG count keeps every label"),
    ("trace 2000 1 2 0", 0, 10, "item 27: it streams 4,000 stages, minutes of writing"),
    ("count 10000 1 2 0", 0, 10, "item 27: the walk is unbounded, over 25 s"),
    ("sequence 0 2 0 300", 0, 5,
     "items 16 and 27: each member compiles and walks, 4.7-6.4 s on a 2-core VM"),
    ("sequence 49998 2 0 1", 0, 5, "item 27: its one member, (49999,1,2,0), walks"),
    ("count 49998 1 2 0 --method matrix", 0, 5, "item 27: the walk is unbounded"),
]


def _cap():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _stdout_pin(out, digits: int) -> tuple[int, int, str]:
    """The bytes, newlines and first hex digits of the sha256 of a file, read in 64 KiB chunks."""
    digest, size, lines = hashlib.sha256(), 0, 0
    out.seek(0)
    for chunk in iter(lambda: out.read(1 << 16), b""):
        digest.update(chunk)
        size += len(chunk)
        lines += chunk.count(b"\n")
    return size, lines, digest.hexdigest()[:digits]


def run_row(argv: list[str], want: int, limit: float,
            pin: tuple[int, int, str] | None = None) -> tuple[str, float, str | None]:
    """The child's status, its wall time, and what is wrong with the run, or None.

    An argv that ends in `> path` sends the child's stdout to that file instead."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv, sink = (argv[:-2], argv[-1]) if argv[-2:-1] == [">"] else (argv, None)
    # Files, not pipes, so a row that writes without end costs disk here, not memory.
    with (open(sink, "wb") if sink else tempfile.TemporaryFile()) as out, \
            tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        try:
            status = subprocess.run([sys.executable, "-m", "rivercross.cli", *argv], env=env,
                                    stdout=out, stderr=err, timeout=limit,
                                    preexec_fn=_cap).returncode
        except subprocess.TimeoutExpired:
            return "-", time.perf_counter() - started, f"no exit within {limit} s"
        wall = time.perf_counter() - started
        written = out.seek(0, os.SEEK_END)
        err.seek(0)
        traceback = b"Traceback" in err.read()
        got = _stdout_pin(out, len(pin[2])) if pin else None
    if status != want:
        return str(status), wall, f"exit {status}, not {want}"
    if traceback:
        return str(status), wall, "a traceback on stderr"
    if want == 1 and written:
        return str(status), wall, f"{written} bytes on stdout from a refusal"
    if pin and got != pin:
        return str(status), wall, f"stdout (bytes, newlines, sha256) {got}, pinned {pin}"
    return str(status), wall, None


def main() -> int:
    started = time.perf_counter()
    width = max(len(row[0]) for row in ROWS)
    print(f"{'exit':>4} {'want':>4} {'wall s':>7}  {'argv':<{width}} result", flush=True)
    failed = known = 0
    for line, want, limit, why, *pin in ROWS:
        status, wall, fault = run_row(line.split(), want, limit, *pin)
        if fault is None:
            result = "ok" + (f" (marked known, {why})" if why else "")
        elif why:
            known += 1
            result = f"known: {fault}; {why}"
        else:
            failed += 1
            result = f"FAIL: {fault}"
        print(f"{status:>4} {want:>4} {wall:7.2f}  {line:<{width}} {result}", flush=True)
    print(f"{len(ROWS)} rows, {known} known, {failed} failed; "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
