"""Hostile command lines, at and just past each documented limit, each run under caps.

    python tests/hostile.py

Each row of `ROWS` holds a command line, the exit status it must give and the
seconds it may take; a line that ends in `> path` sends its stdout to that
file, and one that ends in `^C s` sends the child SIGINT s seconds after it
starts.  The rows run one at a time, each in a child process under a 256 MiB
address-space cap (`RLIMIT_AS`) and its time limit, with SIGINT at its default
action even where the shell that runs the script starts children with it
ignored.  A row passes when the child exits with its status in time, writes no
`Traceback` to stderr and, when it refuses an input (exit 1), writes nothing to
stdout and ends its stderr in one `error:` line of at most 200 bytes; an
interrupted row ends its stderr in the one line `error: interrupted`.  A row
may also pin its stdout: the byte count, the newline count and a sha256
prefix, which the run must match.  Each row prints its status and wall time;
a run of 100 or more nines in its command line is printed as its length.

A row marked known fails today for a reason that a ROADMAP item names.  It is
reported and never fails the run; the change that mends it drops the mark.
The script exits 1 when a row that is not marked fails.  Stdlib only; its 29
rows, 8 of them known, take about 50 s on a 2-core VM.
"""

from __future__ import annotations

import hashlib
import os
import re
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_SPACE = 256 << 20  # bytes
ERROR_LINE = 200  # bytes: the longest last stderr line a refusal may write
NINES = "9" * 5000

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
    # JSON's verdict is a search without labels: the DAG count's 888 MiB of labels are not built.
    ("trace 49999 1 2 0 --steps 1 --format json --deterministic", 0, 5, None),
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
    # A refusal cuts the long numbers it echoes, so its one error line stays short.
    (f"count 3 {NINES} 2 0", 1, 5, None),
    (f"sequence 0 2 0 {NINES}", 1, 5, None),
    ("conjecture 0 2 0 200 --max-order 99", 0, 10, None),  # an order bound far above any fit
    # Ctrl-C half-way through a listing of 13 digits' worth of solutions: status 130, one line.
    ("solve 30 1 2 0 --all ^C 0.5", 130, 5, None),
    ("count 49999 1 2 0 --method graph", 0, 10,
     "item 24: the DAG count keeps every label, about 981 MB"),
    ("solve 49999 1 2 0", 0, 10, "item 24: the DAG count keeps every label"),
    ("spell 49999 1 2 0", 0, 10, "item 24: the DAG count keeps every label"),
    ("trace 2000 1 2 0", 0, 10, "item 27: it streams 4,000 stages, minutes of writing"),
    # Text `trace 700 1 2 0` streams its stages; JSON holds them all to write them in key order.
    ("trace 700 1 2 0 --format json --deterministic > /dev/null", 0, 10,
     "item 31: JSON trace holds every stage, out of memory"),
    ("count 10000 1 2 0", 0, 10, "item 27: the walk is unbounded, over 25 s"),
    # Members 4..300 are unsolvable: each after the first is searched, not walked.
    ("sequence 0 2 0 300", 0, 5, None),
    ("sequence 49998 2 0 1", 0, 5, "item 27: its one member, (49999,1,2,0), walks"),
    ("count 49998 1 2 0 --method matrix", 0, 5, "item 27: the walk is unbounded"),
]


def _cap():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    signal.signal(signal.SIGINT, signal.SIG_DFL)  # a shell may start children ignoring it


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

    An argv that ends in `> path` sends the child's stdout to that file instead, and one that
    ends in `^C s` sends the child SIGINT after s seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv, sink = (argv[:-2], argv[-1]) if argv[-2:-1] == [">"] else (argv, None)
    argv, delay = (argv[:-2], float(argv[-1])) if argv[-2:-1] == ["^C"] else (argv, None)
    # Files, not pipes, so a row that writes without end costs disk here, not memory.
    with (open(sink, "wb") if sink else tempfile.TemporaryFile()) as out, \
            tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "rivercross.cli", *argv], env=env,
                                 stdout=out, stderr=err, preexec_fn=_cap)
        try:
            if delay is not None:
                try:
                    child.wait(delay)
                except subprocess.TimeoutExpired:
                    child.send_signal(signal.SIGINT)
            status = child.wait(max(0.0, limit - (time.perf_counter() - started)))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            return "-", time.perf_counter() - started, f"no exit within {limit} s"
        wall = time.perf_counter() - started
        written = out.seek(0, os.SEEK_END)
        err.seek(0)
        stderr = err.read()
        traceback = b"Traceback" in stderr
        got = _stdout_pin(out, len(pin[2])) if pin else None
    if status != want:
        return str(status), wall, f"exit {status}, not {want}"
    if traceback:
        return str(status), wall, "a traceback on stderr"
    if want == 1 and written:
        return str(status), wall, f"{written} bytes on stdout from a refusal"
    last = stderr.rstrip(b"\n").rpartition(b"\n")[2]
    if delay is not None and last != b"error: interrupted":
        return str(status), wall, f"stderr ends in {last[:80]!r}, not in error: interrupted"
    if want == 1 and not (re.match(rb"([\w.-]+: )?error: ", last) and len(last) <= ERROR_LINE):
        return str(status), wall, (f"stderr ends in {last[:80]!r}, {len(last)} bytes, not in "
                                   f"one error: line of at most {ERROR_LINE} bytes")
    if pin and got != pin:
        return str(status), wall, f"stdout (bytes, newlines, sha256) {got}, pinned {pin}"
    return str(status), wall, None


def main() -> int:
    started = time.perf_counter()
    shown = [re.sub(r"9{100,}", lambda run: f"<{len(run[0]):,} nines>", row[0]) for row in ROWS]
    width = max(map(len, shown))
    print(f"{'exit':>4} {'want':>4} {'wall s':>7}  {'argv':<{width}} result", flush=True)
    failed = known = 0
    for (line, want, limit, why, *pin), display in zip(ROWS, shown):
        status, wall, fault = run_row(line.split(), want, limit, *pin)
        if fault is None:
            result = "ok" + (f" (marked known, {why})" if why else "")
        elif why:
            known += 1
            result = f"known: {fault}; {why}"
        else:
            failed += 1
            result = f"FAIL: {fault}"
        print(f"{status:>4} {want:>4} {wall:7.2f}  {display:<{width}} {result}", flush=True)
    print(f"{len(ROWS)} rows, {known} known, {failed} failed; "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
