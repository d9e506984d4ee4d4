"""Differential check: this checkout's `src/` against the `src/` of a git ref, on one workload.

    python tests/equivalence.py REF

It extracts REF's `src/` with `git archive` into a temporary directory and
runs one fixed, seeded workload on each tree, each in its own child process
under a timeout and an address-space cap.  Every item of the workload has a key;
each child prints one sha256 digest per key.  When a digest differs, the script
prints the first key that differs with both outputs and exits 1; when none
does, it exits 0.  The workload is what the byte-identity corpus
(`tests/test_corpus.py`) is too large to pin:

- `species_graph` on the MC grid M, C 1..15, B 2..6, d -1..2 (4,500 sets,
  the ill-posed ones included), on wolf-goat-cabbage, and on seeded
  three-species puzzles whose bank rules read the boat side, with
  `allow_empty_boat` both ways;
- `solve --all` at d = -1 for M, C <= 5, B 2..4, in text and JSON;
- `trace` on M, C 7..12, B 2..5, d -1..2, beyond the corpus grid, at its
  default length and with `--steps 5`, in text and JSON;
- `sequence` over surplus -2..6, B 1..4, d -1..2 with 1, 5 and 14 terms, and
  `conjecture` over the same grid with 14 terms, by default and with
  `--max-order 2`, in text and JSON.

Stdlib only.  It takes under a minute on a 2-core VM, so it stays out of
tier-1 (pytest collects only `test_*.py`); CI runs it on pull requests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import resource
import subprocess
import sys
import tarfile
import tempfile
import time
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
ADDRESS_SPACE = 2 << 30  # bytes; a child that needs more fails rather than swap the host
SHOWN = 4000  # characters printed of each output of the first key that differs


# ---------------------------------------------------------------------------
# The workload, run in a child process against one tree's `src/`
# ---------------------------------------------------------------------------

def seeded_puzzles(count: int = 400, seed: int = 18):
    """Three-species puzzles with random bank and boat tables; the bank rule reads the boat side."""
    from rivercross import SpeciesPuzzle

    rng = random.Random(seed)
    for k in range(count):
        amounts = tuple(rng.randint(1, 3) for _ in range(3))
        boxes = [range(a + 1) for a in amounts]
        bank = {(vec, present): rng.random() < 0.85
                for vec in product(*boxes) for present in (False, True)}
        boat = {load: rng.random() < 0.8 for load in product(*boxes)}
        yield f"graph seeded {k}", SpeciesPuzzle(
            names=("a", "b", "c"), amounts=amounts, boat_capacity=rng.randint(1, 3),
            bank_rule=lambda vec, present, bank=bank: bank[vec, present],
            boat_rule=lambda load, boat=boat: boat[load],
            allow_empty_boat=k % 2 == 1)


def workload():
    """(key, thunk) pairs in a fixed order; a thunk writes the key's output to `out`."""
    from rivercross import McParams, mc_species, species_graph, wolf_goat_cabbage
    from rivercross.cli import main

    def graph(sp):
        def run(out):
            try:
                out.write(repr(species_graph(sp)))
            except ValueError as exc:
                out.write(f"ValueError: {exc}")
        return run

    def cli(argv):
        def run(out):
            err = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    status = main(argv)
                except SystemExit as exc:
                    status = f"SystemExit({exc.code})"
            out.write(f"\nstatus: {status}\nstderr: {err.getvalue()}")
        return run

    for m, c, b, d in product(range(1, 16), range(1, 16), range(2, 7), range(-1, 3)):
        yield f"graph {m} {c} {b} {d}", graph(mc_species(McParams(m, c, b, d)))
    yield "graph wolf-goat-cabbage", graph(wolf_goat_cabbage())
    for key, sp in seeded_puzzles():
        yield key, graph(sp)
    formats = [[], ["--format", "json", "--deterministic"]]
    for m, c, b, fmt in product(range(1, 6), range(1, 6), range(2, 5), formats):
        argv = ["solve", str(m), str(c), str(b), "-1", "--all", *fmt]
        yield "cli " + " ".join(argv), cli(argv)
    for m, c, b, d, steps, fmt in product(range(7, 13), range(7, 13), range(2, 6), range(-1, 3),
                                          ([], ["--steps", "5"]), formats):
        argv = ["trace", str(m), str(c), str(b), str(d), *steps, *fmt]
        yield "cli " + " ".join(argv), cli(argv)
    for s, b, d, n, fmt in product(range(-2, 7), range(1, 5), range(-1, 3), (1, 5, 14), formats):
        argv = ["sequence", str(s), str(b), str(d), str(n), *fmt]
        yield "cli " + " ".join(argv), cli(argv)
    for s, b, d, order, fmt in product(range(-2, 7), range(1, 5), range(-1, 3),
                                       ([], ["--max-order", "2"]), formats):
        argv = ["conjecture", str(s), str(b), str(d), "14", *order, *fmt]
        yield "cli " + " ".join(argv), cli(argv)


class _Digest(io.TextIOBase):
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode())
        return len(text)


def child(src: str, show: str | None) -> None:
    """Print `key<TAB>digest` for each key, or, with `show`, that key's whole output."""
    import rivercross
    if Path(rivercross.__file__).resolve().parent != Path(src).resolve() / "rivercross":
        sys.exit(f"imported {rivercross.__file__}, not the tree under {src}")
    sys.set_int_max_str_digits(0)
    for key, run in workload():
        if show is None:
            out = _Digest()
            run(out)
            print(f"{key}\t{out.hash.hexdigest()}")
        elif key == show:
            out = io.StringIO()
            run(out)
            print(out.getvalue())
            return


# ---------------------------------------------------------------------------
# The comparison: extract REF, run both trees, compare their digests
# ---------------------------------------------------------------------------

def _cap():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _start(src: Path, *extra: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--child", str(src),
                             *extra], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=src.parent, preexec_fn=_cap)


def _finish(proc: subprocess.Popen, name: str) -> str:
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"{name}: no result within {TIMEOUT_S} s")
    if proc.returncode:
        sys.exit(f"{name}: child exited {proc.returncode}\n{err}")
    return out


def _extract(ref: str, into: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into / "src"


def compare(ref: str) -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        trees = {ref: _extract(ref, Path(tmp)), "this checkout": ROOT / "src"}
        procs = {name: _start(src) for name, src in trees.items()}  # both run at once
        digests = {name: _finish(proc, name).splitlines() for name, proc in procs.items()}
        before, after = digests.values()
        for old, new in zip(before, after):
            if old != new:
                key = old.split("\t")[0]
                print(f"first key that differs: {key}")
                for name, src in trees.items():
                    shown = _finish(_start(src, "--show", key), name)
                    print(f"--- {name}: {len(shown)} characters, the first {SHOWN} shown")
                    print(shown[:SHOWN])
                return 1
        if len(before) != len(after):
            print(f"the workload has {len(before)} keys at {ref}, {len(after)} here")
            return 1
    total = hashlib.sha256("\n".join(after).encode()).hexdigest()
    print(f"{len(after)} keys, 0 differ from {ref}; sha256 of the digests {total[:16]}; "
          f"{time.perf_counter() - started:.1f} s")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ref", nargs="?", help="the git ref to compare this checkout with")
    parser.add_argument("--child", metavar="SRC", help=argparse.SUPPRESS)
    parser.add_argument("--show", metavar="KEY", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child, args.show)
        return 0
    if not args.ref:
        parser.error("name a git ref, such as the base of the branch")
    return compare(args.ref)


if __name__ == "__main__":
    sys.exit(main())
