import contextlib
import errno
import io
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rivercross import McParams, Strategy, cli, mc_species, solve_by_transfer, transfer
from rivercross.cli import main
from rivercross.puzzle import MAX_STATE_BOX

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def golden(name):
    return (GOLDEN / name).read_text()


# The number of shortest solutions of (300, 1, 2, 0), 126 digits.
LOPSIDED_COUNT = solve_by_transfer(mc_species(McParams(300, 1, 2, 0))).count


class TestExitCodes:
    def test_solvable_is_zero(self, capsys):
        status, _, _ = run(capsys, "solve", "3", "3", "2", "0")
        assert status == 0

    def test_unsolvable_is_two(self, capsys):
        status, out, _ = run(capsys, "solve", "4", "4", "2", "0")
        assert status == 2
        assert "UNSOLVABLE" in out

    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "3", "3"])
        assert exc.value.code == 1

    def test_invalid_params_are_usage_errors(self, capsys):
        status, _, err = run(capsys, "solve", "3", "3", "1", "0")
        assert status == 1
        assert "boat" in err

    def test_unknown_method_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "3", "3", "2", "0", "--method", "magic"])
        assert exc.value.code == 1

    def test_count_unsolvable_is_two(self, capsys):
        status, _, _ = run(capsys, "count", "4", "4", "2", "0", "--method", "matrix")
        assert status == 2

    def test_spell_index_out_of_range(self, capsys):
        status, _, err = run(capsys, "spell", "3", "3", "2", "0", "--index", "4")
        assert status == 1
        assert "out of range" in err

    @pytest.mark.parametrize("argv, index, count", [
        (("3", "3", "2", "0"), "-1", 4),
        (("300", "1", "2", "0"), str(LOPSIDED_COUNT), LOPSIDED_COUNT),
    ])
    def test_spell_index_out_of_range_message(self, capsys, argv, index, count):
        status, out, err = run(capsys, "spell", *argv, "--index", index)
        assert (status, out) == (1, "")
        assert err == f"error: index {index} out of range: {count} solutions exist\n"

    def test_out_of_memory_is_one_line(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "count_shortest_paths", exhausted)
        assert run(capsys, "solve", "3", "3", "2", "0") == (1, "", "error: out of memory\n")

    def test_out_of_memory_after_the_first_byte_is_one_line(self, capsys, monkeypatch):
        listed = cli.shortest_paths

        def one_then_exhausted(counted):
            yield next(listed(counted))
            raise MemoryError

        monkeypatch.setattr(cli, "shortest_paths", one_then_exhausted)
        status, out, err = run(capsys, "solve", "3", "3", "2", "0", "--all")
        assert (status, err) == (1, "error: out of memory\n")
        assert out.splitlines()[-1].startswith("solution 1: [3,3,1] ")

    @pytest.mark.parametrize("argv", [
        ("sequence", "0", "2", "0", "9" * 5000),
        ("count", "3", "9" * 5000, "2", "0"),
        ("count", "3", "9" * 5000 + "x", "2", "0"),  # argparse's own `invalid int value`
    ])
    def test_an_error_line_cuts_a_long_number(self, capsys, argv):
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code
        out, err = capsys.readouterr()
        assert (status, out) == (1, "")
        line = err.splitlines()[-1]
        assert "error: " in line and re.search(r"\.\.\. \(\d+ digits\)", line)
        assert len(line.encode()) < 200

    def test_spell_unsolvable_is_two(self, capsys):
        status, out, _ = run(capsys, "spell", "4", "4", "2", "0")
        assert status == 2
        assert "UNSOLVABLE" in out

    @pytest.mark.parametrize("order", ["0", "-2"])
    def test_conjecture_max_order_below_one_is_usage_error(self, capsys, order):
        for family in (("5", "3", "1", "12"), ("1", "2", "1", "6")):  # the second has no solvable term
            status, out, err = run(capsys, "conjecture", *family, "--max-order", order)
            assert (status, out) == (1, "")
            assert err == "error: max_order must be at least 1\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", [
        ("spell", "3", "3", "2", "0", "--index", "4"),
        ("trace", "3", "3", "2", "0", "--steps", "-1"),
        ("sequence", "5", "3", "1", "0"),
        ("conjecture", "5", "3", "1", "12", "--max-order", "0"),
        ("solve", "3", "3", "2", "1"),    # ill-posed: the start bank breaks the margin
        ("solve", "400", "400", "2", "0"),  # state box above the limit
    ])
    def test_errors_leave_stdout_empty(self, capsys, argv, fmt):
        status, out, err = run(capsys, *argv, "--format", fmt)
        assert (status, out) == (1, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["sequence", "conjecture"])
    def test_family_rejects_what_count_rejects(self, capsys, command):
        # Term 1 of surplus -1 is the instance (0, 1, 2, -3), which has no missionary.
        message = "error: need at least 1 missionary, got 0\n"
        assert run(capsys, "count", "0", "1", "2", "-3") == (1, "", message)
        assert run(capsys, command, "-1", "2", "-3", "4") == (1, "", message)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv, message", [
        # Two rules broken at once are reported in an instance's order: the first member
        # before the largest one's size, and --max-order before the family.
        (("sequence", "-1", "2", "0", "400"), "need at least 1 missionary, got 0"),
        (("sequence", "0", "1", "0", "400"), "boat must hold at least 2, got 1"),
        (("conjecture", "0", "2", "0", "0", "--max-order", "0"), "max_order must be at least 1"),
        (("conjecture", "0", "2", "0", "400", "--max-order", "0"),
         "max_order must be at least 1"),
    ])
    def test_family_reports_its_first_broken_rule(self, capsys, argv, message, fmt):
        assert run(capsys, *argv, "--format", fmt) == (1, "", f"error: {message}\n")

    def test_crossing_bound_refused_at_once(self, capsys, monkeypatch):
        def no_compile(sp):
            raise AssertionError("compiled before the size check")

        monkeypatch.setattr("rivercross.puzzle.species_graph", no_compile)
        started = time.perf_counter()
        status, out, err = run(capsys, "count", "300", "300", "600", "-600")  # inside the box
        assert time.perf_counter() - started < 1.0
        assert (status, out) == (1, "")
        assert err.startswith("error: crossing bound 2(M+1)(C+1)L = 16416901200, ")


SMALL = st.integers(-1, 6).map(str)
INSTANCE = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 5), st.integers(-2, 2))
FAMILY = st.tuples(st.integers(-2, 5), st.integers(1, 4), st.integers(-2, 2), st.integers(-1, 8))
OWN_OPTION = {  # each subcommand's own option and its value, if it has one
    "solve": st.just(["--all"]),
    "spell": st.tuples(st.just("--index"), SMALL),
    "count": st.tuples(st.just("--method"), st.sampled_from(["graph", "matrix", "transfer", "x"])),
    "trace": st.tuples(st.just("--steps"), st.integers(-1, 24).map(str)),
    "strategy": st.tuples(st.just("--name"), st.sampled_from([s.value for s in Strategy])),
    "sequence": st.just([]),
    "conjecture": st.tuples(st.just("--max-order"), SMALL),
}


@st.composite
def argvs(draw):
    """A command line of any subcommand and flags, in any order, with small integers."""
    command = draw(st.sampled_from(sorted(OWN_OPTION)))
    positional = draw(FAMILY if command in ("sequence", "conjecture") else INSTANCE)
    flags = [draw(OWN_OPTION[command]), ["--format", draw(st.sampled_from(["text", "json"]))],
             ["--deterministic"]]
    if command == "solve" and positional[3] < 0:
        flags[0] = []  # negative margins list fast: (6,5,2,-1) has 67,500 solutions
    chosen = draw(st.permutations([flag for flag in flags if draw(st.booleans())]))
    return [command, *map(str, positional), *itertools.chain.from_iterable(chosen)]


class TestGrammar:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.one_of(argvs(), st.sampled_from(
        [["--help"], ["--version"], *([command, "--help"] for command in OWN_OPTION)])))
    def test_every_status_is_documented(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:  # argparse: --help or --version (0), or a usage error (1)
                assert exc.code in (0, 1), argv
                assert exc.code == 0 or out.getvalue() == "", argv
                return
        assert status in (0, 1, 2), argv
        if status == 1:
            assert out.getvalue() == "", argv
            assert re.fullmatch(r"error: [^\n]+\n", err.getvalue()), (argv, err.getvalue())


class TestGoldenText:
    def test_solve_all(self, capsys):
        _, out, _ = run(capsys, "solve", "3", "3", "2", "0", "--all")
        assert out == golden("solve_3320_all.txt")

    def test_trace(self, capsys):
        _, out, _ = run(capsys, "trace", "3", "3", "2", "0")
        assert out == golden("trace_3320.txt")

    def test_conjecture(self, capsys):
        _, out, _ = run(capsys, "conjecture", "5", "3", "1", "12")
        assert out == golden("conjecture_5_3_1_12.txt")

    def test_spell(self, capsys):
        _, out, _ = run(capsys, "spell", "3", "3", "2", "0", "--index", "0")
        assert out == golden("spell_3320_0.txt")

    def test_strategy_script(self, capsys):
        _, out, _ = run(capsys, "strategy", "7", "7", "4", "0",
                        "--name", "ZeroMarginEqualBigBoat")
        assert out == golden("strategy_7740_equal.txt")

    def test_sequence_with_unsolvable_markers(self, capsys):
        _, out, _ = run(capsys, "sequence", "0", "2", "0", "5")
        assert out == golden("sequence_0_2_0_5.txt")


class TestTrace:
    @pytest.mark.parametrize("argv, steps", [
        (("3", "3", "2", "0"), 11),               # g1..g6 and f1..f5
        (("4", "4", "2", "0", "--steps", "20"), 40),
    ])
    def test_each_stage_computed_once(self, capsys, monkeypatch, argv, steps):
        # Verdict and printout share one pass: each stage is one row of the walk kernel.
        real = transfer.walk_rows
        rows = []

        def counted(*args):
            for row in real(*args):
                rows.append(row)
                yield row

        monkeypatch.setattr(transfer, "walk_rows", counted)
        for fmt in ("text", "json"):
            rows.clear()
            status, _, _ = run(capsys, "trace", *argv, "--format", fmt)
            assert status == 0
            assert len(rows) == steps

    def test_json_formats_no_polynomial(self, capsys, monkeypatch):
        # Neither format calls the formatter; each text stage line is its text all the same.
        real = transfer.format_polynomial
        calls = []

        def counted(poly):
            calls.append(poly)
            return real(poly)

        monkeypatch.setattr(transfer, "format_polynomial", counted)
        for fmt in ("json", "text"):
            status, out, _ = run(capsys, "trace", "4", "4", "2", "0", "--format", fmt)
            assert (status, len(calls)) == (0, 0), fmt
        assert _stage_lines(out) == _formatted_stages(McParams(4, 4, 2, 0), None, real)
        assert len(_stage_lines(out)) == 29  # f0, then g1..f14

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(2, 5), st.integers(-2, 2),
           st.none() | st.integers(0, 20))
    # Stages that hold the coefficients 1, 11, 21 and 101 and the constant term 1, which
    # leaving out a unit coefficient must tell apart: (1,1,2,0) has the constant term 1.
    @example(1, 1, 2, 0, None)
    @example(2, 2, 3, -2, 12)
    @example(1, 3, 2, -2, None)
    @example(4, 3, 3, -1, None)
    def test_text_stages_are_format_polynomial(self, m, c, b, d, steps):
        """Each text stage line is `format_polynomial` of its row, decoded into a polynomial."""
        p = McParams(m, c, b, d)
        steps_flag = [] if steps is None else ["--steps", str(steps)]
        status, out = _ask("trace", *map(str, p), *steps_flag)
        assume(status == 0)  # else the instance or the steps are refused
        assert _stage_lines(out) == _formatted_stages(p, steps, transfer.format_polynomial), p

    def test_negative_steps_is_usage_error(self, capsys):
        status, _, err = run(capsys, "trace", "3", "3", "2", "0", "--steps", "-1")
        assert status == 1
        assert "non-negative" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_steps_stop_at_twice_the_unsolvable_default(self, capsys, monkeypatch, fmt):
        # (3, 3, 2, 0) has 10 legal states: an unsolvable trace would end at stage 11.
        status, out, _ = run(capsys, "trace", "3", "3", "2", "0", "--steps", "22", "--format", fmt)
        names = (list(json.loads(out)["polynomials"]) if fmt == "json"
                 else [line.split(" = ")[0] for line in out.splitlines()[1:]])
        assert status == 0 and len(names) == 45 and "f22" in names

        def no_rows(*args):
            raise AssertionError("a refused trace reads no row")

        monkeypatch.setattr(transfer, "walk_rows", no_rows)
        for steps in ("23", "100000"):
            status, out, err = run(capsys, "trace", "3", "3", "2", "0", "--steps", steps,
                                   "--format", fmt)
            assert (status, out) == (1, "")
            assert err == "error: stages must be at most 22, twice an unsolvable trace's default\n"


def _stage_lines(out):
    return [line for line in out.splitlines() if " = " in line]


def _formatted_stages(p, steps, formatter):
    """The stage lines of `trace`, each row decoded into a polynomial and formatted."""
    sp = mc_species(p)
    states = sp.state_graph[1]
    return [f"{name} = {formatter({states[v - 1][0]: counts[v] for v in support})}"
            for name, counts, support in transfer.trace_rows(sp, steps)]


class _Recorder(io.StringIO):
    """A stdout that notes, for each line written, what `probe()` read at that moment."""

    def __init__(self, probe):
        super().__init__()
        self.probe = probe
        self.seen = []

    def write(self, text):
        if text != "\n":  # a bare newline, such as the one that ends a JSON document
            self.seen.append((text, self.probe()))
        return super().write(text)


class TestTextStreams:
    """Text lines reach stdout as they are produced: a line never waits for the ones after it."""

    def record(self, monkeypatch, probe, *argv):
        recorder = _Recorder(probe)
        monkeypatch.setattr(sys, "stdout", recorder)
        assert main(list(argv)) == 0
        return recorder.seen

    def test_solve_all_writes_each_solution_as_it_is_listed(self, monkeypatch):
        real, pulled = cli.shortest_paths, []

        def counted(dag):
            for path in real(dag):
                pulled.append(path)
                yield path

        monkeypatch.setattr(cli, "shortest_paths", counted)
        seen = self.record(monkeypatch, lambda: len(pulled), "solve", "5", "5", "3", "0", "--all")
        solutions = [(int(text.split(":")[0].split()[1]), n) for text, n in seen
                     if text.startswith("solution ")]
        assert len(solutions) == len(pulled) == 25
        for k, n in solutions:
            assert n <= k, (k, n)

    def test_trace_writes_each_stage_as_its_row_is_read(self, monkeypatch):
        real, rows = transfer.walk_rows, []

        def counted(*args):
            for row in real(*args):
                rows.append(row)
                yield row

        monkeypatch.setattr(transfer, "walk_rows", counted)
        transfer.solve_by_transfer(mc_species(McParams(4, 4, 2, 0)))
        verdict = len(rows)  # the rows the verdict reads before any stage is printed
        rows.clear()
        seen = self.record(monkeypatch, lambda: len(rows),
                           "trace", "4", "4", "2", "0", "--steps", "20")
        stages = [n for text, n in seen if text[0] in "fg" and not text.startswith("f0 ")]
        assert len(stages) == len(rows) == 40 > verdict
        for j, n in enumerate(stages, start=1):
            assert n <= max(j, verdict), (j, n)


class _Sink(io.TextIOBase):
    """A stdout that discards what it is given, so only the command's own memory is measured."""

    def write(self, text):
        return len(text)


class TestTraceMemory:
    """A trace holds the walk rows it prints, two at a time in text, not the rows before them."""

    @pytest.mark.parametrize("argv, mib", [
        (("trace", "600", "1", "2", "0", "--steps", "5"), 2),
        (("trace", "600", "1", "2", "0", "--steps", "5", "--format", "json"), 2),
        (("trace", "150", "1", "2", "0"), 1),  # ends on g150: 300 rows of 605 entries
        # JSON's verdict is a search without labels, not the DAG count's big integers.
        (("trace", "3000", "1", "2", "0", "--steps", "5", "--format", "json"), 8),
    ])
    def test_peak(self, monkeypatch, argv, mib):
        cli._parser()  # built once per process, so it is left out of every measurement
        monkeypatch.setattr(sys, "stdout", _Sink())
        tracemalloc.start()
        try:
            status = main(list(argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0 and peak < mib << 20, f"{peak / 2**20:.2f} MiB"


class TestJsonStreams:
    """JSON streams one field element by element, in the bytes of one dumps of the document."""

    @pytest.mark.parametrize("argv, status", [
        (("trace", "4", "4", "2", "0"), 0),  # runs to f14, so "f10" sorts before "f2"
        (("trace", "3", "3", "2", "0", "--steps", "0"), 0),
        (("solve", "4", "4", "2", "0"), 2),
        (("solve", "3", "3", "2", "0"), 0),
        (("solve", "3", "3", "2", "-1", "--all"), 0),
        (("trace", "20", "20", "4", "0"), 0),
        (("trace", "9", "9", "3", "0", "--steps", "30"), 0),
        (("solve", "4", "4", "2", "0", "--all"), 2),  # unsolvable: an empty listing
        (("solve", "300", "1", "2", "0"), 0),  # one 599-crossing solution, a count above 2**63
    ])
    @pytest.mark.parametrize("timed", [False, True])
    def test_bytes_are_one_dumps_of_the_document(self, capsys, argv, status, timed):
        got, out, _ = run(capsys, *argv, "--format", "json", *([] if timed else ["--deterministic"]))
        doc = json.loads(out)
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert got == status and ("elapsed_ms" in doc["meta"]) == timed

    @pytest.mark.parametrize("poly", [
        {(1, 2): 2**64, (2, 1): 2**64 - 1, (0, 0): 1},
        {(3, 0): 7 ** 5916, (0, 3): -(10 ** 4999)},  # 5,000 digits each; `main` lifts the limit
        {},
        {(4,): 3, (0,): 1, (2,): 5},
        {(1, 0, 2): 9, (0, 3, 0): 8, (3, 0, 0): 7, (0, 0, 0): 6},
        {(): 12},
    ])
    def test_terms_are_those_of_dumps(self, poly):
        """A stage written from its walk row is the text json's encoder writes, at its indent."""
        states = tuple((mono, 0) for mono in poly) or (((0, 0), 0),)  # vertex v: v-th monomial
        counts, support = [0, *poly.values()], list(range(len(poly), 0, -1))
        write = cli._json_stage(states)
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            terms = transfer.polynomial_terms(poly)
            assert write(counts, support) == json.dumps(terms, indent=2).replace("\n", "\n    ")
        finally:
            sys.set_int_max_str_digits(digits)

    def test_solve_all_writes_each_solution_as_it_is_listed(self, monkeypatch):
        real, pulled = cli.shortest_paths, []

        def counted(dag):
            for path in real(dag):
                pulled.append(path)
                yield path

        monkeypatch.setattr(cli, "shortest_paths", counted)
        recorder = _Recorder(lambda: len(pulled))
        monkeypatch.setattr(sys, "stdout", recorder)
        assert main(["solve", "5", "5", "3", "0", "--all", "--format", "json",
                     "--deterministic"]) == 0
        done = 0  # solutions whole in stdout before a write; each ends in a 4-space "]" line
        for text, n in recorder.seen:
            assert n <= done + 1, (done, n)
            done += text.count("\n    ]")
        assert done == len(pulled) == 25

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_solve_without_all_lists_one_solution(self, capsys, monkeypatch, fmt):
        real, pulled = cli.shortest_paths, []

        def counted(dag):
            for path in real(dag):
                pulled.append(path)
                yield path

        monkeypatch.setattr(cli, "shortest_paths", counted)
        status, out, _ = run(capsys, "solve", "5", "5", "3", "0", "--format", fmt)
        assert status == 0 and len(pulled) == 1
        listed = json.loads(out)["solutions"] if fmt == "json" else out.split("\nsolution ")[1:]
        assert len(listed) == 1


class TestJson:
    def test_solve_schema_and_roundtrip(self, capsys):
        _, out, _ = run(capsys, "solve", "3", "3", "2", "0", "--all",
                        "--format", "json", "--deterministic")
        doc = json.loads(out)
        assert doc["command"] == "solve"
        assert doc["params"] == {
            "missionaries": 3, "cannibals": 3, "boat_capacity": 2, "safety_margin": 0
        }
        assert doc["crossings"] == 11
        assert doc["count"] == 4
        assert len(doc["solutions"]) == 4
        assert doc["solutions"][0][0] == [3, 3, 1]
        assert json.loads(json.dumps(doc)) == doc

    def test_unsolvable_solve(self, capsys):
        _, out, _ = run(capsys, "solve", "4", "4", "2", "0", "--format", "json",
                        "--deterministic")
        doc = json.loads(out)
        assert doc["solvable"] is False and doc["solutions"] == []

    def test_deterministic_flag_drops_timing(self, capsys):
        _, out1, _ = run(capsys, "count", "3", "3", "2", "0",
                         "--format", "json", "--deterministic")
        _, out2, _ = run(capsys, "count", "3", "3", "2", "0",
                         "--format", "json", "--deterministic")
        assert out1 == out2
        assert "elapsed_ms" not in out1
        _, timed, _ = run(capsys, "count", "3", "3", "2", "0", "--format", "json")
        assert "elapsed_ms" in timed

    def test_conjecture_json_fields(self, capsys):
        _, out, _ = run(capsys, "conjecture", "5", "3", "1", "12",
                        "--format", "json", "--deterministic")
        doc = json.loads(out)
        assert doc["recurrence"]["order"] == 2
        assert doc["recurrence"]["coefficients"] == ["1", "1"]
        assert doc["recurrence"]["valid_from_term"] == 3
        assert doc["gf"]["denominator"] == [1, -1, -1]
        assert doc["series_ok"] is True

    def test_strategy_json_moves(self, capsys):
        _, out, _ = run(capsys, "strategy", "3", "2", "3", "0",
                        "--name", "BigBoat2", "--format", "json", "--deterministic")
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["moves"] == [[0, 2, "F"], [0, 1, "B"], [3, 0, "F"], [0, 1, "B"], [0, 2, "F"]]

    def test_counts_beyond_64_bits_become_strings(self, capsys):
        _, out, _ = run(capsys, "sequence", "9", "2", "0", "12",
                        "--format", "json", "--deterministic")
        terms = json.loads(out)["terms"]
        assert isinstance(terms[0], int)
        assert isinstance(terms[-1], str)  # wider than a signed 64-bit integer
        assert int(terms[-1]) > 2**63


class TestLongCounts:
    """Counts print at any length, and the interpreter's digit limit is left as found."""

    LIMIT = 1000  # below the count's length, so only a lifted limit lets it print

    @pytest.fixture(autouse=True)
    def low_limit(self):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(self.LIMIT)
        yield
        sys.set_int_max_str_digits(before)

    def test_count_of_4305_digits_in_text_and_json(self, capsys):
        argv = ("count", "10300", "1", "2", "0", "--method", "graph")
        status, text, _ = run(capsys, *argv)
        assert sys.get_int_max_str_digits() == self.LIMIT
        json_status, out, _ = run(capsys, *argv, "--format", "json", "--deterministic")
        assert sys.get_int_max_str_digits() == self.LIMIT
        count = json.loads(out)["count"]
        assert (status, json_status) == (0, 0)
        assert len(count) == 4305 and count.isdigit()
        assert text.endswith(f"\ncount: {count}\n")

    def test_limit_restored_after_errors(self, capsys):
        status, _, err = run(capsys, "count", "0", "1", "2", "0")
        assert status == 1 and err.startswith("error: ")
        assert sys.get_int_max_str_digits() == self.LIMIT
        with pytest.raises(SystemExit):
            main(["count", "3"])
        assert sys.get_int_max_str_digits() == self.LIMIT


class TestReentry:
    """`main` reuses one parser; repeated calls in one process answer alike."""

    COMMANDS = (
        ("count", "3"),
        ("count", "3", "3", "2", "0", "--method", "magic"),
        ("count", "3", "3", "2", "0"),
        ("--help",),
        ("--version",),
        ("solve", "5", "5", "3", "0", "--format", "json", "--deterministic"),
        ("solve", "3", "3", "1", "0"),
        ("sequence", "5", "3", "1", "8"),
        ("strategy", "8", "3", "2", "1", "--name", "TwoBoat"),
    ) + tuple((name, "--help") for name in (
        "solve", "spell", "count", "trace", "sequence", "conjecture", "strategy"))

    @staticmethod
    def outcome(capsys, argv):
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    def transcript(self, capsys):
        return [self.outcome(capsys, argv) for argv in self.COMMANDS]

    def test_repeated_calls_are_byte_identical(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        cli._parser.cache_clear()
        fresh = {80: self.transcript(capsys)}
        monkeypatch.setenv("COLUMNS", "200")
        cli._parser.cache_clear()
        fresh[200] = self.transcript(capsys)
        assert fresh[80] != fresh[200]  # help wraps to the width
        for columns in (80, 200, 80, 200):
            monkeypatch.setenv("COLUMNS", str(columns))
            assert self.transcript(capsys) == fresh[columns], columns


class TestMethodAgreement:
    def test_all_methods_agree_on_sample(self, capsys):
        grid = [
            (3, 3, 2, 0), (5, 5, 3, 0), (4, 4, 2, 0), (7, 7, 4, 0),
            (6, 1, 3, 1), (5, 2, 2, 1), (2, 2, 4, 0),
        ]
        for m, c, b, d in grid:
            results = []
            for method in ("graph", "matrix", "transfer"):
                status, out, _ = run(capsys, "count", str(m), str(c), str(b), str(d),
                                     "--method", method, "--format", "json",
                                     "--deterministic")
                doc = json.loads(out)
                results.append((status, doc["solvable"], doc["crossings"], doc["count"]))
            assert results[0] == results[1] == results[2], (m, c, b, d, results)

    def test_text_output_reproducible(self, capsys):
        _, out1, _ = run(capsys, "solve", "5", "5", "3", "0", "--all")
        _, out2, _ = run(capsys, "solve", "5", "5", "3", "0", "--all")
        assert out1 == out2

    LISTED = 500  # `solve --all` is checked where it lists at most this many solutions

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(2, 5), st.integers(-2, 2)),
           st.data())
    def test_commands_agree_on_generated_instances(self, instance, data):
        """count by each method and format, solve, solve --all, spell, trace and strategy give
        one answer."""
        argv = list(map(str, instance))
        asked = [["solve"], *(["count", "--method", method]
                              for method in ("graph", "matrix", "transfer"))]
        answers = {_answer(*_ask(command, *argv, *flags, "--format", fmt))
                   for command, *flags in asked for fmt in ("text", "json")}
        assert len(answers) == 1, (instance, answers)
        [(status, crossings, count)] = answers
        (traced, text), (traced_json, out) = (_ask("trace", *argv, "--format", fmt)
                                              for fmt in ("text", "json"))
        assert traced == traced_json == int(status == 1), instance
        if traced == 0:  # a trace without --steps ends on count's verdict in both formats
            doc = json.loads(out)
            bound = doc["states_bound"]
            assert text.splitlines()[-1] == (
                f"success: constant term {count} at stage {(crossings + 1) // 2}; "
                f"solvable in {crossings} crossings, {count} solutions" if status == 0 else
                f"no constant term through stage {bound + 1}; "
                f"{bound} legal states, so the instance is UNSOLVABLE"), instance
            last = max((name for name in doc["polynomials"] if name[0] == "g"),
                       key=lambda name: int(name[1:]))
            constant = [c for c, exponents in doc["polynomials"][last] if not any(exponents)]
            assert (doc["solvable"], constant) == (
                (True, [count]) if status == 0 else (False, [])), instance
        # Each strategy that applies gives a valid script, no shorter than the shortest.
        planned, out = _ask("strategy", *argv, "--format", "json")
        assert planned == int(status == 1), instance
        applicable = [] if planned else json.loads(out)["applicable"]
        assert status == 0 or applicable == [], instance
        for name in applicable:
            doc = json.loads(_ask("strategy", *argv, "--name", name, "--format", "json")[1])
            assert doc["valid"] is True and doc["move_count"] >= crossings, (instance, name)
        if status != 0:
            assert _ask("spell", *argv)[0] == status, instance
            return
        if count > self.LISTED:
            return
        text = _ask("solve", *argv, "--all")[1].splitlines()[3:]
        assert [line.split(": ")[0] for line in text] == [
            f"solution {k}" for k in range(1, count + 1)], instance
        doc = json.loads(_ask("solve", *argv, "--all", "--format", "json")[1])
        assert [f"solution {k}: " + " ".join("[%d,%d,%d]" % tuple(state) for state in path)
                for k, path in enumerate(doc["solutions"], start=1)] == text, instance
        for index in (0, data.draw(st.integers(0, count - 1), label="index"), count - 1):
            doc = json.loads(_ask("spell", *argv, "--index", str(index), "--format", "json")[1])
            # Each crossing's line names the start bank after it; the boat alternates sides.
            banks = [instance[:2], *re.findall(r"start bank: (\d+) \w+, (\d+) \w+;",
                                               "\n".join(doc["transcript"]))]
            walked = " ".join("[%s,%s,%d]" % (*bank, (k + 1) % 2) for k, bank in enumerate(banks))
            assert text[index].split(": ")[1] == walked, (instance, index)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(-2, 6), st.integers(2, 4), st.integers(-1, 2), st.integers(1, 10))
    def test_conjecture_lists_the_terms_of_sequence(self, surplus, boat, margin, terms):
        """conjecture and sequence give one status and, when they run, the same terms."""
        family = list(map(str, (surplus, boat, margin, terms)))
        for fmt in ("text", "json"):
            (status, out), (fitted, report) = (_ask(command, *family, "--format", fmt)
                                               for command in ("sequence", "conjecture"))
            assert status == fitted, (family, fmt)
            if status != 0:
                assert out == report == "", (family, fmt)
            elif fmt == "json":
                assert json.loads(out)["terms"] == json.loads(report)["terms"], family
            else:
                assert f"terms: {out}" in report.splitlines(keepends=True), family

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(-2, 6), st.integers(2, 4), st.integers(-1, 2), st.integers(1, 10))
    def test_sequence_gives_the_count_of_each_member(self, surplus, boat, margin, terms):
        """Term i of sequence is count's answer for member i, and `-` or null exactly where
        count exits 2; a family that sequence refuses has a member that count refuses."""
        family = list(map(str, (surplus, boat, margin, terms)))
        for fmt in ("text", "json"):
            status, out = _ask("sequence", *family, "--format", fmt)
            members = [_answer(*_ask("count", str(i + surplus), str(i), *family[1:3],
                                     "--format", fmt)) for i in range(1, terms + 1)]
            if status != 0:
                assert out == "" and status in [answer[0] for answer in members], (family, fmt)
                continue
            got = (json.loads(out)["terms"] if fmt == "json" else
                   [None if term == "-" else term for term in out.strip()[1:-1].split(", ")])
            assert [None if term is None else int(term) for term in got] == [
                {0: count, 2: None}[status] for status, _, count in members], (family, fmt)


def _ask(*argv):
    """The status and stdout of one in-process run, its stderr dropped; a JSON stdout must be
    the bytes of one dumps of its document, however `main` wrote it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main(list(argv))
    if out.getvalue().startswith("{"):
        assert out.getvalue() == json.dumps(json.loads(out.getvalue()), sort_keys=True,
                                            indent=2) + "\n", argv
    return status, out.getvalue()


def _answer(status, out):
    """(status, crossings, count) from a `count` or `solve` run in either format."""
    if out.startswith("{"):
        doc = json.loads(out)
        return status, doc["crossings"], None if doc["count"] is None else int(doc["count"])
    fields = dict(re.findall(r"^(crossings|count|solutions): (\d+)$", out, re.MULTILINE))
    crossings, count = fields.get("crossings"), fields.get("count", fields.get("solutions"))
    return status, crossings and int(crossings), count and int(count)


def _cap_address_space():
    import resource

    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def run_capped(*argv):
    """Run the CLI in a child process whose address space is capped at 1 GiB."""
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "rivercross.cli", *argv, "--format", "json", "--deterministic"],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=_cap_address_space)


class TestBoundedBySize:
    """Memory and time follow the state graph, not the number of solutions."""

    @pytest.mark.parametrize("argv", [
        ("solve", "30", "1", "2", "0"),
        ("count", "300", "1", "2", "0", "--method", "graph"),
        ("spell", "300", "1", "2", "0", "--index", str(LOPSIDED_COUNT - 1)),
    ])
    def test_huge_counts_under_a_memory_cap(self, argv):
        proc = run_capped(*argv)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        outcome = solve_by_transfer(mc_species(McParams(*map(int, argv[1:5]))))
        assert doc["crossings"] == outcome.crossings
        if "count" in doc:
            assert int(doc["count"]) == outcome.count
        if argv[0] == "solve":
            assert len(doc["solutions"]) == 1
        if argv[0] == "spell":
            assert doc["transcript"][-1].endswith(f"after {outcome.crossings} crossings.")

    @pytest.mark.parametrize("argv", [
        ("count", "100000", "100000", "2", "0"),
        ("solve", "50000", "1", "2", "0"),
        ("sequence", "0", "2", "0", "400"),
        ("conjecture", "9", "2", "0", "400"),
    ])
    def test_oversized_input_refused(self, capsys, argv):
        status, out, err = run(capsys, *argv)
        assert (status, out) == (1, "")
        assert err.startswith("error: state box (M+1)(C+1) = ")
        assert f"above the limit {MAX_STATE_BOX}" in err


class TestClosedStdout:
    """A reader that stops early (`| head`) ends the command quietly, with status 1."""

    @pytest.mark.parametrize("entry", [
        ["-m", "rivercross.cli"],
        ["-c", "import sys; from rivercross.cli import main; sys.exit(main())"],  # console script
    ])
    @pytest.mark.parametrize("argv, first", [
        (["solve", "6", "5", "2", "-1", "--all"], [b"M=6 C=5 B=2 d=-1\n", b"crossings: 19\n"]),
        (["--help"], []),  # argparse prints, then exits
        (["solve", "6", "5", "2", "-1", "--all", "--format", "json", "--deterministic"],
         [b"{\n", b'  "command": "solve",\n', b'  "count": 67500,\n']),
    ])
    def test_exits_quietly_after_the_lines_read(self, entry, argv, first):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered on a pipe, as from a shell
        proc = subprocess.Popen([sys.executable, *entry, *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        lines = [proc.stdout.readline() for _ in first]
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert lines == first
        assert (proc.returncode, err) == (1, b"")

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["solve", "--help"]])
    def test_help_into_a_closed_pipe_gives_one_status(self, argv, unbuffered):
        """argparse's own write fails at once when stdout is unbuffered; the status is still 1."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        reader, writer = os.pipe()
        os.close(reader)  # the reader has gone before the first byte
        try:
            done = subprocess.run([sys.executable, "-m", "rivercross.cli", *argv], stdout=writer,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(writer)
        assert (done.returncode, done.stderr) == (1, b"")

    @pytest.mark.parametrize("code", [errno.EPIPE, errno.ENOSPC], ids=["EPIPE", "ENOSPC"])
    def test_a_stream_the_caller_set_is_left_to_the_caller(self, monkeypatch, code):
        stream = _Failing(0, code)
        monkeypatch.setattr(sys, "stdout", stream)
        with pytest.raises(OSError) as raised:
            main(["solve", "3", "3", "2", "0"])
        assert raised.value.errno == code
        assert not stream.closed


class TestInterrupt:
    """Ctrl-C ends a run with one line and status 130, 128 + SIGINT, not with a traceback."""

    @staticmethod
    def start(*argv):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        # A job that a shell starts in the background ignores SIGINT, and a child inherits that.
        return subprocess.Popen(
            [sys.executable, "-m", "rivercross.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))

    def test_an_interrupted_listing_ends_in_one_line(self):
        proc = self.start("solve", "30", "1", "2", "0", "--all")
        first = proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)  # drains stdout, which the close at exit flushes
        assert first == b"M=30 C=1 B=2 d=0\n"
        assert (proc.returncode, err) == (cli.EXIT_INTERRUPTED, b"error: interrupted\n")

    def test_an_interrupt_before_the_first_byte_ends_in_one_line(self):
        # The walk of (10000,1,2,0) runs for over 25 s before count writes its first line.
        proc = self.start("count", "10000", "1", "2", "0")
        time.sleep(2)
        assert proc.poll() is None
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == (cli.EXIT_INTERRUPTED, b"", b"error: interrupted\n")


class _Failing(io.StringIO):
    """A stdout whose writes fail with `OSError(code)` once it has taken `room` characters."""

    def __init__(self, room, code=errno.ENOSPC):
        super().__init__()
        self.room, self.code = room, code

    def write(self, text):
        if len(text) > self.room:
            raise OSError(self.code, os.strerror(self.code))
        self.room -= len(text)
        return super().write(text)


class TestFailedWrite:
    """A stdout that fails to take a write, at any point, ends the command with one stderr
    line and status 1; the process's own stream is closed, so the flush at exit cannot fail."""

    FULL = "error: write failed: No space left on device\n"

    @pytest.mark.parametrize("half", [False, True], ids=["first-byte", "half-way"])
    @pytest.mark.parametrize("argv", [
        *([command, "3", "3", "2", "0", *flags, "--format", fmt]
          for command, flags in (("count", []), ("solve", ["--all"]), ("trace", []))
          for fmt in ("text", "json")),
        ["--help"],
    ])
    def test_own_stream_on_a_full_disk(self, capsys, monkeypatch, argv, half):
        with contextlib.suppress(SystemExit):  # --help exits once it has printed
            main(argv)
        stream = _Failing(len(capsys.readouterr().out) // 2 if half else 0)
        monkeypatch.setattr(sys, "stdout", stream)
        monkeypatch.setattr(sys, "__stdout__", stream)
        assert main(argv) == 1
        assert capsys.readouterr().err == self.FULL
        assert stream.closed

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("argv", [["count", "3", "3", "2", "0"], ["--help"]])
    def test_dev_full(self, argv):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        with open("/dev/full", "wb") as full:
            done = subprocess.run([sys.executable, "-m", "rivercross.cli", *argv], stdout=full,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        assert (done.returncode, done.stderr.decode()) == (1, self.FULL)
