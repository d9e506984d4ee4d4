import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivercross import (
    McParams,
    SpeciesPuzzle,
    mc_graph,
    mc_species,
    solve_mc,
    solve_species,
    transfer,
    wolf_goat_cabbage,
)
from rivercross.puzzle import species_loads
from rivercross.transfer import (
    cleanup,
    format_polynomial,
    format_signed_sum,
    legal_state_bound,
    polynomial_terms,
    solve_by_transfer,
    trace_rows,
    transfer_trace,
)
from rivercross.digraph import count_shortest_walks

from classic import CLASSIC, CLASSIC_F, CLASSIC_G, oracle_puzzles, verdict_puzzles
from reference import (
    bfs_distance,
    reference_reachable,
    reference_species_graph,
    reference_transfer_step,
)


def classic_species():
    return mc_species(CLASSIC)


def assert_asked_once_where_it_matters(amounts, rule, checks):
    """The compile asked the bank rule without the boat once on each vector of the box, with the
    boat once on the far bank of each vector that passed, and about no other pair."""
    box = set(itertools.product(*(range(a + 1) for a in amounts)))
    passed = {vec for vec in box if rule(vec, False)}
    assert {vec for vec, boat in checks if not boat} == box
    assert ({vec for vec, boat in checks if boat}
            == {tuple(a - x for a, x in zip(amounts, vec)) for vec in passed})
    assert set(checks.values()) == {1}


def counted_rows(monkeypatch):
    """Make the transfer's walk kernel record each row it computes; returns the record."""
    real, rows = transfer.walk_rows, []

    def counted(*args):
        for row in real(*args):
            rows.append(row)
            yield row

    monkeypatch.setattr(transfer, "walk_rows", counted)
    return rows


class TestCrossingPolynomial:
    """The crossing polynomial has one monomial per legal boat load."""

    def test_classic_five_terms(self):
        assert set(species_loads(classic_species())) == {(1, 0), (2, 0), (0, 1), (0, 2), (1, 1)}

    def test_margin_two_drops_mixed_loads(self):
        sp = mc_species(McParams(6, 2, 2, 2))
        assert set(species_loads(sp)) == {(1, 0), (2, 0), (0, 1), (0, 2)}

    def test_boat_three_terms(self):
        # All loads of size 1..3 except (1,2), where cannibals outnumber
        # missionaries inside the boat.
        sp = mc_species(McParams(3, 3, 3, 0))
        assert set(species_loads(sp)) == {
            (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0),
        }

    def test_empty_boat_term_when_allowed(self):
        assert (0, 0, 0) in species_loads(wolf_goat_cabbage())


class TestCleanup:
    def test_worked_first_stage(self):
        sp = classic_species()
        dirty = {(3, 2): 1, (2, 3): 1, (3, 1): 1, (2, 2): 1, (1, 3): 1}
        assert cleanup(dirty, sp, boat_on_start=False) == {(3, 2): 1, (3, 1): 1, (2, 2): 1}

    def test_identity_on_legal_monomials(self):
        sp = classic_species()
        poly = {(3, 3): 7, (0, 2): 5}
        assert cleanup(poly, sp, True) == poly

    def test_idempotent(self):
        sp = classic_species()
        rng = random.Random(4)
        poly = {
            (rng.randrange(-1, 5), rng.randrange(-1, 5)): rng.randrange(1, 9)
            for _ in range(40)
        }
        once = cleanup(poly, sp, True)
        assert cleanup(once, sp, True) == once

    def test_linear(self):
        sp = classic_species()
        a = {(3, 3): 2, (1, 2): 4, (3, 0): 1}
        b = {(3, 3): 5, (0, 2): 3, (2, 3): 9}
        merged = dict(a)
        for k, v in b.items():
            merged[k] = merged.get(k, 0) + v
        ca, cb, cm = cleanup(a, sp, True), cleanup(b, sp, True), cleanup(merged, sp, True)
        summed = dict(ca)
        for k, v in cb.items():
            summed[k] = summed.get(k, 0) + v
        assert cm == summed

    def test_out_of_box_annihilated(self):
        sp = classic_species()
        assert cleanup({(4, 0): 1, (-1, 2): 3, (0, 0): 2}, sp, True) == {(0, 0): 2}

    def test_reads_the_compile_not_the_rule(self):
        # Once the state graph is built, legality is membership: the bank rule never runs.
        mc = classic_species()
        checks = Counter()

        def counted_rule(vec, boat_present):
            checks[vec, boat_present] += 1
            return mc.bank_rule(vec, boat_present)

        sp = mc._replace(bank_rule=counted_rule)
        assert sp.state_graph
        checks.clear()
        poly = {(3, 3): 1, (2, 2): 2, (1, 2): 3, (2, 3): 4, (4, 0): 5, (-1, 2): 6, (0, 1): 0}
        assert cleanup(poly, sp, True) == {(3, 3): 1, (2, 2): 2}
        assert sum(checks.values()) == 0

    def test_ill_posed_puzzle_raises(self):
        sp = classic_species()._replace(bank_rule=lambda v, boat: v[0] == 0)
        with pytest.raises(ValueError, match="initial position"):
            cleanup({}, sp, True)


class TestTransferStep:
    """The first stages of the classic instance, as worked by hand."""

    def test_first_forward_step(self):
        assert transfer_trace(classic_species(), 1).steps[0][0] == CLASSIC_G[1]

    def test_first_back_step(self):
        assert transfer_trace(classic_species(), 1).steps[0][1] == CLASSIC_F[1]

    def test_second_forward_step(self):
        assert transfer_trace(classic_species(), 2).steps[1][0] == CLASSIC_G[2]


class TestSuccessorTable:
    def test_stages_match_reference_through_iterations_run(self):
        # Unsolvable puzzles are compared through the fallback bound, past the fixpoint.
        for sp in oracle_puzzles():
            out = solve_by_transfer(sp)
            runs = out.iterations_run if out.solvable else out.states_bound + 1
            poly = {sp.amounts: 1}
            for n, (g, f) in enumerate(transfer_trace(sp, runs).steps):
                poly = reference_transfer_step(poly, sp, True)
                assert g == poly, (sp.amounts, 2 * n)
                poly = reference_transfer_step(poly, sp, False)
                assert f == poly, (sp.amounts, 2 * n + 1)

    def test_one_box_scan_per_solve(self, monkeypatch):
        mc = mc_species(McParams(30, 30, 3, 0))
        checks = Counter()

        def counted_rule(vec, boat_present):
            checks[vec, boat_present] += 1
            return mc.bank_rule(vec, boat_present)

        sp = mc._replace(bank_rule=counted_rule)
        rows = counted_rows(monkeypatch)
        out = solve_by_transfer(sp)
        assert not out.solvable and out.iterations_run == 16
        assert len(rows) == 2 * 16 - 1 and rows[-1][2]  # g16 settled
        # 961 vectors of the 31x31 box without the boat, and 526 far banks with it.
        assert_asked_once_where_it_matters(mc.amounts, mc.bank_rule, checks)
        assert sum(checks.values()) == 1487

    def test_one_compile_per_puzzle(self):
        # Listing and the transfer read the same cached state graph.
        mc = mc_species(McParams(5, 5, 3, 0))
        calls = Counter()

        def counted_rule(vec, boat_present):
            calls[vec, boat_present] += 1
            return mc.bank_rule(vec, boat_present)

        sp = mc._replace(bank_rule=counted_rule)
        crossings, solutions = solve_species(sp)
        out = solve_by_transfer(sp)
        assert (out.crossings, out.count) == (crossings, len(solutions))
        solving = Counter(calls)
        calls.clear()
        assert sp._replace().state_graph == sp.state_graph  # a fresh compile
        assert solving == calls


@st.composite
def species_puzzles(draw):
    """1-3 species with amounts 0..4, and tables for a bank rule that reads the boat side and
    for the boat rule, with `allow_empty_boat` either way."""
    amounts = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    capacity = draw(st.integers(1, 3))
    bank = {(vec, boat): draw(st.integers(0, 7)) > 0
            for vec in itertools.product(*(range(a + 1) for a in amounts)) for boat in (False, True)}
    boat = {load: draw(st.integers(0, 3)) > 0
            for load in itertools.product(range(capacity + 1), repeat=len(amounts))}
    return SpeciesPuzzle(
        names=tuple("abc"[:len(amounts)]), amounts=amounts, boat_capacity=capacity,
        bank_rule=lambda vec, present: bank[vec, present], boat_rule=boat.__getitem__,
        allow_empty_boat=draw(st.booleans()))


def graph_or_error(compile_graph, sp):
    try:
        return compile_graph(sp)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(derandomize=True, deadline=None, max_examples=150)
@given(species_puzzles())
def test_compile_asks_each_pair_once_and_matches_the_reference(sp):
    checks = Counter()

    def counted_rule(vec, boat_present):
        checks[vec, boat_present] += 1
        return sp.bank_rule(vec, boat_present)

    compiled = graph_or_error(lambda p: p.state_graph, sp._replace(bank_rule=counted_rule))
    assert_asked_once_where_it_matters(sp.amounts, sp.bank_rule, checks)
    assert compiled == graph_or_error(reference_species_graph, sp)


class TestSolveByTransfer:
    def test_classic(self):
        out = solve_by_transfer(classic_species())
        assert out.solvable and (out.success_index, out.crossings, out.count) == (6, 11, 4)

    def test_no_back_step_after_success(self, monkeypatch):
        rows = counted_rows(monkeypatch)
        out = solve_by_transfer(classic_species())
        assert (out.success_index, out.iterations_run) == (6, 3)
        # g1, f1, ..., g3, f3: g6's constant term is met at f3, and no row after it is computed.
        assert len(rows) == 6
        assert not any(counts[-1] for counts, _, _ in rows)

    def test_four_four_unsolvable(self):
        out = solve_by_transfer(mc_species(McParams(4, 4, 2, 0)))
        assert not out.solvable
        assert out.states_bound == 13
        assert out.iterations_run == 4

    @pytest.mark.parametrize("params, stages, bound", [
        ((4, 4, 2, 0), 4, 13),
        ((30, 30, 3, 0), 16, 91),
        ((40, 39, 2, 1), 39, 80),
        ((18, 18, 3, 0), 10, 55),
    ])
    def test_stops_at_support_fixpoint(self, params, stages, bound):
        out = solve_by_transfer(mc_species(McParams(*params)))
        assert not out.solvable
        assert (out.iterations_run, out.states_bound) == (stages, bound)

    def test_verdict_matches_bfs(self, monkeypatch):
        rows = counted_rows(monkeypatch)
        for sp in verdict_puzzles():
            graph, _ = reference_species_graph(sp)
            rows.clear()
            out = solve_by_transfer(sp)
            assert out.crossings == bfs_distance(graph, 1, graph.n), sp.amounts
            assert out.solvable == (out.crossings is not None)
            if out.solvable:  # the stages meet after (L+1)/2 rows, and no row after
                assert len(rows) == (out.crossings + 1) // 2, sp.amounts

    def test_last_two_supports_are_the_reachable_states(self):
        # Every crossing can be undone, so supports only grow, and at the
        # fixpoint the last (forward, back) pair covers all that the start reaches.
        unsolvable = 0
        for sp in verdict_puzzles():
            out = solve_by_transfer(sp)
            if out.solvable:
                continue
            unsolvable += 1
            g, f = transfer_trace(sp, out.iterations_run).steps[-1]
            supports = {(vec, 0) for vec in g} | {(vec, 1) for vec in f}
            assert supports == reference_reachable(sp), sp.amounts
        assert unsolvable == 284

    def test_single_pair(self):
        out = solve_by_transfer(mc_species(McParams(1, 1, 2, 0)))
        assert out.solvable and (out.success_index, out.crossings, out.count) == (1, 1, 1)

    def test_wolf_goat_cabbage(self):
        out = solve_by_transfer(wolf_goat_cabbage())
        assert out.solvable and (out.crossings, out.count) == (7, 2)

    def test_agrees_with_search_and_matrix_on_grid(self):
        for m, c, b, d in itertools.product(range(1, 7), range(1, 7), range(2, 6), range(0, 3)):
            p = McParams(m, c, b, d)
            if m - c < d:
                continue
            out = solve_by_transfer(mc_species(p))
            enum = solve_mc(p)
            graph, _ = mc_graph(p)
            walks = count_shortest_walks(graph, 1, graph.n)
            if enum is None:
                assert not out.solvable and walks is None
            else:
                crossings, solutions = enum
                assert out.solvable
                assert (out.crossings, out.count) == (crossings, len(solutions))
                assert walks == (crossings, len(solutions))


class TestLegalStateBound:
    def test_boat_independent_instances(self):
        assert legal_state_bound(mc_species(McParams(3, 3, 2, 0))) == 10
        assert legal_state_bound(mc_species(McParams(4, 4, 2, 0))) == 13

    def test_side_dependent_counts_pairs(self):
        assert legal_state_bound(wolf_goat_cabbage()) == 10


class TestTrace:
    def test_every_displayed_stage(self):
        trace = transfer_trace(classic_species(), 6)
        assert trace.initial == CLASSIC_F[0]
        for i, (g, f) in enumerate(trace.steps, start=1):
            assert g == CLASSIC_G[i], f"stage g{i}"
            if i <= 5:
                assert f == CLASSIC_F[i], f"stage f{i}"

    def test_zero_stages(self):
        trace = transfer_trace(classic_species(), 0)
        assert trace.initial == {(3, 3): 1}
        assert trace.steps == ()

    def test_constant_term_absent_before_success(self):
        trace = transfer_trace(classic_species(), 6)
        for i, (g, _) in enumerate(trace.steps, start=1):
            if i < 6:
                assert (0, 0) not in g

    def test_coefficients_count_legal_walks(self):
        # g_i coefficient of a monomial == walks of length 2i-1 from the start
        # vertex to that far-bank state, counted independently on the graph.
        for p in (CLASSIC, McParams(4, 4, 2, 0), McParams(4, 2, 3, 1)):
            graph, states = mc_graph(p)
            trace = transfer_trace(mc_species(p), 5)
            counts = [0] * graph.n
            counts[0] = 1
            length = 0
            for i in range(1, 6):
                while length < 2 * i - 1:
                    nxt = [0] * graph.n
                    for v0, val in enumerate(counts):
                        if val:
                            for j in graph.out(v0 + 1):
                                nxt[j - 1] += val
                    counts = nxt
                    length += 1
                g_i = trace.steps[i - 1][0]
                for v0, s in enumerate(states):
                    if s.boat == 0:
                        assert counts[v0] == g_i.get((s.missionaries, s.cannibals), 0)


class TestSolveAndTrace:
    """The trace's one entry, `trace_rows`: the named stages of one pass, which stop at the
    verdict without --steps.  The verdict itself is `TestSolveByTransfer`'s."""

    @staticmethod
    def decoded(sp, rows):
        states = sp.state_graph[1]
        return [(name, {states[v - 1][0]: counts[v] for v in support})
                for name, counts, support in rows]

    def test_solvable_ends_on_its_success_stage(self):
        sp = classic_species()
        expected = [("f0", CLASSIC_F[0])]
        for i in range(1, 7):
            expected.append((f"g{i}", CLASSIC_G[i]))
            if i < 6:
                expected.append((f"f{i}", CLASSIC_F[i]))
        named = self.decoded(sp, trace_rows(sp))
        assert named == expected
        assert named[-1][1][(0, 0)] == solve_by_transfer(sp).count == 4  # g6's constant term

    def test_unsolvable_runs_one_past_the_state_bound(self):
        sp = mc_species(McParams(4, 4, 2, 0))
        names = [name for name, _, _ in trace_rows(sp)]
        assert legal_state_bound(sp) + 1 == 14 and not solve_by_transfer(sp).solvable
        assert names == ["f0"] + [f"{side}{i}" for i in range(1, 15) for side in "gf"]

    @pytest.mark.parametrize("steps", [0, 2, 9])
    def test_steps_give_whole_pairs(self, steps):
        reference = transfer_trace(classic_species(), steps)
        sp = classic_species()
        assert len(reference.steps) == steps
        assert self.decoded(sp, trace_rows(sp, steps)) == [("f0", reference.initial)] + [
            (f"{side}{i}", poly) for i, pair in enumerate(reference.steps, start=1)
            for side, poly in zip("gf", pair)]

    def test_negative_steps_raise_before_the_compile(self):
        sp = classic_species()
        with pytest.raises(ValueError, match="^stages must be non-negative$"):
            trace_rows(sp, -1)
        assert "state_graph" not in vars(sp)

    def test_zero_stages_read_no_row(self, monkeypatch):
        def unread(*args):
            raise AssertionError("a walk row was read")
            yield

        monkeypatch.setattr(transfer, "walk_rows", unread)
        assert transfer_trace(classic_species(), 0) == ({(3, 3): 1}, ())


class TestFormatting:
    def test_descending_degree_then_descending_lex(self):
        text = format_polynomial(CLASSIC_G[2])
        assert text == "3*x1^3*x2^2 + 5*x1^3*x2 + 5*x1^2*x2^2 + 2*x1^3"

    def test_constant_and_unit_coefficients(self):
        text = format_polynomial({(0, 0): 4, (1, 1): 1, (0, 1): 28})
        assert text == "x1*x2 + 28*x2 + 4"

    @pytest.mark.parametrize("species", [1, 2, 3])
    def test_order_on_random_monomials(self, species):
        """Descending total degree, then descending exponents, in text and in JSON alike."""
        rng = random.Random(species)
        for _ in range(50):
            monos = {tuple(rng.randrange(5) for _ in range(species)) for _ in range(12)}
            want = sorted(monos, key=lambda m: (-sum(m), tuple(-e for e in m)))
            poly = {mono: want.index(mono) + 2 for mono in monos}  # coefficient = rank + 2
            text = format_polynomial(poly)
            assert [int(term.split("*")[0]) for term in text.split(" + ")] == list(
                range(2, len(monos) + 2))
            assert [mono for _, mono in polynomial_terms(poly)] == want

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(0, 4).flatmap(lambda species: st.dictionaries(
        st.tuples(*[st.integers(0, 6)] * species), st.integers(-5, 5), max_size=40)))
    def test_order_is_one_key_descending(self, poly):
        """The two stable sorts give the order of the key (total degree, exponents), descending."""
        order = sorted(poly, key=lambda m: (sum(m), m), reverse=True)
        assert polynomial_terms(poly) == [(poly[mono], mono) for mono in order]

    def test_zero_polynomial(self):
        assert format_polynomial({}) == "0"

    def test_zero_coefficients_dropped(self):
        assert format_polynomial({(1, 0): 0, (0, 0): 4}) == "4"
        assert format_polynomial({(0, 0): 0}) == "0"

    @pytest.mark.parametrize("terms, text", [
        ([(Fraction(3, 2), "a(i-1)"), (-1, "a(i-2)")], "3/2*a(i-1) - a(i-2)"),
        ([(2, "x"), (-7, ""), (1, "")], "2*x - 7 + 1"),
        ([(-1, "x"), (-3, "x^2"), (5, "")], "-x - 3*x^2 + 5"),
        ([(0, "x"), (0, ""), (Fraction(0), "y")], "0"),
    ])
    def test_format_signed_sum(self, terms, text):
        assert format_signed_sum(terms) == text


@pytest.mark.parametrize("stages", [-1, -4])
def test_negative_trace_stages_raise(stages):
    with pytest.raises(ValueError) as raised:
        transfer_trace(classic_species(), stages)
    assert str(raised.value) == "stages must be non-negative"
