import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivercross import (
    McParams,
    Move,
    ParamError,
    mc_graph,
    path_to_moves,
    solve_mc,
    strategies,
)
from rivercross.digraph import shortest_distance
from rivercross.strategies import (
    Strategy,
    applicability,
    build_strategy,
    validate_solution,
)

from classic import CLASSIC


def small_grid(margins=range(0, 4)):
    for m, c, b, d in itertools.product(range(1, 13), range(1, 13), range(2, 9), margins):
        if m - c >= d:
            yield McParams(m, c, b, d)


def first_arrival(p: McParams, moves) -> int | None:
    """The number of moves after which the start bank is first empty, or None."""
    m, c = p.missionaries, p.cannibals
    for made, mv in enumerate(moves, 1):
        sign = 1 if mv.forward else -1
        m -= sign * mv.missionaries
        c -= sign * mv.cannibals
        if not (m or c):
            return made
    return None


class TestApplicability:
    def test_two_boat_condition(self):
        assert Strategy.TWO_BOAT in applicability(McParams(8, 3, 2, 1))
        assert Strategy.TWO_BOAT not in applicability(McParams(7, 3, 2, 1))

    def test_classic_has_no_listed_strategy(self):
        assert applicability(CLASSIC) == set()

    def test_equal_big_boat(self):
        assert Strategy.ZERO_MARGIN_EQUAL_BIG_BOAT in applicability(McParams(7, 7, 4, 0))
        assert Strategy.ZERO_MARGIN_EQUAL_BIG_BOAT not in applicability(McParams(7, 7, 3, 0))

    def test_zero_margin_slack(self):
        assert Strategy.ZERO_MARGIN_SLACK in applicability(McParams(4, 3, 2, 0))
        assert Strategy.ZERO_MARGIN_SLACK not in applicability(McParams(4, 4, 2, 0))

    def test_simultaneous_ferry_needs_positive_margin(self):
        # With margin 0 the ferry cycle's return leg is an empty boat, and the
        # bare table condition would wrongly cover unsolvable (4,4,2,0).
        assert Strategy.SIMULTANEOUS_FERRY not in applicability(McParams(4, 4, 2, 0))
        assert Strategy.SIMULTANEOUS_FERRY in applicability(McParams(7, 3, 3, 1))

    def test_big_boats(self):
        assert Strategy.BIG_BOAT_1 in applicability(McParams(5, 2, 4, 1))
        assert Strategy.BIG_BOAT_2 in applicability(McParams(3, 2, 3, 0))

    def test_split_cannibals_strict_boat_bound(self):
        # boundary boat size is left alone (open case), strictly bigger applies
        assert Strategy.SPLIT_CANNIBALS not in applicability(McParams(9, 4, 4, 1))
        assert Strategy.SPLIT_CANNIBALS in applicability(McParams(9, 4, 5, 1))

    def test_invalid_params_rejected(self):
        with pytest.raises(ParamError):
            applicability(McParams(3, 3, 1, 0))


class TestBuildStrategy:
    def test_not_applicable_returns_none(self):
        assert build_strategy(CLASSIC, Strategy.TWO_BOAT) is None

    def test_two_boat_script_valid(self):
        p = McParams(8, 3, 2, 1)
        moves = build_strategy(p, Strategy.TWO_BOAT)
        assert validate_solution(p, moves) is None

    def test_big_boat_2_five_move_script(self):
        p = McParams(3, 2, 3, 0)
        moves = build_strategy(p, Strategy.BIG_BOAT_2)
        assert validate_solution(p, moves) is None
        assert moves == (
            Move(0, 2, True), Move(0, 1, False), Move(3, 0, True),
            Move(0, 1, False), Move(0, 2, True),
        )

    def test_equal_big_boat_length(self):
        for n in range(2, 12):
            p = McParams(n, n, 4, 0)
            moves = build_strategy(p, Strategy.ZERO_MARGIN_EQUAL_BIG_BOAT)
            assert validate_solution(p, moves) is None
            assert len(moves) == 2 * n - 3 if n > 1 else 1

    def test_equal_big_boat_matches_search_optimum(self):
        for n in range(7, 11):
            p = McParams(n, n, 4, 0)
            moves = build_strategy(p, Strategy.ZERO_MARGIN_EQUAL_BIG_BOAT)
            graph, _ = mc_graph(p)
            assert len(moves) == shortest_distance(graph, 1, graph.n) == 2 * n - 3

    def test_sweep_all_applicable_strategies_validate(self):
        for p in small_grid(range(-4, 4)):
            for strategy in applicability(p):
                moves = build_strategy(p, strategy)
                violation = validate_solution(p, moves)
                assert violation is None, (p, strategy, violation)
                assert first_arrival(p, moves) == len(moves), (p, strategy)

    def test_applicable_implies_search_solvable(self):
        for p in small_grid():
            if p.missionaries > 7 or p.cannibals > 7:
                continue
            if applicability(p):
                assert solve_mc(p) is not None, p


def test_build_strategy_checks_only_its_own_condition(monkeypatch):
    grid = itertools.product(range(9), range(9), range(2, 7), range(3))
    applicable = {}
    for p in map(McParams._make, grid):
        try:
            applicable[p] = applicability(p)
        except ParamError:
            applicable[p] = None

    def refuse(p):
        raise AssertionError("build_strategy consulted applicability")

    monkeypatch.setattr(strategies, "applicability", refuse)
    assert any(found is None for found in applicable.values())
    for p, found in applicable.items():
        for s in Strategy:
            if found is None:
                with pytest.raises(ParamError):
                    build_strategy(p, s)
            else:
                assert (build_strategy(p, s) is not None) == (s in found), (p, s)


@st.composite
def mc_params(draw):
    """m, c in 1..60, b in 2..20 and d in -6..6, with a legal start: m - c >= d."""
    m = draw(st.integers(1, 60))
    c = draw(st.integers(1, min(60, m + 6)))
    return McParams(m, c, draw(st.integers(2, 20)), draw(st.integers(-6, min(6, m - c))))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(mc_params())
def test_every_listed_strategy_builds_a_script_that_stops_at_the_goal(p):
    found = applicability(p)
    for strategy in Strategy:
        moves = build_strategy(p, strategy)
        assert (moves is not None) == (strategy in found), (p, strategy)
        if moves is not None:
            assert validate_solution(p, moves) is None, (p, strategy)
            assert first_arrival(p, moves) == len(moves), (p, strategy)


class TestValidateSolution:
    def test_search_output_validates(self):
        for p in (CLASSIC, McParams(5, 5, 3, 0), McParams(6, 1, 3, 1)):
            _, solutions = solve_mc(p)
            for sol in solutions:
                assert validate_solution(p, path_to_moves(sol)) is None

    def test_overloaded_boat(self):
        v = validate_solution(CLASSIC, (Move(2, 1, True),))
        assert v is not None and v.rule == "boat-capacity" and v.index == 0

    def test_outnumbered_bank(self):
        v = validate_solution(CLASSIC, (Move(1, 0, True),))
        assert v is not None and v.rule == "bank-balance" and v.index == 0

    def test_boat_balance(self):
        v = validate_solution(McParams(6, 2, 3, 1), (Move(1, 1, True),))
        assert v is not None and v.rule == "boat-balance"

    def test_empty_boat(self):
        v = validate_solution(CLASSIC, (Move(0, 0, True),))
        assert v is not None and v.rule == "empty-boat"

    def test_wrong_direction(self):
        v = validate_solution(CLASSIC, (Move(1, 1, False),))
        assert v is not None and v.rule == "boat-side"

    def test_availability(self):
        v = validate_solution(CLASSIC, (Move(1, 1, True), Move(0, 2, False)))
        assert v is not None and v.rule == "availability" and v.index == 1

    def test_incomplete_script(self):
        v = validate_solution(CLASSIC, (Move(1, 1, True),))
        assert v is None or v.rule in {"bank-balance", "incomplete"}
        v = validate_solution(McParams(1, 1, 2, 0), (Move(0, 1, True),))
        assert v is not None and v.rule == "incomplete"

    def test_reports_earliest_violation(self):
        moves = (Move(1, 1, True), Move(1, 1, False), Move(3, 0, True))
        v = validate_solution(CLASSIC, moves)
        assert v is not None and v.index == 2 and v.rule == "boat-capacity"
