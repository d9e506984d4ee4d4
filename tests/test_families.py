from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivercross import (
    FamilySpec,
    McParams,
    ParamError,
    conjecture_report,
    family_counts,
    fit_linear_recurrence,
    rational_gf,
    series_coefficients,
    solve_mc,
)
from rivercross import families
from rivercross.families import LinearRecurrence, RationalGF, format_recurrence

from classic import FIB_FAMILY_TERMS, fibonacci
from reference import reference_conjecture_fit, reference_fit_recurrence


class TestFamilyCounts:
    def test_surplus_five_boat_three(self):
        assert family_counts(FamilySpec(5, 3, 1, 8)) == list(FIB_FAMILY_TERMS)

    def test_equal_population_boat_two_dies_at_four(self):
        counts = family_counts(FamilySpec(0, 2, 0, 5))
        assert [v is not None for v in counts] == [True, True, True, False, False]

    def test_matches_enumeration_on_small_terms(self):
        for fs in (FamilySpec(2, 3, 1, 6), FamilySpec(0, 4, 0, 6), FamilySpec(5, 3, 1, 6)):
            counts = family_counts(fs)
            for i, count in enumerate(counts, start=1):
                enum = solve_mc(McParams(i + fs.surplus, i, fs.boat_capacity, fs.safety_margin))
                if count is None:
                    assert enum is None
                else:
                    assert enum is not None and len(enum[1]) == count

    def test_surplus_below_margin_rejected(self):
        with pytest.raises(ValueError):
            family_counts(FamilySpec(0, 3, 1, 4))

    def test_negative_surplus_rejected_at_its_first_term(self):
        # Term 1 is (0, 1, 2, -3): no missionary, though the surplus -1 clears the margin -3.
        with pytest.raises(ParamError, match="need at least 1 missionary, got 0"):
            family_counts(FamilySpec(-1, 2, -3, 4))
        with pytest.raises(ParamError, match="need at least 1 missionary, got 0"):
            conjecture_report(FamilySpec(-1, 2, -3, 12), 4)

    def test_negative_start_rejected(self):
        # Term -1 is (4, -1, 3, 1): a negative amount is refused before it is compiled.
        with pytest.raises(ValueError, match="amounts must be non-negative"):
            family_counts(FamilySpec(5, 3, 1, 4), start=-1)

    @pytest.mark.parametrize("fs, searches, walks", [
        (FamilySpec(0, 2, 0, 300), 296, 4),  # members 4..300 are unsolvable; 4 is walked
        (FamilySpec(5, 3, 1, 40), 0, 40),  # every member is solvable
    ])
    def test_search_after_the_first_unsolvable_member(self, fs, searches, walks):
        """Once a member is unsolvable, each later one is searched before it is walked."""
        calls = {"search": 0, "walk": 0}

        def counted(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)
            return call

        with mock.patch.object(families, "shortest_distance",
                               counted("search", families.shortest_distance)), \
                mock.patch.object(families, "solve_by_transfer",
                                  counted("walk", families.solve_by_transfer)):
            counts = family_counts(fs)
        assert calls == {"search": searches, "walk": walks}
        assert counts.count(None) == (297 if searches else 0)

    def test_start_zero_prepends_cannibal_free_instance(self):
        counts = family_counts(FamilySpec(9, 2, 0, 2), start=0)
        assert counts[0] == 1  # lone caravan of 9, forced schedule


class TestFitRecurrence:
    def test_fibonacci_tail(self):
        rec = fit_linear_recurrence([13, 21, 34, 55, 89, 144], max_order=2)
        assert rec is not None
        assert rec.order == 2
        assert rec.coefficients == (Fraction(1), Fraction(1))

    def test_constant_sequence(self):
        rec = fit_linear_recurrence([361] * 6, max_order=2)
        assert rec is not None and rec.order == 1
        assert rec.coefficients == (Fraction(1),)

    def test_geometric(self):
        rec = fit_linear_recurrence([1, 2, 4, 8, 16, 32, 64, 128], max_order=3)
        assert rec is not None and rec.order == 1
        assert rec.coefficients == (Fraction(2),)

    def test_no_fit_returns_none(self):
        rec = fit_linear_recurrence([1, 1, 2, 6, 24, 120, 720, 5040], max_order=2)
        assert rec is None

    def test_insufficient_data_raises(self):
        with pytest.raises(ValueError, match="insufficient"):
            fit_linear_recurrence([1, 2, 3], max_order=2)

    def test_offset_skips_irregular_head(self):
        seq = [99, 7, 13, 21, 34, 55, 89, 144]
        assert fit_linear_recurrence(seq, max_order=2) is None
        rec = fit_linear_recurrence(seq, max_order=2, offset=2)
        assert rec is not None and rec.coefficients == (Fraction(1), Fraction(1))
        assert rec.offset == 2 and rec.initial == (13, 21)

    def test_rational_seed_terms_kept_as_given(self):
        seq = [4, 2, 1] + [Fraction(1, 2 ** k) for k in range(1, 6)]
        rec = fit_linear_recurrence(seq, max_order=1, offset=3)
        assert rec is not None and rec.coefficients == (Fraction(1, 2),)
        assert rec.initial == (Fraction(1, 2),)

    def test_fit_covers_the_whole_tail(self):
        # Order 2 holds on every term but the last, so the whole tail has no fit.
        seq = [1, 1, 2, 3, 5, 8, 13, 999]
        assert fit_linear_recurrence(seq, max_order=2) is None

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError, match="offset must be at least 0"):
            fit_linear_recurrence([5, 1, 2, 4, 8, 16, 32, 64], max_order=1, offset=-4)
        with pytest.raises(ValueError, match="offset must be at least 0"):
            fit_linear_recurrence([1, 2, 4, 8, 16, 32], max_order=1, offset=-2)

    def test_transient_whose_connection_polynomial_falls_short_of_its_order(self):
        # The shortest recurrence is a(n) = 0 * a(n-1): order 1 with a zero coefficient.
        assert fit_linear_recurrence([1, 0, 0, 0, 0, 0], max_order=2) is None

    def test_all_zero_tail(self):
        assert fit_linear_recurrence([0] * 6, max_order=2) is None
        assert fit_linear_recurrence([3, 1, 0, 0, 0, 0, 0, 0], max_order=2, offset=2) is None

    def test_scale_consistency(self):
        base = [13, 21, 34, 55, 89, 144, 233, 377]
        scaled = [7 * v for v in base]
        a = fit_linear_recurrence(base, max_order=3)
        b = fit_linear_recurrence(scaled, max_order=3)
        assert a is not None and b is not None
        assert a.coefficients == b.coefficients

    def test_rational_coefficients(self):
        seq = [4, 2, 1, Fraction(1, 2)]
        seq = [Fraction(v) for v in seq] + [Fraction(1, 4), Fraction(1, 8)]
        rec = fit_linear_recurrence(seq, max_order=2)
        assert rec is not None and rec.coefficients == (Fraction(1, 2),)


@st.composite
def fit_sequences(draw):
    """A head of 0..4 arbitrary terms, then an integer recurrence of order 0..5, maybe perturbed once.

    Order 0 gives a zero tail; coefficients lie in -3..3, so the last may be 0.
    """
    head = draw(st.lists(st.integers(-9, 9), max_size=4))
    order = draw(st.integers(0, 5))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=order, max_size=order))
    body = draw(st.lists(st.integers(-9, 9), min_size=order, max_size=order))
    length = draw(st.integers(max(6, len(head) + order), 12))
    while len(head) + len(body) < length:
        body.append(sum(c * body[-j] for j, c in enumerate(coeffs, start=1)))
    seq = head + body
    if draw(st.integers(0, 3)) == 0:
        seq[draw(st.integers(0, length - 1))] += draw(st.sampled_from([-1, 1, 5]))
    return seq


@settings(derandomize=True, deadline=None, max_examples=60)
@given(fit_sequences())
def test_fit_matches_per_order_elimination(seq):
    for max_order in range(1, (len(seq) - 2) // 2 + 1):
        for offset in range(len(seq) - 2 * max_order - 1):
            rec = fit_linear_recurrence(seq, max_order, offset)
            fields = None if rec is None else (rec.order, rec.coefficients, rec.offset, rec.initial)
            assert fields == reference_fit_recurrence(seq, max_order, offset), (max_order, offset)


@st.composite
def family_terms(draw):
    """A family's terms: a head of 0..10 arbitrary ones, None (unsolvable) among them, then an
    integer recurrence of order 0..6 with coefficients in -3..3; 10 to 20 terms in all."""
    head = draw(st.lists(st.one_of(st.none(), st.integers(0, 99)), max_size=10))
    order = draw(st.integers(0, 6))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=order, max_size=order))
    body = draw(st.lists(st.integers(0, 99), min_size=order, max_size=order))
    length = draw(st.integers(max(10, len(head) + order), 20))
    while len(head) + len(body) < length:
        body.append(sum(c * body[-j] for j, c in enumerate(coeffs, start=1)))
    return head + body


@settings(derandomize=True, deadline=None, max_examples=120)
@given(family_terms(), st.sampled_from([1, 2, 4, 6]))
def test_conjecture_fits_as_trying_every_offset_does(counts, max_order):
    """Skipping the offsets whose tail's linear complexity rules a fit out changes no report."""
    with mock.patch.object(families, "family_counts", lambda fs: list(counts)):
        report = conjecture_report(FamilySpec(0, 2, 0, len(counts)), max_order)
    rec = report.recurrence
    got = None if rec is None else (
        (rec.order, rec.coefficients, rec.offset, rec.initial), report.valid_from_term)
    assert got == reference_conjecture_fit(counts, max_order)


class TestRationalGF:
    def test_fibonacci_gf(self):
        rec = LinearRecurrence(2, (Fraction(1), Fraction(1)), 0, (1, 1))
        gf = rational_gf(rec, [1, 1, 2, 3, 5, 8])
        assert gf == RationalGF((1,), (1, -1, -1))

    def test_constant_with_offset_head(self):
        seq = [5, 9, 361, 361, 361, 361]
        rec = fit_linear_recurrence(seq, max_order=1, offset=2)
        gf = rational_gf(rec, seq)
        assert series_coefficients(gf, 10) == seq + [361] * 4

    def test_head_mismatch_rejected(self):
        rec = LinearRecurrence(1, (Fraction(2),), 0, (1,))
        with pytest.raises(ValueError):
            rational_gf(rec, [1, 2, 5])


class TestSeriesCoefficients:
    def test_geometric_series(self):
        assert series_coefficients(RationalGF((1,), (1, -1)), 4) == [1, 1, 1, 1]

    def test_fibonacci_series(self):
        assert series_coefficients(RationalGF((1,), (1, -1, -1)), 6) == [1, 1, 2, 3, 5, 8]

    def test_zero_constant_denominator_rejected(self):
        with pytest.raises(ValueError):
            series_coefficients(RationalGF((1,), (0, 1)), 3)

    def test_round_trips_fitted_gf(self):
        seq = [3, 1]
        while len(seq) < 10:
            seq.append(2 * seq[-1] + seq[-2])
        rec = fit_linear_recurrence(seq, max_order=3)
        assert rec is not None
        gf = rational_gf(rec, seq)
        assert series_coefficients(gf, len(seq)) == seq


class TestConjectureReport:
    def test_fibonacci_family(self):
        report = conjecture_report(FamilySpec(5, 3, 1, 12), max_order=3)
        assert report.recurrence is not None
        assert report.recurrence.order == 2
        assert report.recurrence.coefficients == (Fraction(1), Fraction(1))
        assert report.valid_from_term == 3
        assert report.series_ok
        text = report.render()
        assert "a(i) = a(i-1) + a(i-2)" in text
        assert "valid from i=3" in text
        for i, term in enumerate(report.counts, start=1):
            if i >= 3:
                assert term == fibonacci(i + 4)

    def test_constant_361_family(self):
        report = conjecture_report(FamilySpec(0, 4, 0, 12), max_order=3)
        assert report.recurrence is not None
        assert report.recurrence.order == 1
        assert report.recurrence.coefficients == (Fraction(1),)
        assert report.valid_from_term == 7
        assert all(v == 361 for v in report.counts[6:])
        assert "valid from i=7" in report.render()

    def test_all_unsolvable_family(self):
        # margin 1 with boat 2 forbids mixed loads, so no instance is solvable
        report = conjecture_report(FamilySpec(1, 2, 1, 6), max_order=2)
        assert all(v is None for v in report.counts)
        assert report.recurrence is None
        assert "no term in range is solvable" in report.render()
        assert report.counts == (None,) * 6

    @pytest.mark.parametrize("max_order", [0, -2])
    def test_max_order_below_one_raises(self, max_order):
        with pytest.raises(ValueError, match="max_order must be at least 1"):
            conjecture_report(FamilySpec(5, 3, 1, 12), max_order)

    def test_render_mentions_no_fit(self):
        # order 1 can never follow a Fibonacci tail
        report = conjecture_report(FamilySpec(5, 3, 1, 10), max_order=1)
        assert report.recurrence is None
        assert "no linear recurrence found up to order 1" in report.render()


def test_format_recurrence_signs():
    rec = LinearRecurrence(3, (Fraction(39), Fraction(-337), Fraction(384)), 0, (1, 2, 3))
    assert format_recurrence(rec) == "39*a(i-1) - 337*a(i-2) + 384*a(i-3)"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: family_counts(FamilySpec(5, 3, 1, 0)),
                 "need at least one term", id="no-terms"),
    pytest.param(lambda: family_counts(FamilySpec(5, 3, 1, -2), start=0),
                 "need at least one term", id="negative-terms"),
    pytest.param(lambda: fit_linear_recurrence(list(range(10)), max_order=0),
                 "max_order must be at least 1", id="order-zero"),
    pytest.param(lambda: fit_linear_recurrence(list(range(10)), max_order=-1),
                 "max_order must be at least 1", id="order-negative"),
    pytest.param(lambda: rational_gf(LinearRecurrence(2, (1, 1), 1, (1, 1)), [0, 1]),
                 "head too short: need the first 3 terms", id="short-head"),
    pytest.param(lambda: rational_gf(LinearRecurrence(1, (2,), 0, (1,)), []),
                 "head too short: need the first 1 terms", id="empty-head"),
])
def test_input_checks_raise(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
