"""Enumeration sequences over one-parameter puzzle families and their analysis.

For a fixed missionary surplus, boat capacity, and safety margin, term i of a
family counts the shortest solutions of the instance with i cannibals and
i + surplus missionaries.  The fitting machinery guesses a minimal linear
recurrence with constant coefficients by the Berlekamp-Massey algorithm over
the rationals, turns it into a rational generating function, and checks that
its series reproduces every term.
Fits remain conjectures; nothing here constitutes a proof.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .puzzle import McParams, mc_species, validate_params
from .transfer import format_signed_sum, solve_by_transfer


class FamilySpec(NamedTuple):
    surplus: int
    boat_capacity: int
    safety_margin: int
    num_terms: int


class LinearRecurrence(NamedTuple):
    """a(n) = sum of coefficients[j-1] * a(n-j), holding for n >= offset + order.

    Indices refer to the sequence the recurrence was fitted against; `initial`
    holds the `order` terms at the offset that seed the recurrence, as given.
    """

    order: int
    coefficients: tuple[Fraction, ...]
    offset: int
    initial: tuple[int | Fraction, ...]

    def holds_at(self, seq: Sequence[int], n: int) -> bool:
        return seq[n] == sum(c * seq[n - j] for j, c in enumerate(self.coefficients, start=1))


class RationalGF(NamedTuple):
    """Numerator and denominator coefficients, ascending powers, exact integers."""

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]


def family_params(fs: FamilySpec, i: int) -> McParams:
    return McParams(i + fs.surplus, i, fs.boat_capacity, fs.safety_margin)


def family_counts(fs: FamilySpec, start: int = 1) -> list[int | None]:
    """Shortest-solution counts for terms start..start+num_terms-1; None marks unsolvable.

    Counting goes through the transfer iteration, which stays exact and fast
    as the instances grow.  `start=0` admits the cannibal-free base instance.
    """
    if fs.num_terms < 1:
        raise ValueError("need at least one term")
    for i in (start, start + fs.num_terms - 1):  # the first member, then the largest
        validate_params(family_params(fs, max(i, 1)))
    out: list[int | None] = []
    for i in range(start, start + fs.num_terms):
        outcome = solve_by_transfer(mc_species(family_params(fs, i)))
        out.append(outcome.count if outcome.solvable else None)
    return out


def fit_linear_recurrence(
    seq: Sequence[int], max_order: int, offset: int = 0
) -> LinearRecurrence | None:
    """Find the minimal-order linear recurrence fitting seq beyond the offset.

    One Berlekamp-Massey pass over the tail seq[offset:], exact over the
    rationals, gives the tail's linear complexity L (the least order of a
    recurrence holding across the whole tail) and its connection polynomial
    C = 1 - c_1 x - ... - c_L x^L.  The fit is a(n) = c_1 a(n-1) + ... +
    c_L a(n-L) when 1 <= L <= max_order and c_L != 0, and None otherwise.
    No order up to max_order fits in any other case:
    - the length check leaves at least 2*max_order + 2 terms in the tail;
    - so when L <= max_order the tail has at least 2L + 2 terms, the order-L
      recurrence is unique, and every other recurrence that fits is a
      polynomial multiple of C;
    - so when c_L == 0, no order up to max_order fits with a nonzero last
      coefficient, and a later offset must be tried;
    - when L > max_order, no order up to max_order fits at all;
    - an all-zero tail has L = 0 and no recurrence.
    Raises ValueError for a negative offset, or when the sequence is too short
    for that bound at max_order.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if offset < 0:
        raise ValueError("offset must be at least 0")
    if len(seq) < 2 * max_order + offset + 2:
        raise ValueError(
            f"insufficient data: need at least {2 * max_order + offset + 2} terms, "
            f"got {len(seq)}"
        )
    tail = [Fraction(v) for v in seq[offset:]]
    # conn is C for the terms read so far, of order length; prev is C as it
    # stood before the last change of length, at term last, with discrepancy prev_d.
    conn, prev, prev_d, length, last = [Fraction(1)], [Fraction(1)], Fraction(1), 0, -1
    for n, v in enumerate(tail):
        d = v + sum(conn[j] * tail[n - j] for j in range(1, length + 1))
        if d == 0:
            continue
        q, old = d / prev_d, conn
        conn = [a - q * b for a, b in zip_longest(conn, [0] * (n - last) + prev, fillvalue=0)]
        if 2 * length <= n:
            length, prev, prev_d, last = n + 1 - length, old, d, n
    if not 1 <= length <= max_order or conn[length] == 0:
        return None
    return LinearRecurrence(
        order=length,
        coefficients=tuple(-c for c in conn[1:length + 1]),
        offset=offset,
        initial=tuple(seq[offset:offset + length]),
    )


def rational_gf(rec: LinearRecurrence, head: Sequence[int]) -> RationalGF:
    """Generating function whose series starts with `head` and continues by `rec`.

    The denominator is 1 minus the recurrence in x; the numerator absorbs the
    pre-recurrence head, so an offset simply raises the numerator degree.
    Coefficients are scaled to integers with positive constant denominator term.
    """
    start = rec.offset + rec.order
    vals = [Fraction(v) for v in head]
    if len(vals) < start:
        raise ValueError(f"head too short: need the first {start} terms")
    for n in range(start, len(vals)):
        if not rec.holds_at(vals, n):
            raise ValueError(f"recurrence fails against head at index {n}")
    denom = [Fraction(1)] + [-c for c in rec.coefficients]
    numer = []
    for n in range(start):
        r = vals[n]
        for j in range(1, min(rec.order, n) + 1):
            r -= rec.coefficients[j - 1] * vals[n - j]
        numer.append(r)
    while len(numer) > 1 and numer[-1] == 0:
        numer.pop()
    # The scaled constant denominator term is positive, so the gcd is never 0.
    scale = lcm(*(v.denominator for v in numer + denom))
    num_i, den_i = [int(v * scale) for v in numer], [int(v * scale) for v in denom]
    shrink = gcd(*num_i, *den_i)
    return RationalGF(tuple(v // shrink for v in num_i), tuple(v // shrink for v in den_i))


def series_coefficients(gf: RationalGF, count: int):
    """First `count` Taylor coefficients of the rational function, exactly."""
    if not gf.denominator or gf.denominator[0] == 0:
        raise ValueError("denominator must have a nonzero constant term")
    num, den = gf.numerator, gf.denominator
    acc: list[Fraction] = []
    for n in range(count):
        v = Fraction(num[n]) if n < len(num) else Fraction(0)
        for i in range(1, min(n, len(den) - 1) + 1):
            v -= den[i] * acc[n - i]
        acc.append(v / den[0])
    return [int(v) if v.denominator == 1 else v for v in acc]


class ConjectureReport(NamedTuple):
    family: FamilySpec
    counts: tuple[int | None, ...]
    recurrence: LinearRecurrence | None
    gf: RationalGF | None
    valid_from_term: int | None  # 1-based index of the first term the recurrence regime covers
    series_ok: bool
    max_order: int

    def render(self) -> str:
        fs = self.family
        m_expr = "i" if fs.surplus == 0 else f"i+{fs.surplus}"
        lines = [
            f"family: missionaries={m_expr}, cannibals=i, "
            f"boat_capacity={fs.boat_capacity}, safety_margin={fs.safety_margin}, "
            f"i=1..{fs.num_terms}",
            f"terms: {format_terms(self.counts)}",
        ]
        if all(v is None for v in self.counts):
            lines.append("result: no term in range is solvable")
            return "\n".join(lines)
        if self.recurrence is None:
            lines.append(f"result: no linear recurrence found up to order {self.max_order}")
            return "\n".join(lines)
        rec = self.recurrence
        lines.append(
            f"recurrence: a(i) = {format_recurrence(rec)}, "
            f"valid from i={self.valid_from_term} (order {rec.order})"
        )
        assert self.gf is not None
        lines.append(
            f"generating function: ({format_series_poly(self.gf.numerator)})"
            f" / ({format_series_poly(self.gf.denominator)})"
        )
        lines.append(
            "series check: "
            + ("ok, reproduces all listed terms" if self.series_ok else "FAILED")
        )
        return "\n".join(lines)


def conjecture_report(fs: FamilySpec, max_order: int) -> ConjectureReport:
    """Fit the family's counting sequence, trying later and later starting points."""
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    counts = family_counts(fs)
    numeric = [0 if v is None else v for v in counts]
    rec = None
    gf = None
    valid_from = None
    series_ok = False
    if any(v is not None for v in counts):
        for offset in range(len(numeric)):
            usable = min(max_order, (len(numeric) - offset - 2) // 2)
            if usable < 1:
                break
            rec = fit_linear_recurrence(numeric, usable, offset)
            if rec is not None:
                valid_from = offset + 1
                break
        if rec is not None:
            gf = rational_gf(rec, numeric)
            series_ok = series_coefficients(gf, len(numeric)) == numeric
    return ConjectureReport(fs, tuple(counts), rec, gf, valid_from, series_ok, max_order)


def format_terms(counts: Sequence[int | None]) -> str:
    return "[" + ", ".join("-" if v is None else str(v) for v in counts) + "]"


def format_recurrence(rec: LinearRecurrence) -> str:
    return format_signed_sum([(c, f"a(i-{j})") for j, c in enumerate(rec.coefficients, start=1)])


def format_series_poly(coeffs: Sequence[int]) -> str:
    return format_signed_sum([(c, "" if e == 0 else "x" if e == 1 else f"x^{e}")
                              for e, c in enumerate(coeffs)])
