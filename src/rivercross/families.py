"""Enumeration sequences over one-parameter puzzle families and their analysis.

For a fixed missionary surplus, boat capacity, and safety margin, term i of a
family counts the shortest solutions of the instance with i cannibals and
i + surplus missionaries.  The fitting machinery guesses a minimal linear
recurrence with constant coefficients by exact rational elimination, turns it
into a rational generating function, and verifies the guess on held-out terms.
Fits remain conjectures; nothing here constitutes a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .puzzle import McParams, mc_species, validate_params
from .transfer import format_signed_sum, solve_by_transfer


class FamilySpec(NamedTuple):
    surplus: int
    boat_capacity: int
    safety_margin: int
    num_terms: int


@dataclass(frozen=True)
class LinearRecurrence:
    """a(n) = sum of coefficients[j-1] * a(n-j), holding for n >= offset + order.

    Indices refer to the sequence the recurrence was fitted against; `initial`
    holds the `order` terms at the offset that seed the recurrence.
    """

    order: int
    coefficients: tuple[Fraction, ...]
    offset: int
    initial: tuple[int, ...]

    def holds_at(self, seq: Sequence[int], n: int) -> bool:
        return seq[n] == sum(c * seq[n - j] for j, c in enumerate(self.coefficients, start=1))


@dataclass(frozen=True)
class RationalGF:
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
    validate_params(family_params(fs, max(start, 1)))
    out: list[int | None] = []
    for i in range(start, start + fs.num_terms):
        outcome = solve_by_transfer(mc_species(family_params(fs, i)))
        out.append(outcome.count if outcome.solvable else None)
    return out


def fit_linear_recurrence(
    seq: Sequence[int], max_order: int, offset: int = 0
) -> LinearRecurrence | None:
    """Find the minimal-order linear recurrence fitting seq beyond the offset.

    Coefficients are solved exactly over the rationals from every window except
    the last two terms, which are held out and must also verify; this guards
    the fit against short-sequence overfitting.  Returns None if no order up to
    max_order fits.  Raises ValueError when the sequence is too short to leave
    held-out terms at max_order.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if len(seq) < 2 * max_order + offset + 2:
        raise ValueError(
            f"insufficient data: need at least {2 * max_order + offset + 2} terms, "
            f"got {len(seq)}"
        )
    tail = [Fraction(v) for v in seq[offset:]]
    hi = len(tail)
    for order in range(1, max_order + 1):
        rows = [
            [tail[n - j] for j in range(1, order + 1)] + [tail[n]]
            for n in range(order, hi - 2)
        ]
        coeffs = _solve_exact(rows, order)
        if coeffs is None or coeffs[-1] == 0:
            continue
        rec = LinearRecurrence(
            order=order,
            coefficients=tuple(coeffs),
            offset=offset,
            initial=tuple(int(v) for v in tail[:order]),
        )
        if all(rec.holds_at(tail, n) for n in range(order, hi)):
            return rec
    return None


def _solve_exact(rows: list[list[Fraction]], ncols: int) -> list[Fraction] | None:
    """Gauss-Jordan over the rationals on an augmented system; free variables become 0."""
    mat = [row[:] for row in rows]
    pivot_of_col: dict[int, int] = {}
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivot_of_col[col] = r
        r += 1
    for row in mat[r:]:
        if row[-1] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for col, prow in pivot_of_col.items():
        solution[col] = mat[prow][-1]
    return solution


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


@dataclass(frozen=True)
class ConjectureReport:
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
