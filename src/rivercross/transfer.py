"""Counting solutions with plain polynomial algebra.

Populations on the starting bank are tracked as monomial exponents.  One
forward crossing divides by a legal boat load (subtracts its exponent vector),
one return crossing multiplies, and monomials encoding unsafe banks die.  A
monomial with the boat on one side is a state of the puzzle's state graph and
its successors are what survives one crossing, so the stages are the rows of
the graph's adjacency powers from the initial state (the transfer-matrix
method), read from `digraph.walk_rows` on the puzzle's `state_graph`.  The
first forward stage g_i with a constant term proves the puzzle solvable, and
that term is the exact number of shortest solutions.  `solve_and_trace(sp, steps)`,
the trace's one entry, names the stages and picks the default length.

The verdict meets the stages in the middle (`digraph.meet_in_the_middle`):
a solution is a walk from the start met by the mirror image of another, so
g_i's constant term is the coefficient of x^(amounts) in the product of rows
i-1 and i of f0, g1, f1, g2, ..., and is read in stage ceil(i/2).

No solution exists once a stage's support is empty or equals the support two
stages back: each support is the set of successors of the one before, so on
any state graph the supports then repeat for ever, in pairs already met.
Supports could cycle with a longer period, so the iteration also stops, as a
fallback, once it has covered every solution of up to n - 1 crossings, n the
number of states: a shortest solution visits no state twice.
"""

from __future__ import annotations

from itertools import chain, tee
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .digraph import meet_in_the_middle, walk_rows
from .puzzle import SpeciesPuzzle

if TYPE_CHECKING:
    from fractions import Fraction

Exponents = tuple[int, ...]
Polynomial = dict[Exponents, int]


class TransferOutcome(NamedTuple):
    """The verdict of the transfer iteration.

    `iterations_run` counts the stages whose rows were computed, through the
    meeting (3 for the classic g6, met at f3), the fixpoint or the fallback.
    """

    solvable: bool
    crossings: int | None
    count: int | None
    success_index: int | None
    states_bound: int
    iterations_run: int


class TransferTrace(NamedTuple):
    """The polynomials of the first `len(steps)` stages: initial, then (forward, back) pairs."""

    initial: Polynomial
    steps: tuple[tuple[Polynomial, Polynomial], ...]


def cleanup(poly: Polynomial, sp: SpeciesPuzzle, boat_on_start: bool) -> Polynomial:
    """Keep the nonzero monomials that are states of `sp.state_graph` on the given boat side.

    The state graph holds only in-box states with both banks safe, so
    out-of-range and unsafe monomials die.  Raises ValueError, as
    `species_graph` does, when the puzzle is ill-posed.
    """
    flag = int(boat_on_start)
    legal = set(sp.state_graph[1])
    return {mono: coeff for mono, coeff in poly.items() if coeff and (mono, flag) in legal}


def legal_state_bound(sp: SpeciesPuzzle) -> int:
    """Number of legal states; `trace` prints an unsolvable instance's stages one past it.

    For puzzles whose bank rule ignores the boat this is the number of legal
    population vectors; otherwise each (vector, boat side) pair counts.
    """
    states = sp.state_graph[1]
    vectors = {vec for vec, _ in states}
    return len(vectors) if len(states) == 2 * len(vectors) else len(states)


def _verdict(sp: SpeciesPuzzle, rows: Iterator[tuple]) -> TransferOutcome:
    """Read the rows g1, f1, g2, ... until they meet in the middle, settle or cover n - 1."""
    k, count = meet_in_the_middle(rows)
    return TransferOutcome(solvable=bool(count), crossings=2 * k - 1 if count else None,
                           count=count or None, success_index=k if count else None,
                           states_bound=legal_state_bound(sp), iterations_run=(k + 1) // 2)


def solve_by_transfer(sp: SpeciesPuzzle) -> TransferOutcome:
    """Run the alternating iteration until its stages meet or their supports settle."""
    return _verdict(sp, walk_rows(sp.state_graph[0], 1))


def solve_and_trace(sp: SpeciesPuzzle, steps: int | None = None
                    ) -> tuple[TransferOutcome, int, Iterator[tuple[str, Polynomial]]]:
    """The verdict, the stage count, and the stages ("f0", poly), ("g1", poly), ... of one pass.

    They run through stage `steps`, else the success stage's g, else stage `states_bound + 1`."""
    if steps is not None and steps < 0:
        raise ValueError("stages must be non-negative")
    verdict_reads, rows = tee(walk_rows(sp.state_graph[0], 1))
    outcome = _verdict(sp, verdict_reads)
    stages = steps if steps is not None else outcome.success_index or outcome.states_bound + 1
    names = [f"{side}{i}" for i in range(1, stages + 1) for side in "gf"]
    if outcome.solvable and steps is None:
        names.pop()  # the success stage ends on its forward polynomial
    # The rows g1, f1, g2, f2, ... decoded into polynomials over the start-bank populations.
    states = sp.state_graph[1]
    polys = ({states[v - 1][0]: counts[v] for v in support} for counts, support, _ in rows)
    return outcome, stages, chain([("f0", {sp.amounts: 1})], zip(names, polys))


def transfer_trace(sp: SpeciesPuzzle, stages: int) -> TransferTrace:
    """The first `stages` (forward, back) polynomial pairs of `solve_and_trace`, for inspection."""
    polys = (poly for _, poly in solve_and_trace(sp, stages)[2])
    return TransferTrace(next(polys), tuple(zip(polys, polys)))  # f0, then (g_i, f_i) pairs


def polynomial_terms(poly: Polynomial) -> list[tuple[int, Exponents]]:
    """(coefficient, exponents) pairs in display order: descending total degree, then
    descending exponents.  `format_polynomial` and JSON `trace` both read this order."""
    return [(poly[mono], mono) for mono in sorted(poly, key=lambda m: (sum(m), m), reverse=True)]


def format_polynomial(poly: Polynomial) -> str:
    """Render a polynomial deterministically, in `polynomial_terms` order."""
    return format_signed_sum([
        (coeff, "*".join([f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(mono, 1) if e]))
        for coeff, mono in polynomial_terms(poly)
    ])


def format_signed_sum(terms: list[tuple[int | Fraction, str]]) -> str:
    """Render (coefficient, body) pairs as a signed sum; an empty body is a constant.

    Zero terms are dropped and unit coefficients left out.  The first term takes
    a bare minus, later ones "+ " or "- ", and a sum with no terms reads "0".
    """
    parts = []
    for coeff, body in terms:
        if coeff == 0:
            continue
        mag = abs(coeff)
        term = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
        if parts:
            parts.append(f"+ {term}" if coeff > 0 else f"- {term}")
        else:
            parts.append(term if coeff > 0 else f"-{term}")
    return " ".join(parts) or "0"
