"""Counting solutions with plain polynomial algebra.

Populations on the starting bank are tracked as monomial exponents.  One
forward crossing divides by a legal boat load (subtracts its exponent vector),
one return crossing multiplies, and monomials encoding unsafe banks die.  A
monomial with the boat on one side is a state of the puzzle's state graph and
its successors are what survives one crossing, so the stages are the rows of
the graph's adjacency powers from the initial state (the transfer-matrix
method), read from `digraph.walk_rows` on the puzzle's `state_graph`.  The
first forward stage g_i with a constant term proves the puzzle solvable, and
that term is the exact number of shortest solutions.  `trace_rows(sp, steps)`,
the trace's one entry, names the stages and stops at the first constant term;
`transfer_trace` decodes its rows into polynomials.

The count meets the stages in the middle (`digraph.meet_in_the_middle`):
a solution is a walk from the start met by the mirror image of another, so
g_i's constant term is the coefficient of x^(amounts) in the product of rows
i-1 and i of f0, g1, f1, g2, ..., and is read in stage ceil(i/2).  It finds
no solution where `digraph`'s walk readers give up: at the support fixpoint,
or after n - 1 crossings, n the number of states.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, NamedTuple

from .digraph import Digraph, meet_in_the_middle, walk_rows
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
    """The outcome's `states_bound`: `trace` prints an unsolvable instance's stages one past it.

    The number of legal vectors when each is legal with the boat on either side, as whenever the
    bank rule ignores the boat; otherwise the number of legal (vector, boat side) states.
    """
    states = sp.state_graph[1]
    vectors = {vec for vec, _ in states}
    return len(vectors) if len(states) == 2 * len(vectors) else len(states)


def solve_by_transfer(sp: SpeciesPuzzle) -> TransferOutcome:
    """Run the alternating iteration until its stages meet or their supports settle."""
    k, count = meet_in_the_middle(walk_rows(sp.state_graph[0], 1))
    return TransferOutcome(solvable=bool(count), crossings=2 * k - 1 if count else None,
                           count=count or None, success_index=k if count else None,
                           states_bound=legal_state_bound(sp), iterations_run=(k + 1) // 2)


def trace_rows(sp: SpeciesPuzzle, steps: int | None = None
               ) -> Iterator[tuple[str, list[int], list[int]]]:
    """The stages ("f0", counts, support), ("g1", counts, support), ... of one pass, each a row
    of the walk on `sp.state_graph`: its polynomial has a term counts[v] * x^e for each vertex
    v of `support`, e the start-bank populations of v.  They run through stage `steps`, else
    through the first g with a constant term (the success stage), else through stage
    `legal_state_bound(sp) + 1`; `steps` may be at most twice that last default, which bounds
    the output.  A refused `steps` raises at the call, before any row is read."""
    if steps is not None and steps < 0:
        raise ValueError("stages must be non-negative")
    last = legal_state_bound(sp) + 1
    if steps is not None and steps > 2 * last:
        raise ValueError(f"stages must be at most {2 * last}, twice an unsolvable trace's default")
    return _stages(sp.state_graph[0], last if steps is None else steps, steps is None)


def _stages(graph: Digraph, stages: int, to_success: bool
            ) -> Iterator[tuple[str, list[int], list[int]]]:
    start = [0] * (graph.n + 1)
    start[1] = 1  # f0: the initial state, vertex 1, alone
    yield "f0", start, [1]
    names = (f"{side}{i}" for i in range(1, stages + 1) for side in "gf")
    for name, (counts, support, _) in zip(names, walk_rows(graph, 1)):
        yield name, counts, support
        if to_success and counts[graph.n]:  # the goal, reached only by a g: the success stage
            return


def transfer_trace(sp: SpeciesPuzzle, stages: int) -> TransferTrace:
    """The first `stages` (forward, back) polynomial pairs of `trace_rows`, for inspection."""
    rows = trace_rows(sp, stages)
    states = sp.state_graph[1]
    polys = ({states[v - 1][0]: counts[v] for v in support} for _, counts, support in rows)
    return TransferTrace(next(polys), tuple(zip(polys, polys)))  # f0, then (g_i, f_i) pairs


def polynomial_terms(poly: Polynomial) -> list[tuple[int, Exponents]]:
    """(coefficient, exponents) pairs in display order: descending total degree, then
    descending exponents.  `format_polynomial` and `trace`'s stage writer read this order.

    The sort by total degree is stable, so it keeps the exponents' order among equals."""
    return [(poly[mono], mono) for mono in sorted(sorted(poly, reverse=True), key=sum, reverse=True)]


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
