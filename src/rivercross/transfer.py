"""Counting solutions with plain polynomial algebra.

Populations on the starting bank are tracked as monomial exponents.  One
forward crossing divides by a legal boat load (subtracts its exponent vector),
one return crossing multiplies, and monomials encoding unsafe banks die.  A
monomial with the boat on one side is a state of the puzzle's state graph, and
what survives one crossing is that state's successors there, so every stage is
a sparse vector-times-matrix product over the graph's rows, tabulated once per
puzzle (the transfer-matrix method).  The iteration alternates forward and back
from the full initial population; the first stage whose forward polynomial
gains a constant term proves the puzzle solvable, and that constant term is the
exact number of shortest solutions.  If no constant term appears within one
stage more than the number of legal states, no solution exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import tee
from typing import Iterator

from .puzzle import SpeciesPuzzle, species_state_ok

Exponents = tuple[int, ...]
Polynomial = dict[Exponents, int]


@dataclass(frozen=True)
class TransferOutcome:
    solvable: bool
    crossings: int | None
    count: int | None
    success_index: int | None
    states_bound: int
    iterations_run: int


@dataclass(frozen=True)
class TransferTrace:
    """The polynomials of the first `len(steps)` stages: initial, then (forward, back) pairs."""

    initial: Polynomial
    steps: tuple[tuple[Polynomial, Polynomial], ...]


def cleanup(poly: Polynomial, sp: SpeciesPuzzle, boat_on_start: bool) -> Polynomial:
    """Keep only monomials that encode a safe pair of banks (out-of-range ones die too)."""
    out: Polynomial = {}
    for mono, coeff in poly.items():
        if coeff == 0:
            continue
        if any(e < 0 or e > a for e, a in zip(mono, sp.amounts)):
            continue
        if species_state_ok(sp, mono, boat_on_start):
            out[mono] = coeff
    return out


def transfer_step(poly: Polynomial, sp: SpeciesPuzzle, forward: bool) -> Polynomial:
    """One crossing: add each monomial's coefficient to each of its legal successors.

    A forward crossing leaves from the state whose start bank holds the
    monomial's populations and the boat; a return crossing leaves with the
    boat on the far bank.  The successors are that state's out-neighbours in
    `species_graph`, read from the puzzle's successor table; sums of zero are
    dropped.  Raises ValueError for a monomial that is no legal state there.
    """
    table, boat = sp._successors, 1 if forward else 0
    acc: Polynomial = {}
    for mono, coeff in poly.items():
        row = table.get((mono, boat))
        if row is None:
            side = "start" if forward else "far"
            raise ValueError(f"monomial {mono} is no legal state with the boat on the {side} bank")
        for succ in row:
            acc[succ] = acc.get(succ, 0) + coeff
    return {mono: coeff for mono, coeff in acc.items() if coeff}


def legal_state_bound(sp: SpeciesPuzzle) -> int:
    """Number of legal states, which bounds the transfer iteration.

    For puzzles whose bank rule ignores the boat this is the number of legal
    population vectors; otherwise each (vector, boat side) pair counts.
    """
    states = sp._successors
    vectors = {vec for vec, _ in states}
    return len(vectors) if len(states) == 2 * len(vectors) else len(states)


def _stages(sp: SpeciesPuzzle) -> Iterator[Polynomial]:
    """The polynomials g1, f1, g2, f2, ..., each computed only when asked for."""
    poly: Polynomial = {sp.amounts: 1}
    forward = True
    while True:
        poly = transfer_step(poly, sp, forward)
        yield poly
        forward = not forward


def _verdict(sp: SpeciesPuzzle, polys: Iterator[Polynomial]) -> TransferOutcome:
    """Read g1, f1, g2, ... until a constant term appears or the bound is exhausted."""
    bound = legal_state_bound(sp)
    zero = tuple(0 for _ in sp.amounts)
    i = 0
    for i in range(1, bound + 2):
        across = next(polys)
        constant = across.get(zero, 0)
        if constant:
            return TransferOutcome(
                solvable=True,
                crossings=2 * i - 1,
                count=constant,
                success_index=i,
                states_bound=bound,
                iterations_run=i,
            )
        if not across:
            break
        next(polys)
    return TransferOutcome(
        solvable=False,
        crossings=None,
        count=None,
        success_index=None,
        states_bound=bound,
        iterations_run=i,
    )


def solve_by_transfer(sp: SpeciesPuzzle) -> TransferOutcome:
    """Run the alternating iteration until a constant term appears or the bound is exhausted."""
    return _verdict(sp, _stages(sp))


def solve_and_trace(sp: SpeciesPuzzle) -> tuple[TransferOutcome, Iterator[Polynomial]]:
    """The verdict of `solve_by_transfer` and the polynomials g1, f1, g2, f2, ... of one pass.

    The polynomials the verdict read are replayed; later ones are computed on demand.
    """
    verdict_reads, trace = tee(_stages(sp))
    return _verdict(sp, verdict_reads), trace


def transfer_trace(sp: SpeciesPuzzle, stages: int) -> TransferTrace:
    """Compute the first `stages` (forward, back) polynomial pairs for inspection."""
    if stages < 0:
        raise ValueError("stages must be non-negative")
    polys = _stages(sp)
    steps = tuple((next(polys), next(polys)) for _ in range(stages))
    return TransferTrace({sp.amounts: 1}, steps)


def monomial_sort_key(mono: Exponents) -> tuple:
    """Descending total degree, then descending lexicographic exponent order."""
    return (-sum(mono), tuple(-e for e in mono))


def format_polynomial(poly: Polynomial, variables: tuple[str, ...] | None = None) -> str:
    """Render a polynomial deterministically, highest-degree monomials first."""
    if not poly:
        return "0"
    k = len(next(iter(poly)))
    names = variables if variables is not None else tuple(f"x{i + 1}" for i in range(k))
    parts = []
    for mono in sorted(poly, key=monomial_sort_key):
        coeff = poly[mono]
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            term = str(abs(coeff))
        elif abs(coeff) == 1:
            term = "*".join(factors)
        else:
            term = "*".join([str(abs(coeff))] + factors)
        if not parts:
            parts.append(term if coeff > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if coeff > 0 else f"- {term}")
    return " ".join(parts)
