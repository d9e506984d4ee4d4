"""Hand-crafted crossing schedules with sufficiency conditions.

Each strategy is a constructive recipe: when its condition on the parameters
holds it emits a full move script that the validator accepts, which certifies
the instance solvable without any search.  Every script ends the first time
everyone is across; scripts are not required to be minimal.  The conditions
are sufficient only; their failure proves nothing.  A margin below -1 is read
as -1 (see _recipe_params).
"""

from __future__ import annotations

import enum

from .puzzle import McParams, Move, validate_params
from .puzzle import validate_solution  # noqa: F401  (re-exported)


class Strategy(enum.Enum):
    TWO_BOAT = "TwoBoat"
    BIG_BOAT_1 = "BigBoat1"
    BIG_BOAT_2 = "BigBoat2"
    SPLIT_CANNIBALS = "SplitCannibals"
    SIMULTANEOUS_FERRY = "SimultaneousFerry"
    ZERO_MARGIN_SLACK = "ZeroMarginSlack"
    ZERO_MARGIN_EQUAL_BIG_BOAT = "ZeroMarginEqualBigBoat"


def applicability(p: McParams) -> set[Strategy]:
    """The strategies whose sufficiency condition holds for p."""
    m, c, b, d = _recipe_params(p)
    return {s for s, (holds, _) in _RECIPES.items() if holds(m, c, b, d)}


def build_strategy(p: McParams, strategy: Strategy) -> tuple[Move, ...] | None:
    """Emit the move script for one strategy, or None when its condition fails."""
    p = _recipe_params(p)
    holds, build = _RECIPES[strategy]
    return build(p) if holds(*p) else None


def _recipe_params(p: McParams) -> McParams:
    """Validate p, then read a margin below -1 as -1, where the recipes' arithmetic holds.

    A lower margin only admits more states and loads, so a script legal at -1
    is legal below it.  Where even the start leads by less than -1, only the
    big-boat conditions can hold, and their scripts never put a bank or the
    boat below the starting lead.
    """
    validate_params(p)
    return p._replace(safety_margin=max(p.safety_margin, -1))


# ---------------------------------------------------------------------------
# Script builders.  Each tracks the start-bank population while emitting moves;
# correctness is certified by validate_solution, exercised in the test sweep.
# ---------------------------------------------------------------------------


class _Script:
    """A move script and the start-bank population it leaves.  Each recipe stops at the goal."""

    def __init__(self, p: McParams):
        self.m = p.missionaries
        self.c = p.cannibals
        self.moves: list[Move] = []

    def forward(self, e1: int, e2: int) -> None:
        self.moves.append(Move(e1, e2, True))
        self.m -= e1
        self.c -= e2

    def back(self, e1: int, e2: int) -> None:
        self.moves.append(Move(e1, e2, False))
        self.m += e1
        self.c += e2

    def drain_missionaries(self, d: int) -> None:
        """Two missionaries out, one back, until the start bank leads by d + 1."""
        while self.m - self.c > d + 1:
            self.forward(2, 0)
            self.back(1, 0)

    def ferry_cannibals(self, b: int) -> None:
        """The closing phase: while cannibals remain, one rows back and a boatload crosses."""
        while self.c > 0:
            self.back(0, 1)
            self.forward(0, min(b, self.c))


def _two_boat(p: McParams) -> tuple[Move, ...]:
    """Two people per trip: drain surplus missionaries, then shuttle cannibals across."""
    s = _Script(p)
    s.drain_missionaries(p.safety_margin)
    while s.c > 1:
        s.forward(0, 2)
        s.back(0, 1)
        s.forward(2, 0)
        s.back(1, 0)
    s.forward(0, 1)
    while s.m > 0:
        s.back(1, 0)
        s.forward(2, 0)
    return tuple(s.moves)


def _big_boat_1(p: McParams) -> tuple[Move, ...]:
    """Boat dominates the cannibals: ship every missionary, then let cannibals self-ferry."""
    m_, c_, b_, d = p
    s = _Script(p)
    s.drain_missionaries(d)
    s.forward(s.m, 0)
    # A dominant group must row back to fetch the boat for the cannibals.
    escort = min(b_ - 1, m_)
    s.back(escort, 0)
    s.forward(escort, 1)
    s.ferry_cannibals(b_)
    return tuple(s.moves)


def _big_boat_2(p: McParams) -> tuple[Move, ...]:
    """Boat fits every missionary at once."""
    m_, c_, b_, d = p
    s = _Script(p)
    s.forward(0, 2)
    s.back(0, 1)
    s.forward(m_, 0)
    s.ferry_cannibals(b_)
    return tuple(s.moves)


def _split_cannibals(p: McParams) -> tuple[Move, ...]:
    """Ship half the cannibals first, then all missionaries, then the rest."""
    m_, c_, b_, d = p
    s = _Script(p)
    half = (c_ + 1) // 2
    s.forward(0, half)
    s.back(0, 1)
    s.forward(half + d + 1, 1)  # the returning cannibal rides with the missionary block
    floor = (c_ - half) + d
    while s.m > 0:
        s.back(1, 0)
        if s.m <= b_:
            s.forward(s.m, 0)
        else:
            s.forward(min(b_, s.m - floor), 0)
    s.ferry_cannibals(b_)
    return tuple(s.moves)


def _simultaneous_ferry(p: McParams) -> tuple[Move, ...]:
    """Park a standing surplus across, then cycle one cannibal over per round trip."""
    m_, c_, b_, d = p
    s = _Script(p)
    s.forward(d + 1, 0)
    s.back(1, 0)
    while s.c > 0:
        s.forward(d + 1, 1)
        s.back(d, 0)
    while s.m > 0:
        s.forward(min(b_, s.m), 0)
        if s.m > 0:
            s.back(1, 0)
    return tuple(s.moves)


def _zero_margin_slack(p: McParams) -> tuple[Move, ...]:
    """No margin and spare missionaries: drain the slack, then walk pairs down."""
    s = _Script(p)
    while s.m > s.c:
        s.forward(1, 1)
        s.back(0, 1)
    while s.c >= 2:
        s.forward(1, 1)
        s.back(1, 0)
        s.forward(1, 1)
        s.back(0, 1)
    s.forward(1, 1)
    return tuple(s.moves)


def _zero_margin_equal_big_boat(p: McParams) -> tuple[Move, ...]:
    """Equal populations, roomy boat: pairs out, singles back, 2n-3 moves total."""
    s = _Script(p)
    while s.m > 2:
        s.forward(2, 2)
        s.back(1, 1)
    s.forward(2, 2)
    return tuple(s.moves)


# Each strategy's sufficiency condition on (m, c, b, d), beside its recipe.
_RECIPES = {
    Strategy.TWO_BOAT: (lambda m, c, b, d: m - c >= 2 * d + 3, _two_boat),
    Strategy.BIG_BOAT_1: (lambda m, c, b, d: b >= c + d + 1, _big_boat_1),
    Strategy.BIG_BOAT_2: (lambda m, c, b, d: b >= m and c >= 2, _big_boat_2),
    Strategy.SPLIT_CANNIBALS: (
        lambda m, c, b, d: m - c >= 2 * d + 1 and b > (c + 1) // 2 + d + 1, _split_cannibals),
    # The ferry cycle returns d people, so it degenerates at d = 0 (an empty
    # boat may not cross); the margin must be positive for the recipe to exist.
    Strategy.SIMULTANEOUS_FERRY: (
        lambda m, c, b, d: d >= 1 and m - c >= 3 * d and b >= d + 2, _simultaneous_ferry),
    Strategy.ZERO_MARGIN_SLACK: (lambda m, c, b, d: d == 0 and m > c, _zero_margin_slack),
    # The equal-population recipe ships pairs, so it needs at least 2 of each.
    Strategy.ZERO_MARGIN_EQUAL_BIG_BOAT: (
        lambda m, c, b, d: d == 0 and m == c and b >= 4 and m >= 2, _zero_margin_equal_big_boat),
}
