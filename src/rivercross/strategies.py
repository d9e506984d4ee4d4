"""Hand-crafted crossing schedules with sufficiency conditions.

Each strategy is a constructive recipe: when its condition on the parameters
holds it emits a full move script that the validator accepts, which certifies
the instance solvable without any search.  Scripts are not required to be
minimal.  The conditions are sufficient only; their failure proves nothing.
"""

from __future__ import annotations

import enum

from .puzzle import McParams, Move, validate_params
from .puzzle import Violation, validate_solution  # noqa: F401  (re-exported)


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
    validate_params(p)
    m, c, b, d = p
    return {s for s, (holds, _) in _RECIPES.items() if holds(m, c, b, d)}


def build_strategy(p: McParams, strategy: Strategy) -> tuple[Move, ...] | None:
    """Emit the move script for one strategy, or None when its condition fails."""
    validate_params(p)
    holds, build = _RECIPES[strategy]
    return build(p) if holds(*p) else None


# ---------------------------------------------------------------------------
# Script builders.  Each tracks the start-bank population while emitting moves;
# correctness is certified by validate_solution, exercised in the test sweep.
# ---------------------------------------------------------------------------


class _Script:
    """A move script that notes when everyone is first across (some recipes overshoot)."""

    def __init__(self, p: McParams):
        self.m = p.missionaries
        self.c = p.cannibals
        self.moves: list[Move] = []
        self.goal: int | None = None  # moves made when the goal state (0, 0, 0) was first reached

    def forward(self, e1: int, e2: int) -> None:
        self.moves.append(Move(e1, e2, True))
        self.m -= e1
        self.c -= e2
        if not (self.m or self.c):
            self._note_goal()

    def back(self, e1: int, e2: int) -> None:
        self.moves.append(Move(e1, e2, False))
        self.m += e1
        self.c += e2
        if not (self.m or self.c):
            self._note_goal()

    def _note_goal(self) -> None:
        # Nobody is left on the start bank; the boat is across after an odd number of crossings.
        if self.goal is None and len(self.moves) % 2:
            self.goal = len(self.moves)

    def done(self) -> tuple[Move, ...]:
        """The script, cut at the first moment everyone is across."""
        return tuple(self.moves[: self.goal])


def _two_boat(p: McParams) -> tuple[Move, ...]:
    """Two people per trip: drain surplus missionaries, then shuttle cannibals across."""
    m_, c_, b_, d = p
    s = _Script(p)
    for _ in range(m_ - c_ - d - 1):
        s.forward(2, 0)
        s.back(1, 0)
    while s.c > 1:
        s.forward(0, 2)
        s.back(0, 1)
        s.forward(2, 0)
        s.back(1, 0)
    s.forward(0, 1)
    while s.m > 0:
        s.back(1, 0)
        s.forward(2, 0)
    return s.done()


def _big_boat_1(p: McParams) -> tuple[Move, ...]:
    """Boat dominates the cannibals: ship every missionary, then let cannibals self-ferry."""
    m_, c_, b_, d = p
    s = _Script(p)
    for _ in range(max(0, m_ - c_ - d - 1)):
        s.forward(2, 0)
        s.back(1, 0)
    s.forward(s.m, 0)
    # A dominant group must row back to fetch the boat for the cannibals.
    escort = min(b_ - 1, m_)
    s.back(escort, 0)
    s.forward(escort, 1)
    s.back(0, 1)
    while s.c > 0:
        s.forward(0, min(b_, s.c))
        if s.c > 0:
            s.back(0, 1)
    return s.done()


def _big_boat_2(p: McParams) -> tuple[Move, ...]:
    """Boat fits every missionary at once."""
    m_, c_, b_, d = p
    s = _Script(p)
    s.forward(0, 2)
    s.back(0, 1)
    s.forward(m_, 0)
    s.back(0, 1)
    while s.c > 0:
        s.forward(0, min(b_, s.c))
        if s.c > 0:
            s.back(0, 1)
    return s.done()


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
    while s.c > 0:
        s.back(0, 1)
        s.forward(0, min(b_, s.c))
    return s.done()


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
    return s.done()


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
    return s.done()


def _zero_margin_equal_big_boat(p: McParams) -> tuple[Move, ...]:
    """Equal populations, roomy boat: pairs out, singles back, 2n-3 moves total."""
    s = _Script(p)
    while s.m > 2:
        s.forward(2, 2)
        s.back(1, 1)
    s.forward(2, 2)
    return s.done()


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
