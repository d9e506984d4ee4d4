"""Known reference data for the classic puzzle instances, and the puzzle grids that several
test modules sweep, shared across tests."""

import itertools

from rivercross import BankState, McParams, SpeciesPuzzle, mc_species, wolf_goat_cabbage

CLASSIC = McParams(3, 3, 2, 0)

# The four shortest solutions of the classic instance, lexicographic order.
CLASSIC_SOLUTIONS = tuple(
    tuple(BankState(*s) for s in sol)
    for sol in (
        [(3, 3, 1), (2, 2, 0), (3, 2, 1), (3, 0, 0), (3, 1, 1), (1, 1, 0),
         (2, 2, 1), (0, 2, 0), (0, 3, 1), (0, 1, 0), (0, 2, 1), (0, 0, 0)],
        [(3, 3, 1), (2, 2, 0), (3, 2, 1), (3, 0, 0), (3, 1, 1), (1, 1, 0),
         (2, 2, 1), (0, 2, 0), (0, 3, 1), (0, 1, 0), (1, 1, 1), (0, 0, 0)],
        [(3, 3, 1), (3, 1, 0), (3, 2, 1), (3, 0, 0), (3, 1, 1), (1, 1, 0),
         (2, 2, 1), (0, 2, 0), (0, 3, 1), (0, 1, 0), (0, 2, 1), (0, 0, 0)],
        [(3, 3, 1), (3, 1, 0), (3, 2, 1), (3, 0, 0), (3, 1, 1), (1, 1, 0),
         (2, 2, 1), (0, 2, 0), (0, 3, 1), (0, 1, 0), (1, 1, 1), (0, 0, 0)],
    )
)

# Transfer-iteration polynomials of the classic instance, stage by stage.
# Keys are (missionary, cannibal) exponents on the start bank.
CLASSIC_G = {
    1: {(3, 2): 1, (3, 1): 1, (2, 2): 1},
    2: {(3, 2): 3, (3, 1): 5, (2, 2): 5, (3, 0): 2},
    3: {(3, 2): 13, (3, 1): 25, (2, 2): 25, (3, 0): 14, (1, 1): 2},
    4: {(3, 2): 63, (3, 1): 127, (2, 2): 127, (3, 0): 80, (1, 1): 18, (0, 2): 2},
    5: {(3, 2): 317, (3, 1): 651, (2, 2): 651, (3, 0): 432, (1, 1): 118,
        (0, 2): 22, (0, 1): 2},
    6: {(3, 2): 1619, (3, 1): 3353, (2, 2): 3353, (3, 0): 2284, (1, 1): 690,
        (0, 2): 164, (0, 1): 28, (0, 0): 4},
}

CLASSIC_F = {
    0: {(3, 3): 1},
    1: {(3, 3): 3, (3, 2): 2},
    2: {(3, 3): 13, (3, 2): 12, (3, 1): 2},
    3: {(3, 3): 63, (3, 2): 64, (3, 1): 16, (2, 2): 2},
    4: {(3, 3): 317, (3, 2): 334, (3, 1): 98, (2, 2): 20, (0, 3): 2},
    5: {(3, 3): 1619, (3, 2): 1734, (3, 1): 550, (2, 2): 140, (0, 3): 24,
        (1, 1): 2, (0, 2): 2},
}

# Counting sequence of the family with 5 surplus missionaries, boat 3, margin 1.
FIB_FAMILY_TERMS = (4, 4, 13, 21, 34, 55, 89, 144)

# Rational generating function of the family with 9 surplus missionaries,
# boat 2, margin 0, indexed from zero cannibals; coefficients ascending.
SURPLUS9_GF_NUM = (1, 6726, 736742, 2667061, -31754164, 54735368, 63279616, -1774224)
SURPLUS9_GF_DEN = (1, -39, 337, -384, 4)


def fibonacci(n: int) -> int:
    """F(1) = F(2) = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def boat_side_species():
    """Cannibals may outnumber missionaries only on the bank where the boat is."""
    return SpeciesPuzzle(
        names=("missionaries", "cannibals"),
        amounts=(3, 2),
        boat_capacity=2,
        bank_rule=lambda v, boat: boat or not (0 < v[0] < v[1]),
        boat_rule=lambda load: True,
        allow_empty_boat=True,
    )


def oracle_puzzles():
    """The MC grid M,C <= 6, B 2..4, d 0..2, wolf-goat-cabbage, and a boat-side bank rule."""
    for m, c, b, d in itertools.product(range(1, 7), range(1, 7), range(2, 5), range(0, 3)):
        if m - c >= d:
            yield mc_species(McParams(m, c, b, d))
    yield wolf_goat_cabbage()
    yield boat_side_species()


def verdict_puzzles():
    """The MC grid M,C <= 12, B 2..5, d 0..2, then `oracle_puzzles()`."""
    grid = (mc_species(McParams(m, c, b, d))
            for m, c, b, d in itertools.product(range(1, 13), range(1, 13), range(2, 6), range(3))
            if m - c >= d)
    return itertools.chain(grid, oracle_puzzles())
