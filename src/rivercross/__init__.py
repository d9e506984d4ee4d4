"""River-crossing puzzle toolkit.

Solves and counts shortest solutions of generalized missionaries-and-cannibals
puzzles (and other species-based river crossings) by a graph search and,
independently, by one walk computation that `matrix` and `transfer` share;
generates counting sequences over infinite puzzle families, fitting recurrences
and generating functions; and runs named strategies with sufficiency conditions.
"""

from .digraph import (
    Digraph,
    PathCount,
    count_shortest_paths,
    shortest_distance,
    shortest_paths,
    unrank_shortest_path,
)
from .families import (
    ConjectureReport,
    FamilySpec,
    LinearRecurrence,
    RationalGF,
    conjecture_report,
    family_counts,
    fit_linear_recurrence,
    rational_gf,
    series_coefficients,
)
from .puzzle import (
    BankState,
    McParams,
    Move,
    ParamError,
    SpeciesPuzzle,
    Violation,
    mc_graph,
    mc_species,
    path_to_moves,
    solve_mc,
    solve_species,
    species_graph,
    spell_out,
    validate_params,
    validate_solution,
    wolf_goat_cabbage,
)
from .strategies import Strategy, applicability, build_strategy
from .transfer import TransferOutcome, format_polynomial, solve_by_transfer

__version__ = "0.1.0"
