"""River-crossing puzzle toolkit.

Solves and counts shortest solutions of generalized missionaries-and-cannibals
puzzles (and other species-based river crossings) by a graph search and,
independently, by one walk computation that `matrix` and `transfer` share;
generates counting sequences over infinite puzzle families, fitting recurrences
and generating functions; and runs named strategies with sufficiency conditions.

`import rivercross` loads no submodule: each exported name imports its module
on first use (PEP 562), so a caller pays only for the layers it reads.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "digraph": ("Digraph", "PathCount", "count_shortest_paths", "shortest_distance",
                "shortest_paths", "unrank_shortest_path"),
    "families": ("ConjectureReport", "FamilySpec", "LinearRecurrence", "RationalGF",
                 "conjecture_report", "family_counts", "fit_linear_recurrence", "rational_gf",
                 "series_coefficients"),
    "puzzle": ("BankState", "McParams", "Move", "ParamError", "SpeciesPuzzle", "Violation",
               "mc_graph", "mc_species", "path_to_moves", "solve_mc", "solve_species",
               "species_graph", "spell_out", "validate_params", "validate_solution",
               "wolf_goat_cabbage"),
    "strategies": ("Strategy", "applicability", "build_strategy"),
    "transfer": ("TransferOutcome", "format_polynomial", "solve_by_transfer"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # Only names missing from the package's namespace reach here: a submodule not yet
    # imported (importing binds it here), or an export.  An export is not cached, so
    # each read sees its module's current binding.
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_MODULE_OF, *_EXPORTS])
