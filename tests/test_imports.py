"""Package modules share only public names with each other, and each command imports
only what it runs.

The cold-import checks run each command line in a fresh interpreter, so they
also run without pytest (exit status 1 on a fault):

    PYTHONPATH=src python tests/test_imports.py
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "rivercross"


def private_imports(path: Path) -> list[str]:
    """Underscore names that `path` imports from another rivercross module (dunders excepted)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "rivercross":
            continue
        for alias in node.names:
            dunder = alias.name.startswith("__") and alias.name.endswith("__")
            if alias.name.startswith("_") and not dunder:
                found.append(f"{'.' * node.level}{node.module or ''}.{alias.name}")
    return found


def test_no_module_imports_a_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {path.name: private_imports(path) for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


def functions_that(touches) -> set[str]:
    """Qualified names of the package functions with a node for which `touches(node)` holds."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
            else:
                if touches(child):
                    found.add(scope)
                visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def test_one_function_reads_the_bank_rule_and_one_compiles():
    """The rule tables are the only reader of `bank_rule`, and `state_graph` the only compiler."""
    def reads_bank_rule(node):
        return isinstance(node, ast.Attribute) and node.attr == "bank_rule"

    def calls_species_graph(node):
        callee = getattr(node, "func", None)
        return isinstance(node, ast.Call) and "species_graph" in (
            getattr(callee, "id", None), getattr(callee, "attr", None))

    assert functions_that(reads_bank_rule) == {"_rule_tables"}
    assert functions_that(calls_species_graph) == {"SpeciesPuzzle.state_graph"}


def test_one_function_reads_the_size_limits():
    """`validate_params` is the only reader of a size limit (`MAX_STATE_BOX`, `MAX_CROSSINGS`)."""
    def reads_a_limit(node):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
        return name.startswith("MAX_") and isinstance(getattr(node, "ctx", None), ast.Load)

    assert functions_that(reads_a_limit) == {"validate_params"}


# What the test oracles may take from the package: data types and type aliases.
ORACLE_MODULE = Path(__file__).parent / "reference.py"
DATA_TYPES = {"SpeciesPuzzle", "McParams", "Digraph", "Polynomial"}


def package_imports(path: Path) -> list[str]:
    """Every name `path` imports from rivercross, with plain module imports as `import <module>`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [f"import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] == "rivercross"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rivercross":
            found += [alias.name for alias in node.names]
    return found


def test_oracles_import_only_data_types():
    names = package_imports(ORACLE_MODULE)
    assert names
    assert sorted(set(names) - DATA_TYPES) == []


def imports_of_test_modules(path: Path) -> list[str]:
    """Each `import test_…` or `from test_… import` in `path`, as `<file>:<line> <module>`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {module}" for module in modules
                  if module.split(".")[0].startswith("test_")]
    return found


def test_no_test_module_imports_another():
    """Shared fixtures live in `classic.py` and `reference.py`, so running one test file
    loads no other; the harness scripts are held to the same rule."""
    scripts = sorted(Path(__file__).parent.glob("*.py"))
    assert len(scripts) > 1
    assert [hit for path in scripts for hit in imports_of_test_modules(path)] == []


# Modules that a command loads only when it runs them; a name covers its submodules.
DEFERRED = ("dataclasses", "inspect", "fractions", "json",
            "rivercross.families", "rivercross.transfer")

# Each command line, run as `python -m rivercross.cli`, and the DEFERRED modules it may load.
COLD_COMMANDS = [
    ("solve 3 3 2 0", ()),
    ("spell 3 3 2 0", ()),
    ("strategy 7 7 4 0 --name ZeroMarginEqualBigBoat", ()),
    ("count 3 3 2 0 --method graph", ()),
    ("--help", ()),
    ("count 3 3 2 0", ("rivercross.transfer",)),
    ("solve 3 3 2 0 --format json", ("json",)),
    ("solve 3 3 2 0 --all", ()),  # its JSON writer is built but never started
    ("solve 3 3 2 0 --all --format json", ("json",)),
    ("trace 3 3 2 0", ("rivercross.transfer",)),
    ("trace 3 3 2 0 --format json", ("json", "rivercross.transfer")),
    ("sequence 5 3 1 8", ("rivercross.families", "fractions", "rivercross.transfer")),
    ("conjecture 5 3 1 12", ("rivercross.families", "fractions", "rivercross.transfer")),
]

EXPORTS = [
    "BankState", "ConjectureReport", "Digraph", "FamilySpec", "LinearRecurrence", "McParams",
    "Move", "ParamError", "PathCount", "RationalGF", "SpeciesPuzzle", "Strategy",
    "TransferOutcome", "Violation", "applicability", "build_strategy", "conjecture_report",
    "count_shortest_paths", "family_counts", "fit_linear_recurrence", "format_polynomial",
    "mc_graph", "mc_species", "path_to_moves", "rational_gf", "series_coefficients",
    "shortest_distance", "shortest_paths", "solve_by_transfer", "solve_mc", "solve_species",
    "species_graph", "spell_out", "unrank_shortest_path", "validate_params",
    "validate_solution", "wolf_goat_cabbage",
]
SUBMODULES = ["digraph", "families", "puzzle", "strategies", "transfer"]

# Runs the CLI as `-m` does and prints the loaded modules as the last stdout line.
_RUN_CLI = """import runpy, sys
try:
    runpy.run_module("rivercross.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(sorted(sys.modules))
"""

# Imports the bare package and prints what it got wrong, one fault a line.
_CHECK_EXPORTS = """import sys
import rivercross
if any(name.startswith("rivercross.") for name in sys.modules):
    print("import rivercross loaded a submodule")
if getattr(rivercross, "__all__", None) != sys.argv[1].split():
    print("__all__ is not the exports")
for name in sys.argv[1].split() + sys.argv[2].split():
    if name not in dir(rivercross):
        print(name, "missing from dir()")
    try:
        getattr(rivercross, name)
    except AttributeError:
        print(name, "does not resolve")
try:
    rivercross.no_such_name
    print("an unknown name resolves")
except AttributeError:
    pass
"""


def _child(*argv: str) -> str:
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=60)
    if done.returncode:
        raise RuntimeError(f"child exited {done.returncode}: {done.stderr}")
    return done.stdout


def _within(module: str, names) -> bool:
    return any(module == name or module.startswith(name + ".") for name in names)


def cold_import_faults() -> list[str]:
    """Each command line that loads a DEFERRED module it does not run, and each fault of the
    package's lazy exports; empty when the contract holds."""
    bare = set(ast.literal_eval(_child("-c", "import sys; print(sorted(sys.modules))")))
    faults = []
    for command, allowed in COLD_COMMANDS:
        loaded = set(ast.literal_eval(_child("-c", _RUN_CLI, *command.split()).splitlines()[-1]))
        extra = sorted(m for m in loaded - bare if _within(m, DEFERRED) and not _within(m, allowed))
        if extra:
            faults.append(f"{command}: loads {extra}")
    faults += _child("-c", _CHECK_EXPORTS, " ".join(EXPORTS), " ".join(SUBMODULES)).splitlines()
    return faults


def test_each_command_imports_only_what_it_runs():
    assert cold_import_faults() == []


if __name__ == "__main__":
    found = cold_import_faults()
    print(f"{len(COLD_COMMANDS)} command lines and the package exports, "
          f"{len(found)} faults", *found, sep="\n")
    sys.exit(1 if found else 0)
