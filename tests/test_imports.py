"""Package modules share only public names with each other."""

import ast
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
