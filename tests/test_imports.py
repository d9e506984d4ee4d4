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
