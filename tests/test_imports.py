"""Package layout: modules use only each other's public names."""

import ast
from pathlib import Path

import pspinlab

PACKAGE = Path(pspinlab.__file__).parent


def private_imports(path: Path) -> list:
    """(module, name) for every underscore name imported from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").split(".")[0] == "pspinlab"
        if sibling:
            found += [(node.module, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_no_private_imports_across_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    offenders = {p.name: private_imports(p) for p in modules}
    assert {name: hits for name, hits in offenders.items() if hits} == {}
