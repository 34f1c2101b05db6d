"""Every name a module of the package imports is used in that module, and
none is a private (``_``-prefixed) name of another module of the package.

A name counts as used when the module reads it or a string annotation names
it. The package's ``__init__`` imports to re-export, so only the second
check covers it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cellgauge"

# (module, name) pairs imported for another module's sake.
KEPT = {
    # The benchmark's tracer wraps classify_cells under this name.
    ("cli", "classify_cells"),
}


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns is not None:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))  # type: ignore[arg-type]
    return used


@pytest.mark.parametrize(
    "path", sorted(path for path in PACKAGE.glob("*.py") if path.stem != "__init__"), ids=lambda path: path.stem
)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = imported_names(tree) - used_names(tree) - {name for module, name in KEPT if module == path.stem}
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


def test_a_name_in_a_string_annotation_is_used():
    tree = ast.parse('from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from x import G\ndef f(g: "G"): pass')
    assert imported_names(tree) - used_names(tree) == set()
    tree = ast.parse('import os.path\nfrom x import G as H\nfrom y import J\ndef f(h: "list[H]") -> "J": pass')
    assert imported_names(tree) == {"os", "H", "J"}
    assert imported_names(tree) - used_names(tree) == {"os"}


def private_imports(tree: ast.Module) -> set[str]:
    """The ``_``-prefixed names a module imports from another module of the package."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").partition(".")[0] == PACKAGE.name)
        for alias in node.names
        if alias.name.startswith("_")
    }


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_module_imports_no_private_name_of_the_package(path):
    private = private_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not private, f"{path.name} imports private names of the package: {sorted(private)}"


def test_a_private_name_from_the_package_is_found():
    tree = ast.parse(
        "from .interchange import _parse_defined_target, parse_cell_ref\n"
        "from cellgauge.graph import _sweep\nfrom os import _exit\nfrom __future__ import annotations"
    )
    assert private_imports(tree) == {"_parse_defined_target", "_sweep"}
