"""Static checks over the package sources."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ctxlab"
SOURCES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module binds by import and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "from os import path, sep\nimport numpy as np\nprint(sep, np.pi)\n"
    assert unused_imports(source) == ["path"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unreferenced_private_names(sources: list[str]) -> list[str]:
    """Private module-level functions and classes, and private methods of module-level
    classes, whose name no module of ``sources`` reads as a name or an attribute."""
    trees = [ast.parse(source) for source in sources]
    referenced = set()
    defined = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for definition in (node, *members):
                if isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                    defined.append(definition.name)
    return [name for name in defined if _is_private(name) and name not in referenced]


def test_the_scan_finds_an_unreferenced_private_helper():
    first = "def _used():\n    pass\n\ndef _left():\n    pass\n\nclass _Kept:\n    pass\n"
    second = (
        "class Public:\n    def _called(self):\n        pass\n\n"
        "    def _stale(self):\n        pass\n\n"
        "    def __eq__(self, other):\n        return self._called()\n\n"
        "_used()\nx = _Kept\n"
    )
    assert unreferenced_private_names([first, second]) == ["_left", "_stale"]


def test_every_private_helper_is_referenced_in_the_package():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_private_names(sources) == []


def private_imports(source: str) -> list[str]:
    """Private names a module imports from another module of the package."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "ctxlab")
        for alias in node.names
        if _is_private(alias.name)
    ]


def test_the_scan_finds_a_cross_module_private_import():
    source = (
        "from __future__ import annotations\nfrom os import _exit\n"
        "from .povm import Povm, _probability\nfrom ctxlab.hilbert import _KINDS, gram\n"
    )
    assert private_imports(source) == ["_probability", "_KINDS"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_another(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
