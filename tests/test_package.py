"""Static checks over the package sources."""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

import pytest

from test_readme import BLOCKS as README_BLOCKS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ctxlab"
SOURCES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
BENCH = sorted(ROOT.glob("bench/*.py"))


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


@pytest.mark.parametrize("path", SOURCES + TESTS + BENCH, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _read_names(tree: ast.AST) -> set[str]:
    """Every identifier a tree reads as a name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _definitions(tree: ast.Module) -> Iterator[tuple[str, str]]:
    """``(qualified name, identifier)`` of each module-level function and class and of
    each method of a module-level class, the qualified name ``Class.method``."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for definition in (node, *members):
            if isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                owner = "" if definition is node else f"{node.name}."
                yield owner + definition.name, definition.name


def unreferenced_private_names(sources: list[str]) -> list[str]:
    """Private module-level functions and classes, and private methods of module-level
    classes, whose name no module of ``sources`` reads as a name or an attribute."""
    trees = [ast.parse(source) for source in sources]
    referenced = set().union(*map(_read_names, trees))
    return [
        name
        for tree in trees
        for _, name in _definitions(tree)
        if _is_private(name) and name not in referenced
    ]


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


def unreached_public_names(package: list[str], outside: list[str]) -> list[str]:
    """Public module-level functions and classes of ``package``, and public methods of its
    module-level classes (as ``Class.method``), whose identifier no source of
    ``package`` or ``outside`` reads as a name or an attribute.

    It matches by identifier alone: a definition counts as reached when anything of the
    same name is read, so a name shared with a reached one (``np.linalg.eigh``,
    ``JointOutcomeSet.orthonormality_residual``) is never reported.
    """
    trees = [ast.parse(source) for source in package]
    reached = set().union(*map(_read_names, trees + [ast.parse(s) for s in outside]))
    return [
        qualified
        for tree in trees
        for qualified, name in _definitions(tree)
        if not name.startswith("_") and name not in reached
    ]


# The library API that only its own tests reach, each with why it stays.
KEPT_PUBLIC = {
    "context_switch_povm": "the paper's environment-conditioned measurement",
    "encode_matrix": "the pair of decode_matrix, which the reader uses",
    "fixture_dict": "a bundled fixture regenerated without file access, to cross-check it",
}


def test_the_scan_finds_an_unreached_public_name():
    package = (
        "def used():\n    pass\n\ndef left():\n    pass\n\n"
        "class Kept:\n    def read(self):\n        pass\n\n"
        "    def unread(self):\n        pass\n\n"
        "    def _private(self):\n        pass\n\nused()\n"
    )
    outside = "from pkg import Kept\nKept().read()\n"
    assert unreached_public_names([package], [outside]) == ["left", "Kept.unread"]


def test_every_public_name_is_reached_outside_the_unit_tests():
    """Reached means read by the package, the benchmark, the acceptance gate or the
    README's Python examples; what only unit tests read is kept or deleted."""
    package = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    outside = [path.read_text(encoding="utf-8") for path in BENCH]
    outside += [(ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")]
    outside += README_BLOCKS
    unreached = unreached_public_names(package, outside)
    unlisted = [name for name in unreached if name not in KEPT_PUBLIC]
    assert not unlisted, f"public names that only unit tests read: {unlisted}"
    stale = [name for name in KEPT_PUBLIC if name not in unreached]
    assert not stale, f"kept names that are now reached, to unlist: {stale}"


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


def collector_switches(source: str) -> list[int]:
    """The lines where a module reaches ``gc.disable``, as an attribute of ``gc`` or
    imported from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "disable":
            if isinstance(node.value, ast.Name) and node.value.id == "gc":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            if any(alias.name == "disable" for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_finds_each_way_to_switch_the_collector_off():
    source = "import gc\nfrom gc import disable as off\ngc.disable()\ngc.enable()\nlog.disable()\n"
    assert collector_switches(source) == [2, 3]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_only_the_scenario_reader_switches_the_collector_off(path):
    """The switch is process-wide, so it is kept to the one place that restores it."""
    switches = collector_switches(path.read_text(encoding="utf-8"))
    assert len(switches) == (path.name == "scenario_io.py")
