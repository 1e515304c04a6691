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
    same name is read, so a name shared with a reached one (``np.linalg.eigh``, or a
    method named like a module function the package calls) is never reported.
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
KEPT_PUBLIC: dict[str, str] = {}


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


def selector_switches(module: str, source: str) -> list[str]:
    """``module.function(parameter)``, or ``module.Class.method(parameter)``, of each
    parameter whose default is ``True``, ``False`` or a string in a public module-level
    function or a public method (``__init__`` too) of a public module-level class."""
    switches = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _is_private(node.name):
            continue
        for definition in node.body if isinstance(node, ast.ClassDef) else [node]:
            if not isinstance(definition, ast.FunctionDef) or _is_private(definition.name):
                continue
            args = definition.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults) :], args.defaults))
            pairs += zip(args.kwonlyargs, args.kw_defaults)
            owner = "" if definition is node else f"{node.name}."
            switches += [
                f"{module}.{owner}{definition.name}({arg.arg})"
                for arg, default in pairs
                if isinstance(default, ast.Constant) and isinstance(default.value, (bool, str))
            ]
    return switches


def test_the_scan_finds_each_selector_switch():
    source = (
        "def f(a, flag=True, n=0, name=None, *, strict=False, k):\n    pass\n\n"
        "def pick(where='F', data=b'x'):\n    pass\n\n"
        "def _hidden(quiet=False):\n    pass\n\n"
        "class Thing:\n    def __init__(self, x, validate=True):\n        pass\n\n"
        "    def _skip(self, y=False):\n        pass\n\n"
        "class _Private:\n    def run(self, z=True):\n        pass\n"
    )
    expected = ["mod.f(flag)", "mod.f(strict)", "mod.pick(where)", "mod.Thing.__init__(validate)"]
    assert selector_switches("mod", source) == expected


def test_the_library_has_no_selector_switch():
    """A switch that picks among fixed values repeats an argument that already says the
    same thing (``tol``, or the state a name stood for); a new one is listed on purpose."""
    found = [
        switch
        for path in SOURCES
        for switch in selector_switches(path.stem, path.read_text(encoding="utf-8"))
    ]
    assert found == []


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


def stderr_uses_outside_main(source: str) -> list[int]:
    """The lines where a module reaches ``sys.stderr``, as an attribute of ``sys`` or
    imported from it, outside its module-level function ``main``."""
    lines = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == "main":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "stderr":
                if isinstance(node.value, ast.Name) and node.value.id == "sys":
                    lines.append(node.lineno)
            elif isinstance(node, ast.ImportFrom) and node.module == "sys":
                if any(alias.name == "stderr" for alias in node.names):
                    lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_finds_each_stderr_use_outside_main():
    source = (
        "import sys\nfrom sys import stderr as err\n"
        "def main():\n    def inner():\n        sys.stderr.write('a')\n"
        "    print('b', file=sys.stderr)\n\n"
        "def _handler():\n    print('c', file=sys.stderr)\n\n"
        "class Report:\n    def show(self):\n        sys.stderr.write('d')\n\n"
        "sys.stdout.flush()\nsys.stderr.flush()\n"
    )
    assert stderr_uses_outside_main(source) == [2, 9, 13, 16]


def test_only_main_writes_to_stderr_in_the_command_line():
    """Handlers raise every failure, so ``main`` alone prints it and picks the exit code."""
    assert stderr_uses_outside_main((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_only_the_command_line_formats_numbers_for_output(path):
    """Text output's 12 significant digits are set in the one module that renders it."""
    assert (".12g" in path.read_text(encoding="utf-8")) == (path.name == "cli.py")


_VALUE_METHODS = ("__eq__", "__setattr__", "__delattr__")


def value_methods(source: str) -> list[str]:
    """``Class.name`` of each ``__eq__``, ``__setattr__`` or ``__delattr__`` that a class
    of ``source``, nested ones too, defines or assigns in its body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for member in node.body if isinstance(node, ast.ClassDef) else []:
            if isinstance(member, ast.FunctionDef):
                names = [member.name]
            else:
                names = [t.id for t in getattr(member, "targets", []) if isinstance(t, ast.Name)]
            found += [f"{node.name}.{name}" for name in names if name in _VALUE_METHODS]
    return found


def test_the_scan_finds_each_hand_written_equality_and_freezing_method():
    source = (
        "class A:\n    def __eq__(self, other):\n        return True\n\n"
        "    def __repr__(self):\n        return 'A'\n\n"
        "    __hash__ = None\n\n"
        "def make():\n    class B:\n        def __setattr__(self, name, value):\n            pass\n\n"
        "        __delattr__ = object.__delattr__\n    return B\n"
    )
    assert value_methods(source) == ["A.__eq__", "B.__setattr__", "B.__delattr__"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_only_by_value_defines_equality_and_no_class_freezes_itself_by_hand(path):
    """Every value type compares by the one rule, ``hilbert.ByValue.__eq__``, and is
    frozen by ``dataclass(frozen=True)``."""
    expected = ["ByValue.__eq__"] if path.name == "hilbert.py" else []
    assert value_methods(path.read_text(encoding="utf-8")) == expected


def new_calls(source: str) -> list[int]:
    """The line of each call of a ``__new__`` attribute, which builds an instance without
    running its class's ``__init__``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
    )


def test_the_scan_finds_each_instance_built_through_new():
    source = (
        "class A:\n    @classmethod\n    def of(cls):\n        return cls.__new__(cls)\n\n"
        "b = object.__new__(A)\nc = A.__new__\n"
    )
    assert new_calls(source) == [4, 6]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_source_builds_an_instance_through_new(path):
    """Each type has one constructor, its ``__init__``, so every instance is checked by it."""
    assert new_calls(path.read_text(encoding="utf-8")) == []


def raised_invariants(source: str) -> list[str]:
    """Each invariant name a module raises, sorted: every string given as ``invariant=``."""
    return sorted({
        keyword.value.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg == "invariant"
        and isinstance(keyword.value, ast.Constant)
        and isinstance(keyword.value.value, str)
    })


def string_constants(sources: list[str]) -> set[str]:
    """Every string constant of ``sources``."""
    return {
        node.value
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def unnamed_invariants(invariants: list[str], sources: list[str]) -> list[str]:
    """The invariants that no string constant of ``sources`` names, as the whole string or
    as ``[name]``, the form of the command line's message."""
    strings = string_constants(sources)
    return [
        name
        for name in invariants
        if name not in strings and not any(f"[{name}]" in text for text in strings)
    ]


def test_the_scan_finds_each_raised_invariant_and_each_unnamed_one():
    package = (
        "def f(x):\n    if x:\n        raise Error('no', invariant='sign')\n"
        "    check(x, 'rows are', invariant='rows')\n"
        "    raise Error('bad', invariant=f'{x}')\n    check(x, 'x is', 'other')\n"
    )
    tests = "assert err.invariant == 'rows'\nassert 'exit 3: invariant violation [sign]'\n"
    assert raised_invariants(package) == ["rows", "sign"]
    assert unnamed_invariants(["rows", "sign", "gone"], [tests]) == ["gone"]


def test_some_other_test_names_every_invariant_the_package_raises():
    raised = sorted({
        name for path in SOURCES for name in raised_invariants(path.read_text(encoding="utf-8"))
    })
    others = [path.read_text(encoding="utf-8") for path in TESTS if path.name != "test_package.py"]
    assert unnamed_invariants(raised, others) == []


def non_finite_messages(source: str) -> list[str]:
    """Each message of the non-finite rule a module raises, sorted: ``"<what> not finite"``
    for every string constant given to ``finite``."""
    return sorted({
        f"{node.args[0].value} not finite"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "finite"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    })


def unnamed_messages(messages: list[str], sources: list[str]) -> list[str]:
    """The messages that no string constant of ``sources`` contains."""
    strings = string_constants(sources)
    return [text for text in messages if not any(text in string for string in strings)]


def test_the_scan_finds_each_non_finite_message_and_each_unnamed_one():
    package = (
        "@finite('the sum is')\ndef f(x):\n    return x\n\n"
        "g = finite('a weight is')(f)\nh = np.isfinite('x')\nk = finite(name)\n"
    )
    tests = "assert err == 'numerical failure: the sum is not finite\\n'\n"
    assert non_finite_messages(package) == ["a weight is not finite", "the sum is not finite"]
    assert unnamed_messages(non_finite_messages(package), [tests]) == ["a weight is not finite"]


def test_some_other_test_names_every_non_finite_message_the_package_raises():
    raised = sorted({
        text for path in SOURCES for text in non_finite_messages(path.read_text(encoding="utf-8"))
    })
    others = [path.read_text(encoding="utf-8") for path in TESTS if path.name != "test_package.py"]
    assert unnamed_messages(raised, others) == []


def invariants_by_message(sources: list[str]) -> dict[str, list[str]]:
    """Each message ``ValidationError`` is called with as a string or f-string constant, in
    its source form, with the invariant names it is raised under, sorted; a message passed
    through a variable is left out."""
    found: dict[str, set[str]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "ValidationError"
                and node.args
                and isinstance(node.args[0], (ast.Constant, ast.JoinedStr))
            ):
                continue
            names = [ast.unparse(k.value) for k in node.keywords if k.arg == "invariant"]
            found.setdefault(ast.unparse(node.args[0]), set()).update(names)
    return {message: sorted(names) for message, names in found.items()}


def test_the_scan_finds_each_message_raised_under_two_invariant_names():
    first = (
        "raise ValidationError(f'element {label!r} is odd', invariant='parity')\n"
        "raise ValidationError('no rows', invariant='nonempty')\n"
        "raise ValidationError(problem, invariant='rows')\n"
    )
    second = (
        "raise ValidationError(f'element {label!r} is odd', invariant='odd-elements')\n"
        "raise ValidationError('no rows', invariant='nonempty')\n"
        "raise ValidationError(problem, invariant='columns')\n"
    )
    assert invariants_by_message([first, second]) == {
        "f'element {label!r} is odd'": ["'odd-elements'", "'parity'"],
        "'no rows'": ["'nonempty'"],
    }


def test_each_message_is_raised_under_one_invariant_name():
    """A refusal reads the same, and is told apart the same, wherever the package raises it."""
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    found = invariants_by_message(sources)
    assert {message: names for message, names in found.items() if len(names) != 1} == {}
