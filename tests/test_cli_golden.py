"""Golden CLI transcripts: exit code, stdout, stderr and written files.

Every subcommand and output flag runs on the three bundled fixtures, and
``scenario run`` on every basis, phi-init and merge combination, each with the
default tolerance and with ``--tol 1e-3``. Float tokens compare within 1e-12
absolute, two zeros only when their signs match, and all other text exactly.
Paths are written as ``@<fixture>`` and ``@out`` in the stored argv and as
``<fixture-dir>`` and ``<out>`` in the stored text.

Regenerate ``tests/data/cli_golden.json`` only when the output is meant to
change::

    PYTHONPATH=src python tests/test_cli_golden.py

which prints the argv of every case whose new transcript fails the comparison
against the stored one, or has none stored, and rewrites only those cases.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

import pytest

from ctxlab import FIXTURE_NAMES, fixture_path
from ctxlab.cli import main
from helpers import NUMBER

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
FLOAT_ABS = 1e-12
_TOLS = ((), ("--tol", "1e-3"), ("--tol", "1e-17"))


def golden_argvs() -> list[list[str]]:
    per_file = (
        ("povm", "check", "{f}"),
        ("povm", "check", "{f}", "--json"),
        ("povm", "check", "{f}", "--strict"),
        ("povm", "check", "{f}", "--strict", "--json"),
        ("dilate", "{f}", "-o", "@out"),
        ("context-graph", "{f}"),
        ("context-graph", "{f}", "--dot"),
        ("context-graph", "{f}", "--json"),
        ("inequality", "{f}"),
        ("inequality", "{f}", "--json"),
        ("inequality", "{f}", "--state", "hardy"),
        ("max-violation", "{f}"),
        ("max-violation", "{f}", "--json"),
    )
    argvs = [
        [arg.format(f=f"@{name}") for arg in template]
        for name in FIXTURE_NAMES
        for template in per_file
    ]
    for basis, phi, merge in itertools.product(("VH", "DA"), "DAHV", (False, True)):
        argv = ["scenario", "run", "three-path", "--basis", basis, "--phi-init", phi]
        argvs.append(argv + ["--merge-a"] if merge else argv)
    return [argv + list(tol) for argv in argvs for tol in _TOLS]


def run_case(argv: list[str], out_dir: Path) -> dict:
    """Run one argv in-process and return its transcript with paths normalised."""
    out_path = out_dir / "dilated.json"
    out_path.unlink(missing_ok=True)
    names = {f"@{name}": str(fixture_path(name)) for name in FIXTURE_NAMES}
    names["@out"] = str(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([names.get(arg, arg) for arg in argv])
    fixture_dir = str(fixture_path(FIXTURE_NAMES[0]).parent)

    def normalise(text: str) -> str:
        return text.replace(str(out_path), "<out>").replace(fixture_dir, "<fixture-dir>")

    case = {
        "argv": argv,
        "exit": code,
        "stdout": normalise(stdout.getvalue()),
        "stderr": normalise(stderr.getvalue()),
    }
    if out_path.exists():
        case["file"] = out_path.read_text(encoding="utf-8")
    return case


def _split(text: str) -> tuple[list[str], list[float]]:
    return NUMBER.split(text), [float(token) for token in NUMBER.findall(text)]


def assert_text_matches(got: str, want: str, what: str) -> None:
    got_text, got_numbers = _split(got)
    want_text, want_numbers = _split(want)
    assert got_text == want_text, f"{what} text differs:\n{got}\n--- expected ---\n{want}"
    for a, b in zip(got_numbers, want_numbers):
        if a == b == 0.0:  # -0 is not 0
            same = math.copysign(1.0, a) == math.copysign(1.0, b)
        else:
            same = a == b or abs(a - b) <= FLOAT_ABS
        assert same, f"{what}: {a!r} differs from {b!r} by more than {FLOAT_ABS}"


def assert_case_matches(got: dict, expected: dict) -> None:
    assert got["exit"] == expected["exit"]
    for key in ("stdout", "stderr", "file"):
        assert (key in got) == (key in expected), key
        if key in expected:
            assert_text_matches(got[key], expected[key], key)


@functools.cache
def _golden() -> dict[tuple[str, ...], dict]:
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {tuple(case["argv"]): case for case in cases}


def test_golden_set_covers_every_case():
    assert list(_golden()) == [tuple(argv) for argv in golden_argvs()]


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_cli_matches_golden_transcript(argv, tmp_path):
    assert_case_matches(run_case(argv, tmp_path), _golden()[tuple(argv)])


def test_float_tokens_compare_within_the_tolerance_only():
    assert_text_matches("x=0.5 y=1e-13", "x=0.5 y=0", "text")
    with pytest.raises(AssertionError):
        assert_text_matches("x=0.5", "x=0.50001", "text")
    with pytest.raises(AssertionError):
        assert_text_matches("A -- D1", "D1 -- A", "text")
    assert_text_matches("x=-0.0 y=0", "x=-0.0 y=0", "text")
    with pytest.raises(AssertionError, match="-0.0 differs from 0.0"):
        assert_text_matches("residual: -0", "residual: 0", "text")
    with pytest.raises(AssertionError, match="0.0 differs from -0.0"):
        assert_text_matches("residual: 0.0", "residual: -0.0", "text")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        cases = [run_case(argv, Path(scratch)) for argv in golden_argvs()]
    stored = _golden() if GOLDEN.exists() else {}
    for k, case in enumerate(cases):
        try:
            assert_case_matches(case, stored[tuple(case["argv"])])
            cases[k] = stored[tuple(case["argv"])]  # still matches, so kept as stored
        except (AssertionError, KeyError):
            print("changed:", " ".join(case["argv"]))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(cases)} cases)")
