"""The test run's own configuration, and the package run as a program with warnings
as errors, which in-process tests cannot show: pytest's filters leave ``ResourceWarning``
alone, and a warning raised while an entry point starts comes before any test."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from ctxlab import FIXTURE_NAMES

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "ctxlab" / "data"

FAILING_THEN_PASSING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, derandomize=True, database=None)
@given(st.integers())
def test_a_failing_property(n):
    assert n != 0


def test_the_next_test():
    print("the next test ran")
'''


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    # Reporting a falsified @given imports libcst, whose deprecation warning the project's
    # error::DeprecationWarning filter would raise inside pytest itself (INTERNALERROR).
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "the next test ran" in run.stdout
    assert "1 failed, 1 passed" in run.stdout


def _strict_python(args: list[str], src: Path, cwd: Path) -> subprocess.CompletedProcess:
    """``python -X dev -W error`` with ``args``, importing ctxlab from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", *args],
        capture_output=True, text=True, timeout=120, cwd=cwd, env=env,
    )


def test_the_cli_runs_its_commands_with_warnings_as_errors(tmp_path):
    # an operator element beside a row, with eigenvalues 1 and -0.5, runs the factor code
    unbounded = tmp_path / "unbounded.json"
    matrix = [[[0.25, 0.0], [0.75, 0.0]], [[0.75, 0.0], [0.25, 0.0]]]
    povm = [{"label": "op", "matrix": matrix}, {"label": "row", "vector": [[1.0, 0.0], [0.0, 0.0]]}]
    unbounded.write_text(json.dumps({"version": 1, "system_dim": 2, "povm": povm}))
    commands = [
        ["povm", "check", str(DATA / "three-path-DA.json")],
        ["context-graph", "--dot", str(DATA / "hardy.json")],
        ["inequality", str(DATA / "hardy.json")],
        ["max-violation", "--json", str(DATA / "hardy.json")],
        ["dilate", str(DATA / "three-path-VH.json"), "-o", str(tmp_path / "dilated.json")],
        ["scenario", "run", "three-path", "--merge-a"],
        ["scenario", "run", "three-path", "--merge-a", "--phi-init", "H"],
        ["povm", "check", "--json", str(unbounded)],
        ["context-graph", "--json", str(unbounded)],
    ]
    for command in commands:
        run = _strict_python(["-m", "ctxlab", *command], ROOT / "src", tmp_path)
        assert (run.returncode, run.stderr) == (0, ""), command
        assert run.stdout, command


def test_write_fixtures_regenerates_the_packaged_files_with_warnings_as_errors(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.json"))
    code = "from ctxlab import write_fixtures\nfor path in write_fixtures():\n    print(path.name)"
    run = _strict_python(["-c", code], src, tmp_path)
    assert (run.returncode, run.stderr) == (0, "")
    names = [f"{name}.json" for name in FIXTURE_NAMES]
    assert run.stdout.split() == names
    for name in names:
        assert (src / "ctxlab" / "data" / name).read_bytes() == (DATA / name).read_bytes(), name
