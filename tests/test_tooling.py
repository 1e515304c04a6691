"""The test run's own configuration."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

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
