"""Smallest runs of the benchmark: every op passes its plain-numpy reference check."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _assert_benchmark_is_correct(workload: str) -> None:
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    result = subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] > 0


def test_paper_fixtures_benchmark_is_correct():
    _assert_benchmark_is_correct("paper-fixtures")


def test_grown_context_benchmark_is_correct():
    """The context graphs at M = 64 and 128 match the plain-numpy edge sets."""
    _assert_benchmark_is_correct("grown-context")


def test_dilation_roundtrip_benchmark_is_correct():
    """Every file `dilate` writes is checked against a plain-numpy round trip."""
    _assert_benchmark_is_correct("dilation-roundtrip")
