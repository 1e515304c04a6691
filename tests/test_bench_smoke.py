"""Smallest run of the benchmark: every op of paper-fixtures passes its reference check."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_paper_fixtures_benchmark_is_correct():
    argv = ["--workload", "paper-fixtures", "--seed", "1", "--seconds", "1", "--trace", "0"]
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
