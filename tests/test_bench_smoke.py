"""Smallest runs of the benchmark: every op passes its plain-numpy reference check.

Each run works in a private copy of ``bench/`` and ``src/``, so its
``.bench_work/`` is its own and a benchmark running from this checkout keeps
its input files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _assert_benchmark_is_correct(workload: str, tmp_path: Path) -> None:
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    result = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] > 0


def test_paper_fixtures_benchmark_is_correct(tmp_path):
    _assert_benchmark_is_correct("paper-fixtures", tmp_path)


def test_grown_context_benchmark_is_correct(tmp_path):
    """The context graphs at M = 64 and 128 match the plain-numpy edge sets."""
    _assert_benchmark_is_correct("grown-context", tmp_path)


def test_dilation_roundtrip_benchmark_is_correct(tmp_path):
    """Every file `dilate` writes is checked against a plain-numpy round trip."""
    _assert_benchmark_is_correct("dilation-roundtrip", tmp_path)
