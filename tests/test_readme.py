"""The README's Python examples run against the installed signatures."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_the_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(block, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the examples may write files
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
