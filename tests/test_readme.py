"""The README's Python examples run against the installed signatures, and its
CLI transcript is what the command prints."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from ctxlab import fixture_path
from ctxlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
# the plain block that follows the `ctxlab inequality` command block
INEQUALITY = re.search(r"^ctxlab inequality \S+\n```\n\n```\n(.*?)^```", TEXT, re.M | re.S)
# the plain block that follows the `ctxlab context-graph --json` command block
GRAPH_JSON = re.search(
    r"^ctxlab context-graph --json \S+\n```\n\n```\n(.*?)^```", TEXT, re.M | re.S
)


def test_the_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(block, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the examples may write files
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_the_inequality_transcript_is_what_the_command_prints(capsys):
    assert INEQUALITY is not None
    assert main(["inequality", str(fixture_path("hardy"))]) == 0
    assert capsys.readouterr().out == INEQUALITY.group(1)


def test_the_context_graph_json_transcript_is_what_the_command_prints(capsys):
    assert GRAPH_JSON is not None
    assert main(["context-graph", "--json", str(fixture_path("three-path-DA"))]) == 0
    assert capsys.readouterr().out == GRAPH_JSON.group(1)
