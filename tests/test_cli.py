"""Command behaviour, output formats, and exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxlab import (
    DEFAULT_TOL,
    FIXTURE_NAMES,
    Scenario,
    coarse_grain,
    context_graph,
    decode_vector,
    encode_vector,
    fixture_path,
    hardy_embedding_povm,
    load_scenario,
    naimark_dilate,
    povm_from_dilation,
    save_scenario,
    verify_constraints,
)
import ctxlab.povm as povm_module
from ctxlab.cli import build_parser, main
from helpers import (
    NUMBER,
    fixture_raw,
    laid_out,
    matrix_entry,
    phase_aligned_max_err,
    random_rank1_povm,
    random_unitary,
    switched,
    write_raw,
)

DA_FILE = str(fixture_path("three-path-DA"))
VH_FILE = str(fixture_path("three-path-VH"))
HARDY_FILE = str(fixture_path("hardy"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "ctxlab 0.1.0"


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_scenario_run_default(capsys):
    code, out, _ = run_cli(capsys, "scenario", "run", "three-path")
    assert code == 0
    assert "scenario three-path: basis=DA phi_init=D merge_A=no" in out
    assert "system_dim=3 env_dim=2 outcomes=6" in out
    assert "povm: 6 elements, system_dim=3" in out
    assert "completeness residual: " in out


def test_scenario_run_merged(capsys):
    code, out, _ = run_cli(capsys, "scenario", "run", "three-path", "--merge-a")
    assert code == 0
    assert "merge_A=yes" in out
    assert "povm: 4 elements" in out
    assert out.count("weight=0.666666666667") == 3
    assert "A: weight=1 " in out
    assert "context graph: 4 nodes, 3 edges" in out
    assert "gram (vector elements):" in out


def test_scenario_run_vh_with_h_start_skips_outcomes(capsys):
    code, out, _ = run_cli(
        capsys, "scenario", "run", "three-path", "--basis", "VH", "--phi-init", "V"
    )
    assert code == 0
    assert "skipped zero-weight outcomes: H1, H2, H3" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["scenario", "run", "two-path"], "unknown scenario", id="two-path"),
        pytest.param(
            ["scenario", "run", "three-path", "--basis", "VH", "--merge-a"],
            "--merge-a needs",
            id="VH-merge-a",
        ),
        *(
            pytest.param(
                ["povm", "check", DA_FILE, f"--tol={value}"], "--tol must be", id=f"={value}"
            )
            for value in ("0", "-1e-9", "-1", "nan", "inf")
        ),
        # argparse reads a separate "-1e-9" as an option and rejects it before main runs
        *(
            pytest.param(["povm", "check", DA_FILE, "--tol", value], "--tol must be", id=value)
            for value in ("0", "-1", "nan", "inf")
        ),
    ],
)
def test_each_usage_error_argparse_leaves_prints_one_input_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and err.endswith("\n") and err.count("\n") == 1
    assert message in err


def test_povm_check_on_bundled_files(capsys):
    for path in (DA_FILE, VH_FILE, HARDY_FILE):
        code, out, _ = run_cli(capsys, "povm", "check", path)
        assert code == 0
        assert "result: ok" in out


def test_povm_check_json(capsys):
    code, out, _ = run_cli(capsys, "povm", "check", DA_FILE, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["elements"] == 4
    assert report["system_dim"] == 3
    assert report["completeness_residual"] <= 1e-12
    assert report["tol"] == pytest.approx(DEFAULT_TOL)


def _bound_residual_outputs(capsys, path) -> tuple[str, float]:
    """The ``element bound residual`` line of ``povm check`` and its ``--json`` value."""
    code, out, _ = run_cli(capsys, "povm", "check", str(path))
    assert code == 0
    line = next(line for line in out.splitlines() if line.startswith("element bound"))
    code, out, _ = run_cli(capsys, "povm", "check", str(path), "--json")
    assert code == 0
    return line, json.loads(out)["element_bound_residual"]


@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_the_element_bound_residual_is_a_non_negative_magnitude(capsys, fixture):
    line, value = _bound_residual_outputs(capsys, fixture_path(fixture))
    assert value >= 0.0 and not np.signbit(value)
    assert line == f"element bound residual: {value:.12g}"
    if fixture != "three-path-DA":  # every element of these lies in [0, 1] exactly
        assert (line, value) == ("element bound residual: 0", 0.0)


def test_a_rank_one_povm_of_weights_below_one_has_a_positive_zero_bound_residual(
    capsys, tmp_path
):
    path = tmp_path / "random.json"
    save_scenario(path, Scenario(4, povm=random_rank1_povm(np.random.default_rng(11), 4, 9)))
    line, value = _bound_residual_outputs(capsys, path)
    assert line == "element bound residual: 0"
    assert value == 0.0 and not np.signbit(value)


def _incomplete_file(tmp_path):
    raw = {
        "version": 1,
        "system_dim": 2,
        "povm": [{"label": "only", "vector": encode_vector(np.array([0.5, 0.0]))}],
    }
    path = tmp_path / "incomplete.json"
    write_raw(path, raw)
    return str(path)


def test_povm_check_reports_failure_without_strict(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "povm", "check", _incomplete_file(tmp_path))
    assert code == 0
    assert "result: FAIL" in out


def test_povm_check_strict_exits_three(capsys, tmp_path):
    code, _, err = run_cli(capsys, "povm", "check", _incomplete_file(tmp_path), "--strict")
    assert code == 3
    assert "invariant violation [completeness]" in err


def test_povm_check_strict_names_element_bounds(capsys, tmp_path):
    # the elements sum exactly to the identity, but one has eigenvalue -0.5
    raw = {
        "version": 1,
        "system_dim": 2,
        "povm": [
            {"label": "over", "matrix": matrix_entry(np.diag([1.5, 0.0]))},
            {"label": "under", "matrix": matrix_entry(np.diag([-0.5, 1.0]))},
        ],
    }
    path = tmp_path / "unbounded.json"
    write_raw(path, raw)
    code, out, err = run_cli(capsys, "povm", "check", str(path), "--strict")
    assert code == 3
    # each entry is factored on reading, so the sum is exact only to round-off
    residual = float(out.split("completeness residual: ")[1].split()[0])
    assert residual <= 1e-15
    assert "invariant violation [element-bounds]" in err


def test_povm_check_strict_does_not_recompute_a_passing_report(capsys, tmp_path, monkeypatch):
    # the report weighs the elements once; a passing report runs no validate_povm after it
    p = load_scenario(VH_FILE).resolve_povm()
    for pair, label in ((("V1", "H1"), "VH1"), (("V2", "H2"), "VH2")):
        p = coarse_grain(p, pair, label)
    path = tmp_path / "two-operators.json"
    save_scenario(path, Scenario(3, povm=p))
    calls = []
    name = "element_bound_residual"
    bound = getattr(povm_module, name)
    monkeypatch.setattr(povm_module, name, lambda q: calls.append(1) or bound(q))
    code, out, _ = run_cli(capsys, "povm", "check", str(path), "--strict")
    assert code == 0
    assert out.endswith("result: ok (tol=1e-09)\n")
    assert calls == []


def test_undecodable_file_exits_two(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    code, _, err = run_cli(capsys, "povm", "check", str(path))
    assert code == 2
    assert "input error" in err


def test_malformed_json_exits_two(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{oops")
    code, _, err = run_cli(capsys, "povm", "check", str(path))
    assert code == 2
    assert "input error" in err


def test_invalid_outcome_set_exits_three(capsys, tmp_path):
    raw = fixture_raw("three-path-DA")
    raw["outcomes"][0]["vector"] = raw["outcomes"][1]["vector"]
    path = tmp_path / "skewed.json"
    write_raw(path, raw)
    code, _, err = run_cli(capsys, "povm", "check", str(path))
    assert code == 3
    assert "invariant violation [outcome-orthonormality]" in err


@pytest.mark.parametrize(
    "name, section, key, message",
    [
        ("hardy", "povm", "vectr", "povm 'R3': unknown keys ['vectr']"),
        ("three-path-DA", "outcomes", "matrix", "outcome 'A3': unknown keys ['matrix']"),
    ],
)
def test_an_unknown_key_in_an_entry_exits_two(capsys, tmp_path, name, section, key, message):
    """Every entry's keys are checked before any entry is decoded: the last entry's
    unknown key is named, not the malformed vector of the first."""
    raw = fixture_raw(name)
    first, last = raw[section][0], raw[section][-1]
    last[key] = matrix_entry(np.eye(3)) if key == "matrix" else last["vector"]
    first["vector"] = first["vector"][:1]
    path = tmp_path / "extra-key.json"
    write_raw(path, raw)
    assert run_cli(capsys, "povm", "check", str(path)) == (2, "", f"input error: {message}\n")


def test_a_malformed_phi_init_is_reported_before_non_orthonormal_outcomes(capsys, tmp_path):
    """The dilation block's parse errors come before its physics checks."""
    raw = fixture_raw("three-path-DA")
    raw["outcomes"][0]["vector"] = raw["outcomes"][1]["vector"]
    raw["phi_init"] = raw["phi_init"][:1]
    path = tmp_path / "two-faults.json"
    write_raw(path, raw)
    code, out, err = run_cli(capsys, "povm", "check", str(path))
    assert (code, out, err) == (2, "", "input error: phi_init: expected 2 [re, im] pairs\n")


def test_the_first_faulty_povm_entry_is_named(capsys, tmp_path):
    """The section is decoded in full before the POVM checks it: a non-Hermitian
    element alone fails ``hermiticity``, but a malformed entry after it is named first."""
    skewed = {"label": "a", "matrix": [[[0.5, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
    hermiticity = "element 'a' is not Hermitian (residual 1.000e+00)"
    for second, want in (
        ([[1.0, 0.0], [0.0, 0.0]], (3, f"invariant violation [hermiticity]: {hermiticity}\n")),
        ([[1.0, 0.0]], (2, "input error: povm 'b': expected 2 [re, im] pairs\n")),
    ):
        raw = {"version": 1, "system_dim": 2, "povm": [skewed, {"label": "b", "vector": second}]}
        path = tmp_path / "faults.json"
        write_raw(path, raw)
        code, _, err = run_cli(capsys, "povm", "check", str(path))
        assert (code, err) == want


def test_dilate_round_trip(capsys, tmp_path):
    out_path = tmp_path / "dilated.json"
    code, out, _ = run_cli(capsys, "dilate", DA_FILE, "-o", str(out_path))
    assert code == 0
    assert f"wrote {out_path}: env_dim=4, 4 joint outcomes" in out
    rebuilt = load_scenario(out_path)
    original = load_scenario(DA_FILE)
    derived = povm_from_dilation(rebuilt.dilation)
    assert derived.labels() == original.povm.labels()
    for row, row2 in zip(original.povm.vectors, derived.vectors):
        assert np.abs(row - row2).max() <= 1e-9
    code, out, _ = run_cli(capsys, "povm", "check", str(out_path))
    assert code == 0
    assert "result: ok" in out


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 16))
def test_dilate_round_trips_through_the_file(seed, dim, extra):
    p = random_rank1_povm(np.random.default_rng(seed), dim, dim + extra % (2 * dim + 1))
    with tempfile.TemporaryDirectory() as tmp:
        source, target = Path(tmp) / "povm.json", Path(tmp) / "dilated.json"
        save_scenario(source, Scenario(dim, povm=p))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["dilate", str(source), "-o", str(target)]) == 0
        dilation = load_scenario(target).dilation
    assert verify_constraints(dilation) <= DEFAULT_TOL
    derived = povm_from_dilation(dilation)
    assert derived.labels() == p.labels()
    for row, row2 in zip(p.vectors, derived.vectors):
        assert phase_aligned_max_err(row2, row) <= 1e-12


def test_dilate_writes_a_large_dilation_straight_from_its_stacks(tmp_path):
    p = random_rank1_povm(np.random.default_rng(64), 8, 64)
    source, target = tmp_path / "povm.json", tmp_path / "dilated.json"
    save_scenario(source, Scenario(8, povm=p))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["dilate", str(source), "-o", str(target)]) == 0
    text = target.read_text(encoding="utf-8")
    assert laid_out(json.loads(text)) == text
    written = load_scenario(target)
    expected = naimark_dilate(load_scenario(source).resolve_povm())
    assert written.dilation == expected
    assert written.povm == povm_from_dilation(expected)


def test_dilate_rejects_operator_povms(capsys, tmp_path):
    raw = {
        "version": 1,
        "system_dim": 2,
        "povm": [
            {"label": "a", "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
            {"label": "b", "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
        ],
    }
    path = tmp_path / "ops.json"
    write_raw(path, raw)
    code, _, err = run_cli(capsys, "dilate", str(path), "-o", str(tmp_path / "out.json"))
    assert code == 3
    assert "[rank-one]: element 'a' is not rank one" in err


def test_dilate_into_a_missing_directory_exits_two(capsys, tmp_path):
    out_path = tmp_path / "missing" / "dilated.json"
    code, out, err = run_cli(capsys, "dilate", HARDY_FILE, "-o", str(out_path))
    assert code == 2
    assert out == ""
    assert "input error" in err


def test_context_graph_text(capsys):
    code, out, _ = run_cli(capsys, "context-graph", DA_FILE)
    assert code == 0
    assert "context graph: 4 nodes, 3 edges" in out
    for i in (1, 2, 3):
        assert f"D{i} -- A" in out or f"A -- D{i}" in out


def test_context_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "context-graph", DA_FILE, "--dot")
    assert code == 0
    assert out.startswith("graph contexts {")
    assert out.count("--") == 3


def test_context_graph_dot_escapes_double_quotes(capsys, tmp_path):
    raw = fixture_raw("three-path-DA")
    for item in raw["povm"]:
        item["label"] = item["label"].replace("D1", 'D"1')
    write_raw(tmp_path / "quoted.json", raw)
    code, out, _ = run_cli(capsys, "context-graph", "--dot", str(tmp_path / "quoted.json"))
    assert code == 0
    assert '  "D\\"1";\n' in out
    assert '  "D\\"1" -- "A" [witness=' in out


def test_context_graph_dot_refuses_a_label_that_ends_in_a_backslash(capsys, tmp_path):
    raw = fixture_raw("three-path-DA")
    for item in raw["povm"]:
        item["label"] = item["label"].replace("D1", "D1\\")
    path = str(tmp_path / "backslash.json")
    write_raw(path, raw)
    code, out, err = run_cli(capsys, "context-graph", "--dot", path)
    message = "input error: DOT cannot quote the label 'D1\\\\': it ends in a backslash\n"
    assert (code, out, err) == (2, "", message)
    for form in ((), ("--json",)):  # text and JSON quote it as any label
        code, out, _ = run_cli(capsys, "context-graph", *form, path)
        assert code == 0
        assert "D1\\" in out


def test_context_graph_dot_and_json_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["context-graph", "--dot", "--json", DA_FILE])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --json: not allowed with argument --dot" in err


def test_context_graph_json(capsys):
    code, out, _ = run_cli(capsys, "context-graph", DA_FILE, "--json")
    assert code == 0
    graph = json.loads(out)
    assert set(graph["nodes"]) == {"D1", "D2", "D3", "A"}
    assert len(graph["edges"]) == 3
    assert graph["skipped"] == []


def test_a_dense_context_graph_prints_every_edge_in_text_and_json(capsys, tmp_path):
    rng = np.random.default_rng(19)
    unitaries = [random_unitary(rng, 16) for _ in range(4)]
    contexts = [(env, u.conj().T) for env, u in zip(np.eye(4), unitaries)]  # basis x: u's columns
    p = povm_from_dilation(switched(contexts, np.eye(16), np.full(4, 0.5)))
    path = str(tmp_path / "dense.json")
    save_scenario(path, Scenario(16, povm=p))
    graph = context_graph(p)
    assert len(graph.nodes) == 64 and len(graph.edges) == 4 * 120  # the pairs inside a basis
    assert all(type(witness) is float for _, _, witness in graph.edges)
    lines = [f"context graph: 64 nodes, {len(graph.edges)} edges"]
    lines += [f"  {a} -- {b} (witness={witness:.12g})" for a, b, witness in graph.edges]
    assert run_cli(capsys, "context-graph", path) == (0, "\n".join(lines) + "\n", "")
    edges = [[a, b, witness] for a, b, witness in graph.edges]
    text = json.dumps({"nodes": list(graph.nodes), "edges": edges, "skipped": []})
    assert run_cli(capsys, "context-graph", path, "--json") == (0, text + "\n", "")


def test_inequality_text_output(capsys):
    code, out, _ = run_cli(capsys, "inequality", HARDY_FILE)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lhs 0.111111111111"
    assert lines[1] == "rhs 0"
    assert lines[2] == "violated true"
    assert lines[3] == (
        "certification c1=0.666666666667 c2=0.666666666667 "
        "r1=0.333333333333 r2=0.333333333333"
    )
    assert lines[4] == "state hardy"


def test_inequality_json(capsys):
    code, out, _ = run_cli(capsys, "inequality", HARDY_FILE, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["lhs"] == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert report["rhs"] == pytest.approx(0.0, abs=1e-12)
    assert report["violated"] is True
    assert report["state"] == "hardy"
    assert report["certification"]["c1"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert report["certification"]["r1"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def _report_numbers(value: object) -> list[str]:
    """Each number of a ``--json`` report in order at ``.12g``; words and labels give none."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [token for item in value for token in _report_numbers(item)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [f"{value:.12g}"]
    return []


_ON_EVERY_FIXTURE = ("povm check", "context-graph", "context-graph --dot")


@pytest.mark.parametrize(
    "command, fixture",
    [(command, name) for name in FIXTURE_NAMES for command in _ON_EVERY_FIXTURE]
    + [("inequality", "hardy"), ("max-violation", "hardy")],
)
def test_text_renders_every_number_of_the_json_report_in_order(capsys, command, fixture):
    """Text and DOT output render the one report that ``--json`` prints."""
    path = str(fixture_path(fixture))
    code, out, _ = run_cli(capsys, *command.split(), path)
    assert code == 0
    json_argv = [arg for arg in command.split() if arg != "--dot"]
    report = json.loads(run_cli(capsys, *json_argv, path, "--json")[1])
    if command == "max-violation":  # the text prints a real amplitude as its real part alone
        report["state"] = [[real, imag] if imag else [real] for real, imag in report["state"]]
    printed = iter(token.lstrip("+") for token in NUMBER.findall(out))
    wanted = _report_numbers(report)
    assert wanted and all(token in printed for token in wanted), (wanted, out)


def test_inequality_state_selection_errors(capsys):
    code, _, err = run_cli(capsys, "inequality", HARDY_FILE, "--state", "nope")
    assert code == 2
    assert "no state labelled" in err
    code, _, err = run_cli(capsys, "inequality", DA_FILE)
    assert code == 2
    assert "no hardy block" in err


def test_inequality_rejects_missing_triple_labels(capsys, tmp_path):
    raw = fixture_raw("hardy")
    raw["hardy"]["d2"] = "nope"
    path = tmp_path / "broken.json"
    write_raw(path, raw)
    code, _, err = run_cli(capsys, "inequality", str(path))
    assert code == 2
    assert "nope" in err


def test_max_violation_output(capsys):
    code, out, _ = run_cli(capsys, "max-violation", HARDY_FILE)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "max violation 0.228713553878"
    assert lines[1].startswith("state [")


def test_max_violation_json(capsys):
    code, out, _ = run_cli(capsys, "max-violation", HARDY_FILE, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["value"] == pytest.approx(0.22871355387816908, abs=1e-12)
    amps = np.array([complex(re, im) for re, im in report["state"]])
    assert abs(np.linalg.norm(amps) - 1.0) <= 1e-9


def test_tol_loosens_the_verdict_and_is_restored(capsys, tmp_path):
    raw = fixture_raw("three-path-DA")
    del raw["outcomes"]
    del raw["phi_init"]
    del raw["env_dim"]
    vec = np.array([complex(re, im) for re, im in raw["povm"][0]["vector"]])
    raw["povm"][0]["vector"] = encode_vector(vec + 1e-5)
    path = tmp_path / "slightly-off.json"
    write_raw(path, raw)
    code, out, _ = run_cli(capsys, "povm", "check", str(path))
    assert code == 0 and "result: FAIL" in out
    code, out, _ = run_cli(capsys, "povm", "check", str(path), "--tol", "1e-3")
    assert code == 0 and "result: ok" in out
    code, out, _ = run_cli(capsys, "povm", "check", str(path))
    assert code == 0 and "result: FAIL" in out


def _decode(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def _nearly_valid_file(tmp_path, kind):
    """A bundled fixture with one invariant broken by far less than 1e-3."""
    if kind == "trace":
        raw = fixture_raw("hardy")
        psi = _decode(raw["states"][0]["vector"])
        rho = (1.0 + 1e-6) * np.outer(psi, psi.conj())
        raw["states"][0] = {"label": "hardy", "matrix": matrix_entry(rho)}
    elif kind in ("phi-init", "phi-init-beside-povm"):
        raw = fixture_raw("three-path-DA")
        if kind == "phi-init":
            del raw["povm"]
        raw["phi_init"] = encode_vector((1.0 + 1e-5) * _decode(raw["phi_init"]))
    else:
        raw = fixture_raw("three-path-DA")
        for key in ("outcomes", "phi_init", "env_dim"):
            del raw[key]
        entry = raw["povm"][-1]
        vec = _decode(entry["vector"])
        matrix = np.outer(vec, vec.conj())
        matrix[0, 1] += 1e-6
        raw["povm"][-1] = {"label": entry["label"], "matrix": matrix_entry(matrix)}
    path = tmp_path / f"{kind}.json"
    write_raw(path, raw)
    return str(path)


@pytest.mark.parametrize(
    ("kind", "command", "invariant"),
    [
        ("non-hermitian", ("povm", "check"), "hermiticity"),
        ("phi-init", ("povm", "check"), "phi-init-normalisation"),
        ("phi-init-beside-povm", ("povm", "check"), "phi-init-normalisation"),
        ("trace", ("inequality",), "unit-trace"),
    ],
    ids=["hermiticity", "phi-init", "phi-init-beside-povm", "trace"],
)
def test_tol_reaches_every_check_of_the_run(capsys, tmp_path, kind, command, invariant):
    path = _nearly_valid_file(tmp_path, kind)
    for tol_args, expected in (((), 3), (("--tol", "1e-3"), 0), ((), 3)):
        code, _, err = run_cli(capsys, *command, path, *tol_args)
        assert code == expected, err
        if expected == 3:
            assert f"invariant violation [{invariant}]" in err


@pytest.mark.parametrize(
    "command",
    ["povm check", "dilate -o OUT", "context-graph", "inequality", "max-violation"],
)
def test_an_unnormalised_phi_init_beside_a_povm_fails_every_command_that_loads_it(
    capsys, tmp_path, command
):
    path = _nearly_valid_file(tmp_path, "phi-init-beside-povm")
    argv = [str(tmp_path / "out.json") if arg == "OUT" else arg for arg in command.split()]
    code, out, err = run_cli(capsys, *argv, path)
    assert (code, out) == (3, "")
    assert err == "invariant violation [phi-init-normalisation]: phi_init must be normalised\n"
    assert not (tmp_path / "out.json").exists()


def _child_env() -> dict[str, str]:
    """The environment for a ``python -m ctxlab`` child, with this checkout's ``src``
    first on its ``PYTHONPATH`` so it imports the package under test."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_module_and_console_entry_points(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "ctxlab", "inequality", HARDY_FILE],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "lhs 0.111111111111"
    result = subprocess.run(
        [sys.executable, "-m", "ctxlab", "povm", "check", str(tmp_path / "absent.json")],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 2
    assert "input error" in result.stderr


def test_a_closed_stdout_exits_one_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        result = subprocess.run(
            [sys.executable, "-m", "ctxlab", "context-graph", "--dot", HARDY_FILE],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_child_env(),
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == ""


def test_integer_too_large_for_a_float_exits_two(capsys, tmp_path):
    raw = fixture_raw("hardy")
    raw["povm"][0]["vector"][0][0] = 10**400
    path = tmp_path / "huge.json"
    write_raw(path, raw)
    code, _, err = run_cli(capsys, "povm", "check", str(path))
    assert code == 2
    assert err.startswith("input error: povm 'F': ")


def test_an_integer_past_the_parsers_digit_limit_exits_two(capsys, tmp_path):
    path = tmp_path / "digits.json"
    path.write_text('{"version": 1, "system_dim": ' + "1" * 5000 + "}")
    code, out, err = run_cli(capsys, "povm", "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {path} is not valid JSON: Exceeds the limit (4300 digits)")
    assert err.count("\n") == 1


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_a_version_that_only_equals_one_exits_two(capsys, tmp_path, version):
    path = tmp_path / "version.json"
    path.write_text(f'{{"version": {version}, "system_dim": 2}}')
    code, out, err = run_cli(capsys, "povm", "check", str(path))
    shown = {"true": "True", "1.0": "1.0"}[version]
    assert (code, out, err) == (2, "", f"input error: unsupported version {shown}\n")


def test_repeated_calls_do_not_share_state(capsys):
    assert build_parser() is build_parser()
    code, out, _ = run_cli(capsys, "povm", "check", "--json", DA_FILE)
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run_cli(capsys, "povm", "check", DA_FILE)
    assert code == 0 and out.startswith("povm: 4 elements")
    code, out, _ = run_cli(capsys, "povm", "check", DA_FILE, "--tol", "1e-3")
    assert code == 0 and "(tol=0.001)" in out
    code, out, _ = run_cli(capsys, "povm", "check", DA_FILE)
    assert code == 0 and "(tol=1e-09)" in out
    with pytest.raises(SystemExit) as exc:
        main(["povm", "check"])
    assert exc.value.code == 2
    code, out, _ = run_cli(capsys, "context-graph", "--dot", DA_FILE)
    assert code == 0 and out.startswith("graph")


def test_deeply_nested_json_exits_two(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, "povm", "check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ")


_HUGE = 10**12
_HUGE_DIMENSIONS = {
    "povm": ({"system_dim": _HUGE, "povm": [{"label": "a", "vector": [[1, 0]]}]}, "povm"),
    "outcomes": (
        {
            "system_dim": 1,
            "env_dim": _HUGE,
            "outcomes": [{"label": "a", "vector": [[1, 0]]}],
            "phi_init": [[1, 0]],
        },
        "outcome",
    ),
    "states": ({"system_dim": _HUGE, "states": [{"label": "a", "vector": [[1, 0]]}]}, "state"),
}


@pytest.mark.parametrize("section", list(_HUGE_DIMENSIONS))
def test_a_huge_declared_dimension_exits_two_without_allocating_it(capsys, tmp_path, section):
    fields, what = _HUGE_DIMENSIONS[section]
    path = tmp_path / "huge.json"
    write_raw(path, {"version": 1, **fields})
    code, out, err = run_cli(capsys, "povm", "check", str(path))
    assert (code, out) == (2, "")
    assert err == f"input error: {what} 'a': expected {_HUGE} [re, im] pairs\n"


def test_a_deeply_nested_entry_is_cut_in_the_message(capsys, tmp_path):
    entry = 0.0
    for _ in range(900):
        entry = [entry]
    raw = {"version": 1, "system_dim": 2, "povm": [{"label": "a", "vector": [[1.0, 0.0], entry]}]}
    path = tmp_path / "deep-entry.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "povm", "check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error: povm 'a': expected an [re, im] pair, got [[[[")
    assert err.rstrip().endswith("... (1803 characters)")
    assert len(err) < 200


_MALFORMED_MATRIX_ROWS = {
    "povm-short-row": (
        "povm", [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]], "povm 'a': expected 2 [re, im] pairs"
    ),
    "povm-non-pair": (
        "povm",
        [[[1.0, 0.0], "x"], [[0.0, 0.0], [1.0, 0.0]]],
        "povm 'a': expected an [re, im] pair, got 'x'",
    ),
    "povm-huge-int": (
        "povm",
        [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]],
        "povm 'a': an amplitude is too large for a float",
    ),
    "states-short-row": (
        "states", [[[0.5, 0.0], [0.0, 0.0]], [[0.5, 0.0]]], "state 'r': expected 2 [re, im] pairs"
    ),
}


@pytest.mark.parametrize("kind", list(_MALFORMED_MATRIX_ROWS))
def test_a_matrix_entry_is_read_row_by_row_and_the_row_at_fault_named(capsys, tmp_path, kind):
    section, matrix, message = _MALFORMED_MATRIX_ROWS[kind]
    label = "a" if section == "povm" else "r"
    path = tmp_path / "bad-row.json"
    write_raw(path, {"version": 1, "system_dim": 2, section: [{"label": label, "matrix": matrix}]})
    code, out, err = run_cli(capsys, "povm", "check", str(path))
    assert (code, out, err) == (2, "", f"input error: {message}\n")


_OVERFLOWING_POVMS = {
    "huge-vector": (2, [{"label": "a", "vector": [[1e200, 0.0], [0.0, 0.0]]}]),
    "overflowing-sum": (
        1,
        [{"label": "a", "matrix": [[[1e308, 0.0]]]}, {"label": "b", "matrix": [[[1e308, 0.0]]]}],
    ),
    "infinities-of-both-signs": (
        2,
        [
            {"label": "a", "vector": [[1e200, 0.0], [1e200, 0.0]]},
            {"label": "b", "vector": [[1e200, 0.0], [-1e200, 0.0]]},
        ],
    ),
    "lowest-eigenvalue-overflow": (  # element 'a' has eigenvalues -inf and 0
        2,
        [
            {
                "label": "a",
                "matrix": [[[-1e308, 0.0], [1e308, 0.0]], [[1e308, 0.0], [-1e308, 0.0]]],
            },
            {"label": "b", "vector": [[1.0, 0.0], [0.0, 0.0]]},
        ],
    ),
}
# a bundled fixture with the amplitudes of one section scaled by 1e200
_OVERFLOWING_FIXTURES = {
    "hardy-povm": ("hardy", "povm"),
    "three-path-DA-outcomes": ("three-path-DA", "outcomes"),  # without its povm section
}


def _write_overflowing(tmp_path: Path, kind: str) -> Path:
    if kind in _OVERFLOWING_FIXTURES:
        name, section = _OVERFLOWING_FIXTURES[kind]
        raw = fixture_raw(name)
        if section == "outcomes":
            del raw["povm"]
        for entry in raw[section]:
            entry["vector"] = [[re * 1e200, im * 1e200] for re, im in entry["vector"]]
    else:
        dim, povm = _OVERFLOWING_POVMS[kind]
        raw = {"version": 1, "system_dim": dim, "povm": povm}
    path = tmp_path / f"{kind}.json"
    write_raw(path, raw)
    return path


@pytest.mark.parametrize("mode", [(), ("--json",), ("--strict",)], ids=["text", "json", "strict"])
@pytest.mark.parametrize("kind", [*_OVERFLOWING_POVMS, *_OVERFLOWING_FIXTURES])
def test_povm_check_with_an_overflowing_residual_is_a_numerical_failure(
    capsys, tmp_path, kind, mode
):
    path = _write_overflowing(tmp_path, kind)
    code, out, err = run_cli(capsys, "povm", "check", str(path), *mode)
    message = {
        "lowest-eigenvalue-overflow": "the element bound residual is not finite",
        "three-path-DA-outcomes": "the orthonormality residual is not finite",  # on loading
    }.get(kind, "the completeness residual is not finite")
    assert (code, out, err) == (4, "", f"numerical failure: {message}\n")


@pytest.mark.parametrize(
    "command",
    [
        "context-graph", "context-graph --json", "context-graph --dot", "dilate -o OUT",
        "inequality", "max-violation",
    ],
)
@pytest.mark.parametrize("kind", [*_OVERFLOWING_POVMS, *_OVERFLOWING_FIXTURES])
def test_overflowing_weights_are_a_numerical_failure_in_every_command(
    capsys, tmp_path, kind, command
):
    path = _write_overflowing(tmp_path, kind)
    argv = [str(tmp_path / "out.json") if arg == "OUT" else arg for arg in command.split()]
    code, out, err = run_cli(capsys, *argv, str(path))
    if kind == "three-path-DA-outcomes":  # loading checks the outcome set first
        expected = (4, "numerical failure: the orthonormality residual is not finite\n")
    elif kind in _OVERFLOWING_POVMS and argv[0] in ("inequality", "max-violation"):
        expected = (2, "input error: the file carries no hardy block\n")
    elif kind not in ("overflowing-sum", "lowest-eigenvalue-overflow"):
        expected = (4, "numerical failure: an element weight is not finite\n")
    elif argv[0] == "context-graph":  # finite weights: the graph is drawn
        expected = (0, "")
    elif kind == "lowest-eigenvalue-overflow":  # dilate refuses it before it weighs it
        expected = (3, "invariant violation [rank-one]: element 'a' is not rank one\n")
    else:  # each positive 1x1 entry is factored into a row of weight 1e308
        bounds = "element eigenvalues leave [0, 1] (residual 1.000e+308)"
        expected = (3, f"invariant violation [element-bounds]: {bounds}\n")
    assert (code, err) == expected
    assert (out == "") == (code != 0)
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["povm check", "context-graph", "inequality", "max-violation"])
def test_a_density_matrix_whose_trace_overflows_fails_unit_trace_without_a_warning(
    capsys, tmp_path, command
):
    raw = fixture_raw("hardy")
    raw["states"] = [{"label": "huge", "matrix": matrix_entry(np.diag([1e308, 1e308, 0.0]))}]
    path = tmp_path / "huge-trace.json"
    write_raw(path, raw)
    code, out, err = run_cli(capsys, *command.split(), str(path))
    assert code == 3
    assert out == ""
    assert err == "invariant violation [unit-trace]: trace inf != 1\n"


@pytest.mark.parametrize("section", ["povm", "states"])
def test_an_overflowing_hermiticity_residual_is_a_numerical_failure(capsys, tmp_path, section):
    # matrix - matrix^dagger has the entries +-2e308, which overflow
    skew = np.array([[0.0, 1e308, 0.0], [-1e308, 0.0, 0.0], [0.0, 0.0, 0.0]])
    raw = fixture_raw("hardy")
    raw[section][0] = {"label": raw[section][0]["label"], "matrix": matrix_entry(skew)}
    path = tmp_path / f"skew-{section}.json"
    write_raw(path, raw)
    code, out, err = run_cli(capsys, "povm", "check", str(path))
    message = "numerical failure: the hermiticity residual is not finite\n"
    assert (code, out, err) == (4, "", message)


def _state_of(out: str) -> np.ndarray:
    line = out.splitlines()[1]
    assert line.startswith("state [") and line.endswith("]")
    return np.array([complex(z) for z in line[len("state [") : -1].split(", ")])


def test_max_violation_prints_complex_amplitudes(capsys, tmp_path):
    phases = np.exp(1j * np.array([0.3, -1.1, 2.0]))
    raw = fixture_raw("hardy")
    for entry in raw["povm"] + raw["states"]:
        entry["vector"] = encode_vector(phases * decode_vector(entry["vector"], 3, "vector"))
    path = tmp_path / "rotated.json"
    write_raw(path, raw)
    code, out, _ = run_cli(capsys, "max-violation", str(path))
    assert code == 0
    assert out.splitlines()[0] == "max violation 0.228713553878"
    assert "j" in out.splitlines()[1]
    rotated = _state_of(out)
    _, plain, _ = run_cli(capsys, "max-violation", HARDY_FILE)
    assert phase_aligned_max_err(rotated, phases * _state_of(plain)) <= 1e-9


def test_inequality_asks_for_a_state_when_the_file_has_several(capsys, tmp_path):
    raw = fixture_raw("hardy")
    raw["states"].append({"label": "x", "vector": encode_vector(np.array([1.0, 0.0, 0.0]))})
    path = tmp_path / "two-states.json"
    write_raw(path, raw)
    code, _, err = run_cli(capsys, "inequality", str(path))
    assert code == 2
    assert "choose a state with --state; the file has none or several" in err
    code, out, _ = run_cli(capsys, "inequality", str(path), "--state", "x")
    assert code == 0
    assert out.splitlines()[-1] == "state x"


def _hardy_file_at(path: Path, state: np.ndarray) -> str:
    """A hardy scenario whose triple is admissible at --tol 1e-16, with one state."""
    directions = (np.array([1.0, 2.0, 4.0]), np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 4.0]))
    p = hardy_embedding_povm(*(x / np.linalg.norm(x) for x in directions))
    states = {"e0": state}
    save_scenario(path, Scenario(3, povm=p, states=states, hardy=("F", "D1", "D2")))
    return str(path)


def test_inequality_below_round_off_does_not_recheck_derived_states(capsys, tmp_path):
    path = _hardy_file_at(tmp_path / "e0.json", np.array([1.0, 0.0, 0.0]))
    code, default_out, _ = run_cli(capsys, "inequality", path)
    assert code == 0
    code, out, err = run_cli(capsys, "inequality", path, "--tol", "1e-16")
    assert (code, out, err) == (0, default_out, "")


@pytest.mark.parametrize("tol", [[], ["--tol", "1e-16"]])
def test_inequality_still_checks_the_input_state(capsys, tmp_path, tol):
    path = _hardy_file_at(tmp_path / "scaled.json", np.array([1.0 + 1e-6, 0.0, 0.0]))
    code, out, err = run_cli(capsys, "inequality", path, *tol)
    assert (code, out) == (3, "")
    assert err.startswith("invariant violation [state-normalisation]: ")
