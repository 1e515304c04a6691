"""Loading vector sections: one decoded array per section, the per-entry errors kept.

A section that decodes cleanly becomes one stacked array with no object per
element; any fault sends the loader back to the entry-by-entry path, which
names the first faulty entry. Both must agree with the plain per-entry
reference in ``oracles.py``, bit for bit and error for error, except that a povm
``matrix`` entry that loads as a row agrees with the row's outer product within
round-off. Arbitrary command lines over good and broken inputs end in a
documented exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxlab import (
    Povm,
    Scenario,
    ScenarioFileError,
    ValidationError,
    completeness_check,
    context_graph,
    decode_vector,
    element_bound_residual,
    encode_vector,
    fixture_path,
    load_scenario,
    scenario_from_dict,
)
from ctxlab.cli import main
from helpers import random_unitary, write_raw
from oracles import LoadError, reference_sections


def _bits(values) -> list[int]:
    """The float64 bit patterns of real values or of complex amplitudes (-0.0 kept)."""
    array = np.asarray(values)
    floats = array.view(float) if np.iscomplexobj(array) else array.astype(float)
    return np.ascontiguousarray(floats).view(np.uint64).reshape(-1).tolist()


def _loaded(s: Scenario) -> dict[str, list[tuple[str, str, list[int]]]]:
    """Each section of a loaded scenario in the form ``reference_sections`` gives."""
    sections = {}
    if s.dilation is not None:
        rows = zip(s.dilation.labels(), s.dilation.vectors)
        sections["outcomes"] = [(label, "vector", _bits(row)) for label, row in rows]
    if s.povm is not None:
        assert not s.povm.vectors[list(s.povm.operators)].any()  # an operator's row is zero
        operators = s.povm.operators
        sections["povm"] = [
            (label, "matrix", _bits(operators[k])) if k in operators
            else (label, "vector", _bits(row))
            for k, (label, row) in enumerate(zip(s.povm.labels(), s.povm.vectors))
        ]
    if s.states:
        sections["states"] = [
            (label, "vector" if state.ndim == 1 else "matrix", _bits(state))
            for label, state in s.states.items()
        ]
    return sections


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, 1, -1, 0.0, -0.0]),
)
_ZEROS = st.sampled_from([0, 0.0, -0.0])
_NUMBER_FAULTS = {
    "bool": True,
    "str": "1.0",
    "none": None,
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "huge-int": 10**400,
}
FAULTS = (*_NUMBER_FAULTS, "nested", "triple", "length", "matrix", "both", "key")
# Keys that no entry may hold: near misses of the schema's and none at all.
_UNKNOWN_KEYS = ("vectr", "Vector", "matrices", "labels", "")


def _mixed_state_matrix(dim: int) -> list:
    """I/dim as [re, im] rows: Hermitian, positive, unit trace; a valid operator anywhere."""
    return [[[1.0 / dim, 0.0] if i == j else [0.0, -0.0] for j in range(dim)] for i in range(dim)]


SECTIONS = ("outcomes", "povm", "states")


@st.composite
def faulty_files(draw, fault: str | None, section: str) -> dict:
    """A scenario dict holding ``section`` and maybe others, with ``fault`` in one entry of it.

    The outcomes are signed basis vectors, so exactly orthonormal; povm and
    states amplitudes are any finite ints or floats, loading checks no more.
    """
    dim = draw(st.integers(1, 8))
    sections = draw(st.sets(st.sampled_from(SECTIONS))) | {section}
    raw: dict = {"version": 1, "system_dim": dim}

    def vector(length: int) -> list:
        pairs = st.lists(st.tuples(_NUMBERS, _NUMBERS), min_size=length, max_size=length)
        return [list(pair) for pair in draw(pairs)]

    if "outcomes" in sections:
        env = draw(st.integers(1, 3))
        slots = draw(st.permutations(range(env * dim)))[: draw(st.integers(1, env * dim))]
        outcomes = []
        for k, slot in enumerate(slots):
            amplitudes = [[0, draw(_ZEROS)] for _ in range(env * dim)]
            amplitudes[slot] = [draw(st.sampled_from([1, -1, 1.0, -1.0])), draw(_ZEROS)]
            outcomes.append({"label": f"o{k}", "vector": amplitudes})
        raw.update(env_dim=env, outcomes=outcomes, phi_init=[[1, 0]] + [[0, 0]] * (env - 1))
    if "povm" in sections:
        count = draw(st.integers(1, 3 * dim))
        raw["povm"] = [{"label": f"p{k}", "vector": vector(dim)} for k in range(count)]
    if "states" in sections:
        count = draw(st.integers(1, 3))
        raw["states"] = [{"label": f"s{k}", "vector": vector(dim)} for k in range(count)]

    if fault is None:
        return raw
    entry = draw(st.sampled_from(raw[section]))
    amplitudes = entry["vector"]
    pair = amplitudes[draw(st.integers(0, len(amplitudes) - 1))]
    part = draw(st.integers(0, 1))
    if fault in _NUMBER_FAULTS:
        pair[part] = _NUMBER_FAULTS[fault]
    elif fault == "nested":
        pair[part] = [pair[part]]
    elif fault == "triple":
        pair.append(0.0)
    elif fault == "length":
        entry["vector"] = amplitudes[:-1] if draw(st.booleans()) else amplitudes + [[0, 0]]
    elif fault == "key":
        entry[draw(st.sampled_from(_UNKNOWN_KEYS))] = draw(_NUMBERS)
    else:
        entry["matrix"] = _mixed_state_matrix(dim)
        if fault == "matrix":
            del entry["vector"]
    return raw


def _take_factored_matrices(want: dict, got: dict, p: Povm) -> None:
    """Check each povm ``matrix`` entry of the reference that loaded as a row against the
    row's outer product within 1e-15, then take it into ``got``: a rank-1 entry is factored
    on reading into a row. Every other matrix entry loads into ``operators`` bit for bit."""
    for k, (_, kind, bits) in enumerate(want["povm"]):
        if kind == "matrix" and k not in p.operators:
            matrix = np.array(bits, dtype=np.uint64).view(complex).reshape(p.system_dim, -1)
            row = p.vectors[k]
            assert np.abs(np.outer(row, row.conj()) - matrix).max() <= 1e-15
            got["povm"][k] = want["povm"][k]


def _expected(raw: dict):
    try:
        sections = reference_sections(raw)
    except LoadError as exc:
        return exc.args
    return {
        name: [(label, kind, _bits(values)) for label, kind, values in entries]
        for name, entries in sections.items()
    }


@pytest.mark.parametrize("section", SECTIONS)
@pytest.mark.parametrize("fault", (None, *FAULTS))
@settings(max_examples=6, derandomize=True, deadline=None)
@given(data=st.data())
def test_loading_matches_the_per_entry_reference(fault, section, data):
    raw = data.draw(faulty_files(fault, section))
    want = _expected(raw)
    try:
        loaded = scenario_from_dict(raw)
        got = _loaded(loaded)
    except (ScenarioFileError, ValidationError) as exc:
        got = (type(exc).__name__, getattr(exc, "invariant", None), str(exc))
    else:
        if "povm" in got:
            _take_factored_matrices(want, got, loaded.povm)
    assert got == want

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.json"
        path.write_text(json.dumps(raw))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["povm", "check", "--json", str(path)])
    if isinstance(want, tuple):
        kind, invariant, message = want
        assert out.getvalue() == ""
        if kind == "ScenarioFileError":
            assert (code, err.getvalue()) == (2, f"input error: {message}\n")
        else:
            assert (code, err.getvalue()) == (3, f"invariant violation [{invariant}]: {message}\n")
    else:
        assert code in (0, 2, 4)
        assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue()


@pytest.mark.parametrize("section", ("outcomes", "povm"))
def test_a_non_finite_entry_is_named_before_a_later_malformed_one(section):
    raw = {"version": 1, "system_dim": 2, "env_dim": 1, "phi_init": [[1, 0]]}
    if section == "povm":
        del raw["env_dim"], raw["phi_init"]
    raw[section] = [
        {"label": "a", "vector": [[float("nan"), 0], [0, 0]]},
        {"label": "b", "vector": [["1", 0], [0, 0]]},
    ]
    want = ("ValidationError", "finite-amplitudes", "amplitudes must be finite")
    assert _expected(raw) == want
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert (err.value.invariant, str(err.value)) == want[1:]


def test_loading_and_checking_a_vector_povm_keeps_its_rows_bit_for_bit(tmp_path):
    dim, count = 16, 64
    rows = random_unitary(np.random.default_rng(16), count)[:, :dim].conj()
    raw = {
        "version": 1,
        "system_dim": dim,
        "povm": [{"label": f"m{k}", "vector": encode_vector(row)} for k, row in enumerate(rows)],
    }
    path = tmp_path / "d16-m64.json"
    write_raw(path, raw)

    p = load_scenario(path).povm
    assert completeness_check(p) <= 1e-9
    assert element_bound_residual(p) == 0.0
    assert len(context_graph(p).nodes) == count

    labels = [e["label"] for e in raw["povm"]]
    rows = np.array([decode_vector(e["vector"], dim, "povm") for e in raw["povm"]])
    assert p.labels() == tuple(labels) and len(p) == count and not p.operators
    assert _bits(p.vectors) == _bits(rows)


COMMANDS = {  # each subcommand with its own flags
    ("scenario", "run"): ("--basis", "--merge-a", "--phi-init"),
    ("povm", "check"): ("--strict", "--json"),
    ("dilate",): ("-o",),
    ("context-graph",): ("--dot", "--json"),
    ("inequality",): ("--state", "--json"),
    ("max-violation",): ("--json",),
}
FLAGS = ("--json", "--dot", "--strict", "--merge-a", "--basis", "--phi-init", "--state", "-o")
TOLS = ("nan", "inf", "-1", "0", "5e-324", "1e-17", "1e300", "abc")


def _refuse(constant: str) -> None:
    raise ValueError(f"{constant} in --json output")


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory) -> tuple[list[str], list[str], dict[str, list[str]]]:
    """The three fixtures, the broken inputs (a missing path, a directory, an empty
    file and a truncated fixture) and each option's drawn values."""
    root = tmp_path_factory.mktemp("argv")
    (root / "empty.json").write_text("")
    text = fixture_path("three-path-DA").read_text(encoding="utf-8")
    (root / "truncated.json").write_text(text[: len(text) // 2])
    fixtures = [str(fixture_path(name)) for name in ("three-path-VH", "three-path-DA", "hardy")]
    broken = [str(root / name) for name in ("missing.json", ".", "empty.json", "truncated.json")]
    values = {
        "--basis": ["DA", "VH", "XY"],
        "--phi-init": ["D", "A", "H", "V", "R"],
        "--state": ["hardy", "nope"],
        "-o": [str(root / "out.json"), str(root), str(root / "missing" / "out.json")],
    }
    return fixtures, broken, values


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_command_line_ends_in_a_documented_exit_code(cli_inputs, data):
    fixtures, broken, values = cli_inputs
    command = data.draw(st.sampled_from(list(COMMANDS)))
    if command == ("scenario", "run"):
        fixtures = ["three-path"]
    argv = [*command, data.draw(st.sampled_from(fixtures) | st.sampled_from(broken))]
    flags = data.draw(st.lists(st.sampled_from(COMMANDS[command]), unique=True))
    flags += data.draw(st.lists(st.sampled_from(FLAGS), max_size=1))  # maybe another's flag
    for flag in flags:
        argv += [flag, data.draw(st.sampled_from(values[flag]))] if flag in values else [flag]
    tol = data.draw(st.none() | st.sampled_from(TOLS))
    if tol is not None:
        argv += ["--tol", tol]

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == 2
            return
    assert code in (0, 2, 3, 4)
    if code == 0 and "--json" in argv and "--dot" not in argv:
        json.loads(out.getvalue(), parse_constant=_refuse)
