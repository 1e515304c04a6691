"""Scenario file round trips, schema policing, and the bundled fixtures."""

from __future__ import annotations

import gc
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxlab.scenario_io
from ctxlab import (
    FIXTURE_NAMES,
    Dilation,
    Povm,
    Scenario,
    ScenarioFileError,
    ValidationError,
    build_three_path,
    coarse_grain,
    decode_matrix,
    decode_vector,
    dilation_DA,
    encode_vector,
    fixture_path,
    load_fixture,
    load_scenario,
    naimark_dilate,
    orthonormality_residual,
    povm_DA,
    povm_from_dilation,
    save_scenario,
    scenario_from_dict,
    write_fixtures,
)
from ctxlab.cli import main
from helpers import (
    fixture_raw,
    matrix_entry,
    random_pure_state,
    random_rank1_povm,
    random_unitary,
    with_phi_init,
    write_raw,
)


def _da_dict():
    s = build_three_path()
    d = dilation_DA(s)
    scenario = Scenario(
        system_dim=3,
        dilation=d,
        povm=povm_DA(s),
        states={"plus": np.ones(3) / np.sqrt(3.0)},
        hardy=("D1", "D2", "D3"),
    )
    return json.loads(_written(scenario))


def test_vector_codec_round_trip():
    rng = np.random.default_rng(61)
    vec = rng.normal(size=5) + 1j * rng.normal(size=5)
    decoded = decode_vector(encode_vector(vec), 5, "test")
    np.testing.assert_array_equal(decoded, vec)
    mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_array_equal(decode_matrix(matrix_entry(mat), 3, "test"), mat)


def test_integer_amplitudes_decode_as_the_same_floats():
    decoded = decode_vector([[1, 0], [-3, 2]], 2, "test")
    assert decoded.tobytes() == np.array([1.0 + 0.0j, -3.0 + 2.0j]).tobytes()


@pytest.mark.parametrize(
    "entry",
    [[True, 0.0], [0.0, "1"], [None, 0.0], {"re": 1.0, "im": 0.0}, [1.0, 0.0, 0.0], [[1.0, 0.0]]],
    ids=["bool", "str", "none", "dict", "three-element", "nested"],
)
def test_decoder_names_the_entry_that_is_not_a_pair(entry):
    expected = f"test: expected an [re, im] pair, got {entry!r}"
    with pytest.raises(ScenarioFileError, match=re.escape(expected)):
        decode_vector([[0.5, 0.0], entry], 2, "test")


def test_decoder_rejects_integers_beyond_float_range():
    with pytest.raises(ScenarioFileError, match="too large for a float"):
        decode_vector([[0.5, 0.0], [10**400, 0]], 2, "test")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_amplitudes_reach_the_ket_check(capsys, tmp_path, literal):
    text = json.dumps(fixture_raw("hardy")).replace("[0, 0]", f"[{literal}, 0.0]", 1)
    assert literal in text
    path = tmp_path / "non-finite.json"
    path.write_text(text)
    assert main(["povm", "check", str(path)]) == 3
    assert "invariant violation [finite-amplitudes]" in capsys.readouterr().err


def _tupled(obj: object) -> object:
    """``obj`` with every [re, im] pair, a 2-list of numbers, turned into a tuple."""
    if isinstance(obj, dict):
        return {key: _tupled(value) for key, value in obj.items()}
    if isinstance(obj, list):
        if len(obj) == 2 and {type(x) for x in obj} <= {int, float}:
            return tuple(obj)
        return [_tupled(entry) for entry in obj]
    return obj


def _bits(values: np.ndarray) -> list[int]:
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64).reshape(-1).tolist()


@pytest.mark.parametrize("with_matrices", [False, True], ids=["vectors", "with-matrices"])
def test_tuple_pairs_from_a_library_dict_decode_bit_for_bit(with_matrices):
    raw = _da_dict()
    third = np.eye(3) / 3.0
    if with_matrices:
        raw["povm"].append({"label": "M", "matrix": matrix_entry(third)})
        raw["states"].append({"label": "mixed", "matrix": matrix_entry(third)})
    assert "-0.0" in json.dumps(raw)
    tupled = _tupled(raw)
    assert type(tupled["phi_init"][0]) is tuple and type(tupled["povm"][0]["vector"][0]) is tuple
    plain, loaded = scenario_from_dict(raw), scenario_from_dict(tupled)
    assert _bits(loaded.dilation.vectors) == _bits(plain.dilation.vectors)
    assert _bits(loaded.dilation.phi_init) == _bits(plain.dilation.phi_init)
    assert _bits(loaded.povm.vectors) == _bits(plain.povm.vectors)
    assert _bits(loaded.states["plus"]) == _bits(plain.states["plus"])
    if with_matrices:
        m = len(plain.povm) - 1
        assert list(loaded.povm.operators) == list(plain.povm.operators) == [m]
        assert _bits(loaded.povm.operators[m]) == _bits(third)
        assert _bits(loaded.states["mixed"]) == _bits(third)


@pytest.mark.parametrize("section", ["povm", "states"])
def test_a_malformed_vector_is_reported_before_an_earlier_non_hermitian_matrix(
    capsys, tmp_path, section
):
    """A section is decoded in full before its type checks it: a non-Hermitian matrix
    alone fails ``hermiticity`` (exit 3), but a malformed vector after it is named (exit 2)."""
    skewed = matrix_entry(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    named = {"povm": ("element 'skewed'", "povm"), "states": ("density matrix", "state")}
    what, entry = named[section]
    hermiticity = f"{what} is not Hermitian (residual 1.000e+00)"
    short = {"label": "short", "vector": [[1.0, 0.0]]}
    for after, want in (
        ([], (3, f"invariant violation [hermiticity]: {hermiticity}\n")),
        ([short], (2, f"input error: {entry} 'short': expected 3 [re, im] pairs\n")),
    ):
        raw = fixture_raw("hardy")
        raw[section][:0] = [{"label": "skewed", "matrix": skewed}, *after]
        path = tmp_path / "skewed.json"
        write_raw(path, raw)
        assert (main(["povm", "check", str(path)]), capsys.readouterr().err) == want


def test_a_malformed_hardy_block_is_reported_before_a_faulty_mixed_state(capsys, tmp_path):
    """The reader decodes the whole file before ``Scenario`` checks its states."""
    raw = fixture_raw("hardy")
    raw["states"].append({"label": "heavy", "matrix": matrix_entry(np.eye(3))})
    for hardy, want in (
        (raw["hardy"], (3, "invariant violation [unit-trace]: trace 3.0 != 1\n")),
        ({"f": "F"}, (2, "input error: hardy must map exactly the keys f, d1, d2\n")),
    ):
        path = tmp_path / "heavy.json"
        write_raw(path, {**raw, "hardy": hardy})
        assert (main(["povm", "check", str(path)]), capsys.readouterr().err) == want


def _written(scenario: Scenario) -> str:
    """The text ``save_scenario`` writes for ``scenario``, newlines untranslated."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "written.json"
        save_scenario(path, scenario)
        return path.read_bytes().decode("utf-8")


def _redumped(text: str) -> str:
    """``text`` parsed and written again as ``json.dumps(..., indent=2)`` and a newline."""
    return json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("name", ["three-path-VH", "three-path-DA"])
def test_negative_zero_survives_a_load_and_dump(name):
    text = fixture_path(name).read_text()
    assert "-0.0" in text
    assert _redumped(text) == text
    assert _written(load_scenario(fixture_path(name))).encode("utf-8") == text.encode("utf-8")


def test_dict_round_trip_preserves_everything():
    raw = _da_dict()
    sc = scenario_from_dict(raw)
    assert sc.system_dim == 3 and sc.dilation.env_dim == 2
    assert sc.hardy == ("D1", "D2", "D3")
    assert set(sc.states) == {"plus"}
    d = sc.dilation
    s = build_three_path()
    reference = dilation_DA(s)
    assert d.labels() == reference.labels()
    np.testing.assert_array_equal(d.vectors, reference.vectors)
    np.testing.assert_array_equal(d.phi_init, reference.phi_init)
    assert sc.povm.labels() == ("D1", "D2", "D3", "A")


def test_file_round_trip(tmp_path):
    path = tmp_path / "da.json"
    save_scenario(path, scenario_from_dict(_da_dict()))
    sc = load_scenario(path)
    assert sc.resolve_povm().labels() == ("D1", "D2", "D3", "A")
    assert path.read_text().endswith("}\n")


def test_matrix_states_and_operator_elements_round_trip(tmp_path):
    mixed = np.eye(2) / 2.0
    scenario = Scenario(
        system_dim=2,
        povm=Povm(
            2,
            ["half", "rest"],
            np.zeros((2, 2), dtype=complex),
            {0: np.eye(2) / 2.0, 1: np.eye(2) / 2.0},
        ),
        states={"mixed": mixed},
    )
    path = tmp_path / "ops.json"
    save_scenario(path, scenario)
    sc = load_scenario(path)
    op = sc.povm.operators[sc.povm.labels().index("half")]
    assert _bits(op) == _bits(np.eye(2) / 2.0)  # kept as written
    assert sc.povm == scenario.povm  # a diagonal element's factor survives the cycle
    np.testing.assert_array_equal(sc.states["mixed"], mixed)


def test_resolve_povm_prefers_the_povm_section():
    raw = _da_dict()
    sc = scenario_from_dict(raw)
    assert sc.resolve_povm().labels() == ("D1", "D2", "D3", "A")
    del raw["povm"]
    derived = scenario_from_dict(raw).resolve_povm()
    assert derived.labels() == ("D1", "D2", "D3", "A1", "A2", "A3")
    bare = scenario_from_dict({"version": 1, "system_dim": 3})
    with pytest.raises(ScenarioFileError):
        bare.resolve_povm()
    assert bare.dilation is None


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw.update(version=2),
        lambda raw: raw.pop("version"),
        lambda raw: raw.update(version=True),
        lambda raw: raw.update(version=1.0),
        lambda raw: raw.update(extra=1),
        lambda raw: raw.update(system_dim=0),
        lambda raw: raw.update(system_dim=True),
        lambda raw: raw.update(system_dim="3"),
        lambda raw: raw.pop("phi_init"),
        lambda raw: raw.pop("env_dim"),
        lambda raw: raw.update(outcomes={}),
        lambda raw: raw["outcomes"].append({"vector": []}),
        lambda raw: raw["outcomes"].append(dict(raw["outcomes"][0])),
        lambda raw: raw["outcomes"][0].update(vector=[[0.0, 0.0]]),
        lambda raw: raw["outcomes"][0]["vector"].__setitem__(0, [0.0, "x"]),
        lambda raw: raw["outcomes"][0]["vector"].__setitem__(0, [0.0, True]),
        lambda raw: raw["outcomes"][0]["vector"].__setitem__(0, [0.0, 0.0, 0.0]),
        lambda raw: raw["povm"][0].update(matrix=matrix_entry(np.eye(3))),
        lambda raw: raw["povm"][0].pop("vector"),
        lambda raw: raw["states"][0].update(matrix=matrix_entry(np.eye(3))),
        lambda raw: raw.update(hardy={"f": "D1"}),
        lambda raw: raw.update(hardy={"f": "D1", "d1": "D2", "d2": 3}),
        lambda raw: raw.update(hardy={"f": "D1", "d1": "D2", "d2": "D3", "x": "y"}),
    ],
)
def test_schema_violations_raise(mutate):
    raw = _da_dict()
    mutate(raw)
    with pytest.raises(ScenarioFileError):
        scenario_from_dict(raw)


def test_scenario_must_be_an_object():
    with pytest.raises(ScenarioFileError):
        scenario_from_dict([1, 2, 3])


def test_unknown_top_level_keys_of_mixed_types_are_a_file_error():
    raw = {"version": 1, "system_dim": 2, 1: 2, "a": 3}
    with pytest.raises(ScenarioFileError, match=re.escape("unknown keys [1, 'a']")):
        scenario_from_dict(raw)
    with pytest.raises(ScenarioFileError, match=re.escape("unknown keys ['a', 'b']")):
        scenario_from_dict({"version": 1, "system_dim": 2, "b": 2, "a": 3})


def test_unknown_entry_keys_of_mixed_types_are_a_file_error():
    raw = fixture_raw("hardy")
    raw["povm"][0].update({2: 0, "vectr": 0})
    with pytest.raises(ScenarioFileError, match=re.escape("povm 'F': unknown keys [2, 'vectr']")):
        scenario_from_dict(raw)


def _misfits() -> dict[str, tuple[dict, type, str | None, str]]:
    """Scenario fields that a file could not hold, with the error type, invariant and
    message its reader gives."""
    s = build_three_path()
    d = dilation_DA(s)
    identity = np.eye(2)
    return {
        "dilation-of-a-larger-system-dim": (
            {"system_dim": 4, "dilation": d},
            ScenarioFileError, None, "outcome 'D1': expected 8 [re, im] pairs",
        ),
        "dilation-of-a-smaller-system-dim": (
            {"system_dim": 2, "dilation": d},
            ScenarioFileError, None, "outcome 'D1': expected 4 [re, im] pairs",
        ),
        "povm-vector-of-another-dim": (
            {"system_dim": 4, "povm": povm_DA(s)},
            ScenarioFileError, None, "povm 'D1': expected 4 [re, im] pairs",
        ),
        "povm-matrix-of-another-dim": (
            {"system_dim": 3, "povm": Povm(2, ["I"], np.zeros((1, 2), complex), {0: identity})},
            ScenarioFileError, None, "povm 'I': expected a 3x3 matrix",
        ),
        "state-vector-of-another-dim": (
            {"system_dim": 3, "states": {"psi": np.array([1.0, 0.0])}},
            ScenarioFileError, None, "state 'psi': expected 3 [re, im] pairs",
        ),
        "state-matrix-of-another-dim": (
            {"system_dim": 3, "states": {"rho": np.eye(2) / 2}},
            ScenarioFileError, None, "state 'rho': expected a 3x3 matrix",
        ),
        "state-label-that-is-not-a-string": (
            {"system_dim": 2, "states": {1: np.array([1.0, 0.0])}},
            ScenarioFileError, None, "states: every entry needs a string label",
        ),
        "hardy-labels-that-are-not-strings": (
            {"system_dim": 3, "hardy": (1, 2, 3)},
            ScenarioFileError, None, "hardy labels must be strings",
        ),
        "hardy-of-two-labels": (
            {"system_dim": 3, "hardy": ("F", "D1")},
            ScenarioFileError, None, "hardy must map exactly the keys f, d1, d2",
        ),
        "mixed-state-of-trace-2": (
            {"system_dim": 2, "states": {"r": identity}},
            ValidationError, "unit-trace", "trace 2.0 != 1",
        ),
        "mixed-state-with-a-negative-eigenvalue": (
            {"system_dim": 2, "states": {"r": np.diag([1.5, -0.5])}},
            ValidationError, "positivity", "density matrix has eigenvalue -5.000e-01 < 0",
        ),
        "mixed-state-that-is-not-hermitian": (
            {"system_dim": 2, "states": {"r": np.array([[0.5, 1.0], [0.0, 0.5]])}},
            ValidationError, "hermiticity", "density matrix is not Hermitian (residual 1.000e+00)",
        ),
    }


@pytest.mark.parametrize("name", list(_misfits()))
def test_a_scenario_refuses_what_its_file_could_not_hold(name):
    fields, error, invariant, message = _misfits()[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as built:
        Scenario(**fields)
    unchecked = object.__new__(Scenario)  # as a scenario was built before the check
    empty = {"dilation": None, "povm": None, "states": {}, "hardy": None}
    for key, value in {**empty, **fields}.items():
        object.__setattr__(unchecked, key, value)
    with pytest.raises(error, match=f"^{re.escape(message)}$") as read:
        scenario_from_dict(json.loads(_written(unchecked)))
    for caught in (built, read):
        assert type(caught.value) is error
        assert getattr(caught.value, "invariant", None) == invariant


def test_a_scenarios_tol_is_keyword_only_and_neither_compared_nor_shown():
    with pytest.raises(TypeError):
        Scenario(2, None, None, {}, None, 1e-5)
    loose = Scenario(2, tol=1e-5)
    assert loose.tol == 1e-5 and loose == Scenario(2)
    assert repr(loose) == repr(Scenario(2)) and "tol" not in repr(loose)


def test_a_mixed_state_is_checked_at_the_scenarios_tol():
    rho = np.diag([0.5 + 1e-6, 0.5])  # trace 1 + 1e-6
    assert np.array_equal(Scenario(2, states={"r": rho}, tol=1e-5).states["r"], rho)
    with pytest.raises(ValidationError, match=r"^trace 1\.000001\d* != 1$") as caught:
        Scenario(2, states={"r": rho})
    assert caught.value.invariant == "unit-trace"


def test_a_file_records_no_tol_so_a_looser_part_loads_only_at_that_tol(tmp_path):
    rho = np.diag([0.5 + 1e-6, 0.5])  # trace 1 + 1e-6
    scenario = Scenario(2, states={"r": rho}, tol=1e-5)
    path = tmp_path / "loose.json"
    save_scenario(path, scenario)
    with pytest.raises(ValidationError, match=r"^trace 1\.000001\d* != 1$") as caught:
        load_scenario(path)
    assert caught.value.invariant == "unit-trace"
    assert load_scenario(path, tol=1e-5) == scenario


@pytest.mark.parametrize("hardy", [("F", "D1", "D2", "R1"), "FDD"], ids=["four", "a-string"])
def test_a_scenario_refuses_a_hardy_that_is_not_three_labels(hardy):
    """Four labels would be cut to three on save, and a string read as its letters."""
    povm = load_fixture("hardy").povm
    with pytest.raises(ScenarioFileError, match="^hardy must map exactly the keys f, d1, d2$"):
        Scenario(3, povm=povm, hardy=hardy)


def test_a_hardy_list_is_stored_as_the_tuple_a_file_loads_back(tmp_path):
    scenario = Scenario(3, povm=load_fixture("hardy").povm, hardy=["F", "D1", "D2"])
    assert scenario.hardy == ("F", "D1", "D2")
    save_scenario(tmp_path / "list.json", scenario)
    assert load_scenario(tmp_path / "list.json") == scenario


def test_phi_init_and_pure_states_are_read_only_copies_compared_by_value():
    s = build_three_path()
    d = dilation_DA(s)
    phi, plus = np.array(d.phi_init), np.ones(3) / np.sqrt(3.0)
    scenario = Scenario(3, with_phi_init(d, phi), states={"plus": plus})
    phi[0] = plus[0] = 0.0
    for stored in (scenario.dilation.phi_init, scenario.states["plus"]):
        assert stored.dtype == complex and stored[0] != 0.0
        with pytest.raises(ValueError):
            stored[0] = 0.0
    pure = {"plus": np.ones(3) / np.sqrt(3.0)}
    assert scenario == Scenario(3, d, states=pure)
    assert scenario != Scenario(3, with_phi_init(d, s.a), states=pure)
    mixed = {"plus": np.eye(3) / 3.0}
    assert scenario != Scenario(3, d, states=mixed)
    assert Scenario(3, d, states=mixed) != scenario


def test_states_are_a_read_only_mapping_of_read_only_arrays(tmp_path):
    scenario = load_fixture("hardy")
    with pytest.raises(TypeError):
        scenario.states["bad"] = np.array([np.nan, 0.0, 0.0])
    assert list(scenario.states) == ["hardy"]
    mixed = Scenario(3, states={"rho": np.eye(3) / 3.0}).states["rho"]
    assert mixed.dtype == complex and mixed.shape == (3, 3)
    with pytest.raises(ValueError):
        mixed[0, 0] = 1.0
    path = tmp_path / "hardy.json"
    save_scenario(path, scenario)
    assert load_scenario(path) == scenario


def test_physical_invariants_still_apply():
    raw = _da_dict()
    raw["outcomes"][0]["vector"] = raw["outcomes"][1]["vector"]
    with pytest.raises(ValidationError):
        scenario_from_dict(raw)
    raw = _da_dict()
    raw["states"][0]["matrix"] = matrix_entry(np.eye(3))
    del raw["states"][0]["vector"]
    with pytest.raises(ValidationError):
        scenario_from_dict(raw)


def test_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(ScenarioFileError):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioFileError):
        load_scenario(bad)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_loading_leaves_the_garbage_collector_as_it_found_it(monkeypatch, tmp_path, enabled):
    good, bad_json, bad_povm = (tmp_path / f"{name}.json" for name in ("good", "json", "povm"))
    write_raw(good, _da_dict())
    bad_json.write_text("{not json")
    write_raw(bad_povm, {**_da_dict(), "povm": "not a list"})
    seen = []  # whether the collector was on while the parsed tree was read

    def read(*args):
        seen.append(gc.isenabled())
        return scenario_from_dict(*args)

    monkeypatch.setattr(ctxlab.scenario_io, "scenario_from_dict", read)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert load_scenario(good).povm is not None and gc.isenabled() is enabled
        for path in (bad_json, bad_povm):
            with pytest.raises(ScenarioFileError):
                load_scenario(path)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


def test_bundled_fixture_contents():
    vh = load_fixture("three-path-VH")
    assert vh.resolve_povm().labels() == ("V1", "V2", "V3", "H1", "H2", "H3")
    derived = povm_from_dilation(vh.dilation)
    for row, row2 in zip(vh.povm.vectors, derived.vectors):
        assert np.abs(row - row2).max() <= 1e-15
    da = load_fixture("three-path-DA")
    assert da.povm.labels() == ("D1", "D2", "D3", "A")
    assert orthonormality_residual(da.dilation.vectors) <= 1e-12
    hardy = load_fixture("hardy")
    assert hardy.hardy == ("F", "D1", "D2")
    assert set(hardy.states) == {"hardy"}
    assert hardy.povm.labels() == ("F", "D1", "D2", "R1", "R2", "R3")


def test_write_fixtures_to_a_directory(tmp_path):
    written = write_fixtures(tmp_path)
    assert sorted(p.name for p in written) == sorted(f"{n}.json" for n in FIXTURE_NAMES)
    for path in written:
        assert load_scenario(path).system_dim == 3
        assert path.read_bytes() == fixture_path(path.stem).read_bytes()


def test_unknown_fixture_names_are_rejected():
    with pytest.raises(ScenarioFileError):
        fixture_path("nope")


def _rows_beside_operators(rng: np.random.Generator, dim: int, merge: bool) -> Povm:
    """Random rows beside four operators, built at tol 1e-5: positive and full rank,
    positive and rank-deficient, one with a negative eigenvalue, all three Hermitian in
    value, and one Hermitian only within tol. With ``merge``, the first operator and the
    two rows after it are merged into one element."""
    spectra = [
        rng.random(dim),
        np.r_[rng.random(dim - 1), 0.0],
        np.r_[-rng.random(), rng.random(dim - 1)],
        rng.random(dim),
    ]
    operators = []
    for spectrum in spectra:
        u = random_unitary(rng, dim)
        m = (u * spectrum) @ u.conj().T
        operators.append(m / 2 + m.conj().T / 2)
    operators[-1] = operators[-1] + 1e-7 * rng.normal(size=(dim, dim))
    count = len(operators) + dim + 2
    rows = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    at = rng.choice(count, len(operators), replace=False)
    rows[at] = 0.0
    labels = [f"m{m}" for m in range(count)]
    p = Povm(dim, labels, rows, dict(zip(at.tolist(), operators)), tol=1e-5)
    if not merge:
        return p
    others = [labels[k] for k in range(count) if k not in at]
    return coarse_grain(p, [labels[at[0]], *others[:2]], "merged")


@pytest.mark.parametrize("merge", [False, True], ids=["built", "merged"])
def test_a_povm_with_operators_is_exact_through_the_constructor_and_a_file(tmp_path, merge):
    rng = np.random.default_rng(42)
    for case in range(30):
        p = _rows_beside_operators(rng, 2 + case % 5, merge)
        assert p.operators
        assert Povm(p.system_dim, p.labels(), p.vectors, p.operators, 1e-5) == p
        path = tmp_path / f"case{case}.json"
        save_scenario(path, Scenario(p.system_dim, povm=p))
        first = path.read_bytes()
        loaded = load_scenario(path)
        assert loaded.povm == p
        save_scenario(path, loaded)
        assert path.read_bytes() == first


def test_a_matrix_hermitian_only_within_a_loose_tol_saves_and_loads_back_equal(tmp_path):
    skew = np.array([[1.0, 1e-6], [0.0, 1.0]])
    p = Povm(2, ["skew", "row"], np.array([[0.0, 0.0], [0.6, 0.8]]), {0: skew}, tol=1e-5)
    path = tmp_path / "skew.json"
    save_scenario(path, Scenario(2, povm=p))
    assert load_scenario(path).povm == p


def test_operator_positions_are_python_ints_in_order():
    a, b = np.eye(2) / 2.0, np.diag([0.25, 0.75])
    p = Povm(2, list("abcd"), np.zeros((4, 2)), {np.int64(3): a, 1: b})
    assert list(p.operators) == [1, 3] and {type(k) for k in p.operators} == {int}


@st.composite
def scenarios(draw):
    """Scenarios with rank-1 and operator elements, pure and mixed states, and
    optionally a Naimark dilation and a hardy block; d <= 6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 6))
    rank1 = random_rank1_povm(rng, dim, draw(st.integers(max(dim, 3), dim + 3)))
    m0, m1 = rank1.vectors[:2]
    pair = np.outer(m0, m0.conj()) + np.outer(m1, m1.conj())
    rows = np.concatenate([np.zeros((1, dim), dtype=complex), rank1.vectors[2:]])
    povm = Povm(dim, ("pair",) + rank1.labels()[2:], rows, {0: pair})
    signed_zero = np.full(dim, complex(-0.0, -0.0))
    signed_zero[-1] = complex(1.0, -0.0)
    states = {"signed-zero": signed_zero}
    for k in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            states[f"pure{k}"] = random_pure_state(rng, dim)
        else:
            u = random_unitary(rng, dim)
            weights = rng.random(dim)
            rho = (u * (weights / weights.sum())) @ u.conj().T
            states[f"mixed{k}"] = (rho + rho.conj().T) / 2.0
    dilation = naimark_dilate(rank1) if draw(st.booleans()) else None
    hardy = ("pair", "m2", povm.labels()[-1]) if draw(st.booleans()) else None
    return Scenario(dim, dilation, povm, states, hardy)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(scenarios())
def test_scenario_json_round_trip_is_exact(scenario):
    first = _written(scenario)
    assert "-0.0" in first
    loaded = scenario_from_dict(json.loads(first))
    assert loaded == scenario
    assert _bits(loaded.povm.vectors) == _bits(scenario.povm.vectors)
    for k, op in scenario.povm.operators.items():
        assert _bits(loaded.povm.operators[k]) == _bits(op)
    assert _written(loaded) == first


@settings(max_examples=40, derandomize=True, deadline=None)
@given(scenarios())
def test_a_scenario_is_written_from_its_stacks_as_its_dict_would_be(scenario):
    text = _written(scenario)
    assert _redumped(text) == text


# Each part alone: -0.0 must not share the +0.0 pair's string.
_EDGE_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 9.999e15, 1e-5, 1e-4, -1e-4, 0.1]
# repr switches to exponent form at 1e16 and below 1e-4.
_parts = st.sampled_from(_EDGE_PARTS) | st.floats(allow_nan=False, allow_infinity=False)
_texts = st.sampled_from(["", "label", '"\\\n\t\x00\x7f', "\u00e9\u2028", "\U0001f600"]) | st.text()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(_texts, min_size=3, max_size=5, unique=True), st.data())
def test_writer_equals_the_indented_json_dump(labels, data):
    """Any labels, in sections and the hardy block, and any finite parts."""
    parts = data.draw(st.lists(_parts, min_size=4 * len(labels), max_size=4 * len(labels)))
    rows = np.array(parts).view(complex).reshape(len(labels), 2)
    states = {label: row for label, row in zip(labels, rows)}
    scenario = Scenario(2, povm=Povm(2, labels, rows), states=states, hardy=tuple(labels[:3]))
    text = _written(scenario)
    assert _redumped(text) == text


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_hand_built_stacks_are_written_as_their_dict_would_be(dim):
    pairs = np.array([(re, im) for re in _EDGE_PARTS for im in _EDGE_PARTS])
    outcomes = np.resize(pairs.view(complex).ravel(), (7, 7 * dim))  # every pair from dim 3
    outcomes[4] = 0.0
    rows = outcomes[:, -dim:].copy()
    rows[[0, 3]] = 0.0  # an all-zero row, and the operator element's
    labels = [f"m{k}" for k in range(7)]
    diagonal = np.eye(dim, dtype=bool)
    operator = np.where(diagonal, 0.25, complex(-0.0, -0.0))
    povm = Povm(dim, labels, rows, {3: operator})
    states = {
        "edge": rows[1],
        "zero": rows[0],
        "mixed": np.where(diagonal, 1.0 / dim, complex(0.0, -0.0)),
    }
    # checked at no tolerance, so that phi_init keeps the edge parts unnormalised
    dilation = Dilation(7, dim, labels, outcomes, outcomes[1, :7], np.inf)
    scenario = Scenario(dim, dilation, povm, states, ("m1", "m2", "m3"))
    text = _written(scenario)
    assert _redumped(text) == text
    assert all(f" {part}" in text for part in ("-0.0", "5e-324", "1e+16", "1e-05", "0.0001"))


def test_each_zero_mask_gets_its_own_row_template():
    rows = np.array(
        [
            [0.5, 0.0, 0.25j],
            [0.125, 0.0, -0.5],  # the zero mask of row 0
            [0.5, complex(-0.0, 0.0), 0.25j],  # row 0 but for a -0.0 part
            [0.0, 0.5, 0.25j],  # as many zero pairs as row 0, elsewhere
        ]
    )
    labels = [f"m{k}" for k in range(len(rows))]
    scenario = Scenario(3, povm=Povm(3, labels, rows))
    section = [{"label": label, "vector": _zeros_as_ints(row)} for label, row in zip(labels, rows)]
    raw = {"version": 1, "system_dim": 3, "povm": section}
    assert _written(scenario) == json.dumps(raw, indent=2) + "\n"


def _zeros_as_ints(stack: np.ndarray) -> list:
    """``encode_vector``'s pairs of a row, or of each row of a matrix, with every pair of
    two +0.0 as the integers ``[0, 0]``, as the writer spells it."""
    if stack.ndim == 2:
        return [_zeros_as_ints(row) for row in stack]
    return [[0, 0] if repr(pair) == "[0.0, 0.0]" else pair for pair in encode_vector(stack)]


# Every stack a file holds, each with +0 pairs, a -0.0 part and [x, 0.0] pairs.
_SIGNED_OUTCOMES = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [complex(-0.0, 0.0), 1j, 0.0, 0.0],
        [0.0, 0.0, complex(0.6, -0.0), 0.8],
        [0.0, 0.0, -0.8, 0.6],
    ]
)
_SIGNED_PHI_INIT = np.array([0.0, complex(1.0, -0.0)])
_SIGNED_ROWS = np.array([[1.0, 0.0], [complex(-0.0, 0.0), 0.5j], [0.0, 0.0]])
_SIGNED_OPERATOR = np.array([[0.5, complex(-0.0, -0.0)], [0.0, complex(0.25, -0.0)]])
_SIGNED_STATES = {
    "pure": np.array([complex(0.0, -0.0), 1.0]),
    "mixed": np.array([[1.0, 0.0], [complex(-0.0, 0.0), 0.0]]),
}


def _signed_zero_scenario() -> Scenario:
    labels = [f"o{k}" for k in range(4)]
    dilation = Dilation(2, 2, labels, _SIGNED_OUTCOMES, _SIGNED_PHI_INIT)
    povm = Povm(2, ["a", "b", "M"], _SIGNED_ROWS, {2: _SIGNED_OPERATOR})
    return Scenario(2, dilation, povm, _SIGNED_STATES)


def _signed_zero_raw(encode) -> dict:
    """The file dict of ``_signed_zero_scenario()``, each stack's pairs as ``encode`` gives them."""
    outcomes = [{"label": f"o{k}", "vector": encode(row)} for k, row in enumerate(_SIGNED_OUTCOMES)]
    povm = [{"label": label, "vector": encode(row)} for label, row in zip("ab", _SIGNED_ROWS)]
    povm.append({"label": "M", "matrix": encode(_SIGNED_OPERATOR)})
    states = [{"label": "pure", "vector": encode(_SIGNED_STATES["pure"])}]
    states.append({"label": "mixed", "matrix": encode(_SIGNED_STATES["mixed"])})
    return {
        "version": 1,
        "system_dim": 2,
        "env_dim": 2,
        "outcomes": outcomes,
        "phi_init": encode(_SIGNED_PHI_INIT),
        "povm": povm,
        "states": states,
    }


def _float_pairs(stack: np.ndarray) -> list:
    """``encode_vector``'s pairs of a row, or of each row of a matrix: every part a float."""
    return [encode_vector(row) for row in stack] if stack.ndim == 2 else encode_vector(stack)


def _assert_same_bits(loaded: Scenario, scenario: Scenario) -> None:
    assert loaded == scenario
    pairs = [
        (loaded.dilation.vectors, scenario.dilation.vectors),
        (loaded.dilation.phi_init, scenario.dilation.phi_init),
        (loaded.povm.vectors, scenario.povm.vectors),
        (loaded.povm.operators[2], scenario.povm.operators[2]),
        *((loaded.states[label], scenario.states[label]) for label in scenario.states),
    ]
    for got, expected in pairs:
        assert _bits(got) == _bits(expected)


def test_a_pair_of_two_positive_zeros_is_written_as_integers_and_loads_back_bit_for_bit(tmp_path):
    scenario = _signed_zero_scenario()
    text = _written(scenario)
    assert text == json.dumps(_signed_zero_raw(_zeros_as_ints), indent=2) + "\n"
    assert all(part in text for part in ("-0.0", " 0.0,", " 0.0\n", " 0,", " 0\n"))
    path = tmp_path / "signed.json"
    path.write_text(text, encoding="utf-8")
    _assert_same_bits(load_scenario(path), scenario)


def test_a_file_with_float_zero_pairs_loads_equal_and_is_rewritten_once(tmp_path):
    scenario = _signed_zero_scenario()
    old = tmp_path / "old.json"
    write_raw(old, _signed_zero_raw(_float_pairs))  # as the writer spelled +0 pairs before
    assert "[0, 0]" not in json.dumps(json.loads(old.read_text()))
    loaded = load_scenario(old)
    _assert_same_bits(loaded, scenario)
    first = _written(loaded)
    assert first == _written(scenario) != old.read_text()
    again = tmp_path / "again.json"
    again.write_text(first, encoding="utf-8")
    assert _written(load_scenario(again)) == first


def test_saving_a_large_dilation_traces_less_memory_than_the_file_it_writes(tmp_path):
    d = naimark_dilate(random_rank1_povm(np.random.default_rng(8), 8, 64))
    scenario = Scenario(8, d, povm_from_dilation(d))
    path = tmp_path / "dilated.json"
    save_scenario(path, scenario)  # a first call, so only the writer itself is traced
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        save_scenario(path, scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def test_loading_a_large_dilation_traces_a_small_multiple_of_its_file(tmp_path):
    d = naimark_dilate(random_rank1_povm(np.random.default_rng(8), 8, 64))
    path = tmp_path / "dilated.json"
    save_scenario(path, Scenario(8, d, povm_from_dilation(d)))
    load_scenario(path)  # a first call, so only the reader itself is traced
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        load_scenario(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # About 3.0x: the text, then a tree whose [0, 0] padding holds the one cached int 0.
    # Written as [0.0, 0.0], each padding number is a float of its own: about 3.6x.
    assert peak < 3.3 * path.stat().st_size


def test_a_lone_env_dim_is_checked_and_not_kept():
    povm = [{"label": "I", "matrix": matrix_entry(np.eye(2))}]
    raw = {"version": 1, "system_dim": 2, "povm": povm}
    scenario = scenario_from_dict({**raw, "env_dim": 3})
    assert scenario == scenario_from_dict(raw)
    assert "env_dim" not in json.loads(_written(scenario))
    for bad in (0, -1, True, 3.0, "3", None):
        with pytest.raises(ScenarioFileError, match="^env_dim must be a positive integer$"):
            scenario_from_dict({**raw, "env_dim": bad})
