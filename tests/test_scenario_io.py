"""Scenario file round trips, schema policing, and the bundled fixtures."""

from __future__ import annotations

import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxlab import (
    FIXTURE_NAMES,
    DensityMatrix,
    JointOutcomeSet,
    Ket,
    Operator,
    Povm,
    Scenario,
    ScenarioFileError,
    Space,
    ValidationError,
    build_three_path,
    decode_matrix,
    decode_vector,
    dilation_DA,
    dilation_VH,
    encode_matrix,
    encode_vector,
    fixture_dict,
    fixture_path,
    load_fixture,
    load_scenario,
    naimark_dilate,
    povm_DA,
    povm_from_dilation,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_fixtures,
)
from ctxlab.cli import main
from helpers import random_pure_state, random_rank1_povm, random_unitary


def _da_dict():
    s = build_three_path()
    d = dilation_DA(s)
    return scenario_to_dict(
        Scenario(
            system_dim=3,
            env_dim=2,
            outcomes=d.outcomes,
            phi_init=d.phi_init,
            povm=povm_DA(s, merge_A=True),
            states={"plus": Ket(s.system, np.ones(3) / np.sqrt(3.0))},
            hardy=("D1", "D2", "D3"),
        )
    )


def test_vector_codec_round_trip():
    rng = np.random.default_rng(61)
    vec = rng.normal(size=5) + 1j * rng.normal(size=5)
    decoded = decode_vector(encode_vector(vec), 5, "test")
    np.testing.assert_array_equal(decoded, vec)
    mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_array_equal(decode_matrix(encode_matrix(mat), 3, "test"), mat)


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
    text = json.dumps(fixture_dict("hardy")).replace("[0.0, 0.0]", f"[{literal}, 0.0]", 1)
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
        raw["povm"].append({"label": "M", "matrix": encode_matrix(third)})
        raw["states"].append({"label": "mixed", "matrix": encode_matrix(third)})
    assert "-0.0" in json.dumps(raw)
    tupled = _tupled(raw)
    assert type(tupled["phi_init"][0]) is tuple and type(tupled["povm"][0]["vector"][0]) is tuple
    plain, loaded = scenario_from_dict(raw), scenario_from_dict(tupled)
    assert _bits(loaded.outcomes.vectors) == _bits(plain.outcomes.vectors)
    assert _bits(loaded.phi_init.amplitudes) == _bits(plain.phi_init.amplitudes)
    assert _bits(loaded.povm.vectors) == _bits(plain.povm.vectors)
    assert _bits(loaded.states["plus"].amplitudes) == _bits(plain.states["plus"].amplitudes)
    if with_matrices:
        m = len(plain.povm) - 1
        assert list(loaded.povm.operators) == list(plain.povm.operators) == [m]
        assert _bits(loaded.povm.operators[m].entries) == _bits(third)
        assert _bits(loaded.states["mixed"].matrix) == _bits(third)


@pytest.mark.parametrize("section", ["povm", "states"])
def test_a_non_hermitian_matrix_before_a_malformed_vector_is_reported_first(
    capsys, tmp_path, section
):
    raw = fixture_dict("hardy")
    skewed = encode_matrix(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    raw[section][:0] = [
        {"label": "skewed", "matrix": skewed},
        {"label": "short", "vector": [[1.0, 0.0]]},
    ]
    path = tmp_path / "skewed.json"
    save_scenario(path, raw)
    assert main(["povm", "check", str(path)]) == 3
    assert capsys.readouterr().err.startswith("invariant violation [hermiticity]: ")


def _written(raw: dict | Scenario) -> str:
    """The text ``save_scenario`` writes for ``raw``, newlines untranslated."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "written.json"
        save_scenario(path, raw)
        return path.read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", ["three-path-VH", "three-path-DA"])
def test_negative_zero_survives_a_load_and_dump(name):
    text = fixture_path(name).read_text()
    assert "-0.0" in text
    sc = load_scenario(fixture_path(name))
    raw = scenario_to_dict(sc)
    assert json.dumps(raw, indent=2) + "\n" == text
    assert _written(raw).encode("utf-8") == fixture_path(name).read_bytes()


def test_dict_round_trip_preserves_everything():
    raw = _da_dict()
    sc = scenario_from_dict(raw)
    assert sc.system_dim == 3 and sc.env_dim == 2
    assert sc.hardy == ("D1", "D2", "D3")
    assert set(sc.states) == {"plus"}
    d = sc.dilation()
    s = build_three_path()
    reference = dilation_DA(s)
    assert d.outcomes.labels() == reference.outcomes.labels()
    np.testing.assert_array_equal(d.outcomes.vectors, reference.outcomes.vectors)
    np.testing.assert_array_equal(d.phi_init.amplitudes, reference.phi_init.amplitudes)
    assert sc.povm.labels() == ("D1", "D2", "D3", "A")


def test_file_round_trip(tmp_path):
    path = tmp_path / "da.json"
    save_scenario(path, _da_dict())
    sc = load_scenario(path)
    assert sc.resolve_povm().labels() == ("D1", "D2", "D3", "A")
    assert path.read_text().endswith("}\n")


def test_matrix_states_and_operator_elements_round_trip(tmp_path):
    space = Space.system(2)
    mixed = DensityMatrix.from_matrix(np.eye(2) / 2.0)
    raw = scenario_to_dict(
        Scenario(
            system_dim=2,
            povm=Povm(
                2,
                ["half", "rest"],
                np.zeros((2, 2), dtype=complex),
                {
                    0: Operator(space, np.eye(2) / 2.0),
                    1: Operator(space, np.eye(2) / 2.0),
                },
            ),
            states={"mixed": mixed},
        )
    )
    path = tmp_path / "ops.json"
    save_scenario(path, raw)
    sc = load_scenario(path)
    op = sc.povm.operators[sc.povm.labels().index("half")]
    np.testing.assert_array_equal(op.entries, np.eye(2) / 2.0)
    assert isinstance(sc.states["mixed"], DensityMatrix)


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
    with pytest.raises(ScenarioFileError):
        bare.dilation()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw.update(version=2),
        lambda raw: raw.pop("version"),
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
        lambda raw: raw["povm"][0].update(matrix=encode_matrix(np.eye(3))),
        lambda raw: raw["povm"][0].pop("vector"),
        lambda raw: raw["states"][0].update(matrix=encode_matrix(np.eye(3))),
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


def _misfits() -> dict[str, tuple[dict, str]]:
    """Scenario fields that a file could not hold, with the error its reader gives."""
    s = build_three_path()
    d = dilation_DA(s)
    sys2 = Space.system(2)
    identity = Operator.identity(sys2)
    return {
        "outcomes-of-another-dim": (
            {"system_dim": 3, "env_dim": 5, "outcomes": d.outcomes, "phi_init": d.phi_init},
            "outcome 'D1': expected 15 [re, im] pairs",
        ),
        "phi-init-of-another-dim": (
            {"system_dim": 2, "env_dim": 3, "outcomes": d.outcomes, "phi_init": d.phi_init},
            "phi_init: expected 3 [re, im] pairs",
        ),
        "no-env-dim": (
            {"system_dim": 3, "outcomes": d.outcomes, "phi_init": d.phi_init},
            "env_dim must be a positive integer",
        ),
        "outcomes-without-phi-init": (
            {"system_dim": 3, "env_dim": 2, "outcomes": d.outcomes},
            "outcomes and phi_init must appear together",
        ),
        "phi-init-without-outcomes": (
            {"system_dim": 3, "env_dim": 2, "phi_init": d.phi_init},
            "outcomes and phi_init must appear together",
        ),
        "povm-vector-of-another-dim": (
            {"system_dim": 4, "povm": povm_DA(s)},
            "povm 'D1': expected 4 [re, im] pairs",
        ),
        "povm-matrix-of-another-dim": (
            {"system_dim": 3, "povm": Povm(2, ["I"], np.zeros((1, 2), complex), {0: identity})},
            "povm 'I': expected a 3x3 matrix",
        ),
        "state-vector-of-another-dim": (
            {"system_dim": 3, "states": {"psi": Ket(sys2, np.array([1.0, 0.0]))}},
            "state 'psi': expected 3 [re, im] pairs",
        ),
        "state-matrix-of-another-dim": (
            {"system_dim": 3, "states": {"rho": DensityMatrix.from_matrix(np.eye(2) / 2)}},
            "state 'rho': expected a 3x3 matrix",
        ),
    }


@pytest.mark.parametrize("name", list(_misfits()))
def test_a_scenario_refuses_what_its_file_could_not_hold(name):
    fields, message = _misfits()[name]
    with pytest.raises(ScenarioFileError, match=f"^{re.escape(message)}$"):
        Scenario(**fields)
    unchecked = object.__new__(Scenario)  # as a scenario was built before the check
    empty = {"env_dim": None, "outcomes": None, "phi_init": None, "povm": None, "states": {}}
    for key, value in {**empty, "hardy": None, **fields}.items():
        object.__setattr__(unchecked, key, value)
    with pytest.raises(ScenarioFileError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(scenario_to_dict(unchecked))


def test_a_scenario_refuses_outcomes_on_other_factors_of_its_joint_dimension(tmp_path):
    d = naimark_dilate(povm_from_dilation(dilation_VH(build_three_path())))
    assert d.outcomes.space == Space.joint(6, 3)
    phi_init = Ket(Space.environment(9), np.eye(9)[0])  # 9 * 2 == 6 * 3
    message = "outcomes are on joint(env 6, sys 3), not joint(env 9, sys 2)"
    with pytest.raises(ScenarioFileError, match=f"^{re.escape(message)}$"):
        Scenario(2, 9, d.outcomes, phi_init)
    path = tmp_path / "vh.json"
    save_scenario(path, Scenario(3, 6, d.outcomes, d.phi_init))
    assert load_scenario(path).outcomes == d.outcomes


def test_physical_invariants_still_apply():
    raw = _da_dict()
    raw["outcomes"][0]["vector"] = raw["outcomes"][1]["vector"]
    with pytest.raises(ValidationError):
        scenario_from_dict(raw)
    raw = _da_dict()
    raw["states"][0]["matrix"] = encode_matrix(np.eye(3))
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


def test_bundled_fixtures_match_regeneration():
    for name in FIXTURE_NAMES:
        on_disk = json.loads(fixture_path(name).read_text())
        assert on_disk == fixture_dict(name)


def test_bundled_fixture_contents():
    vh = load_fixture("three-path-VH")
    assert vh.resolve_povm().labels() == ("V1", "V2", "V3", "H1", "H2", "H3")
    derived = povm_from_dilation(vh.dilation())
    for row, row2 in zip(vh.povm.vectors, derived.vectors):
        assert np.abs(row - row2).max() <= 1e-15
    da = load_fixture("three-path-DA")
    assert da.povm.labels() == ("D1", "D2", "D3", "A")
    assert da.dilation().outcomes.orthonormality_residual() <= 1e-12
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
        fixture_dict("nope")
    with pytest.raises(ScenarioFileError):
        fixture_path("nope")


@st.composite
def scenarios(draw):
    """Scenarios with rank-1 and operator elements, pure and mixed states, and
    optionally a Naimark dilation and a hardy block; d <= 6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 6))
    rank1 = random_rank1_povm(rng, dim, draw(st.integers(max(dim, 3), dim + 3)))
    space = Space.system(dim)
    m0, m1 = rank1.vectors[:2]
    pair = np.outer(m0, m0.conj()) + np.outer(m1, m1.conj())
    rows = np.concatenate([np.zeros((1, dim), dtype=complex), rank1.vectors[2:]])
    povm = Povm(dim, ("pair",) + rank1.labels()[2:], rows, {0: Operator(space, pair)})
    signed_zero = np.full(dim, complex(-0.0, -0.0))
    signed_zero[-1] = complex(1.0, -0.0)
    states = {"signed-zero": Ket(space, signed_zero)}
    for k in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            states[f"pure{k}"] = random_pure_state(rng, dim)
        else:
            u = random_unitary(rng, dim)
            weights = rng.random(dim)
            rho = (u * (weights / weights.sum())) @ u.conj().T
            states[f"mixed{k}"] = DensityMatrix.from_matrix((rho + rho.conj().T) / 2.0)
    dilated = {}
    if draw(st.booleans()):
        d = naimark_dilate(rank1)
        dilated = dict(env_dim=len(rank1), outcomes=d.outcomes, phi_init=d.phi_init)
    hardy = ("pair", "m2", povm.labels()[-1]) if draw(st.booleans()) else None
    return Scenario(dim, povm=povm, states=states, hardy=hardy, **dilated)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(scenarios())
def test_scenario_json_round_trip_is_exact(scenario):
    first = json.dumps(scenario_to_dict(scenario), indent=2)
    assert "-0.0" in first
    again = scenario_to_dict(scenario_from_dict(json.loads(first)))
    assert json.dumps(again, indent=2) == first




# repr switches to exponent form at 1e16 and below 1e-4.
_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 1e-4, 9.999e15]
_floats = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)
_texts = st.sampled_from(["", "label", '"\\\n\t\x00\x7f', "\u00e9\u2028", "\U0001f600"]) | st.text()
_numbers = _floats | st.integers(-(2**70), 2**70) | st.booleans()
_pairs = st.tuples(_floats, _floats).map(list) | st.lists(_numbers, min_size=1, max_size=3)
_leaves = (
    _numbers
    | _texts
    | st.none()
    | st.lists(_pairs, max_size=5)
    | st.lists(st.tuples(_floats, _floats).map(list), min_size=1, max_size=5)
    | st.just([])
    | st.just({})
)
_keys = _texts | st.integers() | _floats | st.booleans() | st.none()
_trees = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_texts, children, max_size=4)
    | st.dictionaries(_keys, children, max_size=3),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.dictionaries(_texts, _trees, max_size=4))
def test_writer_equals_the_indented_json_dump(raw):
    assert _written(raw) == json.dumps(raw, indent=2) + "\n"


@settings(max_examples=40, derandomize=True, deadline=None)
@given(scenarios())
def test_writer_equals_the_indented_json_dump_on_scenarios(scenario):
    raw = scenario_to_dict(scenario)
    assert _written(raw) == json.dumps(raw, indent=2) + "\n"


@settings(max_examples=40, derandomize=True, deadline=None)
@given(scenarios())
def test_a_scenario_is_written_from_its_stacks_as_its_dict_would_be(scenario):
    assert _written(scenario) == json.dumps(scenario_to_dict(scenario), indent=2) + "\n"


# Each part alone: -0.0 must not share the +0.0 pair's string.
_EDGE_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 9.999e15, 1e-5, 1e-4, -1e-4, 0.1]


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_hand_built_stacks_are_written_as_their_dict_would_be(dim):
    pairs = np.array([(re, im) for re in _EDGE_PARTS for im in _EDGE_PARTS])
    outcomes = np.resize(pairs.view(complex).ravel(), (7, 7 * dim))  # every pair from dim 3
    outcomes[4] = 0.0
    rows = outcomes[:, -dim:].copy()
    rows[[0, 3]] = 0.0  # an all-zero row, and the operator element's
    labels = [f"m{k}" for k in range(7)]
    space, diagonal = Space.system(dim), np.eye(dim, dtype=bool)
    operator = Operator(space, np.where(diagonal, 0.25, complex(-0.0, -0.0)))
    povm = Povm(dim, labels, rows, {3: operator})
    states = {
        "edge": Ket(space, rows[1]),
        "zero": Ket(space, rows[0]),
        "mixed": DensityMatrix.from_matrix(np.where(diagonal, 1.0 / dim, complex(0.0, -0.0))),
    }
    scenario = Scenario(
        dim,
        7,
        JointOutcomeSet(Space.joint(7, dim), labels, outcomes, validate=False),
        Ket(Space.environment(7), outcomes[1, :7]),
        povm,
        states,
        ("m1", "m2", "m3"),
    )
    text = _written(scenario)
    assert text == json.dumps(scenario_to_dict(scenario), indent=2) + "\n"
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
    section = [{"label": label, "vector": encode_vector(row)} for label, row in zip(labels, rows)]
    raw = {"version": 1, "system_dim": 3, "povm": section}
    assert _written(scenario) == json.dumps(raw, indent=2) + "\n"


def test_saving_a_large_dilation_traces_less_memory_than_the_file_it_writes(tmp_path):
    d = naimark_dilate(random_rank1_povm(np.random.default_rng(8), 8, 64))
    scenario = Scenario(8, 64, d.outcomes, d.phi_init, povm_from_dilation(d))
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


def test_saving_a_too_deeply_nested_dict_is_a_file_error(tmp_path):
    tree: list = []
    for _ in range(1200):
        tree = [tree]
    path = tmp_path / "deep.json"
    with pytest.raises(ScenarioFileError, match="nests too deeply"):
        save_scenario(path, {"tree": tree})
    assert not path.exists()


def test_env_dim_without_a_dilation_loads_and_saves_back_unchanged(tmp_path):
    raw = {
        "version": 1,
        "system_dim": 2,
        "env_dim": 3,
        "povm": [{"label": "I", "matrix": encode_matrix(np.eye(2))}],
    }
    path = tmp_path / "env-only.json"
    save_scenario(path, raw)
    scenario = load_scenario(path)
    assert scenario.env_dim == 3
    assert scenario.outcomes is None and scenario.phi_init is None
    again = tmp_path / "again.json"
    save_scenario(again, scenario_to_dict(scenario))
    assert again.read_bytes() == path.read_bytes()
