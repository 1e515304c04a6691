"""POVM containers, outcome statistics, context relations, and coarse-graining."""

from __future__ import annotations

import dataclasses
import json
import re
from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxlab import (
    DEFAULT_TOL,
    Dilation,
    HardyTriple,
    Povm,
    Scenario,
    SpaceMismatchError,
    UnknownLabelError,
    ValidationError,
    build_three_path,
    coarse_grain,
    completeness_check,
    context_graph,
    context_selection_probability,
    dilation_DA,
    dilation_VH,
    element_bound_residual,
    evaluate_inequality,
    fix_phase,
    fixture_path,
    hwp_transform,
    load_fixture,
    load_scenario,
    maximizing_state,
    naimark_dilate,
    povm_DA,
    povm_from_dilation,
    probability,
    rescaled_probability,
    save_scenario,
    validate_povm,
)
from ctxlab.cli import main
from ctxlab.hilbert import density_matrix
from helpers import (
    element_row,
    random_pure_state,
    random_rank1_povm,
    random_unitary,
    switched,
    unit,
    with_phi_init,
)
from oracles import context_pairs, dense_element_numbers

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


@pytest.fixture(scope="module")
def scenario():
    return build_three_path()


@pytest.fixture(scope="module")
def vh_povm(scenario):
    return povm_from_dilation(dilation_VH(scenario))


@pytest.fixture(scope="module")
def da_povm(scenario):
    return povm_DA(scenario)


def test_element_must_be_a_hermitian_system_operator():
    zero = np.zeros((1, 2), dtype=complex)
    skew = np.array([[0.5, 1e-7], [0.0, 0.5]])
    with pytest.raises(ValidationError) as err:
        Povm(2, ["skew"], zero, {0: skew})
    assert err.value.invariant == "hermiticity"
    # accepted at a looser tol, it is kept as its Hermitian part
    kept = Povm(2, ["skew"], zero, {0: skew}, tol=1e-6).operators[0]
    assert np.array_equal(kept, [[0.5, 1e-7 / 2], [1e-7 / 2, 0.5]])


def test_povm_rejects_duplicate_labels_and_mixed_dims():
    rows = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(ValidationError):
        Povm(2, ["a", "a"], rows)
    with pytest.raises(SpaceMismatchError):
        Povm(2, ["a", "b"], np.zeros((2, 3), dtype=complex))
    with pytest.raises(SpaceMismatchError):
        Povm(2, ["a", "b"], rows * 0.0, {1: _half_identity(dim=3)})
    with pytest.raises(ValidationError):
        Povm(2, (), np.zeros((0, 2), dtype=complex))


def test_the_constructor_keeps_phases_and_fix_phase_makes_them_canonical():
    assert np.array_equal(Povm(2, ["m"], [[0.0, -1.0j]]).vectors, [[0.0, -1.0j]])
    p = Povm(2, ["m"], fix_phase([[0.0, -1.0j]]))
    np.testing.assert_allclose(p.vectors[0], [0.0, 1.0])
    with pytest.raises(UnknownLabelError):
        context_selection_probability(p, "missing")


@pytest.mark.parametrize("name", ["system_dim", "factors", "signs", "vectors", "_index"])
def test_povm_fields_can_be_neither_assigned_nor_deleted(name):
    p = Povm(2, ["a", "b"], np.diag([1.0, 1.0j]))
    assert p.vectors.shape == (2, 2)  # built and cached
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(p, name, None)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(p, name)
    assert p.labels() == ("a", "b") and not p.vectors.flags.writeable


@pytest.mark.parametrize(
    "build",
    [
        lambda rows: Povm(2, ["a", "b"], rows),
        lambda rows: Dilation(1, 2, ["a", "b"], rows, [1.0]),
    ],
    ids=["povm", "outcome-set"],
)
def test_a_stack_is_a_complex_copy_of_the_callers_rows(build):
    source = np.eye(2, dtype=complex)
    stack = build(source[:])
    source[0, 0] = 5.0
    assert source.flags.writeable
    assert np.array_equal(stack.vectors, np.eye(2)) and not stack.vectors.flags.writeable
    for rows in ([[1.0, 0.0], [0.0, 1.0]], np.eye(2)):
        again = build(rows)
        assert again.vectors.dtype == complex and again == stack


def test_a_numpy_array_of_labels_is_taken_as_a_list_is():
    p = Povm(2, np.array(["a", "b"]), np.eye(2))
    assert p.labels() == ("a", "b") and p == Povm(2, ["a", "b"], np.eye(2))


def test_repr_shows_the_labels():
    p = random_rank1_povm(np.random.default_rng(64), 16, 64)
    outcomes = naimark_dilate(p)
    shown = repr(p), repr(outcomes)
    assert shown[0] == f"Povm(labels={p.labels()!r}, system_dim=16)"
    assert shown[1] == f"Dilation(labels={p.labels()!r}, env_dim=64, sys_dim=16)"


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        density_matrix([1.0, 1.0], 2, DEFAULT_TOL)
    with pytest.raises(ValidationError):
        density_matrix(np.array([[0.5, 0.5], [-0.5, 0.5]]), 2, DEFAULT_TOL)
    with pytest.raises(ValidationError):
        density_matrix(np.array([[1.5, 0.0], [0.0, -0.5]]), 2, DEFAULT_TOL)
    with pytest.raises(ValidationError):
        density_matrix(np.eye(2), 2, DEFAULT_TOL)
    mixed = density_matrix(np.eye(2) / 2.0, 2, DEFAULT_TOL)
    assert mixed.shape == (2, 2)


def test_a_ket_is_checked_at_the_tol_it_is_given():
    psi = np.sqrt((1.0 + 2e-7) / 2.0) * np.ones(2)
    with pytest.raises(ValidationError) as err:
        density_matrix(psi, 2, DEFAULT_TOL)
    assert err.value.invariant == "state-normalisation"
    rho = density_matrix(psi, 2, 1e-6)
    assert abs(np.trace(rho).real - (1.0 + 2e-7)) <= 1e-15


def test_completeness_of_derived_povms(vh_povm, da_povm):
    assert completeness_check(vh_povm) <= 1e-12
    assert completeness_check(da_povm) <= 1e-12
    validate_povm(vh_povm)
    validate_povm(da_povm)


def test_dropping_the_plate_outcome_leaves_a_third(da_povm):
    keep = [k for k, label in enumerate(da_povm.labels()) if label != "A"]
    partial = Povm(3, [da_povm.labels()[k] for k in keep], da_povm.vectors[keep])
    assert abs(completeness_check(partial) - 1.0 / 3.0) <= 1e-12


def test_validate_povm_rejects_oversized_elements():
    heavy = Povm(2, ["m"], np.array([[1.1, 0.0]]))
    with pytest.raises(ValidationError) as err:
        validate_povm(heavy)
    assert err.value.invariant == "element-bounds"
    big = {0: 1.5 * np.eye(2)}
    big_op = Povm(2, ["op"], np.zeros((1, 2), dtype=complex), big)
    with pytest.raises(ValidationError) as err:
        validate_povm(big_op)
    assert err.value.invariant == "element-bounds"


def test_path_state_probabilities_on_VH(vh_povm, scenario):
    psi = scenario.paths[0]
    expected = {"V1": 0.5, "V2": 0.0, "V3": 0.0, "H1": 1.0 / 18.0, "H2": 4.0 / 18.0, "H3": 4.0 / 18.0}
    for label, value in expected.items():
        assert abs(probability(vh_povm, psi, label) - value) <= 1e-12
    assert abs(sum(probability(vh_povm, psi, lab) for lab in vh_povm.labels()) - 1.0) <= 1e-12


def test_uniform_state_probabilities_on_DA(da_povm):
    psi = np.ones(3) / SQ3
    assert abs(probability(da_povm, psi, "D1") - 4.0 / 27.0) <= 1e-12
    assert abs(probability(da_povm, psi, "D2") - 4.0 / 27.0) <= 1e-12
    assert abs(probability(da_povm, psi, "D3") - 16.0 / 27.0) <= 1e-12
    assert abs(probability(da_povm, psi, "A") - 1.0 / 9.0) <= 1e-12


def test_mixed_state_probability_is_weight_over_dim(da_povm):
    mixed = np.eye(3) / 3.0
    assert abs(probability(da_povm, mixed, "A") - 1.0 / 3.0) <= 1e-12
    assert abs(probability(da_povm, mixed, "D1") - 2.0 / 9.0) <= 1e-12


def test_probability_checks_the_state(da_povm):
    with pytest.raises(ValidationError):
        probability(da_povm, [1.0, 1.0, 0.0], "A")
    with pytest.raises(SpaceMismatchError):
        probability(da_povm, np.eye(2)[0], "A")


def test_context_selection_probabilities(da_povm, vh_povm):
    for i in (1, 2, 3):
        assert abs(context_selection_probability(da_povm, f"D{i}") - 2.0 / 3.0) <= 1e-12
        assert abs(context_selection_probability(vh_povm, f"V{i}") - 0.5) <= 1e-12
        assert abs(context_selection_probability(vh_povm, f"H{i}") - 0.5) <= 1e-12
    assert abs(context_selection_probability(da_povm, "A") - 1.0) <= 1e-12


def test_operator_element_context_selection_is_peak_probability(da_povm):
    merged = coarse_grain(da_povm, ("D1", "D2"), "D12")
    op = merged.operators[merged.labels().index("D12")]
    # trace 4/3 splits into eigenvalues 1 and 1/3; the peak probability is 1
    assert abs(np.trace(op).real - 4.0 / 3.0) <= 1e-12
    assert abs(context_selection_probability(merged, "D12") - 1.0) <= 1e-12


def test_maximizing_state_attains_the_weight(da_povm):
    for label in da_povm.labels():
        rho = maximizing_state(da_povm, label)
        top = probability(da_povm, rho, label)
        assert abs(top - context_selection_probability(da_povm, label)) <= 1e-12


def test_maximizing_state_requires_rank_one(da_povm):
    merged = coarse_grain(da_povm, ("D1", "D2"), "D12")
    with pytest.raises(ValidationError) as err:
        maximizing_state(merged, "D12")
    assert err.value.invariant == "rank-one"


def test_rescaled_probability_is_scale_free(da_povm):
    rng = np.random.default_rng(37)
    for _ in range(50):
        psi = random_pure_state(rng, 3)
        for label in da_povm.labels():
            r = rescaled_probability(da_povm, psi, label)
            direction = unit(element_row(da_povm, label))
            assert abs(r - abs(np.vdot(direction, psi)) ** 2) <= 1e-12
            assert r <= 1.0 + 1e-9


def test_rescaled_orthogonal_pairs_sum_below_one(da_povm):
    rng = np.random.default_rng(41)
    for _ in range(200):
        psi = random_pure_state(rng, 3)
        for i in (1, 2, 3):
            total = rescaled_probability(da_povm, psi, "A") + rescaled_probability(
                da_povm, psi, f"D{i}"
            )
            assert total <= 1.0 + 1e-9


def test_rescaled_probability_rejects_zero_weight(scenario):
    p = povm_from_dilation(dilation_VH(scenario, phi_init=scenario.h))
    with pytest.raises(ValidationError) as err:
        rescaled_probability(p, scenario.paths[0], "V1")
    assert err.value.invariant == "nonzero-element"


def _witnesses(graph):
    return {(a, b): witness for a, b, witness in graph.edges}


def test_merged_povm_edges_are_orthogonal_pairs(da_povm):
    g = context_graph(da_povm)
    for i in (1, 2, 3):
        assert _witnesses(g)[(f"D{i}", "A")] <= 1e-12
    for i, j in ((1, 2), (1, 3), (2, 3)):
        assert not g.has_edge(f"D{i}", f"D{j}")


def test_unmerged_plate_outcomes_are_proportional(scenario):
    p = povm_from_dilation(dilation_DA(scenario))
    assert abs(_witnesses(context_graph(p))[("A1", "A2")] - 1.0) <= 1e-12
    for i in (1, 2, 3):
        assert abs(context_selection_probability(p, f"A{i}") - 1.0 / 3.0) <= 1e-12


def test_a_proportional_pair_is_judged_by_the_sine_of_its_angle():
    """Rows share a context as proportional when sin(angle) <= tol, not when the witness
    |<x|y>| = cos(angle) is within tol of 1: 1e-5 rad apart, the witness 0.99999999995
    passes 1 - 1e-9 but the pair is no edge at tol 1e-9, while it is one at 1e-4. Exactly
    proportional rows, and rows 1e-11 rad apart, stay edges, printed with their witness.
    The oracle judges each pair the same."""

    def pair(angle, tol):
        rows = np.array([[1.0, 0.0, 0.0], [np.cos(angle), np.sin(angle), 0.0]])
        witnesses = _witnesses(context_graph(Povm(3, ["x", "y"], rows), tol))
        assert bool(witnesses) == context_pairs(list(rows), tol)[0][3]
        return witnesses

    assert 1.0 - np.cos(1e-5) <= 1e-9 and pair(1e-5, 1e-9) == {}
    assert pair(1e-5, 1e-4) == {("x", "y"): abs(np.cos(1e-5))}
    assert pair(1e-11, 1e-9) == {("x", "y"): 1.0}
    u = 0.3 * unit(np.array([1.0, 1j, 2.0]))
    witnesses = _witnesses(context_graph(Povm(3, ["u", "2u"], [u, 2.0 * u]), 1e-9))
    assert witnesses.keys() == {("u", "2u")} and abs(witnesses[("u", "2u")] - 1.0) <= 1e-15


def test_operator_edges_use_support_commutators(vh_povm, da_povm):
    # span{D1, D2} is the full plane orthogonal to the plate direction
    merged = coarse_grain(da_povm, ("D1", "D2"), "D12")
    witnesses = _witnesses(context_graph(merged))
    assert witnesses[("D12", "A")] <= 1e-9
    assert witnesses[("D12", "D3")] <= 1e-9
    # span{V1, H1} neither contains nor avoids the V2 direction
    skew = coarse_grain(vh_povm, ("V1", "H1"), "VH1")
    assert not context_graph(skew).has_edge("VH1", "V2")


def test_context_graph_is_a_star(da_povm):
    g = context_graph(da_povm)
    assert set(g.nodes) == {"D1", "D2", "D3", "A"}
    assert len(g.edges) == 3
    assert Counter(label for a, b, _ in g.edges for label in (a, b)) == {
        "A": 3, "D1": 1, "D2": 1, "D3": 1
    }
    for i in (1, 2, 3):
        assert g.has_edge("A", f"D{i}")
    assert g.skipped == ()


def test_context_graph_of_VH_is_two_triangles(vh_povm):
    g = context_graph(vh_povm)
    assert len(g.edges) == 6
    for i, j in ((1, 2), (1, 3), (2, 3)):
        assert g.has_edge(f"V{i}", f"V{j}")
        assert g.has_edge(f"H{i}", f"H{j}")
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert not g.has_edge(f"V{i}", f"H{j}")


def test_context_graph_skips_zero_weight_outcomes(scenario):
    p = povm_from_dilation(dilation_VH(scenario, phi_init=scenario.h))
    g = context_graph(p)
    assert set(g.skipped) == {"V1", "V2", "V3"}
    assert set(g.nodes) == {"H1", "H2", "H3"}
    assert len(g.edges) == 3


def test_context_graph_dot_output(capsys):
    assert main(["context-graph", "--dot", str(fixture_path("three-path-DA"))]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph contexts {")
    assert dot.rstrip().endswith("}")
    assert '"D1" -- "A"' in dot or '"A" -- "D1"' in dot
    assert dot.count("--") == 3


def _oracle_elements(p):
    return [
        p.operators[k] if k in p.operators else row
        for k, row in enumerate(p.vectors)
    ]


def _clear_of_thresholds(witness):
    return witness <= 1e-12 or witness >= 1.0 - 1e-12 or 1e-3 <= witness <= 1.0 - 1e-3


@st.composite
def context_povms(draw):
    """A seeded POVM with one or two coarse-grained operator elements, plus its oracle pairs.

    Basis mixtures of two random bases, some elements split into two exactly
    proportional parts, or rows of a random isometry; M <= 3d. One or two
    disjoint pairs of orthogonal or generic rank-1 elements are merged, each
    into a rank-2 operator element. Every pair's witness sits within 1e-12 of
    0 or 1 or at least 1e-3 away from both, so no verdict depends on round-off;
    a draw that breaks this is redrawn.
    """
    dim = draw(st.integers(2, 8))
    mixture = draw(st.booleans())
    splits = draw(st.integers(0, dim))
    count = draw(st.integers(max(dim, 4), 3 * dim))
    groups = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while True:
        if mixture:
            labels, rows = [], []
            for x in range(2):
                basis = random_unitary(rng, dim)
                for a in range(dim):
                    u = basis[:, a] / SQ2
                    if x == 0 and a < splits:
                        labels += [f"0:{a}", f"0:{a}'"]
                        rows += [u / np.sqrt(5.0), 2.0 * u / np.sqrt(5.0)]
                    else:
                        labels.append(f"{x}:{a}")
                        rows.append(u)
            p = Povm(dim, labels, fix_phase(rows))
            merges = [("0:0", "0:1"), ("1:0", "1:1")]
        else:
            p, merges = random_rank1_povm(rng, dim, count), [("m0", "m1"), ("m2", "m3")]
        for k, merge in enumerate(merges[:groups]):
            p = coarse_grain(p, merge, f"merged{k}")
        pairs = context_pairs(_oracle_elements(p), 1e-9)
        if all(_clear_of_thresholds(w) for _, _, w, _ in pairs):
            phases = np.exp(2j * np.pi * rng.random(len(p)))
            return p, groups, pairs, random_unitary(rng, dim), phases


def _transformed(p, unitary, phases):
    rows = np.array([phase * (unitary @ row) for row, phase in zip(p.vectors, phases)])
    operators = {k: unitary @ op @ unitary.conj().T for k, op in p.operators.items()}
    return Povm(p.system_dim, p.labels(), rows, operators)


def _edge_set(graph):
    return {(a, b) for a, b, _ in graph.edges}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(context_povms())
def test_context_graph_matches_the_pairwise_oracle(case):
    p, groups, pairs, unitary, phases = case
    assert len(p.operators) == groups
    labels = p.labels()
    g = context_graph(p, 1e-9)
    assert g.nodes == labels and g.skipped == ()
    expected = [(labels[i], labels[j], w) for i, j, w, shared in pairs if shared]
    assert [(a, b) for a, b, _ in g.edges] == [(a, b) for a, b, _ in expected]
    for (_, _, got), (_, _, want) in zip(g.edges, expected):
        assert abs(got - want) <= 1e-12
    rotated = _transformed(p, unitary, np.ones(len(p)))
    rephased = _transformed(p, np.eye(p.system_dim), phases)
    for q in (rotated, rephased):
        assert _edge_set(context_graph(q, 1e-9)) == _edge_set(g)


def _projector(u: np.ndarray) -> np.ndarray:
    return np.outer(u, u.conj())


@st.composite
def mixed_rank_povms(draw):
    """A seeded POVM (d 4-7) on a random basis u and a generic basis v, with the dense
    matrix of each element: rank-1 rows along u0 (twice, proportional), u1 and v0, a
    rank-2 PSD operator on u2, u3 and a rank-3 one on v1-v3, an operator a P(u1) -
    b P(u_last), whose negative eigenvalue leaves its support the line u1, and last a
    negative rank-3 one on v0-v2, as wide as the widest, whose largest eigenvalue is the
    0 of its null space. Every pair's witness sits clear of the thresholds, as in
    ``context_povms``; a draw that breaks this is redrawn."""
    dim = draw(st.integers(4, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = ["u0", "u0'", "u1", "v0", "u23", "v123", "signed", "negative"]
    while True:
        u, v = random_unitary(rng, dim), random_unitary(rng, dim)
        w = rng.uniform(0.1, 0.9, size=12)
        rows = np.zeros((len(labels), dim), dtype=complex)
        rows[:4] = np.sqrt(w[:4, None]) * np.array([u[:, 0], 1j * u[:, 0], u[:, 1], v[:, 0]])
        operators = {
            4: w[4] * _projector(u[:, 2]) + w[5] * _projector(u[:, 3]),
            5: sum(weight * _projector(v[:, k]) for k, weight in zip((1, 2, 3), w[6:])),
            6: w[7] * _projector(u[:, 1]) - w[8] * _projector(u[:, -1]),
            7: -sum(weight * _projector(v[:, k]) for k, weight in zip((0, 1, 2), w[9:])),
        }
        matrices = [operators.get(k, _projector(row)) for k, row in enumerate(rows)]
        elements = [operators.get(k, row) for k, row in enumerate(rows)]
        pairs = context_pairs(elements[:-1], 1e-9)  # "negative" weighs 0
        if all(_clear_of_thresholds(witness) for _, _, witness, _ in pairs):
            p = Povm(dim, labels, rows, operators)
            return p, rows, matrices, pairs, density_matrix(random_pure_state(rng, dim), dim, 1e-9)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(mixed_rank_povms())
def test_every_rule_on_the_factor_stack_matches_the_dense_oracle(case):
    p, rows, matrices, pairs, rho = case
    assert sorted(p.operators) == [4, 5, 6, 7] and np.array_equal(p.vectors[:4], rows[:4])
    want = dense_element_numbers(matrices, rho)
    assert p.eigenvalues.shape == (len(p), p.system_dim)
    assert np.abs(np.sort(p.eigenvalues, axis=1) - want["spectra"]).max() <= 1e-12
    assert abs(completeness_check(p) - want["completeness"]) <= 1e-12
    assert abs(element_bound_residual(p) - want["bound"]) <= 1e-12
    for label, weight, chance in zip(p.labels(), want["weights"], want["probabilities"]):
        assert abs(context_selection_probability(p, label) - weight) <= 1e-12
        if chance < -1e-9:
            with pytest.raises(ValidationError, match="^negative probability"):
                probability(p, rho, label)
        else:
            assert abs(probability(p, rho, label) - chance) <= 1e-12
    labels = p.labels()
    g = context_graph(p, 1e-9)
    assert g.skipped == ("negative",)
    expected = [(labels[i], labels[j], w) for i, j, w, shared in pairs if shared]
    assert [(a, b) for a, b, _ in g.edges] == [(a, b) for a, b, _ in expected]
    assert g.has_edge("u0", "signed") and g.has_edge("u0", "u23")
    for (_, _, got), (_, _, witness) in zip(g.edges, expected):
        assert abs(got - witness) <= 1e-12


@st.composite
def wide_mixtures(draw):
    """A seeded mixture of two random bases, d 8-16, with two outcomes of the first merged
    into a rank-2 element: from d = 8 on, a norm reduced across the strided columns of the
    factor stack no longer has the bits of one reduced along a contiguous row."""
    dim = draw(st.integers(8, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = [random_unitary(rng, dim) / SQ2 for _ in range(2)]
    rows = [basis[:, a] for basis in bases for a in range(dim)]
    labels = [f"{x}:{a}" for x in range(2) for a in range(dim)]
    return coarse_grain(Povm(dim, labels, fix_phase(rows)), ("0:0", "0:1"), "merged")


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.one_of(context_povms(), mixed_rank_povms()).map(lambda case: case[0]) | wide_mixtures())
def test_the_direction_view_is_every_factor_column_over_its_norm(p):
    """Each nonzero factor column, of an operator element or a negative one too, has a unit
    direction parallel to it; a zero column stays zero. The rank-1 witnesses the context
    graph prints keep the bits of the unit rows of ``vectors``, each normalised as a
    contiguous row."""
    columns, units = p.factors.transpose(0, 2, 1), p._directions.transpose(0, 2, 1)
    norms = np.linalg.norm(columns, axis=2)
    kept = norms > 0.0
    assert not units[~kept].any()
    assert np.abs(np.linalg.norm(units[kept], axis=1) - 1.0).max() <= 1e-15
    error = np.abs(units[kept] * norms[kept][:, None] - columns[kept]).max(axis=1)
    assert (error <= 1e-15 * norms[kept]).all()
    rows = p.vectors[p._rank_one]
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    gram = np.abs(rows.conj() @ rows.T)
    at = {label: k for k, label in enumerate(np.array(p.labels())[p._rank_one])}
    pairs = [(at[a], at[b], w) for a, b, w in context_graph(p, 1e-9).edges if {a, b} <= at.keys()]
    assert all(witness == gram[a, b] for a, b, witness in pairs)


def test_a_saved_povm_with_matrix_entries_settles_after_the_first_cycle(tmp_path):
    """save -> load -> save: a rank-1 PSD entry comes back a vector, and from the first
    cycle on every entry is byte-stable: an operator entry is written as the matrix it
    was built from, not rebuilt from its factors."""
    rng = np.random.default_rng(37)
    u = random_unitary(rng, 4)
    operators = {
        0: 0.5 * _projector(u[:, 0]),
        1: np.diag([0.3, 0.2, 0.1, 0.0]).astype(complex),
        2: 0.4 * _projector(u[:, 1]) + 0.1 * _projector(u[:, 2]) - 0.2 * _projector(u[:, 3]),
    }
    rows = np.zeros((4, 4), dtype=complex)
    rows[3] = 0.5 * u[:, 3]
    p = Povm(4, ["rank-1", "diagonal", "generic", "row"], rows, operators)
    texts = []
    for _ in range(4):
        save_scenario(tmp_path / "cycle.json", Scenario(4, povm=p))
        texts.append(json.loads((tmp_path / "cycle.json").read_text()))
        p = load_scenario(tmp_path / "cycle.json").povm
    kinds = [[next(key for key in entry if key != "label") for entry in t["povm"]] for t in texts]
    assert kinds[0] == ["vector", "matrix", "matrix", "vector"]
    assert kinds[1:] == kinds[:-1]
    for text in texts[1:]:  # by the text of each number, so -0.0 is not 0.0
        assert json.dumps(text["povm"]) == json.dumps(texts[0]["povm"])
    assert np.array_equal(p.operators[2], operators[2] / 2 + operators[2].conj().T / 2)


def test_a_rank_one_matrix_element_is_a_row(tmp_path):
    """A rank-1 positive matrix is factored into one column of sign +1: a row, written
    as a vector, which ``HardyTriple`` and ``naimark_dilate`` accept."""
    hardy = load_fixture("hardy").povm
    f_row = hardy.vectors[0]
    rows = np.array(hardy.vectors)
    rows[0] = 0.0
    p = Povm(3, hardy.labels(), rows, {0: np.outer(f_row, f_row.conj())})
    assert not p.operators and p.factors.shape == (6, 3, 1)
    assert np.abs(p.vectors - hardy.vectors).max() <= 1e-15
    save_scenario(tmp_path / "row.json", Scenario(3, povm=p))
    assert '"matrix"' not in (tmp_path / "row.json").read_text()
    triple = HardyTriple(p, "F", "D1", "D2")
    assert np.abs(triple.directions - HardyTriple(hardy, "F", "D1", "D2").directions).max() <= 1e-15
    assert len(naimark_dilate(p)) == 6


def test_coarse_grain_recovers_the_merged_element(scenario, da_povm):
    raw = povm_from_dilation(dilation_DA(scenario))
    merged = coarse_grain(raw, ("A1", "A2", "A3"), "A")
    assert merged.labels() == ("D1", "D2", "D3", "A")
    assert 3 not in merged.operators
    row = merged.vectors[3]
    assert np.abs(row - element_row(da_povm, "A")).max() <= 1e-12
    f_direction = np.array([1.0, 1.0, -1.0]) / SQ3
    assert np.abs(row - f_direction).max() <= 1e-12


def test_coarse_grain_full_merge_gives_identity(vh_povm):
    merged = coarse_grain(vh_povm, vh_povm.labels(), "all")
    assert np.abs(merged.operators[0] - np.eye(3)).max() <= 1e-12
    assert len(merged) == 1


def test_coarse_grain_partial_merge_keeps_operator_weight(vh_povm):
    merged = coarse_grain(vh_povm, ("V1", "V2"), "V12")
    assert abs(np.trace(merged.operators[0]).real - 1.0) <= 1e-12
    assert abs(context_selection_probability(merged, "V12") - 0.5) <= 1e-12
    assert completeness_check(merged) <= 1e-12
    assert merged.labels() == ("V12", "V3", "H1", "H2", "H3")


def test_coarse_grain_validates_labels(vh_povm):
    with pytest.raises(UnknownLabelError):
        coarse_grain(vh_povm, ("V1", "nope"), "x")
    with pytest.raises(ValidationError):
        coarse_grain(vh_povm, (), "x")


@pytest.mark.parametrize("merge", [("A1", "A1"), ("A1", "A2", "A1")])
def test_coarse_grain_rejects_a_repeated_label(scenario, merge):
    with pytest.raises(ValidationError, match="labels to merge must be unique") as err:
        coarse_grain(povm_from_dilation(dilation_DA(scenario)), merge, "A")
    assert err.value.invariant == "unique-labels"


@st.composite
def merged_groups(draw):
    """A complete rank-1 POVM (d 2-8, M d-3d) and 1-3 disjoint groups of 2-3 of its labels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 8))
    p = random_rank1_povm(rng, dim, draw(st.integers(dim, 3 * dim)))
    labels, groups = draw(st.permutations(p.labels())), []
    for _ in range(draw(st.integers(1, 3))):
        if len(labels) < 2:
            break
        size = draw(st.integers(2, min(3, len(labels))))
        groups.append(labels[:size])
        labels = labels[size:]
    return p, groups


@settings(max_examples=40, derandomize=True, deadline=None)
@given(merged_groups())
def test_coarse_grain_keeps_a_complete_povm_complete(case):
    p, groups = case
    assert completeness_check(p) <= 1e-12
    for k, group in enumerate(groups):
        p = coarse_grain(p, group, f"g{k}")
        assert completeness_check(p) <= 1e-12


def test_two_basis_mixture_reproduces_the_VH_povm(scenario, vh_povm):
    bases = [scenario.paths, [hwp_transform(scenario, p) for p in scenario.paths]]
    contexts = [(env, np.conj(basis)) for env, basis in zip(np.eye(2), bases)]
    labels = ["V1", "V2", "V3", "H1", "H2", "H3"]
    mix = povm_from_dilation(switched(contexts, np.eye(3), np.sqrt([0.5, 0.5]), labels))
    assert mix.labels() == vh_povm.labels()
    for label, row, row2 in zip(mix.labels(), mix.vectors, vh_povm.vectors):
        assert np.abs(row - row2).max() <= 1e-15
        assert abs(context_selection_probability(mix, label) - 0.5) <= 1e-12


def test_three_basis_qubit_mixture():
    z = np.eye(2)
    x = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQ2
    y = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / SQ2
    contexts = [(env, np.conj(basis)) for env, basis in zip(np.eye(3), (z, x, y))]
    p = povm_from_dilation(switched(contexts, np.eye(2), np.full(3, 1.0 / SQ3)))
    assert completeness_check(p) <= 1e-12
    for label in p.labels():
        assert abs(context_selection_probability(p, label) - 1.0 / 3.0) <= 1e-12
    assert abs(rescaled_probability(p, z[0], "0:0") - 1.0) <= 1e-12


def test_basis_mixture_validates_inputs():
    """Each fault of a basis mixture is one of the dilation's rules: a basis that is not
    orthonormal, amplitudes not normalised, labels that do not match the rows; a basis of
    fewer kets than the dimension leaves a partial dilation and an incomplete POVM."""
    z = np.eye(2)
    tilted = [np.eye(2)[0], np.array([0.1, 1.0]) / np.sqrt(1.01)]
    halves = [(env, z) for env in np.eye(2)]
    with pytest.raises(ValidationError) as err:
        switched(halves, z, np.sqrt([0.6, 0.6]))
    assert err.value.invariant == "phi-init-normalisation"
    with pytest.raises(ValidationError) as err:
        switched([([1.0], z)], tilted, [1.0])
    assert err.value.invariant == "outcome-orthonormality"
    with pytest.raises(SpaceMismatchError, match=r"^a stack of shape \(4, 4\) for 3 labels"):
        switched(halves, z, np.sqrt([0.5, 0.5]), ["a", "b", "c"])
    with pytest.raises(ValidationError) as err:
        validate_povm(povm_from_dilation(switched([([1.0], z)], z[:1], [1.0])))
    assert err.value.invariant == "completeness"


def test_basis_mixture_checks_the_orthonormality_of_each_basis():
    z = np.eye(2)
    contexts = [(env, np.conj(basis)) for env, basis in zip(np.eye(2), (z, [z[0], z[0]]))]
    message = r"^outcome set is not orthonormal \(residual 1\.000e\+00\)$"
    with pytest.raises(ValidationError, match=message) as err:
        switched(contexts, z, np.sqrt([0.5, 0.5]))
    assert err.value.invariant == "outcome-orthonormality"


def test_random_rank1_povms_are_complete():
    rng = np.random.default_rng(43)
    for dim in (2, 3, 4, 5):
        for count in (dim, dim + 2, 2 * dim):
            p = random_rank1_povm(rng, dim, count)
            assert completeness_check(p) <= 1e-12
            validate_povm(p)


def test_operator_elements_give_trace_probabilities_and_rank_one_maximizers():
    rng = np.random.default_rng(43)
    u = random_unitary(rng, 3)
    half = 0.5 * np.outer(u[:, 0], u[:, 0].conj())
    plane = np.outer(u[:, 1], u[:, 1].conj()) + np.outer(u[:, 2], u[:, 2].conj())
    p = Povm(3, ["half", "plane"], np.zeros((2, 3), dtype=complex), {0: half, 1: plane})
    psi = random_pure_state(rng, 3)
    overlap = abs(np.vdot(u[:, 0], psi)) ** 2
    assert abs(probability(p, psi, "half") - 0.5 * overlap) <= 1e-12
    assert abs(rescaled_probability(p, psi, "half") - overlap) <= 1e-12
    rho = maximizing_state(p, "half")
    assert np.abs(rho - np.outer(u[:, 0], u[:, 0].conj())).max() <= 1e-12
    assert abs(probability(p, rho, "half") - 0.5) <= 1e-12
    with pytest.raises(ValidationError) as err:
        maximizing_state(p, "plane")
    assert err.value.invariant == "rank-one"



def _beside_rows(element: np.ndarray) -> Povm:
    """A complete d=3 POVM: the diagonal ``element`` as a matrix, then its complement as
    the rows a, b, c along e0, e1, e2."""
    rest = np.sqrt(1.0 - np.diag(element).real)
    return Povm(3, ["E", "a", "b", "c"], np.vstack([np.zeros(3), np.diag(rest)]), {0: element})


def _rank_one_raises(p: Povm, label: str) -> list[tuple[str, str]]:
    """``(invariant, message)`` of each rule that takes an element as a row, at ``label``."""
    found = []
    for rule in (
        lambda: maximizing_state(p, label),
        lambda: HardyTriple(p, label, "b", "c"),
        lambda: naimark_dilate(p),
    ):
        with pytest.raises(ValidationError) as err:
            rule()
        found.append((err.value.invariant, str(err.value)))
    return found


def test_an_element_is_a_row_by_one_rule_whatever_its_eigenvalues_above_tol():
    """A second eigenvalue between round-off and tol keeps the element off the rows: every
    rule that takes a row refuses it, and the graph judges its pairs by their commutator."""
    p = _beside_rows(np.diag([0.5, 1e-12, 0.0]))
    validate_povm(p)
    assert p.signs.shape == (4, 2) and abs(p.eigenvalues[0, 1] - 1e-12) <= 1e-24
    assert not p.vectors[0].any() and list(p.operators) == [0]
    refusal = ("rank-one", "element 'E' is not rank one")
    assert _rank_one_raises(p, "E") == [refusal] * 3
    graph = context_graph(p)
    # a row along e0 has witness 1.0 with e0; the support projectors commute exactly
    assert graph.edges[:3] == (("E", "a", 0.0), ("E", "b", 0.0), ("E", "c", 0.0))


def test_an_element_off_the_rows_is_refused_as_a_row_before_it_is_weighed():
    p = _beside_rows(np.diag([1e-10, 5e-11, 0.0]))
    assert context_graph(p).skipped == ("E",)
    refusal = ("rank-one", "element 'E' is not rank one")
    assert _rank_one_raises(p, "E") == [refusal] * 3

def test_vectors_hold_one_read_only_row_per_element(da_povm):
    merged = coarse_grain(da_povm, ("D1", "D2"), "D12")
    assert merged.vectors.shape == (len(merged), 3) and merged.vectors.dtype == complex
    assert list(merged.operators) == [0] and not merged.vectors[0].any()
    assert np.array_equal(merged.vectors[1:], da_povm.vectors[2:])
    assert not merged.vectors.flags.writeable
    with pytest.raises(ValueError):
        merged.vectors[0, 0] = 1.0
    qubit = Povm(2, ["a", "b"], np.eye(2))
    identity = coarse_grain(qubit, ("a", "b"), "I")
    assert identity.vectors.dtype == complex and not identity.vectors.any()


def test_every_array_a_value_hands_out_is_read_only(da_povm):
    merged = coarse_grain(da_povm, ("D1", "D2"), "D12")
    given = np.eye(3) / 2.0
    p = Povm(3, ["half"], np.zeros((1, 3)), {0: given})
    given[0, 0] = 1.0
    assert abs(p.operators[0][0, 0] - 0.5) <= 1e-15
    triple = HardyTriple(load_fixture("hardy").povm, "F", "D1", "D2")
    report = evaluate_inequality(triple, np.eye(3) / 3.0)
    mixed = Scenario(3, states={"rho": np.eye(3) / 3.0}).states["rho"]
    views = (merged.eigenvalues, merged._directions, p.eigenvalues, p._directions)
    for array in (merged.operators[0], p.operators[0], report.state_used, mixed, p.factors[0]):
        with pytest.raises(ValueError):
            array[0, 0] = 0.0
    for array in (p.signs, *views):
        with pytest.raises(ValueError):
            array[0, 0] = -1.0
    assert report == evaluate_inequality(triple, np.eye(3) / 3.0)


def _one_ulp_up(values: np.ndarray) -> np.ndarray:
    """A copy with the real part of the first nonzero entry moved up by one ulp."""
    bumped = np.array(values, dtype=complex)
    flat = bumped.reshape(-1)
    k = int(np.flatnonzero(flat)[0])
    flat[k] = complex(np.nextafter(flat[k].real, np.inf), flat[k].imag)
    return bumped


def test_equal_content_compares_equal(scenario, vh_povm):
    assert povm_DA(scenario) == povm_DA(scenario)
    assert load_fixture("hardy") == load_fixture("hardy")
    assert dilation_DA(scenario) == dilation_DA(scenario)
    merged = coarse_grain(vh_povm, ("V1", "V2"), "V12")
    assert merged == coarse_grain(vh_povm, ("V1", "V2"), "V12")
    assert povm_DA(scenario) != povm_from_dilation(dilation_DA(scenario))
    assert merged != vh_povm and dilation_DA(scenario) != "not a dilation"
    triple = HardyTriple(load_fixture("hardy").povm, "F", "D1", "D2")
    state = np.array([1.0, 0.0, 0.0])
    assert evaluate_inequality(triple, state) == evaluate_inequality(triple, state)
    moved = dataclasses.replace(scenario, f=scenario.paths[0])
    assert scenario == build_three_path() and scenario != moved


def test_a_one_ulp_change_compares_unequal(scenario, vh_povm):
    d = dilation_DA(scenario)
    assert d != with_phi_init(d, _one_ulp_up(d.phi_init))
    p = povm_DA(scenario)
    assert p != Povm(p.system_dim, p.labels(), _one_ulp_up(p.vectors))
    merged = coarse_grain(vh_povm, ("V1", "V2"), "V12")
    (k, op), = merged.operators.items()
    assert op[0, 0] and merged != Povm(3, merged.labels(), merged.vectors, {k: _one_ulp_up(op)})
    outcomes = dilation_DA(scenario)
    moved = _one_ulp_up(outcomes.vectors)
    assert outcomes != Dilation(2, 3, outcomes.labels(), moved, outcomes.phi_init)
    triple = HardyTriple(load_fixture("hardy").povm, "F", "D1", "D2")
    report = evaluate_inequality(triple, np.eye(3) / 3.0)
    assert report != dataclasses.replace(report, state_used=_one_ulp_up(report.state_used))


def test_an_element_bound_residual_that_is_not_finite_raises(monkeypatch):
    overflowing = np.array([[-1e308, 1e308], [1e308, -1e308]])  # eigenvalues -inf and 0
    p = Povm(2, ["a", "b"], [[0.0, 0.0], [1.0, 0.0]], {0: overflowing})
    with pytest.raises(FloatingPointError, match="^the element bound residual is not finite$"):
        element_bound_residual(p)
    # a NaN eigenvalue is a NaN column norm, which the element's weight sees first
    nan_pair = np.array([np.nan, 0.5]), np.eye(2, dtype=complex)
    monkeypatch.setattr(np.linalg, "eigh", lambda matrix: nan_pair)
    half = Povm(2, ["a", "b"], [[0.0, 0.0], [1.0, 0.0]], {0: np.eye(2) / 2})
    with pytest.raises(FloatingPointError, match="^an element weight is not finite$"):
        element_bound_residual(half)


def test_a_weight_that_is_not_finite_raises_from_every_rule_that_reads_it():
    """An overflowing row's weight is not finite: each rule that reads it raises, with no
    numpy warning, while a finite element's own weight is still read."""
    p = Povm(3, ["big", "x", "y"], [[1e200, 1e200, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    state = np.array([0.0, 0.0, 1.0])
    for rule in (
        lambda: element_bound_residual(p),
        lambda: context_graph(p),
        lambda: context_selection_probability(p, "big"),
        lambda: maximizing_state(p, "big"),
        lambda: rescaled_probability(p, state, "big"),
        lambda: HardyTriple(p, "big", "x", "y"),
        lambda: HardyTriple(p, "x", "y", "big"),
    ):
        with pytest.raises(FloatingPointError, match="^an element weight is not finite$"):
            rule()
    assert context_selection_probability(p, "x") == 1.0
    assert np.isinf(p.eigenvalues[0, 0]) and not p._directions[0].any()


def test_an_element_has_one_weight_whatever_the_width_or_layout_of_its_stack():
    """Each weight is a squared norm as ``np.vdot`` rounds it on a contiguous row, the same
    bits at every position and for every rule: in a stack widened by a merged operator,
    where one label's weight used to differ from the graph's in its last bits, and in a
    stack given in Fortran order, which is stored as its C-ordered copy."""
    rows = random_unitary(np.random.default_rng(23), 24)[:, :8] * np.sqrt(1 / 3)
    labels = [f"e{k}" for k in range(24)]
    flat = Povm(8, labels, np.asfortranarray(rows))
    wide = coarse_grain(Povm(8, labels, rows), labels[:3], "m")
    for p in (flat, wide):
        squared = [np.vdot(row, row).real for row in np.ascontiguousarray(p.vectors)]
        for k, label in enumerate(p.labels()):
            weight = context_selection_probability(p, label)
            assert weight == p.eigenvalues[k].max()
            assert weight == squared[k] or k in p.operators
    c_order = Povm(8, labels, rows)
    assert flat.factors.flags.c_contiguous and flat == c_order
    assert context_graph(flat) == context_graph(c_order)
    assert element_bound_residual(flat) == element_bound_residual(c_order)
    psi = random_pure_state(np.random.default_rng(24), 8)
    for label in labels:
        assert probability(flat, psi, label) == probability(c_order, psi, label)


def _half_identity(dim=2):
    return np.eye(dim) / 2


_ROWS = np.array([[0.0, 0.0], [0.0, 1.0 / SQ2], [1.0 / SQ2, 0.0]], dtype=complex)


@pytest.mark.parametrize(
    "operators, rows, message",
    [
        ({-1: _half_identity()}, _ROWS, "operator position -1 is not one of the 3 positions"),
        ({3: _half_identity()}, _ROWS, "operator position 3 is not one of the 3 positions"),
        ({0: _half_identity()}, _ROWS + 0.5, "operator element 'a' has a nonzero row"),
    ],
    ids=["negative-key", "key-past-the-end", "nonzero-row"],
)
def test_povm_checks_each_operator_entry_against_its_position(operators, rows, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as err:
        Povm(2, ["a", "b", "c"], rows, operators)
    assert err.value.invariant == "element-payload"


def test_povm_rejects_an_operator_of_another_dimension():
    message = r"^a matrix of shape \(3, 3\) for element 'a' of dim 2$"
    with pytest.raises(SpaceMismatchError, match=message):
        Povm(2, ["a", "b", "c"], _ROWS, {0: _half_identity(dim=3)})
    p = Povm(2, ["a", "b", "c"], _ROWS, {0: _half_identity()})
    assert completeness_check(p) <= 1e-15
    assert np.abs(p.operators[0] - _half_identity()).max() <= 1e-15


@pytest.mark.parametrize(
    "build, shape",
    [
        (lambda rows: Povm(2, ["a", "b"], rows), (3, 2)),
        (lambda rows: Povm(2, ["a", "b"], rows.T[:2].copy()), (2, 3)),
        (lambda rows: Dilation(1, 2, ["a", "b"], rows, [1.0]), (3, 2)),
    ],
    ids=["povm-extra-row", "povm-long-rows", "outcome-set-extra-row"],
)
def test_stack_constructors_reject_a_stack_of_another_shape(build, shape):
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], dtype=complex)
    with pytest.raises(SpaceMismatchError, match=re.escape(f"a stack of shape {shape} for 2")):
        build(rows)


@pytest.mark.parametrize(
    "build",
    [
        lambda rows: Povm(2, ["a", "b"], rows),
        lambda rows: Dilation(1, 2, ["a", "b"], rows, [1.0]),
    ],
    ids=["povm", "outcome-set"],
)
def test_stack_constructors_reject_rows_of_unequal_lengths(build):
    message = "^rows that are not one complex stack for 2 labels of dim 2$"
    with pytest.raises(SpaceMismatchError, match=message) as caught:
        build([[1, 0], [0]])
    assert isinstance(caught.value.__cause__, ValueError)


def test_no_rows_pass_fix_phase_and_are_refused_as_an_empty_povm():
    with pytest.raises(ValidationError, match="^a POVM needs at least one element$") as caught:
        Povm(2, [], fix_phase(np.zeros((0, 2))))
    assert caught.value.invariant == "nonempty"


def test_a_povm_equals_a_stack_povm_of_the_same_stack(scenario, vh_povm):
    unmerged = povm_from_dilation(dilation_DA(scenario))
    for p in (unmerged, coarse_grain(vh_povm, ("V1", "V2"), "V12")):
        again = Povm(p.system_dim, p.labels(), p.vectors, p.operators)
        assert again == p and again.operators.keys() == p.operators.keys()
        assert all(np.array_equal(again.operators[k], op) for k, op in p.operators.items())


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_the_constructor_raises_for_a_faulty_row(bad):
    stack = np.array([[1.0, 0.0], [bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError) as caught:
        Povm(2, ["a", "b", "c"], stack)
    assert caught.value.invariant == "finite-amplitudes"
    with pytest.raises(SpaceMismatchError, match=re.escape("a stack of shape (3, 2) for 2")):
        Povm(2, ["a", "b"], np.eye(3, 2))


@pytest.mark.parametrize(
    "stack, message",
    [
        ([[1, 0], [0]], "rows that are not one complex stack for 2 labels of dim 2"),
        ([[1, 0], ["x", 1]], "rows that are not one complex stack for 2 labels of dim 2"),
        (np.ones((2, 2, 1)), "a stack of shape (2, 2, 1) for 2 labels of dim 2"),
    ],
    ids=["ragged", "string-entry", "three-axes"],
)
def test_the_constructor_maps_a_malformed_stack_to_one_error(stack, message):
    with pytest.raises(SpaceMismatchError, match=f"^{re.escape(message)}$"):
        Povm(2, ["a", "b"], stack)
