"""POVM containers, outcome statistics, context relations, and coarse-graining."""

from __future__ import annotations

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
    JointOutcomeSet,
    Povm,
    Scenario,
    SpaceMismatchError,
    UnknownLabelError,
    ValidationError,
    basis_mixture_povm,
    build_three_path,
    coarse_grain,
    completeness_check,
    context_graph,
    context_selection_probability,
    dilation_DA,
    dilation_VH,
    evaluate_inequality,
    hwp_transform,
    load_fixture,
    maximizing_state,
    naimark_dilate,
    povm_DA,
    povm_from_dilation,
    probability,
    rescaled_probability,
    validate_povm,
)
from ctxlab.hilbert import density_matrix
from helpers import element_row, random_pure_state, random_rank1_povm, random_unitary, unit
from oracles import context_pairs

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
    return povm_DA(scenario, merge_A=True)


def test_element_must_be_a_hermitian_system_operator():
    zero = np.zeros((1, 2), dtype=complex)
    skew = np.array([[0.5, 1e-7], [0.0, 0.5]])
    with pytest.raises(ValidationError) as err:
        Povm(2, ["skew"], zero, {0: skew})
    assert err.value.invariant == "hermiticity"
    assert np.array_equal(Povm(2, ["skew"], zero, {0: skew}, tol=1e-6).operators[0], skew)


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


def test_from_vectors_fixes_global_phase():
    p = Povm.from_vectors(2, ["m"], np.array([[0.0, -1.0j]]))
    np.testing.assert_allclose(p.vectors[0], [0.0, 1.0])
    with pytest.raises(UnknownLabelError):
        context_selection_probability(p, "missing")


@pytest.mark.parametrize("name", ["system_dim", "vectors", "_is_vector", "_operators", "_index"])
def test_povm_fields_can_be_neither_assigned_nor_deleted(name):
    p = Povm.from_vectors(2, ["a", "b"], np.diag([1.0, 1.0j]))
    assert p._is_vector.all()  # built and cached
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(p, name, None)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(p, name)
    assert p.labels() == ("a", "b") and not p.vectors.flags.writeable


@pytest.mark.parametrize(
    "build",
    [
        lambda rows: Povm(2, ["a", "b"], rows),
        lambda rows: JointOutcomeSet(1, 2, ["a", "b"], rows),
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


def test_repr_shows_the_labels():
    p = random_rank1_povm(np.random.default_rng(64), 16, 64)
    outcomes = naimark_dilate(p).outcomes
    shown = repr(p), repr(outcomes)
    assert shown[0] == f"Povm(labels={p.labels()!r}, system_dim=16, _operators={{}})"
    assert shown[1] == f"JointOutcomeSet(labels={p.labels()!r}, env_dim=64, sys_dim=16)"


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
    heavy = Povm.from_vectors(2, ["m"], np.array([[1.1, 0.0]]))
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
    p = povm_DA(scenario, merge_A=False)
    assert abs(_witnesses(context_graph(p))[("A1", "A2")] - 1.0) <= 1e-12
    for i in (1, 2, 3):
        assert abs(context_selection_probability(p, f"A{i}") - 1.0 / 3.0) <= 1e-12


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


def test_context_graph_dot_output(da_povm):
    dot = context_graph(da_povm).to_dot()
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
            p = Povm.from_vectors(dim, labels, np.array(rows))
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


def test_coarse_grain_recovers_the_merged_element(scenario, da_povm):
    raw = povm_DA(scenario, merge_A=False)
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
        coarse_grain(povm_DA(scenario, merge_A=False), merge, "A")
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
    mix = basis_mixture_povm(
        [scenario.paths, [hwp_transform(scenario, p) for p in scenario.paths]],
        [0.5, 0.5],
        labels=[["V1", "V2", "V3"], ["H1", "H2", "H3"]],
    )
    assert mix.labels() == vh_povm.labels()
    for label, row, row2 in zip(mix.labels(), mix.vectors, vh_povm.vectors):
        assert np.abs(row - row2).max() <= 1e-15
        assert abs(context_selection_probability(mix, label) - 0.5) <= 1e-12


def test_three_basis_qubit_mixture():
    z = np.eye(2)
    x = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQ2
    y = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / SQ2
    p = basis_mixture_povm([z, x, y], [1.0 / 3.0] * 3)
    assert completeness_check(p) <= 1e-12
    for label in p.labels():
        assert abs(context_selection_probability(p, label) - 1.0 / 3.0) <= 1e-12
    assert abs(rescaled_probability(p, z[0], "0:0") - 1.0) <= 1e-12


def test_basis_mixture_validates_inputs():
    z = np.eye(2)
    tilted = [np.eye(2)[0], np.array([0.1, 1.0]) / np.sqrt(1.01)]
    with pytest.raises(ValidationError) as err:
        basis_mixture_povm([z], [0.9])
    assert err.value.invariant == "weights"
    with pytest.raises(ValidationError):
        basis_mixture_povm([z], [0.5, 0.5])
    with pytest.raises(ValidationError) as err:
        basis_mixture_povm([tilted], [1.0])
    assert err.value.invariant == "basis-orthonormality"
    with pytest.raises(ValidationError):
        basis_mixture_povm([z[:1]], [1.0])
    with pytest.raises(ValidationError):
        basis_mixture_povm([], [])


@pytest.mark.parametrize(
    "kwargs, invariant, message",
    [
        ({"weights": [np.nan, 1.0]}, "weights", "weights must be nonnegative numbers"),
        ({"weights": [0.6, 0.6]}, "weights", "weights sum to 1.2 != 1"),
        ({"labels": [["a", "b"]]}, "labels", "labels must hold 2 groups of 2, one per outcome"),
        ({"labels": [["a", "b"], ["c"]]}, "labels", "labels must hold 2 groups of 2"),
    ],
    ids=["nan-weight", "weight-sum-repr", "one-group-short", "one-label-short"],
)
def test_basis_mixture_names_what_is_wrong_with_its_arguments(kwargs, invariant, message):
    z = np.eye(2)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}") as err:
        basis_mixture_povm([z, z], **{"weights": [0.5, 0.5], **kwargs})
    assert err.value.invariant == invariant


def test_basis_mixture_rejects_an_empty_basis():
    with pytest.raises(ValidationError, match="^basis 0 has no kets$") as err:
        basis_mixture_povm([[]], [1.0])
    assert err.value.invariant == "basis-completeness"


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


def test_vectors_hold_one_read_only_row_per_element(da_povm):
    merged = coarse_grain(da_povm, ("D1", "D2"), "D12")
    assert merged.vectors.shape == (len(merged), 3) and merged.vectors.dtype == complex
    assert list(merged.operators) == [0] and not merged.vectors[0].any()
    assert np.array_equal(merged.vectors[1:], da_povm.vectors[2:])
    assert not merged.vectors.flags.writeable
    with pytest.raises(ValueError):
        merged.vectors[0, 0] = 1.0
    qubit = Povm.from_vectors(2, ["a", "b"], np.eye(2))
    identity = coarse_grain(qubit, ("a", "b"), "I")
    assert identity.vectors.dtype == complex and not identity.vectors.any()


def test_every_array_a_value_hands_out_is_read_only(da_povm):
    merged = coarse_grain(da_povm, ("D1", "D2"), "D12")
    given = np.eye(3) / 2.0
    p = Povm(3, ["half"], np.zeros((1, 3)), {0: given})
    given[0, 0] = 1.0
    assert p.operators[0][0, 0] == 0.5
    triple = HardyTriple.from_povm(load_fixture("hardy").povm, "F", "D1", "D2")
    report = evaluate_inequality(triple, np.eye(3) / 3.0)
    mixed = Scenario(3, states={"rho": np.eye(3) / 3.0}).states["rho"]
    for array in (merged.operators[0], p.operators[0], report.state_used, mixed):
        with pytest.raises(ValueError):
            array[0, 0] = 0.0
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
    assert povm_DA(scenario) != povm_DA(scenario, merge_A=False)
    assert merged != vh_povm and dilation_DA(scenario) != "not a dilation"


def test_a_one_ulp_change_compares_unequal(scenario, vh_povm):
    d = dilation_DA(scenario)
    assert d != Dilation(d.outcomes, _one_ulp_up(d.phi_init))
    p = povm_DA(scenario)
    assert p != Povm(p.system_dim, p.labels(), _one_ulp_up(p.vectors))
    merged = coarse_grain(vh_povm, ("V1", "V2"), "V12")
    bumped = {0: _one_ulp_up(merged.operators[0])}
    assert merged != Povm(3, merged.labels(), merged.vectors, bumped)
    outcomes = dilation_DA(scenario).outcomes
    moved = _one_ulp_up(outcomes.vectors)
    assert outcomes != JointOutcomeSet(2, 3, outcomes.labels(), moved)


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
    assert completeness_check(p) <= 1e-15 and np.array_equal(p.operators[0], _half_identity())


@pytest.mark.parametrize(
    "build, shape",
    [
        (lambda rows: Povm(2, ["a", "b"], rows), (3, 2)),
        (lambda rows: Povm(2, ["a", "b"], rows.T[:2].copy()), (2, 3)),
        (lambda rows: JointOutcomeSet(1, 2, ["a", "b"], rows), (3, 2)),
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
        lambda rows: JointOutcomeSet(1, 2, ["a", "b"], rows),
    ],
    ids=["povm", "outcome-set"],
)
def test_stack_constructors_reject_rows_of_unequal_lengths(build):
    message = "^rows that are not one complex stack for 2 labels of dim 2$"
    with pytest.raises(SpaceMismatchError, match=message) as caught:
        build([[1, 0], [0]])
    assert isinstance(caught.value.__cause__, ValueError)


def test_from_vectors_of_no_rows_is_refused_as_an_empty_povm():
    with pytest.raises(ValidationError, match="^a POVM needs at least one element$") as caught:
        Povm.from_vectors(2, [], [])
    assert caught.value.invariant == "nonempty"


def test_a_povm_equals_a_stack_povm_of_the_same_stack(scenario, vh_povm):
    for p in (povm_DA(scenario, merge_A=False), coarse_grain(vh_povm, ("V1", "V2"), "V12")):
        again = Povm(p.system_dim, p.labels(), p.vectors, p.operators)
        assert again == p and again.operators.keys() == p.operators.keys()
        assert all(np.array_equal(again.operators[k], op) for k, op in p.operators.items())


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_from_vectors_raises_for_the_first_faulty_row(bad):
    # A RuntimeWarning fails the test: the rows are checked before fix_phase divides by a pivot.
    stack = np.array([[1.0, 0.0], [bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError) as caught:
        Povm.from_vectors(2, ["a", "b", "c"], stack)
    assert caught.value.invariant == "finite-amplitudes"
    with pytest.raises(SpaceMismatchError, match=re.escape("a stack of shape (3, 2) for 2")):
        Povm.from_vectors(2, ["a", "b"], np.eye(3, 2))


@pytest.mark.parametrize(
    "stack, message",
    [
        ([[1, 0], [0]], "rows that are not one complex stack for 2 labels of dim 2"),
        ([[1, 0], ["x", 1]], "rows that are not one complex stack for 2 labels of dim 2"),
        (np.ones((2, 2, 1)), "a stack of shape (2, 2, 1) for 2 labels of dim 2"),
    ],
    ids=["ragged", "string-entry", "three-axes"],
)
def test_from_vectors_maps_a_malformed_stack_as_the_constructor_does(stack, message):
    for build in (Povm, Povm.from_vectors):
        with pytest.raises(SpaceMismatchError, match=f"^{re.escape(message)}$"):
            build(2, ["a", "b"], stack)
