"""POVM containers, outcome statistics, context relations, and coarse-graining."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxlab import (
    DensityMatrix,
    JointOutcomeSet,
    Ket,
    Operator,
    Povm,
    PovmElement,
    Space,
    SpaceMismatchError,
    UnknownLabelError,
    ValidationError,
    basis_ket,
    basis_mixture_povm,
    build_three_path,
    coarse_grain,
    completeness_check,
    context_graph,
    context_selection_probability,
    dilation_DA,
    dilation_VH,
    hwp_transform,
    load_fixture,
    maximizing_state,
    povm_DA,
    povm_from_dilation,
    probability,
    rescaled_probability,
    share_context,
    tensor,
    validate_povm,
)
from helpers import random_pure_state, random_rank1_povm, random_unitary
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


def test_element_needs_exactly_one_payload():
    space = Space.system(2)
    k = basis_ket(space, 0)
    op = Operator.identity(space)
    with pytest.raises(ValidationError):
        PovmElement("both", vector=k, operator=op)
    with pytest.raises(ValidationError):
        PovmElement("neither")
    with pytest.raises(SpaceMismatchError):
        PovmElement("env", vector=basis_ket(Space.environment(2), 0))
    with pytest.raises(ValidationError):
        PovmElement("skew", operator=Operator(space, np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_povm_rejects_duplicate_labels_and_mixed_dims():
    k2 = basis_ket(Space.system(2), 0)
    k3 = basis_ket(Space.system(3), 0)
    with pytest.raises(ValidationError):
        Povm(2, (PovmElement("a", vector=k2), PovmElement("a", vector=k2)))
    with pytest.raises(SpaceMismatchError):
        Povm(2, (PovmElement("a", vector=k2), PovmElement("b", vector=k3)))
    with pytest.raises(ValidationError):
        Povm(2, ())


def test_from_vectors_fixes_global_phase():
    p = Povm.from_vectors([("m", np.array([0.0, -1.0j]))])
    np.testing.assert_allclose(p.element("m").vector.amplitudes, [0.0, 1.0])
    with pytest.raises(UnknownLabelError):
        p.element("missing")


@pytest.mark.parametrize("name", ["system_dim", "vectors", "elements", "_operators", "_index"])
def test_povm_fields_can_be_neither_assigned_nor_deleted(name):
    p = Povm.from_vectors([("a", np.array([1.0, 0.0])), ("b", np.array([0.0, 1.0j]))])
    assert len(p.elements) == 2  # built and cached
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(p, name, None)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(p, name)
    assert p.labels() == ("a", "b") and not p.vectors.flags.writeable


def test_density_matrix_validation():
    space = Space.system(2)
    with pytest.raises(ValidationError):
        DensityMatrix.from_ket(Ket(space, [1.0, 1.0]))
    with pytest.raises(ValidationError):
        DensityMatrix.from_matrix(np.array([[0.5, 0.5], [-0.5, 0.5]]))
    with pytest.raises(ValidationError):
        DensityMatrix.from_matrix(np.array([[1.5, 0.0], [0.0, -0.5]]))
    with pytest.raises(ValidationError):
        DensityMatrix.from_matrix(np.eye(2))
    mixed = DensityMatrix.from_matrix(np.eye(2) / 2.0)
    assert mixed.dim == 2


def test_from_ket_checks_the_trace_at_its_own_tol():
    psi = Ket(Space.system(2), np.sqrt((1.0 + 2e-7) / 2.0) * np.ones(2))
    with pytest.raises(ValidationError) as err:
        DensityMatrix.from_ket(psi)
    assert err.value.invariant == "state-normalisation"
    rho = DensityMatrix.from_ket(psi, tol=1e-6)
    assert abs(np.trace(rho.matrix).real - (1.0 + 2e-7)) <= 1e-15


def test_completeness_of_derived_povms(vh_povm, da_povm):
    assert completeness_check(vh_povm) <= 1e-12
    assert completeness_check(da_povm) <= 1e-12
    validate_povm(vh_povm)
    validate_povm(da_povm)


def test_dropping_the_plate_outcome_leaves_a_third(da_povm):
    partial = Povm(3, tuple(el for el in da_povm.elements if el.label != "A"))
    assert abs(completeness_check(partial) - 1.0 / 3.0) <= 1e-12


def test_validate_povm_rejects_oversized_elements():
    heavy = Povm.from_vectors([("m", np.array([1.1, 0.0]))])
    with pytest.raises(ValidationError) as err:
        validate_povm(heavy)
    assert err.value.invariant == "element-bounds"
    big_op = Povm(2, (PovmElement("op", operator=Operator(Space.system(2), 1.5 * np.eye(2))),))
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
    psi = Ket(Space.system(3), np.ones(3) / SQ3)
    assert abs(probability(da_povm, psi, "D1") - 4.0 / 27.0) <= 1e-12
    assert abs(probability(da_povm, psi, "D2") - 4.0 / 27.0) <= 1e-12
    assert abs(probability(da_povm, psi, "D3") - 16.0 / 27.0) <= 1e-12
    assert abs(probability(da_povm, psi, "A") - 1.0 / 9.0) <= 1e-12


def test_mixed_state_probability_is_weight_over_dim(da_povm):
    mixed = DensityMatrix.from_matrix(np.eye(3) / 3.0)
    assert abs(probability(da_povm, mixed, "A") - 1.0 / 3.0) <= 1e-12
    assert abs(probability(da_povm, mixed, "D1") - 2.0 / 9.0) <= 1e-12


def test_probability_checks_the_state(da_povm):
    with pytest.raises(ValidationError):
        probability(da_povm, Ket(Space.system(3), [1.0, 1.0, 0.0]), "A")
    with pytest.raises(SpaceMismatchError):
        probability(da_povm, basis_ket(Space.system(2), 0), "A")


def test_context_selection_probabilities(da_povm, vh_povm):
    for i in (1, 2, 3):
        assert abs(context_selection_probability(da_povm, f"D{i}") - 2.0 / 3.0) <= 1e-12
        assert abs(context_selection_probability(vh_povm, f"V{i}") - 0.5) <= 1e-12
        assert abs(context_selection_probability(vh_povm, f"H{i}") - 0.5) <= 1e-12
    assert abs(context_selection_probability(da_povm, "A") - 1.0) <= 1e-12


def test_operator_element_context_selection_is_peak_probability(da_povm):
    merged = coarse_grain(da_povm, ("D1", "D2"), "D12")
    el = merged.element("D12")
    assert not el.is_vector
    # trace 4/3 splits into eigenvalues 1 and 1/3; the peak probability is 1
    assert abs(el.weight() - 4.0 / 3.0) <= 1e-12
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
            direction = da_povm.element(label).vector.normalized()
            assert abs(r - abs(direction.inner(psi)) ** 2) <= 1e-12
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


def test_share_context_on_the_merged_povm(da_povm):
    for i in (1, 2, 3):
        rel = share_context(da_povm, "A", f"D{i}")
        assert rel.shared and not rel.proportional
        assert rel.witness <= 1e-12
    for i, j in ((1, 2), (1, 3), (2, 3)):
        rel = share_context(da_povm, f"D{i}", f"D{j}")
        assert not rel.shared
        assert abs(rel.witness - 0.5) <= 1e-12


def test_unmerged_plate_outcomes_are_proportional(scenario):
    p = povm_DA(scenario, merge_A=False)
    rel = share_context(p, "A1", "A2")
    assert rel.shared and rel.proportional
    assert abs(rel.witness - 1.0) <= 1e-12
    for i in (1, 2, 3):
        assert abs(context_selection_probability(p, f"A{i}") - 1.0 / 3.0) <= 1e-12


def test_share_context_rejects_zero_weight(scenario):
    p = povm_from_dilation(dilation_VH(scenario, phi_init=scenario.h))
    with pytest.raises(ValidationError) as err:
        share_context(p, "V1", "H1")
    assert err.value.invariant == "nonzero-element"


def test_operator_share_context_uses_support_commutators(vh_povm, da_povm):
    # span{D1, D2} is the full plane orthogonal to the plate direction
    merged = coarse_grain(da_povm, ("D1", "D2"), "D12")
    rel = share_context(merged, "D12", "A")
    assert rel.test == "commutator" and rel.shared and rel.witness <= 1e-9
    rel = share_context(merged, "D12", "D3")
    assert rel.shared and rel.witness <= 1e-9
    # span{V1, H1} neither contains nor avoids the V2 direction
    skew = coarse_grain(vh_povm, ("V1", "H1"), "VH1")
    rel = share_context(skew, "VH1", "V2")
    assert rel.test == "commutator" and not rel.shared and rel.witness > 0.1


def test_context_graph_is_a_star(da_povm):
    g = context_graph(da_povm)
    assert set(g.nodes) == {"D1", "D2", "D3", "A"}
    assert len(g.edges) == 3
    assert g.degree("A") == 3
    for i in (1, 2, 3):
        assert g.has_edge("A", f"D{i}")
        assert g.degree(f"D{i}") == 1
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
    return [el.vector.amplitudes if el.is_vector else el.operator.entries for el in p.elements]


def _clear_of_thresholds(witness):
    return witness <= 1e-12 or witness >= 1.0 - 1e-12 or 1e-3 <= witness <= 1.0 - 1e-3


@st.composite
def context_povms(draw):
    """A seeded POVM with one coarse-grained operator element, plus its oracle pairs.

    Basis mixtures of two random bases, some elements split into two exactly
    proportional parts, or rows of a random isometry; M <= 3d. Every pair's
    witness sits within 1e-12 of 0 or 1 or at least 1e-3 away from both, so no
    verdict depends on round-off; a draw that breaks this is redrawn.
    """
    dim = draw(st.integers(2, 8))
    mixture = draw(st.booleans())
    splits = draw(st.integers(0, dim))
    count = draw(st.integers(dim, 3 * dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while True:
        if mixture:
            pairs = []
            for x in range(2):
                basis = random_unitary(rng, dim)
                for a in range(dim):
                    u = basis[:, a] / SQ2
                    if x == 0 and a < splits:
                        pairs += [(f"0:{a}", u / np.sqrt(5.0)), (f"0:{a}'", 2.0 * u / np.sqrt(5.0))]
                    else:
                        pairs.append((f"{x}:{a}", u))
            p = coarse_grain(Povm.from_vectors(pairs), ("0:0", "0:1"), "merged")
        else:
            p = coarse_grain(random_rank1_povm(rng, dim, count), ("m0", "m1"), "merged")
        pairs = context_pairs(_oracle_elements(p), 1e-9)
        if all(_clear_of_thresholds(w) for _, _, w, _ in pairs):
            phases = np.exp(2j * np.pi * rng.random(len(p)))
            return p, pairs, random_unitary(rng, dim), phases


def _transformed(p, unitary, phases):
    space = Space.system(p.system_dim)
    elements = []
    for el, phase in zip(p.elements, phases):
        if el.is_vector:
            ket = Ket(space, phase * (unitary @ el.vector.amplitudes))
            elements.append(PovmElement(el.label, vector=ket))
        else:
            op = Operator(space, unitary @ el.operator.entries @ unitary.conj().T)
            elements.append(PovmElement(el.label, operator=op))
    return Povm(p.system_dim, tuple(elements))


def _edge_set(graph):
    return {(a, b) for a, b, _ in graph.edges}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(context_povms())
def test_context_graph_matches_the_pairwise_oracle(case):
    p, pairs, unitary, phases = case
    assert any(not el.is_vector for el in p.elements)
    labels = p.labels()
    g = context_graph(p, 1e-9)
    assert g.nodes == labels and g.skipped == ()
    expected = [(labels[i], labels[j], w) for i, j, w, shared in pairs if shared]
    assert [(a, b) for a, b, _ in g.edges] == [(a, b) for a, b, _ in expected]
    for (_, _, got), (_, _, want) in zip(g.edges, expected):
        assert abs(got - want) <= 1e-12
    for i, j, witness, _ in pairs:
        rel = share_context(p, labels[i], labels[j], 1e-9)
        assert rel.shared == g.has_edge(labels[i], labels[j])
        assert abs(rel.witness - witness) <= 1e-12
    rotated = _transformed(p, unitary, np.ones(len(p)))
    rephased = _transformed(p, np.eye(p.system_dim), phases)
    for q in (rotated, rephased):
        assert _edge_set(context_graph(q, 1e-9)) == _edge_set(g)


def test_coarse_grain_recovers_the_merged_element(scenario, da_povm):
    raw = povm_DA(scenario, merge_A=False)
    merged = coarse_grain(raw, ("A1", "A2", "A3"), "A")
    assert merged.labels() == ("D1", "D2", "D3", "A")
    el = merged.element("A")
    assert el.is_vector
    assert np.abs(el.vector.amplitudes - da_povm.element("A").vector.amplitudes).max() <= 1e-12
    f_direction = np.array([1.0, 1.0, -1.0]) / SQ3
    assert np.abs(el.vector.amplitudes - f_direction).max() <= 1e-12


def test_coarse_grain_full_merge_gives_identity(vh_povm):
    merged = coarse_grain(vh_povm, vh_povm.labels(), "all")
    el = merged.element("all")
    assert not el.is_vector
    assert np.abs(el.matrix() - np.eye(3)).max() <= 1e-12
    assert len(merged) == 1


def test_coarse_grain_partial_merge_keeps_operator_weight(vh_povm):
    merged = coarse_grain(vh_povm, ("V1", "V2"), "V12")
    el = merged.element("V12")
    assert not el.is_vector
    assert abs(el.weight() - 1.0) <= 1e-12
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


def test_two_basis_mixture_reproduces_the_VH_povm(scenario, vh_povm):
    mix = basis_mixture_povm(
        [list(scenario.paths), [hwp_transform(scenario, p) for p in scenario.paths]],
        [0.5, 0.5],
        labels=[["V1", "V2", "V3"], ["H1", "H2", "H3"]],
    )
    assert mix.labels() == vh_povm.labels()
    for el, el2 in zip(mix.elements, vh_povm.elements):
        assert np.abs(el.vector.amplitudes - el2.vector.amplitudes).max() <= 1e-15
        assert abs(context_selection_probability(mix, el.label) - 0.5) <= 1e-12


def test_three_basis_qubit_mixture():
    space = Space.system(2)
    z = [basis_ket(space, 0), basis_ket(space, 1)]
    x = [Ket(space, np.array([1.0, 1.0]) / SQ2), Ket(space, np.array([1.0, -1.0]) / SQ2)]
    y = [Ket(space, np.array([1.0, 1.0j]) / SQ2), Ket(space, np.array([1.0, -1.0j]) / SQ2)]
    p = basis_mixture_povm([z, x, y], [1.0 / 3.0] * 3)
    assert completeness_check(p) <= 1e-12
    for label in p.labels():
        assert abs(context_selection_probability(p, label) - 1.0 / 3.0) <= 1e-12
    assert abs(rescaled_probability(p, z[0], "0:0") - 1.0) <= 1e-12


def test_basis_mixture_validates_inputs():
    space = Space.system(2)
    z = [basis_ket(space, 0), basis_ket(space, 1)]
    tilted = [basis_ket(space, 0), Ket(space, np.array([0.1, 1.0]) / np.sqrt(1.01))]
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


def test_random_rank1_povms_are_complete():
    rng = np.random.default_rng(43)
    for dim in (2, 3, 4, 5):
        for count in (dim, dim + 2, 2 * dim):
            p = random_rank1_povm(rng, dim, count)
            assert completeness_check(p) <= 1e-12
            validate_povm(p)


def test_elements_and_states_record_the_tol_that_validated_them():
    psi = Ket(Space.system(2), np.array([1.0, 0.0]))
    assert DensityMatrix.from_ket(psi, tol=1e-6).tol == 1e-6
    assert DensityMatrix.from_ket(psi).tol == 1e-9
    element = PovmElement("a", operator=Operator(psi.space, np.eye(2)), tol=1e-6)
    assert element.tol == 1e-6
    assert "tol" not in repr(PovmElement("b", vector=psi, tol=1e-6))


def test_operator_elements_give_trace_probabilities_and_rank_one_maximizers():
    rng = np.random.default_rng(43)
    u = random_unitary(rng, 3)
    space = Space.system(3)
    half = Operator(space, 0.5 * np.outer(u[:, 0], u[:, 0].conj()))
    plane = Operator(space, np.outer(u[:, 1], u[:, 1].conj()) + np.outer(u[:, 2], u[:, 2].conj()))
    p = Povm(3, (PovmElement("half", operator=half), PovmElement("plane", operator=plane)))
    psi = random_pure_state(rng, 3)
    overlap = abs(np.vdot(u[:, 0], psi.amplitudes)) ** 2
    assert abs(probability(p, psi, "half") - 0.5 * overlap) <= 1e-12
    assert abs(rescaled_probability(p, psi, "half") - overlap) <= 1e-12
    rho = maximizing_state(p, "half")
    assert np.abs(rho.matrix - np.outer(u[:, 0], u[:, 0].conj())).max() <= 1e-12
    assert abs(probability(p, rho, "half") - 0.5) <= 1e-12
    with pytest.raises(ValidationError) as err:
        maximizing_state(p, "plane")
    assert err.value.invariant == "rank-one"


def test_vectors_hold_one_read_only_row_per_element(da_povm):
    merged = coarse_grain(da_povm, ("D1", "D2"), "D12")
    assert merged.vectors.shape == (len(merged), 3) and merged.vectors.dtype == complex
    for row, el in zip(merged.vectors, merged.elements):
        assert np.array_equal(row, el.vector.amplitudes if el.is_vector else np.zeros(3))
    assert not merged.vectors.flags.writeable
    with pytest.raises(ValueError):
        merged.vectors[0, 0] = 1.0
    identity = Povm(2, (PovmElement("I", operator=Operator.identity(Space.system(2))),))
    assert identity.vectors.dtype == complex and not identity.vectors.any()


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
    assert DensityMatrix.from_ket(scenario.f) == DensityMatrix.from_ket(scenario.f)
    assert Ket(scenario.system, [1.0, 0.0, 0.0]) == scenario.paths[0]
    assert Ket(scenario.system, [1.0, 0.0, 0.0]) != scenario.paths[1]
    assert Ket(scenario.environment, [1.0, 0.0]) != Ket(scenario.system, [1.0, 0.0, 0.0])
    assert povm_DA(scenario) != povm_DA(scenario, merge_A=False)
    assert merged != vh_povm and Ket(scenario.system, [1.0, 0.0, 0.0]) != "not a ket"


def test_a_one_ulp_change_compares_unequal(scenario, vh_povm):
    ket = scenario.f
    assert ket != Ket(ket.space, _one_ulp_up(ket.amplitudes))
    op = Operator(ket.space, ket.projector())
    assert op != Operator(ket.space, _one_ulp_up(op.entries))
    assert DensityMatrix(op) != DensityMatrix(Operator(ket.space, _one_ulp_up(op.entries)))
    p = povm_DA(scenario)
    assert p != Povm.from_stack(p.system_dim, p.labels(), _one_ulp_up(p.vectors))
    merged = coarse_grain(vh_povm, ("V1", "V2"), "V12")
    entries = _one_ulp_up(merged.element("V12").operator.entries)
    bumped = {0: PovmElement("V12", operator=Operator(ket.space, entries))}
    assert merged != Povm.from_stack(3, merged.labels(), merged.vectors, bumped)
    outcomes = dilation_DA(scenario).outcomes
    moved = _one_ulp_up(outcomes.vectors)
    assert outcomes != JointOutcomeSet.from_stack(outcomes.space, outcomes.labels(), moved)


def test_a_povm_equals_a_stack_povm_of_the_same_stack(scenario, vh_povm):
    for p in (povm_DA(scenario, merge_A=False), coarse_grain(vh_povm, ("V1", "V2"), "V12")):
        eager = Povm(p.system_dim, p.elements)
        assert eager == Povm.from_stack(p.system_dim, p.labels(), p.vectors, p.operators)
        assert eager.elements == p.elements


def test_from_vectors_raises_for_the_first_faulty_row():
    good, nan, long = np.array([1.0, 0.0]), np.array([np.nan, 0.0]), np.ones(3)
    with pytest.raises(ValidationError) as caught:
        Povm.from_vectors([("a", good), ("b", nan), ("c", long)])
    assert caught.value.invariant == "finite-amplitudes"
    with pytest.raises(SpaceMismatchError, match="^3 amplitudes for a dim-2 space$"):
        Povm.from_vectors([("a", good), ("c", long), ("b", nan)])
