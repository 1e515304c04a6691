"""Dilations, derived POVMs, residual components, and the inverse construction."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxlab import (
    Dilation,
    JointOutcomeSet,
    Povm,
    SpaceMismatchError,
    ValidationError,
    build_three_path,
    completeness_check,
    context_switch_povm,
    dilation_DA,
    dilation_VH,
    gram,
    naimark_dilate,
    povm_from_dilation,
    residual_decompose,
    verify_constraints,
)
from helpers import (
    element_row,
    norm_sq,
    outcome_row,
    phase_aligned_max_err,
    random_rank1_povm,
    random_unitary,
    unit,
)

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


def _random_dilation(rng, env_dim, sys_dim):
    basis = random_unitary(rng, env_dim * sys_dim)
    labels = [f"m{k}" for k in range(env_dim * sys_dim)]
    phi = rng.normal(size=env_dim) + 1j * rng.normal(size=env_dim)
    phi = phi / np.linalg.norm(phi)
    return Dilation(JointOutcomeSet(env_dim, sys_dim, labels, basis.T.copy()), phi)


def test_outcome_set_validates_orthonormality():
    v = np.eye(2)[1]
    p1 = np.eye(3)[0]
    twice = np.array([np.kron(v, p1)] * 2)
    with pytest.raises(ValidationError) as err:
        JointOutcomeSet(2, 3, ["a", "b"], twice)
    assert err.value.invariant == "unique-labels" or err.value.invariant == "outcome-orthonormality"
    skew = np.kron(v, [0.9, 0.1, 0.0])
    with pytest.raises(ValidationError):
        JointOutcomeSet(2, 3, ["a", "b"], np.array([np.kron(v, p1), skew]))


@pytest.mark.parametrize("name", ["env_dim", "sys_dim", "tol", "vectors", "_index"])
def test_outcome_set_fields_can_be_neither_assigned_nor_deleted(name):
    outcomes = JointOutcomeSet(2, 2, ["m0", "m1", "m2"], np.eye(3, 4, dtype=complex))
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(outcomes, name, None)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(outcomes, name)
    assert outcomes.labels() == ("m0", "m1", "m2") and not outcomes.vectors.flags.writeable


def test_outcome_set_count_cannot_exceed_dimension():
    rows = np.eye(2)[[0, 1, 0]]  # |0> (x) |a> for a = 0, 1, 0 on a dim-1 environment
    with pytest.raises(ValidationError):
        JointOutcomeSet(1, 2, ["a", "b", "c"], rows)


def test_dilation_requires_normalised_environment_state():
    s = build_three_path()
    outcomes = dilation_VH(s).outcomes
    with pytest.raises(ValidationError):
        Dilation(outcomes, [1.0, 1.0])
    with pytest.raises(SpaceMismatchError):
        Dilation(outcomes, np.eye(3)[0])


def test_dilation_requires_phi_init_on_the_environment_factor():
    outcomes = dilation_VH(build_three_path()).outcomes
    with pytest.raises(SpaceMismatchError, match="^phi_init dim 3 != environment factor 2$"):
        Dilation(outcomes, np.eye(3)[0])
    with pytest.raises(SpaceMismatchError, match=r"^a ket of shape \(1, 2\) for phi_init$"):
        Dilation(outcomes, np.eye(1, 2))
    with pytest.raises(ValidationError) as err:
        Dilation(outcomes, [np.nan, 1.0])
    assert err.value.invariant == "finite-amplitudes"


def test_phi_init_is_a_read_only_copy_compared_by_value():
    s = build_three_path()
    outcomes = dilation_VH(s).outcomes
    phi = np.array(s.d)
    d = Dilation(outcomes, phi)
    phi[0] = 1.0
    assert d == dilation_VH(s) and d.phi_init.dtype == complex
    with pytest.raises(ValueError):
        d.phi_init[0] = 1.0
    assert Dilation(outcomes, s.a) != d


def test_product_outcomes_give_projective_elements():
    # outcomes |x> (x) |a> with phi_init = |x> contract to the bare basis
    x = np.eye(2)[0]
    rows = np.array([np.kron(x, np.eye(3)[i]) for i in range(3)])
    outcomes = JointOutcomeSet(2, 3, ["a0", "a1", "a2"], rows)
    p = povm_from_dilation(Dilation(outcomes, x))
    for i, label in enumerate(p.labels()):
        el = element_row(p, label)
        assert abs(norm_sq(el) - 1.0) <= 1e-12
        assert phase_aligned_max_err(el, np.eye(3)[i]) <= 1e-12


def test_three_path_VH_povm_reproduces_published_elements():
    s = build_three_path()
    p = povm_from_dilation(dilation_VH(s))
    expected = {
        "V1": np.array([1.0, 0.0, 0.0]) / SQ2,
        "V2": np.array([0.0, 1.0, 0.0]) / SQ2,
        "V3": np.array([0.0, 0.0, 1.0]) / SQ2,
        "H1": np.array([1.0, -2.0, 2.0]) / (3.0 * SQ2),
        "H2": np.array([-2.0, 1.0, 2.0]) / (3.0 * SQ2),
        "H3": np.array([2.0, 2.0, 1.0]) / (3.0 * SQ2),
    }
    for label, vec in expected.items():
        el = element_row(p, label)
        assert abs(norm_sq(el) - 0.5) <= 1e-12
        assert phase_aligned_max_err(el, vec) <= 1e-12
    assert completeness_check(p) <= 1e-12


def test_outcomes_orthogonal_to_initial_condition_become_zero_elements():
    s = build_three_path()
    p = povm_from_dilation(dilation_VH(s, phi_init=s.h))
    for i in (1, 2, 3):
        assert norm_sq(element_row(p, f"V{i}")) <= 1e-15
        assert abs(norm_sq(element_row(p, f"H{i}")) - 1.0) <= 1e-12


def test_residuals_vanish_for_product_outcomes():
    x = np.eye(2)[0]
    rows = np.array([np.kron(x, np.eye(3)[i]) for i in range(3)])
    outcomes = JointOutcomeSet(2, 3, ["a0", "a1", "a2"], rows)
    residuals = residual_decompose(Dilation(outcomes, x))
    for sigma in residuals.vectors:
        assert np.linalg.norm(sigma) <= 1e-12


def test_residuals_of_entangled_outcomes_lie_along_rejected_context():
    s = build_three_path()
    residuals = residual_decompose(dilation_DA(s))
    a_f = np.kron(s.a, s.f)
    for i in (1, 2, 3):
        sigma = outcome_row(residuals, f"D{i}")
        assert abs(norm_sq(sigma) - 1.0 / 3.0) <= 1e-9
        overlap = abs(np.vdot(a_f, unit(sigma)))
        assert abs(overlap - 1.0) <= 1e-9


def test_constraints_hold_for_three_path_dilations():
    s = build_three_path()
    for d in (dilation_VH(s), dilation_DA(s)):
        report = verify_constraints(d)
        assert report.max_orthogonality_residual <= 1e-9
        assert report.max_normalisation_residual <= 1e-9
        assert report.ok()


def test_residual_gram_mirrors_element_gram():
    # <sigma(D,1)|sigma(D,2)> = +1/3 balances <lambda(D,1)|lambda(D,2)> = -1/3
    s = build_three_path()
    d = dilation_DA(s)
    sigmas = np.array([outcome_row(residual_decompose(d), f"D{i}") for i in (1, 2)])
    assert abs(gram(sigmas)[0, 1] - (1.0 / 3.0)) <= 1e-12


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_constraints_hold_for_random_dilations(env_dim, sys_dim, seed):
    d = _random_dilation(np.random.default_rng(seed), env_dim, sys_dim)
    report = verify_constraints(d)
    assert report.max_orthogonality_residual <= 1e-9
    assert report.max_normalisation_residual <= 1e-9
    derived = povm_from_dilation(d)
    assert completeness_check(derived) <= 1e-9
    # the lambda Gram matrix is a rank-d_S projection
    g = gram(derived.vectors)
    assert np.abs(g @ g - g).max() <= 1e-9
    assert abs(np.trace(g).real - sys_dim) <= 1e-9


def test_perturbed_outcomes_are_reported_not_raised():
    s = build_three_path()
    outcomes = dilation_DA(s).outcomes
    bumped = np.array(outcomes.vectors)
    bumped[outcomes.labels().index("D1"), 0] += 1e-3
    loose = JointOutcomeSet(2, 3, outcomes.labels(), bumped, validate=False)
    report = verify_constraints(Dilation(loose, s.d))
    worst = max(report.max_orthogonality_residual, report.max_normalisation_residual)
    assert 1e-4 < worst < 1e-2
    assert not report.ok()


def test_naimark_of_projective_povm_has_no_residual():
    p = Povm.from_vectors(3, ["b0", "b1", "b2"], np.eye(3))
    d = naimark_dilate(p)
    assert d.outcomes.env_dim == 3
    np.testing.assert_allclose(d.phi_init, [1.0, 0.0, 0.0])
    for sigma in residual_decompose(d).vectors:
        assert np.linalg.norm(sigma) <= 1e-9


def test_naimark_round_trip_on_three_path_povm():
    from ctxlab import povm_DA

    p = povm_DA(build_three_path(), merge_A=True)
    d = naimark_dilate(p)
    assert d.outcomes.env_dim == len(p)
    assert d.outcomes.orthonormality_residual() <= 1e-9
    again = povm_from_dilation(d)
    assert again.labels() == p.labels()
    for row, row2 in zip(p.vectors, again.vectors):
        assert np.abs(row - row2).max() <= 1e-9


@st.composite
def _povm_shapes(draw):
    """A system dimension d in 2-8 and an element count M in d-3d."""
    dim = draw(st.integers(2, 8))
    return dim, draw(st.integers(dim, 3 * dim))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_povm_shapes(), st.integers(0, 2**32 - 1))
def test_naimark_round_trip_on_random_povm(shape, seed):
    p = random_rank1_povm(np.random.default_rng(seed), *shape)
    d = naimark_dilate(p)
    again = povm_from_dilation(d)
    for row, row2 in zip(p.vectors, again.vectors):
        assert np.abs(row - row2).max() <= 1e-9
    # <sigma(m)|sigma(m')> + <lambda(m)|lambda(m')> = delta(m, m'), in plain numpy
    sigmas, lambdas = residual_decompose(d).vectors, again.vectors
    total = sigmas.conj() @ sigmas.T + lambdas.conj() @ lambdas.T
    assert np.abs(total - np.eye(len(p))).max() <= 1e-9


def test_naimark_round_trip_returns_the_povm_with_canonical_phases():
    rng = np.random.default_rng(31)
    rows = random_rank1_povm(rng, 4, 16).vectors
    phases = np.exp(2j * np.pi * rng.uniform(size=(16, 1)))
    p = Povm(4, [f"m{k}" for k in range(16)], rows * phases)
    again = povm_from_dilation(naimark_dilate(p))
    assert again == Povm.from_vectors(4, p.labels(), p.vectors)
    assert np.abs(again.vectors - p.vectors).max() > 0.1  # not p: its phases are not canonical


def test_naimark_rejects_incomplete_and_operator_povms():
    p = Povm.from_vectors(3, ["only"], np.array([[1.0, 0.0, 0.0]]) / SQ2)
    with pytest.raises(ValidationError) as err:
        naimark_dilate(p)
    assert err.value.invariant == "completeness"
    identity = {0: np.eye(2)}
    with pytest.raises(ValidationError) as err:
        naimark_dilate(Povm(2, ["op"], np.zeros((1, 2), dtype=complex), identity))
    assert err.value.invariant == "rank-one-elements"
    heavy = Povm.from_vectors(2, ["a", "b"], np.diag([np.sqrt(1.5), 1.0]))
    with pytest.raises(ValidationError) as err:
        naimark_dilate(heavy)
    assert err.value.invariant == "element-bounds"


def test_context_switch_matches_dilation_derivation():
    s = build_three_path()
    hwp = np.eye(3) - 2.0 * np.outer(s.f, s.f.conj())
    p = context_switch_povm(
        contexts=[(s.v, np.eye(3)), (s.h, hwp)],
        basis=s.paths,
        phi_init=s.d,
        labels=[["V1", "V2", "V3"], ["H1", "H2", "H3"]],
    )
    q = povm_from_dilation(dilation_VH(s))
    assert p.labels() == q.labels()
    for row, row2 in zip(p.vectors, q.vectors):
        assert np.abs(row - row2).max() <= 1e-12


def test_single_context_gives_rotated_projective_povm():
    rng = np.random.default_rng(31)
    u = random_unitary(rng, 2)
    x = np.eye(2)[0]
    p = context_switch_povm([(x, u)], np.eye(2), x)
    assert completeness_check(p) <= 1e-12
    for label in p.labels():
        assert abs(norm_sq(element_row(p, label)) - 1.0) <= 1e-12


def test_uniform_context_choice_scales_every_weight():
    for count in (2, 3, 5):
        contexts = [(env, np.eye(2)) for env in np.eye(count)]
        phi = np.ones(count) / np.sqrt(count)
        p = context_switch_povm(contexts, np.eye(2), phi)
        assert completeness_check(p) <= 1e-12
        for label in p.labels():
            assert abs(norm_sq(element_row(p, label)) - 1.0 / count) <= 1e-12


def test_context_switch_validates_inputs():
    x = np.eye(2)[0]
    basis = np.eye(2)
    not_unitary = np.array([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValidationError) as err:
        context_switch_povm([(x, not_unitary)], basis, x)
    assert err.value.invariant == "unitarity"
    overlapping = [(x, np.eye(2)), (x, np.eye(2))]
    with pytest.raises(ValidationError):
        context_switch_povm(overlapping, basis, x)
    with pytest.raises(ValidationError):
        context_switch_povm([(x, np.eye(2))], [basis[0]], x)
    with pytest.raises(SpaceMismatchError, match=r"^a stack of shape \(1, 3\) for 1 context"):
        context_switch_povm([(np.eye(3)[0], np.eye(2))], basis, x)


@pytest.mark.parametrize(
    "labels", [[["a", "b"]], [["a", "b"], ["c"]]], ids=["one-group-short", "one-label-short"]
)
def test_context_switch_rejects_short_labels(labels):
    contexts = [(env, np.eye(2)) for env in np.eye(2)]
    basis = np.eye(2)
    with pytest.raises(ValidationError, match="^labels must hold 2 groups of 2") as err:
        context_switch_povm(contexts, basis, np.eye(2)[0], labels=labels)
    assert err.value.invariant == "labels"
    p = context_switch_povm(contexts, basis, np.eye(2)[0], labels=[["a", "b"], ["c", "d"]])
    assert p.labels() == ("a", "b", "c", "d")


def test_context_switch_rejects_an_empty_readout_basis():
    x = np.eye(2)[0]
    with pytest.raises(ValidationError, match="^readout basis has no kets$") as err:
        context_switch_povm([(x, np.eye(2))], [], x)
    assert err.value.invariant == "basis-completeness"


def test_incomplete_context_span_leaves_incomplete_povm():
    x = np.eye(2)[0]
    phi = np.array([1.0, 1.0]) / SQ2
    p = context_switch_povm([(x, np.eye(2))], np.eye(2), phi)
    assert abs(completeness_check(p) - 0.5) <= 1e-12


def test_dilations_record_the_tol_that_validated_them():
    s = build_three_path()
    for build in (dilation_VH, dilation_DA):
        d = build(s, tol=1e-6)
        assert d.tol == 1e-6 and d.outcomes.tol == 1e-6
        assert build(s).tol == 1e-9


def test_outcome_vectors_hold_one_read_only_row_per_outcome():
    d = dilation_DA(build_three_path())
    assert d.outcomes.vectors.shape == (6, 6) and d.outcomes.vectors.dtype == complex
    assert not d.outcomes.vectors.flags.writeable
    with pytest.raises(ValueError):
        d.outcomes.vectors[0, 0] = 1.0


def test_residual_rows_equal_the_per_outcome_contraction_bit_for_bit():
    rng = np.random.default_rng(59)
    for env_dim, sys_dim in ((2, 3), (3, 2), (4, 4)):
        d = _random_dilation(rng, env_dim, sys_dim)
        sigmas = residual_decompose(d).vectors
        phi = d.phi_init
        for k, m in enumerate(d.outcomes.vectors):
            expected = m - np.kron(phi, phi.conj() @ m.reshape(env_dim, sys_dim))
            assert np.array_equal(sigmas[k].view(float), expected.view(float))
