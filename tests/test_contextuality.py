"""Hardy-type triples, rescaled-probability inequalities, and their optimum."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxlab import (
    DensityMatrix,
    HardyTriple,
    Ket,
    Operator,
    Povm,
    Space,
    SpaceMismatchError,
    ValidationError,
    basis_ket,
    completeness_check,
    context_selection_probability,
    evaluate_inequality,
    hardy_embedding_povm,
    hardy_state,
    max_violation,
    probability,
    rescaled_probability,
)
from helpers import element_ket, random_pure_state, random_unitary
from oracles import hardy_numbers, hermitian3_eigvals

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)

# top root of the characteristic polynomial of P_F - P_D1 - P_D2, frozen at
# first build from the cubic oracle: (sqrt(33) - 3) / 12
MAX_GAP = 0.22871355387816908


def _space():
    return Space.system(3)


def _directions():
    space = _space()
    f = Ket(space, np.array([1.0, 1.0, -1.0]) / SQ3)
    d1 = Ket(space, np.array([0.0, 1.0, -1.0]) / SQ2)
    d2 = Ket(space, np.array([1.0, 0.0, -1.0]) / SQ2)
    return f, d1, d2


@pytest.fixture(scope="module")
def embedding():
    f, d1, d2 = _directions()
    return hardy_embedding_povm(f, d1, d2)


@pytest.fixture(scope="module")
def triple(embedding):
    return HardyTriple.from_povm(embedding, "F", "D1", "D2")


def test_triple_derives_the_path_basis(triple):
    np.testing.assert_allclose(triple.basis1.amplitudes, [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(triple.basis2.amplitudes, [0.0, 1.0, 0.0], atol=1e-12)
    f, d1, d2 = _directions()
    for derived, given in ((triple.f_hat, f), (triple.d1_hat, d1), (triple.d2_hat, d2)):
        assert np.abs(derived.amplitudes - given.amplitudes).max() <= 1e-12


def test_decomposition_coefficients(triple):
    # F = alpha_k basis_k + beta_k D_k with alpha_k = 1/sqrt3 and beta_k = sqrt(2/3)
    f = triple.f_hat
    for basis, d in ((triple.basis1, triple.d1_hat), (triple.basis2, triple.d2_hat)):
        alpha, beta = basis.inner(f), d.inner(f)
        assert abs(alpha - 1.0 / SQ3) <= 1e-12
        assert abs(beta - np.sqrt(2.0 / 3.0)) <= 1e-12
        residual = f.amplitudes - alpha * basis.amplitudes - beta * d.amplitudes
        assert np.abs(residual).max() <= 1e-12


def test_triple_rejects_degenerate_configurations():
    f, d1, _ = _directions()
    space = _space()
    # d2 chosen so that the two completing vectors fail to be orthogonal
    skew = basis_ket(space, 2)
    p = hardy_embedding_povm(f, d1, skew)
    with pytest.raises(ValidationError) as err:
        HardyTriple.from_povm(p, "F", "D1", "D2")
    assert err.value.invariant == "hardy-basis-orthogonality"
    # a partner parallel to F leaves nothing to complete
    q = hardy_embedding_povm(f, f, d1)
    with pytest.raises(ValidationError) as err:
        HardyTriple.from_povm(q, "F", "D1", "D2")
    assert err.value.invariant == "hardy-decomposition"


def test_triple_rejects_operator_and_zero_elements():
    f, d1, d2 = _directions()
    p = hardy_embedding_povm(f, d1, d2)
    blob = Operator(_space(), np.eye(3) - sum(np.outer(k.amplitudes, k.amplitudes.conj()) / 3.0 for k in (f, d1, d2)))
    rows = np.concatenate([p.vectors[:3], np.zeros((1, 3), dtype=complex)])
    q = Povm(3, p.labels()[:3] + ("rest",), rows, {3: blob})
    with pytest.raises(ValidationError) as err:
        HardyTriple.from_povm(q, "rest", "D1", "D2")
    assert err.value.invariant == "rank-one"


def test_hardy_state_is_the_uniform_superposition():
    _, d1, d2 = _directions()
    psi = hardy_state(d1, d2)
    np.testing.assert_allclose(psi.amplitudes, np.ones(3) / SQ3, atol=1e-12)


def test_hardy_state_kills_both_partners():
    rng = np.random.default_rng(47)
    space = _space()
    for _ in range(50):
        d1 = random_pure_state(rng, 3)
        d2 = random_pure_state(rng, 3)
        psi = hardy_state(d1, d2)
        assert abs(d1.inner(psi)) <= 1e-12
        assert abs(d2.inner(psi)) <= 1e-12
        assert abs(psi.norm() - 1.0) <= 1e-12


def test_hardy_state_input_checks():
    space2 = Space.system(2)
    with pytest.raises(ValidationError):
        hardy_state(basis_ket(space2, 0), basis_ket(space2, 1))
    _, d1, _ = _directions()
    with pytest.raises(ValidationError) as err:
        hardy_state(d1, Ket(d1.space, -d1.amplitudes))
    assert err.value.invariant == "independence"


def test_inequality_at_the_paradox_state(embedding, triple):
    _, d1, d2 = _directions()
    report = evaluate_inequality(triple, hardy_state(d1, d2))
    assert abs(report.lhs - 1.0 / 9.0) <= 1e-12
    assert report.rhs <= 1e-12
    assert report.violated
    cert = report.certification
    assert abs(cert.c1 - 2.0 / 3.0) <= 1e-12
    assert abs(cert.c2 - 2.0 / 3.0) <= 1e-12
    assert abs(cert.r1 - 1.0 / 3.0) <= 1e-12
    assert abs(cert.r2 - 1.0 / 3.0) <= 1e-12


def test_inequality_not_violated_at_the_mixed_state(embedding, triple):
    mixed = DensityMatrix.from_matrix(np.eye(3) / 3.0)
    report = evaluate_inequality(triple, mixed)
    assert abs(report.lhs - 1.0 / 3.0) <= 1e-12
    assert abs(report.rhs - 2.0 / 3.0) <= 1e-12
    assert not report.violated


def test_inequality_rejects_a_hand_built_basis_of_another_dimension(embedding, triple):
    other = [basis_ket(Space.system(4), i) for i in range(2)]
    with pytest.raises(SpaceMismatchError, match="basis1 is not on the dim-3 system space"):
        HardyTriple(
            embedding, "F", "D1", "D2", triple.f_hat, triple.d1_hat, triple.d2_hat, *other
        )
    with pytest.raises(SpaceMismatchError, match="state dim 4 != system dim 3"):
        evaluate_inequality(triple, other[0])


@pytest.mark.parametrize("space", [Space.system(4), Space.environment(3)], ids=["dim4", "env"])
@pytest.mark.parametrize("name", ["f_hat", "d1_hat", "d2_hat", "basis1", "basis2"])
def test_a_hand_built_triple_checks_the_space_of_each_direction(triple, name, space):
    with pytest.raises(SpaceMismatchError, match=f"{name} is not on the dim-3 system space"):
        dataclasses.replace(triple, **{name: basis_ket(space, 0)})


def test_a_hand_built_triple_checks_its_basis_at_its_tol(embedding, triple):
    with pytest.raises(ValidationError, match=r"\(\|<b1\|b2>\| = 1.000e\+00\)") as err:
        dataclasses.replace(triple, basis2=triple.basis1)
    assert err.value.invariant == "hardy-basis-orthogonality"
    loose = HardyTriple.from_povm(embedding, "F", "D1", "D2", tol=1e-3)
    assert (loose.tol, triple.tol) == (1e-3, 1e-9)
    assert loose == triple and "tol" not in repr(loose)


def test_max_violation_matches_the_frozen_constant(triple):
    value, state = max_violation(triple)
    assert abs(value - MAX_GAP) <= 1e-12
    assert value >= 1.0 / 9.0
    assert abs(state.norm() - 1.0) <= 1e-12


def test_max_violation_matches_the_cubic_oracle(triple):
    matrix = (
        triple.f_hat.projector()
        - triple.d1_hat.projector()
        - triple.d2_hat.projector()
    )
    roots = hermitian3_eigvals(matrix)
    value, _ = max_violation(triple)
    assert abs(value - roots[-1]) <= 1e-9
    # closed form of the full spectrum: (2x + 1)(6x^2 + 3x - 1) = 0
    expected = np.array([-(3.0 + np.sqrt(33.0)) / 12.0, -0.5, (np.sqrt(33.0) - 3.0) / 12.0])
    np.testing.assert_allclose(roots, expected, atol=1e-12)


def test_max_violation_state_attains_the_gap(embedding, triple):
    value, state = max_violation(triple)
    report = evaluate_inequality(triple, state)
    assert abs((report.lhs - report.rhs) - value) <= 1e-9
    assert report.violated


def test_no_state_beats_the_optimum(embedding, triple):
    rng = np.random.default_rng(53)
    value, _ = max_violation(triple)
    for _ in range(300):
        report = evaluate_inequality(triple, random_pure_state(rng, 3))
        assert report.lhs - report.rhs <= value + 1e-9
        assert -1e-12 <= report.lhs <= 1.0 + 1e-12


def test_max_violation_is_phase_and_rotation_invariant(embedding, triple):
    rng = np.random.default_rng(59)
    f, d1, d2 = _directions()
    for _ in range(20):
        phased = [
            Ket(k.space, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * k.amplitudes)
            for k in (f, d1, d2)
        ]
        t = HardyTriple(embedding, "F", "D1", "D2", *phased, triple.basis1, triple.basis2)
        value, _ = max_violation(t)
        assert abs(value - MAX_GAP) <= 1e-9
        u = random_unitary(rng, 3)
        rotated = [Ket(k.space, u @ k.amplitudes) for k in (f, d1, d2)]
        p = hardy_embedding_povm(*rotated)
        value, _ = max_violation(HardyTriple.from_povm(p, "F", "D1", "D2"))
        assert abs(value - MAX_GAP) <= 1e-9


def test_max_violation_ignores_element_scales():
    f, d1, d2 = _directions()
    p = hardy_embedding_povm(f, d1, d2, scales=(0.2, 0.3, 0.1))
    t = HardyTriple.from_povm(p, "F", "D1", "D2")
    value, _ = max_violation(t)
    assert abs(value - MAX_GAP) <= 1e-12


def test_degenerate_triples_have_known_optima():
    space = _space()
    e = [basis_ket(space, i) for i in range(3)]
    p = hardy_embedding_povm(*e)
    orthogonal = HardyTriple(p, "F", "D1", "D2", e[0], e[1], e[2], e[1], e[2])
    value, state = max_violation(orthogonal)
    assert abs(value - 1.0) <= 1e-12
    assert abs(abs(state.inner(e[0])) - 1.0) <= 1e-12
    report = evaluate_inequality(orthogonal, state)
    assert abs(report.lhs - 1.0) <= 1e-12
    assert report.rhs <= 1e-12
    f, d1, _ = _directions()
    collapsed = HardyTriple(p, "F", "D1", "D2", f, f, d1, e[0], e[1])
    value, _ = max_violation(collapsed)
    assert abs(value) <= 1e-12


def test_embedding_povm_structure(embedding):
    assert embedding.labels() == ("F", "D1", "D2", "R1", "R2", "R3")
    assert completeness_check(embedding) <= 1e-12
    f, d1, d2 = _directions()
    for label, direction in (("F", f), ("D1", d1), ("D2", d2)):
        el = element_ket(embedding, label)
        assert abs(context_selection_probability(embedding, label) - 1.0 / 3.0) <= 1e-12
        overlap = abs(el.normalized().inner(direction))
        assert abs(overlap - 1.0) <= 1e-12
    # remainder weights are sorted largest first
    weights = [element_ket(embedding, f"R{i}").norm_sq() for i in (1, 2, 3)]
    assert weights == sorted(weights, reverse=True)


def test_embedding_povm_custom_labels_and_scales():
    f, d1, d2 = _directions()
    p = hardy_embedding_povm(f, d1, d2, scales=(0.5, 0.1, 0.1), labels=("x", "y", "z"))
    assert p.labels()[:3] == ("x", "y", "z")
    assert completeness_check(p) <= 1e-12
    assert abs(context_selection_probability(p, "x") - 0.5) <= 1e-12


def test_embedding_povm_rejects_oversized_scales():
    f, d1, d2 = _directions()
    with pytest.raises(ValidationError) as err:
        hardy_embedding_povm(f, d1, d2, scales=(1.0, 1.0, 1.0))
    assert err.value.invariant == "completion-positivity"
    with pytest.raises(ValidationError) as err:
        hardy_embedding_povm(f, d1, d2, scales=(-0.1, 0.5, 0.5))
    assert err.value.invariant == "weights"


@pytest.mark.parametrize(
    "scales, message",
    [
        ((0.3, 0.3), "one scale per direction is required"),
        ((0.3, 0.3, 0.3, 0.1), "one scale per direction is required"),
        ((np.nan, 0.3, 0.3), "scales must be finite and nonnegative"),
        ((np.inf, 0.1, 0.1), "scales must be finite and nonnegative"),
    ],
    ids=["two", "four", "nan", "inf"],
)
def test_embedding_povm_names_a_bad_scale_tuple(scales, message):
    f, d1, d2 = _directions()
    with pytest.raises(ValidationError, match=f"^{message}$") as err:
        hardy_embedding_povm(f, d1, d2, scales=scales)
    assert err.value.invariant == "weights"


def test_rescaled_reading_of_the_paradox(embedding):
    # the three probabilities behind the headline numbers, unrescaled
    _, d1, d2 = _directions()
    psi = hardy_state(d1, d2)
    assert probability(embedding, psi, "D1") <= 1e-12
    assert probability(embedding, psi, "D2") <= 1e-12
    assert abs(probability(embedding, psi, "F") - 1.0 / 27.0) <= 1e-12


def _unit(z: np.ndarray) -> np.ndarray:
    return z / np.linalg.norm(z)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2**32 - 1))
def test_hardy_layer_matches_the_numpy_oracle_in_every_dimension(dim, seed):
    # an admissible triple: f decomposes over (b_k, d_k) with b1, b2 orthonormal
    rng = np.random.default_rng(seed)
    space = Space.system(dim)
    f = _unit(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    u = random_unitary(rng, dim)
    b1, b2 = u[:, 0], u[:, 1]
    d1, d2 = (_unit(f - np.vdot(b, f) * b) for b in (b1, b2))
    p = hardy_embedding_povm(Ket(space, f), Ket(space, d1), Ket(space, d2))
    triple = HardyTriple.from_povm(p, "F", "D1", "D2")
    value, best = max_violation(triple)

    weights = rng.dirichlet(np.ones(dim))
    v = random_unitary(rng, dim)
    pure = random_pure_state(rng, dim)
    mixed = DensityMatrix.from_matrix((v * weights) @ v.conj().T)
    for state, rho in ((pure, pure.projector()), (mixed, mixed.matrix)):
        want = hardy_numbers(f, d1, d2, b1, b2, rho)
        assert abs(value - want["max_violation"]) <= 1e-12
        report = evaluate_inequality(triple, state)
        cert = report.certification
        got = (report.lhs, report.rhs, cert.c1, cert.c2, cert.r1, cert.r2)
        for name, number in zip(("lhs", "rhs", "c1", "c2", "r1", "r2"), got):
            assert abs(number - want[name]) <= 1e-12, name
        # rescaled probabilities lie in [0, 1] up to round-off, and no state beats the optimum
        for label in ("F", "D1", "D2"):
            assert -1e-12 <= rescaled_probability(p, state, label) <= 1.0 + 1e-12
        assert report.lhs - report.rhs <= value + 1e-9
    report = evaluate_inequality(triple, best)
    assert abs((report.lhs - report.rhs) - value) <= 1e-9
