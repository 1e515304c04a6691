"""Ket, operator and state conversion, Gram and phase primitives."""

from __future__ import annotations

import numpy as np
import pytest

from ctxlab import (
    DEFAULT_TOL,
    Dilation,
    JointOutcomeSet,
    SpaceMismatchError,
    ValidationError,
    fix_phase,
    gram,
    povm_from_dilation,
)
from ctxlab.hilbert import (
    amplitudes,
    density_matrix,
    entries,
    orthonormality_residual,
    require_basis,
    unit_vector,
)
from helpers import phase_aligned_max_err, random_pure_state, random_rank1_povm, random_unitary

SQ2 = np.sqrt(2.0)


def test_entries_are_a_checked_read_only_copy_of_a_square_matrix():
    source = np.eye(2)
    matrix = entries(source, 2, "for a test matrix")
    source[0, 0] = 2.0
    assert matrix.dtype == complex and matrix[0, 0] == 1.0
    with pytest.raises(ValueError):
        matrix[0, 0] = 2.0
    with pytest.raises(SpaceMismatchError, match=r"^a matrix of shape \(2, 3\) for a test m$"):
        entries(np.ones((2, 3)), 2, "for a test m")
    with pytest.raises(SpaceMismatchError, match="^rows that are not one complex matrix for m$"):
        entries([[1.0, 0.0], [0.0]], 2, "for m")
    with pytest.raises(ValidationError, match="^entries must be finite$") as err:
        entries([[np.nan, 0.0], [0.0, 1.0]], 2, "for m")
    assert err.value.invariant == "finite-entries"


def test_density_matrix_of_a_ket_or_a_matrix_is_read_only():
    psi = np.array([1.0, 1.0j]) / SQ2
    for state, rho in ((psi, np.outer(psi, psi.conj())), (np.eye(2) / 2, np.eye(2) / 2)):
        checked = density_matrix(state, 2, DEFAULT_TOL)
        assert np.array_equal(checked, rho) and not checked.flags.writeable


def test_amplitudes_checks_shape_and_finiteness():
    with pytest.raises(SpaceMismatchError, match=r"^a ket of shape \(2,\) for a test ket$"):
        amplitudes([1.0, 0.0], (3,), "for a test ket")
    with pytest.raises(ValidationError) as err:
        amplitudes([np.inf, 0.0, 0.0], (3,), "for a test ket")
    assert err.value.invariant == "finite-amplitudes"
    with pytest.raises(ValidationError):
        unit_vector(np.zeros(3), DEFAULT_TOL)
    assert amplitudes([1.0, 2.0], (None,), "").dtype == complex


def test_amplitudes_are_a_read_only_copy():
    source = np.eye(3)[0]
    ket = amplitudes(source, (3,), "for a test ket")
    source[0] = 2.0
    assert ket[0] == 1.0
    with pytest.raises(ValueError):
        ket[0] = 2.0


def test_lambda_retracts_product_states():
    # for m = chi (x) psi, lambda(m) = <phi|m> = <phi|chi> psi (up to the POVM's canonical phase)
    rng = np.random.default_rng(11)
    for _ in range(25):
        phi = random_pure_state(rng, 2)
        chi = random_unitary(rng, 2)[:, 0]
        psi = random_unitary(rng, 3)[:, 0]
        outcomes = JointOutcomeSet(2, 3, ["m"], np.kron(chi, psi)[None])
        lam = povm_from_dilation(Dilation(outcomes, phi)).vectors[0]
        expected = complex(np.vdot(phi, chi)) * psi
        assert phase_aligned_max_err(lam, expected) <= 1e-12


def test_partial_inner_on_polarised_outcome():
    # <D| on |V> x |1> leaves |1>/sqrt2
    d = np.array([1.0, 1.0]) / SQ2
    v = np.eye(2)[1]
    outcome = np.kron(v, np.eye(3)[0])
    outcomes = JointOutcomeSet(2, 3, ["V1"], outcome[None])
    lam = povm_from_dilation(Dilation(outcomes, d)).vectors[0]
    np.testing.assert_allclose(lam, np.array([1.0, 0.0, 0.0]) / SQ2, atol=1e-15)


def test_partial_inner_orthogonal_environment_gives_zero():
    h, v = np.eye(2)
    outcome = np.kron(v, np.eye(3)[2])
    outcomes = JointOutcomeSet(2, 3, ["V3"], outcome[None])
    lam = povm_from_dilation(Dilation(outcomes, h)).vectors[0]
    assert np.abs(lam).max() == 0.0


def test_gram_of_orthonormal_basis_is_identity():
    vectors = np.eye(3, dtype=complex)
    np.testing.assert_allclose(gram(vectors), np.eye(3), atol=1e-15)


def test_gram_of_context_elements():
    vectors = np.array([[2.0, -1.0, 1.0], [-1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 3.0
    g = gram(vectors)
    np.testing.assert_allclose(np.diag(g), [2.0 / 3.0] * 3, atol=1e-15)
    assert abs(g[0, 1] - (-1.0 / 3.0)) <= 1e-15
    assert abs(g[1, 2] - (1.0 / 3.0)) <= 1e-15
    assert abs(g[2, 0] - (1.0 / 3.0)) <= 1e-15


def test_gram_of_repeated_vector():
    v = np.eye(3)[0]
    np.testing.assert_allclose(gram(np.array([v, v])), np.ones((2, 2)), atol=1e-15)


def test_gram_rejects_an_empty_stack():
    with pytest.raises(ValidationError):
        gram(np.zeros((0, 3)))


def test_gram_and_orthonormality_residual_accept_a_stack():
    rng = np.random.default_rng(73)
    stack = np.array([random_pure_state(rng, 3) for _ in range(4)])
    want = np.array([[np.vdot(a, b) for b in stack] for a in stack])
    assert np.abs(gram(stack) - want).max() <= 1e-15
    basis = random_unitary(rng, 3).T
    want = np.abs(np.array([[np.vdot(a, b) for b in basis] for a in basis]) - np.eye(3)).max()
    assert abs(orthonormality_residual(basis) - want) <= 1e-15


def test_require_basis_checks_count_shape_and_orthonormality():
    basis = require_basis([[1.0, 0.0], [0.0, 1.0]], 2, DEFAULT_TOL, "test basis")
    assert basis.shape == (2, 2) and basis.dtype == complex
    with pytest.raises(ValueError):
        basis[0, 0] = 2.0
    with pytest.raises(ValidationError, match="^test basis has 1 kets for dim 2$") as err:
        require_basis([[1.0, 0.0]], 2, DEFAULT_TOL, "test basis")
    assert err.value.invariant == "basis-completeness"
    with pytest.raises(SpaceMismatchError, match="^rows that are not one complex stack"):
        require_basis([[1.0, 0.0], [0.0]], 2, DEFAULT_TOL, "test basis")
    with pytest.raises(ValidationError) as err:
        require_basis([[1.0, 0.0], [1.0, 0.0]], 2, DEFAULT_TOL, "test basis")
    assert err.value.invariant == "basis-orthonormality"


def test_joint_index_is_env_major():
    # joint index e * sys_dim + s holds environment e and system s
    _, v = np.eye(2)
    outcomes = JointOutcomeSet(2, 3, ["V1"], np.eye(6)[None, 1 * 3 + 0])
    lam = povm_from_dilation(Dilation(outcomes, v)).vectors[0]
    assert np.array_equal(lam, np.eye(3)[0])  # system-major would put index 3 at (1, 1)


def test_gram_idempotent_for_identity_resolving_sets():
    rng = np.random.default_rng(13)
    for dim, count in ((2, 4), (3, 5), (4, 9)):
        p = random_rank1_povm(rng, dim, count)
        g = gram(p.vectors)
        assert np.abs(g @ g - g).max() <= 1e-9


def test_fix_phase_pivots_largest_entry():
    rotated = fix_phase(np.exp(1j * 0.7) * np.array([0.3, -0.9, 0.1]))
    assert rotated[1].real > 0 and abs(rotated[1].imag) <= 1e-15
    tie = fix_phase(np.array([-0.5, 0.5]))
    assert tie[0] == 0.5  # first maximal entry wins the tie
    zero = fix_phase(np.zeros(3))
    assert np.all(zero == 0)


def _scalar_fix_phase(row: np.ndarray) -> np.ndarray:
    """One vector rotated with Python-scalar abs and division, the reference arithmetic."""
    pivot = row[int(np.argmax(np.abs(row)))]
    return row.copy() if abs(pivot) == 0.0 else row * (pivot.conjugate() / abs(pivot))


def test_fix_phase_on_a_stack_matches_it_row_by_row():
    rng = np.random.default_rng(71)
    for _ in range(200):
        stack = rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16))
        stack[rng.random(8) < 0.25] = 0.0
        tied = rng.integers(8)
        stack[tied, 3], stack[tied, 11] = 10.0 * (1.0 + 1.0j), 10.0 * (1.0 - 1.0j)
        before = stack.copy()
        expected = np.stack([_scalar_fix_phase(row) for row in stack])
        fixed = fix_phase(stack)
        assert np.array_equal(fixed.view(float), expected.view(float))
        for row, want in zip(stack, expected):
            assert np.array_equal(fix_phase(row).view(float), want.view(float))
        assert np.array_equal(stack.view(float), before.view(float))  # the input is left as it was
    # the first of the two maximal entries wins the tie
    assert fixed[tied, 3].imag == 0.0 < fixed[tied, 3].real and fixed[tied, 11].imag != 0.0
