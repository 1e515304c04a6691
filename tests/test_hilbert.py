"""Space, ket, tensor, Gram and phase primitives."""

from __future__ import annotations

import numpy as np
import pytest

from ctxlab import (
    Dilation,
    JointOutcomeSet,
    Ket,
    Space,
    SpaceMismatchError,
    ValidationError,
    basis_ket,
    fix_phase,
    gram,
    povm_from_dilation,
    tensor,
)
from ctxlab.hilbert import orthonormality_residual
from helpers import phase_aligned_max_err, random_pure_state, random_rank1_povm, random_unitary

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)
SQ6 = np.sqrt(6.0)

ENV2 = Space.environment(2)
SYS3 = Space.system(3)


def test_space_kinds_and_dims():
    joint = Space.joint(2, 3)
    assert joint.dim == 6 and joint.env_dim == 2 and joint.sys_dim == 3
    with pytest.raises(ValidationError):
        Space("bogus", 2)
    with pytest.raises(ValidationError):
        Space.system(0)
    with pytest.raises(ValidationError):
        Space("joint", 5, 2, 3)


def test_ket_shape_and_finiteness():
    with pytest.raises(SpaceMismatchError):
        Ket(SYS3, [1.0, 0.0])
    with pytest.raises(ValidationError):
        Ket(SYS3, [np.inf, 0.0, 0.0])
    with pytest.raises(ValidationError):
        Ket(SYS3, [0.0, 0.0, 0.0]).normalized()
    with pytest.raises(ValidationError):
        basis_ket(SYS3, 3)


def test_ket_amplitudes_are_immutable():
    ket = basis_ket(SYS3, 0)
    with pytest.raises(ValueError):
        ket.amplitudes[0] = 2.0


def test_tensor_of_basis_kets_is_env_major():
    joint = tensor(basis_ket(ENV2, 0), basis_ket(SYS3, 1))
    expected = np.zeros(6)
    expected[0 * 3 + 1] = 1.0
    np.testing.assert_allclose(joint.amplitudes, expected)


def test_tensor_diagonal_with_plate_direction():
    d = Ket(ENV2, np.array([1.0, 1.0]) / SQ2)
    f = Ket(SYS3, np.array([1.0, 1.0, -1.0]) / SQ3)
    expected = np.array([1.0, 1.0, -1.0, 1.0, 1.0, -1.0]) / SQ6
    assert np.abs(tensor(d, f).amplitudes - expected).max() <= 1e-15


def test_tensor_rejects_wrong_kinds():
    with pytest.raises(SpaceMismatchError):
        tensor(basis_ket(SYS3, 0), basis_ket(SYS3, 1))
    with pytest.raises(SpaceMismatchError):
        tensor(basis_ket(ENV2, 0), basis_ket(ENV2, 1))


def test_tensor_is_bilinear():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = Ket(ENV2, rng.normal(size=2) + 1j * rng.normal(size=2))
        b = Ket(SYS3, rng.normal(size=3) + 1j * rng.normal(size=3))
        c = Ket(SYS3, rng.normal(size=3) + 1j * rng.normal(size=3))
        scale = complex(rng.normal(), rng.normal())
        left = tensor(a, Ket(SYS3, b.amplitudes + scale * c.amplitudes)).amplitudes
        right = tensor(a, b).amplitudes + scale * tensor(a, c).amplitudes
        assert np.abs(left - right).max() <= 1e-12


def test_lambda_retracts_product_states():
    # for m = chi (x) psi, lambda(m) = <phi|m> = <phi|chi> psi (up to the POVM's canonical phase)
    rng = np.random.default_rng(11)
    for _ in range(25):
        phi = Ket(ENV2, random_pure_state(rng, 2).amplitudes)
        chi = Ket(ENV2, random_unitary(rng, 2)[:, 0])
        psi = Ket(SYS3, random_unitary(rng, 3)[:, 0])
        outcomes = JointOutcomeSet(Space.joint(2, 3), ["m"], tensor(chi, psi).amplitudes[None])
        lam = povm_from_dilation(Dilation(outcomes, phi)).vectors[0]
        expected = phi.inner(chi) * psi.amplitudes
        assert phase_aligned_max_err(lam, expected) <= 1e-12


def test_partial_inner_on_polarised_outcome():
    # <D| on |V> x |1> leaves |1>/sqrt2
    d = Ket(ENV2, np.array([1.0, 1.0]) / SQ2)
    v = basis_ket(ENV2, 1)
    outcome = tensor(v, basis_ket(SYS3, 0))
    outcomes = JointOutcomeSet(Space.joint(2, 3), ["V1"], outcome.amplitudes[None])
    lam = povm_from_dilation(Dilation(outcomes, d)).vectors[0]
    np.testing.assert_allclose(lam, np.array([1.0, 0.0, 0.0]) / SQ2, atol=1e-15)


def test_partial_inner_orthogonal_environment_gives_zero():
    h = basis_ket(ENV2, 0)
    v = basis_ket(ENV2, 1)
    outcome = tensor(v, basis_ket(SYS3, 2))
    outcomes = JointOutcomeSet(Space.joint(2, 3), ["V3"], outcome.amplitudes[None])
    lam = povm_from_dilation(Dilation(outcomes, h)).vectors[0]
    assert np.abs(lam).max() == 0.0


def test_gram_of_orthonormal_basis_is_identity():
    vectors = [basis_ket(SYS3, i) for i in range(3)]
    np.testing.assert_allclose(gram(vectors), np.eye(3), atol=1e-15)


def test_gram_of_context_elements():
    vectors = [
        Ket(SYS3, np.array([2.0, -1.0, 1.0]) / 3.0),
        Ket(SYS3, np.array([-1.0, 2.0, 1.0]) / 3.0),
        Ket(SYS3, np.array([1.0, 1.0, 2.0]) / 3.0),
    ]
    g = gram(vectors)
    np.testing.assert_allclose(np.diag(g), [2.0 / 3.0] * 3, atol=1e-15)
    assert abs(g[0, 1] - (-1.0 / 3.0)) <= 1e-15
    assert abs(g[1, 2] - (1.0 / 3.0)) <= 1e-15
    assert abs(g[2, 0] - (1.0 / 3.0)) <= 1e-15


def test_gram_of_repeated_vector():
    v = basis_ket(SYS3, 0)
    np.testing.assert_allclose(gram([v, v]), np.ones((2, 2)), atol=1e-15)


def test_gram_rejects_empty_and_mixed_spaces():
    with pytest.raises(ValidationError):
        gram([])
    with pytest.raises(SpaceMismatchError):
        gram([basis_ket(SYS3, 0), basis_ket(ENV2, 0)])


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


def test_gram_and_orthonormality_residual_accept_a_stack():
    rng = np.random.default_rng(73)
    kets = [random_pure_state(rng, 3) for _ in range(4)]
    stack = np.stack([k.amplitudes for k in kets])
    assert np.array_equal(gram(stack), gram(kets))
    basis = random_unitary(rng, 3).T
    assert orthonormality_residual(basis) == orthonormality_residual(
        [Ket(SYS3, row) for row in basis]
    )
    with pytest.raises(ValidationError):
        gram(np.zeros((0, 3)))
