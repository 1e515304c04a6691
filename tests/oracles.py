"""Independent numeric oracles, deliberately avoiding the library's code paths."""

from __future__ import annotations

import numpy as np


def hermitian3_eigvals(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 3x3 Hermitian matrix from its characteristic cubic.

    Uses the trigonometric solution of the depressed cubic, never an
    eigensolver, so it can cross-check one. Returns ascending values.
    """
    m = np.asarray(matrix, dtype=complex)
    assert m.shape == (3, 3)
    assert np.abs(m - m.conj().T).max() < 1e-12

    c2 = float(np.trace(m).real)
    minors = (
        m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
        + m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
    )
    c1 = float(minors.real)
    c0 = float(np.linalg.det(m).real)

    # x^3 - c2 x^2 + c1 x - c0 with x = t + c2/3 becomes t^3 + p t + q
    p = c1 - c2**2 / 3.0
    q = -2.0 * c2**3 / 27.0 + c1 * c2 / 3.0 - c0
    if p > -1e-14:
        t = np.full(3, np.cbrt(-q))
    else:
        radius = np.sqrt(-p / 3.0)
        arg = np.clip(3.0 * q / (2.0 * p * radius), -1.0, 1.0)
        phi = np.arccos(arg)
        t = 2.0 * radius * np.cos(phi / 3.0 - 2.0 * np.pi * np.arange(3) / 3.0)
    return np.sort(t + c2 / 3.0)


def context_pairs(elements: list[np.ndarray], tol: float) -> list[tuple[int, int, float, bool]]:
    """Every pair (i, j, witness, shared), i < j, in row-major order.

    Each element is a 1-D vector (rank one) or a 2-D positive matrix. Two
    vectors share a context when the modulus of the inner product of their unit
    vectors is within tol of 0 or 1; any other pair shares one when the
    spectral norm of the commutator of the two support projectors is at most tol.
    """

    def support(e: np.ndarray) -> np.ndarray:
        if e.ndim == 1:
            u = e / np.linalg.norm(e)
            return np.outer(u, u.conj())
        values, vectors = np.linalg.eigh(e)
        cols = vectors[:, values > tol]
        return cols @ cols.conj().T

    pairs = []
    for i, a in enumerate(elements):
        for j in range(i + 1, len(elements)):
            b = elements[j]
            if a.ndim == 1 and b.ndim == 1:
                witness = abs(np.vdot(a / np.linalg.norm(a), b / np.linalg.norm(b)))
                shared = witness <= tol or witness >= 1.0 - tol
            else:
                pa, pb = support(a), support(b)
                witness = np.linalg.norm(pa @ pb - pb @ pa, 2)
                shared = witness <= tol
            pairs.append((i, j, float(witness), bool(shared)))
    return pairs
