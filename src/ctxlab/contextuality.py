"""Rescaled-probability contextuality tests built around a Hardy-type triple.

The triple picks three rank-1 outcomes F, D1, D2 of one POVM such that the F
direction decomposes over each of two orthogonal basis vectors paired with D1
and D2 respectively. The rescaled probability of F is then compared against
the sum for D1 and D2; any positive gap rules out noncontextual context
selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hilbert import DEFAULT_TOL, Ket, Operator, Space, eigh, fix_phase
from .povm import (
    DensityMatrix,
    Povm,
    maximizing_state,
    require_context_weight,
    rescaled_probability,
)


def _unit_direction(p: Povm, label: str, tol: float) -> Ket:
    el = p.element(label)
    if not el.is_vector:
        raise ValidationError(f"element {label!r} is not rank one", invariant="rank-one")
    require_context_weight(p, label, tol)
    return el.vector.normalized(tol).with_canonical_phase()


def _orthogonal_part(f: Ket, d: Ket, tol: float) -> Ket:
    rest = f - d.inner(f) * d
    if rest.norm() <= tol:
        raise ValidationError(
            "the reference outcome is parallel to its partner", invariant="hardy-decomposition"
        )
    return rest.normalized(tol).with_canonical_phase()


@dataclass(frozen=True)
class HardyTriple:
    """Labels f, d1, d2 into a POVM plus the derived unit directions.

    basis1 and basis2 are the unique (up to phase) unit vectors completing the
    two decompositions ``F = alpha * basis_k + beta * D_k``; they must be
    mutually orthogonal for the triple to be admissible.
    """

    povm: Povm
    f: str
    d1: str
    d2: str
    f_hat: Ket
    d1_hat: Ket
    d2_hat: Ket
    basis1: Ket
    basis2: Ket

    @classmethod
    def from_povm(
        cls, p: Povm, f: str, d1: str, d2: str, tol: float = DEFAULT_TOL
    ) -> HardyTriple:
        f_hat = _unit_direction(p, f, tol)
        d1_hat = _unit_direction(p, d1, tol)
        d2_hat = _unit_direction(p, d2, tol)
        basis1 = _orthogonal_part(f_hat, d1_hat, tol)
        basis2 = _orthogonal_part(f_hat, d2_hat, tol)
        overlap = abs(basis1.inner(basis2))
        if overlap > tol:
            raise ValidationError(
                f"decomposition basis vectors are not orthogonal (|<b1|b2>| = {overlap:.3e})",
                invariant="hardy-basis-orthogonality",
            )
        return cls(p, f, d1, d2, f_hat, d1_hat, d2_hat, basis1, basis2)


@dataclass(frozen=True)
class DecompositionReport:
    """Coefficients and residuals of F over the two (basis, D) pairs."""

    alpha1: complex
    beta1: complex
    residual1: float
    alpha2: complex
    beta2: complex
    residual2: float


def _best_fit(f: Ket, b: Ket, d: Ket) -> tuple[complex, complex, float]:
    columns = np.stack([b.amplitudes, d.amplitudes], axis=1)
    coeffs, *_ = np.linalg.lstsq(columns, f.amplitudes, rcond=None)
    residual = float(np.linalg.norm(f.amplitudes - columns @ coeffs))
    return complex(coeffs[0]), complex(coeffs[1]), residual


def hardy_decomposition_check(
    f: Ket, basis1: Ket, d1: Ket, basis2: Ket, d2: Ket, tol: float = DEFAULT_TOL
) -> DecompositionReport:
    """Fit F = alpha * basis_k + beta * D_k for k = 1, 2 and report residuals."""
    for name, ket in (("f", f), ("basis1", basis1), ("d1", d1), ("basis2", basis2), ("d2", d2)):
        if not ket.is_normalized(tol):
            raise ValidationError(f"{name} must be normalised", invariant="normalisation")
    alpha1, beta1, residual1 = _best_fit(f, basis1, d1)
    alpha2, beta2, residual2 = _best_fit(f, basis2, d2)
    return DecompositionReport(alpha1, beta1, residual1, alpha2, beta2, residual2)


def hardy_state(d1: Ket, d2: Ket, tol: float = DEFAULT_TOL) -> Ket:
    """The unique dim-3 unit state orthogonal to both D directions.

    Only three-dimensional inputs are accepted; the state is the null space of
    the two bras, with the canonical phase.
    """
    if d1.space.dim != 3 or d2.space.dim != 3:
        raise ValidationError(
            "the paradox state is defined for dim-3 systems only", invariant="dimension"
        )
    if d1.space != d2.space:
        raise ValidationError("d1 and d2 must share a space", invariant="dimension")
    rows = np.stack([d1.amplitudes.conj(), d2.amplitudes.conj()])
    _, singulars, vh = np.linalg.svd(rows)
    if singulars[1] <= tol:
        raise ValidationError(
            "d1 and d2 are parallel; the orthogonal state is not unique",
            invariant="independence",
        )
    return Ket(d1.space, fix_phase(vh[-1].conj()))


@dataclass(frozen=True)
class Certification:
    """Rescaled F probabilities at the four certification states.

    c1/c2: at the states maximising D1/D2. r1/r2: at basis1/basis2.
    """

    c1: float
    c2: float
    r1: float
    r2: float


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs: float
    violated: bool
    state_used: DensityMatrix
    certification: Certification


def evaluate_inequality(
    p: Povm, t: HardyTriple, state: Ket | DensityMatrix, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """Compare the rescaled F probability against the D1 + D2 sum at a state.

    A noncontextual assignment of context-selection outcomes bounds the
    left-hand side by the right-hand side; ``violated`` is True when the gap
    exceeds tol. The certification block evaluates the rescaled F probability
    at the states maximising D1 and D2 and at the two decomposition basis
    vectors.
    """
    used = state if isinstance(state, DensityMatrix) else DensityMatrix.from_ket(state, tol)
    lhs = rescaled_probability(p, used, t.f, tol)
    rhs = rescaled_probability(p, used, t.d1, tol) + rescaled_probability(p, used, t.d2, tol)
    certification = Certification(
        c1=rescaled_probability(p, maximizing_state(p, t.d1, tol), t.f, tol),
        c2=rescaled_probability(p, maximizing_state(p, t.d2, tol), t.f, tol),
        r1=rescaled_probability(p, DensityMatrix.from_ket(t.basis1, tol), t.f, tol),
        r2=rescaled_probability(p, DensityMatrix.from_ket(t.basis2, tol), t.f, tol),
    )
    return InequalityReport(lhs, rhs, lhs > rhs + tol, used, certification)


def max_violation(t: HardyTriple, tol: float = DEFAULT_TOL) -> tuple[float, Ket]:
    """Largest achievable lhs - rhs gap and a pure state attaining it.

    The gap is linear in the state, so the optimum over all density matrices
    sits on a pure state: the top eigenvector of P_F - P_D1 - P_D2.
    """
    space = Space.system(t.povm.system_dim)
    matrix = t.f_hat.projector() - t.d1_hat.projector() - t.d2_hat.projector()
    values, vectors = eigh(Operator(space, matrix), tol)
    best = vectors[-1].with_canonical_phase()
    return float(values[-1]), best


def hardy_embedding_povm(
    f: Ket,
    d1: Ket,
    d2: Ket,
    scales: tuple[float, float, float] | None = None,
    labels: tuple[str, str, str] = ("F", "D1", "D2"),
    tol: float = DEFAULT_TOL,
) -> Povm:
    """A complete POVM containing the three directions as rank-1 outcomes.

    Each direction enters as ``sqrt(scale) * unit vector``; the default scale
    of 1/3 apiece keeps the remainder positive for any three directions. The
    remainder ``I - sum`` is appended as rank-1 elements R1, R2, ... from its
    eigendecomposition. Rescaled probabilities do not depend on the scales.
    """
    if scales is None:
        scales = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    units = [k.normalized(tol).with_canonical_phase() for k in (f, d1, d2)]
    dim = units[0].space.dim
    if min(scales) < 0:
        raise ValidationError("scales must be nonnegative", invariant="weights")
    rows = np.sqrt(scales)[:, None] * np.stack([unit.amplitudes for unit in units])
    total = (rows[:, :, None] * rows.conj()[:, None, :]).sum(axis=0)  # added in order
    values, vectors = np.linalg.eigh(np.eye(dim) - total)
    if values[0] < -tol:
        raise ValidationError(
            f"scales leave a negative remainder (eigenvalue {values[0]:.3e})",
            invariant="completion-positivity",
        )
    kept = np.flatnonzero(values > tol)[::-1]
    rest = np.sqrt(values[kept])[:, None] * fix_phase(vectors[:, kept].T)
    names = [*labels, *(f"R{rank}" for rank in range(1, len(kept) + 1))]
    return Povm.from_vectors(zip(names, np.concatenate([rows, rest])), system_dim=dim)
