"""Rescaled-probability contextuality tests built around a Hardy-type triple.

The triple picks three rank-1 outcomes F, D1, D2 of one POVM such that the F
direction decomposes over each of two orthogonal basis vectors paired with D1
and D2 respectively. The rescaled probability of F is then compared against
the sum for D1 and D2; any positive gap rules out noncontextual context
selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SpaceMismatchError, ValidationError
from .hilbert import DEFAULT_TOL, Ket, Space, fix_phase, unit_vector
from .povm import DensityMatrix, Povm, require_context_weight


@dataclass(frozen=True)
class HardyTriple:
    """Labels f, d1, d2 into a POVM plus the derived unit directions.

    basis1 and basis2 are the unique (up to phase) unit vectors completing the
    two decompositions ``F = alpha * basis_k + beta * D_k``. On construction the
    five directions must be kets of the POVM's system space, and the two basis
    vectors orthogonal within ``tol`` for the triple to be admissible (``tol`` is
    kept outside equality and ``repr``).
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
    tol: float = field(default=DEFAULT_TOL, compare=False, repr=False)

    def __post_init__(self) -> None:
        space = Space.system(self.povm.system_dim)
        for name in ("f_hat", "d1_hat", "d2_hat", "basis1", "basis2"):
            if getattr(self, name).space != space:
                raise SpaceMismatchError(f"{name} is not on the dim-{space.dim} system space")
        overlap = abs(complex(np.vdot(self.basis1.amplitudes, self.basis2.amplitudes)))
        if overlap > self.tol:
            raise ValidationError(
                f"decomposition basis vectors are not orthogonal (|<b1|b2>| = {overlap:.3e})",
                invariant="hardy-basis-orthogonality",
            )

    @classmethod
    def from_povm(
        cls, p: Povm, f: str, d1: str, d2: str, tol: float = DEFAULT_TOL
    ) -> HardyTriple:
        units = []
        for label in (f, d1, d2):
            k = p._index[label]
            if not p._is_vector[k]:
                raise ValidationError(f"element {label!r} is not rank one", invariant="rank-one")
            require_context_weight(p, label, tol)
            units.append(fix_phase(unit_vector(p.vectors[k], tol)))
        parallel = ValidationError(
            "the reference outcome is parallel to its partner", invariant="hardy-decomposition"
        )
        for d in units[1:]:  # basis1 and basis2 follow f, d1 and d2
            rest = units[0] - d * complex(np.vdot(d, units[0]))
            units.append(fix_phase(unit_vector(rest, tol, parallel)))
        space = Space.system(p.system_dim)
        return cls(p, f, d1, d2, *(Ket(space, row) for row in units), tol=tol)


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
    t: HardyTriple, state: Ket | DensityMatrix, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """Compare the rescaled F probability against the D1 + D2 sum at a state.

    A noncontextual assignment of context-selection outcomes bounds the
    left-hand side by the right-hand side; ``violated`` is True when the gap
    exceeds tol. The certification block evaluates the rescaled F probability
    at the states maximising D1 and D2 and at the two decomposition basis
    vectors. For rank-1 elements a rescaled probability is ``<u|rho|u>`` at the
    element's unit direction u, so every number comes from the stack U of the
    triple's five directions: lhs and rhs from the diagonal of U rho U^dagger,
    the certification from |<u_k|f_hat>|^2, row 0 of the Gram matrix of U.
    """
    used = state if isinstance(state, DensityMatrix) else DensityMatrix.from_ket(state, tol)
    if used.dim != t.povm.system_dim:
        raise SpaceMismatchError(f"state dim {used.dim} != system dim {t.povm.system_dim}")
    units = np.stack([ket.amplitudes for ket in (t.f_hat, t.d1_hat, t.d2_hat, t.basis1, t.basis2)])
    rows = units[:3]  # f_hat, d1_hat, d2_hat
    lhs, d1, d2 = np.einsum("ki,ij,kj->k", rows.conj(), used.matrix, rows).real.tolist()
    c1, c2, r1, r2 = (np.abs(units[1:].conj() @ units[0]) ** 2).tolist()
    rhs = d1 + d2
    return InequalityReport(lhs, rhs, lhs > rhs + tol, used, Certification(c1, c2, r1, r2))


def max_violation(t: HardyTriple) -> tuple[float, Ket]:
    """Largest achievable lhs - rhs gap and a pure state attaining it.

    The gap is linear in the state, so the optimum over all density matrices
    sits on a pure state: the top eigenvector of P_F - P_D1 - P_D2, a matrix
    built Hermitian up to the rounding of its products, of which ``eigh``
    reads one triangle.
    """
    rows = np.stack([t.f_hat.amplitudes, t.d1_hat.amplitudes, t.d2_hat.amplitudes])
    projectors = rows[:, :, None] * rows.conj()[:, None, :]
    values, vectors = np.linalg.eigh(projectors[0] - projectors[1] - projectors[2])
    return float(values[-1]), Ket(Space.system(t.povm.system_dim), fix_phase(vectors[:, -1]))


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
    units = np.stack([fix_phase(unit_vector(k.amplitudes, tol)) for k in (f, d1, d2)])
    dim = units.shape[1]
    if min(scales) < 0:
        raise ValidationError("scales must be nonnegative", invariant="weights")
    rows = np.sqrt(scales)[:, None] * units
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
