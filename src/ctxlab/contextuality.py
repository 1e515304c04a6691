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

from .errors import ValidationError
from .hilbert import DEFAULT_TOL, ByValue, amplitudes, density_matrix, fix_phase, unit_vector
from .povm import Povm, require_context_weight


@dataclass(frozen=True, eq=False)
class HardyTriple(ByValue):
    """Labels f, d1, d2 into a POVM plus the unit directions derived from it.

    ``directions`` holds five read-only rows: the canonical-phase unit directions
    f_hat, d1_hat and d2_hat of the three outcomes, then basis1 and basis2, the
    unique (up to phase) unit vectors completing the two decompositions
    ``F = alpha * basis_k + beta * D_k``. Each outcome must be a rank-1 element
    (``rank-one``) of nonzero weight within ``tol`` (``nonzero-element``), F must
    not be parallel to either D (``hardy-decomposition``), and the two basis vectors
    must be orthogonal within ``tol`` (``hardy-basis-orthogonality``). ``tol`` is
    keyword-only and kept outside equality and ``repr``.
    """

    povm: Povm
    f: str
    d1: str
    d2: str
    directions: np.ndarray = field(init=False)
    tol: float = field(default=DEFAULT_TOL, kw_only=True, compare=False, repr=False)

    def __post_init__(self) -> None:
        p, tol = self.povm, self.tol
        units = []
        for label in (self.f, self.d1, self.d2):
            k = p._index[label]
            if not p._rank_one[k]:
                raise ValidationError(f"element {label!r} is not rank one", invariant="rank-one")
            require_context_weight(p, label, tol)
            units.append(unit_vector(p.vectors[k], tol))
        units = fix_phase(units)
        f_hat = units[0]
        parallel = ValidationError(
            "the reference outcome is parallel to its partner", invariant="hardy-decomposition"
        )
        rests = [f_hat - d * complex(np.vdot(d, f_hat)) for d in units[1:]]
        bases = [unit_vector(rest, tol, parallel) for rest in rests]
        units = np.concatenate([units, fix_phase(bases)])  # f, d1, d2, then basis1 and basis2
        units.flags.writeable = False
        object.__setattr__(self, "directions", units)
        overlap = abs(complex(np.vdot(units[3], units[4])))
        if overlap > tol:
            raise ValidationError(
                f"decomposition basis vectors are not orthogonal (|<b1|b2>| = {overlap:.3e})",
                invariant="hardy-basis-orthogonality",
            )


def hardy_state(d1: np.ndarray, d2: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The unique dim-3 unit state orthogonal to both D directions.

    Only three-dimensional inputs are accepted; the state is the null space of
    the two bras, with the canonical phase.
    """
    kets = amplitudes([d1, d2], (2, None), "for d1 and d2")
    if kets.shape[1] != 3:
        raise ValidationError(
            "the paradox state is defined for dim-3 systems only", invariant="dimension"
        )
    _, singulars, vh = np.linalg.svd(kets.conj())
    if singulars[1] <= tol:
        raise ValidationError(
            "d1 and d2 are parallel; the orthogonal state is not unique",
            invariant="independence",
        )
    return fix_phase(vh[-1].conj())


@dataclass(frozen=True)
class Certification:
    """Rescaled F probabilities at the four certification states.

    c1/c2: at the states maximising D1/D2. r1/r2: at basis1/basis2.
    """

    c1: float
    c2: float
    r1: float
    r2: float


@dataclass(frozen=True, eq=False)
class InequalityReport(ByValue):
    """The verdict at one state, whose read-only density matrix is ``state_used``."""

    lhs: float
    rhs: float
    violated: bool
    state_used: np.ndarray
    certification: Certification


def evaluate_inequality(
    t: HardyTriple, state: np.ndarray, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """Compare the rescaled F probability against the D1 + D2 sum at a state.

    A noncontextual assignment of context-selection outcomes bounds the
    left-hand side by the right-hand side; ``violated`` is True when the gap
    exceeds tol. The certification block evaluates the rescaled F probability
    at the states maximising D1 and D2 and at the two decomposition basis
    vectors. For rank-1 elements a rescaled probability is ``<u|rho|u>`` at the
    element's unit direction u, so every number comes from the stack U of the
    triple's five directions: lhs and rhs from the diagonal of U rho U^dagger,
    the certification from |<u_k|f_hat>|^2, row 0 of the Gram matrix of U. The
    state, a ket or a density matrix, is checked by ``density_matrix``.
    """
    used = density_matrix(state, t.povm.system_dim, tol)
    units = t.directions
    rows = units[:3]  # f_hat, d1_hat, d2_hat
    lhs, d1, d2 = np.einsum("ki,ij,kj->k", rows.conj(), used, rows).real.tolist()
    c1, c2, r1, r2 = (np.abs(units[1:].conj() @ units[0]) ** 2).tolist()
    rhs = d1 + d2
    return InequalityReport(lhs, rhs, lhs > rhs + tol, used, Certification(c1, c2, r1, r2))


def max_violation(t: HardyTriple) -> tuple[float, np.ndarray]:
    """Largest achievable lhs - rhs gap and a pure state attaining it.

    The gap is linear in the state, so the optimum over all density matrices
    sits on a pure state: the top eigenvector of P_F - P_D1 - P_D2, a matrix
    built Hermitian up to the rounding of its products, of which ``eigh``
    reads one triangle.
    """
    rows = t.directions[:3]  # f_hat, d1_hat, d2_hat
    projectors = rows[:, :, None] * rows.conj()[:, None, :]
    values, vectors = np.linalg.eigh(projectors[0] - projectors[1] - projectors[2])
    return float(values[-1]), fix_phase(vectors[:, -1])


def hardy_embedding_povm(
    f: np.ndarray, d1: np.ndarray, d2: np.ndarray, tol: float = DEFAULT_TOL
) -> Povm:
    """A complete POVM whose outcomes F, D1 and D2 lie along the three directions.

    Each direction enters as ``sqrt(1/3) * unit vector``. Three unit projectors
    at 1/3 sum to an operator of largest eigenvalue at most 1, so the remainder
    ``I - sum`` is positive semidefinite for any three directions; it is appended
    as rank-1 elements R1, R2, ... from its eigendecomposition, largest first,
    leaving out every eigenvalue at or below tol (a round-off negative included).
    Rescaled probabilities do not depend on the scale.
    """
    kets = amplitudes([f, d1, d2], (3, None), "for f, d1 and d2")
    units = fix_phase([unit_vector(k, tol) for k in kets])
    dim = units.shape[1]
    rows = np.sqrt(1.0 / 3.0) * units
    total = (rows[:, :, None] * rows.conj()[:, None, :]).sum(axis=0)  # added in order
    values, vectors = np.linalg.eigh(np.eye(dim) - total)
    kept = np.flatnonzero(values > tol)[::-1]
    rest = np.sqrt(values[kept])[:, None] * fix_phase(vectors[:, kept].T)
    names = ["F", "D1", "D2", *(f"R{rank}" for rank in range(1, len(kept) + 1))]
    return Povm(dim, names, fix_phase(np.concatenate([rows, rest])))
