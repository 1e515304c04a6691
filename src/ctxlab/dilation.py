"""POVMs from system-environment dilations and the inverse construction.

A dilation is an orthonormal set of joint outcome vectors together with the
environment's initial state phi_init. Contracting each outcome with phi_init
yields the system-side POVM element; the part of the outcome orthogonal to
phi_init (x) system is its residual component. The two obey

    <sigma(m)|sigma(m')> = -<lambda(m)|lambda(m')>   for m != m'
    <sigma(m)|sigma(m)> + <lambda(m)|lambda(m)> = 1

and ``naimark_dilate`` rebuilds a dilation from any complete rank-1 POVM.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import SpaceMismatchError, ValidationError
from .hilbert import (
    DEFAULT_TOL,
    amplitudes,
    entries,
    fix_phase,
    gram,
    orthonormality_residual,
    require_basis,
    require_orthonormal,
)
from .povm import LabelledStack, Povm, grid_labels, validate_povm


class JointOutcomeSet(LabelledStack):
    """Orthonormal joint vectors, one per macroscopically distinct outcome.

    ``validate=False`` skips the orthonormality check so that deliberately
    perturbed sets can be built for diagnostics. ``vectors`` holds one row of
    amplitudes per outcome on the joint space of ``env_dim * sys_dim`` amplitudes.
    """

    _compared = ("env_dim", "sys_dim")
    _nonempty = "at least one outcome is required"

    def __init__(
        self,
        env_dim: int,
        sys_dim: int,
        labels: Sequence[str],
        vectors: np.ndarray,
        validate: bool = True,
        tol: float = DEFAULT_TOL,
    ) -> None:
        """An outcome set over a copy of an ``(M, env_dim * sys_dim)`` complex stack;
        raises ``space-dim`` for a factor dimension below 1."""
        if env_dim < 1 or sys_dim < 1:
            raise ValidationError("space dimension must be at least 1", invariant="space-dim")
        dim = env_dim * sys_dim
        self._store(labels, vectors, dim, env_dim=env_dim, sys_dim=sys_dim, tol=tol)
        if len(labels) > dim:
            raise ValidationError(
                f"{len(labels)} outcomes exceed dim {dim}", invariant="outcome-count"
            )
        if validate:
            require_orthonormal(self.vectors, tol, "outcome set is", "outcome-orthonormality")

    def orthonormality_residual(self) -> float:
        return orthonormality_residual(self.vectors)


def require_normalised_phi_init(phi_init: np.ndarray, tol: float) -> None:
    if abs(float(np.vdot(phi_init, phi_init).real) - 1.0) > tol:
        raise ValidationError("phi_init must be normalised", invariant="phi-init-normalisation")


@dataclass(frozen=True)
class Dilation:
    """A joint outcome set together with the environment's initial state, stored as a
    read-only ``(env_dim,)`` complex copy. Equality compares ``phi_init`` by value."""

    outcomes: JointOutcomeSet
    phi_init: np.ndarray
    tol: float = field(default=DEFAULT_TOL, compare=False, repr=False)

    def __post_init__(self) -> None:
        phi = amplitudes(self.phi_init, (None,), "for phi_init")
        if len(phi) != self.outcomes.env_dim:
            raise SpaceMismatchError(
                f"phi_init dim {len(phi)} != environment factor {self.outcomes.env_dim}"
            )
        require_normalised_phi_init(phi, self.tol)
        object.__setattr__(self, "phi_init", phi)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.outcomes == other.outcomes and np.array_equal(self.phi_init, other.phi_init)


def povm_from_dilation(d: Dilation) -> Povm:
    """Contract each joint outcome with phi_init into a system POVM element.

    Outcomes orthogonal to phi_init (x) system become zero elements and are
    kept, so the label set always matches the outcome set. If the outcome set
    is complete the result sums to the identity.
    """
    return Povm.from_vectors(d.outcomes.sys_dim, d.outcomes.labels(), _lambdas(d))


def _lambdas(d: Dilation) -> np.ndarray:
    """Rows lambda(m) = <phi_init|m>."""
    outcomes = d.outcomes
    return d.phi_init.conj() @ outcomes.vectors.reshape(-1, outcomes.env_dim, outcomes.sys_dim)


def _components(d: Dilation) -> tuple[np.ndarray, np.ndarray]:
    """Rows lambda(m) and sigma(m) = |m> - |phi_init> (x) |lambda(m)>."""
    lambdas = _lambdas(d)
    phi = d.phi_init
    sigmas = d.outcomes.vectors - (phi[:, None] * lambdas[:, None, :]).reshape(len(lambdas), -1)
    return lambdas, sigmas


def residual_decompose(d: Dilation) -> JointOutcomeSet:
    """sigma(m) = |m> - |phi_init> (x) |lambda(m)> for every outcome, unvalidated."""
    _, sigmas = _components(d)
    env_dim, sys_dim = d.outcomes.env_dim, d.outcomes.sys_dim
    return JointOutcomeSet(env_dim, sys_dim, d.outcomes.labels(), sigmas, validate=False)


@dataclass(frozen=True)
class ConstraintReport:
    """Worst-case residuals of the two decomposition constraints."""

    max_orthogonality_residual: float
    max_normalisation_residual: float

    def ok(self, tol: float = DEFAULT_TOL) -> bool:
        return (
            self.max_orthogonality_residual <= tol
            and self.max_normalisation_residual <= tol
        )


def verify_constraints(d: Dilation) -> ConstraintReport:
    """Check <sigma|sigma'> = -<lambda|lambda'> off-diagonal and unit total norms.

    Residuals are reported, never raised, so perturbed dilations can be
    quantified.
    """
    lambdas, sigmas = _components(d)
    total = gram(sigmas) + gram(lambdas)
    off = total[~np.eye(len(total), dtype=bool)]
    max_orth = float(np.abs(off).max()) if off.size else 0.0
    max_norm = float(np.abs(np.diag(total) - 1.0).max())
    return ConstraintReport(max_orth, max_norm)


def naimark_dilate(p: Povm, tol: float = DEFAULT_TOL) -> Dilation:
    """Rebuild a dilation whose derived POVM is ``p`` with canonical phases.

    The environment dimension equals the element count M, phi_init is the
    first canonical environment basis vector, and each outcome is
    ``|e_0> (x) |lambda_m>`` plus a residual built from the eigendecomposition
    of ``G_sigma = I_M - G_lambda`` (eigenpairs above tol kept, eigenvector
    phases canonicalised). The elements are embedded verbatim, so the round
    trip returns ``Povm.from_vectors(p.system_dim, p.labels(), p.vectors)`` exactly:
    ``p`` itself when its rows carry the canonical phase, as the rows of
    every ``from_vectors`` POVM do.

    Raises on operator elements or a POVM that ``validate_povm`` rejects.
    """
    if p.operators:
        label = p.labels()[min(p.operators)]
        raise ValidationError(f"element {label!r} is not rank one", invariant="rank-one-elements")
    validate_povm(p, tol)

    count, sys_dim = p.vectors.shape
    values, vectors = np.linalg.eigh(np.eye(count) - gram(p.vectors))
    keep = values > tol
    # coords[m, j] with conj(coords[m]) . coords[m'] = G_sigma[m, m']
    coords = (np.sqrt(values[keep])[:, None] * fix_phase(vectors[:, keep].T).conj()).T

    flat = np.zeros((count, count * sys_dim), dtype=complex)
    flat[:, :sys_dim] = p.vectors
    flat[:, sys_dim : sys_dim + coords.shape[1]] = coords
    outcomes = JointOutcomeSet(count, sys_dim, p.labels(), flat, tol=tol)
    return Dilation(outcomes, np.eye(1, count)[0], tol=tol)


def context_switch_povm(
    contexts: Sequence[tuple[np.ndarray, np.ndarray]],
    basis: np.ndarray,
    phi_init: np.ndarray,
    labels: Sequence[Sequence[str]] | None = None,
    tol: float = DEFAULT_TOL,
) -> Povm:
    """POVM of a measurement whose basis choice is conditioned on the environment.

    Parameters
    ----------
    contexts : pairs (environment ket, system unitary)
        The environment kets, of phi_init's length, must be mutually orthonormal,
        and each unitary a ``(dim, dim)`` matrix; detecting context x measures the
        system in the basis rotated by that context's unitary.
    basis : orthonormal complete system basis
        The readout basis before rotation, a ``(dim, dim)`` stack of kets as rows.
    phi_init : 1-D array
        Initial environment state; the element for (x, a) is
        ``<phi_init|x> U_x^dag |a>``.
    labels : optional per-(context, outcome) labels
        Defaults to ``"x:a"`` index pairs.

    The result is complete exactly when phi_init lies in the span of the
    context states.
    """
    if len(contexts) == 0:
        raise ValidationError("at least one context is required", invariant="nonempty")
    phi_init = amplitudes(phi_init, (None,), "for phi_init")
    count, env_dim = len(contexts), len(phi_init)
    what = f"for {count} context states of dim {env_dim}"
    env_kets = amplitudes([env for env, _ in contexts], (count, env_dim), what)
    require_orthonormal(env_kets, tol, "context states are", "context-orthonormality")
    require_normalised_phi_init(phi_init, tol)

    if len(basis) == 0:
        raise ValidationError("readout basis has no kets", invariant="basis-completeness")
    sys_dim = len(basis[0])
    readout = require_basis(basis, sys_dim, tol, "readout basis")[:, :, None]
    names, blocks = grid_labels(labels, len(contexts), sys_dim), []
    for x, (_, unitary) in enumerate(contexts):
        unitary = entries(unitary, sys_dim, f"for context {x}'s unitary on dim {sys_dim}")
        gap = float(np.abs(unitary.conj().T @ unitary - np.eye(sys_dim)).max())
        if gap > tol:
            raise ValidationError(
                f"context {x} operator is not unitary (residual {gap:.3e})",
                invariant="unitarity",
            )
        # Stacked matrix-vector products round each row as U^dag |a> alone does.
        overlap = complex(np.vdot(phi_init, env_kets[x]))
        blocks.append(overlap * (unitary.conj().T @ readout)[:, :, 0])
    return Povm.from_vectors(sys_dim, names, np.concatenate(blocks))
