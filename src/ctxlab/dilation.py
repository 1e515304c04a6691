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
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import SpaceMismatchError, ValidationError
from .hilbert import (
    DEFAULT_TOL,
    ENVIRONMENT,
    JOINT,
    Ket,
    Operator,
    Space,
    basis_ket,
    fix_phase,
    gram,
    orthonormality_residual,
    require_basis,
    require_orthonormal,
)
from .povm import Povm, label_index, validate_povm


@dataclass(frozen=True)
class JointOutcomeSet:
    """Orthonormal joint vectors, one per macroscopically distinct outcome.

    ``validate=False`` skips the orthonormality check so that deliberately
    perturbed sets can be built for diagnostics. ``vectors`` stacks the
    amplitudes, one read-only row per outcome.
    """

    space: Space
    outcomes: tuple[tuple[str, Ket], ...]
    validate: InitVar[bool] = True
    tol: float = field(default=DEFAULT_TOL, compare=False, repr=False)
    vectors: np.ndarray = field(init=False, repr=False, compare=False)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self, validate: bool) -> None:
        if self.space.kind != JOINT:
            raise SpaceMismatchError("outcome sets live on joint spaces")
        object.__setattr__(self, "outcomes", tuple((str(l), k) for l, k in self.outcomes))
        if not self.outcomes:
            raise ValidationError("at least one outcome is required", invariant="nonempty")
        object.__setattr__(self, "_index", label_index(self.labels()))
        for label, ket in self.outcomes:
            if ket.space != self.space:
                raise SpaceMismatchError(f"outcome {label!r} is not on the joint space")
        if len(self.outcomes) > self.space.dim:
            raise ValidationError(
                f"{len(self.outcomes)} outcomes exceed dim {self.space.dim}",
                invariant="outcome-count",
            )
        vectors = np.stack([ket.amplitudes for _, ket in self.outcomes])
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        if validate:
            require_orthonormal(vectors, self.tol, "outcome set is", "outcome-orthonormality")

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.outcomes)

    def ket(self, label: str) -> Ket:
        return self.outcomes[self._index[label]][1]

    @property
    def complete(self) -> bool:
        return len(self.outcomes) == self.space.dim

    def orthonormality_residual(self) -> float:
        return orthonormality_residual(self.vectors)

    def __len__(self) -> int:
        return len(self.outcomes)


def require_normalised_phi_init(phi_init: Ket, tol: float) -> None:
    if not phi_init.is_normalized(tol):
        raise ValidationError("phi_init must be normalised", invariant="phi-init-normalisation")


@dataclass(frozen=True)
class Dilation:
    """A joint outcome set together with the environment's initial state."""

    outcomes: JointOutcomeSet
    phi_init: Ket
    tol: float = field(default=DEFAULT_TOL, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.phi_init.space.kind != ENVIRONMENT:
            raise SpaceMismatchError("phi_init must be an environment ket")
        if self.phi_init.space.dim != self.outcomes.space.env_dim:
            raise SpaceMismatchError(
                f"phi_init dim {self.phi_init.space.dim} != environment factor "
                f"{self.outcomes.space.env_dim}"
            )
        require_normalised_phi_init(self.phi_init, self.tol)


def povm_from_dilation(d: Dilation) -> Povm:
    """Contract each joint outcome with phi_init into a system POVM element.

    Outcomes orthogonal to phi_init (x) system become zero elements and are
    kept, so the label set always matches the outcome set. If the outcome set
    is complete the result sums to the identity.
    """
    lambdas, _ = _components(d)
    return Povm.from_vectors(zip(d.outcomes.labels(), lambdas), d.outcomes.space.sys_dim)


def _components(d: Dilation) -> tuple[np.ndarray, np.ndarray]:
    """Rows lambda(m) = <phi_init|m> and sigma(m) = |m> - |phi_init> (x) |lambda(m)>."""
    space = d.outcomes.space
    phi = d.phi_init.amplitudes
    lambdas = phi.conj() @ d.outcomes.vectors.reshape(-1, space.env_dim, space.sys_dim)
    sigmas = d.outcomes.vectors - (phi[:, None] * lambdas[:, None, :]).reshape(-1, space.dim)
    return lambdas, sigmas


def residual_decompose(d: Dilation) -> JointOutcomeSet:
    """sigma(m) = |m> - |phi_init> (x) |lambda(m)> for every outcome, unvalidated."""
    _, sigmas = _components(d)
    space = d.outcomes.space
    pairs = tuple((label, Ket(space, s)) for label, s in zip(d.outcomes.labels(), sigmas))
    return JointOutcomeSet(space, pairs, validate=False)


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
    """Rebuild a dilation whose derived POVM is exactly ``p``.

    The environment dimension equals the element count M, phi_init is the
    first canonical environment basis vector, and each outcome is
    ``|e_0> (x) |lambda_m>`` plus a residual built from the eigendecomposition
    of ``G_sigma = I_M - G_lambda`` (eigenpairs above tol kept, eigenvector
    phases canonicalised). Because the elements are embedded verbatim, the
    round trip has no per-outcome phase freedom.

    Raises on operator elements or a POVM that ``validate_povm`` rejects.
    """
    for el in p.elements:
        if not el.is_vector:
            raise ValidationError(
                f"element {el.label!r} is not rank one", invariant="rank-one-elements"
            )
    validate_povm(p, tol)

    count, sys_dim = p.vectors.shape
    values, vectors = np.linalg.eigh(np.eye(count) - gram(p.vectors))
    keep = values > tol
    # coords[m, j] with conj(coords[m]) . coords[m'] = G_sigma[m, m']
    coords = (np.sqrt(values[keep])[:, None] * fix_phase(vectors[:, keep].T).conj()).T

    joint = Space.joint(count, sys_dim)
    flat = np.zeros((count, count * sys_dim), dtype=complex)
    flat[:, :sys_dim] = p.vectors
    flat[:, sys_dim : sys_dim + coords.shape[1]] = coords
    outcomes = tuple((label, Ket(joint, row)) for label, row in zip(p.labels(), flat))
    phi = basis_ket(Space.environment(count), 0)
    return Dilation(JointOutcomeSet(joint, outcomes, tol=tol), phi, tol=tol)


def context_switch_povm(
    contexts: Sequence[tuple[Ket, Operator]],
    basis: Sequence[Ket],
    phi_init: Ket,
    labels: Sequence[Sequence[str]] | None = None,
    tol: float = DEFAULT_TOL,
) -> Povm:
    """POVM of a measurement whose basis choice is conditioned on the environment.

    Parameters
    ----------
    contexts : pairs (environment ket, system unitary)
        The environment kets must be mutually orthonormal; detecting context x
        measures the system in the basis rotated by that context's unitary.
    basis : orthonormal complete system basis
        The readout basis before rotation.
    phi_init : Ket
        Initial environment state; the element for (x, a) is
        ``<phi_init|x> U_x^dag |a>``.
    labels : optional per-(context, outcome) labels
        Defaults to ``"x:a"`` index pairs.

    The result is complete exactly when phi_init lies in the span of the
    context states.
    """
    if len(contexts) == 0:
        raise ValidationError("at least one context is required", invariant="nonempty")
    env_kets = [env for env, _ in contexts]
    for env in env_kets:
        if env.space != phi_init.space or env.space.kind != ENVIRONMENT:
            raise SpaceMismatchError("context states must share phi_init's environment space")
    require_orthonormal(env_kets, tol, "context states are", "context-orthonormality")
    require_normalised_phi_init(phi_init, tol)

    sys_dim = basis[0].space.dim
    require_basis(basis, sys_dim, tol, "readout basis")

    readout = np.stack([ket.amplitudes for ket in basis])[:, :, None]
    names, blocks = [], []
    for x, (env, unitary) in enumerate(contexts):
        if unitary.space.dim != sys_dim:
            raise SpaceMismatchError(f"context {x} unitary does not act on the system")
        gap = float(
            np.abs(unitary.entries.conj().T @ unitary.entries - np.eye(sys_dim)).max()
        )
        if gap > tol:
            raise ValidationError(
                f"context {x} operator is not unitary (residual {gap:.3e})",
                invariant="unitarity",
            )
        # Stacked matrix-vector products round each row as U^dag |a> alone does.
        blocks.append(phi_init.inner(env) * (unitary.entries.conj().T @ readout)[:, :, 0])
        names += [labels[x][a] if labels is not None else f"{x}:{a}" for a in range(sys_dim)]
    return Povm.from_vectors(zip(names, np.concatenate(blocks)), system_dim=sys_dim)
