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
    partial_inner_env,
    require_basis,
    require_orthonormal,
    tensor,
)
from .povm import Povm, label_index, validate_povm


@dataclass(frozen=True)
class JointOutcomeSet:
    """Orthonormal joint vectors, one per macroscopically distinct outcome.

    ``validate=False`` skips the orthonormality check so that deliberately
    perturbed sets can be built for diagnostics.
    """

    space: Space
    outcomes: tuple[tuple[str, Ket], ...]
    validate: InitVar[bool] = True
    tol: float = field(default=DEFAULT_TOL, compare=False, repr=False)
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
        if validate:
            require_orthonormal(self.kets(), self.tol, "outcome set is", "outcome-orthonormality")

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.outcomes)

    def kets(self) -> tuple[Ket, ...]:
        return tuple(ket for _, ket in self.outcomes)

    def ket(self, label: str) -> Ket:
        return self.outcomes[self._index[label]][1]

    @property
    def complete(self) -> bool:
        return len(self.outcomes) == self.space.dim

    def orthonormality_residual(self) -> float:
        return orthonormality_residual(self.kets())

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
    pairs = [
        (label, partial_inner_env(d.phi_init, ket)) for label, ket in d.outcomes.outcomes
    ]
    return Povm.from_vectors(pairs, system_dim=d.outcomes.space.sys_dim)


def _raw_components(d: Dilation) -> tuple[list[Ket], list[Ket]]:
    lambdas, sigmas = [], []
    for _, m in d.outcomes.outcomes:
        lam = partial_inner_env(d.phi_init, m)
        lambdas.append(lam)
        sigmas.append(m - tensor(d.phi_init, lam))
    return lambdas, sigmas


def residual_decompose(d: Dilation) -> JointOutcomeSet:
    """sigma(m) = |m> - |phi_init> (x) |lambda(m)> for every outcome, unvalidated."""
    _, sigmas = _raw_components(d)
    pairs = tuple(zip(d.outcomes.labels(), sigmas))
    return JointOutcomeSet(d.outcomes.space, pairs, validate=False)


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
    lambdas, sigmas = _raw_components(d)
    total = gram(sigmas) + gram(lambdas)
    count = len(lambdas)
    off = total - np.diag(np.diag(total))
    max_orth = float(np.abs(off).max()) if count > 1 else 0.0
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

    count = len(p.elements)
    sys_dim = p.system_dim
    g_sigma = np.eye(count) - gram([el.vector for el in p.elements])

    values, vectors = np.linalg.eigh(g_sigma)
    keep = values > tol
    # coords[m, j] with conj(coords[m]) . coords[m'] = G_sigma[m, m']
    coords = np.zeros((count, int(keep.sum())), dtype=complex)
    for j, idx in enumerate(np.nonzero(keep)[0]):
        coords[:, j] = np.sqrt(values[idx]) * fix_phase(vectors[:, idx]).conj()

    joint = Space.joint(count, sys_dim)
    outcomes = []
    for m, el in enumerate(p.elements):
        flat = np.zeros(count * sys_dim, dtype=complex)
        flat[:sys_dim] = el.vector.amplitudes
        flat[sys_dim : sys_dim + coords.shape[1]] = coords[m]
        outcomes.append((el.label, Ket(joint, flat)))
    phi = basis_ket(Space.environment(count), 0)
    return Dilation(JointOutcomeSet(joint, tuple(outcomes), tol=tol), phi, tol=tol)


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

    pairs: list[tuple[str, np.ndarray]] = []
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
        coeff = phi_init.inner(env)
        rotated = unitary.entries.conj().T
        for a, ket in enumerate(basis):
            label = labels[x][a] if labels is not None else f"{x}:{a}"
            pairs.append((label, coeff * (rotated @ ket.amplitudes)))
    return Povm.from_vectors(pairs, system_dim=sys_dim)
