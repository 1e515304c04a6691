"""POVMs from system-environment dilations and the inverse construction.

A ``Dilation`` is one labelled stack of orthonormal joint outcome vectors together
with the environment's initial state phi_init. Contracting each outcome with
phi_init yields the system-side POVM element; the part of the outcome orthogonal
to phi_init (x) system is its residual component, one row of the stack that
``residual_decompose`` returns. The two obey

    <sigma(m)|sigma(m')> = -<lambda(m)|lambda(m')>   for m != m'
    <sigma(m)|sigma(m)> + <lambda(m)|lambda(m)> = 1

and ``naimark_dilate`` rebuilds a dilation from any complete rank-1 POVM. A measurement
whose basis the environment selects is a ``Dilation`` too, its rows |x> (x) U_x^dag |a>.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import SpaceMismatchError, ValidationError
from .hilbert import (
    DEFAULT_TOL,
    amplitudes,
    fix_phase,
    gram,
    require_orthonormal,
)
from .povm import LabelledStack, Povm, validate_povm


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Dilation(LabelledStack):
    """Orthonormal joint vectors, one ``env_dim * sys_dim`` row per macroscopically
    distinct outcome, with the environment's initial state ``phi_init``, a read-only
    ``(env_dim,)`` copy. A perturbed dilation for diagnostics is built at ``tol=np.inf``.
    """

    env_dim: int
    sys_dim: int
    phi_init: np.ndarray = field(repr=False)
    tol: float = field(compare=False, repr=False)
    _nonempty = "at least one outcome is required"

    def __init__(
        self,
        env_dim: int,
        sys_dim: int,
        labels: Sequence[str],
        vectors: np.ndarray,
        phi_init: np.ndarray,
        tol: float = DEFAULT_TOL,
    ) -> None:
        """Checks ``space-dim``, then the stack (labels, shape, finiteness, ``outcome-count``,
        ``outcome-orthonormality``), then ``phi_init``'s conversion, length and norm."""
        if env_dim < 1 or sys_dim < 1:
            raise ValidationError("space dimension must be at least 1", invariant="space-dim")
        dim = env_dim * sys_dim
        self._store(labels, vectors, dim, env_dim=env_dim, sys_dim=sys_dim, tol=tol)
        if len(labels) > dim:
            raise ValidationError(
                f"{len(labels)} outcomes exceed dim {dim}", invariant="outcome-count"
            )
        require_orthonormal(self.vectors, tol, "outcome set is", "outcome-orthonormality")
        phi = amplitudes(phi_init, (None,), "for phi_init")
        if len(phi) != env_dim:
            raise SpaceMismatchError(f"phi_init dim {len(phi)} != environment factor {env_dim}")
        if abs(float(np.vdot(phi, phi).real) - 1.0) > tol:
            problem = "phi_init must be normalised"
            raise ValidationError(problem, invariant="phi-init-normalisation")
        self.__dict__["phi_init"] = phi


def povm_from_dilation(d: Dilation) -> Povm:
    """Contract each joint outcome with phi_init into a system POVM element.

    Outcomes orthogonal to phi_init (x) system become zero elements and are
    kept, so the label set always matches the outcome set. If the outcome set
    is complete the result sums to the identity.
    """
    return Povm.from_vectors(d.sys_dim, d.labels(), _lambdas(d))


def _lambdas(d: Dilation) -> np.ndarray:
    """Rows lambda(m) = <phi_init|m>."""
    return d.phi_init.conj() @ d.vectors.reshape(-1, d.env_dim, d.sys_dim)


def residual_decompose(d: Dilation) -> np.ndarray:
    """The ``(M, env_dim * sys_dim)`` stack of sigma(m) = |m> - |phi_init> (x) |lambda(m)>,
    one row per outcome in ``d.labels()`` order."""
    lambdas = _lambdas(d)
    phi = d.phi_init
    return d.vectors - (phi[:, None] * lambdas[:, None, :]).reshape(len(lambdas), -1)


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
    lambdas, sigmas = _lambdas(d), residual_decompose(d)
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
    return Dilation(count, sys_dim, p.labels(), flat, np.eye(1, count)[0], tol)
