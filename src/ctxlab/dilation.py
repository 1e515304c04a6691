"""POVMs from system-environment dilations and the inverse construction.

A ``Dilation`` is one labelled stack of orthonormal joint outcome vectors together
with the environment's initial state phi_init. Contracting each outcome with
phi_init yields the system-side POVM element; the part of the outcome orthogonal
to phi_init (x) system is its residual component, one row of the stack that
``residual_decompose`` returns. Their overlaps obey one Gram identity,

    <sigma(m)|sigma(m')> + <lambda(m)|lambda(m')> = delta(m, m'),

which ``verify_constraints`` checks, and ``naimark_dilate`` rebuilds a dilation from any
complete rank-1 POVM. A measurement whose basis the environment selects is a ``Dilation``
too, its rows |x> (x) U_x^dag |a>; a random choice among bases with probabilities P(x) is
the case |x> = e_x, ``phi_init`` = (sqrt(P(x))).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import SpaceMismatchError, ValidationError
from .hilbert import DEFAULT_TOL, amplitudes, finite, fix_phase, gram, orthonormality_residual
from .povm import LabelledStack, Povm, validate_povm


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Dilation(LabelledStack):
    """Orthonormal joint vectors, one ``env_dim * sys_dim`` row per macroscopically
    distinct outcome, with the environment's initial state ``phi_init``, a read-only
    ``(env_dim,)`` copy. A perturbed dilation for diagnostics is built at ``tol=np.inf``.
    """

    vectors: np.ndarray = field(repr=False)
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
        """Checks ``space-dim`` and the stack (labels, shape, finiteness), then
        ``outcome-count`` and ``outcome-orthonormality``, then ``phi_init``'s conversion,
        length and norm. An orthonormality residual that is not finite raises
        FloatingPointError."""
        self._store(labels, (env_dim, sys_dim), env_dim=env_dim, sys_dim=sys_dim, tol=tol)
        self.__dict__["vectors"] = self._rows(vectors, env_dim * sys_dim)
        if len(labels) > env_dim * sys_dim:
            problem = f"{len(labels)} outcomes exceed dim {env_dim * sys_dim}"
            raise ValidationError(problem, invariant="outcome-count")
        residual = orthonormality_residual(self.vectors)
        if residual > tol:
            problem = f"outcome set is not orthonormal (residual {residual:.3e})"
            raise ValidationError(problem, invariant="outcome-orthonormality")
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
    return Povm(d.sys_dim, d.labels(), fix_phase(_lambdas(d)))


def _lambdas(d: Dilation) -> np.ndarray:
    """Rows lambda(m) = <phi_init|m>."""
    return d.phi_init.conj() @ d.vectors.reshape(-1, d.env_dim, d.sys_dim)


def residual_decompose(d: Dilation) -> np.ndarray:
    """The ``(M, env_dim * sys_dim)`` stack of sigma(m) = |m> - |phi_init> (x) |lambda(m)>,
    one row per outcome in ``d.labels()`` order."""
    lambdas = _lambdas(d)
    phi = d.phi_init
    return d.vectors - (phi[:, None] * lambdas[:, None, :]).reshape(len(lambdas), -1)


@finite("the constraint residual is")
def verify_constraints(d: Dilation) -> float:
    """Max-entry residual of G_sigma + G_lambda - identity, the Gram matrices of the
    ``residual_decompose`` rows and of the lambda rows: its off-diagonal entries check
    <sigma|sigma'> = -<lambda|lambda'>, its diagonal the unit total norms.

    The residual is returned, not raised, so perturbed dilations can be quantified; one
    that is not finite raises FloatingPointError.
    """
    total = gram(residual_decompose(d)) + gram(_lambdas(d))
    return float(np.abs(total - np.eye(len(total))).max())


def naimark_dilate(p: Povm, tol: float = DEFAULT_TOL) -> Dilation:
    """Rebuild a dilation whose derived POVM is ``p`` with each row in ``fix_phase``'s
    canonical phase, which is ``p`` itself when its rows already are.

    The environment dimension equals the element count M, phi_init is the
    first canonical environment basis vector, and each outcome is
    ``|e_0> (x) |lambda_m>`` plus a residual built from the eigendecomposition
    of ``G_sigma = I_M - G_lambda`` (eigenpairs above tol kept, eigenvector
    phases canonicalised).

    Raises ``rank-one`` on an element not stored as a row, then as ``validate_povm`` does.
    """
    if not p._rank_one.all():
        label = p.labels()[np.argmin(p._rank_one)]  # the first element that is not a row
        raise ValidationError(f"element {label!r} is not rank one", invariant="rank-one")
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
