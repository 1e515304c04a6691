"""Labelled finite-dimensional Hilbert spaces and operators; kets are complex arrays.

A ket is a 1-D complex array of its space's length, and a set of kets a 2-D
stack with one ket per row. Joint vectors are stored flat in environment-major
order, ``flat_index = env_index * sys_dim + sys_index``, so that the flat vector
of ``env (x) sys`` is ``numpy.kron(env, sys)``.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import SpaceMismatchError, ValidationError

SYSTEM = "system"
ENVIRONMENT = "environment"
JOINT = "joint"

_KINDS = (SYSTEM, ENVIRONMENT, JOINT)

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class Space:
    """A labelled Hilbert space: system, environment, or their tensor product."""

    kind: str
    dim: int
    env_dim: int | None = None
    sys_dim: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown space kind {self.kind!r}", invariant="space-kind")
        if self.dim < 1:
            raise ValidationError("space dimension must be at least 1", invariant="space-dim")
        if self.kind == JOINT:
            if self.env_dim is None or self.sys_dim is None:
                raise ValidationError(
                    "joint spaces need env_dim and sys_dim", invariant="space-dim"
                )
            if self.env_dim < 1 or self.sys_dim < 1 or self.env_dim * self.sys_dim != self.dim:
                raise ValidationError(
                    f"joint dimension {self.dim} != env {self.env_dim} * sys {self.sys_dim}",
                    invariant="space-dim",
                )
        elif self.env_dim is not None or self.sys_dim is not None:
            raise ValidationError(
                "only joint spaces carry factor dimensions", invariant="space-dim"
            )

    @classmethod
    def system(cls, dim: int) -> Space:
        return cls(SYSTEM, dim)

    @classmethod
    def joint(cls, env_dim: int, sys_dim: int) -> Space:
        return cls(JOINT, env_dim * sys_dim, env_dim, sys_dim)


def fix_phase(vector: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the largest-magnitude entry is real positive.

    A 2-D array is a stack of rows, each rotated alone with scalar ``abs`` and
    division (their array forms can differ by an ulp). Ties pick the first
    index; zero vectors and empty input are returned unchanged.
    """
    v = np.array(vector, dtype=complex, order="C")
    if not v.size:
        return v
    rows = v if v.ndim == 2 else v.reshape(1, -1)
    for row in rows:
        pivot = row[int(np.argmax(np.abs(row)))]
        if abs(pivot) != 0.0:
            row *= pivot.conjugate() / abs(pivot)
    return v if v.ndim == 2 else rows[0]


def unit_vector(amplitudes: np.ndarray, tol: float, error: Exception | None = None) -> np.ndarray:
    """``amplitudes`` over their norm; raises ``error``, by default ``normalisable``,
    when the norm is at most tol."""
    norm = float(np.linalg.norm(amplitudes))
    if norm <= tol:
        raise error or ValidationError("cannot normalise a zero vector", invariant="normalisable")
    return amplitudes / norm


def finite(what: str) -> Callable[[Callable], Callable]:
    """The one non-finite rule for weights and residuals.

    The decorated computation runs with numpy's overflow and invalid-value
    warnings silenced; a result that is not finite everywhere raises
    FloatingPointError ``"{what} not finite"`` instead.
    """
    def decorate(compute: Callable) -> Callable:
        @functools.wraps(compute)
        def checked(*args, **kwargs):
            with np.errstate(over="ignore", invalid="ignore"):
                value = compute(*args, **kwargs)
            if not np.isfinite(value).all():
                raise FloatingPointError(f"{what} not finite")
            return value
        return checked
    return decorate


def require_finite(amplitudes: np.ndarray) -> None:
    """Raise ``finite-amplitudes`` unless every amplitude (of a ket or a stack) is finite."""
    if not np.isfinite(amplitudes).all():
        raise ValidationError("amplitudes must be finite", invariant="finite-amplitudes")


def amplitudes(values: object, shape: tuple[int | None, ...], what: str) -> np.ndarray:
    """``values`` as a read-only complex copy of ``shape``: ``(dim,)`` for a ket, ``(count,
    dim)`` for a stack of kets as rows, None for a length the caller checks itself.

    The one conversion of the kets a public function takes. Raises SpaceMismatchError,
    its message ended by ``what``, for values that are not one complex array (rows of
    unequal lengths, a string entry) or of another shape, then ``finite-amplitudes``.
    """
    items, form = ("rows", "stack") if len(shape) == 2 else ("amplitudes", "ket")
    try:
        array = np.array(values, dtype=complex)
    except (TypeError, ValueError) as exc:  # rows of unequal lengths or a string entry
        raise SpaceMismatchError(f"{items} that are not one complex {form} {what}") from exc
    if array.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, array.shape)):
        raise SpaceMismatchError(f"a {form} of shape {array.shape} {what}")
    require_finite(array)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class Operator:
    """An immutable square matrix acting on a labelled space."""

    space: Space
    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.entries, dtype=complex)
        if mat.shape != (self.space.dim, self.space.dim):
            raise SpaceMismatchError(
                f"matrix shape {mat.shape} for a dim-{self.space.dim} space"
            )
        if not np.isfinite(mat).all():
            raise ValidationError("entries must be finite", invariant="finite-entries")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.space == other.space and np.array_equal(self.entries, other.entries)

    @classmethod
    def identity(cls, space: Space) -> Operator:
        return cls(space, np.eye(space.dim, dtype=complex))

    def hermiticity_residual(self) -> float:
        return float(np.abs(self.entries - self.entries.conj().T).max())

    def trace(self) -> complex:
        return complex(np.trace(self.entries))


def gram(vectors: np.ndarray) -> np.ndarray:
    """Hermitian Gram matrix G[i, j] = <v_i|v_j> of a stack's rows."""
    if len(vectors) == 0:
        raise ValidationError("gram of an empty vector list", invariant="nonempty")
    return vectors.conj() @ vectors.T


@finite("the orthonormality residual is")
def orthonormality_residual(vectors: np.ndarray) -> float:
    """Max-entry residual of gram(vectors) - identity."""
    return float(np.abs(gram(vectors) - np.eye(len(vectors))).max())


def require_orthonormal(vectors: np.ndarray, tol: float, what: str, invariant: str) -> None:
    """Raise ``invariant`` unless the rows of a stack are orthonormal within tol.

    ``what`` starts the message, e.g. ``"readout basis is"``. A residual that
    is not finite raises FloatingPointError instead.
    """
    residual = orthonormality_residual(vectors)
    if residual > tol:
        raise ValidationError(
            f"{what} not orthonormal (residual {residual:.3e})", invariant=invariant
        )


def require_basis(basis: np.ndarray, dim: int, tol: float, name: str) -> np.ndarray:
    """``basis`` as an ``(dim, dim)`` stack, raising unless it holds exactly ``dim``
    orthonormal kets of dimension ``dim``."""
    if len(basis) != dim:
        raise ValidationError(
            f"{name} has {len(basis)} kets for dim {dim}", invariant="basis-completeness"
        )
    stack = amplitudes(basis, (dim, dim), f"for {name} of dim {dim}")
    require_orthonormal(stack, tol, f"{name} is", "basis-orthonormality")
    return stack


def require_hermitian(op: Operator, tol: float, what: str) -> Operator:
    """Raise ``hermiticity`` unless ``op`` is Hermitian within tol; ``what`` names it.
    Returns ``op``."""
    residual = op.hermiticity_residual()
    if residual > tol:
        raise ValidationError(
            f"{what} is not Hermitian (residual {residual:.3e})", invariant="hermiticity"
        )
    return op
