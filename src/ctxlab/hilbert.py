"""Labelled finite-dimensional Hilbert spaces: kets, operators, tensor products.

Joint vectors are stored flat in environment-major order,
``flat_index = env_index * sys_dim + sys_index``, so that the flat vector of
``env (x) sys`` is ``numpy.kron(env, sys)``.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SpaceMismatchError, ValidationError

SYSTEM = "system"
ENVIRONMENT = "environment"
JOINT = "joint"

_KINDS = (SYSTEM, ENVIRONMENT, JOINT)

DEFAULT_TOL = 1e-9
Vectors = Sequence["Ket"] | np.ndarray  # kets on one space, or the rows of a stack


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
    def environment(cls, dim: int) -> Space:
        return cls(ENVIRONMENT, dim)

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


@dataclass(frozen=True)
class Ket:
    """An immutable vector over a labelled space. Not necessarily normalised."""

    space: Space
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != self.space.dim:
            raise SpaceMismatchError(
                f"{amps.shape[0]} amplitudes for a dim-{self.space.dim} space"
            )
        require_finite(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.space == other.space and np.array_equal(self.amplitudes, other.amplitudes)

    def inner(self, other: Ket) -> complex:
        """<self|other>, conjugate-linear in self."""
        if self.space != other.space:
            raise SpaceMismatchError("inner product needs kets on the same space")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, tol: float = DEFAULT_TOL) -> bool:
        return abs(self.norm_sq() - 1.0) <= tol

    def normalized(self, tol: float = DEFAULT_TOL) -> Ket:
        return Ket(self.space, unit_vector(self.amplitudes, tol))

    def with_canonical_phase(self) -> Ket:
        return Ket(self.space, fix_phase(self.amplitudes))

    def projector(self) -> np.ndarray:
        """|v><v| as a dense matrix."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


def basis_ket(space: Space, index: int) -> Ket:
    """The index-th canonical basis vector of a space."""
    if not 0 <= index < space.dim:
        raise ValidationError(
            f"basis index {index} outside dim-{space.dim} space", invariant="basis-index"
        )
    amps = np.zeros(space.dim, dtype=complex)
    amps[index] = 1.0
    return Ket(space, amps)


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


def tensor(env: Ket, sys: Ket) -> Ket:
    """Tensor product of an environment ket with a system ket (env-major flat order)."""
    if env.space.kind != ENVIRONMENT or sys.space.kind != SYSTEM:
        raise SpaceMismatchError(
            f"tensor expects (environment, system) kets, got ({env.space.kind}, {sys.space.kind})"
        )
    joint = Space.joint(env.space.dim, sys.space.dim)
    return Ket(joint, np.kron(env.amplitudes, sys.amplitudes))


def gram(vectors: Vectors) -> np.ndarray:
    """Hermitian Gram matrix G[i, j] = <v_i|v_j> of same-space kets or of a stack's rows."""
    if len(vectors) == 0:
        raise ValidationError("gram of an empty vector list", invariant="nonempty")
    if not isinstance(vectors, np.ndarray):
        if any(v.space != vectors[0].space for v in vectors[1:]):
            raise SpaceMismatchError("gram needs vectors on one common space")
        vectors = np.stack([v.amplitudes for v in vectors])
    return vectors.conj() @ vectors.T


@finite("the orthonormality residual is")
def orthonormality_residual(vectors: Vectors) -> float:
    """Max-entry residual of gram(vectors) - identity."""
    return float(np.abs(gram(vectors) - np.eye(len(vectors))).max())


def require_orthonormal(vectors: Vectors, tol: float, what: str, invariant: str) -> None:
    """Raise ``invariant`` unless the vectors are orthonormal within tol.

    ``what`` starts the message, e.g. ``"readout basis is"``. A residual that
    is not finite raises FloatingPointError instead.
    """
    residual = orthonormality_residual(vectors)
    if residual > tol:
        raise ValidationError(
            f"{what} not orthonormal (residual {residual:.3e})", invariant=invariant
        )


def require_basis(basis: Sequence[Ket], dim: int, tol: float, name: str) -> None:
    """Raise unless ``basis`` holds exactly ``dim`` orthonormal kets."""
    if len(basis) != dim:
        raise ValidationError(
            f"{name} has {len(basis)} kets for dim {dim}", invariant="basis-completeness"
        )
    require_orthonormal(basis, tol, f"{name} is", "basis-orthonormality")


def require_hermitian(op: Operator, tol: float, what: str) -> Operator:
    """Raise ``hermiticity`` unless ``op`` is Hermitian within tol; ``what`` names it.
    Returns ``op``."""
    residual = op.hermiticity_residual()
    if residual > tol:
        raise ValidationError(
            f"{what} is not Hermitian (residual {residual:.3e})", invariant="hermiticity"
        )
    return op
