"""Kets, operators and states as plain complex arrays, and the one conversion of each.

A ket is a 1-D complex array of its space's length, a set of kets a 2-D stack
with one ket per row, and an operator (a POVM element, a unitary, a density
matrix) a 2-D ``(dim, dim)`` array. A state is a ket or a density matrix.
Joint vectors are stored flat in environment-major order, ``flat_index =
env_index * sys_dim + sys_index``, so that the flat vector of ``env (x) sys`` is
``numpy.kron(env, sys)``. ``ByValue`` gives the frozen dataclasses that hold such
arrays their one equality rule.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Callable, Mapping

import numpy as np

from .errors import SpaceMismatchError, ValidationError

DEFAULT_TOL = 1e-9


class ByValue:
    """Equality by value for a dataclass that holds arrays, which leaves it unhashable:
    two instances of one class are equal when each ``compare=True`` field is, an array by
    ``np.array_equal``, a mapping of arrays by its keys then entry by entry, else by ``==``."""

    __hash__ = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = [f.name for f in dataclasses.fields(self) if f.compare]
        return all(_same(getattr(self, name), getattr(other, name)) for name in names)


def _same(x: object, y: object) -> bool:
    if isinstance(x, Mapping):
        return x.keys() == y.keys() and all(np.array_equal(x[k], y[k]) for k in x)
    return np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y


def fix_phase(vector: np.ndarray) -> np.ndarray:
    """A copy with each row's global phase rotated so its pivot, the first entry of
    largest ``np.abs``, is real and non-negative; a 1-D array is one row.

    A row whose pivot ``p`` is not is multiplied by ``complex(p.real / a, -p.imag / a)``,
    ``a = hypot(p.real, p.imag)``, and its pivot set to ``a``. Every other row, zero rows
    included, is kept bit for bit, so a second call changes no bit unless the rotation's
    round-off lifted another entry's magnitude above the pivot's, which only a near tie
    allows. Entries must be finite.
    """
    v = np.array(vector, dtype=complex, order="C")
    if not v.size:
        return v
    rows = v.reshape(-1, v.shape[-1])
    at = np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)
    pivots = rows[at]
    re, im = pivots.real, pivots.imag
    turn = (im != 0.0) | (re < 0.0)
    a = np.hypot(re, im)
    factor = np.empty(len(rows), dtype=complex)  # read only where a row turns
    np.divide(re, a, out=factor.real, where=turn)
    np.divide(-im, a, out=factor.imag, where=turn)
    np.multiply(rows, factor[:, None], out=rows, where=turn[:, None])
    rows[at] = np.where(turn, a, pivots)
    return v


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


def _complex(values: object, what: str, items: str, form: str) -> np.ndarray:
    """``values`` as one C-ordered complex array, else SpaceMismatchError."""
    try:
        return np.array(values, dtype=complex, order="C")
    except (TypeError, ValueError) as exc:  # rows of unequal lengths or a string entry
        raise SpaceMismatchError(f"{items} that are not one complex {form} {what}") from exc


def amplitudes(values: object, shape: tuple[int | None, ...], what: str) -> np.ndarray:
    """``values`` as a read-only complex copy of ``shape``: ``(dim,)`` for a ket, ``(count,
    dim)`` for a stack of kets as rows, None for a length the caller checks itself.

    The one conversion of the kets a public function takes. Raises SpaceMismatchError,
    its message ended by ``what``, for values that are not one complex array (rows of
    unequal lengths, a string entry) or of another shape, then ``finite-amplitudes``.
    """
    items, form = ("rows", "stack") if len(shape) == 2 else ("amplitudes", "ket")
    array = _complex(values, what, items, form)
    if array.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, array.shape)):
        raise SpaceMismatchError(f"a {form} of shape {array.shape} {what}")
    if not np.isfinite(array).all():
        raise ValidationError("amplitudes must be finite", invariant="finite-amplitudes")
    array.setflags(write=False)
    return array


def entries(values: object, dim: int, what: str) -> np.ndarray:
    """``values`` as a read-only complex ``(dim, dim)`` copy, the one conversion of an
    operator: raises SpaceMismatchError, its message ended by ``what``, as ``amplitudes``
    does, then ``finite-entries``."""
    matrix = _complex(values, what, "rows", "matrix")
    if matrix.shape != (dim, dim):
        raise SpaceMismatchError(f"a matrix of shape {matrix.shape} {what}")
    if not np.isfinite(matrix).all():
        raise ValidationError("entries must be finite", invariant="finite-entries")
    matrix.setflags(write=False)
    return matrix


def state_array(values: object, what: str) -> np.ndarray:
    """A state as a read-only complex copy: a ket through ``amplitudes``, a square matrix
    through ``entries``. Converted before the form is picked, so anything that is not one
    complex array raises SpaceMismatchError, as does a matrix not square or of three axes."""
    array = _complex(values, what, "values", "state")
    if array.ndim < 2:
        return amplitudes(array, (None,), what)
    return entries(array, len(array), what)


def density_matrix(state: object, dim: int, tol: float) -> np.ndarray:
    """rho of a state, read-only ``(dim, dim)``, the one check of a state a function is given:
    ``|psi><psi|`` of a ket normalised within tol (``state-normalisation``), or a matrix
    Hermitian, positive and of unit trace within tol (``hermiticity``, ``positivity``,
    ``unit-trace``). A state of another dimension raises SpaceMismatchError."""
    rho = state_array(state, f"for a dim-{dim} system")
    if len(rho) != dim:
        raise SpaceMismatchError(f"state dim {len(rho)} != system dim {dim}")
    if rho.ndim == 1 and abs(float(np.vdot(rho, rho).real) - 1.0) > tol:
        raise ValidationError("pure states must be normalised", invariant="state-normalisation")
    if rho.ndim == 1:
        rho = np.outer(rho, rho.conj())
        rho.setflags(write=False)
        return rho
    require_hermitian(rho, tol, "density matrix")
    low = float(np.linalg.eigvalsh(rho)[0])
    if low < -tol:
        problem = f"density matrix has eigenvalue {low:.3e} < 0"
        raise ValidationError(problem, invariant="positivity")
    with np.errstate(over="ignore"):  # an overflowing trace fails the check below instead
        trace = float(np.trace(rho).real)
    if abs(trace - 1.0) > tol:
        raise ValidationError(f"trace {trace!r} != 1", invariant="unit-trace")
    return rho


def gram(vectors: np.ndarray) -> np.ndarray:
    """Hermitian Gram matrix G[i, j] = <v_i|v_j> of a stack's rows."""
    if len(vectors) == 0:
        raise ValidationError("gram of an empty vector list", invariant="nonempty")
    return vectors.conj() @ vectors.T


@finite("the orthonormality residual is")
def orthonormality_residual(vectors: np.ndarray) -> float:
    """Max-entry residual of gram(vectors) - identity."""
    return float(np.abs(gram(vectors) - np.eye(len(vectors))).max())


@finite("the hermiticity residual is")
def _hermiticity_residual(matrix: np.ndarray) -> float:
    """Max-entry residual of matrix - matrix^dagger."""
    return float(np.abs(matrix - matrix.conj().T).max())


def require_hermitian(matrix: np.ndarray, tol: float, what: str) -> np.ndarray:
    """``matrix``, raising ``hermiticity`` unless it is Hermitian within tol; ``what`` names it.
    A residual that is not finite raises FloatingPointError."""
    residual = _hermiticity_residual(matrix)
    if residual > tol:
        raise ValidationError(
            f"{what} is not Hermitian (residual {residual:.3e})", invariant="hermiticity"
        )
    return matrix
