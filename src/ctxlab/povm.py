"""POVMs over a system space and the statistics of context selection.

Every element is a stack of signed factor columns, E = F diag(s) F^dagger: a rank-1
element is one column of sign +1, its row of amplitudes. A row the library derives
(from a dilation, a merge or a Hardy embedding) carries ``fix_phase``'s canonical
phase; ``Povm(...)``, and so a loaded file, keeps the phases it is given. An
element's largest eigenvalue is the probability that the environment selects its
measurement context.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from .errors import UnknownLabelError, ValidationError
from .hilbert import (
    DEFAULT_TOL,
    ByValue,
    amplitudes,
    density_matrix,
    entries,
    finite,
    fix_phase,
    require_hermitian,
)


class _LabelIndex(dict):
    def __missing__(self, label: str) -> int:
        raise UnknownLabelError(f"no outcome labelled {label!r}")


def _is_integer(value: object) -> bool:
    """An ``int`` or a numpy integer, but not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_space_dims(dims: Sequence[object]) -> None:
    """Raise ``space-dim`` unless each factor of a space is an integer of at least 1."""
    if not all(_is_integer(n) and n >= 1 for n in dims):
        raise ValidationError("space dimension must be a positive integer", invariant="space-dim")


@dataclass(frozen=True, eq=False, init=False, repr=False)
class LabelledStack(ByValue):
    """Labels, each naming one entry of the read-only complex stack a subclass stores as
    a field. Fields compare by value and show in repr unless they say otherwise;
    ``_nonempty`` is the message for no labels. Instances are immutable."""

    _index: dict[str, int] = field(repr=False)
    _nonempty: ClassVar[str]

    def _store(self, labels: Sequence[str], dims: tuple[int, ...], **values: object) -> None:
        """Check that each factor of the space, in ``dims``, is an integer of at least 1
        (``space-dim``), then that the labels are strings, then unique, then that there is
        one, and set the fields. Looking up an absent label in ``_index`` raises
        UnknownLabelError."""
        require_space_dims(dims)
        if not all(isinstance(label, str) for label in labels):
            raise ValidationError("outcome labels must be strings", invariant="string-labels")
        index = _LabelIndex((label, i) for i, label in enumerate(labels))
        if len(index) != len(labels):
            raise ValidationError("outcome labels must be unique", invariant="unique-labels")
        if not len(labels):
            raise ValidationError(self._nonempty, invariant="nonempty")
        self.__dict__.update(values, _index=index)

    def _rows(self, vectors: object, dim: int) -> np.ndarray:
        """``vectors`` as the read-only ``(len(self), dim)`` copy ``amplitudes`` makes."""
        return amplitudes(vectors, (len(self), dim), f"for {len(self)} labels of dim {dim}")

    def labels(self) -> tuple[str, ...]:
        return tuple(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        shown = "".join(f", {f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
        return f"{type(self).__name__}(labels={self.labels()!r}{shown})"


def _factor(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(d, k)`` columns and ``(k,)`` signs of a Hermitian matrix:
    per ``eigh`` pair (w, v), largest w first, ``fix_phase(v)`` times sqrt|w|, signed as w,
    except where |w| <= d * eps * max|w|, round-off. Entries beyond 1 are first scaled down
    to 1, so that no eigenvalue overflows."""
    scale = max(float(np.abs(matrix).max()), 1.0)
    values, vectors = np.linalg.eigh(matrix / scale)
    values, vectors = values[::-1], vectors[:, ::-1]
    size = np.abs(values)
    keep = ~(size <= len(size) * np.finfo(float).eps * size.max())  # a NaN keeps its column
    columns = fix_phase(vectors[:, keep].T) * (np.sqrt(size[keep]) * np.sqrt(scale))[:, None]
    return columns.T, np.where(values[keep] < 0.0, -1.0, 1.0)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Povm(LabelledStack):
    """An ordered, labelled POVM on a system space, not checked for completeness
    (``validate_povm`` checks it). Element m is F_m diag(s_m) F_m^dagger, with F_m
    read-only in the ``(M, system_dim, r)`` ``factors``, zero columns padding each
    element to the widest, and its signs +-1 in the ``(M, r)`` ``signs``. One element's
    columns are orthogonal, largest eigenvalue first: their signed squared norms.
    ``operators`` keeps, read-only by position, the matrix each element not a row was
    factored from; ``vectors`` and ``eigenvalues`` are read-only views of the stack."""

    system_dim: int
    factors: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)
    operators: Mapping[int, np.ndarray] = field(repr=False)
    _nonempty = "a POVM needs at least one element"

    def __init__(
        self,
        system_dim: int,
        labels: Sequence[str],
        vectors: np.ndarray,
        operators: Mapping[int, np.ndarray] | None = None,
        tol: float = DEFAULT_TOL,
    ) -> None:
        """Each row of a copy of an ``(M, system_dim)`` stack is one column of sign +1, bit
        for bit, except at the positions ``operators`` maps to matrices, whose rows are
        zero: each matrix, kept as given if Hermitian in value, else as m/2 + m^dagger/2, is
        factored by ``_factor``; one of a single positive eigenvalue becomes a row.

        Raises ``space-dim`` for a ``system_dim`` not an integer of at least 1, ``nonempty``
        or ``unique-labels`` for empty or repeated labels, ``finite-amplitudes`` or
        ``finite-entries`` for non-finite values, ``SpaceMismatchError`` for a stack not
        ``(len(labels), system_dim)`` or a matrix not ``(system_dim, system_dim)``,
        ``element-payload`` for a key not a position (a ``bool`` is not) or a nonzero row at
        an operator's position, and ``hermiticity`` for an operator not Hermitian within tol.
        """
        self._store(labels, (system_dim,), system_dim=system_dim)
        rows = self._rows(vectors, system_dim)
        factors, signs, matrices = rows[:, :, None], np.ones((len(rows), 1)), {}
        for k, op in dict(operators or {}).items():
            if not _is_integer(k) or not 0 <= k < len(labels):
                problem = f"operator position {k!r} is not one of the {len(labels)} positions"
                raise ValidationError(problem, invariant="element-payload")
            op = entries(op, system_dim, f"for element {labels[k]!r} of dim {system_dim}")
            if rows[k].any():
                problem = f"operator element {labels[k]!r} has a nonzero row"
                raise ValidationError(problem, invariant="element-payload")
            op = require_hermitian(op, tol, f"element {labels[k]!r}")
            if not np.array_equal(op, op.conj().T):
                op = op / 2 + op.conj().T / 2
                op.setflags(write=False)
            matrices[int(k)] = op
        if matrices:
            parts = {k: _factor(op) for k, op in matrices.items()}
            width = max([1, *(len(sign) for _, sign in parts.values())])
            factors, signs = np.zeros((*rows.shape, width), complex), np.ones((len(rows), width))
            factors[:, :, 0] = rows
            for k, (columns, sign) in parts.items():
                factors[k, :, : len(sign)], signs[k, : len(sign)] = columns, sign
        for array in (factors, signs):
            array.setflags(write=False)
        self.__dict__.update(factors=factors, signs=signs)
        kept = {k: matrices[k] for k in sorted(matrices) if not self._rank_one[k]}
        self.__dict__["operators"] = MappingProxyType(kept)

    @functools.cached_property
    def _rank_one(self) -> np.ndarray:
        """Which elements are one factor column of sign +1: the rows of ``vectors``."""
        return (self.signs[:, 0] > 0) & ~self.factors[:, :, 1:].any(axis=(1, 2))

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """Read-only ``(M, system_dim)`` rows: a rank-1 element's amplitudes, else zeros."""
        rows = np.where(self._rank_one[:, None], self.factors[:, :, 0], 0.0)
        rows.setflags(write=False)
        return rows

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Read-only ``(M, system_dim)`` eigenvalues, signed and unsorted: the columns' signed
        squared norms, each as ``np.vdot`` rounds it, then a 0 for each dimension of the null
        space. Overflow is left to the rules' finite checks."""
        columns = self.factors.transpose(0, 2, 1).reshape(-1, self.system_dim)
        with np.errstate(over="ignore", invalid="ignore"):
            norms = (columns.conj()[:, None, :] @ columns[:, :, None]).real
        null = np.zeros((len(self), self.system_dim - self.signs.shape[1]))
        values = np.concatenate([self.signs * norms.reshape(self.signs.shape), null], axis=1)
        values.setflags(write=False)
        return values

    @functools.cached_property
    def _directions(self) -> np.ndarray:
        """Read-only ``(M, system_dim, r)`` factor columns over their ``np.linalg.norm`` norms,
        each reduced as a contiguous row, zero columns kept zero; overflow left to the rules."""
        columns = self.factors.transpose(0, 2, 1).copy()
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(columns, axis=2, keepdims=True)
            units = (columns / np.where(norms > 0.0, norms, 1.0)).transpose(0, 2, 1)
        units.setflags(write=False)
        return units

    def _row(self, label: str, tol: float) -> np.ndarray:
        """The read-only unit direction of an element stored as a row: ``rank-one`` unless it
        is one column of sign +1, then ``nonzero-element`` unless its weight exceeds tol."""
        k = self._index[label]
        if not self._rank_one[k]:
            raise ValidationError(f"element {label!r} is not rank one", invariant="rank-one")
        require_context_weight(self, label, tol)
        return self._directions[k, :, 0]


def _element_matrices(p: Povm, positions: np.ndarray) -> np.ndarray:
    """The ``(K, d, d)`` matrices of the elements at ``positions``: the signed outer
    products of their columns added in order, so a row's is its outer product exactly."""
    factors = p.factors[positions]
    signed = np.where(p.signs[positions][:, None, :] < 0, -factors, factors)
    products = signed[:, :, None, :] * factors.conj()[:, None, :, :]
    return products[..., 0] if products.shape[-1] == 1 else products.sum(axis=-1)


# each element's largest eigenvalue, its context-selection probability, from eigenvalues
_weights = finite("an element weight is")(operator.methodcaller("max", axis=1))


@finite("the completeness residual is")
def completeness_check(p: Povm) -> float:
    """Max-entry residual of (sum of elements) - identity."""
    total = _element_matrices(p, np.arange(len(p))).sum(axis=0)
    return float(np.abs(total - np.eye(p.system_dim)).max())


@finite("the element bound residual is")
def element_bound_residual(p: Povm) -> float:
    """How far the worst element's eigenvalues leave [0, 1], once the weights pass their
    finite rule: 0.0, never -0.0 (``0.0 - low``), when none do, and NaN kept (``np.max``)."""
    return float(np.max([0.0, _weights(p.eigenvalues).max() - 1.0, 0.0 - p.eigenvalues.min()]))


def validate_povm(p: Povm, tol: float = DEFAULT_TOL) -> None:
    """Raise unless the POVM is complete with well-bounded elements."""
    bound = element_bound_residual(p)
    if bound > tol:
        problem = f"element eigenvalues leave [0, 1] (residual {bound:.3e})"
        raise ValidationError(problem, invariant="element-bounds")
    residual = completeness_check(p)
    if residual > tol:
        problem = f"POVM does not sum to identity (residual {residual:.3e})"
        raise ValidationError(problem, invariant="completeness")


def probability(p: Povm, state: np.ndarray, label: str, tol: float = DEFAULT_TOL) -> float:
    """Outcome probability tr(E rho), the sum of s <f|rho|f> over the element's columns,
    each as ``np.vdot`` rounds it, at a ket or density matrix ``density_matrix`` checks."""
    k = p._index[label]
    rho = density_matrix(state, p.system_dim, tol)
    value = float(sum(s * np.vdot(f, rho @ f).real for f, s in zip(p.factors[k].T, p.signs[k])))
    if value < -tol:
        raise ValidationError(f"negative probability {value!r}", invariant="positivity")
    return value


def context_selection_probability(p: Povm, label: str) -> float:
    """Probability that the environment selects this outcome's context: the element's
    largest eigenvalue, the supremum of its probability over states, a row's squared
    norm. Raises FloatingPointError when the weight is not finite."""
    return float(_weights(p.eigenvalues[[p._index[label]]])[0])


def require_context_weight(p: Povm, label: str, tol: float) -> float:
    """``context_selection_probability``, raising ``nonzero-element`` at or below tol."""
    weight = context_selection_probability(p, label)
    if weight <= tol:
        raise ValidationError(f"element {label!r} has zero weight", invariant="nonzero-element")
    return weight


def maximizing_state(p: Povm, label: str, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The density matrix of the pure state along the unit row of an element stored as a row
    (else ``rank-one``, then ``nonzero-element``), which attains its maximal probability."""
    return density_matrix(p._row(label, tol), p.system_dim, tol)


def rescaled_probability(
    p: Povm, state: np.ndarray, label: str, tol: float = DEFAULT_TOL
) -> float:
    """Outcome probability divided by its context-selection probability."""
    weight = require_context_weight(p, label, tol)
    return probability(p, state, label, tol) / weight


@dataclass(frozen=True)
class ContextGraph:
    """Outcome labels as nodes, context-sharing pairs as witnessed edges."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]
    skipped: tuple[str, ...]

    def has_edge(self, a: str, b: str) -> bool:
        return any({a, b} == {x, y} for x, y, _ in self.edges)


def context_graph(p: Povm, tol: float = DEFAULT_TOL) -> ContextGraph:
    """Pairwise context-sharing structure, zero-weight outcomes skipped. Two rows share a
    context iff their witness |<unit row|unit row>|, or their angle's sine, one unit row's
    residual off the other, is at most tol. Any other pair shares one iff the support
    projectors, of the columns of signed norm above tol, commute: the witness is the 2-norm
    of their commutator."""
    labels = p.labels()
    weights = _weights(p.eigenvalues)
    live = np.flatnonzero(weights > tol)
    nodes = tuple(labels[k] for k in live)
    is_vector = p._rank_one[live]
    both_vectors = np.outer(is_vector, is_vector)
    witness = np.zeros(both_vectors.shape)
    units = p._directions[live[is_vector], :, 0]
    witness[np.ix_(is_vector, is_vector)] = np.abs(units.conj() @ units.T)
    if not is_vector.all():
        bases = p._directions[live] * (p.eigenvalues[live, : p.factors.shape[2]] > tol)[:, None]
        supports = bases @ bases.conj().transpose(0, 2, 1)
        i, j = np.nonzero(np.triu(~both_vectors, 1))
        commutators = supports[i] @ supports[j] - supports[j] @ supports[i]
        witness[i, j] = witness[j, i] = np.linalg.norm(commutators, 2, axis=(1, 2))
    shared = np.triu((witness <= tol) | both_vectors & (witness >= 1.0 - tol), 1)
    i, j = np.nonzero(shared & (witness > tol))
    if len(i):  # proportional candidates: the sine is the norm of x's residual off y
        x, y = p._directions[live[i], :, 0], p._directions[live[j], :, 0]
        sines = np.linalg.norm(x - np.einsum("kd,kd->k", y.conj(), x)[:, None] * y, axis=1)
        shared[i, j] = sines <= tol
    i, j = np.nonzero(shared)
    a, b = (map(nodes.__getitem__, k.tolist()) for k in (i, j))
    edges = tuple(zip(a, b, witness[i, j].tolist()))
    return ContextGraph(nodes, edges, tuple(labels[k] for k in np.flatnonzero(weights <= tol)))


def coarse_grain(p: Povm, labels_to_merge: Sequence[str], new_label: str) -> Povm:
    """Replace a group of outcomes by their sum, at the first one's position, in a new
    ``Povm`` of the other rows and matrices: no eigenvalue beyond round-off is dropped,
    and a sum with one positive eigenvalue is a row with the canonical phase."""
    merge = [str(label) for label in labels_to_merge]
    if not merge:
        raise ValidationError("nothing to merge", invariant="nonempty")
    if len(set(merge)) < len(merge):
        raise ValidationError("labels to merge must be unique", invariant="unique-labels")
    positions = np.array([p._index[label] for label in merge])
    merged = _element_matrices(p, positions).sum(axis=0)
    at, drop, labels = positions.min(), set(positions.tolist()), p.labels()
    order = [k for k in range(len(p)) if k == at or k not in drop]  # at stays at index at
    names = [new_label if k == at else labels[k] for k in order]
    rows = p.vectors[order]
    rows[at] = 0.0
    kept = {order.index(k): op for k, op in p.operators.items() if k in order}
    return Povm(p.system_dim, names, rows, {**kept, at: merged})
