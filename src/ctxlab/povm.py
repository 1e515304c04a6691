"""POVMs over a system space and the statistics of context selection.

Rank-1 elements are stored as system-space vectors, coarse-grained elements
possibly as full operators. A rank-1 row the library derives (from a dilation,
a merge or a Hardy embedding) carries ``fix_phase``'s canonical global phase;
``Povm(...)``, and so a loaded file, keeps the phases it is given. An element's
squared norm is both its completeness weight and the probability that the
environment selects its measurement context.
"""

from __future__ import annotations

import functools
import math
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
    unit_vector,
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
    """Labels plus ``vectors``, one read-only complex row per label, as the storage.

    Subclasses declare their other stored attributes as fields, compared by value and
    shown by repr beside the labels unless a field says otherwise, and name in
    ``_nonempty`` the message for an empty label list. Instances are immutable.
    """

    vectors: np.ndarray = field(repr=False)
    _index: dict[str, int] = field(repr=False)
    _nonempty: ClassVar[str]

    def _store(
        self, labels: Sequence[str], vectors: np.ndarray, dims: tuple[int, ...], **values: object
    ) -> None:
        """Check that each factor of the space, in ``dims``, is an integer of at least 1
        (``space-dim``), then that the labels are strings, then unique, then that there is
        one, take ``vectors`` as the read-only ``(len(labels), dim)`` copy ``amplitudes``
        makes, dim the product of ``dims``, and set the fields. The stack is a copy, so no
        later write to the caller's array reaches it.

        Looking up an absent label in ``_index`` raises UnknownLabelError.
        """
        require_space_dims(dims)
        dim = math.prod(dims)
        if not all(isinstance(label, str) for label in labels):
            raise ValidationError("outcome labels must be strings", invariant="string-labels")
        index = _LabelIndex((label, i) for i, label in enumerate(labels))
        if len(index) != len(labels):
            raise ValidationError("outcome labels must be unique", invariant="unique-labels")
        if not len(labels):
            raise ValidationError(self._nonempty, invariant="nonempty")
        rows = amplitudes(vectors, (len(labels), dim), f"for {len(labels)} labels of dim {dim}")
        self.__dict__.update(values, vectors=rows, _index=index)

    def labels(self) -> tuple[str, ...]:
        return tuple(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        shown = "".join(f", {f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
        return f"{type(self).__name__}(labels={self.labels()!r}{shown})"


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Povm(LabelledStack):
    """An ordered, labelled POVM on a system space.

    Construction does not enforce completeness, so partial collections can be
    inspected; ``completeness_check`` reports the residual and
    ``validate_povm`` raises on violations. ``vectors`` holds the amplitudes
    of each rank-1 element and zeros for each operator element, whose
    read-only Hermitian ``(system_dim, system_dim)`` matrix is kept in ``operators``.
    """

    system_dim: int
    _operators: dict[int, np.ndarray]
    _nonempty = "a POVM needs at least one element"

    def __init__(
        self,
        system_dim: int,
        labels: Sequence[str],
        vectors: np.ndarray,
        operators: Mapping[int, np.ndarray] | None = None,
        tol: float = DEFAULT_TOL,
    ) -> None:
        """A POVM over a copy of an ``(M, system_dim)`` complex stack.

        ``operators`` maps the positions of operator elements, whose rows are
        zero, to their matrices, each stored as a read-only complex copy. Raises
        ``space-dim`` for a ``system_dim`` that is not an integer of at least 1,
        ``nonempty`` or ``unique-labels`` for empty or repeated labels,
        ``finite-amplitudes`` or ``finite-entries`` for non-finite values,
        ``SpaceMismatchError`` for a stack that is not ``(len(labels),
        system_dim)`` or a matrix that is not ``(system_dim, system_dim)``,
        ``element-payload`` for a key that is not a position (a ``bool`` is not)
        or a nonzero row at an operator's position, and ``hermiticity`` for an
        operator that is not Hermitian within tol.
        """
        operators = dict(operators or {})
        self._store(labels, vectors, (system_dim,), system_dim=system_dim, _operators=operators)
        for k, op in operators.items():
            if not _is_integer(k) or not 0 <= k < len(labels):
                problem = f"operator position {k!r} is not one of the {len(labels)} positions"
                raise ValidationError(problem, invariant="element-payload")
            what = f"for element {labels[k]!r} of dim {system_dim}"
            operators[k] = op = entries(op, system_dim, what)
            if self.vectors[k].any():
                problem = f"operator element {labels[k]!r} has a nonzero row"
                raise ValidationError(problem, invariant="element-payload")
            require_hermitian(op, tol, f"element {labels[k]!r}")

    @property
    def operators(self) -> Mapping[int, np.ndarray]:
        """The operator elements by position; every other element is rank one."""
        return MappingProxyType(self._operators)

    @functools.cached_property
    def _is_vector(self) -> np.ndarray:
        is_vector = np.ones(len(self), dtype=bool)
        is_vector[list(self._operators)] = False
        is_vector.setflags(write=False)
        return is_vector


def _element_matrices(p: Povm, positions: np.ndarray) -> np.ndarray:
    """The elements at ``positions`` as a ``(K, d, d)`` stack of dense matrices."""
    rows = p.vectors[positions]
    stack = rows[:, :, None] * rows.conj()[:, None, :]
    for k in np.flatnonzero(~p._is_vector[positions]):
        stack[k] = p._operators[positions[k]]
    return stack


@finite("an element weight is")
def _selection_weights(p: Povm, positions: np.ndarray, bottoms=None) -> np.ndarray:
    """``context_selection_probability`` of the elements at ``positions``; rank-1 weights
    round as ``np.vdot``. The ``eigvalsh`` that weighs an operator element also writes its
    lowest eigenvalue at the element's index in ``bottoms``, when given."""
    rows = p.vectors[positions]
    weights = (rows.conj()[:, None, :] @ rows[:, :, None])[:, 0, 0].real
    lows = np.zeros(len(positions)) if bottoms is None else bottoms
    for i in np.flatnonzero(~p._is_vector[positions]):
        lows[i], weights[i] = np.linalg.eigvalsh(p._operators[positions[i]])[[0, -1]]
    return weights


@finite("the completeness residual is")
def completeness_check(p: Povm) -> float:
    """Max-entry residual of (sum of elements) - identity."""
    total = _element_matrices(p, np.arange(len(p))).sum(axis=0)
    return float(np.abs(total - np.eye(p.system_dim)).max())


@finite("the element bound residual is")
def element_bound_residual(p: Povm) -> float:
    """How far the worst element's eigenvalues leave [0, 1]; 0.0, never -0.0, when none
    do. ``np.max`` keeps a NaN lowest eigenvalue, which Python's ``max`` would drop unless
    first, and ``0.0 - low`` is +0.0 at a lowest eigenvalue of zero, where ``-low`` is not."""
    bottoms = np.zeros(len(p))  # no rank-1 element has a negative eigenvalue
    tops = _selection_weights(p, np.arange(len(p)), bottoms)
    return float(np.max([0.0, tops.max() - 1.0, 0.0 - bottoms.min()]))


def validate_povm(p: Povm, tol: float = DEFAULT_TOL) -> None:
    """Raise unless the POVM is complete with well-bounded elements."""
    bound = element_bound_residual(p)
    if bound > tol:
        raise ValidationError(
            f"element eigenvalues leave [0, 1] (residual {bound:.3e})",
            invariant="element-bounds",
        )
    residual = completeness_check(p)
    if residual > tol:
        raise ValidationError(
            f"POVM does not sum to identity (residual {residual:.3e})",
            invariant="completeness",
        )


def probability(p: Povm, state: np.ndarray, label: str, tol: float = DEFAULT_TOL) -> float:
    """Outcome probability <lambda|rho|lambda> (vector) or tr(E rho) (operator) at a
    ket or a density matrix, checked by ``density_matrix``."""
    k = p._index[label]
    rho = density_matrix(state, p.system_dim, tol)
    if p._is_vector[k]:
        value = float(np.vdot(p.vectors[k], rho @ p.vectors[k]).real)
    else:
        value = float(np.trace(p._operators[k] @ rho).real)
    if value < -tol:
        raise ValidationError(f"negative probability {value!r}", invariant="positivity")
    return value


def context_selection_probability(p: Povm, label: str) -> float:
    """Probability that the environment selects this outcome's context.

    For a vector element this is its squared norm; for an operator element it
    is the largest eigenvalue, the supremum of the outcome probability over
    states (an extension that reduces to the trace on rank-1 operators).
    Raises FloatingPointError when the weight is not finite.
    """
    return float(_selection_weights(p, np.array([p._index[label]]))[0])


def require_context_weight(p: Povm, label: str, tol: float) -> float:
    """``context_selection_probability``, raising ``nonzero-element`` at or below tol."""
    weight = context_selection_probability(p, label)
    if weight <= tol:
        raise ValidationError(f"element {label!r} has zero weight", invariant="nonzero-element")
    return weight


def maximizing_state(p: Povm, label: str, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The density matrix of the pure state attaining the outcome's maximal probability."""
    k = p._index[label]
    require_context_weight(p, label, tol)
    if p._is_vector[k]:
        row = p.vectors[k]
    else:
        values, vectors = np.linalg.eigh(p._operators[k])
        if values.shape[0] > 1 and values[-2] > tol:
            raise ValidationError(
                f"element {label!r} is not rank one", invariant="rank-one"
            )
        row = fix_phase(vectors[:, -1])
    return density_matrix(unit_vector(row, tol), p.system_dim, tol)


def rescaled_probability(
    p: Povm, state: np.ndarray, label: str, tol: float = DEFAULT_TOL
) -> float:
    """Outcome probability divided by its context-selection probability."""
    weight = require_context_weight(p, label, tol)
    return probability(p, state, label, tol) / weight


def _context_relations(p: Povm, positions: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """Witness and shared matrices of the pairs at ``positions``, which must name
    nonzero elements.

    Two rank-1 elements share a context iff their normalised inner-product
    magnitude, the witness, is 0 (orthogonal) or 1 (proportional)
    within tol: all such pairs come from one Gram matrix of the unit rows,
    |G_ij| / sqrt(w_i w_j). A pair involving an operator element shares one iff
    the support projectors commute; the witness is the spectral norm of the
    commutator, from one ``eigh`` of the element stack.
    """
    is_vector = p._is_vector[positions]
    both_vectors = np.outer(is_vector, is_vector)
    witness = np.zeros(both_vectors.shape)
    if is_vector.any():
        rows = p.vectors[positions[is_vector]]
        units = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        witness[np.ix_(is_vector, is_vector)] = np.abs(units.conj() @ units.T)
    if not is_vector.all():
        values, vectors = np.linalg.eigh(_element_matrices(p, positions))
        cols = [v[:, w > tol] for w, v in zip(values, vectors)]
        supports = np.array([c @ c.conj().T for c in cols])
        i, j = np.nonzero(np.triu(~both_vectors, 1))
        commutators = supports[i] @ supports[j] - supports[j] @ supports[i]
        witness[i, j] = witness[j, i] = np.linalg.norm(commutators, 2, axis=(1, 2))
    proportional = both_vectors & (witness >= 1.0 - tol)
    return witness, (witness <= tol) | proportional


@dataclass(frozen=True)
class ContextGraph:
    """Outcome labels as nodes, context-sharing pairs as witnessed edges."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]
    skipped: tuple[str, ...]

    def has_edge(self, a: str, b: str) -> bool:
        return any({a, b} == {x, y} for x, y, _ in self.edges)


def context_graph(p: Povm, tol: float = DEFAULT_TOL) -> ContextGraph:
    """Pairwise context-sharing structure; zero-weight outcomes are skipped.

    Rank-1 outcomes share a context iff their directions are orthogonal or
    proportional within tol, and outcomes involving an operator element iff
    their support projectors commute (``_context_relations``).
    """
    labels = p.labels()
    weights = _selection_weights(p, np.arange(len(p)))
    live = np.flatnonzero(weights > tol)
    nodes = tuple(labels[k] for k in live)
    witness, shared = _context_relations(p, live, tol)
    i, j = np.nonzero(np.triu(shared, 1))
    a, b = (map(nodes.__getitem__, k.tolist()) for k in (i, j))
    edges = tuple(zip(a, b, witness[i, j].tolist()))
    return ContextGraph(nodes, edges, tuple(labels[k] for k in np.flatnonzero(weights <= tol)))


def coarse_grain(
    p: Povm, labels_to_merge: Sequence[str], new_label: str, tol: float = DEFAULT_TOL
) -> Povm:
    """Replace a group of outcomes by their sum, kept rank-1 when possible.

    The merged element sits at the first merged label's position. If the sum
    is rank one within tol it is stored back as a scaled unit vector with the
    canonical phase, otherwise as an operator element.
    """
    merge = [str(label) for label in labels_to_merge]
    if not merge:
        raise ValidationError("nothing to merge", invariant="nonempty")
    if len(set(merge)) < len(merge):
        raise ValidationError("labels to merge must be unique", invariant="unique-labels")
    positions = np.array([p._index[label] for label in merge])
    total = _element_matrices(p, positions).sum(axis=0)

    operators = dict(p._operators)  # by old position; -1 is the merged element
    values, vectors = np.linalg.eigh(total)
    if values.shape[0] == 1 or values[-2] <= tol:
        row = np.sqrt(max(values[-1], 0.0)) * fix_phase(vectors[:, -1])
    else:
        row = np.zeros(p.system_dim, dtype=complex)
        operators[-1] = total

    drop = set(positions.tolist())
    labels = p.labels()
    order = [k for k in range(len(p)) if k not in drop]
    order.insert(min(drop), -1)  # nothing before the first merged element was dropped
    return Povm(
        p.system_dim,
        [new_label if k < 0 else labels[k] for k in order],
        np.array([row if k < 0 else p.vectors[k] for k in order]),
        {i: operators[k] for i, k in enumerate(order) if k in operators},
        tol,
    )
