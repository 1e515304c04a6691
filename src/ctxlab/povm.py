"""POVMs over a system space and the statistics of context selection.

Rank-1 elements are stored as system-space vectors with a canonical global
phase (largest-magnitude amplitude real positive); coarse-grained elements may
be full operators. An element's squared norm is both its completeness weight
and the probability that the environment selects its measurement context.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import SpaceMismatchError, UnknownLabelError, ValidationError
from .hilbert import DEFAULT_TOL, SYSTEM, Ket, Operator, Space, fix_phase, require_basis


class _LabelIndex(dict):
    def __missing__(self, label: str) -> int:
        raise UnknownLabelError(f"no outcome labelled {label!r}")


def label_index(labels: Sequence[str]) -> dict[str, int]:
    """Position of each label; looking up an absent label raises UnknownLabelError.

    Raises ``unique-labels`` if a label repeats.
    """
    index = _LabelIndex((label, i) for i, label in enumerate(labels))
    if len(index) != len(labels):
        raise ValidationError("outcome labels must be unique", invariant="unique-labels")
    return index


@dataclass(frozen=True)
class PovmElement:
    """One labelled POVM element: a system vector or a positive operator."""

    label: str
    vector: Ket | None = None
    operator: Operator | None = None
    tol: float = field(default=DEFAULT_TOL, compare=False, repr=False)

    def __post_init__(self) -> None:
        if (self.vector is None) == (self.operator is None):
            raise ValidationError(
                f"element {self.label!r} needs exactly one of vector/operator",
                invariant="element-payload",
            )
        payload = self.vector if self.vector is not None else self.operator
        if payload.space.kind != SYSTEM:
            raise SpaceMismatchError(f"element {self.label!r} must live on a system space")
        if self.operator is not None and not self.operator.is_hermitian(self.tol):
            raise ValidationError(
                f"element {self.label!r} is not Hermitian", invariant="hermiticity"
            )

    @property
    def is_vector(self) -> bool:
        return self.vector is not None

    @property
    def dim(self) -> int:
        payload = self.vector if self.vector is not None else self.operator
        return payload.space.dim

    def weight(self) -> float:
        """<lambda|lambda> for vectors, the trace for operators."""
        if self.vector is not None:
            return self.vector.norm_sq()
        return float(self.operator.trace().real)

    def matrix(self) -> np.ndarray:
        """The element as a dense positive operator."""
        if self.vector is not None:
            return self.vector.projector()
        return np.array(self.operator.entries)


@dataclass(frozen=True)
class Povm:
    """An ordered, labelled POVM on a system space.

    Construction does not enforce completeness, so partial collections can be
    inspected; ``completeness_check`` reports the residual and
    ``validate_povm`` raises on violations.
    """

    system_dim: int
    elements: tuple[PovmElement, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValidationError("a POVM needs at least one element", invariant="nonempty")
        object.__setattr__(self, "_index", label_index(self.labels()))
        for el in self.elements:
            if el.dim != self.system_dim:
                raise SpaceMismatchError(
                    f"element {el.label!r} has dim {el.dim}, POVM has {self.system_dim}"
                )

    @classmethod
    def from_vectors(
        cls,
        labelled_vectors: Sequence[tuple[str, Ket | np.ndarray]],
        system_dim: int | None = None,
    ) -> Povm:
        """Build a rank-1 POVM, canonicalising each vector's global phase."""
        elements = []
        for label, vec in labelled_vectors:
            amps = vec.amplitudes if isinstance(vec, Ket) else vec
            amps = fix_phase(np.asarray(amps, dtype=complex))
            if system_dim is None:
                system_dim = amps.shape[0]
            elements.append(PovmElement(str(label), vector=Ket(Space.system(system_dim), amps)))
        if system_dim is None:
            raise ValidationError("a POVM needs at least one element", invariant="nonempty")
        return cls(system_dim, tuple(elements))

    def labels(self) -> tuple[str, ...]:
        return tuple(el.label for el in self.elements)

    def element(self, label: str) -> PovmElement:
        return self.elements[self._index[label]]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class DensityMatrix:
    """A positive, unit-trace system operator used as an input state."""

    op: Operator
    tol: float = field(default=DEFAULT_TOL, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.op.space.kind != SYSTEM:
            raise SpaceMismatchError("density matrices live on system spaces")
        if not self.op.is_hermitian(self.tol):
            raise ValidationError("density matrix is not Hermitian", invariant="hermiticity")
        low = float(np.linalg.eigvalsh(self.op.entries)[0])
        if low < -self.tol:
            raise ValidationError(
                f"density matrix has eigenvalue {low:.3e} < 0", invariant="positivity"
            )
        tr = self.op.trace().real
        if abs(tr - 1.0) > self.tol:
            raise ValidationError(f"trace {tr!r} != 1", invariant="unit-trace")

    @classmethod
    def from_ket(cls, psi: Ket, tol: float = DEFAULT_TOL) -> DensityMatrix:
        if not psi.is_normalized(tol):
            raise ValidationError(
                "pure states must be normalised", invariant="state-normalisation"
            )
        return cls(Operator(psi.space, psi.projector()), tol)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> DensityMatrix:
        mat = np.asarray(matrix, dtype=complex)
        return cls(Operator(Space.system(mat.shape[0]), mat))

    @property
    def matrix(self) -> np.ndarray:
        return self.op.entries

    @property
    def dim(self) -> int:
        return self.op.space.dim


def completeness_check(p: Povm) -> float:
    """Max-entry residual of (sum of elements) - identity."""
    total = np.zeros((p.system_dim, p.system_dim), dtype=complex)
    for el in p.elements:
        total += el.matrix()
    return float(np.abs(total - np.eye(p.system_dim)).max())


def element_bound_residual(p: Povm) -> float:
    """How far the worst element's eigenvalues leave [0, 1]; 0 when none do."""
    worst = 0.0
    for el in p.elements:
        if el.is_vector:
            worst = max(worst, el.weight() - 1.0)
        else:
            eigs = np.linalg.eigvalsh(el.operator.entries)
            worst = max(worst, float(-eigs[0]), float(eigs[-1] - 1.0))
    return worst


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


def probability(
    p: Povm, state: Ket | DensityMatrix, label: str, tol: float = DEFAULT_TOL
) -> float:
    """Outcome probability <lambda|rho|lambda> (vector) or tr(E rho) (operator)."""
    el = p.element(label)
    if isinstance(state, Ket):
        state = DensityMatrix.from_ket(state, tol)
    if state.dim != p.system_dim:
        raise SpaceMismatchError(f"state dim {state.dim} != system dim {p.system_dim}")
    if el.is_vector:
        amps = el.vector.amplitudes
        value = float(np.vdot(amps, state.matrix @ amps).real)
    else:
        value = float(np.trace(el.operator.entries @ state.matrix).real)
    if value < -tol:
        raise ValidationError(f"negative probability {value!r}", invariant="positivity")
    return value


def context_selection_probability(p: Povm, label: str) -> float:
    """Probability that the environment selects this outcome's context.

    For a vector element this is its squared norm; for an operator element it
    is the largest eigenvalue, the supremum of the outcome probability over
    states (an extension that reduces to the trace on rank-1 operators).
    """
    el = p.element(label)
    if el.is_vector:
        return el.weight()
    return float(np.linalg.eigvalsh(el.operator.entries)[-1])


def require_context_weight(p: Povm, label: str, tol: float) -> float:
    """``context_selection_probability``, raising ``nonzero-element`` at or below tol."""
    weight = context_selection_probability(p, label)
    if weight <= tol:
        raise ValidationError(f"element {label!r} has zero weight", invariant="nonzero-element")
    return weight


def maximizing_state(p: Povm, label: str, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """The pure state attaining the outcome's maximal probability."""
    el = p.element(label)
    require_context_weight(p, label, tol)
    if el.is_vector:
        return DensityMatrix.from_ket(el.vector.normalized(tol), tol)
    values, vectors = np.linalg.eigh(el.operator.entries)
    if values.shape[0] > 1 and values[-2] > tol:
        raise ValidationError(
            f"element {label!r} is not rank one", invariant="rank-one"
        )
    top = Ket(Space.system(p.system_dim), fix_phase(vectors[:, -1]))
    return DensityMatrix.from_ket(top.normalized(tol), tol)


def rescaled_probability(
    p: Povm, state: Ket | DensityMatrix, label: str, tol: float = DEFAULT_TOL
) -> float:
    """Outcome probability divided by its context-selection probability."""
    weight = require_context_weight(p, label, tol)
    return probability(p, state, label, tol) / weight


@dataclass(frozen=True)
class ContextRelation:
    """Result of a pairwise context test with the tested magnitude as witness."""

    shared: bool
    witness: float
    test: str
    proportional: bool = False


def _support_projector(el: PovmElement, tol: float) -> np.ndarray:
    values, vectors = np.linalg.eigh(el.matrix())
    cols = vectors[:, values > tol]
    return cols @ cols.conj().T


def _context_relations(elements: Sequence[PovmElement], tol: float) -> tuple[np.ndarray, ...]:
    """Witness, shared and proportional matrices of the rule in ``share_context``.

    All rank-1 pairs come from one Gram matrix of the unit rows,
    |G_ij| / sqrt(w_i w_j); only pairs involving an operator element take a
    support-projector commutator.
    """
    is_vector = np.array([el.is_vector for el in elements], dtype=bool)
    both_vectors = np.outer(is_vector, is_vector)
    witness = np.zeros(both_vectors.shape)
    if is_vector.any():
        rows = np.stack([el.vector.amplitudes for el in elements if el.is_vector])
        units = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        witness[np.ix_(is_vector, is_vector)] = np.abs(units.conj() @ units.T)
    if not is_vector.all():
        projectors = [_support_projector(el, tol) for el in elements]
        for i, j in np.argwhere(np.triu(~both_vectors, 1)):
            commutator = projectors[i] @ projectors[j] - projectors[j] @ projectors[i]
            witness[i, j] = witness[j, i] = np.linalg.norm(commutator, 2)
    proportional = both_vectors & (witness >= 1.0 - tol)
    return witness, (witness <= tol) | proportional, proportional


def share_context(p: Povm, label1: str, label2: str, tol: float = DEFAULT_TOL) -> ContextRelation:
    """Whether two outcomes can belong to one measurement context.

    Rank-1 pairs share a context iff their normalised inner-product magnitude
    is 0 (orthogonal) or 1 (proportional, flagged) within tol. Pairs involving
    operator elements share a context iff their support projectors commute;
    the witness is then the spectral norm of the commutator.
    """
    pair = (p.element(label1), p.element(label2))
    for el in pair:
        require_context_weight(p, el.label, tol)
    witness, shared, proportional = _context_relations(pair, tol)
    return ContextRelation(
        shared=bool(shared[0, 1]),
        witness=float(witness[0, 1]),
        test="inner-product" if pair[0].is_vector and pair[1].is_vector else "commutator",
        proportional=bool(proportional[0, 1]),
    )


@dataclass(frozen=True)
class ContextGraph:
    """Outcome labels as nodes, context-sharing pairs as witnessed edges."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]
    skipped: tuple[str, ...]

    def has_edge(self, a: str, b: str) -> bool:
        return any({a, b} == {x, y} for x, y, _ in self.edges)

    def degree(self, label: str) -> int:
        return sum(1 for x, y, _ in self.edges if label in (x, y))

    def to_dot(self) -> str:
        """Render as Graphviz DOT with the tested magnitude as an edge attribute."""
        lines = ["graph contexts {"]
        for node in self.nodes:
            lines.append(f'  "{node}";')
        for a, b, witness in self.edges:
            lines.append(f'  "{a}" -- "{b}" [witness="{witness:.12g}"];')
        lines.append("}")
        return "\n".join(lines)


def context_graph(p: Povm, tol: float = DEFAULT_TOL) -> ContextGraph:
    """Pairwise context-sharing structure; zero-weight outcomes are skipped."""
    live = [context_selection_probability(p, el.label) > tol for el in p.elements]
    nodes = [el for el, keep in zip(p.elements, live) if keep]
    skipped = tuple(el.label for el, keep in zip(p.elements, live) if not keep)
    witness, shared, _ = _context_relations(nodes, tol)
    edges = tuple(
        (nodes[i].label, nodes[j].label, float(witness[i, j]))
        for i, j in zip(*np.nonzero(np.triu(shared, 1)))
    )
    return ContextGraph(tuple(el.label for el in nodes), edges, skipped)


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
    total = np.zeros((p.system_dim, p.system_dim), dtype=complex)
    for label in merge:
        total += p.element(label).matrix()

    space = Space.system(p.system_dim)
    values, vectors = np.linalg.eigh(total)
    if values.shape[0] == 1 or values[-2] <= tol:
        amps = np.sqrt(max(values[-1], 0.0)) * fix_phase(vectors[:, -1])
        merged = PovmElement(new_label, vector=Ket(space, amps))
    else:
        merged = PovmElement(new_label, operator=Operator(space, total), tol=tol)

    merge_set = set(merge)
    elements: list[PovmElement] = []
    placed = False
    for el in p.elements:
        if el.label in merge_set:
            if not placed:
                elements.append(merged)
                placed = True
            continue
        elements.append(el)
    return Povm(p.system_dim, tuple(elements))


def basis_mixture_povm(
    bases: Sequence[Sequence[Ket]],
    weights: Sequence[float],
    labels: Sequence[Sequence[str]] | None = None,
    tol: float = DEFAULT_TOL,
) -> Povm:
    """One POVM for a random choice among projective bases.

    Parameters
    ----------
    bases : sequence of orthonormal complete system bases
        Each inner sequence must hold ``dim`` mutually orthonormal kets.
    weights : probability vector
        P(basis), nonnegative and summing to one within tol.
    labels : optional per-(basis, outcome) labels
        Defaults to ``"x:a"`` index pairs.

    Returns
    -------
    Povm
        Elements ``sqrt(P(x)) |a_x>``; complete by construction.
    """
    if len(bases) == 0:
        raise ValidationError("at least one basis is required", invariant="nonempty")
    if len(weights) != len(bases):
        raise ValidationError("one weight per basis is required", invariant="weights")
    w = np.asarray(weights, dtype=float)
    if np.any(w < -tol):
        raise ValidationError("weights must be nonnegative", invariant="weights")
    if abs(w.sum() - 1.0) > tol:
        raise ValidationError(f"weights sum to {w.sum()!r} != 1", invariant="weights")

    dim = bases[0][0].space.dim
    pairs: list[tuple[str, Ket]] = []
    for x, basis in enumerate(bases):
        require_basis(basis, dim, tol, f"basis {x}")
        scale = np.sqrt(max(float(w[x]), 0.0))
        for a, ket in enumerate(basis):
            label = labels[x][a] if labels is not None else f"{x}:{a}"
            pairs.append((label, scale * ket))
    return Povm.from_vectors(pairs, system_dim=dim)
