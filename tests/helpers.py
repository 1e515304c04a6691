"""Shared randomised constructions and comparison helpers."""

from __future__ import annotations

import numpy as np

from ctxlab import JointOutcomeSet, Povm


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def random_rank1_povm(rng: np.random.Generator, dim: int, count: int) -> Povm:
    """A complete rank-1 POVM from the rows of a random isometry."""
    assert count >= dim
    columns = random_unitary(rng, count)[:, :dim]
    return Povm.from_vectors(dim, [f"m{m}" for m in range(count)], columns.conj())


def element_row(p: Povm, label: str) -> np.ndarray:
    """The row of the rank-1 element ``label``."""
    return p.vectors[p.labels().index(label)]


def outcome_row(s: JointOutcomeSet, label: str) -> np.ndarray:
    """The row of the outcome ``label``."""
    return s.vectors[s.labels().index(label)]


def norm_sq(ket: np.ndarray) -> float:
    """<v|v>."""
    return float(np.vdot(ket, ket).real)


def unit(ket: np.ndarray) -> np.ndarray:
    """v / ||v||."""
    return ket / np.linalg.norm(ket)


def phase_aligned_max_err(actual: np.ndarray, expected: np.ndarray) -> float:
    """Max entrywise error after aligning the free global phase."""
    a = np.asarray(actual, dtype=complex)
    e = np.asarray(expected, dtype=complex)
    overlap = np.vdot(e, a)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
    return float(np.abs(a - phase * e).max())
