"""Shared randomised constructions and comparison helpers."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from ctxlab import Dilation, Povm, encode_vector, fixture_path

# A number token of CLI output: an integer, a decimal or an exponent form, with its sign.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def write_raw(path: str | Path, raw: dict) -> None:
    """Write a hand-edited file dict as ``json.dumps(raw, indent=2)`` and a newline."""
    Path(path).write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")


def fixture_raw(name: str) -> dict:
    """A bundled scenario file as the dict ``json.loads`` reads from it, to hand-edit."""
    return json.loads(fixture_path(name).read_text(encoding="utf-8"))


def matrix_entry(matrix: np.ndarray) -> list[list[list[float]]]:
    """A matrix as a file's "matrix" entry holds it: each row as ``encode_vector`` writes it."""
    return [encode_vector(row) for row in np.asarray(matrix)]


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


def outcome_row(d: Dilation, label: str, rows: np.ndarray | None = None) -> np.ndarray:
    """The row of the outcome ``label`` in ``rows``, by default the dilation's own stack."""
    return (d.vectors if rows is None else rows)[d.labels().index(label)]


def with_phi_init(d: Dilation, phi_init: np.ndarray) -> Dilation:
    """The outcomes of ``d`` with another initial environment state."""
    return Dilation(d.env_dim, d.sys_dim, d.labels(), d.vectors, phi_init)


def switched(contexts, basis, phi, labels=None) -> Dilation:
    """The dilation of a measurement whose readout ``basis`` the environment selects:
    context x, heralded by the environment ket |x>, reads the basis rotated by U_x, so its
    rows are |x> (x) U_x^dag |a>, labelled ``"x:a"`` unless ``labels`` says otherwise."""
    basis = np.asarray(basis)
    rows = np.concatenate([np.kron(env, basis @ np.conj(u)) for env, u in contexts])
    if labels is None:
        labels = [f"{x}:{a}" for x in range(len(contexts)) for a in range(len(basis))]
    return Dilation(len(phi), basis.shape[1], labels, rows, phi)


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
