"""Independent numeric oracles, deliberately avoiding the library's code paths."""

from __future__ import annotations

import math

import numpy as np


def hermitian3_eigvals(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 3x3 Hermitian matrix from its characteristic cubic.

    Uses the trigonometric solution of the depressed cubic, never an
    eigensolver, so it can cross-check one. Returns ascending values.
    """
    m = np.asarray(matrix, dtype=complex)
    assert m.shape == (3, 3)
    assert np.abs(m - m.conj().T).max() < 1e-12

    c2 = float(np.trace(m).real)
    minors = (
        m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
        + m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
    )
    c1 = float(minors.real)
    c0 = float(np.linalg.det(m).real)

    # x^3 - c2 x^2 + c1 x - c0 with x = t + c2/3 becomes t^3 + p t + q
    p = c1 - c2**2 / 3.0
    q = -2.0 * c2**3 / 27.0 + c1 * c2 / 3.0 - c0
    if p > -1e-14:
        t = np.full(3, np.cbrt(-q))
    else:
        radius = np.sqrt(-p / 3.0)
        arg = np.clip(3.0 * q / (2.0 * p * radius), -1.0, 1.0)
        phi = np.arccos(arg)
        t = 2.0 * radius * np.cos(phi / 3.0 - 2.0 * np.pi * np.arange(3) / 3.0)
    return np.sort(t + c2 / 3.0)


def context_pairs(elements: list[np.ndarray], tol: float) -> list[tuple[int, int, float, bool]]:
    """Every pair (i, j, witness, shared), i < j, in row-major order.

    Each element is a 1-D vector (rank one) or a 2-D positive matrix. Two
    vectors share a context when the modulus of the inner product of their unit
    vectors is at most tol, or when the sine of their angle is: the norm of what
    is left of one unit vector once its component along the other is removed,
    never sqrt(1 - c^2), which loses the sine to cancellation. Any other pair
    shares one when the spectral norm of the commutator of the two support
    projectors is at most tol.
    """

    def support(e: np.ndarray) -> np.ndarray:
        if e.ndim == 1:
            u = e / np.linalg.norm(e)
            return np.outer(u, u.conj())
        values, vectors = np.linalg.eigh(e)
        cols = vectors[:, values > tol]
        return cols @ cols.conj().T

    pairs = []
    for i, a in enumerate(elements):
        for j in range(i + 1, len(elements)):
            b = elements[j]
            if a.ndim == 1 and b.ndim == 1:
                x, y = a / np.linalg.norm(a), b / np.linalg.norm(b)
                witness = abs(np.vdot(x, y))
                shared = witness <= tol or np.linalg.norm(x - np.vdot(y, x) * y) <= tol
            else:
                pa, pb = support(a), support(b)
                witness = np.linalg.norm(pa @ pb - pb @ pa, 2)
                shared = witness <= tol
            pairs.append((i, j, float(witness), bool(shared)))
    return pairs


def dense_element_numbers(matrices: list[np.ndarray], rho: np.ndarray) -> dict[str, object]:
    """What the POVM rules report, from each element's dense Hermitian matrix alone.

    ``spectra`` holds each element's eigenvalues in ascending order,
    ``completeness`` is the largest entry of |sum E - I|, ``bound`` how far the
    eigenvalues of the worst element leave [0, 1], ``weights`` each element's
    largest eigenvalue, and ``probabilities`` each tr(E rho).
    """
    spectra = [np.linalg.eigvalsh(m) for m in matrices]
    lows, tops = [float(s[0]) for s in spectra], [float(s[-1]) for s in spectra]
    return {
        "spectra": np.array(spectra),
        "completeness": float(np.abs(sum(matrices) - np.eye(len(rho))).max()),
        "bound": max(0.0, max(tops) - 1.0, -min(lows)),
        "weights": tops,
        "probabilities": [float(np.trace(m @ rho).real) for m in matrices],
    }


def hardy_numbers(
    f: np.ndarray, d1: np.ndarray, d2: np.ndarray, b1: np.ndarray, b2: np.ndarray, rho: np.ndarray
) -> dict[str, float]:
    """Every number of the rescaled Hardy inequality, from unit directions alone.

    f, d1 and d2 are the unit directions of three rank-1 elements, f decomposes
    over (b1, d1) and over (b2, d2), and rho is a density matrix. An element
    sqrt(s)|u> has rescaled probability <u|rho|u> whatever its scale s, so:
    lhs and rhs are <f|rho|f> and <d1|rho|d1> + <d2|rho|d2>; c_k = |<d_k|f>|^2
    and r_k = |<b_k|f>|^2 are F at the pure states d_k and b_k; and the largest
    gap over all states is the top eigenvalue of P_f - P_d1 - P_d2.
    """

    def expectation(u: np.ndarray) -> float:
        return float(np.real(u.conj() @ rho @ u))

    def fidelity(u: np.ndarray) -> float:
        return float(abs(np.vdot(u, f)) ** 2)

    gap = np.outer(f, f.conj()) - np.outer(d1, d1.conj()) - np.outer(d2, d2.conj())
    return {
        "lhs": expectation(f),
        "rhs": expectation(d1) + expectation(d2),
        "c1": fidelity(d1),
        "c2": fidelity(d2),
        "r1": fidelity(b1),
        "r2": fidelity(b2),
        "max_violation": float(np.linalg.eigvalsh(gap)[-1]),
    }


class LoadError(Exception):
    """What loading a file must raise: ``(exception type name, invariant or None, message)``."""


_SHOWN_ENTRY_CHARS = 80


def _file_error(message: str) -> LoadError:
    return LoadError("ScenarioFileError", None, message)


def _reference_pairs(obj: object, length: int, what: str) -> list[tuple[float, float]]:
    if not isinstance(obj, list) or len(obj) != length:
        raise _file_error(f"{what}: expected {length} [re, im] pairs")
    for pair in obj:
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or any(type(x) not in (int, float) for x in pair)
        ):
            shown = repr(pair)
            if len(shown) > _SHOWN_ENTRY_CHARS:
                shown = f"{shown[:_SHOWN_ENTRY_CHARS]}... ({len(shown)} characters)"
            raise _file_error(f"{what}: expected an [re, im] pair, got {shown}")
    try:
        return [(float(re), float(im)) for re, im in obj]
    except OverflowError:
        raise _file_error(f"{what}: an amplitude is too large for a float") from None


def _reference_vector(obj: object, length: int, what: str) -> list[tuple[float, float]]:
    values = _reference_pairs(obj, length, what)
    if not all(math.isfinite(x) for pair in values for x in pair):
        raise LoadError("ValidationError", "finite-amplitudes", "amplitudes must be finite")
    return values


def _reference_matrix(obj: object, dim: int, what: str) -> list[list[tuple[float, float]]]:
    if not isinstance(obj, list) or len(obj) != dim:
        raise _file_error(f"{what}: expected a {dim}x{dim} matrix")
    rows = [_reference_pairs(row, dim, what) for row in obj]
    if not all(math.isfinite(x) for row in rows for pair in row for x in pair):
        raise LoadError("ValidationError", "finite-entries", "entries must be finite")
    return rows


def reference_sections(raw: dict) -> dict[str, list[tuple[str, str, list]]]:
    """The outcomes, povm and states entries of a file, decoded one number at a time.

    Each section maps to ``(label, "vector" | "matrix", values)`` in file order,
    values being ``(re, im)`` float pairs (rows of them for a matrix). Raises
    ``LoadError`` for the first faulty entry in the order a file is read:
    outcomes, povm, states, and within a section every entry's keys before any
    entry's values. An outcome holds only a label and a vector; a povm or state
    entry may hold a matrix as well. Labels are taken to be unique strings and
    matrices to be valid operators (Hermitian; positive with unit trace for
    states), and the outcomes orthonormal: only decoding is modelled here.
    """

    def keyed(section: str, what: str, allowed: set[str]) -> list[dict]:
        for e in raw[section]:
            unknown = set(e) - allowed
            if unknown:
                raise _file_error(f"{what} {e['label']!r}: unknown keys {sorted(unknown)}")
        return raw[section]

    dim = raw["system_dim"]
    sections = {}
    if "outcomes" in raw:
        length = raw["env_dim"] * dim
        sections["outcomes"] = []
        for e in keyed("outcomes", "outcome", {"label", "vector"}):
            values = _reference_vector(e.get("vector"), length, f"outcome {e['label']!r}")
            sections["outcomes"].append((e["label"], "vector", values))
    for section, what, noun in (("povm", "povm", "povm element"), ("states", "state", "state")):
        if section not in raw:
            continue
        sections[section] = []
        for e in keyed(section, what, {"label", "vector", "matrix"}):
            label = e["label"]
            if ("vector" in e) == ("matrix" in e):
                raise _file_error(f"{noun} {label!r} needs exactly one of vector/matrix")
            if "vector" in e:
                entry = (label, "vector", _reference_vector(e["vector"], dim, f"{what} {label!r}"))
            else:
                entry = (label, "matrix", _reference_matrix(e["matrix"], dim, f"{what} {label!r}"))
            sections[section].append(entry)
    return sections
