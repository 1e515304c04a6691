"""A three-path interferometer with a polarisation environment.

Paths are the system (dim 3), polarisation the environment (dim 2). A
half-wave plate sits in one path superposition (F by default) and flips the
polarisation there, so the photon's final polarisation records which
measurement context the path detectors realised: the H/V readout gives two
projective path contexts, while the rotated D/A readout gives entangled
outcomes whose derived POVM mixes context information into the path
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hilbert import DEFAULT_TOL, amplitudes
from .povm import Povm, coarse_grain
from .dilation import Dilation, JointOutcomeSet, povm_from_dilation

_PATH_NAMES = ("1", "2", "3", "S1", "S2", "F")
_SHAPES = dict(paths=(3, 3), s1=(3,), s2=(3,), f=(3,), h=(2,), v=(2,), d=(2,), a=(2,))


@dataclass(frozen=True, eq=False)
class ThreePathScenario:
    """Fixed states of the three-path layout, parameterised by plate placement.

    ``paths`` stacks the path basis kets as rows; s1, s2 and f are path states, h, v, d
    and a polarisation states. Each is stored as a read-only complex copy.
    """

    paths: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    f: np.ndarray
    h: np.ndarray
    v: np.ndarray
    d: np.ndarray
    a: np.ndarray
    hwp_path: str = "F"

    def __post_init__(self) -> None:
        for name, shape in _SHAPES.items():
            object.__setattr__(self, name, amplitudes(getattr(self, name), shape, f"for {name}"))


def build_three_path(hwp_path: str = "F") -> ThreePathScenario:
    """The standard layout: S1 = (|2>+|3>)/sqrt2, S2 = (|1>+|3>)/sqrt2, F = (1,1,-1)/sqrt3."""
    if hwp_path not in _PATH_NAMES:
        raise ValidationError(
            f"unknown plate position {hwp_path!r}; choose one of {_PATH_NAMES}",
            invariant="hwp-path",
        )
    paths, (h, v) = np.eye(3, dtype=complex), np.eye(2, dtype=complex)
    inv2 = 1.0 / np.sqrt(2.0)
    return ThreePathScenario(
        paths=paths,
        s1=(paths[1] + paths[2]) * complex(inv2),
        s2=(paths[0] + paths[2]) * complex(inv2),
        f=np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0),
        h=h,
        v=v,
        d=np.array([1.0, 1.0]) * inv2,
        a=np.array([1.0, -1.0]) * inv2,
        hwp_path=hwp_path,
    )


def _plate_ket(s: ThreePathScenario) -> np.ndarray:
    named = {"1": s.paths[0], "2": s.paths[1], "3": s.paths[2], "S1": s.s1, "S2": s.s2, "F": s.f}
    return named[s.hwp_path]


def _reflect(w: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """psi - 2 <w|psi> w."""
    return psi - w * (2.0 * complex(np.vdot(w, psi)))


def hwp_transform(s: ThreePathScenario, psi: np.ndarray) -> np.ndarray:
    """Reflect a path state about the plate's path: psi - 2 <w|psi> w."""
    return _reflect(_plate_ket(s), amplitudes(psi, (3,), "for a path state"))


def _readout_rows(s: ThreePathScenario) -> tuple[np.ndarray, np.ndarray]:
    """The (3, 6) stacks |V> (x) |i> and |H> (x) u_H,i, u_H,i the plate-reflected path i."""
    w = _plate_ket(s)
    reflected = np.array([_reflect(w, p) for p in s.paths])
    return np.kron(s.v, s.paths), np.kron(s.h, reflected)


def joint_outcomes_VH(s: ThreePathScenario, tol: float = DEFAULT_TOL) -> JointOutcomeSet:
    """Product outcomes of path detection with an H/V polarisation readout.

    V heralds the unmodified path basis, H the plate-reflected one.
    """
    labels = ("V1", "V2", "V3", "H1", "H2", "H3")
    vectors = np.concatenate(_readout_rows(s))
    return JointOutcomeSet(2, 3, labels, vectors, tol=tol)


def joint_outcomes_DA(s: ThreePathScenario, tol: float = DEFAULT_TOL) -> JointOutcomeSet:
    """Entangled outcomes of the same detection with a D/A polarisation readout.

    (D, i) and (A, i) are the +/- combinations of |H> (x) u_H,i and
    |V> (x) u_V,i, where u are the unit context vectors of the H/V readout.
    """
    labels = ("D1", "D2", "D3", "A1", "A2", "A3")
    v_rows, h_rows = _readout_rows(s)
    inv2 = complex(1.0 / np.sqrt(2.0))
    vectors = np.concatenate([(h_rows + v_rows) * inv2, (h_rows - v_rows) * inv2])
    return JointOutcomeSet(2, 3, labels, vectors, tol=tol)


def dilation_VH(
    s: ThreePathScenario, phi_init: np.ndarray | None = None, tol: float = DEFAULT_TOL
) -> Dilation:
    """H/V-readout dilation; the photon enters diagonally polarised by default."""
    return Dilation(joint_outcomes_VH(s, tol), s.d if phi_init is None else phi_init, tol=tol)


def dilation_DA(
    s: ThreePathScenario, phi_init: np.ndarray | None = None, tol: float = DEFAULT_TOL
) -> Dilation:
    """D/A-readout dilation; the photon enters diagonally polarised by default."""
    return Dilation(joint_outcomes_DA(s, tol), s.d if phi_init is None else phi_init, tol=tol)


def povm_DA(s: ThreePathScenario, merge_A: bool = True, tol: float = DEFAULT_TOL) -> Povm:
    """The D/A-readout POVM for a diagonally polarised photon.

    With ``merge_A`` the three proportional A outcomes are summed into a
    single rank-1 element labelled "A", giving three weight-2/3 path-context
    elements plus one weight-1 element along the plate direction.
    """
    p = povm_from_dilation(dilation_DA(s, tol=tol))
    if merge_A:
        p = coarse_grain(p, ("A1", "A2", "A3"), "A", tol)
    return p
