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
from .hilbert import DEFAULT_TOL, Ket, Space, basis_ket
from .povm import Povm, coarse_grain
from .dilation import Dilation, JointOutcomeSet, povm_from_dilation

_PATH_NAMES = ("1", "2", "3", "S1", "S2", "F")


@dataclass(frozen=True)
class ThreePathScenario:
    """Fixed states of the three-path layout, parameterised by plate placement."""

    system: Space
    environment: Space
    paths: tuple[Ket, Ket, Ket]
    s1: Ket
    s2: Ket
    f: Ket
    h: Ket
    v: Ket
    d: Ket
    a: Ket
    hwp_path: str = "F"


def build_three_path(hwp_path: str = "F") -> ThreePathScenario:
    """The standard layout: S1 = (|2>+|3>)/sqrt2, S2 = (|1>+|3>)/sqrt2, F = (1,1,-1)/sqrt3."""
    if hwp_path not in _PATH_NAMES:
        raise ValidationError(
            f"unknown plate position {hwp_path!r}; choose one of {_PATH_NAMES}",
            invariant="hwp-path",
        )
    system = Space.system(3)
    environment = Space.environment(2)
    p1, p2, p3 = (basis_ket(system, i) for i in range(3))
    inv2 = 1.0 / np.sqrt(2.0)
    scenario = ThreePathScenario(
        system=system,
        environment=environment,
        paths=(p1, p2, p3),
        s1=Ket(system, (p2.amplitudes + p3.amplitudes) * complex(inv2)),
        s2=Ket(system, (p1.amplitudes + p3.amplitudes) * complex(inv2)),
        f=Ket(system, np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)),
        h=basis_ket(environment, 0),
        v=basis_ket(environment, 1),
        d=Ket(environment, np.array([1.0, 1.0]) * inv2),
        a=Ket(environment, np.array([1.0, -1.0]) * inv2),
        hwp_path=hwp_path,
    )
    return scenario


def _plate_ket(s: ThreePathScenario) -> Ket:
    named = {"1": s.paths[0], "2": s.paths[1], "3": s.paths[2], "S1": s.s1, "S2": s.s2, "F": s.f}
    return named[s.hwp_path]


def _reflect(w: Ket, psi: Ket) -> np.ndarray:
    """The amplitudes of psi - 2 <w|psi> w."""
    return psi.amplitudes - w.amplitudes * (2.0 * w.inner(psi))


def hwp_transform(s: ThreePathScenario, psi: Ket) -> Ket:
    """Reflect a path state about the plate's path: psi - 2 <w|psi> w."""
    return Ket(psi.space, _reflect(_plate_ket(s), psi))


def _readout_rows(s: ThreePathScenario) -> tuple[np.ndarray, np.ndarray]:
    """The (3, 6) stacks |V> (x) |i> and |H> (x) u_H,i, u_H,i the plate-reflected path i."""
    w = _plate_ket(s)
    paths = np.array([p.amplitudes for p in s.paths])
    reflected = np.array([_reflect(w, p) for p in s.paths])
    return np.kron(s.v.amplitudes, paths), np.kron(s.h.amplitudes, reflected)


def joint_outcomes_VH(s: ThreePathScenario, tol: float = DEFAULT_TOL) -> JointOutcomeSet:
    """Product outcomes of path detection with an H/V polarisation readout.

    V heralds the unmodified path basis, H the plate-reflected one.
    """
    labels = ("V1", "V2", "V3", "H1", "H2", "H3")
    vectors = np.concatenate(_readout_rows(s))
    return JointOutcomeSet(Space.joint(2, 3), labels, vectors, tol=tol)


def joint_outcomes_DA(s: ThreePathScenario, tol: float = DEFAULT_TOL) -> JointOutcomeSet:
    """Entangled outcomes of the same detection with a D/A polarisation readout.

    (D, i) and (A, i) are the +/- combinations of |H> (x) u_H,i and
    |V> (x) u_V,i, where u are the unit context vectors of the H/V readout.
    """
    labels = ("D1", "D2", "D3", "A1", "A2", "A3")
    v_rows, h_rows = _readout_rows(s)
    inv2 = complex(1.0 / np.sqrt(2.0))
    vectors = np.concatenate([(h_rows + v_rows) * inv2, (h_rows - v_rows) * inv2])
    return JointOutcomeSet(Space.joint(2, 3), labels, vectors, tol=tol)


def dilation_VH(
    s: ThreePathScenario, phi_init: Ket | None = None, tol: float = DEFAULT_TOL
) -> Dilation:
    """H/V-readout dilation; the photon enters diagonally polarised by default."""
    return Dilation(joint_outcomes_VH(s, tol), s.d if phi_init is None else phi_init, tol=tol)


def dilation_DA(
    s: ThreePathScenario, phi_init: Ket | None = None, tol: float = DEFAULT_TOL
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
