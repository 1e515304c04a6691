"""Bundled scenario files and their deterministic regeneration.

``write_fixtures()`` rewrites the packaged data files from the library itself,
byte for byte, so the JSON on disk can always be cross-checked against fresh
output.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .contextuality import hardy_embedding_povm
from .errors import ScenarioFileError
from .hilbert import DEFAULT_TOL, fix_phase, unit_vector
from .interferometer import build_three_path, dilation_DA, dilation_VH, povm_DA
from .dilation import povm_from_dilation
from .scenario_io import Scenario, load_scenario, save_scenario

FIXTURE_NAMES = ("three-path-VH", "three-path-DA", "hardy")
_DATA_DIR = Path(__file__).parent / "data"


def _fixture_scenario(name: str) -> Scenario:
    """The scenario bundled as ``name``, one of ``FIXTURE_NAMES``."""
    if name in ("three-path-VH", "three-path-DA"):
        s = build_three_path()
        vh = name == "three-path-VH"
        d = dilation_VH(s) if vh else dilation_DA(s)
        p = povm_from_dilation(d) if vh else povm_DA(s)
        return Scenario(3, d, p)
    f = build_three_path().f
    # D_k is f less its component along the k-th basis ket, for basis1 = |1>, basis2 = |2>
    d1, d2 = (
        fix_phase(unit_vector(f - basis * complex(np.vdot(basis, f)), DEFAULT_TOL))
        for basis in np.eye(3, dtype=complex)[:2]
    )
    p = hardy_embedding_povm(f, d1, d2)
    # hardy_state(d1, d2) up to last-ulp SVD noise; stored exactly so the
    # two D overlaps cancel to a clean zero in reports
    paradox = np.ones(3) / np.sqrt(3.0)
    return Scenario(3, povm=p, states={"hardy": paradox}, hardy=("F", "D1", "D2"))


def fixture_path(name: str) -> Path:
    if name not in FIXTURE_NAMES:
        raise ScenarioFileError(f"unknown fixture {name!r}; choose one of {FIXTURE_NAMES}")
    return _DATA_DIR / f"{name}.json"


def load_fixture(name: str) -> Scenario:
    return load_scenario(fixture_path(name))


def write_fixtures(directory: Path | None = None) -> list[Path]:
    """Write all bundled fixtures; defaults to the packaged data directory."""
    target = Path(directory) if directory is not None else _DATA_DIR
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for name in FIXTURE_NAMES:
        path = target / f"{name}.json"
        save_scenario(path, _fixture_scenario(name))
        written.append(path)
    return written
