"""JSON scenario files.

Complex amplitudes are encoded as [re, im] pairs. A file may carry a POVM
directly, a dilation (outcomes + phi_init), or both; states are labelled pure
vectors or density matrices; an optional hardy block names an F/D1/D2 triple.

Schema (version 1)::

    {
      "version": 1,
      "system_dim": 3,
      "env_dim": 2,                       # required with outcomes/phi_init
      "outcomes": [{"label": "...", "vector": [[re, im], ...]}, ...],
      "phi_init": [[re, im], ...],
      "povm": [{"label": "...", "vector": ...} | {"label": "...", "matrix": ...}, ...],
      "states": [{"label": "...", "vector": ...} | {"label": "...", "matrix": ...}, ...],
      "hardy": {"f": "...", "d1": "...", "d2": "..."}
    }

Parse and schema problems raise ScenarioFileError; physical invariants are
enforced by the constructed objects themselves.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ScenarioFileError
from .dilation import Dilation, JointOutcomeSet, povm_from_dilation
from .hilbert import DEFAULT_TOL, Ket, Operator, Space
from .povm import DensityMatrix, Povm, PovmElement

SCHEMA_VERSION = 1

_TOP_KEYS = {"version", "system_dim", "env_dim", "outcomes", "phi_init", "povm", "states", "hardy"}


def encode_vector(amplitudes: np.ndarray) -> list[list[float]]:
    return np.ascontiguousarray(amplitudes, dtype=complex).view(float).reshape(-1, 2).tolist()


def encode_matrix(entries: np.ndarray) -> list[list[list[float]]]:
    return [encode_vector(row) for row in np.asarray(entries, dtype=complex)]


_REAL_TYPES = frozenset((int, float))
# An entry longer than this is cut in the error that names it.
_SHOWN_ENTRY_CHARS = 80


def decode_vector(obj: object, length: int, what: str) -> np.ndarray:
    """Decode [re, im] pairs of exact ints or floats bit for bit (-0.0 kept)."""
    if not isinstance(obj, list) or len(obj) != length:
        raise ScenarioFileError(f"{what}: expected {length} [re, im] pairs")
    try:
        if _REAL_TYPES.issuperset(map(type, chain.from_iterable(obj))):
            pairs = np.array(obj, dtype=float)
            if pairs.shape == (length, 2):
                return pairs.view(complex).reshape(length)
    except (TypeError, ValueError, OverflowError):
        pass  # the loop below names the entry at fault
    for entry in obj:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not _REAL_TYPES.issuperset(map(type, entry))
        ):
            shown = repr(entry)
            if len(shown) > _SHOWN_ENTRY_CHARS:
                shown = f"{shown[:_SHOWN_ENTRY_CHARS]}... ({len(shown)} characters)"
            raise ScenarioFileError(f"{what}: expected an [re, im] pair, got {shown}")
    raise ScenarioFileError(f"{what}: an amplitude is too large for a float")


def decode_matrix(obj: object, dim: int, what: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ScenarioFileError(f"{what}: expected a {dim}x{dim} matrix")
    return np.stack([decode_vector(row, dim, what) for row in obj])


@dataclass(frozen=True)
class Scenario:
    """Parsed contents of one scenario file."""

    system_dim: int
    env_dim: int | None = None
    outcomes: JointOutcomeSet | None = None
    phi_init: Ket | None = None
    povm: Povm | None = None
    states: dict[str, Ket | DensityMatrix] = field(default_factory=dict)
    hardy: tuple[str, str, str] | None = None

    def dilation(self, tol: float = DEFAULT_TOL) -> Dilation:
        if self.outcomes is None or self.phi_init is None:
            raise ScenarioFileError("the file carries no dilation (outcomes + phi_init)")
        return Dilation(self.outcomes, self.phi_init, tol=tol)

    def resolve_povm(self, tol: float = DEFAULT_TOL) -> Povm:
        """The file's POVM, deriving it from the dilation when absent."""
        if self.povm is not None:
            return self.povm
        if self.outcomes is not None and self.phi_init is not None:
            return povm_from_dilation(self.dilation(tol))
        raise ScenarioFileError("the file carries neither a povm nor a dilation")


def _positive_int(raw: dict, key: str) -> int:
    value = raw.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ScenarioFileError(f"{key} must be a positive integer")
    return value


def _labelled_entries(raw: object, section: str) -> list[dict]:
    if not isinstance(raw, list):
        raise ScenarioFileError(f"{section} must be a list")
    seen = set()
    entries = []
    for item in raw:
        if not isinstance(item, dict) or not isinstance(item.get("label"), str):
            raise ScenarioFileError(f"{section}: every entry needs a string label")
        if item["label"] in seen:
            raise ScenarioFileError(f"{section}: duplicate label {item['label']!r}")
        seen.add(item["label"])
        entries.append(item)
    return entries


def _vectors_or_matrices(
    raw: object, section: str, dim: int, noun: str, what: str
) -> Iterator[tuple[str, Ket | Operator]]:
    """Decode, entry by entry, a section whose entries hold exactly one of vector/matrix.

    ``noun`` names an entry in the payload rule's message, ``what`` in decode errors.
    """
    space = Space.system(dim)
    for item in _labelled_entries(raw, section):
        label = item["label"]
        if ("vector" in item) == ("matrix" in item):
            raise ScenarioFileError(f"{noun} {label!r} needs exactly one of vector/matrix")
        if "vector" in item:
            yield label, Ket(space, decode_vector(item["vector"], dim, f"{what} {label!r}"))
        else:
            yield label, Operator(space, decode_matrix(item["matrix"], dim, f"{what} {label!r}"))


def _encode_entry(label: str, payload: Ket | Operator) -> dict:
    if isinstance(payload, Ket):
        return {"label": label, "vector": encode_vector(payload.amplitudes)}
    return {"label": label, "matrix": encode_matrix(payload.entries)}


def scenario_from_dict(raw: dict, tol: float = DEFAULT_TOL) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioFileError("scenario file must hold a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ScenarioFileError(f"unknown keys {sorted(unknown)}")
    if raw.get("version") != SCHEMA_VERSION:
        raise ScenarioFileError(f"unsupported version {raw.get('version')!r}")
    system_dim = _positive_int(raw, "system_dim")

    env_dim: int | None = None
    outcomes = phi_init = None
    if "outcomes" in raw or "phi_init" in raw:
        if "outcomes" not in raw or "phi_init" not in raw:
            raise ScenarioFileError("outcomes and phi_init must appear together")
        env_dim = _positive_int(raw, "env_dim")
        joint = Space.joint(env_dim, system_dim)
        pairs = []
        for item in _labelled_entries(raw["outcomes"], "outcomes"):
            vec = decode_vector(
                item.get("vector"), joint.dim, f"outcome {item['label']!r}"
            )
            pairs.append((item["label"], Ket(joint, vec)))
        outcomes = JointOutcomeSet(joint, tuple(pairs), tol=tol)
        phi_init = Ket(
            Space.environment(env_dim), decode_vector(raw["phi_init"], env_dim, "phi_init")
        )
    elif "env_dim" in raw:
        env_dim = _positive_int(raw, "env_dim")

    povm = None
    if "povm" in raw:
        entries = _vectors_or_matrices(raw["povm"], "povm", system_dim, "povm element", "povm")
        povm = Povm(
            system_dim,
            tuple(
                PovmElement(label, vector=x)
                if isinstance(x, Ket)
                else PovmElement(label, operator=x, tol=tol)
                for label, x in entries
            ),
        )

    states: dict[str, Ket | DensityMatrix] = {}
    if "states" in raw:
        entries = _vectors_or_matrices(raw["states"], "states", system_dim, "state", "state")
        for label, x in entries:
            states[label] = x if isinstance(x, Ket) else DensityMatrix(x, tol)

    hardy = None
    if "hardy" in raw:
        block = raw["hardy"]
        if not isinstance(block, dict) or set(block) != {"f", "d1", "d2"}:
            raise ScenarioFileError("hardy must map exactly the keys f, d1, d2")
        if not all(isinstance(block[k], str) for k in ("f", "d1", "d2")):
            raise ScenarioFileError("hardy labels must be strings")
        hardy = (block["f"], block["d1"], block["d2"])

    return Scenario(system_dim, env_dim, outcomes, phi_init, povm, states, hardy)


def load_scenario(path: str | Path, tol: float = DEFAULT_TOL) -> Scenario:
    """Read and validate a scenario file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioFileError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioFileError(f"{path} nests too deeply to parse") from exc
    return scenario_from_dict(raw, tol)


def scenario_to_dict(s: Scenario) -> dict:
    """The JSON-ready dict of a scenario; ``scenario_from_dict`` reads it back."""
    raw: dict = {"version": SCHEMA_VERSION, "system_dim": int(s.system_dim)}
    if s.env_dim is not None:
        raw["env_dim"] = int(s.env_dim)
    if s.outcomes is not None:
        raw["outcomes"] = [_encode_entry(label, ket) for label, ket in s.outcomes.outcomes]
    if s.phi_init is not None:
        raw["phi_init"] = encode_vector(s.phi_init.amplitudes)
    if s.povm is not None:
        raw["povm"] = [
            _encode_entry(el.label, el.vector if el.is_vector else el.operator)
            for el in s.povm.elements
        ]
    if s.states:
        raw["states"] = [
            _encode_entry(label, state if isinstance(state, Ket) else state.op)
            for label, state in s.states.items()
        ]
    if s.hardy is not None:
        raw["hardy"] = {"f": s.hardy[0], "d1": s.hardy[1], "d2": s.hardy[2]}
    return raw


def _dumps(obj: object, pad: str = "") -> str:
    """``json.dumps(obj, indent=2)`` written at indentation ``pad``, byte for byte.

    Non-empty dicts with ``str`` keys and non-empty lists are walked. A list of
    finite ``[float, float]`` pairs is written by one ``%`` call whose ``%r``
    slots are ``float.__repr__``, as in ``json``; every other value goes
    through ``json.dumps`` itself. Plain loops, not comprehensions, keep one
    frame per level, so a tree nests as deep as ``json`` allows before
    ``RecursionError``.
    """
    inner = pad + "  "
    sep = ",\n" + inner
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        items = []
        for key, value in obj.items():
            items.append(f"{json.dumps(key)}: {_dumps(value, inner)}")
        return "{\n" + inner + sep.join(items) + "\n" + pad + "}"
    if type(obj) is list and obj:
        if set(map(type, obj)) == {list} and set(map(len, obj)) == {2}:
            flat = tuple(chain.from_iterable(obj))
            if set(map(type, flat)) == {float} and all(map(math.isfinite, flat)):
                pair = f"[\n{inner}  %r,\n{inner}  %r\n{inner}]"
                return ("[\n" + inner + sep.join([pair] * len(obj)) + "\n" + pad + "]") % flat
        items = []
        for entry in obj:
            items.append(_dumps(entry, inner))
        return "[\n" + inner + sep.join(items) + "\n" + pad + "]"
    return json.dumps(obj, indent=2).replace("\n", "\n" + pad)


def save_scenario(path: str | Path, raw: dict) -> None:
    """Write ``json.dumps(raw, indent=2) + "\\n"`` for any JSON-ready ``raw``."""
    try:
        Path(path).write_text(_dumps(raw) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ScenarioFileError(f"cannot write {path}: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioFileError(f"cannot write {path}: the data nests too deeply") from exc
