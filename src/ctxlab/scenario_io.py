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

import gc
import json
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import ScenarioFileError
from .dilation import Dilation, JointOutcomeSet, povm_from_dilation
from .hilbert import (
    DEFAULT_TOL,
    amplitudes,
    density_matrix,
    entries,
    require_finite,
    require_hermitian,
    state_array,
)
from .povm import Povm

SCHEMA_VERSION = 1

_TOP_KEYS = {"version", "system_dim", "env_dim", "outcomes", "phi_init", "povm", "states", "hardy"}


def encode_vector(amplitudes: np.ndarray) -> list[list[float]]:
    return np.ascontiguousarray(amplitudes, dtype=complex).view(float).reshape(-1, 2).tolist()


def encode_matrix(matrix: np.ndarray) -> list[list[list[float]]]:
    """Each row of a matrix, or of a stack of vectors, as ``encode_vector`` writes it."""
    rows = np.ascontiguousarray(matrix, dtype=complex)
    return rows.view(float).reshape(len(rows), -1, 2).tolist()


_PAIR_TYPES = frozenset((list, tuple))
_REAL_TYPES = frozenset((int, float))
# An entry longer than this is cut in the error that names it.
_SHOWN_ENTRY_CHARS = 80


def _wrong_length(what: str, length: int, matrix: bool = False) -> ScenarioFileError:
    """The reader's error for a vector or matrix entry of the wrong length."""
    expected = f"a {length}x{length} matrix" if matrix else f"{length} [re, im] pairs"
    return ScenarioFileError(f"{what}: expected {expected}")


def decode_vector(obj: object, length: int, what: str) -> np.ndarray:
    """Decode [re, im] pairs of exact ints or floats bit for bit (-0.0 kept)."""
    if type(obj) is not list or len(obj) != length:
        raise _wrong_length(what, length)
    vectors = _decode_section([obj], length)
    if vectors is not None:
        return vectors[0]
    for entry in obj:  # names the entry at fault
        if (
            type(entry) not in _PAIR_TYPES
            or len(entry) != 2
            or not _REAL_TYPES.issuperset(map(type, entry))
        ):
            shown = repr(entry)
            if len(shown) > _SHOWN_ENTRY_CHARS:
                shown = f"{shown[:_SHOWN_ENTRY_CHARS]}... ({len(shown)} characters)"
            raise ScenarioFileError(f"{what}: expected an [re, im] pair, got {shown}")
    raise ScenarioFileError(f"{what}: an amplitude is too large for a float")


def _decode_section(vectors: list, length: int) -> np.ndarray | None:
    """The vectors as one ``(M, length)`` complex array, bit for bit (-0.0 kept).

    None unless every vector is a list of ``length`` [re, im] lists or tuples
    of exact ints or floats within float range. One conversion of the
    flattened numbers costs far less than one per vector. Finiteness is left
    to the caller.
    """
    if set(map(type, vectors)) != {list} or set(map(len, vectors)) != {length}:
        return None
    pairs = list(chain.from_iterable(vectors))
    if not _PAIR_TYPES.issuperset(map(type, pairs)) or set(map(len, pairs)) != {2}:
        return None
    flat = list(chain.from_iterable(pairs))
    if not _REAL_TYPES.issuperset(map(type, flat)):
        return None
    try:
        values = np.array(flat, dtype=float)
    except OverflowError:  # an int beyond float range
        return None
    return values.view(complex).reshape(len(vectors), length)


def decode_matrix(obj: object, dim: int, what: str) -> np.ndarray:
    if type(obj) is not list or len(obj) != dim:
        raise _wrong_length(what, dim, matrix=True)
    matrix = _decode_section(obj, dim)
    if matrix is None:  # row by row, which names the row at fault
        matrix = np.stack([decode_vector(row, dim, what) for row in obj])
    return matrix


@dataclass(frozen=True)
class Scenario:
    """Parsed contents of one scenario file.

    ``phi_init`` and each state (a ket, or a square density matrix) are stored as
    read-only complex copies, of the environment and the system dimension, and
    compare by value; ``states`` is a read-only mapping. A mixed state's physics is
    checked where it is used, and by the reader at its tol.
    """

    system_dim: int
    env_dim: int | None = None
    outcomes: JointOutcomeSet | None = None
    phi_init: np.ndarray | None = None
    povm: Povm | None = None
    states: Mapping[str, np.ndarray] = field(default_factory=dict)
    hardy: tuple[str, str, str] | None = None

    def __post_init__(self) -> None:
        """Refuse a part that the file could not hold, as the reader would refuse it."""
        if (self.outcomes is None) != (self.phi_init is None):
            raise ScenarioFileError("outcomes and phi_init must appear together")
        if self.outcomes is not None:
            if self.env_dim is None:
                raise ScenarioFileError("env_dim must be a positive integer")
            outcomes, joint_dim = self.outcomes, self.env_dim * self.system_dim
            if outcomes.vectors.shape[1] != joint_dim:
                raise _wrong_length(f"outcome {outcomes.labels()[0]!r}", joint_dim)
            phi_init = amplitudes(self.phi_init, (None,), "for phi_init")
            if len(phi_init) != self.env_dim:
                raise _wrong_length("phi_init", self.env_dim)
            object.__setattr__(self, "phi_init", phi_init)
            if (outcomes.env_dim, outcomes.sys_dim) != (self.env_dim, self.system_dim):
                raise ScenarioFileError(  # the file would read them back on other factors
                    f"outcomes are on joint(env {outcomes.env_dim}, sys {outcomes.sys_dim}), "
                    f"not joint(env {self.env_dim}, sys {self.system_dim})"
                )
        if self.povm is not None and self.povm.system_dim != self.system_dim:
            first = f"povm {self.povm.labels()[0]!r}"
            raise _wrong_length(first, self.system_dim, matrix=0 in self.povm.operators)
        states = {}
        for label, state in self.states.items():
            state = states[label] = state_array(state, f"for state {label!r}")
            if len(state) != self.system_dim:
                raise _wrong_length(f"state {label!r}", self.system_dim, matrix=state.ndim == 2)
        object.__setattr__(self, "states", MappingProxyType(states))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        plain = ("system_dim", "env_dim", "outcomes", "povm", "hardy")
        if any(getattr(self, name) != getattr(other, name) for name in plain):
            return False
        pairs = [(self.phi_init, other.phi_init)]
        pairs += [(x, other.states.get(label)) for label, x in self.states.items()]
        same = self.states.keys() == other.states.keys()
        return same and all(np.array_equal(x, y) for x, y in pairs)

    def dilation(self, tol: float = DEFAULT_TOL) -> Dilation:
        if self.outcomes is None:
            raise ScenarioFileError("the file carries no dilation (outcomes + phi_init)")
        return Dilation(self.outcomes, self.phi_init, tol=tol)

    def resolve_povm(self, tol: float = DEFAULT_TOL) -> Povm:
        """The file's POVM, deriving it from the dilation when absent."""
        if self.povm is not None:
            return self.povm
        if self.outcomes is not None:
            return povm_from_dilation(self.dilation(tol))
        raise ScenarioFileError("the file carries neither a povm nor a dilation")


def _positive_int(raw: dict, key: str) -> int:
    value = raw.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ScenarioFileError(f"{key} must be a positive integer")
    return value


def _section(
    raw: object, section: str, dim: int, what: str, noun: str = "", matrix: Callable | None = None
) -> tuple[list[str], np.ndarray, dict[int, object]]:
    """Labels, an ``(M, dim)`` stack with zero rows at matrix entries, and
    ``matrix(label, entries)`` of each matrix entry's read-only ``(dim, dim)`` entries
    by position.

    Without ``matrix`` every entry is a vector and a "matrix" key is ignored.
    Well-formed vectors are decoded in one call, their finiteness left to the
    stack's constructor, which raises what the first non-finite entry would.
    Any other section is read entry by entry, each checked in full before the
    next. ``what`` names an entry in decode errors, ``noun`` in the one-payload
    rule.
    """
    if not isinstance(raw, list):
        raise ScenarioFileError(f"{section} must be a list")
    seen = set()
    for item in raw:
        if not isinstance(item, dict) or not isinstance(item.get("label"), str):
            raise ScenarioFileError(f"{section}: every entry needs a string label")
        if item["label"] in seen:
            raise ScenarioFileError(f"{section}: duplicate label {item['label']!r}")
        seen.add(item["label"])
    labels = [item["label"] for item in raw]
    if matrix is None or not any("matrix" in item for item in raw):
        stack = _decode_section([item.get("vector") for item in raw], dim)
        if stack is not None:
            return labels, stack, {}
    stack, matrices = np.zeros((len(raw), dim), dtype=complex), {}
    for k, (label, item) in enumerate(zip(labels, raw)):
        name = f"{what} {label!r}"
        if matrix is not None and ("vector" in item) == ("matrix" in item):
            raise ScenarioFileError(f"{noun} {label!r} needs exactly one of vector/matrix")
        if matrix is None or "vector" in item:
            stack[k] = decode_vector(item.get("vector"), dim, name)
            require_finite(stack[k])
        else:
            decoded = decode_matrix(item["matrix"], dim, name)
            matrices[k] = matrix(label, entries(decoded, dim, name))
    return labels, stack, matrices


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
        joint_dim = env_dim * system_dim
        labels, vectors, _ = _section(raw["outcomes"], "outcomes", joint_dim, "outcome")
        outcomes = JointOutcomeSet(env_dim, system_dim, labels, vectors, tol=tol)
        phi_init = decode_vector(raw["phi_init"], env_dim, "phi_init")
        require_finite(phi_init)
    elif "env_dim" in raw:
        env_dim = _positive_int(raw, "env_dim")

    povm = None
    if "povm" in raw:
        # Each matrix is checked as it is read, so the first faulty entry is the one named.
        labels, vectors, operators = _section(
            raw["povm"], "povm", system_dim, "povm", noun="povm element",
            matrix=lambda label, op: require_hermitian(op, tol, f"element {label!r}"),
        )
        povm = Povm(system_dim, labels, vectors, operators, tol)

    states: dict[str, np.ndarray] = {}
    if "states" in raw:
        labels, vectors, matrices = _section(
            raw["states"], "states", system_dim, "state", noun="state",
            matrix=lambda _, rho: density_matrix(rho, system_dim, tol),
        )
        require_finite(vectors)  # the pure states; a mixed state's row is zero
        for k, (label, row) in enumerate(zip(labels, vectors)):
            states[label] = matrices.get(k, row)

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
    """Read and validate a scenario file. The cyclic garbage collector is paused,
    and left as it was found, while the file is parsed and read: a JSON tree holds
    no cycle, yet its one list per [re, im] pair would be scanned on each pass, so
    the text and the tree are dropped before the collector resumes."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioFileError(f"cannot read {path}: {exc}") from exc
    enabled = gc.isenabled()
    gc.disable()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioFileError(f"{path} nests too deeply to parse") from exc
    else:
        del text
        scenario = scenario_from_dict(raw, tol)
        del raw
        return scenario
    finally:
        if enabled:
            gc.enable()


def _vectors(stack: np.ndarray, pad: str) -> Iterator[str]:
    """Each row of a finite complex stack in turn, as ``_scenario_text`` writes its [re, im]
    pairs at indentation ``pad``. Pairs of two +0.0 (``signbit`` tells -0.0 apart) share one
    string; the others fill the ``%r`` slots of one template per zero mask, ``float.__repr__``
    as in ``json``. ``save_scenario`` has its file open by then, so a failure here leaves it
    truncated, as a failed write does (none is known for a constructed ``Scenario``)."""
    rows = np.ascontiguousarray(stack, dtype=complex)
    pairs, inner = rows.view(float).reshape(len(rows), -1, 2), pad + "  "
    pair, sep = f"[\n{inner}  %r,\n{inner}  %r\n{inner}]", ",\n" + inner
    texts = (pair, pair % (0.0, 0.0))
    zero = ~((pairs != 0) | np.signbit(pairs)).any(axis=2)
    templates = {}
    for mask, parts in zip(zero, pairs):
        key = mask.tobytes()
        if key not in templates:
            templates[key] = f"[\n{inner}{sep.join(map(texts.__getitem__, mask.tolist()))}\n{pad}]"
        yield templates[key] % tuple(parts[~mask].ravel().tolist())


def _section_text(labels: Iterable[str], vectors: np.ndarray, matrices: dict) -> Iterator[str]:
    """A labelled section as a top-level value, in chunks: each row of ``vectors`` as a
    "vector", except the positions in ``matrices``, written as those matrices."""
    pad = "      "  # the keys of an entry sit three levels deep
    yield "[\n"
    for k, (label, row) in enumerate(zip(labels, _vectors(vectors, pad))):
        key = "vector"
        if k in matrices:
            rows = f",\n{pad}  ".join(_vectors(matrices[k], pad + "  "))
            key, row = "matrix", f"[\n{pad}  {rows}\n{pad}]"
        comma = ",\n" if k else ""
        yield f'{comma}    {{\n{pad}"label": {json.dumps(label)},\n{pad}"{key}": {row}\n    }}'
    yield "\n  ]"


def _scenario_text(s: Scenario) -> Iterator[str]:
    """The file text of a scenario in chunks, in file order, the one encoder of the
    format: what ``json.dumps(..., indent=2)`` writes for its JSON form, byte for byte,
    in schema order, with every [re, im] run (sections, ``phi_init``, matrix entries)
    formatted straight from the stacks by ``_vectors``."""
    fields = {"version": [str(SCHEMA_VERSION)], "system_dim": [str(int(s.system_dim))]}
    if s.env_dim is not None:
        fields["env_dim"] = [str(int(s.env_dim))]
    if s.outcomes is not None:
        fields["outcomes"] = _section_text(s.outcomes.labels(), s.outcomes.vectors, {})
    if s.phi_init is not None:
        fields["phi_init"] = _vectors(s.phi_init[None], "  ")
    if s.povm is not None:
        fields["povm"] = _section_text(s.povm.labels(), s.povm.vectors, s.povm.operators)
    if s.states:
        states = tuple(s.states.values())
        matrices = {k: x for k, x in enumerate(states) if x.ndim == 2}
        rows = [np.zeros(len(x)) if x.ndim == 2 else x for x in states]
        fields["states"] = _section_text(s.states, rows, matrices)
    if s.hardy is not None:
        hardy = json.dumps(dict(zip(("f", "d1", "d2"), s.hardy)), indent=2)
        fields["hardy"] = [hardy.replace("\n", "\n  ")]  # json escapes a newline in a label
    separator = "{\n  "
    for key, chunks in fields.items():
        yield f'{separator}"{key}": '
        yield from chunks
        separator = ",\n  "
    yield "\n}"


def scenario_to_dict(s: Scenario) -> dict:
    """The JSON-ready dict of a scenario, parsed from its file text;
    ``scenario_from_dict`` reads it back."""
    return json.loads("".join(_scenario_text(s)))


def save_scenario(path: str | Path, raw: dict | Scenario) -> None:
    """Write ``json.dumps(raw, indent=2) + "\\n"`` for any JSON-ready ``raw``, or the
    file text of a ``Scenario``, which is the same as for ``scenario_to_dict(raw)``. A
    ``Scenario`` is formatted chunk by chunk into the file, opened first, so a failure
    part-way leaves it truncated, as a failed write does (none is known for a constructed
    ``Scenario``); a dict is dumped whole before the file is opened."""
    try:
        chunks = _scenario_text(raw) if isinstance(raw, Scenario) else [json.dumps(raw, indent=2)]
        with open(path, "w", encoding="utf-8") as file:
            file.writelines(chunks)
            file.write("\n")
    except OSError as exc:
        raise ScenarioFileError(f"cannot write {path}: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioFileError(f"cannot write {path}: the data nests too deeply") from exc
