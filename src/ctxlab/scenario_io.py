"""JSON scenario files.

Complex amplitudes are encoded as [re, im] pairs. A file may carry a POVM
directly, a dilation (outcomes + phi_init), or both; states are labelled pure
vectors or density matrices; an optional hardy block names an F/D1/D2 triple.

Schema (version 1)::

    {
      "version": 1,
      "system_dim": 3,
      "env_dim": 2,                       # required with outcomes; alone, only checked
      "outcomes": [{"label": "...", "vector": [[re, im], ...]}, ...],
      "phi_init": [[re, im], ...],
      "povm": [{"label": "...", "vector": ...} | {"label": "...", "matrix": ...}, ...],
      "states": [{"label": "...", "vector": ...} | {"label": "...", "matrix": ...}, ...],
      "hardy": {"f": "...", "d1": "...", "d2": "..."}
    }

Parse and schema problems, a key the schema does not show among them, raise
ScenarioFileError; physical invariants are enforced by the constructed objects.
"""

from __future__ import annotations

import gc
import json
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import ScenarioFileError
from .dilation import Dilation, povm_from_dilation
from .hilbert import (
    DEFAULT_TOL,
    ByValue,
    amplitudes,
    density_matrix,
    entries,
    state_array,
)
from .povm import Povm, require_space_dims

SCHEMA_VERSION = 1

_TOP_KEYS = {"version", "system_dim", "env_dim", "outcomes", "phi_init", "povm", "states", "hardy"}


def encode_vector(amplitudes: np.ndarray) -> list[list[float]]:
    return np.ascontiguousarray(amplitudes, dtype=complex).view(float).reshape(-1, 2).tolist()


_PAIR_TYPES = frozenset((list, tuple))
_REAL_TYPES = frozenset((int, float))
# An entry longer than this is cut in the error that names it.
_SHOWN_ENTRY_CHARS = 80


def _wrong_length(what: str, length: int, matrix: bool = False) -> ScenarioFileError:
    """The reader's error for a vector or matrix entry of the wrong length."""
    expected = f"a {length}x{length} matrix" if matrix else f"{length} [re, im] pairs"
    return ScenarioFileError(f"{what}: expected {expected}")


def decode_vector(obj: object, length: int, what: str) -> np.ndarray:
    """Decode a list of ``length`` [re, im] pairs of exact ints or floats bit for bit
    (-0.0 kept), pair by pair, so the first pair at fault is the one named, then in one
    conversion, which names an int beyond float range. Finiteness is left to the caller."""
    if type(obj) is not list or len(obj) != length:
        raise _wrong_length(what, length)
    for entry in obj:
        if (
            type(entry) not in _PAIR_TYPES
            or len(entry) != 2
            or not _REAL_TYPES.issuperset(map(type, entry))
        ):
            shown = repr(entry)
            if len(shown) > _SHOWN_ENTRY_CHARS:
                shown = f"{shown[:_SHOWN_ENTRY_CHARS]}... ({len(shown)} characters)"
            raise ScenarioFileError(f"{what}: expected an [re, im] pair, got {shown}")
    try:
        return np.array(obj, dtype=float).reshape(-1).view(complex)
    except OverflowError:  # an int beyond float range
        raise ScenarioFileError(f"{what}: an amplitude is too large for a float") from None


def decode_matrix(obj: object, dim: int, what: str) -> np.ndarray:
    """Decode a list of ``dim`` rows, each as ``decode_vector`` decodes it, row by row,
    so the first row at fault is the one named, into one ``(dim, dim)`` array."""
    if type(obj) is not list or len(obj) != dim:
        raise _wrong_length(what, dim, matrix=True)
    return np.stack([decode_vector(row, dim, what) for row in obj])


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


@dataclass(frozen=True, eq=False)
class Scenario(ByValue):
    """Parsed contents of one scenario file.

    ``system_dim`` must be an integer of at least 1, as for a stack (``space-dim``).
    ``dilation`` checks itself and stores its ``phi_init`` as a read-only copy. Each
    state (a ket, or a square density matrix) is stored as a read-only complex copy of
    the system dimension and compares by value; ``states`` is a read-only mapping. A
    mixed state is checked here at ``tol`` by ``density_matrix`` (``hermiticity``,
    ``positivity``, ``unit-trace``) and stored as the matrix it returns; a pure state's
    normalisation is checked where it is used.
    """

    system_dim: int
    dilation: Dilation | None = None
    povm: Povm | None = None
    states: Mapping[str, np.ndarray] = field(default_factory=dict)
    hardy: tuple[str, str, str] | None = None
    tol: float = field(default=DEFAULT_TOL, kw_only=True, compare=False, repr=False)

    def __post_init__(self) -> None:
        """Refuse a part that the file could not hold, as the reader would refuse it."""
        require_space_dims((self.system_dim,))
        d = self.dilation
        if d is not None and d.sys_dim != self.system_dim:
            raise _wrong_length(f"outcome {d.labels()[0]!r}", d.env_dim * self.system_dim)
        if self.hardy is not None and not all(isinstance(label, str) for label in self.hardy):
            raise ScenarioFileError("hardy labels must be strings")
        if self.povm is not None and self.povm.system_dim != self.system_dim:
            first = f"povm {self.povm.labels()[0]!r}"
            raise _wrong_length(first, self.system_dim, matrix=0 in self.povm.operators)
        states = {}
        for label, state in self.states.items():
            if not isinstance(label, str):
                raise ScenarioFileError("states: every entry needs a string label")
            state = states[label] = state_array(state, f"for state {label!r}")
            if len(state) != self.system_dim:
                raise _wrong_length(f"state {label!r}", self.system_dim, matrix=state.ndim == 2)
            if state.ndim == 2:
                states[label] = density_matrix(state, self.system_dim, self.tol)
        object.__setattr__(self, "states", MappingProxyType(states))

    def resolve_povm(self) -> Povm:
        """The file's POVM, deriving it from the dilation when absent."""
        if self.povm is not None:
            return self.povm
        if self.dilation is not None:
            return povm_from_dilation(self.dilation)
        raise ScenarioFileError("the file carries neither a povm nor a dilation")


def _positive_int(raw: dict, key: str) -> int:
    value = raw.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ScenarioFileError(f"{key} must be a positive integer")
    return value


def _section(
    raw: object, section: str, dim: int, what: str, noun: str = ""
) -> tuple[list[str], np.ndarray, dict[int, np.ndarray]]:
    """Labels, an ``(M, dim)`` stack with zero rows at matrix entries, and each matrix
    entry's read-only ``(dim, dim)`` entries by position.

    An entry may hold only a label and a vector, and with ``noun`` a matrix in
    place of the vector; any other key is refused, as are unknown top-level keys.
    Well-formed vectors are decoded in one call, their finiteness left to the
    stack's constructor, which raises what the first non-finite entry would.
    Any other section is read entry by entry, each decoded in full, finiteness
    included, before the next, and stacked after the last, so no array outgrows
    the entries read. The first entry that fails to decode is the one named; the
    physics of each entry is left to the type built from the whole section.
    ``what`` names an entry in decode errors, ``noun`` in the one-payload rule.
    """
    if not isinstance(raw, list):
        raise ScenarioFileError(f"{section} must be a list")
    allowed = {"label", "vector", "matrix"} if noun else {"label", "vector"}
    seen = set()
    for item in raw:
        if not isinstance(item, dict) or not isinstance(item.get("label"), str):
            raise ScenarioFileError(f"{section}: every entry needs a string label")
        if item["label"] in seen:
            raise ScenarioFileError(f"{section}: duplicate label {item['label']!r}")
        seen.add(item["label"])
        if not item.keys() <= allowed:
            unknown = sorted(item.keys() - allowed)
            raise ScenarioFileError(f"{what} {item['label']!r}: unknown keys {unknown}")
    labels = [item["label"] for item in raw]
    if not any("matrix" in item for item in raw):
        stack = _decode_section([item.get("vector") for item in raw], dim)
        if stack is not None:
            return labels, stack, {}
    rows, matrices = [], {}
    for k, (label, item) in enumerate(zip(labels, raw)):
        name = f"{what} {label!r}"
        if noun and ("vector" in item) == ("matrix" in item):
            raise ScenarioFileError(f"{noun} {label!r} needs exactly one of vector/matrix")
        if not noun or "vector" in item:
            rows.append(amplitudes(decode_vector(item.get("vector"), dim, name), (dim,), name))
        else:
            matrices[k] = entries(decode_matrix(item["matrix"], dim, name), dim, name)
            rows.append(np.zeros(dim, dtype=complex))
    return labels, np.array(rows, dtype=complex).reshape(len(rows), dim), matrices


def scenario_from_dict(raw: dict, tol: float = DEFAULT_TOL) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioFileError("scenario file must hold a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ScenarioFileError(f"unknown keys {sorted(unknown)}")
    if raw.get("version") != SCHEMA_VERSION:
        raise ScenarioFileError(f"unsupported version {raw.get('version')!r}")
    system_dim = _positive_int(raw, "system_dim")

    dilation = None
    if "outcomes" in raw or "phi_init" in raw:
        if "outcomes" not in raw or "phi_init" not in raw:
            raise ScenarioFileError("outcomes and phi_init must appear together")
        env_dim = _positive_int(raw, "env_dim")
        joint_dim = env_dim * system_dim
        labels, vectors, _ = _section(raw["outcomes"], "outcomes", joint_dim, "outcome")
        phi_init = decode_vector(raw["phi_init"], env_dim, "phi_init")
        dilation = Dilation(env_dim, system_dim, labels, vectors, phi_init, tol)
    elif "env_dim" in raw:  # checked, though nothing reads it without a dilation
        _positive_int(raw, "env_dim")

    povm = None
    if "povm" in raw:
        section = _section(raw["povm"], "povm", system_dim, "povm", "povm element")
        povm = Povm(system_dim, *section, tol)

    states: dict[str, np.ndarray] = {}
    if "states" in raw:
        labels, vectors, matrices = _section(raw["states"], "states", system_dim, "state", "state")
        for k, (label, row) in enumerate(zip(labels, vectors)):
            states[label] = matrices.get(k, row)

    hardy = None
    if "hardy" in raw:
        block = raw["hardy"]
        if not isinstance(block, dict) or set(block) != {"f", "d1", "d2"}:
            raise ScenarioFileError("hardy must map exactly the keys f, d1, d2")
        hardy = (block["f"], block["d1"], block["d2"])

    return Scenario(system_dim, dilation, povm, states, hardy, tol=tol)


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
    if s.dilation is not None:
        d = s.dilation
        fields["env_dim"] = [str(int(d.env_dim))]
        fields["outcomes"] = _section_text(d.labels(), d.vectors, {})
        fields["phi_init"] = _vectors(d.phi_init[None], "  ")
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


def save_scenario(path: str | Path, s: Scenario) -> None:
    """Write the file text of ``s``, the one written form of a scenario: for that
    ``text``, ``json.dumps(json.loads(text), indent=2) + "\\n" == text``. The text is
    formatted chunk by chunk into the file, opened first, so a failure part-way leaves
    it truncated, as a failed write does (none is known for a constructed ``Scenario``).
    The file records no tol: a part that passed only at a looser ``s.tol`` than the
    reader's is refused on reading at the default."""
    try:
        with open(path, "w", encoding="utf-8") as file:
            file.writelines(_scenario_text(s))
            file.write("\n")
    except OSError as exc:
        raise ScenarioFileError(f"cannot write {path}: {exc}") from exc
