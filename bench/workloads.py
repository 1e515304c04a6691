"""Seeded inputs, op cycles and plain-numpy output checks for each workload.

Every reference here is computed from the input files with numpy alone, never
with ctxlab, so a defect in the library cannot hide in its own reference.
"""

from __future__ import annotations

import json
import re
import shutil
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOL = 1e-9  # the CLI's default tolerance; no op passes --tol
AGREE = 1e-9  # how far a number the CLI prints may sit from its reference
RESIDUAL_AGREE = 1e-12  # completeness residuals differ only by summation order
# Generated pairs have a normalised overlap within EXACT of 0 or 1, or at least
# MARGIN away from both, so no verdict depends on how the tolerance is applied.
EXACT = 1e-12
MARGIN = 1e-3

# Published values of the hardy fixture (README and acceptance gate).
PUBLISHED_LHS = 1.0 / 9.0
PUBLISHED_RHS = 0.0
PUBLISHED_CERTIFICATION = {"c1": 2.0 / 3.0, "c2": 2.0 / 3.0, "r1": 1.0 / 3.0, "r2": 1.0 / 3.0}
PUBLISHED_MAX_VIOLATION = 0.228713553878
PUBLISHED_DA_STAR = {frozenset(("D1", "A")), frozenset(("D2", "A")), frozenset(("D3", "A"))}

FIXTURES = ("three-path-VH", "three-path-DA", "hardy")
GROWN_DIM = 16
DILATION_SIZES = ((4, 16), (4, 32), (4, 64), (8, 16), (8, 32), (8, 64))


class BenchError(Exception):
    """The benchmark cannot build its inputs or references."""


@dataclass
class Op:
    """One CLI invocation and the check of what it printed."""

    name: str
    argv: list[str]
    check: Callable[[str], str | None]  # None when the output is right, else why not
    graph_nodes: int = 0  # nodes whose pairs a context graph tests; 0 without a graph
    warmup: bool = False  # run once before timing starts


# ---------------------------------------------------------------------------
# plain-numpy views of scenario files


def _complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _labelled(entries: list[dict]) -> tuple[list[str], np.ndarray]:
    return [e["label"] for e in entries], _complex([e["vector"] for e in entries])


@dataclass
class RefPovm:
    labels: list[str]
    vecs: np.ndarray  # (M, d) rank-1 element amplitudes
    residual: float  # max-entry residual of sum |a><a| - I
    bound: float  # worst element weight above 1


def ref_povm(labels: list[str], vecs: np.ndarray) -> RefPovm:
    total = vecs.T @ vecs.conj()
    residual = float(np.abs(total - np.eye(vecs.shape[1])).max())
    weights = np.einsum("ij,ij->i", vecs.conj(), vecs).real
    return RefPovm(labels, vecs, residual, max(float((weights - 1.0).max()), 0.0))


@dataclass
class RefGraph:
    nodes: list[str]
    edges: dict[frozenset, float]  # pair -> normalised overlap magnitude
    skipped: list[str]


def ref_graph(labels: list[str], vecs: np.ndarray) -> RefGraph:
    """Edges of a thresholded normalised Gram matrix."""
    weights = np.einsum("ij,ij->i", vecs.conj(), vecs).real
    keep = weights > TOL
    nodes = [label for label, k in zip(labels, keep) if k]
    unit = vecs[keep] / np.sqrt(weights[keep])[:, None]
    overlap = np.abs(unit.conj() @ unit.T)
    i, j = np.triu_indices(len(nodes), 1)
    w = overlap[i, j]
    shared = (w <= TOL) | (w >= 1.0 - TOL)
    edges = {
        frozenset((nodes[a], nodes[b])): float(x)
        for a, b, x in zip(i[shared], j[shared], w[shared])
    }
    skipped = [label for label, k in zip(labels, keep) if not k]
    return RefGraph(nodes, edges, skipped)


def _overlaps_clear(vecs: np.ndarray) -> bool:
    unit = vecs / np.linalg.norm(vecs, axis=1)[:, None]
    w = np.abs(unit.conj() @ unit.T)[np.triu_indices(len(vecs), 1)]
    exact = (w <= EXACT) | (np.abs(w - 1.0) <= EXACT)
    generic = (w >= MARGIN) & (w <= 1.0 - MARGIN)
    return bool(np.all(exact | generic))


# ---------------------------------------------------------------------------
# output checks


def _near(got: float, want: float, what: str, tol: float = AGREE) -> str | None:
    if not abs(got - want) <= tol:
        return f"{what} {got!r} != reference {want!r}"
    return None


def _first(*messages: str | None) -> str | None:
    return next((m for m in messages if m is not None), None)


def _compare_graph(ref: RefGraph, edges: dict[frozenset, float], count: int) -> str | None:
    if count != len(ref.edges) or set(edges) != set(ref.edges):
        return f"edge set differs: {len(edges)} edges, reference {len(ref.edges)}"
    worst = max((abs(edges[k] - ref.edges[k]) for k in edges), default=0.0)
    return _near(worst, 0.0, "worst witness error")


_TEXT_EDGE = re.compile(r"^  (.+) -- (.+) \(witness=([^)]+)\)$")
_TEXT_HEAD = re.compile(r"^context graph: (\d+) nodes, (\d+) edges$")
_DOT_EDGE = re.compile(r'^  "(.+)" -- "(.+)" \[witness="(.+)"\];$')
_DOT_NODE = re.compile(r'^  "(.+)";$')


def _check_graph_lines(ref: RefGraph, lines: list[str]) -> str | None:
    """The text graph block: header, edge lines, optional skipped line."""
    head = _TEXT_HEAD.match(lines[0]) if lines else None
    if head is None:
        return "no context graph header"
    if int(head.group(1)) != len(ref.nodes):
        return f"{head.group(1)} nodes, reference {len(ref.nodes)}"
    edges, skipped = {}, []
    for line in lines[1:]:
        m = _TEXT_EDGE.match(line)
        if m:
            edges[frozenset((m.group(1), m.group(2)))] = float(m.group(3))
        elif line.startswith("  skipped zero-weight outcomes: "):
            skipped = line.split(": ", 1)[1].split(", ")
        else:
            return f"unexpected line {line!r}"
    if skipped != ref.skipped:
        return "skipped outcomes differ"
    return _compare_graph(ref, edges, int(head.group(2)))


def check_graph_text(ref: RefGraph) -> Callable[[str], str | None]:
    return lambda out: _check_graph_lines(ref, out.splitlines())


def check_graph_dot(ref: RefGraph) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        lines = out.splitlines()
        if not lines or lines[0] != "graph contexts {" or lines[-1] != "}":
            return "not a DOT graph"
        nodes, edges, count = [], {}, 0
        for line in lines[1:-1]:
            edge, node = _DOT_EDGE.match(line), _DOT_NODE.match(line)
            if edge:
                edges[frozenset((edge.group(1), edge.group(2)))] = float(edge.group(3))
                count += 1
            elif node:
                nodes.append(node.group(1))
            else:
                return f"unexpected DOT line {line!r}"
        if nodes != ref.nodes:
            return "DOT nodes differ"
        return _compare_graph(ref, edges, count)

    return check


def check_graph_json(ref: RefGraph) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        got = json.loads(out)
        if got["nodes"] != ref.nodes or got["skipped"] != ref.skipped:
            return "JSON nodes or skipped differ"
        edges = {frozenset((a, b)): float(w) for a, b, w in got["edges"]}
        return _compare_graph(ref, edges, len(got["edges"]))

    return check


def check_povm_text(ref: RefPovm) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        lines = out.splitlines()
        want = f"povm: {len(ref.labels)} elements, system_dim={ref.vecs.shape[1]}"
        if len(lines) != 4 or lines[0] != want:
            return f"povm check header {lines[:1]!r}, expected {want!r}"
        if lines[3] != "result: ok (tol=1e-09)":
            return f"verdict {lines[3]!r}"
        residual = float(lines[1].removeprefix("completeness residual: "))
        bound = float(lines[2].removeprefix("element bound residual: "))
        return _first(
            _near(residual, ref.residual, "completeness residual", RESIDUAL_AGREE),
            _near(bound, ref.bound, "element bound residual", RESIDUAL_AGREE),
        )

    return check


def check_povm_json(ref: RefPovm) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        got = json.loads(out)
        if got["elements"] != len(ref.labels) or got["system_dim"] != ref.vecs.shape[1]:
            return "element count or dimension differs"
        if got["ok"] is not True:
            return "verdict is not ok"
        return _first(
            _near(got["completeness_residual"], ref.residual, "completeness", RESIDUAL_AGREE),
            _near(got["element_bound_residual"], ref.bound, "element bound", RESIDUAL_AGREE),
        )

    return check


def check_scenario_run(ref_p: RefPovm, ref_g: RefGraph) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        lines = out.splitlines()
        want = f"povm: {len(ref_p.labels)} elements, system_dim=3"
        if len(lines) < 3 or lines[2] != want:
            return f"scenario header differs from {want!r}"
        residual = next(
            (float(ln.split(": ")[1]) for ln in lines if ln.startswith("completeness residual")),
            None,
        )
        if residual is None or residual > TOL:
            return f"completeness residual {residual!r}"
        start = next((k for k, ln in enumerate(lines) if ln.startswith("context graph:")), None)
        if start is None:
            return "no context graph block"
        return _check_graph_lines(ref_g, lines[start:])

    return check


def _phase_aligned_error(got: np.ndarray, want: np.ndarray) -> float:
    overlap = np.einsum("ij,ij->i", want.conj(), got)
    size = np.abs(overlap)
    phase = np.divide(overlap, size, out=np.ones_like(overlap), where=size > 0.0)
    return float(np.abs(got - phase[:, None] * want).max())


def check_dilated_file(path: Path, ref: RefPovm) -> str | None:
    """The dilated file holds orthonormal outcomes whose contraction is the input."""
    raw = json.loads(path.read_text())
    count, dim = ref.vecs.shape
    if raw["system_dim"] != dim or raw["env_dim"] != count:
        return "dilated file has the wrong dimensions"
    labels, outcomes = _labelled(raw["outcomes"])
    if labels != ref.labels:
        return "dilated outcome labels differ"
    gram_error = float(np.abs(outcomes.conj() @ outcomes.T - np.eye(count)).max())
    phi = _complex(raw["phi_init"])
    contracted = np.einsum("e,mes->ms", phi.conj(), outcomes.reshape(count, count, dim))
    povm_labels, povm_vecs = _labelled(raw["povm"])
    if povm_labels != ref.labels:
        return "dilated povm labels differ"
    return _first(
        _near(gram_error, 0.0, "outcome orthonormality residual"),
        _near(_phase_aligned_error(contracted, ref.vecs), 0.0, "contracted outcome error"),
        _near(_phase_aligned_error(povm_vecs, ref.vecs), 0.0, "dilated povm error"),
    )


def check_dilate(out_path: Path, ref: RefPovm) -> Callable[[str], str | None]:
    count = len(ref.labels)
    want = f"wrote {out_path}: env_dim={count}, {count} joint outcomes\n"
    return lambda out: (
        f"dilate printed {out!r}" if out != want else check_dilated_file(out_path, ref)
    )


@dataclass
class RefHardy:
    lhs: float
    rhs: float
    violated: bool
    certification: dict[str, float]
    state_label: str
    gap_matrix: np.ndarray  # P_F - P_D1 - P_D2
    max_violation: float


def ref_hardy(raw: dict) -> RefHardy:
    labels, vecs = _labelled(raw["povm"])

    def unit(key):
        v = vecs[labels.index(raw["hardy"][key])]
        return v / np.linalg.norm(v)

    f, d1, d2 = unit("f"), unit("d1"), unit("d2")
    (state_label,), (psi,) = _labelled(raw["states"])

    def prob(u, state):
        return float(abs(np.vdot(u, state)) ** 2)

    def basis(d):
        rest = f - np.vdot(d, f) * d
        return rest / np.linalg.norm(rest)

    lhs, rhs = prob(f, psi), prob(d1, psi) + prob(d2, psi)
    certification = {
        "c1": prob(f, d1),
        "c2": prob(f, d2),
        "r1": prob(f, basis(d1)),
        "r2": prob(f, basis(d2)),
    }
    gap = sum(s * np.outer(u, u.conj()) for s, u in ((1, f), (-1, d1), (-1, d2)))
    return RefHardy(
        lhs,
        rhs,
        lhs > rhs + TOL,
        certification,
        state_label,
        gap,
        float(np.linalg.eigvalsh(gap)[-1]),
    )


def _check_published(ref: RefHardy) -> None:
    """The numpy references must reproduce the published values."""
    published = [
        (ref.lhs, PUBLISHED_LHS),
        (ref.rhs, PUBLISHED_RHS),
        (ref.max_violation, PUBLISHED_MAX_VIOLATION),
    ] + [(ref.certification[k], v) for k, v in PUBLISHED_CERTIFICATION.items()]
    for got, want in published:
        if not abs(got - want) <= 1e-12:  # published values carry 12 digits
            raise BenchError(f"numpy reference {got!r} misses the published value {want!r}")
    if not ref.violated:
        raise BenchError("numpy reference does not violate the inequality")


def check_inequality_text(ref: RefHardy) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != 5 or lines[2] != f"violated {'true' if ref.violated else 'false'}":
            return f"inequality verdict lines {lines!r}"
        if lines[4] != f"state {ref.state_label}":
            return "state label differs"
        cert = dict(item.split("=") for item in lines[3].removeprefix("certification ").split())
        return _first(
            _near(float(lines[0].removeprefix("lhs ")), ref.lhs, "lhs"),
            _near(float(lines[1].removeprefix("rhs ")), ref.rhs, "rhs"),
            *(_near(float(cert[k]), v, k) for k, v in ref.certification.items()),
        )

    return check


def check_inequality_json(ref: RefHardy) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        got = json.loads(out)
        if got["violated"] is not ref.violated or got["state"] != ref.state_label:
            return "inequality verdict or state differs"
        return _first(
            _near(got["lhs"], ref.lhs, "lhs"),
            _near(got["rhs"], ref.rhs, "rhs"),
            *(_near(got["certification"][k], v, k) for k, v in ref.certification.items()),
        )

    return check


def _check_violation(ref: RefHardy, value: float, state: np.ndarray) -> str | None:
    attained = float(np.vdot(state, ref.gap_matrix @ state).real)
    return _first(
        _near(value, ref.max_violation, "max violation"),
        _near(float(np.linalg.norm(state)), 1.0, "state norm"),
        _near(attained, ref.max_violation, "gap at the printed state"),
    )


def check_violation_text(ref: RefHardy) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != 2 or not lines[1].startswith("state [") or not lines[1].endswith("]"):
            return f"max-violation lines {lines!r}"
        state = np.array([complex(z) for z in lines[1][7:-1].split(", ")])
        return _check_violation(ref, float(lines[0].removeprefix("max violation ")), state)

    return check


def check_violation_json(ref: RefHardy) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        got = json.loads(out)
        return _check_violation(ref, got["value"], _complex(got["state"]))

    return check


# ---------------------------------------------------------------------------
# seeded generators


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _until_clear(make: Callable[[], tuple[list[str], np.ndarray]]):
    for _ in range(100):
        labels, vecs = make()
        if _overlaps_clear(vecs):
            return labels, vecs
    raise BenchError("could not draw inputs with clear overlaps")


def isometry_povm(rng: np.random.Generator, dim: int, count: int):
    """Rows of a Haar-random isometry: a complete rank-1 POVM with no edges."""

    def make():
        rows = _unitary(rng, count)[:, :dim].conj()
        return [f"m{k}" for k in range(count)], rows

    return _until_clear(make)


def mixture_povm(rng: np.random.Generator, dim: int, count: int, split: bool):
    """Equal-weight mixture of random orthonormal bases.

    With ``split``, one basis fewer is drawn and ``dim`` elements are each
    split into two exactly proportional parts (amplitudes c*u and 2c*u), which
    adds proportional edges. Every pair inside a basis shares a context; pairs
    across bases are generic.
    """
    bases = count // dim - (1 if split else 0)
    splits = count - bases * dim

    def make():
        labels, rows = [], []
        split_at = {(i % bases, i // bases) for i in range(splits)}
        for b in range(bases):
            basis = _unitary(rng, dim)
            for a in range(dim):
                u = basis[:, a] / np.sqrt(bases)
                if (b, a) in split_at:
                    c = u / np.sqrt(5.0)
                    labels += [f"b{b}:{a}", f"b{b}:{a}'"]
                    rows += [c, 2.0 * c]
                else:
                    labels.append(f"b{b}:{a}")
                    rows.append(u)
        return labels, np.array(rows)

    return _until_clear(make)


def _write_povm(path: Path, labels: list[str], vecs: np.ndarray) -> None:
    raw = {
        "version": 1,
        "system_dim": int(vecs.shape[1]),
        "povm": [
            {"label": label, "vector": [[float(z.real), float(z.imag)] for z in row]}
            for label, row in zip(labels, vecs)
        ],
    }
    path.write_text(json.dumps(raw, indent=2) + "\n")


# ---------------------------------------------------------------------------
# workloads


def _paper_fixtures(rng: np.random.Generator, work: Path, data: Path) -> list[Op]:
    raws, povms, graphs = {}, {}, {}
    for name in FIXTURES:
        shutil.copyfile(data / f"{name}.json", work / f"{name}.json")
        raws[name] = json.loads((work / f"{name}.json").read_text())
        povms[name] = ref_povm(*_labelled(raws[name]["povm"]))
        graphs[name] = ref_graph(povms[name].labels, povms[name].vecs)
    if set(graphs["three-path-DA"].edges) != PUBLISHED_DA_STAR:
        raise BenchError("numpy reference misses the published D1/D2/D3-A star graph")
    hardy = ref_hardy(raws["hardy"])
    _check_published(hardy)

    def path(name: str) -> str:
        return str(work / f"{name}.json")

    run = ["scenario", "run", "three-path"]
    ops = [
        Op(
            "scenario run DA --merge-a",
            run + ["--basis", "DA", "--merge-a"],
            check_scenario_run(povms["three-path-DA"], graphs["three-path-DA"]),
            len(graphs["three-path-DA"].nodes),
        ),
        Op(
            "scenario run VH",
            run + ["--basis", "VH"],
            check_scenario_run(povms["three-path-VH"], graphs["three-path-VH"]),
            len(graphs["three-path-VH"].nodes),
        ),
    ]
    for name in FIXTURES:
        p, g = povms[name], graphs[name]
        out = work / f"{name}.dilated.json"
        ops += [
            Op(f"povm check {name}", ["povm", "check", path(name)], check_povm_text(p)),
            Op(f"povm check --json {name}", ["povm", "check", "--json", path(name)],
               check_povm_json(p)),
            Op(f"context-graph {name}", ["context-graph", path(name)], check_graph_text(g),
               len(g.nodes)),
            Op(f"context-graph --dot {name}", ["context-graph", "--dot", path(name)],
               check_graph_dot(g), len(g.nodes)),
            Op(f"context-graph --json {name}", ["context-graph", "--json", path(name)],
               check_graph_json(g), len(g.nodes)),
            Op(f"dilate {name}", ["dilate", path(name), "-o", str(out)], check_dilate(out, p)),
        ]
    ops += [
        Op("inequality hardy", ["inequality", path("hardy")], check_inequality_text(hardy)),
        Op("inequality --json hardy", ["inequality", "--json", path("hardy")],
           check_inequality_json(hardy)),
        Op("max-violation hardy", ["max-violation", path("hardy")], check_violation_text(hardy)),
        Op("max-violation --json hardy", ["max-violation", "--json", path("hardy")],
           check_violation_json(hardy)),
    ]
    order = rng.permutation(len(ops))
    ops = [ops[k] for k in order]
    for op in ops:
        op.warmup = True
    return ops


# (kind, M, context-graph output flags); every file also gets `povm check --json`.
# No op takes much over 0.3 s, so a 30 s run times each op about 20 times.
GROWN_FILES = (
    [(kind, 64, ("", "--json")) for kind in ("mix", "mix-split", "iso", "iso")]
    + [("mix-split", 128, ("",)), ("iso", 128, ("--json",))]
)


def _grown_context(rng: np.random.Generator, work: Path, data: Path) -> list[Op]:
    ops = []
    for index, (kind, count, flags) in enumerate(GROWN_FILES):
        if kind == "iso":
            labels, vecs = isometry_povm(rng, GROWN_DIM, count)
        else:
            labels, vecs = mixture_povm(rng, GROWN_DIM, count, split=kind == "mix-split")
        path = work / f"{kind}-m{count}-{index}.json"
        _write_povm(path, labels, vecs)
        p, g = ref_povm(labels, vecs), ref_graph(labels, vecs)
        tag = f"{kind} M={count}"
        small = count == 64 and index < 4
        ops.append(Op(f"povm check --json {tag}", ["povm", "check", "--json", str(path)],
                      check_povm_json(p), warmup=small))
        for flag in flags:
            command = ["context-graph", flag] if flag else ["context-graph"]
            check = check_graph_json(g) if flag else check_graph_text(g)
            ops.append(Op(" ".join(command + [tag]), command + [str(path)], check,
                          len(g.nodes), warmup=small))
    order = rng.permutation(len(ops))
    return [ops[k] for k in order]


def _dilation_roundtrip(rng: np.random.Generator, work: Path, data: Path) -> list[Op]:
    pairs = []
    for dim, count in DILATION_SIZES:
        labels, vecs = isometry_povm(rng, dim, count)
        source = work / f"povm-d{dim}-m{count}.json"
        target = work / f"povm-d{dim}-m{count}.dilated.json"
        _write_povm(source, labels, vecs)
        p = ref_povm(labels, vecs)
        tag = f"d={dim} M={count}"
        smallest = (dim, count) == DILATION_SIZES[0]
        pairs.append([
            Op(f"dilate {tag}", ["dilate", str(source), "-o", str(target)],
               check_dilate(target, p), warmup=smallest),
            Op(f"povm check --json dilated {tag}", ["povm", "check", "--json", str(target)],
               check_povm_json(p), warmup=smallest),
        ])
    order = rng.permutation(len(pairs))
    return [op for k in order for op in pairs[k]]


WORKLOADS = {
    "paper-fixtures": _paper_fixtures,
    "grown-context": _grown_context,
    "dilation-roundtrip": _dilation_roundtrip,
}


def build(name: str, seed: int, work: Path, data: Path) -> list[Op]:
    """Write the workload's inputs under ``work`` and return one cycle of ops."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, work, data)
