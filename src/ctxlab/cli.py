"""Command-line interface.

Exit codes: 0 success, 1 stdout closed by the reader, 2 input or file-schema
error, 3 violated invariant, 4 numerical failure. Numbers print with 12
significant digits. ``povm check``, ``context-graph``, ``inequality`` and
``max-violation`` each build one report: ``--json`` prints it as JSON, and the
text (or ``--dot``) output renders the same report.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from collections.abc import Callable

import numpy as np

from . import __version__
from .contextuality import HardyTriple, evaluate_inequality, max_violation
from .errors import ScenarioFileError, SpaceMismatchError, UnknownLabelError, ValidationError
from .hilbert import DEFAULT_TOL, gram
from .dilation import naimark_dilate, povm_from_dilation
from .interferometer import build_three_path, dilation_DA, dilation_VH
from .povm import (
    ContextGraph,
    Povm,
    coarse_grain,
    completeness_check,
    context_graph,
    element_bound_residual,
    validate_povm,
)
from .scenario_io import Scenario, encode_vector, load_scenario, save_scenario


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _fmt_complex(z: complex) -> str:
    return _fmt(z.real) if z.imag == 0.0 else f"{_fmt(z.real)}{z.imag:+.12g}j"


def _fmt_vector(amplitudes) -> str:
    return "[" + ", ".join(_fmt_complex(complex(z)) for z in amplitudes) + "]"


def _emit(args: argparse.Namespace, report: dict, render: Callable[[dict], str]) -> int:
    """Print the report, as JSON under ``--json`` and else as ``render`` writes it; exit 0."""
    print(json.dumps(report) if args.json else render(report))
    return 0


def _graph_report(graph: ContextGraph) -> dict:
    return {"nodes": graph.nodes, "edges": graph.edges, "skipped": graph.skipped}


def _graph_text(report: dict) -> str:
    lines = [f"context graph: {len(report['nodes'])} nodes, {len(report['edges'])} edges"]
    lines += [f"  {a} -- {b} (witness={_fmt(witness)})" for a, b, witness in report["edges"]]
    if report["skipped"]:
        lines.append(f"  skipped zero-weight outcomes: {', '.join(report['skipped'])}")
    return "\n".join(lines)


def _graph_dot(report: dict) -> str:
    """Graphviz DOT with the witness as an edge attribute. Labels are quoted IDs, a double
    quote written ``\\"``. DOT cannot escape a final ``\\``, so such a label is an input error."""
    for node in report["nodes"]:
        if node.endswith("\\"):
            raise ScenarioFileError(f"DOT cannot quote the label {node!r}: it ends in a backslash")
    ids = {node: '"' + node.replace('"', '\\"') + '"' for node in report["nodes"]}
    lines = [f"  {ids[node]};" for node in report["nodes"]]
    lines += [f'  {ids[a]} -- {ids[b]} [witness="{_fmt(w)}"];' for a, b, w in report["edges"]]
    return "\n".join(["graph contexts {", *lines, "}"])


def _check_text(report: dict) -> str:
    return (
        f"povm: {report['elements']} elements, system_dim={report['system_dim']}\n"
        f"completeness residual: {_fmt(report['completeness_residual'])}\n"
        f"element bound residual: {_fmt(report['element_bound_residual'])}\n"
        f"result: {'ok' if report['ok'] else 'FAIL'} (tol={_fmt(report['tol'])})"
    )


def _inequality_text(report: dict) -> str:
    certification = " ".join(f"{k}={_fmt(v)}" for k, v in report["certification"].items())
    return (
        f"lhs {_fmt(report['lhs'])}\nrhs {_fmt(report['rhs'])}\n"
        f"violated {'true' if report['violated'] else 'false'}\n"
        f"certification {certification}\nstate {report['state']}"
    )


def _violation_text(report: dict) -> str:
    state = _fmt_vector(complex(*pair) for pair in report["state"])
    return f"max violation {_fmt(report['value'])}\nstate {state}"


def _print_povm_report(p: Povm, tol: float) -> None:
    print(f"povm: {len(p)} elements, system_dim={p.system_dim}")
    print("elements:")
    labels = p.labels()
    for k, (label, row, values) in enumerate(zip(labels, p.vectors, np.sort(p.eigenvalues))):
        if p._rank_one[k]:  # a row's one nonzero eigenvalue is its weight
            print(f"  {label}: weight={_fmt(values[-1])} vector={_fmt_vector(row)}")
        else:
            trace, shown = _fmt(values.sum()), _fmt_vector(values)
            print(f"  {label}: operator trace={trace} eigenvalues={shown}")
    print(f"completeness residual: {_fmt(completeness_check(p))}")
    positions = np.flatnonzero(p._rank_one).tolist()
    if len(positions) > 1:
        print("gram (vector elements):")
        for k, row in zip(positions, gram(p.vectors[positions])):
            print(f"  {labels[k]}: {_fmt_vector(row)}")
    print(_graph_text(_graph_report(context_graph(p, tol))))


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    if args.name != "three-path":
        print(f"unknown scenario {args.name!r}; available: three-path", file=sys.stderr)
        return 2
    if args.merge_a and args.basis != "DA":
        print("--merge-a needs --basis DA (the V/H basis has no A outcomes)", file=sys.stderr)
        return 2
    s = build_three_path()
    phi = {"D": s.d, "A": s.a, "H": s.h, "V": s.v}[args.phi_init]
    build = dilation_DA if args.basis == "DA" else dilation_VH
    d = build(s, phi, args.tol)
    p = povm_from_dilation(d)
    if args.merge_a:
        p = coarse_grain(p, ("A1", "A2", "A3"), "A")
    merged = "yes" if args.merge_a else "no"
    print(f"scenario three-path: basis={args.basis} phi_init={args.phi_init} merge_A={merged}")
    print(f"system_dim=3 env_dim=2 outcomes={len(d)}")
    _print_povm_report(p, args.tol)
    return 0


def _cmd_povm_check(args: argparse.Namespace) -> int:
    p = load_scenario(args.file, args.tol).resolve_povm()
    completeness, bounds = completeness_check(p), element_bound_residual(p)
    report = dict(
        elements=len(p), system_dim=p.system_dim, completeness_residual=completeness,
        element_bound_residual=bounds, tol=args.tol, ok=max(completeness, bounds) <= args.tol,
    )
    _emit(args, report, _check_text)
    if args.strict and not report["ok"]:
        validate_povm(p, args.tol)
    return 0


def _cmd_dilate(args: argparse.Namespace) -> int:
    p = load_scenario(args.file, args.tol).resolve_povm()
    d = naimark_dilate(p, args.tol)
    save_scenario(args.output, Scenario(p.system_dim, d, povm_from_dilation(d)))
    print(f"wrote {args.output}: env_dim={d.env_dim}, {len(d)} joint outcomes")
    return 0


def _cmd_context_graph(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.file, args.tol)
    graph = context_graph(scenario.resolve_povm(), args.tol)
    return _emit(args, _graph_report(graph), _graph_dot if args.dot else _graph_text)


def _hardy_inputs(scenario: Scenario, tol: float) -> HardyTriple:
    if scenario.hardy is None:
        raise ScenarioFileError("the file carries no hardy block")
    return HardyTriple(scenario.resolve_povm(), *scenario.hardy, tol=tol)


def _cmd_inequality(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.file, args.tol)
    triple = _hardy_inputs(scenario, args.tol)
    if args.state is not None:
        if args.state not in scenario.states:
            raise ScenarioFileError(f"no state labelled {args.state!r} in the file")
        label, state = args.state, scenario.states[args.state]
    elif len(scenario.states) == 1:
        label, state = next(iter(scenario.states.items()))
    else:
        raise ScenarioFileError("choose a state with --state; the file has none or several")
    verdict = evaluate_inequality(triple, state)
    report = dict(lhs=verdict.lhs, rhs=verdict.rhs, violated=verdict.violated, state=label)
    report["certification"] = dataclasses.asdict(verdict.certification)
    return _emit(args, report, _inequality_text)


def _cmd_max_violation(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.file, args.tol)
    triple = _hardy_inputs(scenario, args.tol)
    value, state = max_violation(triple)
    return _emit(args, {"value": value, "state": encode_vector(state)}, _violation_text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; each ``main`` call parses afresh."""
    parser = argparse.ArgumentParser(
        prog="ctxlab",
        description="POVMs from system-environment dilations and context-selection analysis.",
    )
    parser.add_argument("--version", action="version", version=f"ctxlab {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", type=float, default=DEFAULT_TOL, help="tolerance for every check in this run"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = sub.add_parser("scenario", help="run bundled scenarios")
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    run = scenario_sub.add_parser("run", parents=[common], help="build and report a scenario")
    run.add_argument("name", help="scenario name (three-path)")
    run.add_argument("--basis", choices=("VH", "DA"), default="DA")
    run.add_argument("--merge-a", action="store_true", dest="merge_a")
    run.add_argument("--phi-init", choices=("D", "A", "H", "V"), default="D", dest="phi_init")
    run.set_defaults(handler=_cmd_scenario_run)

    povm = sub.add_parser("povm", help="POVM file checks")
    povm_sub = povm.add_subparsers(dest="povm_command", required=True)
    check = povm_sub.add_parser("check", parents=[common], help="report completeness residuals")
    check.add_argument("file")
    check.add_argument("--strict", action="store_true")
    check.add_argument("--json", action="store_true")
    check.set_defaults(handler=_cmd_povm_check)

    dilate = sub.add_parser("dilate", parents=[common], help="rebuild a dilation from a POVM")
    dilate.add_argument("file")
    dilate.add_argument("-o", "--output", required=True)
    dilate.set_defaults(handler=_cmd_dilate)

    graph = sub.add_parser("context-graph", parents=[common], help="context-sharing structure")
    graph.add_argument("file")
    form = graph.add_mutually_exclusive_group()
    form.add_argument("--dot", action="store_true")
    form.add_argument("--json", action="store_true")
    graph.set_defaults(handler=_cmd_context_graph)

    inequality = sub.add_parser(
        "inequality", parents=[common], help="evaluate the rescaled-probability inequality"
    )
    inequality.add_argument("file")
    inequality.add_argument("--state", default=None, help="state label from the file")
    inequality.add_argument("--json", action="store_true")
    inequality.set_defaults(handler=_cmd_inequality)

    violation = sub.add_parser(
        "max-violation", parents=[common], help="largest achievable inequality gap"
    )
    violation.add_argument("file")
    violation.add_argument("--json", action="store_true")
    violation.set_defaults(handler=_cmd_max_violation)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (math.isfinite(args.tol) and args.tol > 0):
        print("input error: --tol must be positive and finite", file=sys.stderr)
        return 2
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout fails here rather than at exit
        return code
    except BrokenPipeError:
        # Point fd 1 at devnull so that the flush at exit stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ScenarioFileError, SpaceMismatchError, UnknownLabelError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        name = exc.invariant or "unnamed"
        print(f"invariant violation [{name}]: {exc}", file=sys.stderr)
        return 3
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
