"""Command-line interface.

Exit codes: 0 success, 1 stdout closed by the reader, 2 input or file-schema
error, 3 violated invariant, 4 numerical failure. Numbers print with 12
significant digits; ``--json`` emits machine-readable reports where available.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .contextuality import HardyTriple, evaluate_inequality, max_violation
from .errors import (
    ScenarioFileError,
    SpaceMismatchError,
    UnknownLabelError,
    ValidationError,
)
from .hilbert import DEFAULT_TOL, gram
from .dilation import Dilation, naimark_dilate, povm_from_dilation
from .interferometer import build_three_path, joint_outcomes_DA, joint_outcomes_VH
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
    if z.imag == 0.0:
        return _fmt(z.real)
    return f"{_fmt(z.real)}{z.imag:+.12g}j"


def _fmt_vector(amplitudes) -> str:
    return "[" + ", ".join(_fmt_complex(complex(z)) for z in amplitudes) + "]"


def _print_graph(graph: ContextGraph) -> None:
    lines = [f"context graph: {len(graph.nodes)} nodes, {len(graph.edges)} edges"]
    lines += [f"  {a} -- {b} (witness={_fmt(witness)})" for a, b, witness in graph.edges]
    if graph.skipped:
        lines.append(f"  skipped zero-weight outcomes: {', '.join(graph.skipped)}")
    print("\n".join(lines))


def _print_povm_report(p: Povm, tol: float) -> None:
    print(f"povm: {len(p)} elements, system_dim={p.system_dim}")
    print("elements:")
    labels = p.labels()
    for k, (label, row) in enumerate(zip(labels, p.vectors)):
        if k not in p.operators:
            weight = float(np.vdot(row, row).real)
            print(f"  {label}: weight={_fmt(weight)} vector={_fmt_vector(row)}")
        else:
            op = p.operators[k]
            print(
                f"  {label}: operator trace={_fmt(float(np.trace(op).real))} "
                f"eigenvalues={_fmt_vector(np.linalg.eigvalsh(op))}"
            )
    print(f"completeness residual: {_fmt(completeness_check(p))}")
    positions = [k for k in range(len(p)) if k not in p.operators]
    if len(positions) > 1:
        print("gram (vector elements):")
        for k, row in zip(positions, gram(p.vectors[positions])):
            print(f"  {labels[k]}: {_fmt_vector(row)}")
    _print_graph(context_graph(p, tol))


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    if args.name != "three-path":
        print(f"unknown scenario {args.name!r}; available: three-path", file=sys.stderr)
        return 2
    if args.merge_a and args.basis != "DA":
        print("--merge-a needs --basis DA (the V/H basis has no A outcomes)", file=sys.stderr)
        return 2
    s = build_three_path()
    phi = {"D": s.d, "A": s.a, "H": s.h, "V": s.v}[args.phi_init]
    build = joint_outcomes_DA if args.basis == "DA" else joint_outcomes_VH
    outcomes = build(s, args.tol)
    p = povm_from_dilation(Dilation(outcomes, phi, tol=args.tol))
    if args.merge_a:
        p = coarse_grain(p, ("A1", "A2", "A3"), "A", args.tol)
    merged = "yes" if args.merge_a else "no"
    print(f"scenario three-path: basis={args.basis} phi_init={args.phi_init} merge_A={merged}")
    print(f"system_dim=3 env_dim=2 outcomes={len(outcomes)}")
    _print_povm_report(p, args.tol)
    return 0


def _cmd_povm_check(args: argparse.Namespace) -> int:
    p = load_scenario(args.file, args.tol).resolve_povm(args.tol)
    completeness = completeness_check(p)
    bounds = element_bound_residual(p)
    ok = completeness <= args.tol and bounds <= args.tol
    if args.json:
        print(
            json.dumps(
                {
                    "elements": len(p),
                    "system_dim": p.system_dim,
                    "completeness_residual": completeness,
                    "element_bound_residual": bounds,
                    "tol": args.tol,
                    "ok": ok,
                }
            )
        )
    else:
        print(f"povm: {len(p)} elements, system_dim={p.system_dim}")
        print(f"completeness residual: {_fmt(completeness)}")
        print(f"element bound residual: {_fmt(bounds)}")
        print(f"result: {'ok' if ok else 'FAIL'} (tol={_fmt(args.tol)})")
    if args.strict:
        validate_povm(p, args.tol)
    return 0


def _cmd_dilate(args: argparse.Namespace) -> int:
    p = load_scenario(args.file, args.tol).resolve_povm(args.tol)
    d = naimark_dilate(p, args.tol)
    scenario = Scenario(
        p.system_dim, d.outcomes.env_dim, d.outcomes, d.phi_init, povm_from_dilation(d)
    )
    save_scenario(args.output, scenario)
    print(
        f"wrote {args.output}: env_dim={d.outcomes.env_dim}, "
        f"{len(d.outcomes)} joint outcomes"
    )
    return 0


def _cmd_context_graph(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.file, args.tol)
    graph = context_graph(scenario.resolve_povm(args.tol), args.tol)
    if args.dot:
        print(graph.to_dot())
    elif args.json:
        print(json.dumps({"nodes": graph.nodes, "edges": graph.edges, "skipped": graph.skipped}))
    else:
        _print_graph(graph)
    return 0


def _hardy_inputs(scenario: Scenario, tol: float) -> HardyTriple:
    if scenario.hardy is None:
        raise ScenarioFileError("the file carries no hardy block")
    return HardyTriple.from_povm(scenario.resolve_povm(tol), *scenario.hardy, tol=tol)


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
    report = evaluate_inequality(triple, state, args.tol)
    if args.json:
        print(
            json.dumps(
                {
                    "lhs": report.lhs,
                    "rhs": report.rhs,
                    "violated": report.violated,
                    "state": label,
                    "certification": dataclasses.asdict(report.certification),
                }
            )
        )
    else:
        print(f"lhs {_fmt(report.lhs)}")
        print(f"rhs {_fmt(report.rhs)}")
        print(f"violated {'true' if report.violated else 'false'}")
        c = report.certification
        print(
            f"certification c1={_fmt(c.c1)} c2={_fmt(c.c2)} "
            f"r1={_fmt(c.r1)} r2={_fmt(c.r2)}"
        )
        print(f"state {label}")
    return 0


def _cmd_max_violation(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.file, args.tol)
    triple = _hardy_inputs(scenario, args.tol)
    value, state = max_violation(triple)
    if args.json:
        print(json.dumps({"value": value, "state": encode_vector(state)}))
    else:
        print(f"max violation {_fmt(value)}")
        print(f"state {_fmt_vector(state)}")
    return 0


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
