"""ctxlab benchmark: the CLI driven in-process in a closed loop with one caller.

    python3 bench/run.py --workload grown-context --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Inputs are written from ``--seed`` under
``.bench_work/`` before timing starts. Each op is ``ctxlab.cli.main(argv)``
with stdout captured; the next op starts when the previous one returns and its
output has been checked against a plain-numpy reference. Ops run in whole
cycles until ``--seconds`` have passed.

The shared host runs the same code 20-40% slower for stretches of seconds to
minutes, in wall and CPU time alike, which would swamp most changes of the
program. So a fixed calibration is timed between every two ops and around
every set-up process, and each time is scaled by ``CALIBRATION_REF_S`` over
the mean of the calibrations just before and after it: the time the op would
take on a host that runs the calibration in ``CALIBRATION_REF_S``. An op's
latency is the first quartile of its scaled times over the run's cycles. The
``#`` notes give the unscaled figures too.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
loop for half the time untraced and half traced, and reports the per-layer
metrics. The last line of stdout is one JSON object; lines before it are a
readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("paper-fixtures", "grown-context", "dilation-roundtrip")
# Calibration time of the reference host, about the median of a 2-core
# x86-64 VM whose neighbours are busy and the best of one whose are quiet.
CALIBRATION_REF_S = 0.002


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return f"unresolved {name}"


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_sha": git_sha(),
    }


def setup_seconds() -> list[tuple[float, float]]:
    """Wall times of cold ``python -m ctxlab --version`` processes, each with
    the mean calibration time around it."""
    times = []
    before = calibration_seconds()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "ctxlab", "--version"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        elapsed = perf_counter() - start
        after = calibration_seconds()
        times.append((elapsed, (before + after) / 2))
        before = after
        if done.returncode != 0 or not done.stdout.startswith("ctxlab "):
            raise RuntimeError(f"ctxlab --version failed: {done.stderr.strip()}")
    return times


def calibration_seconds() -> float:
    """Wall time of fixed work of the ops' kind: small numpy calls, JSON encoding.

    The collector is off, so garbage the ops left is not collected here.
    """
    import numpy as np

    vec = np.arange(16) + 1j
    gc.disable()
    try:
        start = perf_counter()
        for k in range(400):
            abs(np.vdot(vec, vec * k))
        json.dumps([{"a": [k, k * 0.5], "b": str(k)} for k in range(800)])
        return perf_counter() - start
    finally:
        gc.enable()


def scaled(timed: list[tuple[float, float]]) -> list[float]:
    """Wall times on the reference host, from (wall, calibration) pairs."""
    return [wall * CALIBRATION_REF_S / cal for wall, cal in timed]


def first_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


class Loop:
    """Closed loop, one caller: run ops in whole cycles and check each output."""

    def __init__(self, ops, call) -> None:
        self.ops, self.call = ops, call
        # (wall, calibration) pairs, one list per op of the cycle
        self.samples: list[list[tuple[float, float]]] = [[] for _ in ops]
        self.attempted = self.failed = 0
        self.graph_pairs = 0

    def run_op(self, op) -> float:
        out, err = io.StringIO(), io.StringIO()
        problem = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.call(op.argv, op.name)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an op that raises is a failed op, and the loop goes on
            code, problem = None, traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
        if problem is None and code != 0:
            problem = f"exit code {code}: {err.getvalue().strip()}"
        if problem is None:
            try:
                problem = op.check(out.getvalue())
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if self.failed <= 3:
                print(f"bench: op {op.name!r} failed: {problem}", file=sys.stderr)
        return elapsed

    def warm_up(self) -> None:
        for op in self.ops:
            if op.warmup:
                self.run_op(op)

    def measure(self, seconds: float) -> None:
        start = perf_counter()
        before = calibration_seconds()
        while True:
            for op, samples in zip(self.ops, self.samples):
                elapsed = self.run_op(op)
                after = calibration_seconds()
                samples.append((elapsed, (before + after) / 2))
                before = after
                self.graph_pairs += op.graph_nodes * (op.graph_nodes - 1) // 2
            if perf_counter() - start >= seconds:
                return

    def latencies(self, scale: bool = True) -> list[float]:
        """Each op's first-quartile time over the cycles, in s: on the
        reference host, or with ``scale=False`` as timed here."""
        return [
            first_quartile(scaled(timed) if scale else [wall for wall, _ in timed])
            for timed in self.samples
        ]

    def ops_per_s(self, scale: bool = True) -> float:
        return len(self.ops) / sum(self.latencies(scale))


def end_to_end(loop: Loop, setup: list[tuple[float, float]]) -> tuple[dict[str, float], list[str]]:
    ms = [t * 1e3 for t in loop.latencies()]
    p90 = statistics.quantiles(ms, n=10)[8]
    cycles = len(loop.samples[0])
    beyond = sum(cycles for t in ms if t > p90)
    values = {
        "ops_per_s": loop.ops_per_s(),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(scaled(setup)),
    }
    unscaled = [t * 1e3 for t in loop.latencies(scale=False)]
    raw = [wall * 1e3 for timed in loop.samples for wall, _ in timed]
    cals = [cal * 1e3 for timed in loop.samples for _, cal in timed]
    notes = [
        f"{len(ms)} ops per cycle, {cycles} cycles: {len(raw)} latency samples, "
        f"{beyond} of them from ops beyond p90",
        f"calibration around each op: median {statistics.median(cals):.4f} ms, "
        f"best {min(cals):.4f} ms, reference {CALIBRATION_REF_S * 1e3:g} ms",
        f"unscaled: ops_per_s {loop.ops_per_s(scale=False):.4f}, "
        f"latency_p50_ms {statistics.median(unscaled):.4f}, "
        f"latency_p90_ms {statistics.quantiles(unscaled, n=10)[8]:.4f}, "
        f"setup_s {statistics.median(wall for wall, _ in setup):.4f}",
        f"raw wall time over all samples: mean {statistics.fmean(raw):.4f} ms, "
        f"median {statistics.median(raw):.4f} ms, p90 {statistics.quantiles(raw, n=10)[8]:.4f} ms",
        f"error_rate {loop.failed / max(loop.attempted, 1)} "
        f"({loop.failed} failed of {loop.attempted} attempted, warm-up included)",
        "setup_s runs " + ", ".join(f"{wall:.4f}" for wall, _ in setup),
    ]
    return values, notes


END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ctxlab" / "__init__.py").is_file():
        print(f"bench: no ctxlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads, here and in the set-up processes
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import ctxlab.cli
    import tracing
    import workloads

    if not Path(ctxlab.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: imported ctxlab from {ctxlab.cli.__file__}, not this checkout", file=sys.stderr)
        return 2

    setup = setup_seconds()
    work = WORK / args.workload
    try:
        ops = workloads.build(args.workload, args.seed, work, ROOT / "src" / "ctxlab" / "data")
    except workloads.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(f"# env {json.dumps(environment(np))}")
    print(f"# workload {args.workload} seed {args.seed}: {len(ops)} ops per cycle, "
          "closed loop, 1 caller")

    untraced = Loop(ops, lambda argv, name: ctxlab.cli.main(argv))
    untraced.warm_up()
    phase = args.seconds if args.trace == 0 else args.seconds / 2
    untraced.measure(phase)
    setup += setup_seconds()  # a second batch, so the median spans the run
    values, notes = end_to_end(untraced, setup)
    units = END_TO_END_UNITS
    attempted, failed = untraced.attempted, untraced.failed

    if args.trace == 1:
        notes = [f"end-to-end, untraced half: {name} {value} {units[name]}"
                 for name, value in values.items()] + notes
        tracer = tracing.Tracer()
        traced = Loop(ops, tracer.root(ctxlab.cli.main))
        try:
            tracer.install()
            traced.measure(phase)
        finally:
            tracer.restore()
        attempted += traced.attempted
        failed += traced.failed
        values = tracer.per_layer(untraced.ops_per_s() / traced.ops_per_s())
        units = tracing.per_layer_units()
        tracer.write(work / "spans.jsonl")
        kets = tracer.per_op_kind("hilbert.ket_constructions")
        shares = sum(c["povm.share_context_calls"] for c in tracer.op_counts)
        notes += [
            f"traced ops {sum(map(len, traced.samples))}, {traced.failed} failed; "
            f"spans written to {work / 'spans.jsonl'}",
            f"povm.share_context_calls total {shares}; "
            f"sum of n(n-1)/2 over graph ops {traced.graph_pairs}",
            "hilbert.ket_constructions per op kind: "
            + ", ".join(f"{k}={v:g}" for k, v in sorted(kets.items())),
            f"entry points not found, so not traced: {', '.join(tracer.missing) or 'none'}",
        ]

    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    for note in notes:
        print(f"# {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
