"""Per-layer spans and counts for the traced run.

The tracer replaces ctxlab's public entry points at the module attribute their
callers look up at call time (``ctxlab.cli.load_scenario``,
``ctxlab.povm.share_context``, ...) and restores the originals afterwards, so
no file of the library changes. Spans (name, start, end, parent, op id) stay
in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter
from collections.abc import Callable
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "scenario_io", "povm", "dilation", "contextuality", "interferometer", "hilbert")

# (owner the caller reaches it through, attribute, span name). The span's
# layer is the part of its name before the dot.
SPANS = (
    ("ctxlab.cli", "load_scenario", "scenario_io.load"),
    ("ctxlab.cli", "save_scenario", "scenario_io.save"),
    ("ctxlab.cli", "scenario_to_dict", "scenario_io.to_dict"),
    ("ctxlab.cli", "context_graph", "povm.context_graph"),
    ("ctxlab.cli", "completeness_check", "povm.completeness"),
    ("ctxlab.dilation", "completeness_check", "povm.completeness"),
    ("ctxlab.cli", "coarse_grain", "povm.coarse_grain"),
    ("ctxlab.cli", "naimark_dilate", "dilation.naimark_dilate"),
    ("ctxlab.cli", "povm_from_dilation", "dilation.povm_from_dilation"),
    ("ctxlab.scenario_io", "povm_from_dilation", "dilation.povm_from_dilation"),
    ("ctxlab.contextuality:HardyTriple", "from_povm", "contextuality.hardy_triple"),
    ("ctxlab.cli", "evaluate_inequality", "contextuality.evaluate_inequality"),
    ("ctxlab.cli", "max_violation", "contextuality.max_violation"),
    ("ctxlab.cli", "build_three_path", "interferometer.build"),
    ("ctxlab.cli", "joint_outcomes_DA", "interferometer.build"),
    ("ctxlab.cli", "joint_outcomes_VH", "interferometer.build"),
)
# Calls too many or too small for a span each are only counted.
COUNTED = (
    ("ctxlab.povm", "share_context", "povm.share_context_calls"),
    ("ctxlab.hilbert:Ket", "__init__", "hilbert.ket_constructions"),
)
BYTES = {"scenario_io.load": "scenario_io.bytes_read", "scenario_io.save": "scenario_io.bytes_written"}
ROOT = "cli.main"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{layer}.self_ms": "ms" for layer in LAYERS if layer != "hilbert"}
    units.update({f"{name}_ms": "ms" for name in dict.fromkeys(s for _, _, s in SPANS)})
    units.update({counter: "count" for _, _, counter in COUNTED})
    units.update({counter: "bytes" for counter in BYTES.values()})
    units.update({f"{layer}.failed_calls": "count" for layer in LAYERS})
    units["tracing.overhead_ratio"] = "ratio"
    return units


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, failed]
        self.stack: list[int] = []
        self.op_counts: list[Counter] = []
        self.op_names: list[str] = []
        self.missing: list[str] = []  # entry points a refactor removed; their metrics read 0
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, op_counts = self.spans, self.stack, self.op_counts
        counter = BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, len(op_counts) - 1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if counter is not None and args and os.path.exists(args[0]):
                    op_counts[-1][counter] += os.path.getsize(args[0])

        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        op_counts = self.op_counts
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            op_counts[-1][name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                op_counts[-1][f"{layer}.failed_calls"] += 1
                raise

        return counted

    def install(self) -> None:
        """Wrap every entry point in SPANS and COUNTED; ``restore`` undoes it."""
        for table, make in ((SPANS, self._span), (COUNTED, self._count)):
            for path, attr, name in table:
                try:
                    owner = _owner(path)
                    original = vars(owner)[attr]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(f"{path}.{attr}")
                    continue
                if isinstance(original, classmethod):
                    replacement = classmethod(make(name, original.__func__))
                else:
                    replacement = make(name, original)
                setattr(owner, attr, replacement)
                self._restore.append((owner, attr, original))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def root(self, main: Callable) -> Callable:
        """Wrap the op's entry point; each call opens a new op."""
        span = self._span(ROOT, main)

        def op(argv: list[str], name: str):
            self.op_counts.append(Counter())
            self.op_names.append(name)
            return span(argv)

        return op

    def per_layer(self, overhead_ratio: float) -> dict[str, float]:
        """Mean per op: self and inclusive span times in ms, counts, failures."""
        ops = max(len(self.op_counts), 1)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _, _, failed), inner in zip(self.spans, child):
            layer = name.split(".")[0]
            totals[f"{layer}.self_ms"] += (end - start - inner) * 1e3
            if name != ROOT:
                totals[f"{name}_ms"] += (end - start) * 1e3
            totals[f"{layer}.failed_calls"] += failed
        for counts in self.op_counts:
            totals.update(counts)
        values = {name: totals[name] / ops for name in per_layer_units()}
        values["tracing.overhead_ratio"] = overhead_ratio
        return values

    def per_op_kind(self, counter: str) -> dict[str, float]:
        """Mean of one count for each kind of op, e.g. Ket constructions."""
        sums: Counter = Counter()
        seen: Counter = Counter()
        for name, counts in zip(self.op_names, self.op_counts):
            sums[name] += counts[counter]
            seen[name] += 1
        return {name: sums[name] / seen[name] for name in seen}

    def write(self, path: Path) -> None:
        """Ops first, then one span per line: op, name, start, end, parent, failed."""
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as out:
            out.write(json.dumps({"ops": self.op_names}) + "\n")
            for name, start, end, parent, op, failed in self.spans:
                out.write(json.dumps([op, name, start - origin, end - origin, parent, failed]) + "\n")
