"""Per-layer tracing of ``cbp`` from outside the library.

``Tracer.install`` wraps each entry point in :data:`LAYERS` and rebinds the
name in every ``cbp`` module that holds the original function (for example
``cbp.bpc.max_size`` and ``cbp.bis._mwis_core``), so calls made inside the
library are traced too. Each call records a span (name, start, end,
parent) in memory; self time is a span's duration minus that of its child
spans. Counts come from return values and from calls per parent span.
"""

from __future__ import annotations

import array
import json
import sys
import time
from collections import Counter
from pathlib import Path

# (layer name, module, attribute)
LAYERS = (
    ("graphs.recognize", "cbp.graphs", "recognize"),
    ("graphs.minimum_coloring", "cbp.graphs", "minimum_coloring"),
    ("graphs.restrict_class_info", "cbp.graphs", "restrict_class_info"),
    ("graphs.maximum_matching_general", "cbp.graphs", "maximum_matching_general"),
    ("graphs.mwis", "cbp.graphs", "_mwis_core"),
    ("packing_classic.ffd", "cbp.packing_classic", "ffd"),
    ("packing_classic.asymptotic_bp", "cbp.packing_classic", "asymptotic_bp"),
    ("bis.knapsack_fptas", "cbp.bis", "knapsack_fptas"),
    ("bis.bis_fptas_split", "cbp.bis", "bis_fptas_split"),
    ("bis.bis_ptas", "cbp.bis", "bis_ptas"),
    ("maxsize.max_size", "cbp.maxsize", "max_size"),
    ("simplex.solve_max_lp", "cbp.simplex", "solve_max_lp"),
    ("bpc.assign", "cbp.bpc", "assign"),
    ("bpc.round_assignment", "cbp.bpc", "round_assignment"),
    ("bpc.split_approx", "cbp.bpc", "split_approx"),
    ("oracle.opt_bpc_exact", "cbp.oracle", "opt_bpc_exact"),
    ("model.validate_packing", "cbp.model", "validate_packing"),
    ("model.restrict_instance", "cbp.model", "restrict_instance"),
)

# Spans kept for the trace file; calls beyond this are still aggregated.
SPAN_CAPACITY = 1_000_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        self.pair_calls: Counter = Counter()  # (parent id, child id) -> calls
        self.counts: Counter = Counter()
        self._stack: list[list[int]] = []  # [name id, span index, child ns]
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.dropped = 0
        self.top_ns = 0  # summed duration of spans without a parent
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.total_ns.append(0)
        return nid

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        nid = self._id(name)
        stack = self._stack
        parent = stack[-1] if stack else None
        idx = len(self.span_start)
        if idx < SPAN_CAPACITY:
            self.span_name.append(nid)
            self.span_parent.append(parent[1] if parent else -1)
            self.span_start.append(0)
            self.span_end.append(0)
        else:
            idx = -1
            self.dropped += 1
        frame = [nid, idx, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            dur = end - start
            self.calls[nid] += 1
            self.total_ns[nid] += dur
            self.self_ns[nid] += dur - frame[2]
            if parent is not None:
                parent[2] += dur
                self.pair_calls[(parent[0], nid)] += 1
            else:
                self.top_ns += dur
            if idx >= 0:
                self.span_start[idx] = start
                self.span_end[idx] = end

    def _wrap(self, name: str, fn):
        tracer = self
        on_result = _RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced entry point in every loaded ``cbp`` module."""
        modules = [m for k, m in list(sys.modules.items()) if k == "cbp" or k.startswith("cbp.")]
        for name, module_name, attr in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def self_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return self.self_ns[nid] / 1e9 if nid is not None else 0.0

    def calls_under(self, parent: str, child: str) -> int:
        if parent not in self._ids or child not in self._ids:
            return 0
        return self.pair_calls[(self._ids[parent], self._ids[child])]

    def write_spans(self, path: Path) -> None:
        """Spans as JSON header (names, counts) plus int64 rows in ``.bin``.

        Each row of the binary file is (name id, parent span index or -1,
        start ns, end ns).
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = array.array("q")
        for k in range(len(self.span_start)):
            rows.extend((self.span_name[k], self.span_parent[k], self.span_start[k], self.span_end[k]))
        with open(path.with_suffix(".bin"), "wb") as fh:
            rows.tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "dropped_spans": self.dropped,
            "row": ["name_id", "parent_index", "start_ns", "end_ns"],
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


def _count_pivots(counts: Counter, result) -> None:
    counts["simplex.solve_max_lp.pivots"] += result.iterations


def _count_enumerated(counts: Counter, result) -> None:
    for flag in result.flags:
        if flag.startswith("enumerated:"):
            counts["bpc.assign.enumerated"] += int(flag.split(":", 1)[1])


_RESULT_COUNTS = {
    "simplex.solve_max_lp": _count_pivots,
    "bpc.assign": _count_enumerated,
}
