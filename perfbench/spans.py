"""Span recording around the program's public functions, and the per-layer
metrics computed from the spans.

The launcher installs a :class:`Tracer` before it calls ``geomerge.cli.main``.
Each wrapped function records one span (name, start, end, parent, thread,
counts).  A function is wrapped where it is looked up: ``merge_methods``
imports ``trim_topk`` by name, so the wrapper replaces
``merge_methods.trim_topk``, not ``delta_ops.trim_topk``.  Spans are kept in
memory and written out once, when the traced process ends.

The parent of a span is the innermost open span on the same thread.  A span
that opens on a worker thread with nothing open there is adopted by the
innermost open ``merge_methods.run_merge`` span, whose pool runs it, so the
orchestrator's self time subtracts its workers' spans.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

clock = time.monotonic

READ = "tensor_io.read"
RULE = "merge_methods.rule"
RUN_MERGE = "merge_methods.run_merge"
KARCHER = "sphere.karcher"
TRIM = "delta_ops.trim"

_RULES = ("lerp", "slerp", "multislerp", "karcher", "task_arithmetic", "ties", "dare", "della", "model_stock")


def _read_counts(args: tuple, result: Any) -> dict[str, float]:
    from geomerge import dtypes

    return {"bytes": result.data.size * dtypes.itemsize(result.dtype)}


def _karcher_counts(args: tuple, result: Any) -> dict[str, float]:
    points = args[0]
    return {
        "m": len(points),
        "n": len(points[0]),
        "iters": result.iterations,
        "unconverged": 0 if result.converged else 1,
    }


# (module, attribute path, span name, counts from (args, result))
WRAPS: list[tuple[str, str, str, Callable[[tuple, Any], dict[str, float]] | None]] = [
    ("geomerge.tensor_io", "CheckpointHandle.load_tensor", READ, _read_counts),
    ("geomerge.dtypes", "decode_buffer", "dtypes.decode", None),
    ("geomerge.dtypes", "encode_array", "dtypes.encode", None),
    ("geomerge.cli", "open_checkpoint", "tensor_io.open", None),
    ("geomerge.tensor_io", "open_checkpoint", "tensor_io.open", None),
    ("geomerge.merge_methods", "validate_aligned", "tensor_io.align", None),
    (
        "geomerge.merge_methods",
        "write_checkpoint",
        "tensor_io.write",
        lambda args, result: {"bytes": os.path.getsize(args[0])},
    ),
    ("geomerge.cli", "load_recipe", "recipe.load", None),
    ("geomerge.cli", "run_merge", RUN_MERGE, None),
    *[("geomerge.merge_methods", f"merge_{rule}", RULE, None) for rule in _RULES],
    ("geomerge.merge_methods", "karcher_mean", KARCHER, _karcher_counts),
    ("geomerge.merge_methods", "trim_topk", TRIM, lambda args, result: {"n": len(args[0])}),
    ("geomerge.merge_methods", "elect_signs", "delta_ops.elect", None),
    ("geomerge.merge_methods", "disjoint_merge", "delta_ops.disjoint", None),
    ("geomerge.merge_methods", "dare_drop", "delta_ops.drop", None),
    ("geomerge.merge_methods", "della_drop", "delta_ops.drop", None),
    ("geomerge.merge_methods", "task_vector", "delta_ops.task_vector", None),
    ("geomerge.diagnostics", "covariance_spectrum", "diagnostics.spectrum", None),
    ("geomerge.diagnostics", "bootstrap_stats", "diagnostics.bootstrap", None),
    ("geomerge.cli", "toy_forward_collect", "diagnostics.forward", None),
]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._adopters: list[int] = []
        self._threads: dict[int, int] = {}

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn: Callable, name: str, counts: Callable | None = None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            with self._lock:
                span_id = len(self.spans)
                parent = stack[-1] if stack else (self._adopters[-1] if self._adopters else None)
                thread = self._threads.setdefault(threading.get_ident(), len(self._threads))
                span = Span(span_id, name, 0.0, 0.0, parent, thread)
                self.spans.append(span)
                if name == RUN_MERGE:
                    self._adopters.append(span_id)
            stack.append(span_id)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if name == RUN_MERGE:
                    with self._lock:
                        self._adopters.remove(span_id)
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every function named in :data:`WRAPS` with its traced
        wrapper.  The process is expected to exit without uninstalling."""
        for module_name, path, name, counts in WRAPS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, counts))

    def to_json(self) -> list[dict[str, Any]]:
        return [span.__dict__ for span in self.spans]


def spans_from_json(rows: Iterable[dict[str, Any]]) -> list[Span]:
    return [Span(**row) for row in rows]


# -- arithmetic ---------------------------------------------------------------


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_union(span: Span, spans: Iterable[Span]) -> float:
    """Length of ``span``'s interval covered by its direct children."""
    return union_length(
        (max(c.start, span.start), min(c.end, span.end))
        for c in spans
        if c.parent == span.id and c.end > span.start and c.start < span.end
    )


def self_time(span: Span, spans: Iterable[Span]) -> float:
    """Duration minus the union of the direct children's intervals."""
    return span.duration - children_union(span, spans)


def busy(spans: list[Span], name: str) -> tuple[float, int]:
    """Seconds inside ``name`` summed over threads, and the number of calls,
    counting a span nested in another span of the same name only once."""
    by_id = {s.id: s for s in spans}
    total, calls = 0.0, 0
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is not None and parent.name == name:
            continue
        total += s.duration
        calls += 1
    return total, calls


def _count(spans: list[Span], name: str, key: str) -> float:
    return float(sum(s.counts.get(key, 0) for s in spans if s.name == name))


def _per(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


# Per-layer metric name -> (unit, better).  Ratios sit next to their bases.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "tensor_io.read_s": ("s", "lower"),
    "tensor_io.read_calls": ("count", "lower"),
    "tensor_io.read_bytes": ("bytes", "lower"),
    "dtypes.decode_s": ("s", "lower"),
    "tensor_io.write_s": ("s", "lower"),
    "tensor_io.write_bytes": ("bytes", "lower"),
    "dtypes.encode_s": ("s", "lower"),
    "tensor_io.open_s": ("s", "lower"),
    "tensor_io.align_s": ("s", "lower"),
    "recipe.load_s": ("s", "lower"),
    "merge_methods.run_merge_s": ("s", "lower"),
    "merge_methods.self_s": ("s", "lower"),
    "merge_methods.children_s": ("s", "lower"),
    "merge_methods.rule_s": ("s", "lower"),
    "merge_methods.rule_calls": ("count", "lower"),
    "merge_methods.serial_tail_s": ("s", "lower"),
    "merge_methods.worker_busy_frac": ("ratio", "higher"),
    "merge_methods.worker_window_s": ("s", "lower"),
    "sphere.karcher_s": ("s", "lower"),
    "sphere.karcher_calls": ("count", "lower"),
    "sphere.karcher_iters": ("count", "lower"),
    "sphere.karcher_unconverged": ("count", "lower"),
    "sphere.karcher_elem_iters": ("count", "lower"),
    "sphere.karcher_ns_per_elem_iter": ("ns", "lower"),
    "delta_ops.trim_s": ("s", "lower"),
    "delta_ops.trim_elems": ("count", "lower"),
    "delta_ops.trim_ns_per_elem": ("ns", "lower"),
    "delta_ops.elect_s": ("s", "lower"),
    "delta_ops.disjoint_s": ("s", "lower"),
    "delta_ops.drop_s": ("s", "lower"),
    "delta_ops.task_vector_s": ("s", "lower"),
    "diagnostics.spectrum_s": ("s", "lower"),
    "diagnostics.spectrum_calls": ("count", "lower"),
    "diagnostics.spectrum_ms_per_call": ("ms", "lower"),
    "diagnostics.bootstrap_s": ("s", "lower"),
    "diagnostics.forward_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(spans: list[Span], threads: int, summary: dict[str, Any] | None) -> dict[str, float]:
    """Per-layer metrics of one traced invocation.

    ``threads`` is the worker count the merge ran with; ``summary`` is the
    parsed ``summary.json`` of a merge (None for diagnose).  A layer that did
    not run reports 0, and so does a ratio whose base is 0.
    ``trace.overhead_s`` compares invocations and is filled in by the runner.
    """
    m: dict[str, float] = {}
    m["tensor_io.read_s"], calls = busy(spans, READ)
    m["tensor_io.read_calls"] = float(calls)
    m["tensor_io.read_bytes"] = _count(spans, READ, "bytes")
    m["dtypes.decode_s"] = busy(spans, "dtypes.decode")[0]
    m["tensor_io.write_s"] = busy(spans, "tensor_io.write")[0]
    m["tensor_io.write_bytes"] = _count(spans, "tensor_io.write", "bytes")
    m["dtypes.encode_s"] = busy(spans, "dtypes.encode")[0]
    m["tensor_io.open_s"] = busy(spans, "tensor_io.open")[0]
    m["tensor_io.align_s"] = busy(spans, "tensor_io.align")[0]
    m["recipe.load_s"] = busy(spans, "recipe.load")[0]

    rule_s, rule_calls = busy(spans, RULE)
    m["merge_methods.rule_s"] = rule_s
    m["merge_methods.rule_calls"] = float(rule_calls)
    run = next((s for s in spans if s.name == RUN_MERGE), None)
    rules = [s for s in spans if s.name == RULE]
    if run is not None and rules:
        last_rule_end = max(s.end for s in rules)
        window = threads * (last_rule_end - run.start)
        m["merge_methods.run_merge_s"] = run.duration
        m["merge_methods.children_s"] = children_union(run, spans)
        m["merge_methods.self_s"] = self_time(run, spans)
        m["merge_methods.serial_tail_s"] = run.end - last_rule_end
        m["merge_methods.worker_window_s"] = window
        m["merge_methods.worker_busy_frac"] = _per(m["tensor_io.read_s"] + rule_s, window)
    else:
        for key in ("run_merge_s", "children_s", "self_s", "serial_tail_s", "worker_window_s", "worker_busy_frac"):
            m[f"merge_methods.{key}"] = 0.0

    m["sphere.karcher_s"], calls = busy(spans, KARCHER)
    m["sphere.karcher_calls"] = float(calls)
    per_tensor = (summary or {}).get("per_tensor", [])
    m["sphere.karcher_iters"] = float(sum(t["iterations"] or 0 for t in per_tensor)) if calls else 0.0
    m["sphere.karcher_unconverged"] = _count(spans, KARCHER, "unconverged")
    m["sphere.karcher_elem_iters"] = float(
        sum((s.counts["iters"] + 1) * s.counts["m"] * s.counts["n"] for s in spans if s.name == KARCHER)
    )
    m["sphere.karcher_ns_per_elem_iter"] = _per(m["sphere.karcher_s"] * 1e9, m["sphere.karcher_elem_iters"])

    m["delta_ops.trim_s"] = busy(spans, TRIM)[0]
    m["delta_ops.trim_elems"] = _count(spans, TRIM, "n")
    m["delta_ops.trim_ns_per_elem"] = _per(m["delta_ops.trim_s"] * 1e9, m["delta_ops.trim_elems"])
    for key in ("elect", "disjoint", "drop", "task_vector"):
        m[f"delta_ops.{key}_s"] = busy(spans, f"delta_ops.{key}")[0]

    m["diagnostics.spectrum_s"], calls = busy(spans, "diagnostics.spectrum")
    m["diagnostics.spectrum_calls"] = float(calls)
    m["diagnostics.spectrum_ms_per_call"] = _per(m["diagnostics.spectrum_s"] * 1e3, calls)
    m["diagnostics.bootstrap_s"] = busy(spans, "diagnostics.bootstrap")[0]
    m["diagnostics.forward_s"] = busy(spans, "diagnostics.forward")[0]
    return {k: m[k] for k in LAYER_METRICS if k in m}
