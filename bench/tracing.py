"""In-process spans around greenlint's layer functions, and the per-layer
metrics computed from them.

The tracer replaces each traced function at every name under which a
greenlint module holds it, so a call is recorded whichever module it comes
from (``greenlint.engine.parse_java_source`` and
``greenlint.java.parser.tokenize`` are the names the engine and the parser
look up). Spans are kept in memory; nothing inside ``src/`` changes.
The tracer expects a single thread, which ``--jobs 1`` gives.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from corpus import RULES


def _rule_counts(args: tuple, result: Any) -> dict[str, int]:
    return {"findings": len(result.findings), "edits": len(result.edits)}


# span name -> (defining module, function name, counts taken from a call)
LAYERS: dict[str, tuple[str, str, Optional[Callable[[tuple, Any], dict]]]] = {
    "cli.main": ("greenlint.cli", "main", None),
    "engine.run_project": ("greenlint.engine", "run_project", None),
    "engine.discover_files": (
        "greenlint.engine",
        "discover_files",
        lambda args, result: {"files": len(result)},
    ),
    "engine.process_file": (
        "greenlint.engine",
        "process_file",
        lambda args, result: {args[1]: 1},  # language: java | xml
    ),
    "java.parser.parse_java_source": ("greenlint.java.parser", "parse_java_source", None),
    "java.lexer.tokenize": (
        "greenlint.java.lexer",
        "tokenize",
        lambda args, result: {"tokens": len(result), "bytes": len(args[0])},
    ),
    "xmltree.parse_layout_xml": ("greenlint.xmltree", "parse_layout_xml", None),
    "rules.ViewHolder": ("greenlint.rules.view_holder", "apply_view_holder", _rule_counts),
    "rules.DrawAllocation": (
        "greenlint.rules.draw_allocation",
        "apply_draw_allocation",
        _rule_counts,
    ),
    "rules.WakeLock": ("greenlint.rules.wake_lock", "apply_wake_lock", _rule_counts),
    "rules.Recycle": ("greenlint.rules.recycle", "apply_recycle", _rule_counts),
    "rules.ObsoleteLayoutParam": (
        "greenlint.rules.layout_params",
        "apply_obsolete_layout_param",
        _rule_counts,
    ),
    "spans.apply_edit_set": (
        "greenlint.spans",
        "apply_edit_set",
        lambda args, result: {"edits": len(args[1])},
    ),
    "report.aggregate": ("greenlint.report", "aggregate", None),
    "report.emit": ("greenlint.report", "emit", None),
}

# The layers each workload is predicted to exercise. A traced run in which
# one of them records no call fails, so that a refactor that moves a call
# away from a traced name cannot silently blank its metrics.
EXPECTED_LAYERS: dict[str, tuple[str, ...]] = {
    "check-java": (
        "engine.discover_files",
        "engine.process_file",
        "java.lexer.tokenize",
        "java.parser.parse_java_source",
        "rules.ViewHolder",
        "rules.DrawAllocation",
        "rules.WakeLock",
        "rules.Recycle",
    ),
    "fix-smelly": (
        "engine.discover_files",
        "engine.process_file",
        "java.lexer.tokenize",
        "java.parser.parse_java_source",
        "xmltree.parse_layout_xml",
        *(f"rules.{r}" for r in RULES),
        "spans.apply_edit_set",
    ),
    "corpus-many": (
        "engine.discover_files",
        "engine.process_file",
        "xmltree.parse_layout_xml",
        "java.lexer.tokenize",
        "rules.ObsoleteLayoutParam",
        "report.aggregate",
        "report.emit",
    ),
}


# Every per-layer metric with its unit, in the order they are printed.
UNITS: dict[str, str] = {
    "engine.discover_files.s": "s",
    "engine.discover_files.files": "count",
    "engine.process_file.calls": "count",
    "engine.process_file.self_s": "s",
    "engine.process_file.p50_ms": "ms",
    "engine.process_file.p99_ms": "ms",
    "java.lexer.tokenize.calls": "count",
    "java.lexer.tokenize.s": "s",
    "java.lexer.tokens": "count",
    "java.lexer.mb_per_s": "MB/s",
    "java.parser.parse_java_source.calls": "count",
    "java.parser.parse_java_source.self_s": "s",
    "java.parser.parses_per_java_file": "ratio",
    "xmltree.parse_layout_xml.calls": "count",
    "xmltree.parse_layout_xml.s": "s",
    "xmltree.parses_per_xml_file": "ratio",
    **{
        f"rules.{rule}.{what}": unit
        for rule in RULES
        for what, unit in (("calls", "count"), ("s", "s"), ("findings", "count"), ("edits", "count"))
    },
    "spans.apply_edit_set.calls": "count",
    "spans.apply_edit_set.s": "s",
    "spans.edits_applied": "count",
    "report.aggregate.s": "s",
    "report.emit.s": "s",
    "cli.self_s": "s",
    "trace.overhead_share": "share",
}


@dataclass
class Span:
    name: str
    start: float  # seconds, perf_counter
    end: float
    parent: int  # index into the span list, -1 for a root
    counts: dict[str, int] = field(default_factory=dict)


def _wrap(
    name: str, fn: Callable, count: Optional[Callable], spans: list[Span], open_: list[int]
) -> Callable:
    thread = threading.get_ident()

    def traced(*args, **kwargs):
        if threading.get_ident() != thread:
            raise RuntimeError(f"{name} called from a second thread; trace with --jobs 1")
        span = Span(name, 0.0, 0.0, open_[-1] if open_ else -1)
        spans.append(span)
        open_.append(len(spans) - 1)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            open_.pop()
        if count is not None:
            span.counts = count(args, result)
        return result

    return traced


@contextmanager
def traced_calls() -> Iterator[list[Span]]:
    """Replace every greenlint reference to each traced function with a
    wrapper for the duration of the block; yields the list the spans of
    that block are appended to."""
    spans: list[Span] = []
    open_: list[int] = []  # indices of the spans still running, innermost last
    patched: list[tuple[object, str, object]] = []
    try:
        for name, (module_name, attr, count) in LAYERS.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                raise RuntimeError(f"cannot trace {name}: {module_name}.{attr} not found")
            wrapper = _wrap(name, original, count, spans, open_)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "greenlint" and not mod_name.startswith("greenlint."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patched.append((mod, key, value))
                        setattr(mod, key, wrapper)
        yield spans
    finally:
        for mod, key, value in reversed(patched):
            setattr(mod, key, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start) - covered)
    return out


def invocation_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced ``cli.main`` call."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    counts: dict[str, int] = {}
    for span, s in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + (span.end - span.start)
        own[span.name] = own.get(span.name, 0.0) + s
        for key, n in span.counts.items():
            k = f"{span.name}.{key}"
            counts[k] = counts.get(k, 0) + n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    java_files = counts.get("engine.process_file.java", 0)
    xml_files = counts.get("engine.process_file.xml", 0)
    m = {
        "engine.discover_files.s": total.get("engine.discover_files", 0.0),
        "engine.discover_files.files": counts.get("engine.discover_files.files", 0),
        "engine.process_file.calls": calls.get("engine.process_file", 0),
        "engine.process_file.self_s": own.get("engine.process_file", 0.0),
        "java.lexer.tokenize.calls": calls.get("java.lexer.tokenize", 0),
        "java.lexer.tokenize.s": total.get("java.lexer.tokenize", 0.0),
        "java.lexer.tokens": counts.get("java.lexer.tokenize.tokens", 0),
        "java.lexer.mb_per_s": ratio(
            counts.get("java.lexer.tokenize.bytes", 0) / 1e6,
            total.get("java.lexer.tokenize", 0.0),
        ),
        "java.parser.parse_java_source.calls": calls.get("java.parser.parse_java_source", 0),
        "java.parser.parse_java_source.self_s": own.get("java.parser.parse_java_source", 0.0),
        "java.parser.parses_per_java_file": ratio(
            calls.get("java.parser.parse_java_source", 0), java_files
        ),
        "xmltree.parse_layout_xml.calls": calls.get("xmltree.parse_layout_xml", 0),
        "xmltree.parse_layout_xml.s": total.get("xmltree.parse_layout_xml", 0.0),
        "xmltree.parses_per_xml_file": ratio(
            calls.get("xmltree.parse_layout_xml", 0), xml_files
        ),
    }
    for rule in RULES:
        name = f"rules.{rule}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = total.get(name, 0.0)
        m[f"{name}.findings"] = counts.get(f"{name}.findings", 0)
        m[f"{name}.edits"] = counts.get(f"{name}.edits", 0)
    m.update(
        {
            "spans.apply_edit_set.calls": calls.get("spans.apply_edit_set", 0),
            "spans.apply_edit_set.s": total.get("spans.apply_edit_set", 0.0),
            "spans.edits_applied": counts.get("spans.apply_edit_set.edits", 0),
            "report.aggregate.s": total.get("report.aggregate", 0.0),
            "report.emit.s": total.get("report.emit", 0.0),
            "cli.self_s": own.get("cli.main", 0.0),
        }
    )
    return m


def layer_metrics(invocations: list[list[Span]], overhead_share: float) -> dict[str, float]:
    """Median of each per-invocation metric over the traced invocations,
    per-file latency percentiles pooled over all of them, and the tracing
    overhead."""
    per_call = [invocation_metrics(spans) for spans in invocations]
    out = {key: statistics.median(m[key] for m in per_call) for key in per_call[0]}
    latencies = sorted(
        (s.end - s.start) * 1e3
        for spans in invocations
        for s in spans
        if s.name == "engine.process_file"
    )
    out["engine.process_file.p50_ms"] = _percentile(latencies, 50)
    out["engine.process_file.p99_ms"] = _percentile(latencies, 99)
    out["trace.overhead_share"] = overhead_share
    return out


def _percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def missing_layers(workload: str, invocations: list[list[Span]]) -> list[str]:
    seen = {s.name for spans in invocations for s in spans}
    return [name for name in EXPECTED_LAYERS[workload] if name not in seen]
