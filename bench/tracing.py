"""Spans around the public mixdiag functions, recorded from outside.

The traced run wraps each function where its callers look it up: module
attributes of ``mixdiag.pipeline`` (which ``run_pipeline`` reads at call
time), ``mixdiag.annotate`` and ``mixdiag.events`` (``VirtualBinding.scan``
imports ``parse_log`` from there on every call), and methods of
``KnowledgeGraph`` and ``VirtualBinding``.  Nothing under ``src/`` changes
and the untraced run installs nothing.

Spans record name, start, end, parent span and op id; they stay in memory
and are written once, when the run ends.  Everything is single-threaded,
so child spans nest inside their parent and a span's self time is its
duration minus its children's durations; there is no waiting time.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from mixdiag import annotate, events, kg, pipeline


def _size(*names):
    """A counter that adds ``len(result)`` to each named count."""

    def count(result) -> dict[str, int]:
        return {name: len(result) for name in names}

    return count


def _log_records(log) -> dict[str, int]:
    return {"plant.records": len(log.actuator_records) + len(log.sensor_records)}


def _automaton_size(automaton) -> dict[str, int]:
    return {
        "automaton.states": len(automaton.states),
        "automaton.transitions": len(automaton.transitions),
    }


def _graph_size(graph) -> dict[str, int]:
    return {
        "kg.asserted_triples": len(graph.asserted),
        "kg.closure_triples": len(graph.all_triples()),
    }


# (span name, owner, attribute, counter of the result).  The layer is the
# span name's first part; which end-to-end metric each layer should move,
# and on which workload, is tabled in NOTES.md.
TARGETS = (
    ("plant.simulate", pipeline, "simulate", _log_records),
    ("plant.write_log_csv", pipeline, "write_log_csv", _size("plant.csv_bytes")),
    ("events.to_trace", pipeline, "to_trace", lambda t: {"events.trace_steps": len(t.steps)}),
    ("events.split_cycles", pipeline, "split_cycles", None),
    ("events.parse_log", events, "parse_log", None),
    ("automaton.learn", pipeline, "learn", _automaton_size),
    ("automaton.serialize", pipeline, "serialize", None),
    ("anomalies.detect", pipeline, "detect", _size("anomalies.found")),
    ("annotate.annotate_automaton", annotate, "annotate_automaton", _size("annotate.triples")),
    ("annotate.annotate_anomalies", annotate, "annotate_anomalies", _size("annotate.triples")),
    ("kg.apply_mappings", pipeline, "apply_mappings", None),
    ("kg.insert", kg.KnowledgeGraph, "insert", None),
    ("kg.infer", kg.KnowledgeGraph, "infer", _graph_size),
    ("kg.query", kg.KnowledgeGraph, "query", _size("kg.query.rows")),
    ("kg.virtual.scan", kg.VirtualBinding, "scan", _size("kg.virtual.triples_scanned")),
    ("kg.serialize_ntriples", pipeline, "serialize_ntriples", None),
    ("pipeline.run_pipeline", pipeline, "run_pipeline", None),
    ("pipeline.context_service", pipeline, "context_service", None),
    ("pipeline.validate_catalog", pipeline, "validate_catalog", None),
    ("pipeline.render_report", pipeline, "render_report", None),
)

COUNTS = (
    "plant.records",
    "plant.csv_bytes",
    "events.trace_steps",
    "automaton.states",
    "automaton.transitions",
    "anomalies.found",
    "annotate.triples",
    "kg.asserted_triples",
    "kg.closure_triples",
    "kg.query.rows",
    "kg.virtual.scans_per_op",
    "kg.virtual.triples_scanned",
)
RATIOS = ("kg.virtual.rows_per_triple_scanned",)
OVERHEAD = ("trace.latency_p50_s", "trace.overhead_p50_s")


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = [f"{span}.{part}" for span, *_ in TARGETS for part in ("self_s", "calls", "errors")]
    return names + list(COUNTS) + list(RATIOS) + list(OVERHEAD)


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "plant.csv_bytes":
        return "bytes"
    if name in RATIOS:
        return "ratio"
    return "count"


class Tracer:
    """Collects spans while its wrappers are installed.

    A span is ``[name, start, end, parent index, op id, counts]``; ``counts``
    holds what the span's counter read off the result.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.op = None
        self._stack: list[int] = []
        self._originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr, _ in TARGETS]
        self._wrapped = [
            (owner, attr, self._wrap(name, getattr(owner, attr), counter))
            for name, owner, attr, counter in TARGETS
        ]

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, perf_counter(), None, parent, tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[name] += 1
                raise
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span[5] = counter(result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, wrapped in self._wrapped:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)

    def per_layer(self, speed: dict, traced_p50: float, untraced_p50: float) -> dict[str, float]:
        """Per-op metrics over the traced ops, the keys of ``speed``: self
        times (scaled by each op's host-speed factor), calls and counts are
        means per op; errors are totals over the run."""
        children: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        scanning_queries = {s[3] for s in self.spans if s[0] == "kg.virtual.scan"}
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        totals: dict[str, int] = defaultdict(int)
        scanned_query_rows = 0
        for index, (name, start, end, _, op, counts) in enumerate(self.spans):
            if op not in speed:
                continue
            self_s[name] += (end - start - children[index]) * speed[op]
            calls[name] += 1
            for key, value in (counts or {}).items():
                totals[key] += value
            if index in scanning_queries:
                scanned_query_rows += counts["kg.query.rows"]
        totals["kg.virtual.scans_per_op"] = calls["kg.virtual.scan"]
        n = len(speed)
        out: dict[str, float] = {}
        for name, *_ in TARGETS:
            out[f"{name}.self_s"] = self_s[name] / n
            out[f"{name}.calls"] = calls[name] / n
            out[f"{name}.errors"] = self.errors[name]
        for key in COUNTS:
            out[key] = totals[key] / n
        scanned = totals["kg.virtual.triples_scanned"]
        out["kg.virtual.rows_per_triple_scanned"] = scanned_query_rows / scanned if scanned else 0.0
        out["trace.latency_p50_s"] = traced_p50
        out["trace.overhead_p50_s"] = traced_p50 - untraced_p50
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op", "counts")
        doc = [dict(zip(keys, span)) for span in self.spans]
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
