"""Context for each anomaly, collected by fixed graph queries, and the
technician report that presents it with the competency-question results."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import annotate as ann
from .anomalies import Anomaly
from .catalog import CqResult
from .kg import KnowledgeGraph
from .query import Query
from .terms import RDF_TYPE, Iri, Literal, Term, Var, iri

VDI_ASSIGNED_TO = iri("vdi3682:assignedTo")
VDI_HAS_INPUT = iri("vdi3682:hasInput")
VDI_HAS_OUTPUT = iri("vdi3682:hasOutput")
ISA_IS_PART_OF = iri("isa88:isPartOf")
SOSA_SENSOR = iri("sosa:Sensor")


@dataclass
class AnomalyContext:
    """Graph context for one anomaly: where it sits in the state machine and
    which plant parts and sensors a technician should look at."""

    anomaly: Anomaly
    resolved: bool
    transition: str | None = None
    source_state: str | None = None
    target_state: str | None = None
    source_signals: tuple[str, ...] = ()
    target_signals: tuple[str, ...] = ()
    equipment: tuple[str, ...] = ()
    functions: tuple[str, ...] = ()
    sensors: tuple[str, ...] = ()


def _query_values(graph: KnowledgeGraph, select: str, where) -> list[Term]:
    rows = graph.query(Query((select,), tuple(where)))
    return [row[select] for row in rows]


def _active_signals(graph: KnowledgeGraph, state: Iri) -> tuple[str, ...]:
    values = _query_values(graph, "v", [(state, ann.EX_SIGNAL_VALUE, Var("v"))])
    active = []
    for value in values:
        if isinstance(value, Literal) and value.lexical.endswith("=true"):
            active.append(value.lexical.removesuffix("=true"))
    return tuple(sorted(active))


def context_service(graph: KnowledgeGraph, anomalies: list[Anomaly]) -> list[AnomalyContext]:
    """Run the fixed context queries for every anomaly.

    The chain is: transition, its states and signals, related equipment, the
    functions assigned to that equipment, and finally the sensors attached
    to the equipment or to the functions' input/output tanks.  An anomaly
    whose transition is not in the graph comes back marked unresolved.
    """
    contexts = []
    for anomaly in anomalies:
        if anomaly.source_state is None or anomaly.target_state is None:
            contexts.append(AnomalyContext(anomaly, resolved=False))
            continue
        tr = ann.transition_iri(anomaly.source_state, anomaly.event_label, anomaly.target_state)
        if not _query_values(graph, "c", [(tr, RDF_TYPE, Var("c"))]):
            contexts.append(AnomalyContext(anomaly, resolved=False))
            continue
        source = ann.state_iri(anomaly.source_state)
        target = ann.state_iri(anomaly.target_state)
        # every query is anchored on the transition's equipment; each field
        # below is a sorted set, so row multiplicity does not matter
        e, f, s, t = Var("e"), Var("f"), Var("s"), Var("t")
        related = (tr, ann.ISA_RELATES_TO_EQUIPMENT, e)
        assigned = (f, VDI_ASSIGNED_TO, e)
        sensor = (s, RDF_TYPE, SOSA_SENSOR)
        equipment = _query_values(graph, "e", [related])
        functions = _query_values(graph, "f", [related, assigned])
        sensors = _query_values(graph, "s", [related, sensor, (s, ISA_IS_PART_OF, e)])
        for predicate in (VDI_HAS_INPUT, VDI_HAS_OUTPUT):
            sensors += _query_values(
                graph, "s", [related, assigned, (f, predicate, t), sensor, (s, ISA_IS_PART_OF, t)]
            )
        contexts.append(
            AnomalyContext(
                anomaly,
                resolved=True,
                transition=str(tr),
                source_state=str(source),
                target_state=str(target),
                source_signals=_active_signals(graph, source),
                target_signals=_active_signals(graph, target),
                equipment=tuple(sorted({str(e) for e in equipment})),
                functions=tuple(sorted({str(f) for f in functions})),
                sensors=tuple(sorted({str(s) for s in sensors})),
            )
        )
    return contexts


def rows_doc(rows: list[dict[str, Term]]) -> list[dict[str, str]]:
    """Result rows as ``{"?var": text}`` objects for JSON output."""
    return [{f"?{k}": str(v) for k, v in sorted(row.items())} for row in rows]


@dataclass
class Report:
    generated_at: str
    scenario: str
    anomalies: list[Anomaly]
    contexts: list[AnomalyContext]
    cq_results: list[CqResult]

    def to_dict(self) -> dict:
        return {
            "generated_at": self.generated_at,
            "scenario": self.scenario,
            "anomalies": [asdict(a) for a in self.anomalies],
            "contexts": [
                {k: v for k, v in asdict(c).items() if k != "anomaly"} | {"anomaly_index": i}
                for i, c in enumerate(self.contexts)
            ],
            "competency_questions": [
                {
                    "id": r.cq_id,
                    "phase": r.phase,
                    "question": r.question,
                    "passed": r.passed,
                    "actual": rows_doc(r.actual),
                    "expected": None if r.expected is None else rows_doc(r.expected),
                }
                for r in self.cq_results
            ],
        }


def render_report(report: Report) -> str:
    lines = [
        "MIXING MODULE DIAGNOSIS REPORT",
        f"generated: {report.generated_at}",
        f"scenario:  {report.scenario}",
        "",
    ]
    if not report.anomalies:
        lines.append("No anomalies detected; the module behaved within the learned envelope.")
    else:
        lines.append(f"Anomalies detected: {len(report.anomalies)}")
        contexts = list(report.contexts) + [None] * (
            len(report.anomalies) - len(report.contexts)
        )
        for i, (anomaly, context) in enumerate(zip(report.anomalies, contexts), start=1):
            lines.append("")
            lines.append(f"[{i}] {anomaly.kind} at t={anomaly.at_t_s} s (event {anomaly.event_label})")
            if anomaly.observed_dwell_s is not None:
                bound_kind = "max" if anomaly.kind == "TimingAboveMax" else "min"
                lines.append(
                    f"    observed dwell {anomaly.observed_dwell_s} s, "
                    f"learned {bound_kind} {anomaly.bound_s} s, "
                    f"deviation {anomaly.deviation_s} s"
                )
            if context is None or not context.resolved:
                lines.append("    context: unresolved (transition not in the knowledge graph)")
                continue
            lines.append(
                f"    between states {context.source_state} "
                f"(active: {', '.join(context.source_signals) or 'none'}) -> "
                f"{context.target_state} (active: {', '.join(context.target_signals) or 'none'})"
            )
            lines.append(f"    equipment: {', '.join(context.equipment) or 'none'}")
            lines.append(f"    functions: {', '.join(context.functions) or 'none'}")
            lines.append(f"    sensors to check: {', '.join(context.sensors) or 'none'}")
    lines.append("")
    lines.append("Competency questions:")
    for r in report.cq_results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"  [{status}] {r.cq_id} ({r.phase}): {r.question}")
        if r.actual:
            for row in r.actual:
                rendered = ", ".join(
                    f"?{k}={v}" for k, v in sorted(row.items())
                )
                lines.append(f"         {rendered}")
        else:
            lines.append("         (no rows)")
    lines.append("")
    return "\n".join(lines)
