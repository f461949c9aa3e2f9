"""End-to-end diagnosis pipeline.

``run_pipeline`` wires the stages together: simulate a training run, learn
the automaton, simulate an evaluation scenario, detect anomalies, populate
the knowledge graph (mappings, annotation, virtual sensor access), collect
context for each anomaly, validate the competency-question catalog, and
render a technician report.  An exclusive gateway skips context collection
when no anomalies were found; the report is written either way.
``build_graph`` is the one way the graph is populated; ``mixdiag annotate``
uses it too.

Every artifact is serialized canonically, so a pipeline run is
byte-deterministic for a fixed seed and scenario.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, asdict
from pathlib import Path

from . import annotate as ann
from .anomalies import (
    Anomaly,
    DetectionSettings,
    anomalies_to_json,
    detect,
)
from .automaton import TimedAutomaton, learn, serialize
from .errors import MixdiagError, ParseError, dump_json, parse_json
from .events import split_cycles, to_trace
from .kg import (
    KnowledgeGraph,
    MappingRule,
    Query,
    VirtualBinding,
    apply_mappings,
    query_from_dict,
    query_to_dict,
    serialize_ntriples,
)
from .plant import (
    FaultSpec,
    PlantConfig,
    config_to_json,
    default_config,
    simulate,
    write_log_csv,
)
from .terms import (
    Iri,
    Literal,
    RDF_TYPE,
    Term,
    Var,
    format_term,
    iri,
    term_from_jsonable,
    term_to_jsonable,
)

SCENARIOS: dict[str, tuple[FaultSpec, ...]] = {
    "nominal": (),
    "blockage": (FaultSpec("blockage", "P201", 0.5),),
    "leakage": (FaultSpec("leakage", "B204", 0.02),),
}

VDI_PROCESS_OPERATOR = iri("vdi3682:ProcessOperator")
VDI_ASSIGNED_TO = iri("vdi3682:assignedTo")
VDI_HAS_INPUT = iri("vdi3682:hasInput")
VDI_HAS_OUTPUT = iri("vdi3682:hasOutput")
ISA_EQUIPMENT = iri("isa88:Equipment")
ISA_IS_PART_OF = iri("isa88:isPartOf")
SOSA_SENSOR = iri("sosa:Sensor")
SOSA_ACTUATOR = iri("sosa:Actuator")
SOSA_OBSERVES = iri("sosa:observes")
DIN_CAPACITY = iri("din61360:capacityLiters")


class PipelineError(MixdiagError):
    """A pipeline stage failed; the message names the stage."""


# ---------------------------------------------------------------------------
# competency-question catalog


@dataclass(frozen=True)
class CqItem:
    """One competency question with its query and optional expected rows."""

    id: str
    phase: str  # contextualization | diagnosis
    question: str
    query: Query
    expected: tuple[dict[str, Term], ...] | None = None


@dataclass(frozen=True)
class CqCatalog:
    items: tuple[CqItem, ...]

    def __post_init__(self):
        ids = [item.id for item in self.items]
        if len(set(ids)) != len(ids):
            raise ParseError("duplicate competency question id")


@dataclass
class CqResult:
    cq_id: str
    phase: str
    question: str
    passed: bool
    actual: list[dict[str, Term]]
    expected: list[dict[str, Term]] | None


def default_catalog() -> CqCatalog:
    """The shipped question set: three structural questions with frozen
    answers and two diagnosis questions that require a populated graph."""

    def q(select, where, **kwargs):
        return query_from_dict({"select": select, "where": where, **kwargs})

    return CqCatalog(
        (
            CqItem(
                "CQ1",
                "contextualization",
                "Which part of the module is responsible for filling tank B201?",
                q(
                    ["?part"],
                    [
                        ["?f", "rdf:type", "vdi3682:ProcessOperator"],
                        ["?f", "vdi3682:hasInput", "ex:B201"],
                        ["?f", "vdi3682:assignedTo", "?part"],
                    ],
                ),
                ({"part": iri("ex:V201")},),
            ),
            CqItem(
                "CQ2",
                "contextualization",
                "Which sensors are part of tank B201?",
                q(
                    ["?s"],
                    [
                        ["?s", "rdf:type", "sosa:Sensor"],
                        ["?s", "isa88:isPartOf", "ex:B201"],
                    ],
                ),
                ({"s": iri("ex:L201")},),
            ),
            CqItem(
                "CQ3",
                "contextualization",
                "What property does the sensor at tank B201 measure?",
                q(
                    ["?p"],
                    [
                        ["?s", "rdf:type", "sosa:Sensor"],
                        ["?s", "isa88:isPartOf", "ex:B201"],
                        ["?s", "sosa:observes", "?p"],
                    ],
                ),
                ({"p": iri("din61360:FillLevel")},),
            ),
            CqItem(
                "CQ4",
                "diagnosis",
                "Between which two states was a temporal anomaly identified?",
                q(
                    ["?src", "?tgt"],
                    [
                        ["?a", "rdf:type", "ex:TimingAnomaly"],
                        ["?a", "iso17359:locatedAt", "?t"],
                        ["?t", "sm:source", "?src"],
                        ["?t", "sm:target", "?tgt"],
                    ],
                ),
            ),
            CqItem(
                "CQ5",
                "diagnosis",
                "By how many seconds was the anomaly outside the max?",
                q(
                    ["?d"],
                    [
                        ["?a", "rdf:type", "ex:TimingAnomaly"],
                        ["?a", "ex:deviationSeconds", "?d"],
                    ],
                ),
            ),
        )
    )


def catalog_to_json(catalog: CqCatalog) -> str:
    doc = {
        "competency_questions": [
            {
                "id": item.id,
                "phase": item.phase,
                "question": item.question,
                "query": query_to_dict(item.query),
                "expected": None
                if item.expected is None
                else [
                    {f"?{name}": term_to_jsonable(value) for name, value in sorted(row.items())}
                    for row in item.expected
                ],
            }
            for item in catalog.items
        ]
    }
    return dump_json(doc)


def catalog_from_json(text: str) -> CqCatalog:
    doc = parse_json(text)
    try:
        items = []
        for raw in doc["competency_questions"]:
            expected = None
            if raw.get("expected") is not None:
                expected = tuple(
                    {
                        key.lstrip("?"): _expected_term(value)
                        for key, value in row.items()
                    }
                    for row in raw["expected"]
                )
            items.append(
                CqItem(
                    str(raw["id"]),
                    str(raw.get("phase", "contextualization")),
                    str(raw["question"]),
                    query_from_dict(raw["query"]),
                    expected,
                )
            )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"bad catalog document: {exc}") from None
    return CqCatalog(tuple(items))


def _expected_term(raw) -> Term:
    term = term_from_jsonable(raw)
    if isinstance(term, Var):
        raise ParseError("expected rows must be ground terms")
    return term


def _row_key(row: dict[str, Term]) -> tuple:
    return tuple(sorted((name, format_term(value)) for name, value in row.items()))


def validate_catalog(graph: KnowledgeGraph, catalog: CqCatalog) -> list[CqResult]:
    """Run every question.  With expected rows the actual rows must match as
    multisets; without them the question passes iff it returns anything."""
    results = []
    for item in catalog.items:
        actual = graph.query(item.query)
        if item.expected is None:
            passed = bool(actual)
            expected = None
        else:
            expected = [dict(row) for row in item.expected]
            passed = Counter(map(_row_key, actual)) == Counter(map(_row_key, expected))
        results.append(CqResult(item.id, item.phase, item.question, passed, actual, expected))
    return results


# ---------------------------------------------------------------------------
# default graph population


def export_mapping_sources(config: PlantConfig) -> dict[str, str]:
    """Flatten the plant structure into the tabular sources the default
    mapping rules consume."""

    def csv_text(header: list[str], rows: list[list[str]]) -> str:
        lines = [",".join(header)]
        lines.extend(",".join(row) for row in rows)
        return "\n".join(lines) + "\n"

    tanks = csv_text(
        ["id", "capacity_l", "initial_l"],
        [[t.id, repr(t.capacity_l), repr(t.initial_l)] for t in config.tanks],
    )
    sensors = csv_text(
        ["id", "kind", "attached_to", "observes_property"],
        [[s.id, s.kind, s.attached_to, s.observes_property] for s in config.sensors],
    )
    actuators = csv_text(
        ["id", "kind"],
        [[a.id, a.kind] for a in config.actuators],
    )
    functions_rows, input_rows, output_rows = [], [], []
    acts = {a.id: a for a in config.actuators}
    for phase in config.phases:
        active = sorted(aid for aid, on in phase.actuator_vector.items() if on)
        for aid in active:
            functions_rows.append([phase.name, aid])
            actuator = acts[aid]
            if actuator.from_tank:
                input_rows.append([phase.name, actuator.from_tank])
            if actuator.to_tank:
                output_rows.append([phase.name, actuator.to_tank])
    return {
        "tanks.csv": tanks,
        "sensors.csv": sensors,
        "actuators.csv": actuators,
        "functions.csv": csv_text(["name", "actuator"], functions_rows),
        "function_inputs.csv": csv_text(["name", "tank"], input_rows),
        "function_outputs.csv": csv_text(["name", "tank"], output_rows),
        "plant_config.json": config_to_json(config),
    }


def default_mapping_rules() -> list[MappingRule]:
    def rule(rid, kind, source, iterator, subject, predicate, obj, datatype=None):
        return MappingRule(
            rid, kind, source, iterator, subject, iri(predicate), obj,
            None if datatype is None else iri(datatype),
        )

    return [
        rule("tank-equipment", "csv", "tanks.csv", "row", "ex:{id}", "rdf:type", "isa88:Equipment"),
        rule("tank-capacity", "json", "plant_config.json", "/tanks", "ex:{id}",
             "din61360:capacityLiters", "{capacity_l}", "xsd:double"),
        rule("actuator-equipment", "csv", "actuators.csv", "row", "ex:{id}", "rdf:type",
             "isa88:Equipment"),
        rule("actuator-type", "csv", "actuators.csv", "row", "ex:{id}", "rdf:type",
             "sosa:Actuator"),
        rule("sensor-type", "csv", "sensors.csv", "row", "ex:{id}", "rdf:type", "sosa:Sensor"),
        rule("sensor-part-of", "csv", "sensors.csv", "row", "ex:{id}", "isa88:isPartOf",
             "ex:{attached_to}"),
        rule("sensor-observes", "csv", "sensors.csv", "row", "ex:{id}", "sosa:observes",
             "din61360:{observes_property}"),
        rule("function-type", "csv", "functions.csv", "row", "ex:{name}", "rdf:type",
             "vdi3682:ProcessOperator"),
        rule("function-resource", "csv", "functions.csv", "row", "ex:{name}",
             "vdi3682:assignedTo", "ex:{actuator}"),
        rule("function-input", "csv", "function_inputs.csv", "row", "ex:{name}",
             "vdi3682:hasInput", "ex:{tank}"),
        rule("function-output", "csv", "function_outputs.csv", "row", "ex:{name}",
             "vdi3682:hasOutput", "ex:{tank}"),
    ]


def equipment_map_for(automaton: TimedAutomaton) -> dict[int, Iri]:
    """Map each state with exactly one active actuator to that actuator's
    equipment individual; the idle state stays unmapped."""
    mapping = {}
    for state in automaton.states.values():
        active = state.vector.active()
        if len(active) == 1:
            mapping[state.id] = iri(f"ex:{active[0]}")
    return mapping


def build_graph(
    sources: dict[str, str],
    automaton: TimedAutomaton,
    anomalies: list[Anomaly],
    log_path: str | Path | None = None,
) -> KnowledgeGraph:
    """Populate the knowledge graph: the plant mappings over ``sources``
    (see :func:`export_mapping_sources`), the annotated automaton and, when
    there are any, its anomalies.  ``log_path`` is bound as a virtual
    observation source when given.  The graph comes back inferred."""
    graph = KnowledgeGraph()
    graph = graph.insert(apply_mappings(default_mapping_rules(), sources))
    graph = graph.insert(ann.annotate_automaton(automaton, equipment_map_for(automaton)))
    if anomalies:
        graph = graph.insert(ann.annotate_anomalies(anomalies, graph.asserted))
    if log_path is not None:
        graph = graph.bind_virtual(VirtualBinding(log_path))
    return graph.infer()


# ---------------------------------------------------------------------------
# services


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
                transition=format_term(tr),
                source_state=format_term(source),
                target_state=format_term(target),
                source_signals=_active_signals(graph, source),
                target_signals=_active_signals(graph, target),
                equipment=tuple(sorted({format_term(e) for e in equipment})),
                functions=tuple(sorted({format_term(f) for f in functions})),
                sensors=tuple(sorted({format_term(s) for s in sensors})),
            )
        )
    return contexts


def rows_doc(rows: list[dict[str, Term]]) -> list[dict[str, str]]:
    """Result rows as ``{"?var": text}`` objects for JSON output."""
    return [{f"?{k}": format_term(v) for k, v in sorted(row.items())} for row in rows]


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
                    f"?{k}={format_term(v)}" for k, v in sorted(row.items())
                )
                lines.append(f"         {rendered}")
        else:
            lines.append("         (no rows)")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the pipeline


@dataclass
class PipelineResult:
    out_dir: Path
    scenario: str
    automaton: TimedAutomaton
    anomalies: list[Anomaly]
    contexts: list[AnomalyContext]
    cq_results: list[CqResult]
    report: Report
    graph: KnowledgeGraph
    artifacts: dict[str, Path]


def run_pipeline(
    scenario: str,
    out_dir: str | Path,
    *,
    seed: int = 42,
    train_cycles: int = 10,
    settings: DetectionSettings | None = None,
) -> PipelineResult:
    if scenario not in SCENARIOS:
        raise PipelineError(f"unknown scenario {scenario!r} (choose from {sorted(SCENARIOS)})")
    config = default_config()
    settings = settings or DetectionSettings()
    catalog = default_catalog()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, Path] = {}

    def write(name: str, text: str) -> Path:
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        artifacts[name] = path
        return path

    def stage(name: str, fn):
        try:
            return fn()
        except MixdiagError as exc:
            raise PipelineError(f"stage {name!r} failed: {exc}") from exc

    # behavior learning
    train_log = stage("train", lambda: simulate(config, train_cycles, (), seed))
    write("train_log.csv", write_log_csv(train_log))
    train_trace = stage("train", lambda: to_trace(train_log, config))
    traces = stage(
        "train", lambda: split_cycles(train_trace, train_trace.initial_vector)
    )
    automaton = stage("learn", lambda: learn(traces))
    # Only the automaton is needed from here on.  Dropping the training log
    # and trace now keeps their objects out of the collector's later passes.
    del train_log, train_trace, traces
    write("automaton.json", serialize(automaton))

    # evaluation run and detection
    eval_log = stage(
        "evaluate", lambda: simulate(config, 1, SCENARIOS[scenario], seed)
    )
    eval_log_path = write("eval_log.csv", write_log_csv(eval_log))
    eval_trace = stage("evaluate", lambda: to_trace(eval_log, config))
    anomalies = stage("detect", lambda: detect(automaton, eval_trace, settings))
    write("anomalies.json", anomalies_to_json(anomalies))

    # knowledge graph population
    sources = export_mapping_sources(config)
    for name, text in sources.items():
        write(f"sources/{name}", text)
    graph = stage(
        "annotate", lambda: build_graph(sources, automaton, anomalies, eval_log_path)
    )
    write("graph.nt", serialize_ntriples(graph))
    write("cq_catalog.json", catalog_to_json(catalog))

    # gateway: context collection only runs when anomalies exist
    contexts = stage(
        "context", lambda: context_service(graph, anomalies) if anomalies else []
    )
    cq_results = stage("validate", lambda: validate_catalog(graph, catalog))
    validation = {
        "all_contextualization_passed": all(
            r.passed for r in cq_results if r.phase == "contextualization"
        ),
        "results": [
            {"id": r.cq_id, "phase": r.phase, "passed": r.passed} for r in cq_results
        ],
    }
    write("validation.json", dump_json(validation))

    generated_at = f"plant run, seed {seed}, scenario {scenario}"
    report = Report(generated_at, scenario, anomalies, contexts, cq_results)
    text = stage("report", lambda: render_report(report))
    write("report.json", dump_json(report.to_dict()))
    write("report.txt", text)

    return PipelineResult(
        out, scenario, automaton, anomalies, contexts, cq_results, report, graph, artifacts
    )
