"""End-to-end diagnosis pipeline.

``run_pipeline`` wires the stages together: simulate a training run, learn
the automaton, simulate an evaluation scenario, detect anomalies, populate
the knowledge graph (mappings, annotation, virtual sensor access), collect
context for each anomaly, validate the competency-question catalog, and
render a technician report.  An exclusive gateway skips context collection
when no anomalies were found; the report is written either way.
``build_graph`` is the one way the graph is populated; ``mixdiag annotate``
uses it too.
Both call each stage by its name in this module, so a wrapper set on the
module (``bench/tracing.py``) is seen.

Every artifact is serialized canonically, so a pipeline run is
byte-deterministic for a fixed seed and scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import annotate as ann
from .anomalies import Anomaly, DetectionSettings, anomalies_to_json, detect
from .automaton import TimedAutomaton, learn, serialize
from .catalog import CqResult, catalog_to_json, default_catalog, validate_catalog
from .errors import MixdiagError, dump_json
from .events import split_cycles, to_trace
from .kg import KnowledgeGraph
from .mappings import MappingRule, apply_mappings
from .ntriples import serialize_ntriples
from .plant import FaultSpec, PlantConfig, config_to_json, default_config, simulate, write_log_csv
from .report import AnomalyContext, Report, context_service, render_report
from .terms import Iri, iri
from .virtual import VirtualBinding

SCENARIOS: dict[str, tuple[FaultSpec, ...]] = {
    "nominal": (),
    "blockage": (FaultSpec("blockage", "P201", 0.5),),
    "leakage": (FaultSpec("leakage", "B204", 0.02),),
}


class PipelineError(MixdiagError):
    """A pipeline stage failed; the message names the stage."""


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
        # In 64 KiB slices, so no UTF-8 copy of a whole log is held.
        with path.open("w", encoding="utf-8") as f:
            for start in range(0, len(text), 1 << 16):
                f.write(text[start : start + (1 << 16)])
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
