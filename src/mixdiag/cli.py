"""Command line front end.

Exit codes: 0 on success (for ``detect``: no anomalies), 2 when ``detect``
found anomalies, 1 on any error including bad usage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .anomalies import DetectionSettings, anomalies_from_json, anomalies_to_json, detect
from .automaton import deserialize, learn, serialize
from .catalog import PHASES, catalog_from_json, default_catalog, validate_catalog
from .config import FaultSpec, config_from_json
from .errors import MixdiagError, dump_json, parse_json, read_text
from .events import parse_log, split_cycles, to_trace
from .kg import KnowledgeGraph
from .ntriples import parse_ntriples, serialize_ntriples
from .pipeline import SCENARIOS, build_graph, export_mapping_sources, run_pipeline
from .plant import default_config, simulate, write_log_csv
from .query import query_from_dict
from .report import Report, context_service, render_report, rows_doc
from .virtual import VirtualBinding


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_config(path: str | None):
    if path is None:
        return default_config()
    return config_from_json(read_text(path))


def _load_log(path: str):
    return parse_log(read_text(path))


def _actuator_ids(args, log):
    """The actuator ids of ``--config`` when given, else those in the log."""
    if args.config:
        return _load_config(args.config).actuator_ids()
    return sorted({aid for _, aid, _ in log.actuator_records})


def _load_catalog(path: str | None):
    if not path:
        return default_catalog()
    return catalog_from_json(read_text(path))


def _parse_fault(spec: str) -> FaultSpec:
    parts = spec.split(":")
    if len(parts) < 3 or len(parts) > 5:
        raise MixdiagError(
            f"bad fault spec {spec!r}; expected kind:target:magnitude[:onset[:duration]]"
        )
    try:
        magnitude = float(parts[2])
        onset = float(parts[3]) if len(parts) > 3 else 0.0
        duration = float(parts[4]) if len(parts) > 4 else None
    except ValueError as exc:
        raise MixdiagError(f"bad fault spec {spec!r}: {exc}") from None
    return FaultSpec(parts[0], parts[1], magnitude, onset, duration)


def _settings(args) -> DetectionSettings:
    return DetectionSettings(abs_tol_s=args.abs_tol, rel_tol=args.rel_tol)


def _load_graph(graph_path: str, log_path: str | None) -> KnowledgeGraph:
    graph = parse_ntriples(read_text(graph_path))
    if log_path:
        graph = graph.bind_virtual(VirtualBinding(Path(log_path)))
    return graph.infer()


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    faults = tuple(_parse_fault(spec) for spec in args.fault)
    log = simulate(
        config, args.cycles, faults, args.seed, noise_sigma=args.noise
    )
    _emit(write_log_csv(log), args.out)
    return 0


def cmd_trace(args) -> int:
    log = _load_log(args.log)
    trace = to_trace(log, _actuator_ids(args, log), merge_window_s=args.merge_window)
    doc = {
        "initial_vector": trace.initial_vector.as_dict(),
        "steps": [
            {
                "t_s": step.t_s,
                "event": step.label,
                "dwell_s": step.dwell_s,
                "vector": step.resulting_vector.as_dict(),
            }
            for step in trace.steps
        ],
    }
    _emit(dump_json(doc), args.out)
    return 0


def cmd_learn(args) -> int:
    log = _load_log(args.log)
    trace = to_trace(log, _actuator_ids(args, log))
    traces = [trace] if args.no_split else split_cycles(trace, trace.initial_vector)
    automaton = learn(traces)
    converged = automaton.has_converged(args.window, args.epsilon)
    _emit(serialize(automaton), args.out)
    print(
        f"learned {len(automaton.states)} states, "
        f"{len(automaton.transitions)} transitions, "
        f"converged={converged}",
        file=sys.stderr,
    )
    return 0


def cmd_detect(args) -> int:
    automaton = deserialize(read_text(args.automaton))
    log = _load_log(args.log)
    trace = to_trace(log, automaton.actuator_ids())
    anomalies = detect(automaton, trace, _settings(args))
    _emit(anomalies_to_json(anomalies), args.out)
    if anomalies:
        print(f"{len(anomalies)} anomalies found", file=sys.stderr)
        return 2
    print("no anomalies", file=sys.stderr)
    return 0


def cmd_annotate(args) -> int:
    automaton = deserialize(read_text(args.automaton))
    anomalies = anomalies_from_json(read_text(args.anomalies)) if args.anomalies else []
    graph = build_graph(export_mapping_sources(default_config()), automaton, anomalies)
    _emit(serialize_ntriples(graph), args.out)
    return 0


def cmd_query(args) -> int:
    graph = _load_graph(args.graph, args.log)
    query = query_from_dict(parse_json(read_text(args.query)))
    doc = rows_doc(graph.query(query))
    _emit(dump_json(doc), args.out)
    return 0


def cmd_validate(args) -> int:
    graph = _load_graph(args.graph, args.log)
    results = validate_catalog(graph, _load_catalog(args.catalog))
    if args.phase:
        results = [result for result in results if result.phase == args.phase]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.cq_id}: {result.question}")
    return 0 if all(result.passed for result in results) else 1


def cmd_report(args) -> int:
    graph = _load_graph(args.graph, args.log)
    anomalies = anomalies_from_json(read_text(args.anomalies))
    catalog = _load_catalog(args.catalog)
    contexts = context_service(graph, anomalies) if anomalies else []
    cq_results = validate_catalog(graph, catalog)
    generated_at = f"report over {Path(args.anomalies).name} and {Path(args.graph).name}"
    report = Report(generated_at, args.scenario, anomalies, contexts, cq_results)
    _emit(render_report(report), args.out)
    return 0


def cmd_pipeline(args) -> int:
    result = run_pipeline(
        args.scenario,
        args.out_dir,
        seed=args.seed,
        train_cycles=args.train_cycles,
        settings=_settings(args),
    )
    print(f"scenario:    {result.scenario}")
    print(
        f"automaton:   {len(result.automaton.states)} states, "
        f"{len(result.automaton.transitions)} transitions"
    )
    print(f"anomalies:   {len(result.anomalies)}")
    passed = sum(1 for r in result.cq_results if r.passed)
    print(f"cq passed:   {passed}/{len(result.cq_results)}")
    print(f"artifacts:   {result.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixdiag",
        description="Timed-automaton diagnosis for the five-tank mixing module.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def tolerances(p):
        p.add_argument("--abs-tol", type=float, default=0.5,
                       help="absolute timing tolerance in seconds (default 0.5)")
        p.add_argument("--rel-tol", type=float, default=0.10,
                       help="relative timing tolerance (default 0.10)")

    p = sub.add_parser("simulate", help="run the plant simulation and write an event log")
    p.add_argument("--config", help="plant config JSON (default: built-in module)")
    p.add_argument("--cycles", type=int, default=1, help="number of batch cycles")
    p.add_argument("--seed", type=int, default=0, help="RNG seed for sensor noise")
    p.add_argument("--noise", type=float, default=0.0, help="sensor noise sigma")
    p.add_argument("--fault", action="append", default=[],
                   metavar="KIND:TARGET:MAGNITUDE[:ONSET[:DURATION]]",
                   help="inject a fault (repeatable)")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("trace", help="convert a log into a discrete event trace")
    p.add_argument("--log", required=True, help="event log CSV")
    p.add_argument("--config", help="plant config JSON for the actuator id set")
    p.add_argument("--merge-window", type=float, default=0.0,
                   help="merge changes within this window into one event (seconds)")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("learn", help="learn a timed automaton from a log")
    p.add_argument("--log", required=True, help="training log CSV")
    p.add_argument("--config", help="plant config JSON for the actuator id set")
    p.add_argument("--no-split", action="store_true",
                   help="learn from the whole trace instead of per-cycle traces")
    p.add_argument("--window", type=int, default=5,
                   help="convergence window in updates (default 5)")
    p.add_argument("--epsilon", type=float, default=0.5,
                   help="convergence bound shift threshold in seconds (default 0.5)")
    p.add_argument("--out", help="automaton JSON path (default: stdout)")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("detect", help="check a log against a learned automaton")
    p.add_argument("--automaton", required=True, help="automaton JSON")
    p.add_argument("--log", required=True, help="event log CSV to check")
    tolerances(p)
    p.add_argument("--out", help="anomalies JSON path (default: stdout)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("annotate", help="emit plant, automaton (and anomalies) as N-Triples")
    p.add_argument("--automaton", required=True, help="automaton JSON")
    p.add_argument("--anomalies", help="anomalies JSON to annotate as symptoms")
    p.add_argument("--out", help="N-Triples path (default: stdout)")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("query", help="run a pattern query against an N-Triples graph")
    p.add_argument("--graph", required=True, help="N-Triples file")
    p.add_argument("--query", required=True, help="query JSON file")
    p.add_argument("--log", help="bind this log CSV as a virtual observation source")
    p.add_argument("--out", help="result JSON path (default: stdout)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("validate", help="run a competency-question catalog")
    p.add_argument("--graph", required=True, help="N-Triples file")
    p.add_argument("--catalog", help="catalog JSON (default: built-in questions)")
    p.add_argument("--log", help="bind this log CSV as a virtual observation source")
    p.add_argument("--phase", choices=PHASES, help="only run questions of this phase")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="render a technician report")
    p.add_argument("--graph", required=True, help="N-Triples file")
    p.add_argument("--anomalies", required=True, help="anomalies JSON")
    p.add_argument("--catalog", help="catalog JSON (default: built-in questions)")
    p.add_argument("--log", help="bind this log CSV as a virtual observation source")
    p.add_argument("--scenario", default="recorded run", help="label for the report header")
    p.add_argument("--out", help="report text path (default: stdout)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="run the full diagnosis pipeline")
    p.add_argument("--scenario", choices=sorted(SCENARIOS), default="nominal")
    p.add_argument("--out-dir", required=True, help="directory for all artifacts")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--train-cycles", type=int, default=10)
    tolerances(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; fold usage
        # errors into the generic error code.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (MixdiagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
