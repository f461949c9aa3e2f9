"""Pipeline services, orchestration, CLI exit codes, and golden artifacts."""

import json
from pathlib import Path

import pytest

from mixdiag.anomalies import Anomaly, anomalies_from_json
from mixdiag.cli import main
from mixdiag.errors import ParseError
from mixdiag.kg import KnowledgeGraph
from mixdiag.pipeline import (
    CqCatalog,
    CqItem,
    PipelineError,
    catalog_from_json,
    catalog_to_json,
    context_service,
    default_catalog,
    equipment_map_for,
    render_report,
    run_pipeline,
    validate_catalog,
)
from mixdiag.kg import query_from_dict
from mixdiag.terms import iri

from conftest import state_by_active

GOLDEN_DIR = Path(__file__).parent / "golden" / "blockage"


@pytest.fixture(scope="module")
def blockage_run(tmp_path_factory):
    return run_pipeline("blockage", tmp_path_factory.mktemp("blockage"))


@pytest.fixture(scope="module")
def nominal_run(tmp_path_factory):
    return run_pipeline("nominal", tmp_path_factory.mktemp("nominal"))


# ---------------------------------------------------------------------------
# catalog


def test_default_catalog_has_five_questions():
    catalog = default_catalog()
    assert [item.id for item in catalog.items] == ["CQ1", "CQ2", "CQ3", "CQ4", "CQ5"]
    phases = {item.id: item.phase for item in catalog.items}
    assert phases["CQ1"] == "contextualization"
    assert phases["CQ5"] == "diagnosis"


def test_catalog_json_round_trip():
    catalog = default_catalog()
    text = catalog_to_json(catalog)
    again = catalog_from_json(text)
    assert again == catalog
    assert catalog_to_json(again) == text


def test_catalog_rejects_duplicate_ids():
    item = default_catalog().items[0]
    with pytest.raises(ParseError):
        CqCatalog((item, item))


def test_validation_uses_multiset_row_comparison(blockage_run):
    graph = blockage_run.graph
    base = default_catalog().items[0]

    enriched = CqItem(
        "X1", base.phase, base.question, base.query,
        base.expected + ({"part": iri("ex:V999")},),
    )
    failed = validate_catalog(graph, CqCatalog((enriched,)))[0]
    assert not failed.passed

    reordered = CqItem("X2", base.phase, base.question, base.query, base.expected)
    assert validate_catalog(graph, CqCatalog((reordered,)))[0].passed


def test_questions_without_expectations_pass_iff_nonempty(blockage_run, nominal_run):
    catalog = default_catalog()
    blockage_results = {r.cq_id: r for r in validate_catalog(blockage_run.graph, catalog)}
    nominal_results = {r.cq_id: r for r in validate_catalog(nominal_run.graph, catalog)}
    assert blockage_results["CQ4"].passed and blockage_results["CQ5"].passed
    assert not nominal_results["CQ4"].passed
    assert not nominal_results["CQ5"].passed


def test_validation_on_empty_graph_fails_everything():
    results = validate_catalog(KnowledgeGraph(), default_catalog())
    assert all(not r.passed for r in results)


# ---------------------------------------------------------------------------
# services


def test_context_service_resolves_blockage(blockage_run):
    contexts = context_service(blockage_run.graph, blockage_run.anomalies)
    assert len(contexts) == 1
    ctx = contexts[0]
    assert ctx.resolved
    assert ctx.equipment == ("ex:P201",)
    assert ctx.functions == ("ex:Transfer",)
    assert set(ctx.sensors) == {"ex:F201", "ex:L204", "ex:L205", "ex:T201"}
    assert ctx.source_signals == ("P201",)
    assert ctx.target_signals == ("V205",)


def test_context_service_marks_unplaceable_anomalies(blockage_run):
    stray = Anomaly("UnknownState", "V201↑", 3.0)
    contexts = context_service(blockage_run.graph, [stray])
    assert len(contexts) == 1
    assert not contexts[0].resolved


def test_equipment_map_assigns_single_actuator_states(automaton):
    mapping = equipment_map_for(automaton)
    assert mapping[state_by_active(automaton, "P201")] == iri("ex:P201")
    assert state_by_active(automaton) not in mapping  # idle state unmapped
    assert len(mapping) == 6


# ---------------------------------------------------------------------------
# orchestration


def test_unknown_scenario_rejected(tmp_path):
    with pytest.raises(PipelineError):
        run_pipeline("meltdown", tmp_path)


def test_pipeline_writes_all_artifacts(blockage_run):
    expected = {
        "train_log.csv",
        "eval_log.csv",
        "automaton.json",
        "anomalies.json",
        "graph.nt",
        "cq_catalog.json",
        "validation.json",
        "report.json",
        "report.txt",
    }
    assert expected <= set(blockage_run.artifacts)
    for path in blockage_run.artifacts.values():
        assert path.exists()


def test_pipeline_gateway_skips_context_when_clean(nominal_run):
    assert nominal_run.anomalies == []
    assert nominal_run.contexts == []
    assert "No anomalies detected" in render_report(nominal_run.report)


def test_pipeline_validation_json(blockage_run):
    doc = json.loads(blockage_run.artifacts["validation.json"].read_text())
    assert doc["all_contextualization_passed"] is True
    assert {r["id"] for r in doc["results"]} == {"CQ1", "CQ2", "CQ3", "CQ4", "CQ5"}


def test_pipeline_report_mentions_transfer_context(blockage_run):
    text = blockage_run.artifacts["report.txt"].read_text(encoding="utf-8")
    assert "TimingAboveMax" in text
    assert "ex:P201" in text
    assert "ex:Transfer" in text
    assert "deviation 30.0 s" in text


def test_pipeline_runs_are_byte_identical(tmp_path):
    a = run_pipeline("blockage", tmp_path / "a")
    b = run_pipeline("blockage", tmp_path / "b")
    assert set(a.artifacts) == set(b.artifacts)
    for name in a.artifacts:
        assert a.artifacts[name].read_bytes() == b.artifacts[name].read_bytes(), name


def test_observation_queries_work_on_pipeline_graph(blockage_run):
    rows = blockage_run.graph.query(
        query_from_dict(
            {
                "select": ["?o", "?v"],
                "where": [
                    ["?o", "sosa:madeBySensor", "ex:L205"],
                    ["?o", "sosa:hasSimpleResult", "?v"],
                ],
                "filters": [["?v", ">", 5.9]],
            }
        )
    )
    assert rows  # the transfer fills B205 up to 6 L


# ---------------------------------------------------------------------------
# golden files (frozen output of the blockage scenario)


@pytest.mark.skipif(not GOLDEN_DIR.exists(), reason="golden files not frozen yet")
def test_blockage_artifacts_match_goldens(blockage_run):
    for name in ("report.txt", "graph.nt", "automaton.json", "anomalies.json"):
        golden = (GOLDEN_DIR / name).read_bytes()
        actual = blockage_run.artifacts[name].read_bytes()
        assert actual == golden, f"{name} drifted from the frozen golden copy"


# ---------------------------------------------------------------------------
# CLI


def test_cli_pipeline_and_detect_exit_codes(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", "blockage", "--out-dir", str(out)]) == 0
    capsys.readouterr()

    rc = main(
        [
            "detect",
            "--automaton",
            str(out / "automaton.json"),
            "--log",
            str(out / "eval_log.csv"),
            "--out",
            str(tmp_path / "anom.json"),
        ]
    )
    assert rc == 2  # anomalies found

    rc = main(
        [
            "detect",
            "--automaton",
            str(out / "automaton.json"),
            "--log",
            str(out / "train_log.csv"),
            "--out",
            str(tmp_path / "clean.json"),
        ]
    )
    assert rc == 0  # clean log
    capsys.readouterr()
    assert (tmp_path / "anom.json").read_bytes() == (out / "anomalies.json").read_bytes()
    assert anomalies_from_json((tmp_path / "clean.json").read_text(encoding="utf-8")) == []


def test_cli_simulate_learn_annotate_validate(tmp_path, capsys):
    """The stepwise CLI builds the same graph as the blockage pipeline."""
    train, aut = tmp_path / "train.csv", tmp_path / "aut.json"
    log, anom, graph = tmp_path / "eval.csv", tmp_path / "anom.json", tmp_path / "graph.nt"
    assert main(["simulate", "--cycles", "10", "--seed", "42", "--out", str(train)]) == 0
    assert main(["learn", "--log", str(train), "--out", str(aut)]) == 0
    assert main(
        ["simulate", "--fault", "blockage:P201:0.5", "--seed", "42", "--out", str(log)]
    ) == 0
    assert main(
        ["detect", "--automaton", str(aut), "--log", str(log), "--out", str(anom)]
    ) == 2
    assert main(
        ["annotate", "--automaton", str(aut), "--anomalies", str(anom), "--out", str(graph)]
    ) == 0
    assert graph.read_bytes() == (GOLDEN_DIR / "graph.nt").read_bytes()
    assert main(["validate", "--graph", str(graph), "--log", str(log)]) == 0
    capsys.readouterr()
    assert main(["report", "--graph", str(graph), "--anomalies", str(anom)]) == 0
    assert "functions: ex:Transfer" in capsys.readouterr().out


def test_cli_query_subcommand(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", "nominal", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    query_file = tmp_path / "q.json"
    query_file.write_text(
        json.dumps(
            {"select": ["?s"], "where": [["?s", "rdf:type", "sosa:Sensor"]]}
        ),
        encoding="utf-8",
    )
    assert main(["query", "--graph", str(out / "graph.nt"), "--query", str(query_file)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {"?s": "ex:L201"} in rows
    assert len(rows) == 7


def test_cli_trace_subcommand(tmp_path, capsys):
    log = tmp_path / "one.csv"
    assert main(["simulate", "--cycles", "1", "--out", str(log)]) == 0
    assert main(["trace", "--log", str(log)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["steps"]) == 7


def test_cli_report_subcommand(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--scenario", "leakage", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    rc = main(
        [
            "report",
            "--graph",
            str(out / "graph.nt"),
            "--anomalies",
            str(out / "anomalies.json"),
            "--scenario",
            "leakage",
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "Anomalies detected: 5" in text


def test_cli_error_paths(capsys, tmp_path):
    assert main(["detect", "--automaton", "missing.json", "--log", "missing.csv"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["--help"]) == 0
    assert main(["simulate", "--cycles", "0"]) == 1
    bad_fault = main(
        ["simulate", "--cycles", "1", "--fault", "blockage:P201", "--out", str(tmp_path / "x.csv")]
    )
    assert bad_fault == 1
    capsys.readouterr()
