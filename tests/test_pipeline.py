"""Pipeline services, orchestration, CLI exit codes, and golden artifacts."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mixdiag.anomalies import Anomaly, anomalies_from_json
from mixdiag.automaton import deserialize, serialize
from mixdiag.catalog import (
    CqCatalog,
    CqItem,
    catalog_from_json,
    catalog_to_json,
    default_catalog,
    validate_catalog,
)
from mixdiag.cli import main
from mixdiag.config import ConfigError, config_from_json, config_to_json
from mixdiag.errors import MixdiagError, ParseError, parse_json
from mixdiag.kg import KnowledgeGraph
from mixdiag.ntriples import parse_ntriples
from mixdiag.pipeline import PipelineError, equipment_map_for, run_pipeline
from mixdiag.plant import default_config, write_log_csv
from mixdiag.query import QueryError, query_from_dict
from mixdiag.report import context_service, render_report
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


def test_catalog_rejects_a_short_filter(tmp_path, capsys):
    doc = json.loads(catalog_to_json(default_catalog()))
    doc["competency_questions"][0]["query"]["filters"] = [["?x"]]
    with pytest.raises(QueryError, match="filter"):
        catalog_from_json(json.dumps(doc))
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(doc), encoding="utf-8")
    graph = tmp_path / "graph.nt"
    graph.write_text("", encoding="utf-8")
    assert main(["validate", "--graph", str(graph), "--catalog", str(catalog)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "filter" in line


@pytest.mark.parametrize(
    "key, spoil, named",
    [("where", lambda where: ["abc", *where], "a pattern"),
     ("where", lambda where: [{"?f": 0, "ex:p": 1, "?part": 2}, *where], "a pattern"),
     ("select", lambda select: dict.fromkeys(select, 1), "select")],
    ids=["string pattern", "object pattern", "object select"],
)
def test_catalog_rejects_a_query_part_that_is_not_an_array(key, spoil, named):
    doc = json.loads(catalog_to_json(default_catalog()))
    query = doc["competency_questions"][0]["query"]
    query[key] = spoil(query[key])
    with pytest.raises(QueryError, match=f"{named} must be an array"):
        catalog_from_json(json.dumps(doc))


def test_catalog_rejects_duplicate_ids():
    item = default_catalog().items[0]
    with pytest.raises(ParseError):
        CqCatalog((item, item))


# Structure-aware mutations of the shipped catalog's JSON documents: one node
# anywhere is replaced by any JSON value, dropped, or given a sibling.
_CATALOG_DOC = json.loads(catalog_to_json(default_catalog()))
_NAMES = st.sampled_from(
    ["select", "where", "filters", "order_by", "limit", "competency_questions", "id",
     "phase", "question", "query", "expected", "lexical", "datatype", "?part", "?s"]
)
_JSON = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
        st.sampled_from(["?x", "?", "ex:B201", "rdf:type", "ex:", "no:x", "<http://x/a>",
                         "<>", "xsd:double", "=", "<=", "~", "1.5"]),
        _NAMES,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.one_of(_NAMES, st.text(max_size=4)), inner, max_size=4)
    ),
    max_leaves=8,
)


@st.composite
def _mutated(draw, node):
    if isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        copy = dict(node) if isinstance(node, dict) else list(node)
        action = draw(st.sampled_from(["descend", "descend", "drop", "add"]))
        if action == "descend":
            copy[key] = draw(_mutated(node[key]))
        elif action == "drop":
            del copy[key]
        elif isinstance(copy, dict):
            copy[draw(_NAMES)] = draw(_JSON)
        else:
            copy.insert(key, draw(_JSON))
        return copy
    return draw(_JSON)


# JSON-like text: fragments of the shipped catalog, raw characters, and
# numbers and nesting past what ``json`` converts
_JSON_TEXTS = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(list(catalog_to_json(default_catalog()).split('"'))), max_size=12)
    .map('"'.join),
    st.sampled_from(["[" * 100_000, '{"a":' * 100_000, "1" * 5_000, "-" + "9" * 5_000, "1e999"]),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_mutated(_CATALOG_DOC), _JSON_TEXTS))
def test_catalog_from_json_returns_a_catalog_or_a_mixdiag_error(doc):
    try:
        catalog_from_json(doc if isinstance(doc, str) else json.dumps(doc))
    except MixdiagError:
        pass  # any other exception fails the test


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.sampled_from(_CATALOG_DOC["competency_questions"]).flatmap(lambda cq: _mutated(cq["query"])),
    _JSON_TEXTS,
))
def test_query_from_dict_returns_a_query_or_a_mixdiag_error(doc):
    try:  # raw text goes through the reader ``mixdiag query`` uses
        query_from_dict(parse_json(doc) if isinstance(doc, str) else doc)
    except MixdiagError:
        pass  # any other exception fails the test


# A valid document of each loader with no fuzz test of its own above
_LOADER_DOCS = {
    deserialize: json.loads((GOLDEN_DIR / "automaton.json").read_text(encoding="utf-8")),
    anomalies_from_json: json.loads((GOLDEN_DIR / "anomalies.json").read_text(encoding="utf-8")),
    config_from_json: json.loads(config_to_json(default_config())),
    # N-Triples as lines of space-separated tokens, written back by _nt_text
    parse_ntriples: [line.split(" ") for line in
                     (GOLDEN_DIR / "graph.nt").read_text(encoding="utf-8").splitlines()[:40]],
}


def _nt_text(doc) -> str:
    if not isinstance(doc, list):
        return str(doc)
    return "\n".join(" ".join(map(str, line)) if isinstance(line, list) else str(line)
                     for line in doc)


@pytest.mark.parametrize("load", list(_LOADER_DOCS), ids=lambda load: load.__name__)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_loaders_return_a_value_or_a_mixdiag_error(load, data):
    """Each loader, given one node of a valid document replaced, dropped or
    given a sibling, or raw JSON-like text, returns or raises MixdiagError."""
    doc = data.draw(st.one_of(_mutated(_LOADER_DOCS[load]), _JSON_TEXTS))
    if not isinstance(doc, str):
        doc = _nt_text(doc) if load is parse_ntriples else json.dumps(doc)
    try:
        load(doc)
    except MixdiagError:
        pass  # any other exception fails the test


def test_config_from_json_rejects_a_tank_reference_that_is_no_string():
    """A list there raised a bare TypeError when validation hashed it."""
    doc = json.loads(config_to_json(default_config()))
    doc["actuators"][0]["from_tank"] = []
    with pytest.raises(ConfigError, match=r"unknown tank \[\]"):
        config_from_json(json.dumps(doc))


def _spoiled(doc: dict, path: tuple, value) -> str:
    """``doc`` as JSON text, with the node at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "load, path, value, message",
    [
        (config_from_json, ("phases", 0, "actuator_vector", "V201"), "false", "bad plant config"),
        (config_from_json, ("phases", 0, "actuator_vector", "V201"), 0, "bad plant config"),
        (deserialize, ("transitions", 0, "count"), 2.9, "bad automaton document"),
        (deserialize, ("transitions", 0, "count"), 2.0, "bad automaton document"),
        (deserialize, ("transitions", 0, "source"), True, "bad automaton document"),
        (deserialize, ("transitions", 0, "target"), "1", "bad automaton document"),
        (deserialize, ("states", 0, "id"), 0.0, "bad automaton document"),
        (deserialize, ("states", 0, "is_initial"), "false", "bad automaton document"),
        (deserialize, ("states", 0, "vector", "P201"), 1, "bad automaton document"),
        (config_from_json, ("dt_s",), "0.1", "bad plant config"),
        (config_from_json, ("flows", "V201"), True, "bad plant config"),
        (config_from_json, ("phases", 0, "end_condition", "seconds"), "5", "bad plant config"),
        (config_from_json, ("tanks", 0, "id"), None, "bad plant config"),
        (deserialize, ("transitions", 0, "t_min_s"), True, "bad automaton document"),
        (deserialize, ("transitions", 0, "m2_s2"), "0.0", "bad automaton document"),
    ],
)
def test_json_loaders_take_booleans_and_integers_only_as_json_gives_them(
    load, path, value, message
):
    """No value is coerced: ``bool("false")`` is True, ``int(2.9)`` is 2,
    ``float(True)`` is 1.0 and ``str(None)`` is ``"None"``."""
    with pytest.raises(ParseError, match=message):
        load(_spoiled(_LOADER_DOCS[load], path, value))


@pytest.mark.parametrize(
    "key, value",
    [("phase", "Contextualization"), ("phase", 5), ("phase", None),
     ("id", 5), ("id", None), ("question", ["Which part?"])],
)
def test_catalog_from_json_rejects_an_unknown_phase_and_a_non_string_id_or_question(key, value):
    """Such a question loaded as it was, so ``validate --phase`` and
    ``all_contextualization_passed`` skipped it, and ``"id": null`` read as
    ``"None"``."""
    with pytest.raises(ParseError, match="bad catalog document"):
        catalog_from_json(_spoiled(_CATALOG_DOC, ("competency_questions", 0, key), value))


def test_json_loaders_reject_deep_nesting_and_long_numbers(tmp_path, capsys):
    """``json`` raises RecursionError and a bare ValueError on these; every
    JSON loader, and ``mixdiag query``, raises ParseError instead."""
    query, graph = tmp_path / "query.json", tmp_path / "graph.nt"
    graph.write_text("", encoding="utf-8")
    for text in ("[" * 100_000, "1" * 5_000):
        for load in (catalog_from_json, deserialize, anomalies_from_json, config_from_json):
            with pytest.raises(ParseError, match="invalid JSON"):
                load(text)
        query.write_text(text, encoding="utf-8")
        assert main(["query", "--graph", str(graph), "--query", str(query)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: invalid JSON: ")


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
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert len(doc["steps"]) == 7
    # labels are written as UTF-8, like every other artifact
    assert '"event": "V201↑"' in text and "\\u" not in text


def test_cli_learn_rejects_window_before_writing(tmp_path, capsys):
    log = tmp_path / "train.csv"
    out = tmp_path / "automaton.json"
    assert main(["simulate", "--cycles", "2", "--out", str(log)]) == 0
    assert main(["learn", "--log", str(log), "--window", "0", "--out", str(out)]) == 1
    assert "window must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["nan", "-1"])
def test_cli_learn_rejects_epsilon_before_writing(epsilon, tmp_path, capsys):
    log = tmp_path / "train.csv"
    out = tmp_path / "automaton.json"
    assert main(["simulate", "--cycles", "2", "--out", str(log)]) == 0
    assert main(["learn", "--log", str(log), f"--epsilon={epsilon}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: epsilon must be >= 0, got {float(epsilon)!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("tolerance", ["--abs-tol=nan", "--abs-tol=inf", "--rel-tol=-1"])
def test_cli_detect_rejects_a_tolerance_that_would_hide_anomalies(
    tolerance, automaton, blockage_log, tmp_path, capsys
):
    aut, log, out = tmp_path / "aut.json", tmp_path / "blockage.csv", tmp_path / "anom.json"
    aut.write_text(serialize(automaton), encoding="utf-8")
    log.write_text(write_log_csv(blockage_log), encoding="utf-8")
    argv = ["detect", "--automaton", str(aut), "--log", str(log), "--out", str(out)]
    assert main(argv) == 2  # the defaults find the blockage
    out.unlink()
    capsys.readouterr()
    assert main(argv + [tolerance]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite and >= 0" in err
    assert err.count("\n") == 1
    assert not out.exists()


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


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A valid file for each file-reading CLI flag, from one blockage run."""
    out = tmp_path_factory.mktemp("cli_inputs")
    run_pipeline("blockage", out, seed=42, train_cycles=2)
    query = out / "query.json"
    query.write_text(
        json.dumps({"select": ["?s"], "where": [["?s", "rdf:type", "sosa:Sensor"]]}, indent=2),
        encoding="utf-8",
    )
    return {
        "--config": out / "sources" / "plant_config.json",
        "--log": out / "eval_log.csv",
        "--automaton": out / "automaton.json",
        "--anomalies": out / "anomalies.json",
        "--graph": out / "graph.nt",
        "--query": query,
        "--catalog": out / "cq_catalog.json",
    }


@pytest.mark.parametrize(
    "command, flags, bad",
    [
        ("simulate", ["--config"], "--config"),
        ("trace", ["--log"], "--log"),
        ("trace", ["--log", "--config"], "--config"),
        ("learn", ["--log"], "--log"),
        ("learn", ["--log", "--config"], "--config"),
        ("detect", ["--automaton", "--log"], "--automaton"),
        ("detect", ["--automaton", "--log"], "--log"),
        ("annotate", ["--automaton"], "--automaton"),
        ("annotate", ["--automaton", "--anomalies"], "--anomalies"),
        ("query", ["--graph", "--query"], "--graph"),
        ("query", ["--graph", "--query"], "--query"),
        ("validate", ["--graph", "--catalog"], "--catalog"),
        ("report", ["--graph", "--anomalies"], "--graph"),
        ("report", ["--graph", "--anomalies"], "--anomalies"),
    ],
)
@pytest.mark.parametrize("end", [b"\n", b"\r\n"])
def test_cli_input_that_is_not_utf8_is_one_error_line(
    cli_inputs, tmp_path, capsys, command, flags, bad, end
):
    """Every input file is decoded as a bound log is: a byte that is not
    UTF-8 exits 1 with one error line naming its physical line."""
    lines = cli_inputs[bad].read_bytes().splitlines(keepends=True)
    lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
    broken = tmp_path / cli_inputs[bad].name
    broken.write_bytes(b"".join(lines).replace(b"\n", end))
    argv = [command]
    for flag in flags:
        argv += [flag, str(broken if flag == bad else cli_inputs[flag])]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == ["error: line 3: not UTF-8: byte 0xff"]
