"""End-to-end acceptance checks.

Each test exercises one external guarantee of the package at its stated
tolerance and prints a single visible [PASS] line (bypassing capture) when
it holds; a violated guarantee fails the test before the line is printed.
"""

import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from mixdiag.anomalies import DetectionSettings, detect
from mixdiag.annotate import annotate_automaton, rebuild_automaton, transition_iri
from mixdiag.automaton import deserialize, learn, serialize
from mixdiag.catalog import default_catalog, validate_catalog
from mixdiag.events import split_cycles, to_trace
from mixdiag.kg import KnowledgeGraph
from mixdiag.ntriples import parse_ntriples, serialize_ntriples
from mixdiag.pipeline import run_pipeline
from mixdiag.plant import default_config, simulate, write_log_csv
from mixdiag.terms import Literal, iri

from conftest import state_by_active
from test_kg_oracle import canonical, oracle_query, random_graph, random_query

ZERO_TOL = DetectionSettings(abs_tol_s=0.0, rel_tol=0.0)


def announce(capfd, n, text):
    with capfd.disabled():
        print(f"[PASS] criterion {n:2d}: {text}")


def test_criterion_01_state_count_reproduction(config, train_log, capfd):
    started = time.perf_counter()
    trace = to_trace(train_log, config)
    automaton = learn(split_cycles(trace, trace.initial_vector))
    elapsed = time.perf_counter() - started

    assert len(automaton.states) == 7
    assert len(automaton.transitions) == 7
    initials = [s for s in automaton.states.values() if s.is_initial]
    assert len(initials) == 1 and initials[0].vector.active() == ()
    # the six production states plus the initial idle state form one cycle
    by_source = {t.source: t.target for t in automaton.transitions.values()}
    state, visited = initials[0].id, []
    for _ in range(7):
        visited.append(state)
        state = by_source[state]
    assert state == initials[0].id and len(set(visited)) == 7
    assert elapsed < 5.0
    announce(
        capfd, 1,
        f"learned 1 initial + 6 production states, 7 transitions, one cycle "
        f"({elapsed:.2f}s < 5s)",
    )


def test_criterion_02_zero_anomaly_replay(automaton, cycle_traces, capfd):
    started = time.perf_counter()
    for trace in cycle_traces:
        assert detect(automaton, trace, ZERO_TOL) == []
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(
        capfd, 2,
        f"all {len(cycle_traces)} training traces replay clean at zero tolerance "
        f"({elapsed:.2f}s < 1s)",
    )


def test_criterion_03_blockage_detection(automaton, config, blockage_log, capfd):
    started = time.perf_counter()
    found = detect(automaton, to_trace(blockage_log, config))
    elapsed = time.perf_counter() - started

    assert len(found) == 1
    a = found[0]
    assert a.kind == "TimingAboveMax"
    assert a.source_state == state_by_active(automaton, "P201")  # Transfer exit
    assert a.observed_dwell_s == pytest.approx(60.0, abs=0.2)
    assert a.bound_s == pytest.approx(30.0, abs=1e-9)
    assert a.deviation_s == pytest.approx(30.0, abs=0.2)
    assert elapsed < 5.0
    announce(
        capfd, 3,
        f"blockage: one TimingAboveMax on Transfer exit, dwell "
        f"{a.observed_dwell_s}s vs max {a.bound_s}s, deviation "
        f"{a.deviation_s}s = 30.0 +/- 0.2 ({elapsed:.2f}s < 5s)",
    )


def test_criterion_04_leakage_detection(automaton, config, leakage_log, capfd):
    started = time.perf_counter()
    found = detect(automaton, to_trace(leakage_log, config))
    elapsed = time.perf_counter() - started

    dose1_exit = [
        a for a in found
        if a.kind == "TimingAboveMax"
        and a.source_state == state_by_active(automaton, "V201")
    ]
    assert len(dose1_exit) == 1
    a = dose1_exit[0]
    assert a.observed_dwell_s == pytest.approx(25.0, abs=0.2)
    assert a.bound_s == pytest.approx(20.0, abs=1e-9)
    assert a.deviation_s == pytest.approx(5.0, abs=0.2)
    assert elapsed < 5.0
    announce(
        capfd, 4,
        f"leakage: TimingAboveMax on Dose1 exit, dwell {a.observed_dwell_s}s "
        f"vs max {a.bound_s}s, deviation {a.deviation_s}s = 5.0 +/- 0.2 "
        f"({elapsed:.2f}s < 5s)",
    )


def test_criterion_05_cq_suite(tmp_path, capfd):
    result = run_pipeline("blockage", tmp_path / "cq")
    results = {r.cq_id: r for r in validate_catalog(result.graph, default_catalog())}

    assert all(r.passed for r in results.values()), {
        k: v.passed for k, v in results.items()
    }
    assert results["CQ1"].actual == [{"part": iri("ex:V201")}]
    # the deviation answer equals the detector's value bit-exactly
    deviation = result.anomalies[0].deviation_s
    assert results["CQ5"].actual == [{"d": Literal.double(deviation)}]
    assert float(results["CQ5"].actual[0]["d"].lexical) == deviation
    announce(
        capfd, 5,
        "all five competency questions pass on the blockage graph; "
        f"deviation answer {deviation} is bit-exact",
    )


def test_criterion_06_query_engine_oracle_equivalence(capfd):
    rng = random.Random(1202)
    started = time.perf_counter()
    cases = 0
    while cases < 100:
        triples = random_graph(rng)
        graph = KnowledgeGraph().insert(triples)
        query = random_query(rng)
        assert Counter(map(canonical, graph.query(query))) == Counter(
            map(canonical, oracle_query(triples, query))
        ), f"case {cases} diverged: {query}"
        cases += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    announce(
        capfd, 6,
        f"{cases} random queries agree with the brute-force evaluator "
        f"({elapsed:.2f}s < 10s)",
    )


def test_criterion_07_inference_properties(capfd):
    from mixdiag.terms import Triple

    def t(s, p, o):
        return Triple(iri(s), iri(p), iri(o))

    pool = [f"ex:i{k}" for k in range(6)]
    preds = ["rdf:type", "rdfs:subClassOf", "ex:equivalentTo", "ex:relationTo", "ex:p"]
    rng = random.Random(7)
    started = time.perf_counter()
    for _ in range(50):
        triples = [
            t(rng.choice(pool), rng.choice(preds), rng.choice(pool))
            for _ in range(rng.randrange(0, 20))
        ]
        g = KnowledgeGraph().insert(triples)
        closed = g.infer().all_triples()
        assert g.infer().infer().all_triples() == closed  # idempotent
        extra = t(rng.choice(pool), rng.choice(preds), rng.choice(pool))
        assert closed <= g.insert([extra]).infer().all_triples()  # monotone

    chain = KnowledgeGraph().insert(
        [t(f"ex:c{i}", "rdfs:subClassOf", f"ex:c{i + 1}") for i in range(5)]
        + [t("ex:x", "rdf:type", "ex:c0")]
    )
    closure = chain.infer().all_triples()
    for i in range(6):
        for j in range(i + 1, 6):
            assert t(f"ex:c{i}", "rdfs:subClassOf", f"ex:c{j}") in closure
        assert t("ex:x", "rdf:type", f"ex:c{i}") in closure
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    announce(
        capfd, 7,
        f"inference idempotent+monotone on 50 random graphs, depth-5 subclass "
        f"chain complete ({elapsed:.2f}s < 5s)",
    )


def test_criterion_08_round_trips(automaton, capfd):
    again = deserialize(serialize(automaton))
    assert again == automaton
    for key, transition in automaton.transitions.items():
        assert again.transitions[key].mean_s == transition.mean_s

    graph = KnowledgeGraph().insert(annotate_automaton(automaton))
    reparsed = parse_ntriples(serialize_ntriples(graph))
    assert reparsed.asserted == graph.asserted

    rebuilt = rebuild_automaton(reparsed.asserted)
    assert rebuilt == automaton
    for key, transition in automaton.transitions.items():
        other = rebuilt.transitions[key]
        assert other.mean_s == pytest.approx(transition.mean_s, rel=1e-9)
        assert other.mean_s == transition.mean_s  # in fact bit-exact
    announce(
        capfd, 8,
        "automaton JSON, graph N-Triples, and annotate/rebuild round trips "
        "are identities (means bit-exact, within 1e-9 required)",
    )


def test_criterion_09_simulator_conservation(config, capfd):
    previous_total = sum(t.initial_l for t in config.tanks)
    worst = 0.0

    def audit(t_s, levels, inflow, outflow, leaked):
        nonlocal previous_total, worst
        total = sum(levels.values())
        worst = max(worst, abs(total - (previous_total + inflow - outflow - leaked)))
        previous_total = total

    log = simulate(config, 10, (), 42, on_step=audit)
    assert worst <= 1e-9
    assert write_log_csv(log) == write_log_csv(simulate(config, 10, (), 42))
    announce(
        capfd, 9,
        f"per-step mass balance error {worst:.2e} <= 1e-9 L over 10 cycles; "
        "logs byte-identical for fixed seed",
    )


def test_criterion_10_end_to_end_determinism(tmp_path, capfd):
    first = run_pipeline("blockage", tmp_path / "one", seed=42)
    second = run_pipeline("blockage", tmp_path / "two", seed=42)
    for name in ("report.txt", "report.json", "graph.nt"):
        assert (
            first.artifacts[name].read_bytes() == second.artifacts[name].read_bytes()
        ), name
    # and every other artifact as well
    assert set(first.artifacts) == set(second.artifacts)
    for name in first.artifacts:
        assert first.artifacts[name].read_bytes() == second.artifacts[name].read_bytes()

    golden_dir = Path(__file__).parent / "golden" / "blockage"
    frozen = ""
    if golden_dir.exists():
        for name in ("report.txt", "graph.nt"):
            assert first.artifacts[name].read_bytes() == (golden_dir / name).read_bytes()
        frozen = "; matches frozen goldens"
    announce(
        capfd, 10,
        f"two blockage pipeline runs byte-identical across all "
        f"{len(first.artifacts)} artifacts{frozen}",
    )
