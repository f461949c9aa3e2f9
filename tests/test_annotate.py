"""Automaton and anomaly annotation as graph triples, and the way back."""

import pytest

from mixdiag.annotate import (
    MalformedAnnotation,
    UnknownTransition,
    annotate_anomalies,
    annotate_automaton,
    anomaly_iri,
    rebuild_automaton,
    state_iri,
    transition_iri,
)
from mixdiag.anomalies import Anomaly, detect
from mixdiag.events import to_trace
from mixdiag.kg import KnowledgeGraph
from mixdiag.query import query_from_dict
from mixdiag.terms import Iri, Literal, Triple, iri

from conftest import state_by_active


def q(select, where, **kwargs):
    return query_from_dict({"select": select, "where": where, **kwargs})


@pytest.fixture(scope="module")
def graph(automaton):
    equipment = {
        state_by_active(automaton, "P201"): iri("ex:P201"),
    }
    return KnowledgeGraph().insert(annotate_automaton(automaton, equipment))


def test_machine_is_typed_as_diagnostic_model(graph):
    rows = graph.infer().query(
        q(["?m"], [["?m", "rdf:type", "iso17359:DiagnosticModel"]])
    )
    assert rows == [{"m": iri("ex:TA")}]


def test_state_and_transition_counts(graph):
    states = graph.query(q(["?s"], [["ex:TA", "sm:hasState", "?s"]]))
    transitions = graph.query(q(["?t"], [["ex:TA", "sm:hasTransition", "?t"]]))
    assert len(states) == 7
    assert len(transitions) == 7


def test_exactly_one_initial_state_flag(graph):
    rows = graph.query(
        q(
            ["?s"],
            [["?s", "sm:isInitial", Literal.boolean(True)]],
        )
    )
    assert len(rows) == 1


def test_signal_literals_describe_each_state(graph, automaton):
    dose1 = state_iri(state_by_active(automaton, "V201"))
    rows = graph.query(q(["?v"], [[dose1, "din61360:hasValue", "?v"]]))
    lexicals = sorted(r["v"].lexical for r in rows)
    assert "V201=true" in lexicals
    assert sum(l.endswith("=true") for l in lexicals) == 1
    assert len(lexicals) == 6


def test_transition_carries_timing_statistics(graph, automaton):
    transfer = state_by_active(automaton, "P201")
    drain = state_by_active(automaton, "V205")
    tr = transition_iri(transfer, "P201↓,V205↑", drain)
    rows = graph.query(
        q(
            ["?min", "?max", "?n"],
            [
                [tr, "ex:tMinSeconds", "?min"],
                [tr, "ex:tMaxSeconds", "?max"],
                [tr, "ex:observationCount", "?n"],
            ],
        )
    )
    assert rows == [
        {"min": Literal.double(30.0), "max": Literal.double(30.0), "n": Literal.integer(10)}
    ]


def test_transition_inherits_source_state_equipment(graph, automaton):
    transfer = state_by_active(automaton, "P201")
    drain = state_by_active(automaton, "V205")
    tr = transition_iri(transfer, "P201↓,V205↑", drain)
    rows = graph.query(q(["?e"], [[tr, "isa88:relatesToEquipment", "?e"]]))
    assert rows == [{"e": iri("ex:P201")}]


def test_events_carry_labels(graph):
    rows = graph.query(
        q(["?e", "?l"], [["?e", "rdf:type", "sm:Event"], ["?e", "rdfs:label", "?l"]])
    )
    labels = {r["l"].lexical for r in rows}
    assert "P201↓,V205↑" in labels
    assert len(rows) == 7


def test_rebuild_round_trip(automaton):
    rebuilt = rebuild_automaton(annotate_automaton(automaton))
    assert rebuilt == automaton
    for key, transition in automaton.transitions.items():
        again = rebuilt.transitions[key]
        assert again.mean_s == transition.mean_s
        assert again.m2_s2 == transition.m2_s2


def test_rebuild_survives_graph_round_trip(automaton):
    from mixdiag.ntriples import parse_ntriples, serialize_ntriples

    g = KnowledgeGraph().insert(annotate_automaton(automaton))
    rebuilt = rebuild_automaton(parse_ntriples(serialize_ntriples(g)).asserted)
    assert rebuilt == automaton


def test_rebuild_needs_exactly_one_machine(automaton):
    with pytest.raises(MalformedAnnotation):
        rebuild_automaton([])
    doubled = annotate_automaton(automaton) + [
        Triple(iri("ex:TA2"), iri("rdf:type"), iri("sm:StateMachine"))
    ]
    with pytest.raises(MalformedAnnotation):
        rebuild_automaton(doubled)


def test_rebuild_rejects_missing_stats(automaton):
    triples = annotate_automaton(automaton)
    pruned = [
        t for t in triples if t.predicate != iri("ex:tMinSeconds")
    ]
    with pytest.raises(MalformedAnnotation):
        rebuild_automaton(pruned)


def test_rebuild_rejects_dangling_transition_endpoint(automaton):
    triples = annotate_automaton(automaton)
    # retarget one transition to a state IRI that is not part of the machine
    patched = []
    hit = False
    for t in triples:
        if not hit and t.predicate == iri("sm:target"):
            patched.append(Triple(t.subject, t.predicate, iri("ex:TA_s_99")))
            hit = True
        else:
            patched.append(t)
    with pytest.raises(MalformedAnnotation):
        rebuild_automaton(patched)


# ---------------------------------------------------------------------------
# anomaly annotation


def test_timing_anomaly_becomes_located_symptom(automaton, config, blockage_log):
    found = detect(automaton, to_trace(blockage_log, config))
    base = annotate_automaton(automaton)
    triples = annotate_anomalies(found, base)
    g = KnowledgeGraph().insert(base + triples).infer()

    rows = g.query(
        q(
            ["?a", "?t", "?d"],
            [
                ["?a", "rdf:type", "iso17359:Symptom"],
                ["?a", "iso17359:locatedAt", "?t"],
                ["?a", "ex:deviationSeconds", "?d"],
            ],
        )
    )
    assert len(rows) == 1
    assert rows[0]["a"] == anomaly_iri(0)
    transfer = state_by_active(automaton, "P201")
    drain = state_by_active(automaton, "V205")
    assert rows[0]["t"] == transition_iri(transfer, "P201↓,V205↑", drain)
    # deviation is carried bit-exactly
    assert rows[0]["d"] == Literal.double(found[0].deviation_s)


def test_unknown_kind_anomaly_is_behavioral_not_located(automaton):
    base = annotate_automaton(automaton)
    a = Anomaly("UnknownEvent", "V203↑", 5.0, source_state=0, target_state=3)
    triples = annotate_anomalies([a], base)
    g = KnowledgeGraph().insert(triples)
    assert g.query(q(["?x"], [["?x", "rdf:type", "ex:BehaviorAnomaly"]])) == [
        {"x": anomaly_iri(0)}
    ]
    assert g.query(q(["?t"], [["?x", "iso17359:locatedAt", "?t"]])) == []


def test_timing_anomaly_on_unknown_transition_fails(automaton):
    base = annotate_automaton(automaton)
    bogus = Anomaly(
        "TimingAboveMax",
        "V201↑",
        9.0,
        source_state=3,  # no such transition from state 3 with this label
        target_state=1,
        observed_dwell_s=9.0,
        bound_s=5.0,
        deviation_s=4.0,
    )
    with pytest.raises(UnknownTransition):
        annotate_anomalies([bogus], base)


def test_empty_anomaly_list_annotates_to_nothing(automaton):
    assert annotate_anomalies([], annotate_automaton(automaton)) == []


def test_state_iris_are_stable():
    assert state_iri(3) == iri("ex:TA_s_3")
    assert isinstance(transition_iri(0, "x↑", 1), Iri)
    # the label hash makes distinct labels produce distinct IRIs
    assert transition_iri(0, "x↑", 1) != transition_iri(0, "y↑", 1)
