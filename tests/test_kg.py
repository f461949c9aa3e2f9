"""Triple store: queries, alignment, inference, N-Triples, OBDA."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from mixdiag.errors import MixdiagError, ParseError
from mixdiag.kg import (
    Filter,
    KnowledgeGraph,
    Query,
    SourceUnavailable,
    VirtualBinding,
    parse_ntriples,
    query_from_dict,
    query_to_dict,
    serialize_ntriples,
)
from mixdiag.plant import default_config, simulate, write_log_csv
from mixdiag.terms import (
    Iri,
    Literal,
    RDFS_SUBCLASS_OF,
    Triple,
    iri,
)


def t(s, p, o):
    obj = o if not isinstance(o, str) else iri(o)
    return Triple(iri(s), iri(p), obj)


def q(select, where, **kwargs):
    return query_from_dict({"select": select, "where": where, **kwargs})


@pytest.fixture
def family():
    return KnowledgeGraph().insert(
        [
            t("ex:alice", "ex:parentOf", "ex:bob"),
            t("ex:alice", "ex:parentOf", "ex:carol"),
            t("ex:bob", "ex:parentOf", "ex:dave"),
            t("ex:alice", "ex:age", Literal.double(52.0)),
            t("ex:bob", "ex:age", Literal.double(27.0)),
            t("ex:carol", "ex:age", Literal.double(25.0)),
            t("ex:alice", "rdfs:label", Literal.string("Alice")),
        ]
    )


# ---------------------------------------------------------------------------
# store semantics


def test_insert_is_set_like(family):
    before = len(family)
    again = family.insert([t("ex:alice", "ex:parentOf", "ex:bob")])
    assert len(again) == before
    assert again == family


def test_insert_returns_new_snapshot(family):
    bigger = family.insert([t("ex:dave", "ex:parentOf", "ex:erin")])
    assert len(bigger) == len(family) + 1
    assert len(family) == 7  # original untouched


# ---------------------------------------------------------------------------
# query engine


def test_join_across_patterns(family):
    rows = family.query(
        q(["?gp", "?gc"], [["?gp", "ex:parentOf", "?p"], ["?p", "ex:parentOf", "?gc"]])
    )
    assert rows == [{"gp": iri("ex:alice"), "gc": iri("ex:dave")}]


def test_bag_semantics_preserves_join_multiplicity(family):
    # alice has two children, so she appears twice
    rows = family.query(q(["?who"], [["?who", "ex:parentOf", "?c"]]))
    names = [r["who"] for r in rows]
    assert names.count(iri("ex:alice")) == 2
    assert names.count(iri("ex:bob")) == 1


def test_results_are_sorted_canonically(family):
    rows = family.query(q(["?c"], [["ex:alice", "ex:parentOf", "?c"]]))
    assert [r["c"] for r in rows] == [iri("ex:bob"), iri("ex:carol")]


def test_order_by_and_limit(family):
    rows = family.query(
        q(
            ["?p", "?a"],
            [["?p", "ex:age", "?a"]],
            order_by="?a",
            limit=2,
        )
    )
    assert [r["p"] for r in rows] == [iri("ex:carol"), iri("ex:bob")]


def test_limit_zero(family):
    assert family.query(q(["?p"], [["?p", "ex:age", "?a"]], limit=0)) == []


def test_numeric_filter(family):
    rows = family.query(
        q(["?p"], [["?p", "ex:age", "?a"]], filters=[["?a", ">=", 27.0]])
    )
    assert {r["p"] for r in rows} == {iri("ex:alice"), iri("ex:bob")}


def test_unsatisfiable_filter_returns_empty(family):
    assert (
        family.query(q(["?p"], [["?p", "ex:age", "?a"]], filters=[["?a", ">", 1e9]]))
        == []
    )


def test_iri_equality_filter(family):
    rows = family.query(
        q(["?c"], [["?p", "ex:parentOf", "?c"]], filters=[["?c", "!=", "ex:bob"]])
    )
    assert {r["c"] for r in rows} == {iri("ex:carol"), iri("ex:dave")}


def test_cross_datatype_comparison_drops_the_row(family):
    # label is a string; ordering it against a number is an error -> row out
    rows = family.query(
        q(["?v"], [["ex:alice", "rdfs:label", "?v"]], filters=[["?v", "<", 10.0]])
    )
    assert rows == []


def test_string_comparison_works(family):
    rows = family.query(
        q(["?v"], [["ex:alice", "rdfs:label", "?v"]], filters=[["?v", "=", "Alice"]])
    )
    assert len(rows) == 1


def test_same_variable_must_unify_within_a_pattern(family):
    loops = KnowledgeGraph().insert(
        [t("ex:n1", "ex:linksTo", "ex:n1"), t("ex:n1", "ex:linksTo", "ex:n2")]
    )
    rows = loops.query(q(["?n"], [["?n", "ex:linksTo", "?n"]]))
    assert rows == [{"n": iri("ex:n1")}]


def test_query_validation():
    with pytest.raises(MixdiagError):
        Query((), ())  # empty select
    with pytest.raises(MixdiagError):
        q(["?missing"], [["?s", "ex:p", "?o"]])
    with pytest.raises(MixdiagError):
        q(["?s"], [["?s", "ex:p", "?o"]], filters=[["?s", "~", 1]])
    with pytest.raises(MixdiagError):
        q(["?s"], [["?s", "ex:p", "?o"]], limit=-1)
    with pytest.raises(MixdiagError):
        q(["?s"], [["?s", "ex:p", "?o"]], order_by="?nope")


def test_query_dict_round_trip(family):
    original = q(
        ["?p", "?a"],
        [["?p", "ex:age", "?a"]],
        filters=[["?a", ">", 20.0]],
        order_by="?a",
        limit=3,
    )
    assert query_from_dict(query_to_dict(original)) == original


# ---------------------------------------------------------------------------
# alignment and inference


def test_subclass_alignment_entails_type_propagation():
    g = (
        KnowledgeGraph()
        .insert([t("ex:pump1", "rdf:type", "ex:Pump")])
        .align("subclass", iri("ex:Pump"), iri("isa88:Equipment"))
    )
    rows = g.infer().query(q(["?x"], [["?x", "rdf:type", "isa88:Equipment"]]))
    assert rows == [{"x": iri("ex:pump1")}]


def test_subclass_chain_is_transitively_closed():
    g = KnowledgeGraph().insert(
        [t(f"ex:c{i}", "rdfs:subClassOf", f"ex:c{i + 1}") for i in range(5)]
        + [t("ex:thing", "rdf:type", "ex:c0")]
    )
    inferred = g.infer()
    all_triples = inferred.all_triples()
    assert t("ex:c0", "rdfs:subClassOf", "ex:c5") in all_triples
    assert t("ex:thing", "rdf:type", "ex:c5") in all_triples


def test_long_subclass_chain_closes_to_exactly_its_ancestors():
    classes = [f"ex:c{i}" for i in range(200)]
    instances = [f"ex:x{k}" for k in range(20)]
    asserted = [t(a, "rdfs:subClassOf", b) for a, b in zip(classes, classes[1:])]
    asserted += [t(x, "rdf:type", classes[0]) for x in instances]
    expected = {
        t(classes[i], "rdfs:subClassOf", classes[j])
        for i in range(200)
        for j in range(i + 1, 200)
    } | {t(x, "rdf:type", c) for x in instances for c in classes}
    closure = KnowledgeGraph(asserted).all_triples()
    assert closure == expected
    assert len(closure) == 23_900


def test_equivalence_is_symmetric_transitive_and_shares_assertions():
    g = (
        KnowledgeGraph()
        .insert(
            [
                t("ex:m1", "rdf:type", "ex:Motor"),
                t("ex:m1", "ex:locatedIn", "ex:cell3"),
            ]
        )
        .align("equivalent_to", iri("ex:m1"), iri("ex:motorA"))
        .align("equivalent_to", iri("ex:motorA"), iri("ex:motorPrime"))
    )
    full = g.infer().all_triples()
    assert t("ex:motorA", "ex:equivalentTo", "ex:m1") in full
    assert t("ex:m1", "ex:equivalentTo", "ex:motorPrime") in full
    assert t("ex:motorPrime", "rdf:type", "ex:Motor") in full
    assert t("ex:motorPrime", "ex:locatedIn", "ex:cell3") in full


def test_attribute_to_class_alignment():
    g = (
        KnowledgeGraph()
        .insert([t("ex:s1", "ex:hasAttribute", "ex:fillLevelAttr")])
        .align("attribute_to_class", iri("ex:fillLevelAttr"), iri("din61360:FillLevel"))
    )
    full = g.infer().all_triples()
    assert t("ex:fillLevelAttr", "rdf:type", "din61360:FillLevel") in full


def test_relation_to_alignment_propagates_property():
    g = (
        KnowledgeGraph()
        .insert([t("ex:f1", "ex:feeds", "ex:tank9")])
        .align("relation_to", iri("ex:feeds"), iri("vdi3682:hasOutput"))
    )
    full = g.infer().all_triples()
    assert t("ex:f1", "vdi3682:hasOutput", "ex:tank9") in full


def test_unknown_alignment_mechanism_rejected():
    with pytest.raises(MixdiagError):
        KnowledgeGraph().align("same_as", iri("ex:a"), iri("ex:b"))


def test_infer_is_idempotent_and_monotone(family):
    once = family.infer()
    twice = once.infer()
    assert once.all_triples() == twice.all_triples()
    grown = family.insert([t("ex:erin", "rdf:type", "ex:Person")])
    assert family.infer().all_triples() <= grown.infer().all_triples()


_POOL = [f"ex:n{i}" for i in range(6)]
_PREDS = ["rdf:type", "rdfs:subClassOf", "ex:equivalentTo", "ex:relationTo", "ex:p"]


@settings(max_examples=50, deadline=None)
@given(
    triples=st.lists(
        st.tuples(
            st.sampled_from(_POOL), st.sampled_from(_PREDS), st.sampled_from(_POOL)
        ),
        max_size=25,
    ),
    extra=st.tuples(
        st.sampled_from(_POOL), st.sampled_from(_PREDS), st.sampled_from(_POOL)
    ),
)
def test_inference_properties_on_random_graphs(triples, extra):
    g = KnowledgeGraph().insert(t(*row) for row in triples)
    closed = g.infer().all_triples()
    # idempotent
    assert g.infer().infer().all_triples() == closed
    # monotone
    grown = g.insert([t(*extra)])
    assert closed <= grown.infer().all_triples()


# ---------------------------------------------------------------------------
# N-Triples


def test_ntriples_round_trip(family):
    text = serialize_ntriples(family)
    again = parse_ntriples(text)
    assert again.asserted == family.asserted
    assert serialize_ntriples(again) == text


def test_ntriples_output_is_sorted(family):
    lines = serialize_ntriples(family).splitlines()
    assert lines == sorted(lines)


def test_ntriples_escapes_special_characters():
    nasty = Literal.string('say "hi"\n\tback\\slash')
    g = KnowledgeGraph().insert([Triple(iri("ex:a"), iri("rdfs:label"), nasty)])
    text = serialize_ntriples(g)
    # escaping keeps each triple on one physical line
    assert len(text.splitlines()) == 1
    again = parse_ntriples(text)
    assert again.asserted == g.asserted


def test_ntriples_rejects_malformed_line():
    with pytest.raises(ParseError) as err:
        parse_ntriples("<http://a> <http://b> .\n")
    assert "line 1" in str(err.value)


def test_ntriples_rejects_unterminated_literal():
    with pytest.raises(ParseError):
        parse_ntriples(
            '<http://a> <http://b> "oops^^<http://www.w3.org/2001/XMLSchema#string> .\n'
        )


def test_ntriples_blank_lines_ok():
    g = parse_ntriples("\n\n")
    assert len(g) == 0


# ---------------------------------------------------------------------------
# virtual access (observation data stays in the CSV)


@pytest.fixture()
def logged(tmp_path):
    config = default_config()
    log = simulate(config, 1, (), 0)
    path = tmp_path / "run.csv"
    path.write_text(write_log_csv(log), encoding="utf-8")
    n_samples = len(log.sensor_records)
    graph = KnowledgeGraph().insert(
        [t("ex:L204", "rdf:type", "sosa:Sensor")]
    )
    return graph.bind_virtual(VirtualBinding(path)), n_samples, path


def test_virtual_observations_answer_queries(logged):
    graph, n_samples, _ = logged
    n_sensors = len(default_config().sensors)
    assert n_samples % n_sensors == 0
    rows = graph.query(
        q(["?o"], [["?o", "sosa:madeBySensor", "ex:L204"]])
    )
    # one observation per sample of that sensor
    assert len(rows) == n_samples // n_sensors


def test_virtual_type_pattern_served(logged):
    graph, n_samples, _ = logged
    rows = graph.query(q(["?o"], [["?o", "rdf:type", "sosa:Observation"]]))
    assert len(rows) == n_samples


def test_virtual_triples_never_enter_the_store(logged):
    graph, _, _ = logged
    assert len(graph) == 1
    graph.query(q(["?o"], [["?o", "rdf:type", "sosa:Observation"]]))
    assert len(graph) == 1
    assert "obs_" not in serialize_ntriples(graph)


OBSERVATIONS = q(["?o"], [["?o", "rdf:type", "sosa:Observation"]])


def test_scan_counter_tracks_source_reads(logged):
    graph, n_samples, path = logged
    binding = graph.virtual_sources[0]
    assert binding.scan_count == 0
    # a join over two virtual patterns parses the file once, not once per row
    graph.query(
        q(
            ["?v"],
            [
                ["?o", "sosa:madeBySensor", "ex:L204"],
                ["?o", "sosa:hasSimpleResult", "?v"],
            ],
        )
    )
    assert binding.scan_count == 1
    graph.query(OBSERVATIONS)
    assert binding.scan_count == 1
    # a purely asserted query does not touch the source
    graph.query(q(["?s"], [["?s", "rdf:type", "sosa:Sensor"]]))
    assert binding.scan_count == 1

    # appending one record is new content: exactly one more scan
    text = path.read_text(encoding="utf-8")
    last = text.splitlines(keepends=True)[-1]
    assert ",sensor," in last
    path.write_text(text + last, encoding="utf-8")
    assert len(graph.query(OBSERVATIONS)) == n_samples + 1
    graph.query(OBSERVATIONS)
    assert binding.scan_count == 2

    # a rewrite of the same size and mtime is still seen
    before = path.stat()
    head, value = last.rstrip("\n").rsplit(",", 1)
    changed = "9" * len(value)
    path.write_text(text + f"{head},{changed}\n", encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert path.stat().st_size == before.st_size
    rows = graph.query(
        q(["?v"], [[f"ex:obs_{n_samples}", "sosa:hasSimpleResult", "?v"]])
    )
    assert rows == [{"v": Literal.double(float(changed))}]
    assert binding.scan_count == 3


def test_deleted_source_raises_after_a_successful_query(logged):
    graph, n_samples, path = logged
    assert len(graph.query(OBSERVATIONS)) == n_samples
    path.unlink()
    with pytest.raises(SourceUnavailable):
        graph.query(OBSERVATIONS)


def test_malformed_source_raises_until_fixed(logged):
    graph, n_samples, path = logged
    good = path.read_text(encoding="utf-8")
    assert len(graph.query(OBSERVATIONS)) == n_samples
    path.write_text(good + "not,a,valid,record\n", encoding="utf-8")
    for _ in range(2):
        with pytest.raises(ParseError):
            graph.query(OBSERVATIONS)
    path.write_text(good, encoding="utf-8")
    assert len(graph.query(OBSERVATIONS)) == n_samples


def test_snapshots_sharing_a_binding_never_see_a_stale_view(logged):
    graph, n_samples, path = logged
    inserted = graph.insert([t("ex:L205", "rdf:type", "sosa:Sensor")])
    doubled = graph.bind_virtual(VirtualBinding(path))
    for g, copies in ((graph, 1), (inserted, 1), (doubled, 2)):
        assert len(g.query(OBSERVATIONS)) == copies * n_samples
    text = path.read_text(encoding="utf-8")
    path.write_text(text + text.splitlines(keepends=True)[-1], encoding="utf-8")
    for g, copies in ((doubled, 2), (inserted, 1), (graph, 1)):
        assert len(g.query(OBSERVATIONS)) == copies * (n_samples + 1)


def test_missing_source_raises_at_query_time(tmp_path):
    graph = KnowledgeGraph().bind_virtual(VirtualBinding(tmp_path / "gone.csv"))
    with pytest.raises(SourceUnavailable):
        graph.query(q(["?o"], [["?o", "rdf:type", "sosa:Observation"]]))
    # binding alone never touches the file
    assert len(graph) == 0


def test_observation_values_match_the_csv(logged):
    graph, _, path = logged
    rows = graph.query(
        q(
            ["?v"],
            [
                ["?o", "sosa:madeBySensor", "ex:T201"],
                ["?o", "sosa:hasSimpleResult", "?v"],
            ],
        )
    )
    assert {r["v"] for r in rows} == {Literal.double(20.0)}
