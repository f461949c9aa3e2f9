"""Triple store: queries, alignment, inference, N-Triples, OBDA."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import mixdiag
from mixdiag.cli import main
from mixdiag.errors import MixdiagError, ParseError
from mixdiag.kg import KnowledgeGraph
from mixdiag.ntriples import parse_ntriples, serialize_ntriples
from mixdiag.plant import default_config, simulate, write_log_csv
from mixdiag.query import Filter, Query, QueryError, query_from_dict, query_to_dict
from mixdiag.terms import (
    Iri,
    Literal,
    RDFS_SUBCLASS_OF,
    Triple,
    Var,
    XSD_BOOLEAN,
    XSD_DOUBLE,
    XSD_STRING,
    iri,
    term_from_jsonable,
)
from mixdiag.virtual import SourceUnavailable, VirtualBinding


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
    assert again.asserted == family.asserted


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


def test_boolean_literals_compare_by_value():
    """``true`` and ``1`` are true, ``false`` and ``0`` false, and false < true;
    another lexical form compares with nothing, and any literal term is equal
    to itself, whatever its datatype, unless it is a number with no value."""
    flag, date = iri("sm:isInitial"), Literal("2024-01-01", iri("xsd:date"))
    graph = KnowledgeGraph([
        Triple(iri("ex:s0"), flag, Literal.boolean(True)),
        Triple(iri("ex:s1"), flag, Literal.boolean(False)),
        Triple(iri("ex:s2"), flag, Literal("yes", XSD_BOOLEAN)),
        Triple(iri("ex:s3"), flag, date),
        Triple(iri("ex:s4"), flag, Literal("nan", XSD_DOUBLE)),
    ])

    def subjects(op, constant):
        query = Query(("s",), ((Var("s"), flag, Var("b")),), (Filter("b", op, constant),))
        return [str(row["s"]) for row in graph.query(query)]

    true = Literal.boolean(True)
    assert subjects("=", true) == ["ex:s0"]
    assert subjects("!=", true) == ["ex:s1"]
    assert subjects("=", Literal("1", XSD_BOOLEAN)) == ["ex:s0"]
    assert subjects("=", Literal("0", XSD_BOOLEAN)) == ["ex:s1"]
    assert subjects("<", true) == ["ex:s1"]
    assert subjects(">=", Literal.boolean(False)) == ["ex:s0", "ex:s1"]
    assert subjects("=", Literal("yes", XSD_BOOLEAN)) == ["ex:s2"]
    assert subjects("!=", Literal("yes", XSD_BOOLEAN)) == []
    assert subjects("=", date) == ["ex:s3"]
    assert subjects("<=", date) == []
    assert subjects("=", Literal("nan", XSD_DOUBLE)) == []
    assert subjects("!=", Literal("nan", XSD_DOUBLE)) == []


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


S, O = Var("s"), Var("o")
P = iri("ex:p")


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: Query(("s",), ((S, "ex:p", O),)), id="plain string in a pattern"),
        # spells out the IRI's fields, so it would compare equal to ex:p
        pytest.param(lambda: Query(("s",), ((S, tuple(P), O),)), id="plain tuple in a pattern"),
        pytest.param(lambda: Query(("s",), ((S, P, O),), (Filter("o", "=", 3),)),
                     id="plain number as a filter constant"),
        pytest.param(lambda: Query(("s",), ((S, P, O),), (Filter("o", "<", O),)),
                     id="variable as a filter constant"),
        pytest.param(lambda: Query(("s",), ((S, P, O),), limit=1.5), id="float limit"),
        pytest.param(lambda: Query(("s",), ((S, P, O),), limit=True), id="bool limit"),
    ],
)
def test_query_rejects_input_that_is_not_a_term(make, family):
    with pytest.raises(QueryError):
        family.query(make())


def test_a_comparison_with_nan_drops_the_row():
    graph = KnowledgeGraph().insert(
        [
            t("ex:a", "ex:v", Literal.double(1.0)),
            t("ex:b", "ex:v", Literal.double(7.5)),
            t("ex:c", "ex:v", Literal("nan", XSD_DOUBLE)),
        ]
    )

    def subjects(op, constant):
        rows = graph.query(q(["?s"], [["?s", "ex:v", "?v"]], filters=[["?v", op, constant]]))
        return [r["s"].prefixed() for r in rows]

    for op in ("=", "!=", "<", "<=", ">", ">="):
        assert subjects(op, math.nan) == [], op
    # the stored NaN at ex:c never passes, whatever the operator
    assert subjects("=", 1.0) == ["ex:a"]
    assert subjects("!=", 1.0) == ["ex:b"]
    assert subjects("<", 1.0) == []
    assert subjects("<=", 1.0) == ["ex:a"]
    assert subjects(">", 1.0) == ["ex:b"]
    assert subjects(">=", 1.0) == ["ex:a", "ex:b"]


ILL_TYPED = parse_ntriples(
    "<http://example.org/mixing-plant#a> <http://example.org/mixing-plant#v> "
    '"abc"^^<http://www.w3.org/2001/XMLSchema#double> .\n'
    "<http://example.org/mixing-plant#b> <http://example.org/mixing-plant#v> "
    '"7.5"^^<http://www.w3.org/2001/XMLSchema#double> .\n'
    "<http://example.org/mixing-plant#c> <http://example.org/mixing-plant#v> "
    '"x1"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
)


def test_a_plain_query_sorts_an_ill_typed_numeric_literal_as_infinity():
    rows = ILL_TYPED.query(q(["?v", "?s"], [["?s", "ex:v", "?v"]]))
    assert [(r["s"].prefixed(), r["v"].lexical) for r in rows] == [
        ("ex:b", "7.5"), ("ex:a", "abc"), ("ex:c", "x1")
    ]
    ordered = ILL_TYPED.query(q(["?s"], [["?s", "ex:v", "?v"]], order_by="?v"))
    assert [r["s"].prefixed() for r in ordered] == ["ex:b", "ex:a", "ex:c"]


NAN_ORDER = """
import json
from mixdiag.ntriples import parse_ntriples
from mixdiag.query import query_from_dict

values = ["3.5", "nan", "-1.0", "10.0", "NaN", "0.25", "2.0", "-7.0"]
graph = parse_ntriples("".join(
    f'<http://example.org/mixing-plant#s{i}> <http://example.org/mixing-plant#p> '
    f'"{v}"^^<http://www.w3.org/2001/XMLSchema#double> .\\n'
    for i, v in enumerate(values)
))
rows = graph.query(query_from_dict({"select": ["?v", "?s"], "where": [["?s", "ex:p", "?v"]]}))
print(json.dumps([r["v"].lexical for r in rows]))
"""


def test_nan_doubles_sort_last_whatever_the_hash_seed():
    # the rows reach the sort in hash order, so a key without a total order
    # shows up as a different row order in each process
    package = Path(mixdiag.__file__).resolve().parent.parent
    orders = []
    for seed in ("1", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(package))
        done = subprocess.run(
            [sys.executable, "-c", NAN_ORDER], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        orders.append(json.loads(done.stdout))
    expected = ["-7.0", "-1.0", "0.25", "2.0", "3.5", "10.0", "NaN", "nan"]
    assert orders == [expected, expected]


def test_a_comparison_with_an_ill_typed_literal_drops_the_row():
    def subjects(op, constant):
        rows = ILL_TYPED.query(
            q(["?s"], [["?s", "ex:v", "?v"]], filters=[["?v", op, constant]])
        )
        return [r["s"].prefixed() for r in rows]

    for op in ("=", "!=", "<", "<=", ">", ">="):
        # a stored ill-typed literal never passes; the well-typed one compares
        assert subjects(op, 7.5) == (["ex:b"] if "=" in op and op != "!=" else []), op
        # nor does any row against an ill-typed constant
        assert subjects(op, {"lexical": "abc", "datatype": "xsd:double"}) == [], op


LIMITS_THAT_ARE_NOT_INTEGERS = ["1e999", "-Infinity", "2.7", "true", '"3"']


@pytest.mark.parametrize("raw", LIMITS_THAT_ARE_NOT_INTEGERS)
def test_limit_must_be_a_non_negative_integer(raw):
    doc = json.loads(f'{{"select": ["?s"], "where": [["?s", "ex:p", "?o"]], "limit": {raw}}}')
    with pytest.raises(QueryError, match="limit"):
        query_from_dict(doc)


@pytest.mark.parametrize("raw", LIMITS_THAT_ARE_NOT_INTEGERS)
def test_cli_query_rejects_a_limit_that_is_not_an_integer(raw, family, tmp_path, capsys):
    graph = tmp_path / "graph.nt"
    graph.write_text(serialize_ntriples(family), encoding="utf-8")
    query = tmp_path / "q.json"
    query.write_text(
        f'{{"select": ["?p"], "where": [["?p", "ex:age", "?a"]], "limit": {raw}}}',
        encoding="utf-8",
    )
    assert main(["query", "--graph", str(graph), "--query", str(query)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "limit" in line


def test_query_dict_round_trip(family):
    original = q(
        ["?p", "?a"],
        [["?p", "ex:age", "?a"]],
        filters=[["?a", ">", 20.0]],
        order_by="?a",
        limit=3,
    )
    assert query_from_dict(query_to_dict(original)) == original


FILTERS_THAT_ARE_NOT_THREE_ITEM_LISTS = [
    [], ["?a"], ["?a", ">"], ["?a", ">", 20.0, 1], {"?a": 0, ">": 1, "20": 2}, "?a>", 5,
]


@pytest.mark.parametrize("bad", FILTERS_THAT_ARE_NOT_THREE_ITEM_LISTS, ids=repr)
def test_a_filter_must_be_a_list_of_three_items(bad):
    with pytest.raises(QueryError, match="filter"):
        q(["?p"], [["?p", "ex:age", "?a"]], filters=[bad])


def _cli_query_error(doc, family, tmp_path, capsys) -> str:
    """The one line ``mixdiag query`` prints for ``doc``, which it must refuse."""
    graph = tmp_path / "graph.nt"
    graph.write_text(serialize_ntriples(family), encoding="utf-8")
    query = tmp_path / "q.json"
    query.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["query", "--graph", str(graph), "--query", str(query)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:")
    return line


def test_cli_query_rejects_a_short_filter(family, tmp_path, capsys):
    doc = {"select": ["?p"], "where": [["?p", "ex:age", "?a"]], "filters": [["?a"]]}
    assert "filter" in _cli_query_error(doc, family, tmp_path, capsys)


PATTERN = ["?a", "ex:age", "?b"]
# each with the part of the query its error names
SHAPES_THAT_ARE_NOT_ARRAYS = [
    pytest.param({"select": ["?a"], "where": ["abc", PATTERN]}, "a pattern", id="string pattern"),
    pytest.param({"select": ["?a"], "where": [{"?a": 0, "ex:age": 1, "?b": 2}]}, "a pattern",
                 id="object pattern"),
    pytest.param({"select": ["?a"], "where": [PATTERN[:2]]}, "a pattern", id="short pattern"),
    pytest.param({"select": ["?a"], "where": [[*PATTERN, "?c"]]}, "a pattern", id="long pattern"),
    pytest.param({"select": {"?a": 1}, "where": [PATTERN]}, "select", id="object select"),
    pytest.param({"select": "?a", "where": [PATTERN]}, "select", id="string select"),
    pytest.param({"select": ["?a"], "where": {"p": PATTERN}}, "where", id="object where"),
    pytest.param({"select": ["?a"], "where": "abc"}, "where", id="string where"),
    pytest.param({"select": ["?a"], "where": [PATTERN], "filters": {"?b": 1}}, "filters",
                 id="object filters"),
]


@pytest.mark.parametrize("doc, part", SHAPES_THAT_ARE_NOT_ARRAYS)
def test_select_where_and_patterns_must_be_arrays(doc, part, family, tmp_path, capsys):
    with pytest.raises(QueryError, match=f"{part} must be an array"):
        query_from_dict(doc)
    assert f"{part} must be an array" in _cli_query_error(doc, family, tmp_path, capsys)


@pytest.mark.parametrize("datatype", [["a"], {"iri": "xsd:double"}, 1, None], ids=repr)
def test_a_literal_datatype_must_be_a_string(datatype, family, tmp_path, capsys):
    raw = {"lexical": "x", "datatype": datatype}
    with pytest.raises(MixdiagError, match="datatype"):
        term_from_jsonable(raw)
    with pytest.raises(QueryError, match="datatype"):
        q(["?p"], [["?p", "ex:age", raw]])
    doc = {"select": ["?p"], "where": [["?p", "ex:age", raw]]}
    assert "datatype" in _cli_query_error(doc, family, tmp_path, capsys)


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


# IRIs from a safe alphabet; literal text of any characters, so a literal can
# hold the separators str.splitlines() breaks at (\x0b, \x1c, \x85, \u2028)
_nt_iris = st.text("abcxyz019:/#._-", min_size=1, max_size=8).map(lambda s: Iri("http://x/" + s))
_nt_literals = st.builds(Literal, st.text(max_size=12), st.sampled_from([XSD_STRING, XSD_DOUBLE]))
_nt_graphs = st.frozensets(
    st.builds(Triple, _nt_iris, _nt_iris, st.one_of(_nt_iris, _nt_literals)), max_size=8
)


@example(frozenset({Triple(Iri("http://x/a"), Iri("http://x/b"), Literal.string("x\u2028y"))}))
@settings(max_examples=300, deadline=None)
@given(_nt_graphs)
def test_ntriples_round_trip_property(triples):
    text = serialize_ntriples(KnowledgeGraph(triples))
    again = parse_ntriples(text)
    assert again.asserted == triples
    assert serialize_ntriples(again) == text
    assert parse_ntriples(text.replace("\n", "\r\n")).asserted == triples


@settings(max_examples=100, deadline=None)
@given(_nt_graphs, st.sampled_from(["subject", "predicate", "object", "datatype"]),
       st.text("ab", max_size=3), st.sampled_from(">\n\r"), st.text("ab", max_size=3))
def test_ntriples_refuses_an_iri_a_line_cannot_hold(triples, position, head, bad, tail):
    unwritable = Iri("http://x/" + head + bad + tail)
    plain = Iri("http://x/p")
    triple = {
        "subject": Triple(unwritable, plain, plain),
        "predicate": Triple(plain, unwritable, plain),
        "object": Triple(plain, plain, unwritable),
        "datatype": Triple(plain, plain, Literal("1", unwritable)),
    }[position]
    with pytest.raises(MixdiagError, match="cannot hold the IRI"):
        serialize_ntriples(KnowledgeGraph(triples | {triple}))


def test_ntriples_errors_name_the_physical_line():
    label = '<http://x/a> <http://x/b> "x\u2028y\x0cz"^^<http://x/s> .\r\n'
    assert len(parse_ntriples(label + label)) == 1
    with pytest.raises(ParseError, match="line 3"):
        parse_ntriples(label + "\n<http://x/a> .\n")


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
    # the second bad line holds a field over the csv module's size limit
    for bad in ("not,a,valid,record\n", f"999,sensor,{'x' * 131_073},1.0\n"):
        path.write_text(good + bad, encoding="utf-8")
        for _ in range(2):
            with pytest.raises(ParseError):
                graph.query(OBSERVATIONS)
        path.write_text(good, encoding="utf-8")
        assert len(graph.query(OBSERVATIONS)) == n_samples


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
def test_a_log_that_is_not_utf8_raises_on_its_line_until_fixed(logged, end):
    """A byte that is not UTF-8 raises ParseError on its physical line, with
    any line ends before it, and leaves the view as it was."""
    graph, n_samples, path = logged
    binding = graph.virtual_sources[0]
    good = path.read_bytes().replace(b"\n", end)
    path.write_bytes(good)
    assert len(graph.query(OBSERVATIONS)) == n_samples
    view = binding.data, binding.size
    path.write_bytes(good + b"999,sensor,L\xff1,1.0" + end)
    for _ in range(2):
        with pytest.raises(ParseError, match="not UTF-8: byte 0xff") as err:
            graph.query(OBSERVATIONS)
        assert err.value.line == good.count(end) + 1
        assert (binding.data, binding.size) == view
    path.write_bytes(good)
    assert len(graph.query(OBSERVATIONS)) == n_samples
    # a binding that never parsed raises too, and keeps no view
    fresh = KnowledgeGraph().bind_virtual(VirtualBinding(path))
    path.write_bytes(b"t_s,kind,id,value" + end + b"\xc3")
    with pytest.raises(ParseError, match="line 2: not UTF-8: byte 0xc3"):
        fresh.query(OBSERVATIONS)
    assert fresh.virtual_sources[0].data is None


def test_an_observation_number_that_is_not_a_row_matches_nothing(logged):
    """``ex:obs_i`` names row ``i`` only as ``str`` writes ``i``; a number
    too long to convert matches nothing instead of raising ValueError."""
    graph, n_samples, _ = logged
    value = [["?v"], [["ex:obs_1", "sosa:hasSimpleResult", "?v"]]]
    assert len(graph.query(q(*value))) == 1
    for digits in ("1" * 5000, "-1", "01", "+1", "1_0", " 1", "١", str(n_samples)):
        value[1][0][0] = f"ex:obs_{digits}"
        assert graph.query(q(*value)) == []


def test_a_binding_with_no_parsed_view_raises_on_every_query(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    binding = VirtualBinding(path)
    graph = KnowledgeGraph().bind_virtual(binding)
    # an empty file is new content until a parse succeeds, never a view
    for _ in range(2):
        with pytest.raises(ParseError, match="missing header"):
            graph.query(OBSERVATIONS)
    path.write_text("t_s,kind,id,value\n", encoding="utf-8")
    assert graph.query(OBSERVATIONS) == []
    path.write_text("", encoding="utf-8")
    with pytest.raises(ParseError, match="missing header"):
        graph.query(OBSERVATIONS)
    assert (binding.scan_count, binding.append_count) == (4, 0)


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


def test_a_directory_path_raises_source_unavailable(tmp_path, logged):
    graph = KnowledgeGraph().bind_virtual(VirtualBinding(tmp_path))
    with pytest.raises(SourceUnavailable):
        graph.query(OBSERVATIONS)
    # a file that a directory replaced after a query
    graph, n_samples, path = logged
    assert len(graph.query(OBSERVATIONS)) == n_samples
    path.unlink()
    path.mkdir()
    with pytest.raises(SourceUnavailable):
        graph.query(OBSERVATIONS)


def _last_value(graph, n_samples):
    rows = graph.query(q(["?v"], [[f"ex:obs_{n_samples - 1}", "sosa:hasSimpleResult", "?v"]]))
    return [float(r["v"].lexical) for r in rows]


def test_a_same_length_rewrite_of_one_byte_is_seen(logged):
    """The case a size or modification-time shortcut would miss."""
    graph, n_samples, path = logged
    data = path.read_bytes()
    (value,) = _last_value(graph, n_samples)
    digit = data.rstrip(b"\n").rindex(b".") - 1  # the last value's units digit
    changed = b"7" if data[digit:digit + 1] != b"7" else b"3"
    before = path.stat()
    path.write_bytes(data[:digit] + changed + data[digit + 1:])
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert path.stat().st_size == before.st_size
    assert _last_value(graph, n_samples) != [value]


def test_a_file_grown_by_one_byte_is_seen(logged):
    graph, n_samples, path = logged
    data = path.read_bytes()
    assert data.endswith(b"\n")
    (value,) = _last_value(graph, n_samples)
    path.write_bytes(data[:-1] + b"5\n")  # one more digit on the last value
    assert _last_value(graph, n_samples) == [float(f"{value!r}5")]
    assert graph.virtual_sources[0].data == path.read_bytes()


def test_a_file_cut_back_to_its_header_is_seen(logged):
    graph, n_samples, path = logged
    assert len(graph.query(OBSERVATIONS)) == n_samples
    path.write_text(path.read_text(encoding="utf-8").split("\n", 1)[0] + "\n", encoding="utf-8")
    assert graph.query(OBSERVATIONS) == []
    assert _last_value(graph, n_samples) == []


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
