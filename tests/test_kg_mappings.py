"""CSV/JSON to triple mapping rules."""

import pytest

from mixdiag.mappings import MappingError, MappingRule, apply_mappings
from mixdiag.terms import Literal, Triple, iri

TANKS_CSV = """id,capacity_l,initial_l
B201,10.0,10.0
B202,10.0,8.0
B203,10.0,8.0
B204,20.0,0.0
B205,20.0,0.0
"""


def rule(rid="r1", kind="csv", source="tanks.csv", iterator="row",
         subject="ex:{id}", predicate="rdf:type", obj="isa88:Equipment",
         datatype=None):
    return MappingRule(
        rid, kind, source, iterator, subject, iri(predicate), obj,
        None if datatype is None else iri(datatype),
    )


def test_csv_rows_map_to_triples():
    triples = apply_mappings([rule()], {"tanks.csv": TANKS_CSV})
    assert len(triples) == 5
    assert triples[0] == Triple(
        iri("ex:B201"), iri("rdf:type"), iri("isa88:Equipment")
    )
    # rule order then row order
    assert [t.subject for t in triples] == [
        iri(f"ex:B20{i}") for i in range(1, 6)
    ]


def test_literal_objects_get_canonical_lexicals():
    r = rule(obj="{capacity_l}", predicate="din61360:capacityLiters",
             datatype="xsd:double")
    triples = apply_mappings([r], {"tanks.csv": TANKS_CSV})
    assert triples[0].object == Literal.double(10.0)
    # "10.0" and "10.00" would both canonicalize to the same literal
    assert triples[0].object.lexical == "10.0"


def test_integer_and_boolean_datatypes():
    csv_doc = "id,n,flag\nx,07,true\n"
    rules = [
        rule("ints", source="s.csv", obj="{n}", predicate="ex:count",
             datatype="xsd:integer"),
        rule("bools", source="s.csv", obj="{flag}", predicate="ex:flag",
             datatype="xsd:boolean"),
    ]
    triples = apply_mappings(rules, {"s.csv": csv_doc})
    assert triples[0].object == Literal.integer(7)
    assert triples[1].object == Literal.boolean(True)


def test_header_only_source_yields_nothing():
    assert apply_mappings([rule()], {"tanks.csv": "id,capacity_l,initial_l\n"}) == []


def test_missing_column_names_rule_and_row():
    r = rule(rid="bad-rule", subject="ex:{serial}")
    with pytest.raises(MappingError) as err:
        apply_mappings([r], {"tanks.csv": TANKS_CSV})
    assert err.value.rule_id == "bad-rule"
    assert err.value.row_index == 0
    assert "serial" in str(err.value)


@pytest.mark.parametrize("subject", ["ex:{id.x}", "ex:{id[x]}"], ids=["attribute", "index"])
def test_placeholder_attribute_or_index_is_a_mapping_error(subject):
    """``{id.x}`` and ``{id[x]}`` escaped as a bare AttributeError and TypeError."""
    with pytest.raises(MappingError, match="bad template") as err:
        apply_mappings([rule(rid="bad-rule", subject=subject)], {"tanks.csv": TANKS_CSV})
    assert (err.value.rule_id, err.value.row_index) == ("bad-rule", 0)


def test_missing_source_is_an_error():
    with pytest.raises(MappingError):
        apply_mappings([rule(source="nope.csv")], {"tanks.csv": TANKS_CSV})


def test_json_pointer_iteration():
    doc = '{"plant": {"tanks": [{"id": "B1"}, {"id": "B2"}]}}'
    r = rule(kind="json", source="cfg.json", iterator="/plant/tanks")
    triples = apply_mappings([r], {"cfg.json": doc})
    assert [t.subject for t in triples] == [iri("ex:B1"), iri("ex:B2")]


def test_json_pointer_escapes():
    doc = '{"a/b": {"c~d": [{"id": "X"}]}}'
    r = rule(kind="json", source="cfg.json", iterator="/a~1b/c~0d")
    triples = apply_mappings([r], {"cfg.json": doc})
    assert triples[0].subject == iri("ex:X")


def test_json_pointer_must_reach_an_array_of_objects():
    r = rule(kind="json", source="cfg.json", iterator="/tanks")
    with pytest.raises(MappingError):
        apply_mappings([r], {"cfg.json": '{"tanks": "not-a-list"}'})
    with pytest.raises(MappingError):
        apply_mappings([r], {"cfg.json": '{"other": []}'})


def test_csv_rule_requires_row_iterator():
    with pytest.raises(MappingError):
        apply_mappings([rule(iterator="col")], {"tanks.csv": TANKS_CSV})


def test_boolean_and_null_values_render_in_templates():
    doc = '{"rows": [{"id": "a", "on": true, "note": null}]}'
    r = rule(kind="json", source="d.json", iterator="/rows",
             subject="ex:{id}", predicate="ex:state", obj="{on},{note}",
             datatype="xsd:string")
    triples = apply_mappings([r], {"d.json": doc})
    assert triples[0].object == Literal.string("true,")


def test_pipeline_source_export_round_trips(config):
    from mixdiag.pipeline import default_mapping_rules, export_mapping_sources

    sources = export_mapping_sources(config)
    triples = apply_mappings(default_mapping_rules(), sources)
    assert Triple(iri("ex:B204"), iri("rdf:type"), iri("isa88:Equipment")) in triples
    assert Triple(iri("ex:L201"), iri("isa88:isPartOf"), iri("ex:B201")) in triples
    assert Triple(
        iri("ex:B201"), iri("din61360:capacityLiters"), Literal.double(10.0)
    ) in triples
    assert Triple(iri("ex:Transfer"), iri("vdi3682:assignedTo"), iri("ex:P201")) in triples
    assert Triple(iri("ex:Dose1"), iri("vdi3682:hasOutput"), iri("ex:B204")) in triples


@pytest.mark.parametrize(
    "text, message",
    [
        ("id\n" + "a" * 200_000, "line 2: malformed CSV: field larger than field limit"),
        ("id\r\nx\ry\n", "line 2: malformed CSV: new-line character seen in unquoted field"),
    ],
    ids=["field-limit", "bare-cr"],
)
def test_a_csv_source_the_csv_module_cannot_read_raises_mapping_error(text, message):
    with pytest.raises(MappingError, match=f"rule r1: {message}"):
        apply_mappings([rule(source="t.csv")], {"t.csv": text})


@pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5_000], ids=["deep", "long-number"])
def test_a_json_source_json_cannot_load_raises_mapping_error(text):
    """Deep nesting and a too long number are read as every JSON document
    is, so they raise MappingError, not RecursionError or ValueError."""
    r = rule(kind="json", source="cfg.json", iterator="/tanks")
    with pytest.raises(MappingError, match="rule r1: invalid JSON"):
        apply_mappings([r], {"cfg.json": text})


@pytest.mark.parametrize(
    "datatype, lexical",
    [
        ("xsd:double", "nan"),
        ("xsd:double", "NaN"),
        ("xsd:double", "inf"),
        ("xsd:double", "-Infinity"),
        ("xsd:double", "1e999"),
        ("xsd:double", "1_0"),
        ("xsd:double", " 0.7 "),
        ("xsd:double", "٣.٥"),
        ("xsd:integer", " 0_7 "),
        ("xsd:integer", "1_0"),
        ("xsd:integer", "+7 "),
        ("xsd:integer", "٣"),
        ("xsd:boolean", "TRUE"),
        ("xsd:boolean", "False"),
        ("xsd:boolean", " true"),
    ],
)
def test_numbers_take_only_their_xsd_lexical_forms(datatype, lexical):
    """Python's ``float`` and ``int`` read NaN, infinity, spaces, underscores
    and non-ASCII digits, none of which the xsd forms allow.  A boolean
    takes only ``true``, ``false``, ``1`` and ``0``, in that case."""
    r = rule(rid="num", source="s.csv", obj="{n}", predicate="ex:n", datatype=datatype)
    with pytest.raises(MappingError) as err:
        apply_mappings([r], {"s.csv": f"id,n\nx,1\ny,{lexical}\n"})
    assert (err.value.rule_id, err.value.row_index) == ("num", 1)


@pytest.mark.parametrize(
    "datatype, lexical, literal",
    [
        ("xsd:double", "-0.0", Literal.double(-0.0)),
        ("xsd:double", ".5", Literal.double(0.5)),
        ("xsd:double", "5.", Literal.double(5.0)),
        ("xsd:double", "+1E3", Literal.double(1000.0)),
        ("xsd:double", "7", Literal.double(7.0)),
        ("xsd:integer", "-007", Literal.integer(-7)),
        ("xsd:boolean", "true", Literal.boolean(True)),
        ("xsd:boolean", "0", Literal.boolean(False)),
    ],
)
def test_xsd_number_forms_map_to_canonical_literals(datatype, lexical, literal):
    r = rule(source="s.csv", obj="{n}", predicate="ex:n", datatype=datatype)
    assert apply_mappings([r], {"s.csv": f"id,n\nx,{lexical}\n"})[0].object == literal
