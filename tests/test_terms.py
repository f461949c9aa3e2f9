"""Term semantics: equality, hashing, text forms and copies."""

import copy
import itertools
import math
import pickle

import pytest
from hypothesis import example, given, strategies as st

from mixdiag.terms import (
    XSD_BOOLEAN,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    Iri,
    Literal,
    Var,
    iri,
    term_sort_key,
)

NAME = "http://example.org/mixing-plant#a"


def _fresh(text: str) -> str:
    """An equal string that is not the same object."""
    return "".join(list(text))


def _samples():
    return [
        Iri(NAME),
        Literal(NAME, XSD_STRING),
        Literal(NAME, XSD_DOUBLE),
        Literal("1.5", XSD_DOUBLE),
        Var(NAME),
        Var("a"),
    ]


def test_terms_of_different_types_are_never_equal():
    for a, b in itertools.combinations(_samples(), 2):
        if type(a) is not type(b):
            assert a != b and not a == b, (a, b)
    assert Iri("x") != Var("x")
    assert Literal("x", XSD_STRING) != Iri("x") and Literal("x", XSD_STRING) != Var("x")
    # nor equal to the plain value they hold
    assert Iri(NAME) != NAME and Var("a") != "a"


def test_equal_terms_hash_equal():
    for term, twin in [
        (Iri(NAME), Iri(_fresh(NAME))),
        (iri("ex:a"), Iri(_fresh(NAME))),
        (Literal("1.5", XSD_DOUBLE), Literal(_fresh("1.5"), iri("xsd:double"))),
        (Literal.double(1.5), Literal("1.5", XSD_DOUBLE)),
        (Var("a"), Var(_fresh("a"))),
    ]:
        assert term is not twin
        assert term == twin and hash(term) == hash(twin)
        assert {term: 1}[twin] == 1


def test_repr_and_str_are_unchanged():
    literal = Literal.double(1.5)
    assert repr(iri("ex:a")) == f"Iri(value='{NAME}')"
    assert repr(literal) == (
        "Literal(lexical='1.5', "
        "datatype=Iri(value='http://www.w3.org/2001/XMLSchema#double'))"
    )
    assert repr(Var("o")) == "Var(name='o')"
    assert str(iri("ex:a")) == "ex:a"
    assert str(Iri("http://other.example/x")) == "<http://other.example/x>"
    assert str(literal) == "1.5"
    assert str(Var("o")) == "?o"
    assert (iri("ex:a").value, literal.lexical, literal.datatype, Var("o").name) == (
        NAME, "1.5", XSD_DOUBLE, "o",
    )


@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda term: pickle.loads(pickle.dumps(term))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_deepcopy_and_pickle_round_trip(round_trip):
    for term in _samples():
        again = round_trip(term)
        assert type(again) is type(term)
        assert again == term and hash(again) == hash(term)
        assert repr(again) == repr(term)


def reference_sort_key(term) -> tuple:
    """``term_sort_key`` written through the terms' classes and properties,
    as it was before it read their tuples directly.  A boolean ranks as the
    filters read it: false, then true, then a form that is neither."""
    if isinstance(term, Iri):
        return (0, 0.0, term.value)
    if term.is_numeric():
        try:
            value = float(term.lexical)
        except ValueError:
            value = math.inf
        return (1, math.inf if math.isnan(value) else value, term.lexical)
    if term.datatype == XSD_BOOLEAN:
        truth = ("false", "0", "true", "1")  # false before true: index // 2
        rank = truth.index(term.lexical) // 2 if term.lexical in truth else 2
        return (2, float(rank), term.lexical)
    return (3, 0.0, term.lexical)


LEXICAL_FORMS = st.one_of(
    st.floats().map(repr),  # NaN, both infinities, -0.0 and 0.0 among them
    st.integers().map(str),
    st.sampled_from(["abc", "NaN", "INF", "-INF", "inf", "nan", "-0.0", "1e0", "01", " 1",
                     "true", "false", "1", "0", ""]),
    st.text(max_size=8),
)
TERMS = st.one_of(
    st.text(max_size=12).map(lambda local: Iri("http://example.org/mixing-plant#" + local)),
    st.builds(
        Literal, LEXICAL_FORMS,
        st.sampled_from([XSD_DOUBLE, XSD_INTEGER, XSD_BOOLEAN, XSD_STRING, iri("ex:unit")]),
    ),
)


@given(st.lists(TERMS, max_size=12))
@example([Literal("abc", XSD_DOUBLE), Literal("NaN", XSD_DOUBLE), Literal("INF", XSD_DOUBLE),
          Literal.double(-0.0), Literal.double(0.0), Literal.boolean(True),
          Literal.boolean(False), Literal.string("7"), Literal("7", XSD_DOUBLE),
          Literal("7", XSD_INTEGER), Literal("", XSD_BOOLEAN), Literal("1", XSD_BOOLEAN),
          Literal("", XSD_STRING), iri("ex:a")])
@example([Literal(lexical, XSD_BOOLEAN) for lexical in ("true", "0", "false", "1", "")])
def test_sort_keys_are_the_reference_keys(terms):
    """The key of every IRI and literal, of any datatype and lexical form
    (one lexical form under several datatypes too), equals the reference's
    and has its types, so every list sorts as it did."""
    for term in terms:
        key, reference = term_sort_key(term), reference_sort_key(term)
        assert key == reference and list(map(type, key)) == list(map(type, reference))
        assert math.copysign(1.0, key[1]) == math.copysign(1.0, reference[1])  # -0.0 stays
    assert sorted(terms, key=term_sort_key) == sorted(terms, key=reference_sort_key)
