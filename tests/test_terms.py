"""Term semantics: equality, hashing, text forms and copies."""

import copy
import itertools
import pickle

import pytest

from mixdiag.terms import XSD_DOUBLE, XSD_STRING, Iri, Literal, Var, iri

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
