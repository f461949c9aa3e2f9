"""Terms hash and compare in C: a dict lookup keyed by a term runs no
Python code.  Query answering looks terms up in dicts on every row, so a
Python-level ``__hash__`` or ``__eq__`` would be paid per lookup."""

import sys

from mixdiag.terms import XSD_DOUBLE, Iri, Literal, Var


def test_terms_define_no_python_level_hash_or_eq():
    for cls in (Iri, Literal, Var):
        for base in cls.__mro__:
            if base in (tuple, object):
                continue
            assert "__hash__" not in vars(base), f"{base.__name__} defines __hash__"
            assert "__eq__" not in vars(base), f"{base.__name__} defines __eq__"
        assert cls.__hash__ is tuple.__hash__
        assert cls.__eq__ is tuple.__eq__


def test_a_lookup_by_an_equal_term_calls_no_python_function():
    keys = {Iri("http://example.org/a"): 1, Literal("1.5", XSD_DOUBLE): 2, Var("x"): 3}
    probes = [Iri("http://example.org/" + "a"), Literal("1." + "5", XSD_DOUBLE), Var("x")]
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    found = []
    sys.setprofile(profile)
    try:
        for probe in probes:  # a comprehension would be a Python call itself
            found.append(keys[probe])
    finally:
        sys.setprofile(None)
    assert found == [1, 2, 3]
    assert calls == []
