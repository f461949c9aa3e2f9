"""RDF-style terms: IRIs over a fixed prefix table, typed literals, triples.

The graph layer works with absolute IRIs internally.  All vocabularies the
package emits live under one of the namespaces below; the table is closed on
purpose so that prefixed names round-trip unambiguously through N-Triples,
query JSON, and report text.

``Iri``, ``Literal`` and ``Var`` are tuples whose first item is a tag of
their class, followed by their fields.  Hashing and equality are the
tuple's own, in C, so a dict keyed by terms (the closure's numbering, a
bound log's indexes) runs no Python code per lookup, and the tag keeps terms
of different classes apart: ``Iri("x") != Var("x")``.  A plain tuple that
spells out a tag does compare equal to a term; ``query.Query`` therefore checks
that its patterns and filters hold terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .errors import MixdiagError

PREFIXES: dict[str, str] = {
    "ex": "http://example.org/mixing-plant#",
    "vdi3682": "http://example.org/vocab/vdi3682#",
    "isa88": "http://example.org/vocab/isa88#",
    "sosa": "http://www.w3.org/ns/sosa/",
    "din61360": "http://example.org/vocab/din61360#",
    "iso17359": "http://example.org/vocab/iso17359#",
    "sm": "http://example.org/vocab/state-machine#",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
}

# Longest namespaces first so compaction picks the most specific prefix.
_BY_NAMESPACE = sorted(PREFIXES.items(), key=lambda kv: -len(kv[1]))


_IRI, _LITERAL, _VAR = range(3)  # the class tags


class _Term(tuple):
    """A tuple of its class's tag and its fields, which ``_fields`` names."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __getnewargs__(self):
        return self[1:]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self[1:]))
        return f"{type(self).__name__}({fields})"


class Iri(_Term):
    """An absolute IRI."""

    __slots__ = ()
    _fields = ("value",)
    value = property(itemgetter(1))

    def __new__(cls, value: str):
        return tuple.__new__(cls, (_IRI, value))

    @classmethod
    def from_prefixed(cls, name: str) -> "Iri":
        prefix, sep, local = name.partition(":")
        if not sep:
            raise MixdiagError(f"not a prefixed name: {name!r}")
        try:
            return cls(PREFIXES[prefix] + local)
        except KeyError:
            raise MixdiagError(f"unknown prefix {prefix!r} in {name!r}") from None

    def prefixed(self) -> str | None:
        """Compact form like ``ex:B201``, or None if no prefix matches."""
        for prefix, ns in _BY_NAMESPACE:
            if self.value.startswith(ns):
                return f"{prefix}:{self.value[len(ns):]}"
        return None

    def __str__(self) -> str:
        return self.prefixed() or f"<{self.value}>"


def iri(name: str) -> Iri:
    """Build an Iri from a prefixed name or an ``<absolute>`` form."""
    if name.startswith("<") and name.endswith(">"):
        return Iri(name[1:-1])
    return Iri.from_prefixed(name)


XSD_STRING = iri("xsd:string")
XSD_DOUBLE = iri("xsd:double")
XSD_BOOLEAN = iri("xsd:boolean")
XSD_INTEGER = iri("xsd:integer")

RDF_TYPE = iri("rdf:type")
RDFS_SUBCLASS_OF = iri("rdfs:subClassOf")
RDFS_LABEL = iri("rdfs:label")

_NUMERIC_DATATYPES = {XSD_DOUBLE, XSD_INTEGER}
_TRUTH = {"false": False, "0": False, "true": True, "1": True}  # xsd:boolean lexical forms


class Literal(_Term):
    """A typed literal with a canonical lexical form."""

    __slots__ = ()
    _fields = ("lexical", "datatype")
    lexical = property(itemgetter(1))
    datatype = property(itemgetter(2))

    def __new__(cls, lexical: str, datatype: Iri):
        return tuple.__new__(cls, (_LITERAL, lexical, datatype))

    @classmethod
    def string(cls, value: str) -> "Literal":
        return cls(value, XSD_STRING)

    @classmethod
    def double(cls, value: float) -> "Literal":
        # repr is the shortest form that parses back to the same float,
        # which keeps "bit-exact" round trips honest.
        return cls(repr(float(value)), XSD_DOUBLE)

    @classmethod
    def boolean(cls, value: bool) -> "Literal":
        return cls("true" if value else "false", XSD_BOOLEAN)

    @classmethod
    def integer(cls, value: int) -> "Literal":
        return cls(str(int(value)), XSD_INTEGER)

    def is_numeric(self) -> bool:
        return self.datatype in _NUMERIC_DATATYPES

    def __str__(self) -> str:
        return self.lexical


class Var(_Term):
    """A query variable (stored without the leading ``?``)."""

    __slots__ = ()
    _fields = ("name",)
    name = property(itemgetter(1))

    def __new__(cls, name: str):
        return tuple.__new__(cls, (_VAR, name))

    def __str__(self) -> str:
        return f"?{self.name}"


Term = Iri | Literal
PatternTerm = Iri | Literal | Var


@dataclass(frozen=True)
class Triple:
    subject: Iri
    predicate: Iri
    object: Term

    def __str__(self) -> str:
        return f"({self.subject} {self.predicate} {self.object})"


def term_sort_key(term: Term) -> tuple:
    """Deterministic total order over terms.

    IRIs sort before literals; numeric literals sort numerically among
    themselves (NaN, and one whose lexical form is not a number, as
    infinity, since NaN orders with nothing); booleans sort false (``false``
    or ``0``), then true (``true`` or ``1``), then any other lexical form;
    everything else by lexical form.  Lexical forms break ties.
    """
    if term[0] == _IRI:
        return (0, 0.0, term[1])
    _, lexical, datatype = term
    if datatype in _NUMERIC_DATATYPES:
        try:
            value = float(lexical)
        except ValueError:
            value = math.inf
        return (1, math.inf if value != value else value, lexical)  # NaN is not itself
    if datatype == XSD_BOOLEAN:
        return (2, float(_TRUTH.get(lexical, 2)), lexical)
    return (3, 0.0, lexical)


def term_to_jsonable(term: PatternTerm):
    """Encode a term for query / catalog JSON documents."""
    if isinstance(term, Var):
        return f"?{term.name}"
    if isinstance(term, Iri):
        return str(term)
    return {"lexical": term.lexical, "datatype": str(term.datatype)}


def term_from_jsonable(raw) -> PatternTerm:
    """Decode a term from query / catalog JSON.

    Strings starting with ``?`` are variables, ``<...>`` absolute IRIs,
    strings containing ``:`` prefixed names, and anything else a plain
    string literal.  Numbers and booleans map to xsd literals; the explicit
    ``{"lexical": ..., "datatype": ...}`` form covers the rest.  Already
    constructed terms pass through unchanged.
    """
    if isinstance(raw, (Iri, Literal, Var)):
        return raw
    if isinstance(raw, bool):
        return Literal.boolean(raw)
    if isinstance(raw, int):
        return Literal.integer(raw)
    if isinstance(raw, float):
        return Literal.double(raw)
    if isinstance(raw, str):
        if raw.startswith("?"):
            if len(raw) < 2:
                raise MixdiagError("empty variable name")
            return Var(raw[1:])
        if (raw.startswith("<") and raw.endswith(">")) or ":" in raw:
            return iri(raw)
        return Literal.string(raw)
    if isinstance(raw, dict):
        try:
            datatype = raw["datatype"]
            lexical = raw["lexical"]
        except KeyError as exc:
            raise MixdiagError(f"literal object missing key: {exc}") from None
        if not isinstance(datatype, str):
            raise MixdiagError(f"a literal's datatype is a string, not {datatype!r}")
        return Literal(str(lexical), iri(datatype))
    raise MixdiagError(f"cannot interpret term: {raw!r}")
