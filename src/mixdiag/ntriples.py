"""The N-Triples subset graphs are written in and read from: absolute IRIs
and typed literals, one triple per line."""

from __future__ import annotations

import re

from .errors import MixdiagError, ParseError
from .kg import KnowledgeGraph
from .terms import Iri, Literal, Term, Triple

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_UNESCAPES = {"\\\\": "\\", '\\"': '"', "\\n": "\n", "\\r": "\r", "\\t": "\t"}

_LINE_RE = re.compile(
    r"^<(?P<s>[^>]+)> <(?P<p>[^>]+)> "
    r"(?:<(?P<o_iri>[^>]+)>|\"(?P<o_lex>(?:[^\"\\]|\\.)*)\"\^\^<(?P<o_dt>[^>]+)>) \.$"
)


def _escape(lexical: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in lexical)


def _unescape(lexical: str) -> str:
    return re.sub(r"\\.", lambda m: _UNESCAPES.get(m.group(0), m.group(0)[1]), lexical)


def _nt_iri(term: Iri) -> str:
    value = term.value
    if not value or ">" in value or "\n" in value or "\r" in value:
        raise MixdiagError(f"an N-Triples line cannot hold the IRI {value!r}")
    return f"<{value}>"


def _nt_term(term: Term) -> str:
    if isinstance(term, Iri):
        return _nt_iri(term)
    return f'"{_escape(term.lexical)}"^^{_nt_iri(term.datatype)}'


def serialize_ntriples(graph: KnowledgeGraph) -> str:
    """Write the asserted triples, sorted canonically (inferred and virtual
    ones are reproducible).  An IRI with ``>`` or a line break raises."""
    lines = sorted(
        f"{_nt_iri(t.subject)} {_nt_iri(t.predicate)} {_nt_term(t.object)} ."
        for t in graph.asserted
    )
    return "".join(line + "\n" for line in lines)


def parse_ntriples(text: str) -> KnowledgeGraph:
    triples = []
    # a line ends at a line feed only: a literal may hold other breaks raw
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if not line.strip():
            continue
        match = _LINE_RE.match(line)
        if match is None:
            raise ParseError(f"not a valid triple line: {line!r}", line_no)
        subject = Iri(match.group("s"))
        predicate = Iri(match.group("p"))
        if match.group("o_iri") is not None:
            obj: Term = Iri(match.group("o_iri"))
        else:
            obj = Literal(_unescape(match.group("o_lex")), Iri(match.group("o_dt")))
        triples.append(Triple(subject, predicate, obj))
    return KnowledgeGraph(triples)
