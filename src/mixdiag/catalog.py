"""The competency-question catalog: questions with their queries and
expected answers, its JSON form, and its validation against a graph."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ParseError, dump_json, parse_json, reading, typed
from .kg import KnowledgeGraph
from .query import Query, query_from_dict, query_to_dict
from .terms import Term, Var, iri, term_from_jsonable, term_to_jsonable


PHASES = ("contextualization", "diagnosis")


@dataclass(frozen=True)
class CqItem:
    """One competency question with its query and optional expected rows."""

    id: str
    phase: str  # contextualization | diagnosis
    question: str
    query: Query
    expected: tuple[dict[str, Term], ...] | None = None


@dataclass(frozen=True)
class CqCatalog:
    items: tuple[CqItem, ...]

    def __post_init__(self):
        ids = [item.id for item in self.items]
        if len(set(ids)) != len(ids):
            raise ParseError("duplicate competency question id")


@dataclass
class CqResult:
    cq_id: str
    phase: str
    question: str
    passed: bool
    actual: list[dict[str, Term]]
    expected: list[dict[str, Term]] | None


def default_catalog() -> CqCatalog:
    """The shipped question set: three structural questions with frozen
    answers and two diagnosis questions that require a populated graph."""

    def q(select, where, **kwargs):
        return query_from_dict({"select": select, "where": where, **kwargs})

    return CqCatalog(
        (
            CqItem(
                "CQ1",
                "contextualization",
                "Which part of the module is responsible for filling tank B201?",
                q(
                    ["?part"],
                    [
                        ["?f", "rdf:type", "vdi3682:ProcessOperator"],
                        ["?f", "vdi3682:hasInput", "ex:B201"],
                        ["?f", "vdi3682:assignedTo", "?part"],
                    ],
                ),
                ({"part": iri("ex:V201")},),
            ),
            CqItem(
                "CQ2",
                "contextualization",
                "Which sensors are part of tank B201?",
                q(
                    ["?s"],
                    [
                        ["?s", "rdf:type", "sosa:Sensor"],
                        ["?s", "isa88:isPartOf", "ex:B201"],
                    ],
                ),
                ({"s": iri("ex:L201")},),
            ),
            CqItem(
                "CQ3",
                "contextualization",
                "What property does the sensor at tank B201 measure?",
                q(
                    ["?p"],
                    [
                        ["?s", "rdf:type", "sosa:Sensor"],
                        ["?s", "isa88:isPartOf", "ex:B201"],
                        ["?s", "sosa:observes", "?p"],
                    ],
                ),
                ({"p": iri("din61360:FillLevel")},),
            ),
            CqItem(
                "CQ4",
                "diagnosis",
                "Between which two states was a temporal anomaly identified?",
                q(
                    ["?src", "?tgt"],
                    [
                        ["?a", "rdf:type", "ex:TimingAnomaly"],
                        ["?a", "iso17359:locatedAt", "?t"],
                        ["?t", "sm:source", "?src"],
                        ["?t", "sm:target", "?tgt"],
                    ],
                ),
            ),
            CqItem(
                "CQ5",
                "diagnosis",
                "By how many seconds was the anomaly outside the max?",
                q(
                    ["?d"],
                    [
                        ["?a", "rdf:type", "ex:TimingAnomaly"],
                        ["?a", "ex:deviationSeconds", "?d"],
                    ],
                ),
            ),
        )
    )


def catalog_to_json(catalog: CqCatalog) -> str:
    doc = {
        "competency_questions": [
            {
                "id": item.id,
                "phase": item.phase,
                "question": item.question,
                "query": query_to_dict(item.query),
                "expected": None
                if item.expected is None
                else [
                    {f"?{name}": term_to_jsonable(value) for name, value in sorted(row.items())}
                    for row in item.expected
                ],
            }
            for item in catalog.items
        ]
    }
    return dump_json(doc)


def catalog_from_json(text: str) -> CqCatalog:
    doc = parse_json(text)
    items = []
    with reading("bad catalog document"):
        for raw in doc["competency_questions"]:
            expected = None
            if raw.get("expected") is not None:
                expected = tuple(
                    {
                        key.lstrip("?"): _expected_term(value)
                        for key, value in row.items()
                    }
                    for row in raw["expected"]
                )
            phase = raw.get("phase", "contextualization")
            if phase not in PHASES:
                raise ParseError(f"bad catalog document: phase {phase!r} is none of {PHASES}")
            items.append(
                CqItem(
                    typed(raw["id"], str),
                    phase,
                    typed(raw["question"], str),
                    query_from_dict(raw["query"]),
                    expected,
                )
            )
    return CqCatalog(tuple(items))


def _expected_term(raw) -> Term:
    term = term_from_jsonable(raw)
    if isinstance(term, Var):
        raise ParseError("expected rows must be ground terms")
    return term


def _row_key(row: dict[str, Term]) -> tuple:
    return tuple(sorted((name, str(value)) for name, value in row.items()))


def validate_catalog(graph: KnowledgeGraph, catalog: CqCatalog) -> list[CqResult]:
    """Run every question.  With expected rows the actual rows must match as
    multisets; without them the question passes iff it returns anything."""
    results = []
    for item in catalog.items:
        actual = graph.query(item.query)
        if item.expected is None:
            passed = bool(actual)
            expected = None
        else:
            expected = [dict(row) for row in item.expected]
            passed = Counter(map(_row_key, actual)) == Counter(map(_row_key, expected))
        results.append(CqResult(item.id, item.phase, item.question, passed, actual, expected))
    return results
