"""An in-memory triple store with queries, inference, mappings, and
virtual sensor-data access.

The store keeps asserted triples as a frozenset; every mutation returns a
new snapshot, so readers are never invalidated.  Query answering spans
three layers: asserted triples, the inference closure (subclass
transitivity, type propagation, equivalence, and relation propagation,
forward-chained semi-naively), and virtual observation triples from bound
sensor CSV files.
A bound log is parsed once per distinct file content into a small indexed
view; queries read the file to check it is unchanged and answer observation
patterns from the view, building triples only for the rows that match.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import MixdiagError, ParseError
from .terms import (
    PREFIXES,
    RDF_TYPE,
    RDFS_SUBCLASS_OF,
    XSD_BOOLEAN,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    Iri,
    Literal,
    PatternTerm,
    Term,
    Triple,
    Var,
    iri,
    term_from_jsonable,
    term_sort_key,
    term_to_jsonable,
)

EX_EQUIVALENT_TO = iri("ex:equivalentTo")
EX_ATTRIBUTE_TO_CLASS = iri("ex:attributeToClass")
EX_RELATION_TO = iri("ex:relationTo")

SOSA_OBSERVATION = iri("sosa:Observation")
SOSA_MADE_BY_SENSOR = iri("sosa:madeBySensor")
SOSA_HAS_SIMPLE_RESULT = iri("sosa:hasSimpleResult")
SOSA_RESULT_TIME = iri("sosa:resultTime")

ALIGNMENT_PREDICATES = {
    "equivalent_to": EX_EQUIVALENT_TO,
    "subclass": RDFS_SUBCLASS_OF,
    "attribute_to_class": EX_ATTRIBUTE_TO_CLASS,
    "relation_to": EX_RELATION_TO,
}

_COMPARISON_OPS = ("<=", ">=", "!=", "=", "<", ">")


class QueryError(MixdiagError):
    """A query is structurally malformed."""


class MappingError(MixdiagError):
    """A mapping rule failed against its source."""

    def __init__(self, rule_id: str, row_index: int | None, reason: str):
        self.rule_id = rule_id
        self.row_index = row_index
        where = f"rule {rule_id}" + ("" if row_index is None else f", row {row_index}")
        super().__init__(f"{where}: {reason}")


class SourceUnavailable(MixdiagError):
    """A virtual binding's backing file cannot be read."""


# ---------------------------------------------------------------------------
# queries


Pattern = tuple[PatternTerm, PatternTerm, PatternTerm]


@dataclass(frozen=True)
class Filter:
    var: str
    op: str
    constant: Term


@dataclass(frozen=True)
class Query:
    """A basic graph pattern with comparison filters.

    Every selected, filtered, or ordering variable must occur in a pattern.
    """

    select: tuple[str, ...]
    where: tuple[Pattern, ...]
    filters: tuple[Filter, ...] = ()
    order_by: str | None = None
    limit: int | None = None

    def __post_init__(self):
        if not self.select:
            raise QueryError("select list is empty")
        if not self.where:
            raise QueryError("where clause is empty")
        seen: set[str] = set()
        for pattern in self.where:
            if len(pattern) != 3:
                raise QueryError("patterns have exactly three positions")
            for term in pattern:
                if isinstance(term, Var):
                    seen.add(term.name)
        for name in self.select:
            if name not in seen:
                raise QueryError(f"selected variable ?{name} not used in any pattern")
        for f in self.filters:
            if f.op not in _COMPARISON_OPS:
                raise QueryError(f"unknown operator {f.op!r}")
            if f.var not in seen:
                raise QueryError(f"filtered variable ?{f.var} not used in any pattern")
            if isinstance(f.constant, Var):
                raise QueryError("filter constants cannot be variables")
        if self.order_by is not None and self.order_by not in seen:
            raise QueryError(f"ordering variable ?{self.order_by} not used in any pattern")
        if self.limit is not None and self.limit < 0:
            raise QueryError("limit must be >= 0")


def _var_name(raw) -> str:
    term = term_from_jsonable(raw)
    if not isinstance(term, Var):
        raise QueryError(f"expected a variable, got {raw!r}")
    return term.name


def query_from_dict(doc: Mapping) -> Query:
    """Build a query from its JSON form; malformed input raises QueryError."""
    try:
        select = tuple(_var_name(v) for v in doc["select"])
        where = tuple(
            tuple(term_from_jsonable(term) for term in pattern) for pattern in doc["where"]
        )
        filters = tuple(
            Filter(_var_name(f[0]), str(f[1]), _as_constant(term_from_jsonable(f[2])))
            for f in doc.get("filters", ())
        )
        order_raw = doc.get("order_by")
        order_by = None if order_raw is None else _var_name(order_raw)
        limit = doc.get("limit")
        return Query(select, where, filters, order_by, None if limit is None else int(limit))
    except QueryError:
        raise
    except (KeyError, TypeError, ValueError, MixdiagError) as exc:
        raise QueryError(f"malformed query: {exc}") from None


def _as_constant(term: PatternTerm) -> Term:
    if isinstance(term, Var):
        raise QueryError("filter constants cannot be variables")
    return term


def query_to_dict(q: Query) -> dict:
    doc: dict = {
        "select": [f"?{name}" for name in q.select],
        "where": [[term_to_jsonable(t) for t in pattern] for pattern in q.where],
    }
    if q.filters:
        doc["filters"] = [
            [f"?{f.var}", f.op, term_to_jsonable(f.constant)] for f in q.filters
        ]
    if q.order_by is not None:
        doc["order_by"] = f"?{q.order_by}"
    if q.limit is not None:
        doc["limit"] = q.limit
    return doc


def _substitute(pattern: Pattern, binding: Mapping[str, Term]) -> Pattern:
    return tuple(
        binding.get(t.name, t) if isinstance(t, Var) else t for t in pattern
    )  # type: ignore[return-value]


def _unify(pattern: Pattern, triple: Triple) -> dict[str, Term] | None:
    binding: dict[str, Term] = {}
    for pat_term, value in zip(pattern, (triple.subject, triple.predicate, triple.object)):
        if isinstance(pat_term, Var):
            bound = binding.get(pat_term.name)
            if bound is None:
                binding[pat_term.name] = value
            elif bound != value:
                return None
        elif pat_term != value:
            return None
    return binding


def _compare_terms(left: Term, right: Term) -> int | None:
    """Three-way comparison, or None when the terms are not comparable
    (a filter error, which drops the row)."""
    if isinstance(left, Iri) or isinstance(right, Iri):
        return None
    if left.is_numeric() and right.is_numeric():
        a, b = float(left.lexical), float(right.lexical)
    elif left.datatype == XSD_STRING and right.datatype == XSD_STRING:
        a, b = left.lexical, right.lexical
    else:
        return None
    return (a > b) - (a < b)


def _filter_accepts(binding: Mapping[str, Term], f: Filter) -> bool:
    value = binding[f.var]
    if f.op in ("=", "!="):
        if isinstance(value, Iri) or isinstance(f.constant, Iri):
            equal = value == f.constant
        else:
            cmp = _compare_terms(value, f.constant)
            if cmp is None:
                return False
            equal = cmp == 0
        return equal if f.op == "=" else not equal
    cmp = _compare_terms(value, f.constant)
    if cmp is None:
        return False
    return {"<": cmp < 0, "<=": cmp <= 0, ">": cmp > 0, ">=": cmp >= 0}[f.op]


# ---------------------------------------------------------------------------
# virtual sensor-data access


_OBSERVATION_PREFIX = PREFIXES["ex"] + "obs_"
_ROW_NUMBER = re.compile(r"0|[1-9][0-9]*")


def _observation(row: int) -> Iri:
    return Iri(f"{_OBSERVATION_PREFIX}{row}")


class _Observations:
    """The sensor records of one log text as columns of interned terms.

    Row ``i`` is the observation ``ex:obs_{i}``.  Each column has an index
    from object term to its rows in file order, so a bound subject or object
    becomes a lookup and triples are built only for the rows that match.
    """

    def __init__(self, text: str, records: Sequence):
        self.text = text
        self.size = len(records)
        self.columns: dict[Iri, list[Term]] = {
            SOSA_RESULT_TIME: [],
            SOSA_MADE_BY_SENSOR: [],
            SOSA_HAS_SIMPLE_RESULT: [],
        }
        self.indexes: dict[Iri, dict[Term, list[int]]] = {p: {} for p in self.columns}
        interned: dict[Term, Term] = {}
        for row, record in enumerate(records):
            for predicate, term in (
                (SOSA_RESULT_TIME, Literal.double(record.t_s)),
                (SOSA_MADE_BY_SENSOR, iri(f"ex:{record.sensor_id}")),
                (SOSA_HAS_SIMPLE_RESULT, Literal.double(record.value)),
            ):
                term = interned.setdefault(term, term)
                self.columns[predicate].append(term)
                self.indexes[predicate].setdefault(term, []).append(row)

    def __len__(self) -> int:
        """The number of virtual triples: four per sensor record."""
        return 4 * self.size

    def _row_of(self, subject: Term) -> tuple[int, ...]:
        if isinstance(subject, Iri) and subject.value.startswith(_OBSERVATION_PREFIX):
            number = subject.value[len(_OBSERVATION_PREFIX):]
            if _ROW_NUMBER.fullmatch(number) and int(number) < self.size:
                return (int(number),)
        return ()

    def match(self, pattern: Pattern) -> list[Triple]:
        """The triples of a served pattern's predicate, narrowed by its bound
        subject or object, in file order.  Callers still unify the result."""
        s, p, o = pattern
        if not isinstance(s, Var):
            rows: Iterable[int] = self._row_of(s)
        elif p != RDF_TYPE and not isinstance(o, Var):
            rows = self.indexes[p].get(o, ())
        else:
            rows = range(self.size)
        if p == RDF_TYPE:
            return [Triple(_observation(i), RDF_TYPE, SOSA_OBSERVATION) for i in rows]
        column = self.columns[p]
        return [Triple(_observation(i), p, column[i]) for i in rows]


@dataclass(eq=False)
class VirtualBinding:
    """On-demand access to sensor records in a log CSV.

    Serves exactly four pattern shapes over synthetic observation
    individuals ``ex:obs_{i}`` (one per sensor record, in file order):
    ``rdf:type sosa:Observation``, ``sosa:madeBySensor``,
    ``sosa:hasSimpleResult``, and ``sosa:resultTime``.  Nothing is ever
    materialized into the asserted set.  The file is parsed once per
    distinct content and served from an index; every query reads the file
    again and compares it with the text last parsed, so an edit of any
    size is seen at once.  ``scan_count`` says how often the source was
    parsed, i.e. how many queries found new content.
    """

    csv_path: str | Path
    scan_count: int = field(default=0)
    _view: _Observations | None = field(default=None, init=False, repr=False)

    def serves(self, pattern: Pattern) -> bool:
        _, p, o = pattern
        if not isinstance(p, Iri):
            return False
        if p == RDF_TYPE:
            return o == SOSA_OBSERVATION
        return p in (SOSA_MADE_BY_SENSOR, SOSA_HAS_SIMPLE_RESULT, SOSA_RESULT_TIME)

    def _read(self) -> str:
        try:
            return Path(self.csv_path).read_text(encoding="utf-8")
        except OSError as exc:
            raise SourceUnavailable(f"cannot read {self.csv_path}: {exc}") from None

    def view(self) -> _Observations:
        """The observations of the file as it is now.  A failed read or
        parse raises; it never falls back to an earlier view."""
        if self._view is None or self._read() != self._view.text:
            self._view = self.scan()
        return self._view

    def scan(self) -> _Observations:
        """Read and parse the source: the cache-miss path of :meth:`view`."""
        from .events import parse_log  # local import to avoid a cycle at load time

        self.scan_count += 1
        text = self._read()
        return _Observations(text, parse_log(text).sensor_records)


# ---------------------------------------------------------------------------
# inference


def _closure(asserted: frozenset[Triple]) -> frozenset[Triple]:
    """Semi-naive forward chaining to fixpoint.

    Rules: an attribute aligned to a class is an instance of it; subClassOf
    is transitive and types propagate along it; equivalence is symmetric and
    equivalent terms share every assertion in either position (which makes
    it transitive); properties propagate along ex:relationTo.  Derived
    triples with a literal subject are dropped.

    Terms are numbered, so joins hash small ints.  Each round indexes the
    facts new since the last one and joins only them against the indexes of
    every fact so far; the indexes live only for this call.  Transitivity is
    linear: an *edge* is a subClassOf fact that entered by any rule but
    transitivity.  New subclass facts and types extend through edges, and
    only a new edge joins to the left, against the subclasses and instances
    of its subject, so a chain of n classes costs O(n^2), not O(n^3).
    """
    predicates = (
        RDFS_SUBCLASS_OF, RDF_TYPE, EX_EQUIVALENT_TO, EX_RELATION_TO, EX_ATTRIBUTE_TO_CLASS
    )
    SUB, TYPE, EQUIV, RELATION, ATTRIBUTE = range(len(predicates))
    number: dict[Term, int] = {term: i for i, term in enumerate(predicates)}
    facts = {
        tuple(number.setdefault(term, len(number)) for term in (t.subject, t.predicate, t.object))
        for t in asserted
    }
    terms = list(number)
    is_iri = [isinstance(term, Iri) for term in terms]

    def admit(candidates: list[tuple]) -> list[tuple]:
        new = [t for t in dict.fromkeys(candidates) if t not in facts and is_iri[t[0]]]
        facts.update(new)
        return new

    by_subject, by_object, by_predicate = (defaultdict(list) for _ in range(3))
    subclasses, edges_from, instances = (defaultdict(list) for _ in range(3))
    equivalents, generals = defaultdict(list), defaultdict(list)
    derived: list[tuple] = []
    delta = list(facts)
    edges = [t for t in delta if t[1] == SUB]
    while delta:
        for s, _, o in edges:
            edges_from[s].append(o)
        for t in delta:
            s, p, o = t
            by_subject[s].append(t)
            by_object[o].append(t)
            by_predicate[p].append(t)
            if p == SUB:
                subclasses[o].append(s)
            elif p == TYPE:
                instances[o].append(s)
            elif p == EQUIV:
                equivalents[s].append(o)
            elif p == RELATION and is_iri[s] and is_iri[o]:
                generals[s].append(o)
        fresh: list[tuple] = []
        chained: list[tuple] = []  # transitivity's output: never an edge
        for s, p, o in edges:
            chained += [(sub, p, o) for sub in subclasses.get(s, ())]
            fresh += [(x, TYPE, o) for x in instances.get(s, ())]
        for s, p, o in delta:
            fresh += [(s, general, o) for general in generals.get(p, ())]
            fresh += [(x, p, o) for x in equivalents.get(s, ()) if is_iri[x]]
            fresh += [(s, p, x) for x in equivalents.get(o, ())]
            if p == ATTRIBUTE and is_iri[o]:
                fresh.append((s, TYPE, o))
            elif p == SUB:
                chained += [(s, p, sup) for sup in edges_from.get(o, ())]
            elif p == TYPE:
                fresh += [(s, p, sup) for sup in edges_from.get(o, ())]
            elif p == EQUIV:
                fresh.append((o, p, s))
                if is_iri[o]:
                    fresh += [(o, fp, fo) for _, fp, fo in by_subject.get(s, ())]
                fresh += [(fs, fp, o) for fs, fp, _ in by_object.get(s, ())]
            elif p == RELATION and is_iri[s] and is_iri[o]:
                fresh += [(fs, o, fo) for fs, _, fo in by_predicate.get(s, ())]
        delta = admit(fresh)
        edges = [t for t in delta if t[1] == SUB]
        delta += admit(chained)
        derived += delta
    return asserted.union(Triple(terms[s], terms[p], terms[o]) for s, p, o in derived)


# ---------------------------------------------------------------------------
# the graph


class KnowledgeGraph:
    """Immutable-by-convention triple store; mutations return new snapshots."""

    def __init__(
        self,
        asserted: Iterable[Triple] = (),
        virtual_sources: Sequence[VirtualBinding] = (),
    ):
        self.asserted: frozenset[Triple] = frozenset(asserted)
        self.virtual_sources: tuple[VirtualBinding, ...] = tuple(virtual_sources)
        self._inferred: frozenset[Triple] | None = None
        self._pred_index: dict[Iri, list[Triple]] | None = None

    def __len__(self) -> int:
        return len(self.asserted)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return (
            self.asserted == other.asserted and self.virtual_sources == other.virtual_sources
        )

    def __hash__(self):
        return hash(self.asserted)

    # -- mutations (copy-on-write) ------------------------------------------

    def insert(self, triples: Iterable[Triple]) -> "KnowledgeGraph":
        return KnowledgeGraph(self.asserted | frozenset(triples), self.virtual_sources)

    def align(self, mechanism: str, a: Iri, b: Iri) -> "KnowledgeGraph":
        """Assert one of the four alignment mechanisms between two IRIs."""
        try:
            predicate = ALIGNMENT_PREDICATES[mechanism]
        except KeyError:
            raise MixdiagError(f"unknown alignment mechanism {mechanism!r}") from None
        return self.insert([Triple(a, predicate, b)])

    def bind_virtual(self, binding: VirtualBinding) -> "KnowledgeGraph":
        return KnowledgeGraph(self.asserted, self.virtual_sources + (binding,))

    # -- inference ----------------------------------------------------------

    def infer(self) -> "KnowledgeGraph":
        """Return a snapshot with the inference closure materialized."""
        if self._inferred is not None:
            return self
        graph = KnowledgeGraph(self.asserted, self.virtual_sources)
        graph._inferred = _closure(self.asserted)
        return graph

    def all_triples(self) -> frozenset[Triple]:
        """Asserted plus inferred triples (closure computed on demand)."""
        if self._inferred is None:
            self._inferred = _closure(self.asserted)
        return self._inferred

    # -- query answering ------------------------------------------------------

    def _index_for(self, predicate: Iri) -> list[Triple]:
        if self._pred_index is None:
            index: dict[Iri, list[Triple]] = {}
            for t in self.all_triples():
                index.setdefault(t.predicate, []).append(t)
            self._pred_index = index
        return self._pred_index.get(predicate, [])

    def _candidates(
        self, pattern: Pattern, views: dict[VirtualBinding, _Observations]
    ) -> list[Triple]:
        _, p, _ = pattern
        stored: list[Triple]
        if isinstance(p, Iri):
            stored = self._index_for(p)
        else:
            stored = list(self.all_triples())
        if not self.virtual_sources or not self.serves_virtually(pattern):
            return stored
        known = self.all_triples()
        virtual: list[Triple] = []
        for binding in self.virtual_sources:
            if binding.serves(pattern):
                if binding not in views:
                    views[binding] = binding.view()
                virtual.extend(t for t in views[binding].match(pattern) if t not in known)
        return stored + virtual

    def serves_virtually(self, pattern: Pattern) -> bool:
        return any(b.serves(pattern) for b in self.virtual_sources)

    def _solve(self, patterns: Sequence[Pattern]) -> list[dict[str, Term]]:
        # Evaluate the most constrained pattern first; result multiplicity
        # does not depend on join order.
        remaining = list(patterns)
        ordered: list[Pattern] = []
        bound: set[str] = set()

        def constrained(pattern: Pattern) -> int:
            return sum(
                1
                for t in pattern
                if not isinstance(t, Var) or t.name in bound
            )

        while remaining:
            best = max(remaining, key=constrained)
            remaining.remove(best)
            ordered.append(best)
            bound.update(t.name for t in best if isinstance(t, Var))

        # A binding's view is fetched when a pattern first needs it and then
        # kept for the whole query, so one query sees one snapshot of a file.
        views: dict[VirtualBinding, _Observations] = {}
        rows: list[dict[str, Term]] = [{}]
        for pattern in ordered:
            next_rows: list[dict[str, Term]] = []
            for row in rows:
                concrete = _substitute(pattern, row)
                for candidate in self._candidates(concrete, views):
                    unified = _unify(concrete, candidate)
                    if unified is not None:
                        next_rows.append({**row, **unified})
            rows = next_rows
            if not rows:
                break
        return rows

    def query(self, q: Query) -> list[dict[str, Term]]:
        """Answer a query with bag semantics over asserted, inferred, and
        virtual triples.  Rows come back in a deterministic order: by the
        ``order_by`` variable when given (ties broken by the selected
        values), otherwise sorted by the selected values."""
        rows = self._solve(q.where)
        rows = [r for r in rows if all(_filter_accepts(r, f) for f in q.filters)]

        def projected_key(row: dict[str, Term]) -> tuple:
            return tuple(term_sort_key(row[name]) for name in q.select)

        if q.order_by is not None:
            rows.sort(key=lambda r: (term_sort_key(r[q.order_by]), projected_key(r)))
        else:
            rows.sort(key=projected_key)
        out = [{name: row[name] for name in q.select} for row in rows]
        if q.limit is not None:
            out = out[: q.limit]
        return out


# ---------------------------------------------------------------------------
# mappings


@dataclass(frozen=True)
class MappingRule:
    """One template rule over a tabular or JSON source.

    ``iterator`` is ``"row"`` for CSV sources or a JSON pointer selecting an
    array for JSON sources.  Templates substitute ``{column}`` placeholders;
    an absent ``object_datatype`` makes the object an IRI.
    """

    id: str
    source_kind: str  # csv | json
    source: str
    iterator: str
    subject_template: str
    predicate: Iri
    object_template: str
    object_datatype: Iri | None = None


def _fill(template: str, values: Mapping[str, object], rule: MappingRule, row: int) -> str:
    class _Strict(dict):
        def __missing__(self, key):
            raise MappingError(rule.id, row, f"unknown placeholder {{{key}}}")

    try:
        return template.format_map(_Strict(values))
    except (ValueError, IndexError) as exc:
        raise MappingError(rule.id, row, f"bad template {template!r}: {exc}") from None


def _canonical_literal(lexical: str, datatype: Iri, rule: MappingRule, row: int) -> Literal:
    try:
        if datatype == XSD_DOUBLE:
            return Literal.double(float(lexical))
        if datatype == XSD_INTEGER:
            return Literal.integer(int(lexical))
        if datatype == XSD_BOOLEAN:
            lowered = lexical.lower()
            if lowered in ("true", "1"):
                return Literal.boolean(True)
            if lowered in ("false", "0"):
                return Literal.boolean(False)
            raise ValueError(f"not a boolean: {lexical!r}")
    except ValueError as exc:
        raise MappingError(rule.id, row, str(exc)) from None
    return Literal(lexical, datatype)


def _json_pointer(doc, pointer: str, rule: MappingRule):
    node = doc
    if pointer in ("", "/"):
        return node
    for token in pointer.lstrip("/").split("/"):
        token = token.replace("~1", "/").replace("~0", "~")
        if isinstance(node, list):
            try:
                node = node[int(token)]
            except (ValueError, IndexError) as exc:
                raise MappingError(rule.id, None, f"bad pointer segment {token!r}: {exc}") from None
        elif isinstance(node, dict) and token in node:
            node = node[token]
        else:
            raise MappingError(rule.id, None, f"pointer {pointer!r} not found")
    return node


def _iter_rows(rule: MappingRule, sources: Mapping[str, str]) -> list[Mapping[str, object]]:
    if rule.source not in sources:
        raise MappingError(rule.id, None, f"source {rule.source!r} not provided")
    text = sources[rule.source]
    if rule.source_kind == "csv":
        if rule.iterator != "row":
            raise MappingError(rule.id, None, "csv sources iterate by 'row'")
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None:
            return []
        return [dict(r) for r in reader]
    if rule.source_kind == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MappingError(rule.id, None, f"invalid JSON: {exc.msg}") from None
        node = _json_pointer(doc, rule.iterator, rule)
        if not isinstance(node, list):
            raise MappingError(rule.id, None, "iterator must select an array")
        rows = []
        for i, item in enumerate(node):
            if not isinstance(item, dict):
                raise MappingError(rule.id, i, "array items must be objects")
            rows.append(item)
        return rows
    raise MappingError(rule.id, None, f"unknown source kind {rule.source_kind!r}")


def _template_values(raw: Mapping[str, object]) -> dict[str, object]:
    out = {}
    for key, value in raw.items():
        if isinstance(value, bool):
            out[key] = "true" if value else "false"
        elif value is None:
            out[key] = ""
        else:
            out[key] = value
    return out


def apply_mappings(
    rules: Sequence[MappingRule], sources: Mapping[str, str]
) -> list[Triple]:
    """Run every rule over its source rows, in rule order then row order."""
    triples: list[Triple] = []
    for rule in rules:
        for row_index, raw in enumerate(_iter_rows(rule, sources)):
            values = _template_values(raw)
            subject_text = _fill(rule.subject_template, values, rule, row_index)
            object_text = _fill(rule.object_template, values, rule, row_index)
            try:
                subject = iri(subject_text)
            except MixdiagError as exc:
                raise MappingError(rule.id, row_index, str(exc)) from None
            if rule.object_datatype is None:
                try:
                    obj: Term = iri(object_text)
                except MixdiagError as exc:
                    raise MappingError(rule.id, row_index, str(exc)) from None
            else:
                obj = _canonical_literal(object_text, rule.object_datatype, rule, row_index)
            triples.append(Triple(subject, rule.predicate, obj))
    return triples


# ---------------------------------------------------------------------------
# N-Triples subset


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


def _nt_term(term: Term) -> str:
    if isinstance(term, Iri):
        return f"<{term.value}>"
    return f'"{_escape(term.lexical)}"^^<{term.datatype.value}>'


def serialize_ntriples(graph: KnowledgeGraph) -> str:
    """Write the asserted triples (inference and virtual data are
    reproducible, so they stay out of the file), sorted canonically."""
    lines = sorted(
        f"<{t.subject.value}> <{t.predicate.value}> {_nt_term(t.object)} ."
        for t in graph.asserted
    )
    return "".join(line + "\n" for line in lines)


def parse_ntriples(text: str) -> KnowledgeGraph:
    triples = []
    for line_no, line in enumerate(text.splitlines(), start=1):
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
