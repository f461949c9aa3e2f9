"""An in-memory triple store with queries, inference, mappings, and
virtual sensor-data access.

The store keeps asserted triples as a frozenset; every mutation returns a
new snapshot, so readers are never invalidated.  Query answering spans
three layers: asserted triples, the inference closure (subclass
transitivity, type propagation, equivalence, and relation propagation,
forward-chained semi-naively), and virtual observation triples from bound
sensor CSV files.
The closure lives on the snapshot, numbered and indexed for joins and
queries.  The store is insert-only, so a child's closure is its parent's
closed over the inserted triples: a child of a materialized snapshot takes
that closure over and joins only the delta (see ``_Closure``).
A bound log (``VirtualBinding``) holds an indexed view of the bytes it
last parsed, in arrays of times and of codes into term tables; a query
reads the file's bytes (in one read and one that confirms the end) to check
they are unchanged and answers observation patterns from the view, building
a term only for a row it binds.  When the bytes changed, the binding keeps
the rows before the first changed byte and decodes and parses only what
follows them; a whole parse is the case that keeps none.  Bytes are
decoded, and JSON mapping sources read, by ``errors``.
A query joins its patterns in a fixed order, most constrained first.  Each
pattern is joined with all the rows so far at once by each source: the
closure unless no fact fits the pattern's constants, each bound log unless
they rule out all its rows (refreshed then, once per query).  A pattern's
shape (``Query.shapes``) is read once, when the query is built, and a
source picks the index it reads once per join; each row only looks its
terms up in the source's indexes, and a row a log extended keeps the row
number of the subject it bound, for the log's later patterns.  A log triple
the closure also holds is answered by the closure alone.  Answers are
sorted on one flat key per row.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import weakref
from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice
from operator import add, itemgetter
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, Sequence

from . import events  # its functions are looked up per call, so a wrapper is seen
from .errors import MixdiagError, ParseError, decode, parse_json
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
    Patterns hold terms (``Iri``, ``Literal`` or ``Var``), a filter compares
    with an ``Iri`` or a ``Literal``, and ``limit`` is a non-negative
    ``int``; anything else raises ``QueryError`` instead of answering
    quietly (a plain ``"ex:p"`` matches nothing, and a tuple that spells out
    a term's fields would compare equal to it).  ``shapes`` holds each
    pattern's variable names by position, None at a constant.
    """

    select: tuple[str, ...]
    where: tuple[Pattern, ...]
    filters: tuple[Filter, ...] = ()
    order_by: str | None = None
    limit: int | None = None
    shapes: tuple[tuple[str | None, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.select:
            raise QueryError("select list is empty")
        if not self.where:
            raise QueryError("where clause is empty")
        seen: set[str] = set()
        shapes = []
        for pattern in self.where:
            if len(pattern) != 3:
                raise QueryError("patterns have exactly three positions")
            for term in pattern:
                if isinstance(term, Var):
                    seen.add(term.name)
                elif not isinstance(term, (Iri, Literal)):
                    raise QueryError(f"not a term: {term!r}")
            shapes.append(tuple(t.name if isinstance(t, Var) else None for t in pattern))
        object.__setattr__(self, "shapes", tuple(shapes))
        for name in self.select:
            if name not in seen:
                raise QueryError(f"selected variable ?{name} not used in any pattern")
        for f in self.filters:
            if f.op not in _COMPARISON_OPS:
                raise QueryError(f"unknown operator {f.op!r}")
            if f.var not in seen:
                raise QueryError(f"filtered variable ?{f.var} not used in any pattern")
            if not isinstance(f.constant, (Iri, Literal)):
                raise QueryError(f"a filter compares with an IRI or a literal, not {f.constant!r}")
        if self.order_by is not None and self.order_by not in seen:
            raise QueryError(f"ordering variable ?{self.order_by} not used in any pattern")
        limit = self.limit
        if limit is not None and (type(limit) is not int or limit < 0):
            raise QueryError(f"limit must be a non-negative integer, got {limit!r}")


def _var_name(raw) -> str:
    term = term_from_jsonable(raw)
    if not isinstance(term, Var):
        raise QueryError(f"expected a variable, got {raw!r}")
    return term.name


def _array(raw, what: str, length: int | None = None) -> list:
    """``raw`` if it is a JSON array (of ``length`` items, when given)."""
    if isinstance(raw, list) and length in (None, len(raw)):
        return raw
    raise QueryError(f"{what} must be an array{f' of {length} items' if length else ''}: {raw!r}")


def query_from_dict(doc: Mapping) -> Query:
    """Build a query from its JSON form; malformed input raises QueryError."""
    try:
        select = tuple(_var_name(v) for v in _array(doc["select"], "select"))
        where = tuple(
            tuple(term_from_jsonable(term) for term in _array(pattern, "a pattern", 3))
            for pattern in _array(doc["where"], "where")
        )
        filters = []
        for f in _array(doc.get("filters", []), "filters"):
            var, op, constant = _array(f, "a filter", 3)
            filters.append(Filter(_var_name(var), str(op), term_from_jsonable(constant)))
        order_raw = doc.get("order_by")
        order_by = None if order_raw is None else _var_name(order_raw)
        return Query(select, where, tuple(filters), order_by, doc.get("limit"))
    except QueryError:
        raise
    except (KeyError, TypeError, ValueError, MixdiagError) as exc:
        raise QueryError(f"malformed query: {exc}") from None


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


def _compare_terms(left: Term, right: Term) -> int | None:
    """Three-way comparison, or None when the terms are not comparable
    (a filter error, which drops the row)."""
    if isinstance(left, Iri) or isinstance(right, Iri):
        return None
    if left.is_numeric() and right.is_numeric():
        try:
            a, b = float(left.lexical), float(right.lexical)
        except ValueError:  # an ill-typed lexical form, such as "abc"^^xsd:double
            return None
        if math.isnan(a) or math.isnan(b):
            return None
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
_LINE_BREAK = re.compile(rb"[\r\n]")
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)  # no newline translation
_ROOM = 1 << 16  # under glibc's 128 KiB mmap threshold: a confirming read maps no pages


class _Seconds:
    """The term of each time in seconds, built when it is read."""

    __getitem__ = staticmethod(Literal.double)


@dataclass
class _Runs:
    """The index of a log's time column, which holds each row's result time
    in seconds (``t_ms / 1000``; ``terms[t_s]`` is its term): the distinct
    times in ascending order and the first row of each.  A log's times never
    decrease, so the rows of one time are one run, found by bisection."""

    times: array = field(default_factory=lambda: array("d"))
    firsts: array = field(default_factory=lambda: array("i"))
    terms = _Seconds()

    @staticmethod
    def key(term: Term) -> float | None:
        """The time whose term ``term`` is, or None when no time's is."""
        if not isinstance(term, Literal) or term.datatype != XSD_DOUBLE:
            return None
        lexical = term.lexical
        try:
            t_s = float(lexical)
        except ValueError:
            return None
        # no time is negative, nor -0.0, which equals 0.0 but is not its term
        return t_s if repr(t_s) == lexical and lexical[0] != "-" else None

    def rows(self, t_s: float, size: int) -> range:
        """The rows of time ``t_s`` in a column of ``size`` rows."""
        times, firsts = self.times, self.firsts
        run = bisect_left(times, t_s)
        if run == len(times) or times[run] != t_s:
            return range(0)
        return range(firsts[run], firsts[run + 1] if run + 1 < len(firsts) else size)

    def cut(self, column: array, size: int) -> None:
        """Drop the rows from ``size`` on from ``column`` and the index."""
        runs = bisect_left(self.firsts, size)
        del self.times[runs:], self.firsts[runs:], column[size:]


@dataclass
class _Codes:
    """The index of a coded column, which holds each row's code: code ``c``
    stands for ``terms[c]``, made by ``make`` from a raw key (a sensor id, a
    value), and ``rows_of[c]`` holds its rows in ascending order.
    ``code_of`` maps each raw key and each term to its code; a term is a
    tuple, so it never equals a raw key.  Codes are given in order of first
    use, so the codes of a prefix of the column are a prefix of the table."""

    make: Callable[[object], Term] = field(compare=False)
    code_of: dict = field(default_factory=dict)
    terms: list[Term] = field(default_factory=list)
    rows_of: list[array] = field(default_factory=list)

    def key(self, term: Term) -> int | None:
        """The code of ``term``, or None when no row holds it."""
        return self.code_of.get(term)

    def rows(self, code: int, size: int) -> array:
        return self.rows_of[code]

    def add(self, key) -> int:
        """The code of raw key ``key``, new to the table."""
        term = self.make(key)
        code = self.code_of[key] = self.code_of[term] = len(self.terms)
        self.terms.append(term)
        self.rows_of.append(array("i"))
        return code

    def cut(self, column: array, size: int) -> None:
        """Drop the rows from ``size`` on from ``column`` and the index, and
        the codes first used by them."""
        rows_of = self.rows_of
        for code in set(column[size:]):
            rows = rows_of[code]
            del rows[bisect_left(rows, size):]
        while rows_of and not rows_of[-1]:
            rows_of.pop()
            self.terms.pop()
            self.code_of.popitem()  # its term, then its raw key
            self.code_of.popitem()
        del column[size:]


_PREDICATES = (RDF_TYPE, SOSA_RESULT_TIME, SOSA_MADE_BY_SENSOR, SOSA_HAS_SIMPLE_RESULT)


@dataclass(eq=False)
class VirtualBinding:
    """On-demand access to sensor records in a log CSV.

    Holds four triples per synthetic observation ``ex:obs_{i}`` (one per
    sensor record, in file order), ``rdf:type sosa:Observation``,
    ``sosa:madeBySensor``, ``sosa:hasSimpleResult`` and ``sosa:resultTime``,
    for any pattern, open predicates too.  Nothing is ever materialized.

    The binding holds the view of the bytes it last parsed (``data``,
    None until a parse succeeds): the sensor records as three array
    columns, where row ``i`` is ``ex:obs_{i}``, each with an index
    (:class:`_Runs` for the result times, :class:`_Codes` for the sensors
    and values, whose columns hold codes into term tables that persist
    across parses), so a bound subject or object becomes a lookup
    (:meth:`join`; a subject this binding bound is read as the row number
    its row kept) and a term is built only for a row that binds it.  It
    also keeps the text's number of newlines and its last record's ``t_ms``
    (of either kind), which a parse of what follows starts from.  Each query
    that needs the binding reads the file's bytes once, in one system call
    and one that confirms the end (:meth:`refresh`): an edit of any size,
    however it leaves the size and modification time, is seen at once, and
    an unchanged file is not decoded.
    New bytes go to :meth:`scan`, which keeps the rows before the first
    changed byte (and before the first quote after the header, which could
    leave a field open into what follows) and decodes and parses only what
    follows them: an append keeps every row, a rewind parses nothing and a
    rewrite parses its changed tail; a change within the header line keeps
    nothing and parses the whole text.  ``scan_count`` counts the parses of
    new text, i.e. how many queries found new content; ``append_count``
    counts those that kept a prefix.
    """

    csv_path: str | Path
    scan_count: int = field(default=0, init=False)
    append_count: int = field(default=0, init=False)

    def __post_init__(self):
        self.data: bytes | None = None  # None until a parse succeeds
        self.size = self.lines = 0
        self.last_ms: int | None = None
        self.columns: dict[Iri, array] = {
            SOSA_RESULT_TIME: array("d"), SOSA_MADE_BY_SENSOR: array("i"),
            SOSA_HAS_SIMPLE_RESULT: array("i"),
        }
        self.indexes: dict[Iri, _Runs | _Codes] = {
            SOSA_RESULT_TIME: _Runs(),
            SOSA_MADE_BY_SENSOR: _Codes(lambda sensor_id: iri(f"ex:{sensor_id}")),
            SOSA_HAS_SIMPLE_RESULT: _Codes(Literal.double),
        }

    def ready(self, pattern: Pattern, shape: Sequence[str | None], fresh: set) -> bool:
        """Whether ``pattern``'s constants leave any row: a subject that is
        no ``ex:obs_`` IRI, another predicate, or an ``rdf:type`` class but
        ``sosa:Observation`` rules out every one.  The first time a query
        asks (``fresh`` holds the logs it has asked), the view is refreshed,
        so one query sees one version of the file."""
        s, p, o = pattern
        s_name, p_name, o_name = shape
        fits = (
            (s_name is not None or isinstance(s, Iri) and s.value.startswith(_OBSERVATION_PREFIX))
            and (p_name is not None or p in _PREDICATES)
            and (p != RDF_TYPE or o_name is not None or o == SOSA_OBSERVATION)
        )
        if fits and self not in fresh:
            self.refresh()
            fresh.add(self)
        return fits

    def refresh(self) -> None:
        """Bring the view to the file as it is now, read in one call and one
        that confirms the end.  A failed read, decode or parse raises and
        changes nothing; it never falls back to an earlier view."""
        try:
            fd = os.open(self.csv_path, _READ_FLAGS)
            try:
                size = os.fstat(fd).st_size + 1 if self.data is None else len(self.data) + _ROOM
                chunks = [os.read(fd, size)]
                while chunks[-1]:  # until a read confirms the end
                    chunks.append(os.read(fd, _ROOM))
                data = chunks[0] if len(chunks) < 3 else b"".join(chunks)  # one copy if it grew
            finally:
                os.close(fd)
        except OSError as exc:
            raise SourceUnavailable(f"cannot read {self.csv_path}: {exc}") from None
        if data != self.data:
            self.scan(data)

    def scan(self, data: bytes) -> VirtualBinding:
        """Bring the view to ``data``, the new bytes :meth:`refresh` read.
        The bytes after the prefix the view keeps (of length 0 when it keeps
        none) are decoded, and parsed unless only line ends changed: the
        view is cut back to that prefix and extended in place.  Returns the
        binding, whose ``len()`` is its number of virtual triples."""
        old = self.data or b""
        keep = self._shared(old, data)
        old_tail = decode(old[keep:])
        lines = self.lines - old_tail.count("\n")
        text = decode(data[keep:], lines + 1)
        if text != old_tail or self.data is None:
            self.scan_count += 1
            if not keep:  # a whole parse, header included
                log = events.parse_log(text)
                records = log.sensor_records
                lasts = [r[-1][0] for r in (log.actuator_records, records) if r]
                size, last_ms = 0, max(lasts, default=None)
            else:
                self.append_count += 1
                if keep == len(old):  # an append: nothing to cut
                    size, last_ms = self.size, self.last_ms
                else:
                    size, last_ms = events._rows_before(old, keep)
                _, records, last_ms = events._parse_rows(text, lines + 1, last_ms)
            self._cut(size)
            self._extend(size, records)
            self.size, self.last_ms = size + len(records), last_ms
            self.lines = lines + text.count("\n")
        self.data = data
        return self

    @staticmethod
    def _shared(old: bytes, data: bytes) -> int:
        """The length of the longest prefix of ``data`` a view of ``old``
        can keep: at least the header line, or 0.  It ends on a line feed,
        before the row that holds the first quote after the header line; the
        header parsed whole on its own line, so a quote in it leaves no
        field open."""
        lo = 0
        hi = mid = min(len(old), len(data))  # an append or a rewind ends in one probe
        while lo < hi:  # the common prefix is lo to hi bytes long
            if data.startswith(old[lo:mid], lo):
                lo = mid
            else:
                hi = mid - 1
            mid = (lo + hi + 1) // 2
        header = _LINE_BREAK.search(old)
        quote = old.find(b'"', header.end(), lo) if header else -1
        return old.rfind(b"\n", 0, lo if quote < 0 else quote) + 1

    def _cut(self, size: int) -> None:
        """Drop the rows from ``size`` on from the columns and indexes."""
        if size < self.size:  # not after an append
            for predicate, column in self.columns.items():
                self.indexes[predicate].cut(column, size)

    def _extend(self, size: int, records: Sequence) -> None:
        """Append ``records`` (sensor records, in file order) to the columns
        and indexes, which hold ``size`` rows, in one pass."""
        runs, sensors, values = self.indexes.values()
        run_times, firsts = runs.times, runs.firsts
        sensor_code, sensor_rows = sensors.code_of.get, sensors.rows_of
        value_code, value_rows = values.code_of.get, values.rows_of
        entries = times, sensor_codes, value_codes = [], [], []
        last_ms = None
        for row, (t_ms, sensor, value) in enumerate(records, size):
            if t_ms != last_ms:
                last_ms, t_s = t_ms, t_ms / 1000.0
                if not run_times or run_times[-1] != t_s:  # a run starts
                    run_times.append(t_s)
                    firsts.append(row)
            times.append(t_s)
            code = sensor_code(sensor)
            if code is None:
                code = sensors.add(sensor)
            sensor_rows[code].append(row)
            sensor_codes.append(code)
            value = value or repr(value)  # -0.0 equals 0.0 but is not its term
            code = value_code(value)
            if code is None:
                code = values.add(value)
            value_rows[code].append(row)
            value_codes.append(code)
        for column, new in zip(self.columns.values(), entries):
            column.extend(new)

    def __len__(self) -> int:
        """The number of virtual triples: four per sensor record."""
        return 4 * self.size

    def _row_of(self, subject: Term) -> tuple[int, ...]:
        """The row of ``ex:obs_{i}``, ``i`` as ``str`` writes it below ``size``."""
        if isinstance(subject, Iri) and subject.value.startswith(_OBSERVATION_PREFIX):
            digits = subject.value[len(_OBSERVATION_PREFIX):]
            try:
                row = int(digits)
            except ValueError:  # not a number, or too long to convert
                return ()
            if 0 <= row < self.size and str(row) == digits:
                return (row,)
        return ()

    def join(
        self, pattern: Pattern, shape: Sequence[str | None], rows: list[dict],
        bound: Collection[str], closure: _Closure | None,
    ) -> list[dict]:
        """Extend each of ``rows``, which bind the variables in ``bound``, by
        every binding of ``pattern``'s others (``shape`` names them) by the
        view's triples, in file order: a subject is looked up by its row
        number, else an object (but that of ``rdf:type``) by its key in its
        column's index, and a constant object's key is tested against the
        column.  A row that binds a subject here keeps its row number too,
        under ``(self, name)``, a key no variable or other log takes, which
        a later pattern reads instead of parsing the IRI.  An open
        predicate, or class of ``rdf:type``, is fixed to each value it
        takes, splitting rows that bind it.  A triple ``closure`` knows is
        left to it, so a log triple that is also asserted is answered once."""
        s, p, o = pattern
        s_name, p_name, o_name = shape
        if p_name is not None or p == RDF_TYPE and o_name is not None:
            name = p_name if p_name is not None else o_name
            values = _PREDICATES if p_name is not None else (SOSA_OBSERVATION,)
            fixed_shape = tuple([None if n == name else n for n in shape])
            joined = []
            for value in values:  # the open term fixed to each value, wherever it occurs
                fixed = tuple([value if n == name else t for t, n in zip(pattern, shape)])
                if name in bound:
                    split = [row for row in rows if row[name] == value]
                    joined += self.join(fixed, fixed_shape, split, bound, closure)
                else:
                    found = self.join(fixed, fixed_shape, rows, bound, closure)
                    joined += [{**row, name: value} for row in found]
            return joined
        # None for rdf:type, whose object is sosa:Observation here
        column, index = self.columns.get(p), self.indexes.get(p)
        if column is None and o != SOSA_OBSERVATION:
            return []
        s_bound, o_bound = s_name in bound, o_name in bound
        s_free = s_name is not None and not s_bound
        obj = o if o_name is None else None  # a constant object; a bound one is read per row
        key = None  # the column's key of a constant or bound object
        if obj is not None and index is not None:
            key = index.key(obj)
            if key is None:
                return []
        size, terms = self.size, None if index is None else index.terms
        mark = (self, s_name)
        joined = []
        for row in rows:
            if o_bound:
                obj = row[o_name]
                key = index.key(obj)
                if key is None:
                    continue
            if s_free:
                found: Iterable[int] = range(size) if key is None else index.rows(key, size)
            else:  # a constant subject, or a bound one whose row number a row may keep
                i = row.get(mark)
                found = self._row_of(row[s_name] if s_bound else s) if i is None else (i,)
            for i in found:
                if key is None:
                    value = SOSA_OBSERVATION if terms is None else terms[column[i]]
                elif column[i] != key:
                    continue
                else:
                    value = obj
                if s_free:
                    subject = Iri(f"{_OBSERVATION_PREFIX}{i}")
                elif closure is not None:
                    subject = row[s_name] if s_bound else s
                if closure is not None and closure.knows((subject, p, value)):
                    continue
                extended = {**row, s_name: subject, mark: i} if s_free else {**row}
                if obj is None and extended.setdefault(o_name, value) != value:  # ?x p ?x
                    continue
                joined.append(extended)
        return joined


# ---------------------------------------------------------------------------
# inference


_RULE_PREDICATES = (
    RDFS_SUBCLASS_OF, RDF_TYPE, EX_EQUIVALENT_TO, EX_RELATION_TO, EX_ATTRIBUTE_TO_CLASS
)
_SUB, _TYPE, _EQUIV, _RELATION, _ATTRIBUTE = range(len(_RULE_PREDICATES))


class _Closure:
    """A numbered inference closure with its join and query indexes.

    Rules: an attribute aligned to a class is an instance of it; subClassOf
    is transitive and types propagate along it; equivalence is symmetric and
    equivalent terms share every assertion in either position (which makes
    it transitive); properties propagate along ex:relationTo.  Derived
    triples with a literal subject are dropped.

    Terms are numbered, so joins hash small ints.  ``facts`` is an ordered
    set of numbered facts, and every index maps a term number to the facts
    it holds, in order of entry: ``by_subject``, ``by_object`` and
    ``by_predicate`` hold every fact; ``edges_from``, ``equivalents`` and
    ``generals`` hold, by subject, the edges (below), the equivalences and
    the ex:relationTo facts with IRI ends.  ``_index`` alone decides where a
    fact goes.  ``extend`` adds asserted triples and runs semi-naive forward
    chaining seeded with those not yet known: each round indexes the facts
    new since the last one and joins only them against the indexes of every
    fact so far.

    The state outlives the call: it stays on the snapshot that computed it.
    A graph with no materialized ancestor runs the loop once, seeded with
    every asserted triple.  A snapshot made by ``insert`` from a
    materialized one (through any snapshots not yet materialized) takes its
    ancestor's state over when it is inferred and seeds the loop with only
    the triples asserted since.  ``extend`` only appends, and ``facts``, the
    numbering and every index list keep the order they entered in, so the
    ancestor's closure stays the first ``n`` facts over the first ``m``
    terms.  When it needs its indexes again (a query, or another child) it
    cuts the state back to those prefixes: it pops each later fact, newest
    first, off the ends of the lists it entered, and the terms a discarded
    branch numbered go with it.  While a live snapshot still stands for a
    longer prefix (``sharers``), it leaves the state to that one and runs
    the loop afresh with every asserted triple instead.

    Transitivity is one walk: an *edge* is a subClassOf fact that entered by
    any rule but transitivity and equivalence sharing, and only a new edge
    joins to the left, against the subClassOf and type facts whose object
    is its subject.
    A new subclass or type fact ``(s, p, o)`` gives ``s`` every class that
    the edges known in its round reach from ``o`` (one walk per object and
    round); what a walk derives enters as the walk's, whatever else derived
    it, and does not walk again.  By induction on the round in which
    ``b subClassOf c`` entered, every known ``a subClassOf b`` gives
    ``a subClassOf c``: an edge is joined to the left if ``a``'s fact came
    no later, else reached by its walk from ``b`` or by the walk that
    derived it; a walk's fact came from an earlier ``b subClassOf w`` and a
    path of earlier edges from ``w``, which ``a subClassOf w`` follows; a
    transitive fact from an earlier ``b subClassOf w`` and edge from ``w``;
    a copy from an earlier fact of a term equivalent to ``b`` or ``c``,
    which ``a``'s fact is shared with too.  The same holds for types.  From
    scratch a chain of n classes closes in two rounds of O(n^2) steps, as
    many as its facts, and a leaf insert takes two rounds at any depth.

    Queries read the same indexes: a bound subject or object narrows a
    pattern to that term's facts, a bound predicate alone to its facts.
    """

    def __init__(self):
        self.number: dict[Term, int] = {t: i for i, t in enumerate(_RULE_PREDICATES)}
        self.terms: list[Term] = list(_RULE_PREDICATES)
        self.is_iri: list[bool] = [True] * len(_RULE_PREDICATES)
        self.facts: dict[tuple, None] = {}  # an ordered set: the facts in order of entry
        (self.by_subject, self.by_object, self.by_predicate, self.edges_from, self.equivalents,
         self.generals) = (defaultdict(list) for _ in range(6))
        # the snapshots whose closure this is, by id, each standing for a prefix
        self.sharers: weakref.WeakValueDictionary[int, KnowledgeGraph] = (
            weakref.WeakValueDictionary()
        )

    def _indexes(self) -> tuple[defaultdict, ...]:
        return (self.by_subject, self.by_object, self.by_predicate, self.edges_from,
                self.equivalents, self.generals)

    def _index(self, delta: list[tuple], edges: list[tuple]) -> None:
        is_iri = self.is_iri
        by_subject, by_object, by_predicate, edges_from, equivalents, generals = self._indexes()
        for t in edges:
            edges_from[t[0]].append(t)
        for t in delta:
            s, p, o = t
            by_subject[s].append(t)
            by_object[o].append(t)
            by_predicate[p].append(t)
            if p == _EQUIV:
                equivalents[s].append(t)
            elif p == _RELATION and is_iri[s] and is_iri[o]:
                generals[s].append(t)

    def size(self) -> tuple[int, int]:
        """How many facts and terms are known: the prefix that stands for
        this closure after another ``extend``."""
        return len(self.facts), len(self.terms)

    def needed_beyond(self, size: tuple[int, int]) -> bool:
        """Whether a live snapshot stands for more than the first ``size``."""
        return any(
            graph._closure is self and graph._size[0] > size[0]
            for graph in self.sharers.values()
        )

    def truncate(self, size: tuple[int, int]) -> None:
        """Cut back to the first facts and terms ``size`` counts: pop each
        later fact, newest first, off its subject's, object's and predicate's
        lists, and off its subject's list in its rule predicate's index when
        it ends that list, then drop the later terms' lists."""
        n_facts, n_terms = size
        facts, indexes = self.facts, self._indexes()
        by_subject, by_object, by_predicate, edges_from, equivalents, generals = indexes
        by_rule = {_SUB: edges_from, _EQUIV: equivalents, _RELATION: generals}
        while len(facts) > n_facts:
            fact = s, p, o = facts.popitem()[0]
            by_subject[s].pop()
            by_object[o].pop()
            by_predicate[p].pop()
            entries = by_rule[p].get(s) if p in by_rule else None
            if entries and entries[-1] == fact:  # a list holding it ends with it by now
                entries.pop()
        for term in range(n_terms, len(self.terms)):
            for index in indexes:
                index.pop(term, None)
        while len(self.number) > n_terms:
            self.number.popitem()
        del self.terms[n_terms:], self.is_iri[n_terms:]

    def extend(self, asserted: Iterable[Triple]) -> None:
        """Add ``asserted`` and close over it."""
        number, terms, is_iri, facts = self.number, self.terms, self.is_iri, self.facts
        seeds = {
            tuple(number.setdefault(term, len(number)) for term in (t.subject, t.predicate, t.object))
            for t in asserted
        }
        added = list(islice(number, len(terms), None))
        terms += added
        is_iri += [isinstance(term, Iri) for term in added]

        def admit(candidates: list[tuple]) -> list[tuple]:
            new = [t for t in dict.fromkeys(candidates) if t not in facts and is_iri[t[0]]]
            facts.update(dict.fromkeys(new))
            return new

        # asserted facts enter as they are, literal subjects too
        delta = climbing = [t for t in seeds if t not in facts]
        facts.update(dict.fromkeys(delta))
        by_subject, by_object, by_predicate, edges_from, equivalents, generals = self._indexes()
        edges = [t for t in delta if t[1] == _SUB]
        while delta:
            self._index(delta, edges)
            fresh: list[tuple] = []
            chained: list[tuple] = []  # transitivity's and sharing's: never an edge
            reached: list[tuple] = []  # the upward walk's: never walks again
            for s, p, o in edges:
                below = by_object.get(s, ())
                chained += [(x, p, o) for x, q, _ in below if q == _SUB]
                fresh += [(x, _TYPE, o) for x, q, _ in below if q == _TYPE]
            above: dict[int, list[int]] = {}  # the classes an object reaches by edges
            for s, p, o in climbing:
                if (p == _SUB or p == _TYPE) and o in edges_from:
                    if o not in above:
                        above[o] = self._above(o)
                    reached += [(s, p, sup) for sup in above[o]]
            for s, p, o in delta:
                if p in generals:
                    fresh += [(s, general, o) for _, _, general in generals[p]]
                if s in equivalents:
                    chained += [(x, p, o) for _, _, x in equivalents[s] if is_iri[x]]
                if o in equivalents:
                    chained += [(s, p, x) for _, _, x in equivalents[o]]
                if p == _ATTRIBUTE and is_iri[o]:
                    fresh.append((s, _TYPE, o))
                elif p == _EQUIV:
                    fresh.append((o, p, s))
                    if is_iri[o]:
                        chained += [(o, fp, fo) for _, fp, fo in by_subject.get(s, ())]
                    chained += [(fs, fp, o) for fs, fp, _ in by_object.get(s, ())]
                elif p == _RELATION and is_iri[s] and is_iri[o]:
                    fresh += [(fs, o, fo) for fs, _, fo in by_predicate.get(s, ())]
            delta = admit(reached)  # first, so what another rule derived too walks no more
            climbing = admit(fresh)
            edges = [t for t in climbing if t[1] == _SUB]
            climbing += admit(chained)
            delta += climbing

    def _above(self, term: int) -> list[int]:
        """Every class reachable from ``term`` by one edge or more."""
        edges_from, seen, stack = self.edges_from, {}, [term]
        while stack:
            for _, _, sup in edges_from.get(stack.pop(), ()):
                if sup not in seen:
                    seen[sup] = None
                    stack.append(sup)
        return list(seen)

    def _reader(self, shape: Sequence[str | None], bound: Collection[str]) -> tuple:
        """Where the facts that fit a pattern whose constants and ``bound``
        variables are given are read: the position of the subject, else the
        object, else the predicate, and its index (None: every fact), and a
        getter of the other given positions, which each fact is tested on."""
        s, p, o = shape
        s, p, o = s is None or s in bound, p is None or p in bound, o is None or o in bound
        if s:
            test = itemgetter(1, 2) if p and o else itemgetter(1 if p else 2) if p or o else None
            return 0, self.by_subject, test
        if o:
            return 2, self.by_object, itemgetter(1) if p else None
        return 1, self.by_predicate if p else None, None

    def count(self, pattern: Pattern, shape: Sequence[str | None]) -> int:
        """How many known facts fit ``pattern``'s constants."""
        ids = list(map(self.number.get, pattern))  # None: unknown, or a variable's (never read)
        at, index, test = self._reader(shape, ())
        facts = self.facts if index is None else index.get(ids[at], ())
        return len(facts) if test is None else list(map(test, facts)).count(test(ids))

    def join(
        self, pattern: Pattern, shape: Sequence[str | None], rows: list[dict],
        bound: Collection[str],
    ) -> list[dict]:
        """Extend each of ``rows``, which bind the variables in ``bound``, by
        every binding of ``pattern``'s other variables (``shape`` names
        them) by the known facts that fit it.  The index read and the
        positions tested are picked, and constants numbered, once per call;
        each row looks its bound terms' numbers up.  A free variable that
        occurs twice must take one term, which compares numbers, not terms."""
        number, terms = self.number, self.terms
        ids = list(map(number.get, pattern))  # a bound variable's is set per row
        keyed = [(i, name) for i, name in enumerate(shape) if name in bound]
        free = [(i, name) for i, name in enumerate(shape) if name is not None and name not in bound]
        at, index, test = self._reader(shape, bound)
        first = {name: i for i, name in reversed(free)}  # each free variable's first position
        twice = len(first) < len(free)
        if len(first) == 1:  # the common case
            (name, place), = first.items()
        joined: list[dict] = []
        for row in rows:
            for i, var in keyed:
                ids[i] = number.get(row[var])
            want = test(ids) if test else None
            for f in self.facts if index is None else index.get(ids[at], ()):
                if test and test(f) != want or twice and any(f[i] != f[first[n]] for i, n in free):
                    continue
                if len(first) == 1:
                    joined.append({**row, name: terms[f[place]]})
                else:
                    joined.append({**row, **{n: terms[f[i]] for n, i in first.items()}})
        return joined

    def knows(self, triple: tuple[Term, Term, Term]) -> bool:
        number = self.number
        s = number.get(triple[0])
        return s is not None and (s, number.get(triple[1]), number.get(triple[2])) in self.facts


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
        # the numbered closure whose first _size facts and terms are this
        # snapshot's
        self._closure: _Closure | None = None
        self._size = (0, 0)
        # the materialized snapshot this one extends, until it materializes
        self._base: KnowledgeGraph | None = None

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
        child = KnowledgeGraph(self.asserted | frozenset(triples), self.virtual_sources)
        child._base = self if self._closure is not None else self._base
        return child

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
        """Materialize the inference closure on this snapshot and return it."""
        self._state()
        return self

    def all_triples(self) -> frozenset[Triple]:
        """Asserted plus inferred triples, built on each call."""
        terms = self._state().terms
        return frozenset(
            Triple(terms[s], terms[p], terms[o])
            for s, p, o in islice(self._closure.facts, self._size[0])
        )

    def _state(self) -> _Closure:
        """The numbered closure of this snapshot, computed on first use.
        When a child has extended it since, it is cut back to this
        snapshot's prefix; while a snapshot that stands for a longer prefix
        lives, this one computes its closure afresh instead."""
        closure = self._closure
        if closure is not None and closure.size() != self._size:
            if closure.needed_beyond(self._size):
                del closure.sharers[id(self)]
                closure = None
            else:
                closure.truncate(self._size)
        if closure is None:
            base, self._base = self._base, None
            if base is None:
                closure, delta = _Closure(), self.asserted
            else:
                closure, delta = base._state(), self.asserted - base.asserted
            closure.extend(delta)
            self._closure, self._size = closure, closure.size()
            closure.sharers[id(self)] = self
        return closure

    # -- query answering ------------------------------------------------------

    def _join(
        self, state: _Closure, pattern: Pattern, shape: Sequence[str | None], count: int,
        rows: list[dict], bound: set[str], fresh: set[VirtualBinding],
    ) -> list[dict]:
        """Extend each of ``rows``, which bind the variables in ``bound``, by
        every binding of ``pattern``.  Each source is asked once, with every
        row: the closure unless ``count``, its facts that fit, is 0, and
        each bound log unless the pattern's constants rule out its every
        row."""
        known = state if count else None
        joined = state.join(pattern, shape, rows, bound) if count else []
        for log in self.virtual_sources:
            if log.ready(pattern, shape, fresh):
                joined += log.join(pattern, shape, rows, bound, known)
        return joined

    def _solve(self, q: Query) -> list[dict[str, Term]]:
        # Evaluate the most constrained pattern first, and of those the one
        # with the fewest stored candidates for its constants (counted once:
        # no row changes them); result multiplicity does not depend on join
        # order.
        state = self._state()
        steps = [(p, shape, state.count(p, shape)) for p, shape in zip(q.where, q.shapes)]
        bound: set[str] = set()
        fresh: set[VirtualBinding] = set()

        rows: list[dict] = [{}]
        while steps and rows:
            ranks = [  # fixed positions: the constants and the bound variables
                (shape.count(None) + sum(map(bound.__contains__, shape)), -count)
                for _, shape, count in steps
            ]
            best = steps.pop(ranks.index(max(ranks)))
            rows = self._join(state, *best, rows, bound, fresh)
            bound.update(set(best[1]) - {None})  # None stands at a constant
        for mark in {(log, shape[0]) for log in fresh for shape in q.shapes}:  # logs' row numbers
            for row in rows:
                row.pop(mark, None)
        return rows

    def query(self, q: Query) -> list[dict[str, Term]]:
        """Answer a query with bag semantics over asserted, inferred, and
        virtual triples.  Rows come back in a deterministic order: by the
        ``order_by`` variable when given (ties broken by the selected
        values), otherwise sorted by the selected values."""
        rows = self._solve(q)
        if q.filters:
            rows = [r for r in rows if all(_filter_accepts(r, f) for f in q.filters)]

        # A row's sort key is the ordering variable's key, then each selected
        # one's, laid end to end: term keys are all three long, so this
        # orders as the tuple of them does.
        first, *more = q.select if q.order_by is None else (q.order_by, *q.select)
        keys = list(map(term_sort_key, map(itemgetter(first), rows)))
        for name in more:
            keys = list(map(add, keys, map(term_sort_key, map(itemgetter(name), rows))))
        order = sorted(range(len(rows)), key=keys.__getitem__)[: q.limit]
        if len(q.select) == 1:  # a dict display builds a row in a third of the time
            (name,) = q.select
            return [{name: rows[i][name]} for i in order]
        return [{name: rows[i][name] for name in q.select} for i in order]


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
        try:
            return [dict(r) for r in reader]
        except csv.Error as exc:
            message = f"line {reader.reader.line_num}: malformed CSV: {exc}"
            raise MappingError(rule.id, None, message) from None
    if rule.source_kind == "json":
        try:
            doc = parse_json(text)
        except ParseError as exc:
            raise MappingError(rule.id, None, str(exc)) from None
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
