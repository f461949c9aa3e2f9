"""Virtual sensor-data access: a bound log CSV answers observation patterns
from an indexed view of its bytes (see ``VirtualBinding``)."""

from __future__ import annotations

import os
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection, Iterable, Sequence

from . import events  # its functions are looked up per call, so a wrapper is seen
from .closure import _Closure
from .errors import MixdiagError, decode
from .query import Pattern
from .terms import PREFIXES, RDF_TYPE, XSD_DOUBLE, Iri, Literal, Term, iri

SOSA_OBSERVATION = iri("sosa:Observation")
SOSA_MADE_BY_SENSOR = iri("sosa:madeBySensor")
SOSA_HAS_SIMPLE_RESULT = iri("sosa:hasSimpleResult")
SOSA_RESULT_TIME = iri("sosa:resultTime")


class SourceUnavailable(MixdiagError):
    """A virtual binding's backing file cannot be read."""


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
                    size, last_ms = _rows_before(old, keep)
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
        times, sensor_codes, value_codes = self.columns.values()
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


def _rows_before(data: bytes, end: int) -> tuple[int, int | None]:
    """The number of sensor records in ``data[:end]`` and the ``t_ms`` of
    its last record (None when it holds none), where ``data[:end]`` is the
    UTF-8 of a log that parses, ends on a line feed and holds no quote after
    its header line.  Each of its other lines is then one row split at its
    commas, whose kind is its second field and whose value holds no comma,
    and the header holds no ``,sensor,``.  So ``bytes.count`` finds
    ``,sensor,`` once in each line whose kind or id is ``sensor`` and in no
    other, and ``,actuator,sensor,`` once in each actuator row among those."""
    sensors = data.count(b",sensor,", 0, end) - data.count(b",actuator,sensor,", 0, end)
    while data[end - 1] in b"\r\n":  # blank lines; the header line is not blank
        end -= 1
    line_feed = data.rfind(b"\n", 0, end)
    start = max(line_feed, data.rfind(b"\r", line_feed + 1, end)) + 1
    if start == 0:  # the header
        return sensors, None
    return sensors, events._parse_rows(decode(data[start:end]), 1, None)[2]
