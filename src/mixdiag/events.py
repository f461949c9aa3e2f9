"""Event logs: CSV parsing and conversion into timed event traces.

A trace is the actuator-level view of a run: the starting signal vector plus
one step per vector change.  Simultaneous signal changes (equal timestamps,
or within ``merge_window_s`` for noisy logs) merge into a single event whose
label lists the flipped signals in id order, e.g. ``V201↓,V202↑``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import MixdiagError, ParseError
from .plant import LOG_HEADER, PlantConfig, SimulationLog

RISE = "↑"
FALL = "↓"


class EmptyLog(MixdiagError):
    """The log holds no actuator records, so no trace can be built."""


class InvalidMergeWindow(MixdiagError):
    """A merge window that is NaN, infinite (in milliseconds) or negative."""


@dataclass(frozen=True)
class ActuatorVector:
    """A full assignment of boolean values to every actuator id.

    Stored as id-sorted pairs so vectors hash and compare canonically.
    """

    signals: tuple[tuple[str, bool], ...]

    @classmethod
    def from_mapping(cls, values: Mapping[str, bool]) -> "ActuatorVector":
        for key, value in values.items():
            if not (isinstance(key, str) and isinstance(value, bool)):
                raise MixdiagError(f"actuator {key!r}: expected a str id and a bool, got {value!r}")
        return cls(tuple(sorted(values.items())))

    def as_dict(self) -> dict[str, bool]:
        return dict(self.signals)

    def ids(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.signals)

    def active(self) -> tuple[str, ...]:
        return tuple(k for k, v in self.signals if v)

    def apply(self, changes: Mapping[str, bool]) -> "ActuatorVector":
        values = self.as_dict()
        for key, value in changes.items():
            if key not in values:
                raise MixdiagError(f"unknown actuator id {key!r} in change set")
            values[key] = value
        return ActuatorVector.from_mapping(values)


def build_label(changes: Mapping[str, bool]) -> str:
    if not changes:
        raise MixdiagError("an event needs at least one signal change")
    return ",".join(f"{aid}{RISE if value else FALL}" for aid, value in sorted(changes.items()))


def parse_label(label: str) -> dict[str, bool]:
    changes: dict[str, bool] = {}
    for part in label.split(","):
        if len(part) < 2 or part[-1] not in (RISE, FALL):
            raise MixdiagError(f"malformed event label part {part!r}")
        aid = part[:-1]
        if aid in changes:
            raise MixdiagError(f"duplicate actuator {aid!r} in label {label!r}")
        changes[aid] = part[-1] == RISE
    return changes


@dataclass(frozen=True)
class TraceStep:
    """One vector change: the event ``label`` fired at ``t_s``.  ``dwell_s``
    is the time spent in the previous vector before it fired."""

    label: str
    t_s: float
    resulting_vector: ActuatorVector
    dwell_s: float


@dataclass(frozen=True)
class EventTrace:
    initial_vector: ActuatorVector
    steps: tuple[TraceStep, ...]

    def actuator_ids(self) -> tuple[str, ...]:
        return self.initial_vector.ids()


def parse_log(csv_text: str) -> SimulationLog:
    """Parse the record CSV.  Raises :class:`ParseError` with the physical
    line number of the offending row (its last line, when a quoted field
    spans lines) on malformed input, a line the ``csv`` module cannot read
    (a field over its size limit, a bare carriage return) included."""
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", reader.line_num) from None
    if header is None:
        raise ParseError("missing header", 1)
    if tuple(header) != LOG_HEADER:
        raise ParseError(f"bad header {header!r}", 1)
    actuator_records, sensor_records, _ = _read_records(reader, 0, None)
    return SimulationLog(actuator_records, sensor_records)


def _parse_rows(
    text: str, first_line: int, prev_ms: int | None
) -> tuple[list[tuple[int, str, bool]], list[tuple[int, str, float]], int | None]:
    """Parse header-less record rows exactly as :func:`parse_log` parses them
    inside a whole log where ``text`` starts, at a row boundary, on line
    ``first_line`` after a record at ``prev_ms``.  Also returns the last
    record's ``t_ms`` (``prev_ms`` when ``text`` holds no record)."""
    return _read_records(csv.reader(io.StringIO(text)), first_line - 1, prev_ms)


def _read_records(
    reader, line_offset: int, prev_ms: int | None
) -> tuple[list[tuple[int, str, bool]], list[tuple[int, str, float]], int | None]:
    def error(message: str) -> ParseError:
        # the reader's line_num is the last physical line of the row
        return ParseError(message, line_offset + reader.line_num)

    actuator_records: list[tuple[int, str, bool]] = []
    sensor_records: list[tuple[int, str, float]] = []
    add_sensor = sensor_records.append
    # a timestamp text is converted and checked where it differs from the
    # last row's, each distinct sensor-value text once; only texts that
    # passed every check enter ``values``
    raw_prev: str | None = None
    values: dict[str, float] = {}
    try:
        for row in reader:
            try:
                raw_t, kind, rid, raw_value = row
            except ValueError:
                if not row:
                    continue  # tolerate blank lines
                raise error(f"expected 4 columns, got {len(row)}") from None
            if raw_t != raw_prev:
                try:
                    t_s = float(raw_t)
                    # round() rejects nan (ValueError) and values that overflow to inf
                    t_ms = round(t_s * 1000)
                except (ValueError, OverflowError):
                    raise error(f"bad timestamp {raw_t!r}") from None
                if t_s < 0:
                    raise error(f"negative timestamp {raw_t!r}")
                if prev_ms is not None and t_ms < prev_ms:
                    raise error("timestamps not sorted")
                prev_ms, raw_prev = t_ms, raw_t
            if not rid:
                raise error("empty record id")
            if kind == "sensor":
                value = values.get(raw_value)
                if value is None:
                    try:
                        value = float(raw_value)
                    except ValueError:
                        raise error(f"bad sensor value {raw_value!r}") from None
                    if not math.isfinite(value):
                        raise error(f"non-finite sensor value {raw_value!r}")
                    values[raw_value] = value
                add_sensor((t_ms, rid, value))
            elif kind == "actuator":
                if raw_value not in ("0", "1"):
                    raise error(f"actuator value must be 0 or 1, got {raw_value!r}")
                actuator_records.append((t_ms, rid, raw_value == "1"))
            else:
                raise error(f"unknown record kind {kind!r}")
    except csv.Error as exc:
        raise error(f"malformed CSV: {exc}") from None
    return actuator_records, sensor_records, prev_ms


def to_trace(
    log: SimulationLog,
    config_or_ids: PlantConfig | Iterable[str],
    merge_window_s: float = 0.0,
) -> EventTrace:
    """Build an event trace from a log.

    The earliest group of actuator records establishes the initial vector on
    an all-off base; every later group becomes one step.  Records that
    restate the current value are dropped, and a group consisting only of
    such records produces no event.  A NaN or negative ``merge_window_s``,
    or one that is infinite in milliseconds, raises
    :class:`InvalidMergeWindow`.

    A step's label and vector depend only on the vector before it and its
    group's records, so each distinct such move is derived once per call;
    every other step costs a dict read and its own ``TraceStep``.
    """
    if not math.isfinite(merge_window_s * 1000) or merge_window_s < 0:
        raise InvalidMergeWindow(
            f"merge window must be finite and >= 0, got {merge_window_s!r}"
        )
    if isinstance(config_or_ids, PlantConfig):
        ids = sorted(config_or_ids.actuator_ids())
    else:
        ids = sorted(set(config_or_ids))
    if not ids:
        raise MixdiagError("no actuator ids supplied")
    if not log.actuator_records:
        raise EmptyLog("log contains no actuator records")
    known = set(ids)
    for _, aid, _ in log.actuator_records:
        if aid not in known:
            raise MixdiagError(f"log references unknown actuator {aid!r}")

    merge_ms = round(merge_window_s * 1000)
    groups: list[tuple[int, dict[str, bool]]] = []
    for t_ms, aid, value in log.actuator_records:
        if groups and t_ms - groups[-1][0] <= merge_ms:
            groups[-1][1][aid] = value  # last value wins inside a group
        else:
            groups.append((t_ms, {aid: value}))

    base = {aid: False for aid in ids}
    base.update(groups[0][1])
    vector = ActuatorVector.from_mapping(base)
    initial = vector
    prev_ms = groups[0][0]

    # Steps share one object per distinct vector, so a long trace holds a
    # handful of vectors, not one per step.
    vectors = {vector: vector}
    # (vector, group items) -> (label, next vector), or None for a group
    # that changes nothing: each distinct move is derived once
    moves: dict[tuple, tuple[str, ActuatorVector] | None] = {}
    steps: list[TraceStep] = []
    for t_ms, values in groups[1:]:
        key = (vector, tuple(values.items()))
        try:
            move = moves[key]
        except KeyError:
            current = vector.as_dict()
            changes = {aid: v for aid, v in values.items() if current[aid] != v}
            move = None
            if changes:
                after = vector.apply(changes)
                move = build_label(changes), vectors.setdefault(after, after)
            moves[key] = move
        if move is None:
            continue
        label, vector = move
        steps.append(TraceStep(label, t_ms / 1000.0, vector, (t_ms - prev_ms) / 1000.0))
        prev_ms = t_ms
    return EventTrace(initial, tuple(steps))


def split_cycles(trace: EventTrace, idle_vector: ActuatorVector) -> list[EventTrace]:
    """Split a trace at entries into ``idle_vector``.

    Each segment starts in the idle vector (or in the trace's own initial
    vector for a leading segment).  Concatenating the segments' steps gives
    back the original step sequence.  If the idle vector never occurs the
    whole trace is returned as the only segment.
    """
    if not trace.steps:
        return [trace]
    boundaries = [0] if trace.initial_vector == idle_vector else []
    for i, step in enumerate(trace.steps):
        if step.resulting_vector == idle_vector and i + 1 < len(trace.steps):
            boundaries.append(i + 1)
    if not boundaries:
        return [trace]
    if boundaries[0] != 0:
        boundaries.insert(0, 0)
    segments = []
    for pos, start in enumerate(boundaries):
        end = boundaries[pos + 1] if pos + 1 < len(boundaries) else len(trace.steps)
        start_vector = (
            trace.initial_vector if start == 0 else trace.steps[start - 1].resulting_vector
        )
        segments.append(EventTrace(start_vector, trace.steps[start:end]))
    return segments
