"""Timing and behavior anomaly detection against a learned automaton.

The detector replays an event trace through the automaton.  Dwell times
outside a transition's learned envelope raise timing anomalies; unknown
events and unknown vectors raise behavior anomalies.  The reported
``deviation_s`` is always measured against the raw learned bound; the
tolerance only decides whether an anomaly is emitted at all.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, asdict

from .automaton import TimedAutomaton
from .errors import MixdiagError, ParseError, dump_json, number, parse_json, reading, typed
from .events import EventTrace, parse_label

log = logging.getLogger(__name__)

TIMING_ABOVE_MAX = "TimingAboveMax"
TIMING_BELOW_MIN = "TimingBelowMin"
UNKNOWN_EVENT = "UnknownEvent"
UNKNOWN_STATE = "UnknownState"

TIMING_KINDS = (TIMING_ABOVE_MAX, TIMING_BELOW_MIN)
ANOMALY_KINDS = TIMING_KINDS + (UNKNOWN_EVENT, UNKNOWN_STATE)


class ActuatorMismatch(MixdiagError):
    """A trace and an automaton are over different actuator sets."""


class InvalidTolerance(MixdiagError):
    """A detection tolerance that is NaN, infinite or negative."""


@dataclass(frozen=True)
class DetectionSettings:
    """Tolerance settings.  The effective tolerance for a bound ``b`` is
    ``max(abs_tol_s, rel_tol * b)``.  Both must be finite and >= 0: a NaN
    tolerance would fail every comparison and an infinite one would pass
    every dwell, so either would silently detect nothing."""

    abs_tol_s: float = 0.5
    rel_tol: float = 0.10

    def __post_init__(self):
        for name in ("abs_tol_s", "rel_tol"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise InvalidTolerance(f"{name} must be finite and >= 0, got {value!r}")

    def tolerance_for(self, bound_s: float) -> float:
        return max(self.abs_tol_s, self.rel_tol * bound_s)


@dataclass(frozen=True)
class Anomaly:
    """One detected deviation.

    ``source_state``/``target_state`` are automaton state ids; the target is
    absent for UnknownState, and the source is absent only when the trace
    starts in a vector the automaton has never seen.  Timing fields are set
    for timing kinds only.
    """

    kind: str
    event_label: str
    at_t_s: float
    source_state: int | None = None
    target_state: int | None = None
    observed_dwell_s: float | None = None
    bound_s: float | None = None
    deviation_s: float | None = None


def detect(
    automaton: TimedAutomaton,
    trace: EventTrace,
    settings: DetectionSettings | None = None,
) -> list[Anomaly]:
    """Replay ``trace`` and return anomalies ordered by time.

    After an UnknownState the detector is desynchronized and silently
    re-synchronizes at the next step whose vector is a known state; one
    anomaly is reported per excursion into unknown territory.  A trace that
    starts in a known but non-initial state is accepted with a logged
    warning, since detection can begin at any recognizable vector.
    """
    settings = settings or DetectionSettings()
    if set(trace.actuator_ids()) != set(automaton.actuator_ids()):
        raise ActuatorMismatch("trace and automaton disagree on actuator ids")

    anomalies: list[Anomaly] = []
    initial = automaton.initial_state()
    current: int | None
    if trace.initial_vector == initial.vector:
        current = initial.id
    else:
        current = automaton.state_id_for(trace.initial_vector)
        if current is not None:
            log.warning(
                "trace starts in state %d instead of the initial state %d",
                current,
                initial.id,
            )
        else:
            start_t = trace.steps[0].t_s - trace.steps[0].dwell_s if trace.steps else 0.0
            anomalies.append(Anomaly(UNKNOWN_STATE, "", start_t))

    for step in trace.steps:
        label = step.label
        t_s = step.t_s
        if current is None:
            current = automaton.state_id_for(step.resulting_vector)
            continue
        transition = automaton.transitions.get((current, label))
        if transition is not None:
            dwell_s = step.dwell_s
            above = dwell_s > transition.t_max_s + settings.tolerance_for(transition.t_max_s)
            if above or dwell_s < transition.t_min_s - settings.tolerance_for(transition.t_min_s):
                bound_s = transition.t_max_s if above else transition.t_min_s
                anomalies.append(
                    Anomaly(
                        TIMING_ABOVE_MAX if above else TIMING_BELOW_MIN,
                        label,
                        t_s,
                        source_state=current,
                        target_state=transition.target,
                        observed_dwell_s=dwell_s,
                        bound_s=bound_s,
                        deviation_s=dwell_s - bound_s if above else bound_s - dwell_s,
                    )
                )
            current = transition.target
        else:
            known = automaton.state_id_for(step.resulting_vector)
            if known is not None:
                anomalies.append(
                    Anomaly(
                        UNKNOWN_EVENT,
                        label,
                        t_s,
                        source_state=current,
                        target_state=known,
                    )
                )
                current = known
            else:
                anomalies.append(Anomaly(UNKNOWN_STATE, label, t_s, source_state=current))
                current = None
    return anomalies


def anomalies_to_json(anomalies: list[Anomaly]) -> str:
    doc = {"anomalies": [asdict(a) for a in anomalies]}
    return dump_json(doc)


def _optional(a: dict, key: str, kind: type):
    """``a[key]`` read as a finite ``kind``, a float or an int, or None
    when it is absent or null; anything else raises TypeError or
    ValueError."""
    value = a.get(key)
    if value is None:
        return None
    value = number(value) if kind is float else typed(value, kind)
    if not math.isfinite(value):
        raise ValueError(f"bad {key} {value!r}")
    return value


def anomalies_from_json(text: str) -> list[Anomaly]:
    """Parse an anomaly document.  Raises :class:`ParseError` on malformed
    JSON, an unknown kind, a malformed event label, a non-integer state id,
    or a time that is not a finite number.  The empty label is accepted
    only for an UnknownState at the start of a trace, as ``detect`` emits
    it."""
    doc = parse_json(text)
    anomalies = []
    with reading("bad anomaly document"):
        for a in doc["anomalies"]:
            kind = typed(a["kind"], str)
            if kind not in ANOMALY_KINDS:
                raise ValueError(f"unknown anomaly kind {kind!r}")
            at_t_s = _optional(a, "at_t_s", float)
            if at_t_s is None:
                raise ValueError("at_t_s is required")
            label = typed(a["event_label"], str)
            if label or kind != UNKNOWN_STATE:
                try:
                    parse_label(label)
                except MixdiagError as exc:
                    raise ParseError(f"bad anomaly document: {exc}") from None
            anomalies.append(
                Anomaly(
                    kind=kind,
                    event_label=label,
                    at_t_s=at_t_s,
                    source_state=_optional(a, "source_state", int),
                    target_state=_optional(a, "target_state", int),
                    observed_dwell_s=_optional(a, "observed_dwell_s", float),
                    bound_s=_optional(a, "bound_s", float),
                    deviation_s=_optional(a, "deviation_s", float),
                )
            )
    return anomalies
