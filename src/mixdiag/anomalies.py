"""Timing and behavior anomaly detection against a learned automaton.

The detector replays an event trace through the automaton.  Dwell times
outside a transition's learned envelope raise timing anomalies; unknown
events and unknown vectors raise behavior anomalies.  The reported
``deviation_s`` is always measured against the raw learned bound; the
tolerance only decides whether an anomaly is emitted at all.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, asdict

from .automaton import TimedAutomaton
from .errors import MixdiagError, ParseError
from .events import EventTrace, parse_label

log = logging.getLogger(__name__)

TIMING_ABOVE_MAX = "TimingAboveMax"
TIMING_BELOW_MIN = "TimingBelowMin"
UNKNOWN_EVENT = "UnknownEvent"
UNKNOWN_STATE = "UnknownState"

TIMING_KINDS = (TIMING_ABOVE_MAX, TIMING_BELOW_MIN)
ANOMALY_KINDS = TIMING_KINDS + (UNKNOWN_EVENT, UNKNOWN_STATE)


@dataclass(frozen=True)
class DetectionSettings:
    """Tolerance settings.  The effective tolerance for a bound ``b`` is
    ``max(abs_tol_s, rel_tol * b)``."""

    abs_tol_s: float = 0.5
    rel_tol: float = 0.10

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
        raise ValueError("trace and automaton disagree on actuator ids")

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
            start_t = (
                trace.steps[0].event.t_s - trace.steps[0].dwell_s if trace.steps else 0.0
            )
            anomalies.append(Anomaly(UNKNOWN_STATE, "", start_t))

    for step in trace.steps:
        label = step.event.label
        t_s = step.event.t_s
        if current is None:
            current = automaton.state_id_for(step.resulting_vector)
            continue
        transition = automaton.transitions.get((current, label))
        if transition is not None:
            if step.dwell_s > transition.t_max_s + settings.tolerance_for(transition.t_max_s):
                anomalies.append(
                    Anomaly(
                        TIMING_ABOVE_MAX,
                        label,
                        t_s,
                        source_state=current,
                        target_state=transition.target,
                        observed_dwell_s=step.dwell_s,
                        bound_s=transition.t_max_s,
                        deviation_s=step.dwell_s - transition.t_max_s,
                    )
                )
            elif step.dwell_s < transition.t_min_s - settings.tolerance_for(transition.t_min_s):
                anomalies.append(
                    Anomaly(
                        TIMING_BELOW_MIN,
                        label,
                        t_s,
                        source_state=current,
                        target_state=transition.target,
                        observed_dwell_s=step.dwell_s,
                        bound_s=transition.t_min_s,
                        deviation_s=transition.t_min_s - step.dwell_s,
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
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _optional(a: dict, key: str, types: type | tuple[type, ...]):
    """``a[key]`` when it is absent, null, or a finite number of ``types``
    (never a bool); anything else raises ValueError."""
    value = a.get(key)
    if value is None or (
        isinstance(value, types) and not isinstance(value, bool) and math.isfinite(value)
    ):
        return value
    raise ValueError(f"bad {key} {value!r}")


def anomalies_from_json(text: str) -> list[Anomaly]:
    """Parse an anomaly document.  Raises :class:`ParseError` on malformed
    JSON, an unknown kind, a malformed event label, a non-integer state id,
    or a time that is not a finite number.  The empty label is accepted
    only for an UnknownState at the start of a trace, as ``detect`` emits
    it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    anomalies = []
    try:
        for a in doc["anomalies"]:
            kind = str(a["kind"])
            if kind not in ANOMALY_KINDS:
                raise ValueError(f"unknown anomaly kind {kind!r}")
            at_t_s = _optional(a, "at_t_s", (int, float))
            if at_t_s is None:
                raise ValueError("at_t_s is required")
            label = a["event_label"]
            if not isinstance(label, str):
                raise ValueError(f"bad event_label {label!r}")
            if label or kind != UNKNOWN_STATE:
                parse_label(label)
            anomalies.append(
                Anomaly(
                    kind=kind,
                    event_label=label,
                    at_t_s=float(at_t_s),
                    source_state=_optional(a, "source_state", int),
                    target_state=_optional(a, "target_state", int),
                    observed_dwell_s=_optional(a, "observed_dwell_s", (int, float)),
                    bound_s=_optional(a, "bound_s", (int, float)),
                    deviation_s=_optional(a, "deviation_s", (int, float)),
                )
            )
    except (KeyError, TypeError, ValueError, OverflowError, MixdiagError) as exc:
        raise ParseError(f"bad anomaly document: {exc}") from None
    return anomalies
