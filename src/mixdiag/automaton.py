"""Passive learning of a timed automaton from event traces.

States are identified by their full actuator vector, so revisiting a vector
revisits the state.  Each transition keeps the observed dwell-time envelope
``[t_min_s, t_max_s]`` plus running mean and a Welford M2 accumulator for
the variance.  Learning is an online fold: :meth:`TimedAutomaton.update`
consumes one trace step and either extends the structure or tightens the
statistics.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import MixdiagError, ParseError, dump_json, number, parse_json, reading, typed
from .events import ActuatorVector, EventTrace, parse_label

_STAT_SLACK = 1e-9


class InconsistentTraces(MixdiagError):
    """Traces disagree on actuator ids or initial vector."""


class DeterminismViolation(MixdiagError):
    """A step contradicts the event-determinism invariant."""


class InvalidDwell(MixdiagError):
    """A step's dwell time is not a positive finite number of seconds, or
    it would make its transition's dwell variance overflow."""


class InvalidWindow(MixdiagError):
    """A convergence window is not a positive number of updates, or its
    bound shift threshold is NaN or negative."""


@dataclass(frozen=True)
class State:
    id: int
    vector: ActuatorVector
    is_initial: bool


@dataclass
class Transition:
    source: int
    event_label: str
    target: int
    t_min_s: float
    t_max_s: float
    mean_s: float
    m2_s2: float
    count: int


def _move(source: State, label: str) -> ActuatorVector:
    """The vector ``label`` takes ``source`` to.  Raises
    :class:`DeterminismViolation` when a part names an unknown actuator or
    flips nothing, and :class:`MixdiagError` when the label is malformed."""
    changes = parse_label(label)
    current_values = source.vector.as_dict()
    for aid, value in changes.items():
        if aid not in current_values:
            raise DeterminismViolation(f"label {label!r} references unknown actuator {aid!r}")
        if current_values[aid] == value:
            raise DeterminismViolation(
                f"label {label!r} does not flip {aid!r} in state {source.id}"
            )
    return source.vector.apply(changes)


class TimedAutomaton:
    """A deterministic timed automaton with one initial state."""

    def __init__(self, initial_vector: ActuatorVector):
        initial = State(0, initial_vector, True)
        self.states: dict[int, State] = {0: initial}
        self.transitions: dict[tuple[int, str], Transition] = {}
        self.alphabet: set[str] = set()
        self._by_vector: dict[ActuatorVector, int] = {initial_vector: 0}
        # (created a transition, dwell bound shift) per update: an exact tuple
        # of atoms, which the collector stops tracking
        self._updates: list[tuple[bool, float]] = []

    # -- structure ---------------------------------------------------------

    def initial_state(self) -> State:
        return next(s for s in self.states.values() if s.is_initial)

    def state_id_for(self, vector: ActuatorVector) -> int | None:
        return self._by_vector.get(vector)

    def actuator_ids(self) -> tuple[str, ...]:
        return self.initial_state().vector.ids()

    def _add_state(self, vector: ActuatorVector) -> int:
        sid = max(self.states) + 1
        self.states[sid] = State(sid, vector, False)
        self._by_vector[vector] = sid
        return sid

    # -- learning ----------------------------------------------------------

    def update(
        self, current_state: int, label: str, new_vector: ActuatorVector, dwell_s: float
    ) -> int:
        """Fold one observed step into the automaton; returns the state the
        step lands in.

        Every transition's label takes its source's vector to its target's:
        a step that creates a transition parses its label, checks each part
        flips a known actuator and applies it; ``_from_parts`` checks the
        same for a loaded automaton.  So a step along an existing
        ``(state, label)`` costs two dict reads, a vector comparison and the
        statistics fold: it only checks that the target's vector is
        ``new_vector``."""
        if current_state not in self.states:
            raise MixdiagError(f"unknown state id {current_state}")
        if not math.isfinite(dwell_s) or dwell_s <= 0:
            raise InvalidDwell(f"dwell_s must be positive and finite, got {dwell_s!r}")
        key = (current_state, label)
        transition = self.transitions.get(key)
        if transition is None:
            reached = _move(self.states[current_state], label)
        else:
            reached = self.states[transition.target].vector
        if reached != new_vector:
            raise DeterminismViolation(
                f"label {label!r} applied to state {current_state} "
                f"does not produce the recorded vector"
            )

        shift = 0.0
        if transition is None:
            target = self._by_vector.get(new_vector)
            if target is None:
                target = self._add_state(new_vector)
            self.transitions[key] = Transition(
                current_state, label, target, dwell_s, dwell_s, dwell_s, 0.0, 1
            )
            self.alphabet.add(label)
        else:
            target = transition.target
            count = transition.count + 1
            delta = dwell_s - transition.mean_s
            mean = transition.mean_s + delta / count  # between two finite dwells
            m2 = transition.m2_s2 + delta * (dwell_s - mean)
            if not math.isfinite(m2):
                raise InvalidDwell(f"dwell_s {dwell_s!r} overflows the dwell variance of {key}")
            if dwell_s < transition.t_min_s:
                shift = transition.t_min_s - dwell_s
                transition.t_min_s = dwell_s
            elif dwell_s > transition.t_max_s:
                shift = dwell_s - transition.t_max_s
                transition.t_max_s = dwell_s
            transition.count, transition.mean_s, transition.m2_s2 = count, mean, m2
        self._updates.append((transition is None, shift))
        return target

    def has_converged(self, window: int, epsilon_s: float) -> bool:
        """True when the last ``window`` updates created nothing new and no
        dwell bound moved by more than ``epsilon_s``."""
        if window < 1:
            raise InvalidWindow(f"window must be >= 1, got {window!r}")
        if not epsilon_s >= 0:  # NaN too
            raise InvalidWindow(f"epsilon must be >= 0, got {epsilon_s!r}")
        if len(self._updates) < window:
            return False
        return all(
            not created and shift <= epsilon_s for created, shift in self._updates[-window:]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimedAutomaton):
            return NotImplemented
        return (
            self.states == other.states
            and self.transitions == other.transitions
            and self.alphabet == other.alphabet
        )


def learn(traces: list[EventTrace]) -> TimedAutomaton:
    """Learn an automaton by folding every step of every trace.

    All traces must share the actuator-id set and the initial vector.
    """
    if not traces:
        raise InconsistentTraces("no traces given")
    first = traces[0]
    for trace in traces[1:]:
        if trace.actuator_ids() != first.actuator_ids():
            raise InconsistentTraces("traces disagree on actuator ids")
        if trace.initial_vector != first.initial_vector:
            raise InconsistentTraces("traces disagree on the initial vector")
    automaton = TimedAutomaton(first.initial_vector)
    for trace in traces:
        current = 0
        for step in trace.steps:
            current = automaton.update(current, step.label, step.resulting_vector, step.dwell_s)
    return automaton


def _from_parts(
    states: list[State], transitions: list[Transition], alphabet: set[str]
) -> TimedAutomaton:
    """Assemble and validate an automaton from raw parts: its states over
    one actuator-id set, and each transition's label taking its source's
    vector to its target's, as :meth:`TimedAutomaton.update` relies on.

    Raises ValueError with a message; callers wrap it into their own error
    type (ParseError for JSON, MalformedAnnotation for graphs).
    """
    if not states:
        raise ValueError("automaton needs at least one state")
    if len({s.vector.ids() for s in states}) > 1:
        raise ValueError("states disagree on the actuator-id set")
    ids = [s.id for s in states]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate state id")
    initials = [s for s in states if s.is_initial]
    if len(initials) != 1:
        raise ValueError(f"expected exactly one initial state, found {len(initials)}")
    vectors = [s.vector for s in states]
    if len(set(vectors)) != len(vectors):
        raise ValueError("duplicate state vector")
    by_id = {s.id: s for s in states}
    key_set = set()
    for t in transitions:
        if t.source not in by_id or t.target not in by_id:
            raise ValueError(f"transition {t.source}->{t.target} references unknown state")
        try:
            reached = _move(by_id[t.source], t.event_label)
        except MixdiagError as exc:
            raise ValueError(str(exc)) from None
        if reached != by_id[t.target].vector:
            raise ValueError(
                f"label {t.event_label!r} does not take state {t.source} to state {t.target}"
            )
        key = (t.source, t.event_label)
        if key in key_set:
            raise ValueError(f"duplicate transition for {key}")
        key_set.add(key)
        if t.count < 1:
            raise ValueError("transition count must be >= 1")
        if not all(map(math.isfinite, (t.t_min_s, t.t_max_s, t.mean_s, t.m2_s2))):
            raise ValueError("transition timing statistics are not finite")
        if not (
            t.t_min_s - _STAT_SLACK <= t.mean_s <= t.t_max_s + _STAT_SLACK
        ) or t.t_min_s > t.t_max_s:
            raise ValueError("transition timing statistics are inconsistent")
    if not alphabet >= {t.event_label for t in transitions}:
        raise ValueError("alphabet does not cover all transition labels")

    automaton = TimedAutomaton.__new__(TimedAutomaton)
    automaton.states = {s.id: s for s in sorted(states, key=lambda s: s.id)}
    automaton.transitions = {
        (t.source, t.event_label): t
        for t in sorted(transitions, key=lambda t: (t.source, t.event_label))
    }
    automaton.alphabet = set(alphabet)
    automaton._by_vector = {s.vector: s.id for s in states}
    automaton._updates = []
    return automaton


def serialize(automaton: TimedAutomaton) -> str:
    """Canonical JSON: sorted keys, states by id, transitions by
    (source, label).  ``deserialize(serialize(a)) == a``.  Every number is
    finite, so the text is standard JSON, without ``Infinity`` or ``NaN``."""
    doc = {
        "alphabet": sorted(automaton.alphabet),
        "states": [
            {
                "id": s.id,
                "is_initial": s.is_initial,
                "vector": s.vector.as_dict(),
            }
            for s in sorted(automaton.states.values(), key=lambda s: s.id)
        ],
        "transitions": [
            asdict(t)
            for t in sorted(automaton.transitions.values(), key=lambda t: (t.source, t.event_label))
        ],
    }
    return dump_json(doc)


def deserialize(text: str) -> TimedAutomaton:
    doc = parse_json(text)
    with reading("bad automaton document"):
        states = [
            State(
                typed(s["id"], int),
                ActuatorVector.from_mapping({k: typed(v, bool) for k, v in s["vector"].items()}),
                typed(s["is_initial"], bool),
            )
            for s in doc["states"]
        ]
        transitions = [
            Transition(
                typed(t["source"], int),
                typed(t["event_label"], str),
                typed(t["target"], int),
                number(t["t_min_s"]),
                number(t["t_max_s"]),
                number(t["mean_s"]),
                number(t["m2_s2"]),
                typed(t["count"], int),
            )
            for t in doc["transitions"]
        ]
        alphabet = {typed(label, str) for label in doc.get("alphabet", [])}
    try:
        return _from_parts(states, transitions, alphabet)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
