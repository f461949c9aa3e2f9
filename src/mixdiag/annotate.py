"""Semantic annotation: moving automata and anomalies into the graph.

The automaton is published as a state-machine individual whose class is a
subclass of the diagnostic-model class, with one individual per state,
transition, and event.  Anomalies become symptom individuals located at
their transition.  ``rebuild_automaton`` inverts the automaton annotation;
transition IRIs embed a short label hash so they stay stable and free of
characters that are awkward in IRIs.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping

from .anomalies import TIMING_KINDS, Anomaly
from .automaton import State, TimedAutomaton, Transition, _from_parts
from .errors import MixdiagError
from .events import ActuatorVector
from .terms import (
    RDF_TYPE,
    RDFS_LABEL,
    RDFS_SUBCLASS_OF,
    Iri,
    Literal,
    Triple,
    iri,
)

SM_STATE_MACHINE = iri("sm:StateMachine")
SM_STATE = iri("sm:State")
SM_TRANSITION = iri("sm:Transition")
SM_EVENT = iri("sm:Event")
SM_HAS_STATE = iri("sm:hasState")
SM_HAS_TRANSITION = iri("sm:hasTransition")
SM_SOURCE = iri("sm:source")
SM_TARGET = iri("sm:target")
SM_ON_EVENT = iri("sm:onEvent")
SM_IS_INITIAL = iri("sm:isInitial")

ISO_DIAGNOSTIC_MODEL = iri("iso17359:DiagnosticModel")
ISO_SYMPTOM = iri("iso17359:Symptom")
ISO_LOCATED_AT = iri("iso17359:locatedAt")
ISA_RELATES_TO_EQUIPMENT = iri("isa88:relatesToEquipment")

EX_MACHINE = iri("ex:TA")
EX_STATE_INDEX = iri("ex:stateIndex")
EX_SIGNAL_VALUE = iri("din61360:hasValue")
EX_T_MIN = iri("ex:tMinSeconds")
EX_T_MAX = iri("ex:tMaxSeconds")
EX_MEAN = iri("ex:meanSeconds")
EX_M2 = iri("ex:m2Seconds2")
EX_COUNT = iri("ex:observationCount")

EX_TIMING_ANOMALY = iri("ex:TimingAnomaly")
EX_BEHAVIOR_ANOMALY = iri("ex:BehaviorAnomaly")
EX_ANOMALY_KIND = iri("ex:anomalyKind")
EX_OBSERVED_DWELL = iri("ex:observedDwellSeconds")
EX_DEVIATION = iri("ex:deviationSeconds")
EX_AT_TIME = iri("ex:atTimeSeconds")
EX_BOUND = iri("ex:boundSeconds")


class MalformedAnnotation(MixdiagError):
    """Graph triples do not describe a single well-formed automaton."""


class UnknownTransition(MixdiagError):
    """An anomaly points at a transition the graph does not contain."""


def _label_hash(label: str) -> str:
    return hashlib.sha256(label.encode("utf-8")).hexdigest()[:8]


def state_iri(state_id: int) -> Iri:
    return iri(f"ex:TA_s_{state_id}")


def transition_iri(source: int, event_label: str, target: int) -> Iri:
    return iri(f"ex:TA_t_{source}_{_label_hash(event_label)}_{target}")


def event_iri(event_label: str) -> Iri:
    return iri(f"ex:TA_e_{_label_hash(event_label)}")


def annotate_automaton(
    automaton: TimedAutomaton,
    equipment_map: Mapping[int, Iri] | None = None,
) -> list[Triple]:
    """Emit the automaton as graph triples.

    ``equipment_map`` links state ids to equipment individuals; partial maps
    are fine.  Transitions inherit the equipment of their source state,
    which is the state whose dwell time they measure.
    """
    equipment_map = dict(equipment_map or {})
    unknown = set(equipment_map) - set(automaton.states)
    if unknown:
        raise MixdiagError(f"equipment map references unknown states {sorted(unknown)}")

    triples: list[Triple] = [
        Triple(EX_MACHINE, RDF_TYPE, SM_STATE_MACHINE),
        Triple(SM_STATE_MACHINE, RDFS_SUBCLASS_OF, ISO_DIAGNOSTIC_MODEL),
    ]
    for state in automaton.states.values():
        s = state_iri(state.id)
        triples.append(Triple(EX_MACHINE, SM_HAS_STATE, s))
        triples.append(Triple(s, RDF_TYPE, SM_STATE))
        triples.append(Triple(s, EX_STATE_INDEX, Literal.integer(state.id)))
        triples.append(Triple(s, SM_IS_INITIAL, Literal.boolean(state.is_initial)))
        for aid, value in state.vector.signals:
            lexical = f"{aid}={'true' if value else 'false'}"
            triples.append(Triple(s, EX_SIGNAL_VALUE, Literal.string(lexical)))
        equipment = equipment_map.get(state.id)
        if equipment is not None:
            triples.append(Triple(s, ISA_RELATES_TO_EQUIPMENT, equipment))
    for t in automaton.transitions.values():
        tr = transition_iri(t.source, t.event_label, t.target)
        ev = event_iri(t.event_label)
        triples.append(Triple(EX_MACHINE, SM_HAS_TRANSITION, tr))
        triples.append(Triple(tr, RDF_TYPE, SM_TRANSITION))
        triples.append(Triple(tr, SM_SOURCE, state_iri(t.source)))
        triples.append(Triple(tr, SM_TARGET, state_iri(t.target)))
        triples.append(Triple(tr, SM_ON_EVENT, ev))
        triples.append(Triple(ev, RDF_TYPE, SM_EVENT))
        triples.append(Triple(ev, RDFS_LABEL, Literal.string(t.event_label)))
        triples.append(Triple(tr, EX_T_MIN, Literal.double(t.t_min_s)))
        triples.append(Triple(tr, EX_T_MAX, Literal.double(t.t_max_s)))
        triples.append(Triple(tr, EX_MEAN, Literal.double(t.mean_s)))
        triples.append(Triple(tr, EX_M2, Literal.double(t.m2_s2)))
        triples.append(Triple(tr, EX_COUNT, Literal.integer(t.count)))
        equipment = equipment_map.get(t.source)
        if equipment is not None:
            triples.append(Triple(tr, ISA_RELATES_TO_EQUIPMENT, equipment))
    return triples


def _index(triples: Iterable[Triple]):
    by_subject: dict[Iri, dict[Iri, list]] = {}
    for t in triples:
        by_subject.setdefault(t.subject, {}).setdefault(t.predicate, []).append(t.object)
    return by_subject


def _one(props: Mapping, predicate: Iri, subject: Iri):
    values = props.get(predicate, [])
    if len(values) != 1:
        raise MalformedAnnotation(
            f"{subject} needs exactly one {predicate}, found {len(values)}"
        )
    return values[0]


def rebuild_automaton(triples: Iterable[Triple]) -> TimedAutomaton:
    """Invert :func:`annotate_automaton`.

    The triples must contain exactly one state machine with a consistent
    state and transition set.
    """
    triples = list(triples)
    by_subject = _index(triples)
    machines = [
        s
        for s, props in by_subject.items()
        if SM_STATE_MACHINE in props.get(RDF_TYPE, [])
    ]
    if len(machines) != 1:
        raise MalformedAnnotation(f"expected exactly one state machine, found {len(machines)}")
    machine_props = by_subject[machines[0]]

    id_by_iri: dict[Iri, int] = {}
    states: list[State] = []
    for s in machine_props.get(SM_HAS_STATE, []):
        props = by_subject.get(s, {})
        index_lit = _one(props, EX_STATE_INDEX, s)
        initial_lit = _one(props, SM_IS_INITIAL, s)
        signals: dict[str, bool] = {}
        for value in props.get(EX_SIGNAL_VALUE, []):
            if not isinstance(value, Literal) or "=" not in value.lexical:
                raise MalformedAnnotation(f"{s}: bad signal literal {value}")
            aid, _, flag = value.lexical.partition("=")
            signals[aid] = flag == "true"
        if not signals:
            raise MalformedAnnotation(f"{s}: state has no signal literals")
        try:
            sid = int(index_lit.lexical)
        except (AttributeError, ValueError):
            raise MalformedAnnotation(f"{s}: bad state index {index_lit}") from None
        states.append(
            State(sid, ActuatorVector.from_mapping(signals), initial_lit.lexical == "true")
        )
        id_by_iri[s] = sid

    transitions: list[Transition] = []
    labels: set[str] = set()
    for tr in machine_props.get(SM_HAS_TRANSITION, []):
        props = by_subject.get(tr, {})
        source = _one(props, SM_SOURCE, tr)
        target = _one(props, SM_TARGET, tr)
        event = _one(props, SM_ON_EVENT, tr)
        if source not in id_by_iri or target not in id_by_iri:
            raise MalformedAnnotation(f"{tr}: source or target is not a state of the machine")
        event_props = by_subject.get(event, {})
        label_lit = _one(event_props, RDFS_LABEL, event)
        try:
            transition = Transition(
                id_by_iri[source],
                label_lit.lexical,
                id_by_iri[target],
                float(_one(props, EX_T_MIN, tr).lexical),
                float(_one(props, EX_T_MAX, tr).lexical),
                float(_one(props, EX_MEAN, tr).lexical),
                float(_one(props, EX_M2, tr).lexical),
                int(_one(props, EX_COUNT, tr).lexical),
            )
        except (AttributeError, ValueError) as exc:
            raise MalformedAnnotation(f"{tr}: bad timing literal: {exc}") from None
        transitions.append(transition)
        labels.add(label_lit.lexical)

    try:
        return _from_parts(states, transitions, labels)
    except ValueError as exc:
        raise MalformedAnnotation(str(exc)) from None


def anomaly_iri(index: int) -> Iri:
    return iri(f"ex:anomaly_{index}")


def annotate_anomalies(
    anomalies: list[Anomaly], automaton_graph: Iterable[Triple]
) -> list[Triple]:
    """Emit symptom individuals for detected anomalies.

    Timing anomalies must reference a transition already present in
    ``automaton_graph``; behavior anomalies (unknown event or state) carry
    no transition link.
    """
    known_transitions = {
        t.subject for t in automaton_graph if t.predicate == RDF_TYPE and t.object == SM_TRANSITION
    }
    triples: list[Triple] = []
    for index, anomaly in enumerate(anomalies):
        a = anomaly_iri(index)
        triples.append(Triple(a, RDF_TYPE, ISO_SYMPTOM))
        triples.append(Triple(a, EX_ANOMALY_KIND, Literal.string(anomaly.kind)))
        triples.append(Triple(a, EX_AT_TIME, Literal.double(anomaly.at_t_s)))
        if anomaly.kind in TIMING_KINDS:
            triples.append(Triple(a, RDF_TYPE, EX_TIMING_ANOMALY))
            tr = transition_iri(anomaly.source_state, anomaly.event_label, anomaly.target_state)
            if tr not in known_transitions:
                raise UnknownTransition(f"anomaly {index}: transition {tr} not in graph")
            triples.append(Triple(a, ISO_LOCATED_AT, tr))
            triples.append(Triple(a, EX_OBSERVED_DWELL, Literal.double(anomaly.observed_dwell_s)))
            triples.append(Triple(a, EX_BOUND, Literal.double(anomaly.bound_s)))
            triples.append(Triple(a, EX_DEVIATION, Literal.double(anomaly.deviation_s)))
        else:
            triples.append(Triple(a, RDF_TYPE, EX_BEHAVIOR_ANOMALY))
    return triples
