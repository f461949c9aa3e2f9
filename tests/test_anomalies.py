"""Detection against the learned envelope."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from mixdiag.anomalies import (
    Anomaly,
    DetectionSettings,
    TIMING_ABOVE_MAX,
    TIMING_BELOW_MIN,
    UNKNOWN_EVENT,
    UNKNOWN_STATE,
    anomalies_from_json,
    anomalies_to_json,
    detect,
)
from mixdiag.errors import ParseError
from mixdiag.events import ActuatorVector, Event, EventTrace, TraceStep, to_trace

from conftest import state_by_active

ZERO_TOL = DetectionSettings(abs_tol_s=0.0, rel_tol=0.0)


def plant_vec(config, *active):
    ids = config.actuator_ids()
    return ActuatorVector.from_mapping({a: a in active for a in ids})


def test_tolerance_is_max_of_absolute_and_relative():
    s = DetectionSettings()
    assert s.tolerance_for(1.0) == 0.5       # absolute floor dominates
    assert s.tolerance_for(30.0) == 3.0      # 10 percent dominates
    assert ZERO_TOL.tolerance_for(30.0) == 0.0


def test_replaying_training_traces_is_clean(automaton, cycle_traces):
    for trace in cycle_traces:
        assert detect(automaton, trace, ZERO_TOL) == []


def test_blockage_yields_exactly_one_above_max(automaton, config, blockage_log):
    trace = to_trace(blockage_log, config)
    found = detect(automaton, trace)
    assert len(found) == 1
    a = found[0]
    assert a.kind == TIMING_ABOVE_MAX
    assert a.event_label == "P201↓,V205↑"
    assert a.observed_dwell_s == 60.0
    assert a.bound_s == 30.0
    assert a.deviation_s == pytest.approx(30.0, abs=0.2)
    assert a.source_state == state_by_active(automaton, "P201")
    assert a.target_state == state_by_active(automaton, "V205")


def test_leakage_yields_dose1_above_max(automaton, config, leakage_log):
    trace = to_trace(leakage_log, config)
    found = detect(automaton, trace)
    dose1 = [a for a in found if a.event_label == "V201↓,V202↑"]
    assert len(dose1) == 1
    a = dose1[0]
    assert a.kind == TIMING_ABOVE_MAX
    assert a.observed_dwell_s == pytest.approx(25.0, abs=0.2)
    assert a.bound_s == 20.0
    assert a.deviation_s == pytest.approx(5.0, abs=0.2)


def test_leakage_also_shortens_transfer_below_min(automaton, config, leakage_log):
    trace = to_trace(leakage_log, config)
    kinds = {(a.kind, a.event_label) for a in detect(automaton, trace)}
    assert (TIMING_BELOW_MIN, "P201↓,V205↑") in kinds


def test_anomalies_come_out_in_time_order(automaton, config, leakage_log):
    found = detect(automaton, to_trace(leakage_log, config))
    assert [a.at_t_s for a in found] == sorted(a.at_t_s for a in found)


def test_below_min_deviation_uses_raw_bound(automaton, config):
    # synthetic: leave Idle after only 2 s against a learned min of 5 s
    idle = automaton.initial_state().vector
    dose1 = plant_vec(config, "V201")
    trace = EventTrace(idle, (TraceStep(Event("V201↑", 2.0), dose1, 2.0),))
    found = detect(automaton, trace, ZERO_TOL)
    assert len(found) == 1
    a = found[0]
    assert a.kind == TIMING_BELOW_MIN
    assert a.bound_s == 5.0
    assert a.deviation_s == pytest.approx(3.0, abs=1e-9)


def test_tolerance_gates_emission_but_not_deviation(automaton, config):
    idle = automaton.initial_state().vector
    dose1 = plant_vec(config, "V201")
    trace = EventTrace(idle, (TraceStep(Event("V201↑", 5.4), dose1, 5.4),))
    # within max(0.5, 0.5) tolerance: suppressed
    assert detect(automaton, trace) == []
    # with zero tolerance the same dwell is reported, deviation vs raw bound
    found = detect(automaton, trace, ZERO_TOL)
    assert len(found) == 1
    assert found[0].deviation_s == pytest.approx(0.4, abs=1e-9)


def test_unknown_state_reported_once_then_resynced(automaton, config):
    idle = automaton.initial_state().vector
    dose1 = plant_vec(config, "V201")
    weird = plant_vec(config, "V201", "M201")  # never seen in training
    trace = EventTrace(
        idle,
        (
            TraceStep(Event("V201↑", 5.0), dose1, 5.0),
            TraceStep(Event("M201↑", 6.0), weird, 1.0),
            TraceStep(Event("M201↓", 7.0), dose1, 1.0),
            # after resync the remaining dwell is exactly nominal again
            TraceStep(Event("V201↓,V202↑", 27.0), plant_vec(config, "V202"), 20.0),
        ),
    )
    found = detect(automaton, trace, ZERO_TOL)
    assert [a.kind for a in found] == [UNKNOWN_STATE]
    assert found[0].event_label == "M201↑"
    assert found[0].at_t_s == 6.0
    assert found[0].target_state is None


def test_unknown_event_between_known_states(automaton, config):
    idle = automaton.initial_state().vector
    dose3 = plant_vec(config, "V203")
    trace = EventTrace(
        idle,
        (TraceStep(Event("V203↑", 5.0), dose3, 5.0),),  # skips two dose states
    )
    found = detect(automaton, trace, ZERO_TOL)
    assert [a.kind for a in found] == [UNKNOWN_EVENT]
    assert found[0].source_state == automaton.initial_state().id
    # the resulting vector is a known state, so detection resynchronizes there
    assert found[0].target_state == state_by_active(automaton, "V203")


def test_unknown_initial_vector(automaton, config):
    weird = plant_vec(config, "M201", "P201")
    dose1 = plant_vec(config, "V201")
    trace = EventTrace(weird, (TraceStep(Event("M201↓,P201↓,V201↑", 4.0), dose1, 4.0),))
    found = detect(automaton, trace, ZERO_TOL)
    assert found[0].kind == UNKNOWN_STATE
    assert found[0].at_t_s == 0.0
    assert found[0].source_state is None


def test_known_but_noninitial_start_is_accepted(automaton, config):
    # a trace that starts mid-cycle at the Mix state
    mix = plant_vec(config, "M201")
    transfer = plant_vec(config, "P201")
    trace = EventTrace(mix, (TraceStep(Event("M201↓,P201↑", 10.0), transfer, 10.0),))
    assert detect(automaton, trace, ZERO_TOL) == []


def test_detect_requires_matching_actuator_sets(automaton):
    other = EventTrace(
        ActuatorVector.from_mapping({"Q1": False}),
        (TraceStep(Event("Q1↑", 1.0), ActuatorVector.from_mapping({"Q1": True}), 1.0),),
    )
    with pytest.raises(ValueError):
        detect(automaton, other)


@settings(max_examples=30, deadline=None)
@given(
    abs_tol=st.floats(min_value=0.0, max_value=5.0),
    rel_tol=st.floats(min_value=0.0, max_value=0.5),
)
def test_larger_tolerance_never_adds_anomalies(
    automaton, config, leakage_log, abs_tol, rel_tol
):
    trace = to_trace(leakage_log, config)
    loose = detect(automaton, trace, DetectionSettings(abs_tol, rel_tol))
    tight = detect(automaton, trace, ZERO_TOL)
    tight_keys = {(a.kind, a.event_label, a.at_t_s) for a in tight}
    loose_keys = {(a.kind, a.event_label, a.at_t_s) for a in loose}
    assert loose_keys <= tight_keys


def test_json_round_trip(automaton, config, leakage_log):
    found = detect(automaton, to_trace(leakage_log, config))
    text = anomalies_to_json(found)
    assert anomalies_from_json(text) == found
    assert anomalies_to_json(anomalies_from_json(text)) == text


def test_json_round_trip_handles_missing_fields():
    # the empty label is how detect reports a trace that starts in an unknown state
    found = [Anomaly(UNKNOWN_STATE, "", 0.0), Anomaly(UNKNOWN_STATE, "x↑", 1.5)]
    text = anomalies_to_json(found)
    assert anomalies_from_json(text) == found


def anomaly_doc(**fields):
    a = {
        "kind": "TimingAboveMax",
        "event_label": "P201↑",
        "at_t_s": 1.5,
        "source_state": 1,
        "target_state": 2,
        "observed_dwell_s": 9,
        "bound_s": 5.0,
        "deviation_s": 4.0,
    }
    return json.dumps({"anomalies": [{**a, **fields}]})


def test_json_accepts_integral_dwell_fields():
    [a] = anomalies_from_json(anomaly_doc())
    assert (a.source_state, a.target_state, a.observed_dwell_s) == (1, 2, 9)


@pytest.mark.parametrize(
    "fields",
    [
        {"kind": "TimingAboveMin"},
        {"kind": "timingabovemax"},
        {"source_state": "zz"},
        {"source_state": "1"},
        {"target_state": 2.5},
        {"target_state": True},
        {"at_t_s": float("nan")},
        {"at_t_s": "inf"},
        {"at_t_s": 10**400},
        {"observed_dwell_s": float("nan")},
        {"bound_s": float("inf")},
        {"deviation_s": float("-inf")},
        {"observed_dwell_s": "9.0"},
        {"at_t_s": True},
        {"at_t_s": "135.0"},
        {"event_label": "garbage"},
        {"event_label": 7},
        {"event_label": "P201↑,P201↓"},
        {"event_label": ""},
    ],
)
def test_json_rejects_bad_anomaly_fields(fields):
    with pytest.raises(ParseError):
        anomalies_from_json(anomaly_doc(**fields))
