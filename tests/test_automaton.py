"""Timed-automaton learning, updating, convergence, serialization."""

import json
import math
import statistics

import pytest
from hypothesis import example, given, settings, strategies as st

import mixdiag.automaton as automaton_module
from mixdiag.automaton import (
    DeterminismViolation,
    InconsistentTraces,
    InvalidDwell,
    InvalidWindow,
    TimedAutomaton,
    Transition,
    deserialize,
    learn,
    serialize,
)
from mixdiag.errors import MixdiagError, ParseError
from mixdiag.events import (
    ActuatorVector,
    EventTrace,
    TraceStep,
    parse_label,
    split_cycles,
    to_trace,
)
from mixdiag.plant import simulate

from conftest import state_by_active


def vec(**kwargs):
    base = {"x": False, "y": False}
    base.update(kwargs)
    return ActuatorVector.from_mapping(base)


def stddev_s(t: Transition) -> float:
    """Population standard deviation of a transition's dwells (Welford)."""
    return (t.m2_s2 / t.count) ** 0.5 if t.count else 0.0


def state_set(a: TimedAutomaton) -> set:
    return {(s.vector.signals, s.is_initial) for s in a.states.values()}


def transition_stats(a: TimedAutomaton) -> dict:
    """Structure keyed by (source vector, label), independent of the
    numeric state ids assigned during learning."""
    return {
        (a.states[t.source].vector.signals, t.event_label): (
            a.states[t.target].vector.signals,
            t.t_min_s,
            t.t_max_s,
            t.mean_s,
            t.m2_s2,
            t.count,
        )
        for t in a.transitions.values()
    }


def flip_flop_trace(dwells):
    """x toggles on/off with the given dwell before each toggle."""
    steps = []
    t = 0.0
    on = False
    for dwell in dwells:
        t += dwell
        on = not on
        label = "x↑" if on else "x↓"
        steps.append(TraceStep(label, t, vec(x=on), dwell))
    return EventTrace(vec(), tuple(steps))


# ---------------------------------------------------------------------------
# learning the plant


def test_learns_seven_states_and_seven_transitions(automaton):
    assert len(automaton.states) == 7
    assert len(automaton.transitions) == 7


def test_single_cycle_structure(automaton):
    outgoing = {t.source for t in automaton.transitions.values()}
    incoming = {t.target for t in automaton.transitions.values()}
    assert outgoing == incoming == set(automaton.states)
    # walking from the initial state returns to it after exactly 7 hops
    by_source = {t.source: t for t in automaton.transitions.values()}
    state = automaton.initial_state().id
    seen = []
    for _ in range(7):
        seen.append(state)
        state = by_source[state].target
    assert state == automaton.initial_state().id
    assert len(set(seen)) == 7


def test_exactly_one_initial_state(automaton):
    initials = [s for s in automaton.states.values() if s.is_initial]
    assert len(initials) == 1
    assert initials[0].vector.active() == ()


def test_learned_bounds_match_nominal_dwells(automaton):
    stats = {t.event_label: t for t in automaton.transitions.values()}
    expected = {
        "V201↑": 5.0,
        "V201↓,V202↑": 20.0,
        "V202↓,V203↑": 20.0,
        "M201↑,V203↓": 20.0,
        "M201↓,P201↑": 10.0,
        "P201↓,V205↑": 30.0,
        "V205↓": 20.0,
    }
    assert set(stats) == set(expected)
    for label, dwell in expected.items():
        t = stats[label]
        assert t.t_min_s == t.t_max_s == t.mean_s == dwell
        assert t.count == 10
        assert stddev_s(t) == pytest.approx(0.0, abs=1e-12)


def test_transfer_state_identity(automaton):
    transfer = state_by_active(automaton, "P201")
    drain = state_by_active(automaton, "V205")
    by_source = {t.source: t for t in automaton.transitions.values()}
    assert by_source[transfer].target == drain
    assert by_source[transfer].event_label == "P201↓,V205↑"


# ---------------------------------------------------------------------------
# online updates


def test_update_creates_states_and_tracks_stats():
    a = TimedAutomaton(vec())
    s1 = a.update(0, "x↑", vec(x=True), 2.0)
    assert s1 == 1
    s0 = a.update(s1, "x↓", vec(), 3.0)
    assert s0 == 0
    assert len(a.states) == 2
    a.update(0, "x↑", vec(x=True), 4.0)
    t = a.transitions[(0, "x↑")]
    assert (t.t_min_s, t.t_max_s) == (2.0, 4.0)
    assert t.mean_s == 3.0
    assert t.count == 2


def test_update_rejects_nonpositive_dwell():
    a = TimedAutomaton(vec())
    for dwell in (0.0, -1.0):
        with pytest.raises(InvalidDwell):
            a.update(0, "x↑", vec(x=True), dwell)


@pytest.mark.parametrize("dwell", [float("nan"), float("inf")])
def test_update_rejects_non_finite_dwell(dwell):
    a = TimedAutomaton(vec())
    with pytest.raises(InvalidDwell):
        a.update(0, "x↑", vec(x=True), dwell)


def test_update_rejects_unknown_state():
    a = TimedAutomaton(vec())
    with pytest.raises(MixdiagError):
        a.update(5, "x↑", vec(x=True), 1.0)


def test_update_rejects_label_vector_mismatch():
    a = TimedAutomaton(vec())
    with pytest.raises(DeterminismViolation):
        a.update(0, "x↑", vec(y=True), 1.0)


def test_update_rejects_label_that_does_not_flip():
    a = TimedAutomaton(vec())
    with pytest.raises(DeterminismViolation):
        a.update(0, "x↓", vec(), 1.0)  # x is already off


def test_update_rejects_unknown_actuator_in_label():
    a = TimedAutomaton(vec())
    with pytest.raises(MixdiagError):
        a.update(0, "z↑", vec(), 1.0)


def test_welford_stats_match_statistics_module():
    dwells_up = [2.0, 3.5, 2.5, 4.0, 3.0]
    dwells_down = [1.0, 1.5]
    sequence = []
    for up, down in zip(dwells_up, dwells_down + [1.2, 0.9, 1.1]):
        sequence.extend([up, down])
    a = TimedAutomaton(vec())
    state = 0
    on = False
    for dwell in sequence:
        on = not on
        state = a.update(state, "x↑" if on else "x↓", vec(x=on), dwell)
    up = a.transitions[(0, "x↑")]
    ups = sequence[0::2]
    assert up.mean_s == pytest.approx(statistics.fmean(ups), abs=1e-12)
    assert stddev_s(up) == pytest.approx(statistics.pstdev(ups), abs=1e-12)
    assert up.t_min_s == min(ups) and up.t_max_s == max(ups)


@settings(max_examples=40, deadline=None)
@given(
    dwells=st.lists(
        st.floats(min_value=0.01, max_value=100, allow_nan=False), min_size=2, max_size=30
    )
)
def test_welford_property(dwells):
    a = TimedAutomaton(vec())
    state = 0
    for i, dwell in enumerate(dwells):
        on = i % 2 == 0
        state = a.update(state, "x↑" if on else "x↓", vec(x=on), dwell)
    ups = dwells[0::2]
    up = a.transitions[(0, "x↑")]
    assert up.mean_s == pytest.approx(statistics.fmean(ups), rel=1e-9)
    assert stddev_s(up) == pytest.approx(statistics.pstdev(ups), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# convergence


def test_fresh_automaton_has_not_converged():
    assert not TimedAutomaton(vec()).has_converged(1, 10.0)


def test_plant_automaton_converges(cycle_traces):
    a = learn(cycle_traces)
    assert a.has_converged(7, 0.2)


def test_no_convergence_while_structure_still_grows(cycle_traces):
    a = learn(cycle_traces[:1])
    # the single cycle created new states on every update
    assert not a.has_converged(7, 1000.0)


def test_no_convergence_while_bounds_shift():
    a = TimedAutomaton(vec())
    state = 0
    # strictly growing dwells keep widening t_max
    for i, dwell in enumerate([1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 4.0, 1.0]):
        on = i % 2 == 0
        state = a.update(state, "x↑" if on else "x↓", vec(x=on), dwell)
    assert not a.has_converged(4, 0.5)
    assert a.has_converged(4, 2.0)


def test_convergence_window_validation(automaton):
    for window in (0, -1):
        with pytest.raises(InvalidWindow):
            automaton.has_converged(window, 0.1)


@pytest.mark.parametrize("epsilon", [math.nan, -0.1, -math.inf])
def test_convergence_epsilon_validation(automaton, epsilon):
    with pytest.raises(InvalidWindow, match="epsilon must be >= 0"):
        automaton.has_converged(5, epsilon)


# ---------------------------------------------------------------------------
# learn() input contracts


def test_learn_requires_traces():
    with pytest.raises(InconsistentTraces):
        learn([])


def test_learn_rejects_mismatched_actuator_sets(cycle_traces):
    other = EventTrace(vec(), (TraceStep("x↑", 1.0, vec(x=True), 1.0),))
    with pytest.raises(InconsistentTraces):
        learn([cycle_traces[0], other])


def test_learn_rejects_mismatched_initial_vectors(cycle_traces):
    first = cycle_traces[0]
    shifted = EventTrace(first.steps[0].resulting_vector, first.steps[1:])
    with pytest.raises(InconsistentTraces):
        learn([first, shifted])


def test_learning_is_order_insensitive(cycle_traces):
    forward = learn(list(cycle_traces))
    backward = learn(list(reversed(cycle_traces)))
    assert state_set(forward) == state_set(backward)
    assert transition_stats(forward) == transition_stats(backward)


def test_a_step_along_a_known_transition_checks_only_the_target_vector():
    """A step along an existing ``(state, label)`` is not re-parsed: a
    vector other than the target's raises the same DeterminismViolation as a
    new step would, and folds nothing."""
    a = TimedAutomaton(vec())
    a.update(0, "x↑", vec(x=True), 1.0)
    t = a.transitions[0, "x↑"]
    before = (t.count, t.mean_s, t.m2_s2, list(a._updates))
    with pytest.raises(
        DeterminismViolation,
        match=r"^label 'x↑' applied to state 0 does not produce the recorded vector$",
    ):
        a.update(0, "x↑", vec(x=True, y=True), 2.0)
    assert (t.count, t.mean_s, t.m2_s2, a._updates) == before


def test_learn_parses_each_label_once_per_transition(config, monkeypatch):
    """The 100-cycle log's 700 steps follow 7 transitions; only the step
    that creates a transition parses its label."""
    trace = to_trace(simulate(config, 100), config)
    parsed = []
    monkeypatch.setattr(
        automaton_module, "parse_label", lambda label: parsed.append(label) or parse_label(label)
    )
    a = learn(split_cycles(trace, trace.initial_vector))
    assert len(trace.steps) == 700
    assert len(parsed) <= len(a.transitions) == 7


def test_replaying_training_data_adds_nothing(automaton, cycle_traces):
    a = learn(cycle_traces)
    before_states = state_set(a)
    before_stats = {k: (v.t_min_s, v.t_max_s) for k, v in a.transitions.items()}
    state = a.initial_state().id
    for step in cycle_traces[0].steps:
        state = a.update(state, step.label, step.resulting_vector, step.dwell_s)
    assert state_set(a) == before_states
    assert {k: (v.t_min_s, v.t_max_s) for k, v in a.transitions.items()} == before_stats


# ---------------------------------------------------------------------------
# serialization


def test_serialize_round_trip(automaton):
    text = serialize(automaton)
    again = deserialize(text)
    assert again == automaton
    assert serialize(again) == text


TINY, HUGE = 5e-324, 1.7976931348623157e308  # the least and the greatest positive double
_dwells = st.one_of(
    st.floats(min_value=TINY, max_value=HUGE),
    st.sampled_from([TINY, 2.2250738585072014e-308, HUGE]),  # the least normal one too
)


def toggle_trace(flips):
    """A trace from x, y and z all off, each step flipping one of them
    after its dwell."""
    on, steps = dict.fromkeys("xyz", False), []
    for i, (aid, dwell) in enumerate(flips):
        on[aid] = not on[aid]
        label = aid + ("↑" if on[aid] else "↓")
        steps.append(TraceStep(label, float(i), ActuatorVector.from_mapping(on), dwell))
    return EventTrace(ActuatorVector.from_mapping(dict.fromkeys("xyz", False)), tuple(steps))


def not_json(constant):
    raise AssertionError(f"{constant} is not JSON")


@example([toggle_trace([("x", d) for d in (TINY, TINY, TINY, HUGE, HUGE, TINY, HUGE)])])
@example([toggle_trace([("x", d) for d in (HUGE, HUGE, 1e300, HUGE, 3.0, HUGE)]),
          toggle_trace([("y", TINY), ("x", HUGE)])])
@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(st.sampled_from("xyz"), _dwells), max_size=12)
                .map(toggle_trace), min_size=1, max_size=3))
def test_serialize_round_trip_property(traces):
    """Every automaton learned round-trips through standard JSON; learning
    refuses a dwell whose variance would overflow, which takes a dwell past
    the square root of the greatest double."""
    try:
        automaton = learn(traces)
    except InvalidDwell:
        assert max(step.dwell_s for trace in traces for step in trace.steps) > 1e154
        return
    text = serialize(automaton)
    json.loads(text, parse_constant=not_json)
    again = deserialize(text)
    assert again == automaton
    assert serialize(again) == text


def test_a_dwell_whose_variance_overflows_is_refused_and_changes_nothing():
    """Dwells of the greatest double and 1.0 on one transition would make
    its Welford M2 infinite, which ``serialize`` would write as
    ``Infinity``: the second raises InvalidDwell and leaves the transition
    as the first left it."""
    automaton = learn([toggle_trace([("x", HUGE), ("x", 1.0)])])
    up = automaton.transitions[0, "x↑"]
    up_vector = automaton.states[up.target].vector
    before = (up.t_min_s, up.t_max_s, up.mean_s, up.m2_s2, up.count)
    with pytest.raises(InvalidDwell, match="overflows the dwell variance"):
        automaton.update(0, "x↑", up_vector, 1.0)
    assert (up.t_min_s, up.t_max_s, up.mean_s, up.m2_s2, up.count) == before
    assert automaton.update(0, "x↑", up_vector, HUGE) == up.target
    json.loads(serialize(automaton), parse_constant=not_json)
    with pytest.raises(InvalidDwell):
        learn([toggle_trace([("x", HUGE), ("x", 1.0), ("x", 1.0)])])


@pytest.mark.parametrize("field", ["t_min_s", "t_max_s", "mean_s", "m2_s2"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_deserialize_rejects_non_finite_timing_statistics(field, value):
    automaton = learn([toggle_trace([("x", HUGE), ("x", 1.0)])])
    doc = json.loads(serialize(automaton))
    doc["transitions"][0][field] = value  # written as Infinity or NaN
    with pytest.raises(ParseError, match="not finite"):
        deserialize(json.dumps(doc))


def test_serialize_is_canonical(automaton, cycle_traces):
    assert serialize(automaton) == serialize(learn(list(reversed(cycle_traces))))


def test_deserialize_rejects_bad_json():
    with pytest.raises(ParseError):
        deserialize("{broken")


def test_deserialize_rejects_empty_states():
    with pytest.raises(ParseError):
        deserialize('{"states": [], "transitions": [], "alphabet": []}')


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"event_label": "q↑"}, "references unknown actuator 'q'"),
        ({"event_label": "x↓"}, "does not flip 'x' in state 0"),
        ({"target": 0}, "does not take state 0 to state 0"),
    ],
)
def test_deserialize_rejects_a_label_that_does_not_lead_to_the_target(edit, message):
    """Each transition's label must take its source's vector to its
    target's, which a step along it relies on: a hand-edited document whose
    ``x↑`` transition names an unknown actuator, flips nothing or loops back
    to its source is refused on loading."""
    doc = json.loads(serialize(learn([toggle_trace([("x", 1.0), ("x", 2.0)])])))
    up = next(t for t in doc["transitions"] if t["event_label"] == "x↑")
    up.update(edit)
    doc["alphabet"] = sorted({t["event_label"] for t in doc["transitions"]})
    with pytest.raises(ParseError, match=message):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_inconsistent_stats(automaton):
    import json

    doc = json.loads(serialize(automaton))
    doc["transitions"][0]["mean_s"] = 1e9  # outside [t_min, t_max]
    with pytest.raises(ParseError):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize("field", ["count", "source", "target"])
def test_deserialize_rejects_infinite_integer_fields(automaton, field):
    import json

    doc = json.loads(serialize(automaton))
    doc["transitions"][0][field] = float("inf")  # written as Infinity
    with pytest.raises(ParseError, match="bad automaton document"):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_duplicate_state_ids(automaton):
    import json

    doc = json.loads(serialize(automaton))
    doc["states"].append(doc["states"][0])
    with pytest.raises(ParseError):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_two_initial_states(automaton):
    import json

    doc = json.loads(serialize(automaton))
    doc["states"][1]["is_initial"] = True
    with pytest.raises(ParseError):
        deserialize(json.dumps(doc))
