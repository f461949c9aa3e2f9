"""Simulator behavior: exact phase timing, mass conservation, determinism."""

import gc
import json
import logging
import math
import sys
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from mixdiag import plant
from mixdiag.cli import main
from mixdiag.errors import ParseError
from mixdiag.events import _parse_rows, parse_log, to_trace
from mixdiag.pipeline import SCENARIOS
from mixdiag.plant import (
    ConfigError,
    FaultSpec,
    InvalidRecord,
    LevelReached,
    PhaseUnreachable,
    PlantConfig,
    SimulationLog,
    Tank,
    TimerElapsed,
    VolumeTransferred,
    config_from_json,
    config_to_json,
    default_config,
    format_timestamp,
    simulate,
    write_log_csv,
)

NOMINAL_DWELLS = {
    "V201↑": 5.0,            # Idle exit
    "V201↓,V202↑": 20.0,     # Dose1
    "V202↓,V203↑": 20.0,     # Dose2
    "M201↑,V203↓": 20.0,     # Dose3
    "M201↓,P201↑": 10.0,     # Mix
    "P201↓,V205↑": 30.0,     # Transfer
    "V205↓": 20.0,           # Drain
}


def test_nominal_cycle_has_exact_closed_form_dwells(config):
    log = simulate(config, 1, (), 0)
    trace = to_trace(log, config)
    assert [s.label for s in trace.steps] == list(NOMINAL_DWELLS)
    for step in trace.steps:
        assert step.dwell_s == NOMINAL_DWELLS[step.label]
    # one full batch takes 125 s
    assert trace.steps[-1].t_s == 125.0


def test_each_phase_has_a_distinct_actuator_vector(config):
    vectors = [tuple(sorted(p.actuator_vector.items())) for p in config.phases]
    assert len(set(vectors)) == len(config.phases) == 7


def test_blockage_halves_transfer_rate(config):
    log = simulate(config, 1, (FaultSpec("blockage", "P201", 0.5),), 0)
    trace = to_trace(log, config)
    dwells = {s.label: s.dwell_s for s in trace.steps}
    assert dwells["P201↓,V205↑"] == 60.0
    # every other phase keeps its nominal duration
    for label, nominal in NOMINAL_DWELLS.items():
        if label != "P201↓,V205↑":
            assert dwells[label] == nominal


def test_leakage_slows_dosing_and_speeds_transfer(config):
    log = simulate(config, 1, (FaultSpec("leakage", "B204", 0.02),), 0)
    trace = to_trace(log, config)
    dwells = {s.label: s.dwell_s for s in trace.steps}
    # dosing at 0.1 L/s against a 0.02 L/s leak: net 0.08 L/s over 2 L
    assert dwells["V201↓,V202↑"] == 25.0
    # transfer drains a tank that lost volume to the leak, so it ends early
    assert dwells["P201↓,V205↑"] < 30.0


@settings(max_examples=25, deadline=None)
@given(multiplier=st.floats(min_value=0.15, max_value=0.95))
def test_blockage_transfer_dwell_matches_rate_arithmetic(multiplier):
    config = default_config()
    log = simulate(config, 1, (FaultSpec("blockage", "P201", multiplier),), 0)
    trace = to_trace(log, config)
    dwell = {s.label: s.dwell_s for s in trace.steps}["P201↓,V205↑"]
    assert dwell >= 30.0
    # 6 L moved in integer-microliter steps of round(0.2*m*0.1 s) each
    step_ul = round(0.2 * multiplier * 0.1 * 1_000_000)
    exact = math.ceil(6_000_000 / step_ul) * 0.1
    assert dwell == pytest.approx(exact, abs=1e-9)
    # and the continuous-rate closed form is never off by more than one
    # step plus the sub-microliter rate quantization
    assert abs(dwell - 6.0 / (0.2 * multiplier)) <= 0.1 + dwell / step_ul


def test_stronger_blockage_never_shortens_transfer(config):
    dwells = []
    for multiplier in (0.8, 0.5, 0.3, 0.15):
        log = simulate(config, 1, (FaultSpec("blockage", "P201", multiplier),), 0)
        trace = to_trace(log, config)
        dwells.append({s.label: s.dwell_s for s in trace.steps}["P201↓,V205↑"])
    assert dwells == sorted(dwells)


def test_mass_balance_is_exact_per_step(config):
    previous_total = sum(t.initial_l for t in config.tanks)
    worst = 0.0
    steps = 0

    def audit(t_s, levels, inflow, outflow, leaked):
        nonlocal previous_total, worst, steps
        total = sum(levels.values())
        worst = max(worst, abs(total - (previous_total + inflow - outflow - leaked)))
        previous_total = total
        steps += 1

    simulate(config, 10, (), 42, on_step=audit)
    assert steps > 10_000
    assert worst <= 1e-9


def test_mass_balance_holds_under_faults(config):
    previous_total = sum(t.initial_l for t in config.tanks)
    worst = 0.0

    def audit(t_s, levels, inflow, outflow, leaked):
        nonlocal previous_total, worst
        total = sum(levels.values())
        worst = max(worst, abs(total - (previous_total + inflow - outflow - leaked)))
        previous_total = total

    faults = (FaultSpec("leakage", "B204", 0.02), FaultSpec("blockage", "P201", 0.5))
    simulate(config, 2, faults, 42, on_step=audit)
    assert worst <= 1e-9


def test_levels_stay_within_tank_bounds(config):
    capacities = {t.id: t.capacity_l for t in config.tanks}

    def audit(t_s, levels, inflow, outflow, leaked):
        for tank_id, level in levels.items():
            assert 0.0 <= level <= capacities[tank_id] + 1e-12

    simulate(config, 3, (), 0, on_step=audit)


def test_sensor_records_come_every_second_and_start_at_zero(config):
    log = simulate(config, 1, (), 0)
    times = sorted({t_ms / 1000 for t_ms, _, _ in log.sensor_records})
    assert times[0] == 0.0
    diffs = {round(b - a, 3) for a, b in zip(times, times[1:])}
    assert diffs == {1.0}
    per_sample = {t_ms / 1000 for t_ms, _, _ in log.sensor_records}
    n_sensors = len(config.sensors)
    assert len(log.sensor_records) == len(per_sample) * n_sensors


def test_temperature_sensor_reads_ambient(config):
    log = simulate(config, 1, (), 0)
    values = {value for _, sid, value in log.sensor_records if sid == "T201"}
    assert values == {20.0}


def test_zero_cycles_rejected(config):
    for n_cycles in (0, -1, True, 2.0):
        with pytest.raises(ConfigError):
            simulate(config, n_cycles)


def test_total_leak_makes_dosing_unreachable(config):
    # leak rate equal to the dosing inflow: the level never rises
    with pytest.raises(PhaseUnreachable) as err:
        simulate(config, 1, (FaultSpec("leakage", "B204", 0.1),))
    assert err.value.phase == "Dose1"
    assert err.value.cycle == 0


def test_fault_validation(config):
    with pytest.raises(ConfigError):
        FaultSpec("blockage", "B204", 0.5).validate(config)  # not a flow actuator
    with pytest.raises(ConfigError):
        FaultSpec("blockage", "P201", 1.5).validate(config)  # multiplier >= 1
    with pytest.raises(ConfigError):
        FaultSpec("leakage", "P201", 0.1).validate(config)  # not a tank
    with pytest.raises(ConfigError):
        FaultSpec("leakage", "B204", -0.1).validate(config)
    with pytest.raises(ConfigError):
        FaultSpec("melting", "B204", 0.1).validate(config)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "fault",
    [
        FaultSpec("leakage", "B204", NAN),
        FaultSpec("leakage", "B204", INF),
        FaultSpec("blockage", "P201", NAN),
        FaultSpec("blockage", "P201", 0.5, INF),
        FaultSpec("blockage", "P201", 0.5, NAN),
        FaultSpec("blockage", "P201", 0.5, 0.0, INF),
        FaultSpec("blockage", "P201", 0.5, 0.0, NAN),
        FaultSpec("blockage", "P201", 0.5, 1e306),  # overflows in milliseconds
    ],
    ids=repr,
)
def test_non_finite_fault_rejected(config, fault):
    with pytest.raises(ConfigError, match="must be finite"):
        fault.validate(config)
    with pytest.raises(ConfigError, match="must be finite"):
        simulate(config, 1, (fault,))


def _first_phase_ends(config, cond):
    first = replace(config.phases[0], end_condition=cond)
    return replace(config, phases=(first,) + config.phases[1:])


@pytest.mark.parametrize(
    "change",
    [
        pytest.param(lambda c: replace(c, dt_s=NAN), id="dt_s=nan"),
        pytest.param(lambda c: replace(c, dt_s=INF), id="dt_s=inf"),
        pytest.param(lambda c: replace(c, flows={**c.flows, "P201": NAN}), id="flow=nan"),
        pytest.param(lambda c: replace(c, flows={**c.flows, "P201": INF}), id="flow=inf"),
        pytest.param(
            lambda c: replace(c, tanks=(Tank("B201", INF, 8.0),) + c.tanks[1:]), id="capacity=inf"
        ),
        pytest.param(
            lambda c: replace(c, tanks=(Tank("B201", NAN, 8.0),) + c.tanks[1:]), id="capacity=nan"
        ),
        pytest.param(
            lambda c: replace(c, tanks=(Tank("B201", 10.0, NAN),) + c.tanks[1:]), id="initial=nan"
        ),
        pytest.param(lambda c: _first_phase_ends(c, TimerElapsed(NAN)), id="timer=nan"),
        pytest.param(lambda c: _first_phase_ends(c, TimerElapsed(INF)), id="timer=inf"),
        pytest.param(lambda c: _first_phase_ends(c, LevelReached("B204", NAN)), id="level=nan"),
        pytest.param(lambda c: _first_phase_ends(c, LevelReached("B204", INF)), id="level=inf"),
        pytest.param(lambda c: _first_phase_ends(c, VolumeTransferred(NAN)), id="volume=nan"),
        pytest.param(lambda c: _first_phase_ends(c, VolumeTransferred(INF)), id="volume=inf"),
    ],
)
def test_non_finite_config_rejected(config, change):
    with pytest.raises(ConfigError):
        change(config).validate()


def test_config_json_with_nan_dt_is_rejected(config):
    doc = json.loads(config_to_json(config))
    doc["dt_s"] = NAN
    with pytest.raises(ConfigError):
        config_from_json(json.dumps(doc))


def _phase_vector_as_list(doc):
    doc["phases"][0]["actuator_vector"] = list(doc["phases"][0]["actuator_vector"])


@pytest.mark.parametrize(
    "change",
    [
        pytest.param(lambda doc: doc.update(flows=[]), id="flows=[]"),
        pytest.param(_phase_vector_as_list, id="actuator_vector=[...]"),
    ],
)
def test_config_json_of_wrong_shape_is_rejected(config, change, tmp_path, capsys):
    doc = json.loads(config_to_json(config))
    change(doc)
    with pytest.raises(ParseError, match="bad plant config"):
        config_from_json(json.dumps(doc))
    path, out = tmp_path / "config.json", tmp_path / "log.csv"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "spec", ["blockage:P201:0.5:inf", "leakage:B204:nan", "blockage:P201:0.5:0:inf"]
)
def test_cli_rejects_non_finite_fault(spec, tmp_path, capsys):
    out = tmp_path / "log.csv"
    assert main(["simulate", "--cycles", "1", "--fault", spec, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("sigma", [NAN, INF, -INF, -1.0, 1e308], ids=repr)
def test_bad_noise_sigma_rejected(config, sigma, tmp_path, capsys):
    with pytest.raises(ConfigError, match="noise_sigma"):
        simulate(config, 1, noise_sigma=sigma)
    out = tmp_path / "log.csv"
    assert main(["simulate", f"--noise={sigma!r}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: noise_sigma") and "Traceback" not in err
    assert not out.exists()


def test_log_is_byte_deterministic_for_fixed_seed(config):
    a = write_log_csv(simulate(config, 2, (), 7))
    b = write_log_csv(simulate(config, 2, (), 7))
    assert a == b


def test_noise_affects_sensors_only(config):
    clean = simulate(config, 1, (), 3)
    noisy = simulate(config, 1, (), 3, noise_sigma=0.05)
    assert noisy.actuator_records == clean.actuator_records
    assert noisy.sensor_records != clean.sensor_records
    again = simulate(config, 1, (), 3, noise_sigma=0.05)
    assert again.sensor_records == noisy.sensor_records


def test_noise_zero_ignores_seed(config):
    assert write_log_csv(simulate(config, 1, (), 1)) == write_log_csv(
        simulate(config, 1, (), 99)
    )


def test_config_json_round_trip(config):
    text = config_to_json(config)
    back = config_from_json(text)
    assert back == config
    assert config_to_json(back) == text


def test_config_validation_catches_structural_errors(config):
    bad = PlantConfig(
        tanks=config.tanks + (Tank("B201", 10.0, 0.0),),
        actuators=config.actuators,
        sensors=config.sensors,
        flows=config.flows,
        phases=config.phases,
        dt_s=config.dt_s,
    )
    with pytest.raises(ConfigError):
        bad.validate()

    overfull = PlantConfig(
        tanks=(Tank("B201", 1.0, 2.0),) + config.tanks[1:],
        actuators=config.actuators,
        sensors=config.sensors,
        flows=config.flows,
        phases=config.phases,
        dt_s=config.dt_s,
    )
    with pytest.raises(ConfigError):
        overfull.validate()


def test_format_timestamp_examples():
    assert format_timestamp(5000) == "5"
    assert format_timestamp(20100) == "20.1"
    assert format_timestamp(250) == "0.25"
    assert format_timestamp(1234) == "1.234"
    assert format_timestamp(0) == "0"


@pytest.mark.parametrize("ms", [-1, -1500])
def test_format_timestamp_rejects_negative(ms):
    with pytest.raises(InvalidRecord, match="negative"):
        format_timestamp(ms)


@given(ms=st.integers(min_value=0, max_value=10_000_000))
def test_format_timestamp_round_trips_through_float(ms):
    assert float(format_timestamp(ms)) == ms / 1000.0
    assert list(plant._stamps([ms])) == [format_timestamp(ms)]  # the writer's stamps


def test_phase_cap_trips_after_ten_times_nominal(config):
    # a blockage at 0.05 stretches Transfer to 20x nominal: must trip
    with pytest.raises(PhaseUnreachable) as err:
        simulate(config, 1, (FaultSpec("blockage", "P201", 0.05),))
    assert err.value.phase == "Transfer"


def test_config_json_rejects_garbage():
    from mixdiag.errors import ParseError

    with pytest.raises(ParseError):
        config_from_json("{not json")
    with pytest.raises(ParseError):
        config_from_json(json.dumps({"tanks": []}))


def test_log_with_quoted_ids_round_trips(config):
    log = SimulationLog(
        [(0, 'V,1"a', True), (1500, 'V,1"a', False)],
        [(0, '"L",2', 0.25), (1000, '"L",2', 1e-7)],
    )
    assert parse_log(write_log_csv(log)) == log
    assert [t_ms / 1000 for t_ms, _, _ in log.actuator_records] == [0.0, 1.5]


@pytest.mark.parametrize(
    "log",
    [
        SimulationLog([(-1, "V1", True)], [(0, "L1", 1.0)]),
        SimulationLog([(0, "V1", True)], [(-1000, "L1", 1.0)]),
    ],
    ids=["actuator", "sensor"],
)
def test_negative_record_time_rejected(log):
    (record,) = [r for r in log.actuator_records + log.sensor_records if r[0] < 0]
    with pytest.raises(InvalidRecord) as err:
        write_log_csv(log)
    assert repr(record) in str(err.value)


def _simulate_counting_replays(caplog, *args, **kwargs):
    """Run ``simulate`` and return its log and the replay count it logged."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="mixdiag.plant"):
        log = simulate(*args, **kwargs)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "mixdiag.plant"]
    return log, int(line.rsplit(" ", 1)[1])


def test_repeated_nominal_cycles_are_replayed(config, caplog):
    _, replayed = _simulate_counting_replays(caplog, config, 100)
    # cycle 0 establishes the vector, cycle 1 is stored, 2..99 replay it
    assert replayed == 98
    assert "simulated 2 cycles, replayed 98" in caplog.text


def test_records_are_exact_tuples_the_collector_untracks(config, caplog):
    log, replayed = _simulate_counting_replays(caplog, config, 3)
    assert replayed == 1  # the third cycle replays the second
    text = write_log_csv(log)
    parsed = parse_log(text)
    rows = _parse_rows(text.split("\n", 1)[1], 2, None)[:2]
    samples = []
    for actuators, sensors in (
        (log.actuator_records, log.sensor_records),
        (parsed.actuator_records, parsed.sensor_records),
        rows,
    ):
        for records in (actuators, sensors):
            assert records and all(type(r) is tuple for r in records)
            samples += [records[0], records[-1]]
    gc.collect()
    assert not any(gc.is_tracked(r) for r in samples)


def test_noise_and_step_hook_disable_replay(config, caplog):
    assert _simulate_counting_replays(caplog, config, 4, noise_sigma=0.01)[1] == 0
    assert _simulate_counting_replays(caplog, config, 4, on_step=lambda *args: None)[1] == 0


def test_cycle_with_fault_onset_inside_is_simulated(config, caplog):
    # nominal cycles take 125 s; the blockage starts 15 s into the Transfer
    # phase of cycle 3, which then moves its last 3 L at half rate
    onset_s = 3 * 125.0 + 90.0
    log, replayed = _simulate_counting_replays(
        caplog, config, 6, (FaultSpec("blockage", "P201", 0.5, onset_s),)
    )
    # cycles 2 and 3 start from the nominal state, but only cycle 2 may
    # replay cycle 1; cycle 4 establishes the blocked cycle that 5 replays
    assert replayed == 2
    transfer_dwells = [
        s.dwell_s for s in to_trace(log, config).steps if s.label == "P201↓,V205↑"
    ]
    assert transfer_dwells[:3] == [30.0] * 3
    assert transfer_dwells[3] == 45.0
    assert transfer_dwells[4:] == [60.0, 60.0]


def test_replayed_records_share_one_int_per_millisecond(config):
    """A replay shifts each distinct time of its cycle once, starts from the
    int the cycle before it ended at and hands its own last one on, so, as
    in a simulated cycle, the records of one millisecond hold one int
    object, at a cycle boundary too."""
    log = simulate(config, 100)
    times = [t for records in (log.actuator_records, log.sensor_records) for t, _, _ in records]
    assert len(set(map(id, times))) == len(set(times)) == 12_501


def test_log_writer_peak_is_bounded_by_its_text(config):
    """``write_log_csv`` holds one chunk's millisecond blocks at a time, and
    the lines of each distinct block once, so what it allocates above its
    input peaks below four times the text it returns: not every line, the
    list of them and the joined text at once."""
    log = simulate(config, 100)
    gc.collect()
    tracemalloc.start()
    try:
        text = write_log_csv(log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


def test_simulation_peak_is_bounded_by_its_log_text(config):
    """A replay appends its actuator records and its sensor records at its
    start and end milliseconds only; the rest, and their shifted times, are
    built when the log's ``sensor_records`` is first read.  So what a
    100-cycle run, 98 of whose cycles replay, allocates peaks below 0.3
    times the text its log writes, though its replayed sensor records alone
    would take more than the text."""
    gc.collect()
    tracemalloc.start()
    try:
        log = simulate(config, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * len(write_log_csv(log))


def test_noisy_log_writer_peak_is_bounded_by_its_text(config):
    """A noisy log's blocks never repeat, so a memo that kept every block's
    lines would hold them all; the writer keeps the last ``_HELD`` of each
    kind, and peaks below four times its text as on a noise-free log."""
    log = simulate(config, 100, noise_sigma=0.05)
    gc.collect()
    tracemalloc.start()
    try:
        text = write_log_csv(log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


def _line_events(run, *args):
    """The Python line events that ``run(*args)`` runs."""
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run(*args)
    finally:
        sys.settrace(previous)
    return lines


def test_simulation_runs_few_python_lines_per_sensor_record(config):
    """A phase advances in stretches of steps that each move and leak as
    much, and a stretch's samples are built by maps in C, so a one-cycle
    run of each pipeline scenario, which replays nothing, runs at most 12
    Python line events per sensor record; one 100 ms step at a time it ran
    45-56.  A count of events does not depend on the host's speed."""
    for faults in SCENARIOS.values():
        records = len(simulate(config, 1, faults).sensor_records)
        assert _line_events(simulate, config, 1, faults) <= 12 * records


def test_replayed_cycles_cost_the_writer_almost_no_python(config):
    """The lines strictly inside a replay's window are its cycle's blocks,
    re-stamped with the replay's seconds by maps in C, so the Python-level
    work of a write hardly grows with replays: under half a line event per
    sensor record at 100 cycles, less than twice that for ten times the
    cycles, and under one line event per extra replay.  A count of events
    does not depend on the host's speed."""
    short, long = simulate(config, 100), simulate(config, 1000)
    assert (len(short._replays), len(long._replays)) == (98, 998)
    events = _line_events(write_log_csv, short)
    assert events < 0.5 * len(short.sensor_records)
    long_events = _line_events(write_log_csv, long)
    assert long_events < 2 * events
    assert (long_events - events) / 900 < 1


def test_only_a_replaying_run_records_its_replays(config):
    """The replay record takes no part in ``==`` or ``repr``, and a log that
    no replaying ``simulate`` built holds none: with noise or a step hook
    nothing is replayed, and a log read back, copied or built by hand has
    no replays whatever its records."""
    log = simulate(config, 3)
    assert len(log._replays) == 1
    plain = SimulationLog(log.actuator_records, log.sensor_records)
    assert plain._replays == () and log == plain and repr(log) == repr(plain)
    assert replace(log)._replays == ()
    assert parse_log(write_log_csv(log))._replays == ()
    assert simulate(config, 3, noise_sigma=0.01)._replays == ()
    assert simulate(config, 3, on_step=lambda *args: None)._replays == ()


def test_log_writer_runs_few_python_lines_per_record(config):
    """Python-level work in ``write_log_csv`` is per millisecond or per
    distinct block, not per record: the 100-cycle log's 87,507 sensor
    records, in 12,501 milliseconds, run fewer than two traced lines each.
    A count of events does not depend on the host's speed."""
    log = simulate(config, 100)
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        write_log_csv(log)
    finally:
        sys.settrace(previous)
    assert len(log.sensor_records) == 87_507
    assert lines < 2 * len(log.sensor_records)
