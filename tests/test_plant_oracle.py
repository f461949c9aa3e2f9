"""The simulator and the log writer versus their plain stepwise versions.

``simulate`` replays a cycle that starts from the same state as an earlier
one instead of integrating it again, advances a phase in stretches of
equal steps at once, and draws noise in one pass over the noise-free
run's records, and ``write_log_csv`` formats each distinct timestamp
once.  The oracles below are the versions without these
shortcuts: every cycle is integrated one step at a time and every row is
formatted on its own.  They keep their own float-second records and
timestamp formatting, so they do not share the integer-millisecond record
type they check.  Equal records and byte-equal CSV on random runs, faults
that start and end on, near and inside cycle boundaries included, are
strong evidence the shortcuts preserve the log.

``write_log_csv`` builds each line from cached pieces and joins them a
chunk of sensor records at a time.  ``head_write_log_csv`` is the writer it
replaced, ``csv.writer`` over sorted rows, and the two must agree byte for
byte on any log, hand-built ones with quoted ids, tied records and signed
zeros included, at any chunk size.

A simulated log also records its replays, and ``write_log_csv`` writes
the lines inside each replay's window from its stored cycle's blocks,
re-stamped with the replay's seconds.
The same records in a log without that record take the path above, and
both must write the same text.  Until its ``sensor_records`` is read, a
simulated log holds only the sensor records outside its replays' windows;
such a log, and its copies and pickles, must write, trace and compare as
the records of the same run taken step by step.
"""

import copy
import csv
import io
import math
import pickle
import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Mapping

from hypothesis import example, given, settings, strategies as st

from mixdiag import plant
from mixdiag.config import (
    Actuator,
    EndCondition,
    _UL_PER_L,
    FaultSpec,
    LevelReached,
    Phase,
    PlantConfig,
    TimerElapsed,
    VolumeTransferred,
    _ul,
)
from mixdiag.events import to_trace
from mixdiag.plant import (
    AMBIENT_TEMPERATURE_C,
    LOG_HEADER,
    PhaseUnreachable,
    _prepare_fault,
    default_config,
    simulate,
    write_log_csv,
)

# ---------------------------------------------------------------------------
# the oracles


@dataclass(frozen=True)
class ActuatorRecord:
    t_s: float
    actuator_id: str
    value: bool


@dataclass(frozen=True)
class SensorRecord:
    t_s: float
    sensor_id: str
    value: float


@dataclass
class SimulationLog:
    actuator_records: list[ActuatorRecord]
    sensor_records: list[SensorRecord]


def format_timestamp(t_s: float) -> str:
    """Render a timestamp with at most three fractional digits."""
    ms = round(t_s * 1000)
    whole, frac = divmod(ms, 1000)
    if frac == 0:
        return str(whole)
    return f"{whole}.{frac:03d}".rstrip("0")


def _phase_cap_and_direction(
    phase: Phase,
    levels_ul: Mapping[str, int],
    config: PlantConfig,
    active: list[Actuator],
    dt_ms: int,
    cycle: int,
) -> tuple[int, int]:
    """Return (cap in steps, level direction) for a freshly entered phase.

    Direction is +1/-1 for a rising/falling LevelReached target, 0 when the
    level already sits on the target (or for non-level conditions).
    """
    cond = phase.end_condition
    direction = 0
    if isinstance(cond, TimerElapsed):
        nominal_s = cond.seconds
    elif isinstance(cond, LevelReached):
        start_ul = levels_ul[cond.tank]
        target_ul = _ul(cond.liters)
        if start_ul == target_ul:
            return 1, 0
        direction = 1 if start_ul < target_ul else -1
        net = sum(config.flows.get(a.id, 0.0) for a in active if a.to_tank == cond.tank)
        net -= sum(config.flows.get(a.id, 0.0) for a in active if a.from_tank == cond.tank)
        toward = net * direction
        if toward <= 0:
            raise PhaseUnreachable(phase.name, cycle, "no net flow toward target level")
        nominal_s = abs(target_ul - start_ul) / _UL_PER_L / toward
    else:
        rate = sum(config.flows.get(a.id, 0.0) for a in active)
        if rate <= 0:
            raise PhaseUnreachable(phase.name, cycle, "no active flow for volume target")
        nominal_s = cond.liters / rate
    cap = max(1, math.ceil(nominal_s * 10_000 / dt_ms))
    return cap, direction


def _condition_met(
    cond: EndCondition,
    levels_ul: Mapping[str, int],
    steps: int,
    dt_ms: int,
    transferred_ul: int,
    direction: int,
) -> bool:
    if isinstance(cond, TimerElapsed):
        return steps * dt_ms >= round(cond.seconds * 1000)
    if isinstance(cond, LevelReached):
        if direction > 0:
            return levels_ul[cond.tank] >= _ul(cond.liters)
        if direction < 0:
            return levels_ul[cond.tank] <= _ul(cond.liters)
        return True
    return transferred_ul >= _ul(cond.liters)


def naive_simulate(
    config: PlantConfig,
    n_cycles: int,
    faults: Iterable[FaultSpec] = (),
    seed: int = 0,
    *,
    noise_sigma: float = 0.0,
    on_step: Callable[[float, dict[str, float], float, float, float], None] | None = None,
) -> SimulationLog:
    """Run ``n_cycles`` through the phase list and record the event log.

    ``on_step`` is an instrumentation hook called after every integration
    step with ``(t_s, levels, inflow_l, outflow_l, leaked_l)``; the three
    volumes are what entered, left, and leaked from the plant during that
    step, which lets callers audit mass conservation exactly.

    ``noise_sigma`` adds Gaussian noise to sensor values only; actuator
    records are always noise free.  With the default of zero the run is
    byte-deterministic regardless of seed.
    """
    config.validate()
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    faults = tuple(faults)
    for f in faults:
        f.validate(config)
    prepared = [_prepare_fault(f) for f in faults]

    dt_ms = config.dt_ms()
    dt_s = dt_ms / 1000.0
    rng = random.Random(seed)
    acts = {a.id: a for a in config.actuators}
    levels = {t.id: _ul(t.initial_l) for t in config.tanks}
    initial_ul = {t.id: _ul(t.initial_l) for t in config.tanks}
    capacity_ul = {t.id: _ul(t.capacity_l) for t in config.tanks}
    source_tanks = sorted(config.source_tank_ids())
    sensors = sorted(config.sensors, key=lambda s: s.id)

    actuator_records: list[ActuatorRecord] = []
    sensor_records: list[SensorRecord] = []
    current: dict[str, bool] = {}
    t_ms = 0
    pending_inflow = 0

    def enter_vector(vector: Mapping[str, bool], establishing: bool = False) -> None:
        nonlocal current
        full = {aid: bool(vector.get(aid, False)) for aid in sorted(acts)}
        for aid in sorted(full):
            if establishing or full[aid] != current[aid]:
                actuator_records.append(ActuatorRecord(t_ms / 1000.0, aid, full[aid]))
        current = full

    def sample_sensors(step_rates: Mapping[str, float]) -> None:
        for s in sensors:
            if s.kind == "level":
                value = levels[s.attached_to] / _UL_PER_L
            elif s.kind == "flow":
                value = step_rates.get(s.attached_to, 0.0)
            else:
                value = AMBIENT_TEMPERATURE_C
            if noise_sigma > 0:
                value += rng.gauss(0.0, noise_sigma)
            sensor_records.append(SensorRecord(t_ms / 1000.0, s.id, value))

    sample_sensors({})
    establishing = True
    for cycle in range(n_cycles):
        for tid in source_tanks:
            delta = initial_ul[tid] - levels[tid]
            if delta > 0:
                levels[tid] = initial_ul[tid]
                pending_inflow += delta
        for phase in config.phases:
            enter_vector(phase.actuator_vector, establishing)
            establishing = False
            active = sorted(
                (
                    acts[aid]
                    for aid, on in current.items()
                    if on and aid in config.flows and (acts[aid].from_tank or acts[aid].to_tank)
                ),
                key=lambda a: a.id,
            )
            cap_steps, direction = _phase_cap_and_direction(
                phase, levels, config, active, dt_ms, cycle
            )
            transferred = 0
            steps = 0
            while True:
                step_start = t_ms
                inflow, outflow, leaked = pending_inflow, 0, 0
                pending_inflow = 0
                rates: dict[str, float] = {}
                for a in active:
                    mult = 1.0
                    for f in prepared:
                        if f.kind == "blockage" and f.target == a.id and f.active(step_start):
                            mult *= f.magnitude
                    amount = _ul(config.flows[a.id] * mult * dt_s)
                    if a.from_tank is not None:
                        amount = min(amount, levels[a.from_tank])
                    if a.to_tank is not None:
                        amount = min(amount, capacity_ul[a.to_tank] - levels[a.to_tank])
                    amount = max(amount, 0)
                    if a.from_tank is not None:
                        levels[a.from_tank] -= amount
                    else:
                        inflow += amount
                    if a.to_tank is not None:
                        levels[a.to_tank] += amount
                    else:
                        outflow += amount
                    rates[a.id] = amount / _UL_PER_L / dt_s
                    transferred += amount
                for f in prepared:
                    if f.kind == "leakage" and f.active(step_start):
                        lost = min(_ul(f.magnitude * dt_s), levels[f.target])
                        if lost > 0:
                            levels[f.target] -= lost
                            leaked += lost
                t_ms += dt_ms
                steps += 1
                if on_step is not None:
                    on_step(
                        t_ms / 1000.0,
                        {tid: ul / _UL_PER_L for tid, ul in levels.items()},
                        inflow / _UL_PER_L,
                        outflow / _UL_PER_L,
                        leaked / _UL_PER_L,
                    )
                if t_ms % 1000 == 0:
                    sample_sensors(rates)
                if _condition_met(
                    phase.end_condition, levels, steps, dt_ms, transferred, direction
                ):
                    break
                if steps >= cap_steps:
                    raise PhaseUnreachable(
                        phase.name, cycle, "end condition not reached within 10x nominal time"
                    )
    # Close the final cycle by returning to the first phase's vector.
    enter_vector(config.phases[0].actuator_vector)

    return SimulationLog(actuator_records, sensor_records)


def naive_write_log_csv(log: SimulationLog) -> str:
    """Serialize a log to CSV, sorted by time, then record kind, then id."""
    rows = [
        (round(r.t_s * 1000), "actuator", r.actuator_id, "1" if r.value else "0")
        for r in log.actuator_records
    ]
    rows.extend(
        (round(r.t_s * 1000), "sensor", r.sensor_id, repr(float(r.value)))
        for r in log.sensor_records
    )
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LOG_HEADER)
    for t_ms, kind, rid, value in rows:
        writer.writerow((format_timestamp(t_ms / 1000.0), kind, rid, value))
    return out.getvalue()


# ---------------------------------------------------------------------------
# the differential test

CYCLE_MS = 125_000  # one nominal cycle of the default plant

# fault edges on a nominal cycle boundary, just before or after one, in
# the middle of a cycle, or anywhere in the run
edge_ms = st.builds(
    lambda k, delta: max(0, k * CYCLE_MS + delta),
    st.integers(min_value=0, max_value=12),
    st.sampled_from([-1000, -100, -1, 0, 1, 100, 1000, CYCLE_MS // 2]),
) | st.integers(min_value=0, max_value=13 * CYCLE_MS)


@st.composite
def fault_specs(draw):
    onset_ms = draw(edge_ms)
    end_ms = draw(st.none() | edge_ms)
    duration_s = None if end_ms is None or end_ms <= onset_ms else (end_ms - onset_ms) / 1000
    if draw(st.booleans()):
        kind = "blockage"
        target = draw(st.sampled_from(sorted(default_config().flows)))
        magnitude = draw(st.floats(0.15, 0.95))
    else:
        kind = "leakage"
        target = draw(st.sampled_from(["B201", "B204", "B205"]))
        # 0.7 L/s empties a full B204 within the 10 s Mix phase
        magnitude = draw(st.sampled_from([0.02, 0.7]) | st.floats(0.001, 0.09))
    return FaultSpec(kind, target, magnitude, onset_ms / 1000, duration_s)


def _run(sim, n_cycles, faults, seed, noise_sigma, config=None):
    try:
        return sim(config or default_config(), n_cycles, faults, seed, noise_sigma=noise_sigma)
    except PhaseUnreachable as exc:
        return str(exc)


def _assert_agree(fast, naive):
    if isinstance(naive, str):
        assert fast == naive
        return
    assert [(t_ms / 1000, aid, v) for t_ms, aid, v in fast.actuator_records] == [
        (r.t_s, r.actuator_id, r.value) for r in naive.actuator_records
    ]
    assert [(t_ms / 1000, sid, v) for t_ms, sid, v in fast.sensor_records] == [
        (r.t_s, r.sensor_id, r.value) for r in naive.sensor_records
    ]
    assert write_log_csv(fast) == naive_write_log_csv(naive)


@settings(max_examples=60, deadline=None)
@given(
    n_cycles=st.integers(min_value=1, max_value=12),
    faults=st.lists(fault_specs(), max_size=2),
    seed=st.integers(min_value=0, max_value=2**32),
    noise_sigma=st.just(0.0) | st.floats(0.001, 0.5),
)
@example(n_cycles=100, faults=[], seed=0, noise_sigma=0.0)
# noise drawn over a run that replays 98 cycles
@example(n_cycles=100, faults=[], seed=0, noise_sigma=0.05)
# a 137.9 s blocked cycle starts each cycle at a new sampling phase
@example(n_cycles=4, faults=[FaultSpec("blockage", "P201", 0.7)], seed=0, noise_sigma=0.0)
# a blockage that starts inside cycle 3 (mid-Transfer) and ends inside cycle 5
@example(
    n_cycles=8,
    faults=[FaultSpec("blockage", "P201", 0.5, 3 * 125.0 + 90.0, 250.0)],
    seed=0,
    noise_sigma=0.0,
)
def test_simulate_agrees_with_naive_oracle(n_cycles, faults, seed, noise_sigma):
    fast = _run(simulate, n_cycles, faults, seed, noise_sigma)
    naive = _run(naive_simulate, n_cycles, faults, seed, noise_sigma)
    _assert_agree(fast, naive)


def _every_end_condition(config: PlantConfig) -> PlantConfig:
    """``config`` with a Check phase after Idle that starts on its level
    target, and Dose2 ending on a transferred volume."""
    idle, dose1, dose2, *rest = config.phases
    check = Phase("Check", idle.actuator_vector, LevelReached("B204", 0.0))
    dose2 = replace(dose2, end_condition=VolumeTransferred(2.0))
    return replace(config, phases=(idle, check, dose1, dose2, *rest))


@settings(max_examples=20, deadline=None)
@given(
    n_cycles=st.integers(min_value=1, max_value=4),
    faults=st.lists(fault_specs(), max_size=2),
)
@example(n_cycles=3, faults=[FaultSpec("blockage", "V202", 0.5)])
def test_every_end_condition_agrees_with_naive_oracle(n_cycles, faults):
    """Timers, rising and falling levels, a level that is already on its
    target and a volume each end a phase where the oracle's own end test
    does, blocked or leaking too."""
    config = _every_end_condition(default_config())
    fast = _run(simulate, n_cycles, faults, 0, 0.0, config)
    _assert_agree(fast, _run(naive_simulate, n_cycles, faults, 0, 0.0, config))


def _stepped(config: PlantConfig, dt_s: float, b205_l: float) -> PlantConfig:
    """``config`` stepped at ``dt_s``, its B205 holding at most ``b205_l``."""
    tanks = tuple(replace(t, capacity_l=b205_l) if t.id == "B205" else t for t in config.tanks)
    return replace(config, tanks=tanks, dt_s=dt_s)


@settings(max_examples=40, deadline=None)
@given(
    dt_s=st.sampled_from([0.1, 0.15, 0.3]),
    b205_l=st.sampled_from([20.0, 5.0]),
    n_cycles=st.integers(min_value=1, max_value=4),
    faults=st.lists(fault_specs(), max_size=2),
    noise_sigma=st.just(0.0) | st.floats(0.001, 0.5),
)
# steps that do not divide a second: a sample every 3 s
@example(dt_s=0.15, b205_l=20.0, n_cycles=3, faults=[], noise_sigma=0.0)
@example(dt_s=0.3, b205_l=20.0, n_cycles=2, faults=[], noise_sigma=0.05)
# B205 fills mid-Transfer, so P201 moves nothing more and B204 never empties
@example(dt_s=0.1, b205_l=5.0, n_cycles=1, faults=[], noise_sigma=0.0)
# a leak empties the source B201 mid-Dose1, which V201 then never ends
@example(
    dt_s=0.1, b205_l=20.0, n_cycles=1, faults=[FaultSpec("leakage", "B201", 0.7)],
    noise_sigma=0.0,
)
# a 0.7 L/s leak empties B204 mid-Mix, and then loses nothing while it is empty
@example(
    dt_s=0.1, b205_l=20.0, n_cycles=2, faults=[FaultSpec("leakage", "B204", 0.7)],
    noise_sigma=0.0,
)
# a blockage from 130.05 s, between two steps of cycle 1's Dose1
@example(
    dt_s=0.1, b205_l=20.0, n_cycles=3, faults=[FaultSpec("blockage", "V201", 0.5, 130.05)],
    noise_sigma=0.0,
)
@example(
    dt_s=0.15, b205_l=20.0, n_cycles=2,
    faults=[FaultSpec("leakage", "B204", 0.3, 130.05, 20.0)], noise_sigma=0.0,
)
def test_stretch_edges_agree_with_naive_oracle(dt_s, b205_l, n_cycles, faults, noise_sigma):
    """Where a run of equal steps must end or may go on: at a sample of a
    step that does not divide a second, at a capacity that stops an inflow,
    at a leak that empties its tank and at a fault edge between two steps,
    the records, the text and any ``PhaseUnreachable`` message are the
    oracle's."""
    config = _stepped(default_config(), dt_s, b205_l)
    fast = _run(simulate, n_cycles, faults, 0, noise_sigma, config)
    _assert_agree(fast, _run(naive_simulate, n_cycles, faults, 0, noise_sigma, config))


@settings(max_examples=30, deadline=None)
@given(
    dt_s=st.sampled_from([0.1, 0.15, 0.3]),
    n_cycles=st.integers(min_value=1, max_value=3),
    faults=st.lists(fault_specs(), max_size=2),
)
# cycle 1 starts by refilling B201-B203, an inflow of its first step only
@example(dt_s=0.1, n_cycles=2, faults=[])
@example(dt_s=0.15, n_cycles=2, faults=[FaultSpec("leakage", "B204", 0.3, 130.05, 20.0)])
def test_step_hook_calls_agree_with_naive_oracle(dt_s, n_cycles, faults):
    """A hooked run advances in stretches too, and calls the hook for each
    step of a stretch with what the oracle's single step gives it: its
    time, the levels, and the inflow, outflow and leak, the cycle's refill
    in its first step only.  The calls up to a ``PhaseUnreachable`` agree
    as well."""
    config = replace(default_config(), dt_s=dt_s)
    calls: dict[Callable, list[tuple]] = {simulate: [], naive_simulate: []}
    for sim, steps in calls.items():
        hooked = partial(sim, on_step=lambda *step, steps=steps: steps.append(step))
        finished = not isinstance(_run(hooked, n_cycles, faults, 0, 0.0, config), str)
    assert calls[simulate] == calls[naive_simulate]
    if finished and n_cycles > 1:
        assert any(inflow > 0 for _, _, inflow, _, _ in calls[simulate])


def test_full_target_drained_in_the_same_step_agrees_with_naive_oracle():
    """B205 starts full, and Transfer pumps into it while V205 drains it:
    P201 moves nothing in Transfer's first step, and its full amount once
    V205 has made room, so that first step ends a stretch."""
    config = default_config()
    tanks = tuple(
        replace(t, capacity_l=5.0, initial_l=5.0) if t.id == "B205" else t for t in config.tanks
    )
    phases = tuple(
        replace(p, actuator_vector={**p.actuator_vector, "V205": True})
        if p.name == "Transfer" else p
        for p in config.phases
    )
    config = replace(config, tanks=tanks, phases=phases)
    fast = _run(simulate, 2, [], 0, 0.0, config)
    _assert_agree(fast, _run(naive_simulate, 2, [], 0, 0.0, config))


# ---------------------------------------------------------------------------
# a replayed cycle's lines versus its records


def _renamed(config: PlantConfig, names: Mapping[str, str], idle_s: float) -> PlantConfig:
    """``config`` with each id ``i`` renamed ``names.get(i, i)`` and its first
    phase's timer set to ``idle_s``."""

    def name(i):
        return names.get(i, i)

    def condition(c):
        return replace(c, tank=name(c.tank)) if isinstance(c, LevelReached) else c

    phases = tuple(
        Phase(
            p.name,
            {name(a): on for a, on in p.actuator_vector.items()},
            condition(p.end_condition),
        )
        for p in config.phases
    )
    return PlantConfig(
        tuple(replace(t, id=name(t.id)) for t in config.tanks),
        tuple(
            replace(a, id=name(a.id), from_tank=name(a.from_tank), to_tank=name(a.to_tank))
            for a in config.actuators
        ),
        tuple(replace(s, id=name(s.id), attached_to=name(s.attached_to)) for s in config.sensors),
        {name(a): rate for a, rate in config.flows.items()},
        (replace(phases[0], end_condition=TimerElapsed(idle_s)),) + phases[1:],
        config.dt_s,
    )


_DEFAULT = default_config()
_IDS = sorted(
    _DEFAULT.tank_ids() | _DEFAULT.actuator_ids() | {s.id for s in _DEFAULT.sensors}
)


@st.composite
def plant_variants(draw):
    """Renames of the default plant's ids, some to ids that hold ``%`` or
    that CSV quotes, and an Idle timer: at 5 s or 6 s a cycle ends on a
    whole second, where its last sample and the next cycle's first
    actuator block share a millisecond; at 5.3 s or 5.5 s the cycles start
    at several sampling phases, and only every tenth or second one can
    replay a stored cycle."""
    names = {i: draw(st.sampled_from(["", "%", "%d", "a,", 'q"', '%,"'])) + i for i in _IDS}
    return names, draw(st.sampled_from([5.0, 6.0, 5.3, 5.5]))


@settings(max_examples=60, deadline=None)
@given(
    plant_variant=plant_variants(),
    n_cycles=st.integers(min_value=1, max_value=12),
    faults=st.lists(fault_specs(), max_size=2),
    seed=st.integers(min_value=0, max_value=2**32),
)
# ids holding %, "," and '"', in blocks on both sides of a replay's window
@example(
    plant_variant=({"L204": '%"L,204', "V201": "%d,V201", "B204": 'B"204', "P201": "%%P"}, 5.0),
    n_cycles=5,
    faults=[],
    seed=0,
)
# a blockage that starts inside cycle 3 and ends inside cycle 5; cycles 6
# on replay the stored nominal cycle again
@example(
    plant_variant=({}, 5.0),
    n_cycles=12,
    faults=[FaultSpec("blockage", "P201", 0.5, 3 * 125.0 + 90.0, 250.0)],
    seed=0,
)
# 126 s cycles, each ending on a whole second that the next one starts at;
# cycle 7 replays from 882 s to 1,008 s, so its stamps' whole seconds gain
# a digit inside its window
@example(plant_variant=({}, 6.0), n_cycles=8, faults=[], seed=0)
# 125.3 s cycles: cycle 11 replays cycle 1, ten cycles later; its blocks
# mix whole-second stamps with fractional ones
@example(plant_variant=({}, 5.3), n_cycles=12, faults=[], seed=0)
def test_replayed_cycles_write_as_their_records_do(plant_variant, n_cycles, faults, seed):
    """A simulated log writes the text that its records write in a log that
    records no replay, at the default chunk size and at chunks that end
    inside and at the edges of replay windows."""
    names, idle_s = plant_variant
    config = _renamed(_DEFAULT, names, idle_s)
    faults = [replace(f, target=names.get(f.target, f.target)) for f in faults]
    try:
        log = simulate(config, n_cycles, faults, seed)
    except PhaseUnreachable:
        return
    expected = write_log_csv(plant.SimulationLog(log.actuator_records, log.sensor_records))
    default = plant._CHUNK
    try:
        for size in (1, 10, default):
            plant._CHUNK = size
            assert write_log_csv(log) == expected
    finally:
        plant._CHUNK = default


@settings(max_examples=40, deadline=None)
@given(
    plant_variant=plant_variants(),
    n_cycles=st.integers(min_value=1, max_value=12),
    faults=st.lists(fault_specs(), max_size=2),
    seed=st.integers(min_value=0, max_value=2**32),
)
@example(plant_variant=({}, 5.0), n_cycles=100, faults=[], seed=0)
@example(plant_variant=({}, 5.3), n_cycles=12, faults=[], seed=0)
@example(
    plant_variant=({}, 5.0),
    n_cycles=12,
    faults=[FaultSpec("blockage", "P201", 0.5, 3 * 125.0 + 90.0, 250.0)],
    seed=0,
)
def test_fresh_simulated_log_is_its_stepwise_records(plant_variant, n_cycles, faults, seed):
    """A log straight from ``simulate``, whose replayed sensor records are
    not built yet, writes the text and gives the trace that the same run's
    records give, taken with a no-op step hook, which replays nothing.
    Its copies, deep copies and pickles do too before their records are
    built, and it, they and a ``dataclasses.replace`` of it equal that
    run's log once they are."""
    names, idle_s = plant_variant
    config = _renamed(_DEFAULT, names, idle_s)
    faults = [replace(f, target=names.get(f.target, f.target)) for f in faults]
    log = _run(simulate, n_cycles, faults, seed, 0.0, config)
    hooked = partial(simulate, on_step=lambda *step: None)
    stepwise = _run(hooked, n_cycles, faults, seed, 0.0, config)
    if isinstance(stepwise, str):
        assert log == stepwise
        return
    expected = plant.SimulationLog(stepwise.actuator_records, stepwise.sensor_records)
    text, trace = write_log_csv(expected), to_trace(expected, config)
    fresh = [log, copy.copy(log), copy.deepcopy(log), pickle.loads(pickle.dumps(log))]
    for each in fresh:
        assert write_log_csv(each) == text
        assert to_trace(each, config) == trace
    assert not any("sensor_records" in vars(each) for each in fresh if each._replays)
    for each in fresh + [replace(log)]:
        assert each == expected and repr(each) == repr(expected)


# ---------------------------------------------------------------------------
# the writer versus csv.writer


def head_write_log_csv(log: plant.SimulationLog) -> str:
    """Serialize a log to CSV, sorted by time, then record kind, then id.

    Records that repeat the same time, kind and id are ordered by value.
    """
    rows = [
        (t_ms, "actuator", rid, "1" if value else "0")
        for t_ms, rid, value in log.actuator_records
    ]
    rows.extend(
        (t_ms, "sensor", rid, repr(float(value))) for t_ms, rid, value in log.sensor_records
    )
    rows.sort()
    # Every sensor sample shares its stamp with the rest of the snapshot.
    stamps = {t_ms: format_timestamp(t_ms / 1000.0) for t_ms in {row[0] for row in rows}}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LOG_HEADER)
    writer.writerows((stamps[t_ms], kind, rid, value) for t_ms, kind, rid, value in rows)
    return out.getvalue()


RECORD_IDS = ["L201", "a,b", 'q"x', "n\nl", "r\rb", " s", '""', "é"]
record_values = st.sampled_from(
    [0.0, -0.0, 9.0, 10.0, math.nan, math.inf, -math.inf, 3, True]
) | st.floats()
record_kinds = st.sampled_from(["actuator", "sensor"])
# a narrow range makes records share a millisecond
record_ms = st.integers(min_value=0, max_value=3) | st.integers(min_value=0, max_value=10**9)


def _split(records):
    """File each ``(kind, t_ms, id, value)`` as a record of its kind."""
    return plant.SimulationLog(
        [(t_ms, rid, value) for kind, t_ms, rid, value in records if kind == "actuator"],
        [(t_ms, rid, value) for kind, t_ms, rid, value in records if kind == "sensor"],
    )


@st.composite
def hand_built_logs(draw):
    """Unsorted logs in which some records repeat the time and id of another,
    placed before or after it."""
    records = draw(
        st.lists(
            st.tuples(
                record_kinds,
                record_ms,
                st.sampled_from(RECORD_IDS),
                record_values,
            ),
            max_size=30,
        )
    )
    for _ in range(draw(st.integers(min_value=0, max_value=6)) if records else 0):
        i = draw(st.integers(min_value=0, max_value=len(records) - 1))
        kind, t_ms, rid, _ = records[i]
        twin = (kind, t_ms, rid, draw(record_values))
        records.insert(i + draw(st.integers(min_value=0, max_value=1)), twin)
    return _split(records)


def _tied(kind, rid, values):
    return [(kind, 7, rid, value) for value in values]


@settings(max_examples=300, deadline=None)
@given(log=hand_built_logs())
@example(log=_split([]))
@example(
    log=_split(
        _tied("sensor", "L201", [0.0, -0.0, 10.0, 9.0, math.nan, -1.0, -2.0])
        + _tied("sensor", 'q"x', [9.0, 10.0, -0.0, 0.0, -math.inf, 1.0])
        + _tied("actuator", "a,b", [True, 0.0, math.nan, -0.0, 2])
        + [("sensor", 3, "r\rb", 1e-7), ("actuator", 3, "n\nl", False)]
    )
)
@example(
    log=_split(
        [("sensor", 6, "L201", 1.0), ("actuator", 6, "V1", True), ("sensor", 6, "a,b", 2.0)]
        + _tied("sensor", "L201", [0.0, -0.0, 10.0, 9.0])
        + _tied("sensor", "a,b", [-0.0, 1.0, 0.0])
        + [("actuator", 7, "V1", False), ("sensor", 8, "L201", 9.0), ("actuator", 9, "V2", True)]
    )
)
# two milliseconds whose blocks differ only in the sign of a zero
@example(
    log=_split(
        [("sensor", 1, "L201", 0.0), ("sensor", 1, "a,b", 1.0)]
        + [("sensor", 2, "L201", -0.0), ("sensor", 2, "a,b", 1.0)]
        + [("actuator", 2, "V1", 0.0), ("actuator", 3, "V1", -0.0), ("sensor", 3, "L201", 0.0)]
    )
)
# NaN blocks, one of them repeated
@example(
    log=_split(
        _tied("sensor", "L201", [math.nan, 1.0, -math.nan])
        + [("sensor", 8, "L201", value) for value in (math.nan, 1.0, -math.nan)]
        + [("sensor", 9, "a,b", math.nan), ("actuator", 9, "V1", math.nan)]
    )
)
# equal blocks whose records come in another order
@example(
    log=_split(
        [("sensor", 1, "L201", 9.0), ("sensor", 1, "a,b", 10.0), ("sensor", 1, "L201", 10.0)]
        + [("sensor", 2, "a,b", 10.0), ("sensor", 2, "L201", 10.0), ("sensor", 2, "L201", 9.0)]
        + [("sensor", 3, "L201", 10.0), ("sensor", 3, "a,b", 10.0), ("sensor", 3, "L201", 9.0)]
    )
)
def test_write_log_csv_matches_csv_writer(log):
    """At the default chunk size and at chunks smaller than the sensor
    records of one millisecond, whose tie runs and signed zeros then fill
    several chunks' worth of records."""
    expected = head_write_log_csv(log)
    default = plant._CHUNK
    try:
        for size in (1, 2, 3, default):
            plant._CHUNK = size
            assert write_log_csv(log) == expected
    finally:
        plant._CHUNK = default
