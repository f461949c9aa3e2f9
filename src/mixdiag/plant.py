"""The reference plant, its discrete-time simulation and the log CSV writer.

The plant, described by a :class:`mixdiag.config.PlantConfig`, is a tank
network driven through a fixed phase sequence.  Valves and pumps move
liquid at constant rates; explicit Euler integration at ``dt_s`` advances
tank levels.  The simulator emits an event log: one actuator record per
signal change and one sensor snapshot per simulated second.

Conventions that downstream code relies on:

* A record is a plain tuple ``(t_ms, id, value)``: an actuator record's
  value is a bool, a sensor record's a float.  Timestamps are kept as
  integer milliseconds so that every ``t_s`` in a log is exact at three
  decimal places.
* Volumes are kept as integer microliters internally; each per-step transfer
  amount is rounded to the nearest microliter once.  Mass bookkeeping is
  therefore exact and a constant-rate phase ends precisely on its nominal
  step count instead of drifting by float accumulation.
* Phase end conditions are evaluated after each integration step, so the
  minimum phase duration is one step.  Hitting a threshold exactly ends the
  phase.
* A phase advances in stretches: one step as written, then at once as many
  more steps as move and leak as much each.  A stretch stops at the step
  that ends the phase, before the first step that a fault's start or end
  changes, at the phase's cap, and before the first step in which a
  transfer or a leak would be clamped.  A transfer from an empty tank or
  into a full one, or a leak from an empty tank, moves nothing, and stops
  no stretch while that tank's level stays put.  Levels are integer
  microliters, linear in the steps of a stretch, so its levels, samples
  and errors are those of single steps, and an ``on_step`` hook is called
  for each of its steps.
* Levels are clamped to ``[0, capacity]`` by limiting each transfer to what
  the source holds and the target can still take.
* Tanks that only ever feed flows (never receive one) are refilled to their
  initial level at each cycle start, so arbitrarily many cycles can run.
* A phase that has not finished after ten times its nominal duration, or
  whose level target no unfaulted step moves toward, raises
  :class:`PhaseUnreachable`.  The nominal duration uses unfaulted rates, so
  a blockage multiplier at or below 0.1 trips the cap by design.
* A cycle after the first that starts from the same tank levels, actuator
  vector, sensor-sampling phase (``t_ms % 1000``) and fault activity as an
  earlier simulated cycle is replayed: the earlier cycle's records are
  re-emitted shifted in time, without integrating.  This holds only without
  an ``on_step`` hook, and only when no fault starts or ends strictly
  inside either cycle's window, so the log is byte-identical to a
  stepwise run.  The log records each replay.  Of a replay's sensor
  records it holds only those at its start and end milliseconds; the rest
  are built when ``sensor_records`` is first read, which neither
  ``write_log_csv`` nor ``to_trace`` does.  ``write_log_csv`` writes the
  lines strictly inside a replay's window from its stored cycle's
  millisecond blocks, built once per call and re-stamped for each replay:
  two replays of one cycle start a whole number of seconds apart, so only
  the whole seconds of each stamp change.
* Noise never feeds the dynamics: a noisy log is the noise-free run's, its
  replays included, with the noise added to its sensor values in one pass
  in record order, and records no replay.
"""

from __future__ import annotations

import logging
import math
import random
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain, compress, count, repeat
from operator import add, attrgetter, floordiv, ge, itemgetter, mod, mul, ne, sub, truediv, truth
from struct import pack
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .config import (
    _UL_PER_L, Actuator, ConfigError, FaultSpec, LevelReached, Phase, PlantConfig, Sensor, Tank,
    TimerElapsed, VolumeTransferred, _require_finite, _ul,
)
from .errors import MixdiagError

logger = logging.getLogger(__name__)

AMBIENT_TEMPERATURE_C = 20.0

LOG_HEADER = ("t_s", "kind", "id", "value")

_time, _id, _value = itemgetter(0), itemgetter(1), itemgetter(2)  # of a record


class PhaseUnreachable(MixdiagError):
    """A phase failed to meet its end condition within 10x nominal time."""

    def __init__(self, phase: str, cycle: int, reason: str):
        self.phase = phase
        self.cycle = cycle
        super().__init__(f"phase {phase!r} (cycle {cycle}): {reason}")


@dataclass
class SimulationLog:
    """Actuator records ``(t_ms, actuator_id, value: bool)`` and sensor
    records ``(t_ms, sensor_id, value: float)``, each a plain tuple.

    A noise-free log from :func:`simulate` also records each cycle it replayed
    (``_replays``, see :class:`_Replay`), and when it replayed one, it holds
    as ``_outside_sensors`` only the sensor records outside the replays'
    windows: those of its simulated cycles and of each replay's start and
    end milliseconds.  ``sensor_records`` is built from these two on its
    first read, equal to the list a stepwise run gives, and then kept.
    :func:`write_log_csv` reads the two instead, so writing the log builds
    no replayed sensor record.  They take no part in ``==`` or ``repr``,
    copies and pickles keep them, and a log built any other way, by
    ``parse_log``, by hand or by ``dataclasses.replace``, holds neither.
    Nothing edits the record lists after ``simulate`` returns them."""

    actuator_records: list[tuple[int, str, bool]]
    sensor_records: list[tuple[int, str, float]]
    _replays: tuple[_Replay, ...] = field(default=(), init=False, repr=False, compare=False)
    _outside_sensors: list[tuple[int, str, float]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getattr__(self, name: str):
        """Build ``sensor_records`` of a log that :func:`simulate` returned
        on its first read; any other missing attribute is missing."""
        if name != "sensor_records" or self._outside_sensors is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        parts = _sensor_parts(self.actuator_records, self._outside_sensors, self._replays)
        self.sensor_records = records = list(chain.from_iterable(parts))
        return records


def _sensor_parts(
    actuator_records: list[tuple], outside: list[tuple], replays: Iterable[_Replay]
) -> Iterator[list[tuple[int, str, float]]]:
    """The sensor records of a simulated run, in order, a list at a time:
    ``outside`` holds those outside its ``replays``' windows, and each
    replay's inside is shifted from its stored cycle."""
    lo = 0
    for replay in replays:  # see _StoredCycle.replay
        cycle = replay.cycle
        times = [replay.start_ms + t for t in cycle.offsets]
        # a millisecond's records hold one int: that of its actuator records
        for (k, _, _), (t, _, _) in zip(
            cycle.actuators[cycle.inside[0]], actuator_records[replay.actuators]
        ):
            times[k] = t
        yield outside[lo : replay.at]
        yield [(times[k], i, v) for k, i, v in cycle.sensors[cycle.inside[1]]]
        lo = replay.at
    yield outside[lo:]


def default_config() -> PlantConfig:
    """The reference plant: three dosing tanks, a mixing reservoir, a
    discharge tank, and a seven-phase cycle."""

    def vec(**on: bool) -> dict[str, bool]:
        base = {aid: False for aid in ("V201", "V202", "V203", "M201", "P201", "V205")}
        base.update(on)
        return base

    return PlantConfig(
        tanks=(
            Tank("B201", 10.0, 8.0),
            Tank("B202", 10.0, 8.0),
            Tank("B203", 10.0, 8.0),
            Tank("B204", 20.0, 0.0),
            Tank("B205", 20.0, 0.0),
        ),
        actuators=(
            Actuator("V201", "valve", from_tank="B201", to_tank="B204"),
            Actuator("V202", "valve", from_tank="B202", to_tank="B204"),
            Actuator("V203", "valve", from_tank="B203", to_tank="B204"),
            Actuator("M201", "stirrer"),
            Actuator("P201", "pump", from_tank="B204", to_tank="B205"),
            Actuator("V205", "valve", from_tank="B205", to_tank=None),
        ),
        sensors=(
            Sensor("L201", "level", "B201", "FillLevel"),
            Sensor("L202", "level", "B202", "FillLevel"),
            Sensor("L203", "level", "B203", "FillLevel"),
            Sensor("L204", "level", "B204", "FillLevel"),
            Sensor("L205", "level", "B205", "FillLevel"),
            Sensor("F201", "flow", "P201", "FlowRate"),
            Sensor("T201", "temperature", "B204", "Temperature"),
        ),
        flows={"V201": 0.1, "V202": 0.1, "V203": 0.1, "P201": 0.2, "V205": 0.3},
        phases=(
            Phase("Idle", vec(), TimerElapsed(5.0)),
            Phase("Dose1", vec(V201=True), LevelReached("B204", 2.0)),
            Phase("Dose2", vec(V202=True), LevelReached("B204", 4.0)),
            Phase("Dose3", vec(V203=True), LevelReached("B204", 6.0)),
            Phase("Mix", vec(M201=True), TimerElapsed(10.0)),
            Phase("Transfer", vec(P201=True), LevelReached("B204", 0.0)),
            Phase("Drain", vec(V205=True), LevelReached("B205", 0.0)),
        ),
        dt_s=0.1,
    )


@dataclass(frozen=True)
class _PreparedFault:
    kind: str
    target: str
    magnitude: float
    onset_ms: int
    end_ms: int | None

    def active(self, t_ms: int) -> bool:
        return self.onset_ms <= t_ms and (self.end_ms is None or t_ms < self.end_ms)


def _prepare_fault(f: FaultSpec) -> _PreparedFault:
    onset_ms = round(f.onset_s * 1000)
    end_ms = None if f.duration_s is None else onset_ms + round(f.duration_s * 1000)
    return _PreparedFault(f.kind, f.target, f.magnitude, onset_ms, end_ms)


@dataclass(eq=False)
class _StoredCycle:
    """A simulated cycle kept for replay: its duration, the state it ended
    in, and its records with each time replaced by its index in
    ``offsets``, the cycle's distinct times less its start, in order.  A
    replay shifts each distinct time once, so the records of one
    millisecond share one int, as simulated ones do.  ``inside`` holds the
    index ranges, in ``actuators`` and ``sensors``, of the records strictly
    between the cycle's start and end.  Its sensor records in that range
    stand for those of every replay of it until the log's
    ``sensor_records`` is read, and :func:`write_log_csv` writes them
    from here."""

    duration_ms: int
    levels: dict[str, int]
    vector: dict[str, bool]
    offsets: list[int]
    actuators: list[tuple[int, str, bool]]
    sensors: list[tuple[int, str, float]]
    inside: tuple[slice, slice]

    @classmethod
    def of(
        cls, start_ms: int, end_ms: int, actuators: list[tuple], sensors: list[tuple],
        levels: dict[str, int], vector: dict[str, bool],
    ) -> _StoredCycle:
        """The cycle from ``start_ms`` to ``end_ms`` that emitted these records."""
        times = sorted({t for t, _, _ in actuators} | {t for t, _, _ in sensors})
        index = {t: k for k, t in enumerate(times)}
        inside = tuple(
            slice(
                bisect_right(records, start_ms, key=_time), bisect_left(records, end_ms, key=_time)
            )
            for records in (actuators, sensors)
        )
        return cls(
            end_ms - start_ms, dict(levels), dict(vector), [t - start_ms for t in times],
            [(index[t], i, v) for t, i, v in actuators], [(index[t], i, v) for t, i, v in sensors],
            inside,
        )

    def replay(
        self, start_ms: int, actuator_records: list[tuple], sensor_records: list[tuple]
    ) -> _Replay:
        """Append this cycle's actuator records again, shifted to start at
        ``start_ms``, and its sensor records outside ``inside``, and return
        the replay, from which the rest are shifted when the log's
        ``sensor_records`` is first read.  A record at the start holds the
        ``start_ms`` object, and the replay ends at the last record's time
        when that is at the end, so the records of a millisecond that two
        cycles share hold one int."""
        offsets = self.offsets
        shifted = [start_ms + t for t in offsets]
        if offsets and offsets[0] == 0:
            shifted[0] = start_ms
        actuators, sensors = self.inside
        n = len(actuator_records)  # taken before the records are appended
        actuators = slice(n + actuators.start, n + actuators.stop)
        actuator_records.extend([(shifted[k], i, v) for k, i, v in self.actuators])
        sensor_records.extend([(shifted[k], i, v) for k, i, v in self.sensors[: sensors.start]])
        at = len(sensor_records)
        sensor_records.extend([(shifted[k], i, v) for k, i, v in self.sensors[sensors.stop :]])
        end_ms = start_ms + self.duration_ms
        if offsets and offsets[-1] == self.duration_ms:
            end_ms = shifted[-1]
        return _Replay(self, start_ms, end_ms, actuators, at)


class _Replay(NamedTuple):
    """A replay of ``cycle`` in a log, from ``start_ms`` to ``end_ms``.
    ``actuators`` is the index range, in the log's actuator records, of
    those strictly inside that window.  Its sensor records there are not in
    the log's ``_outside_sensors``: ``at`` is the index in it before which
    they belong.  They are the cycle's records there, shifted by a whole
    number of seconds from those of any other replay of it, since the
    replay key holds ``t_ms % 1000``; their shifted times are made when the
    log's ``sensor_records`` is first read."""

    cycle: _StoredCycle
    start_ms: int
    end_ms: int
    actuators: slice
    at: int


def _phase_end(
    phase: Phase, levels_ul: Mapping[str, int], config: PlantConfig, active: list[Actuator],
    dt_ms: int, cycle: int,
) -> tuple[int, Callable]:
    """A freshly entered phase's cap, ten times its nominal steps at
    unfaulted rates, and its end condition as the further steps after which
    it first holds, given the steps taken and µL transferred so far, and
    the µL each further step transfers and adds to each tank: 0 once it
    holds, ``math.inf`` while those rates never meet it.  A level target
    holds on or past it, seen from where the level starts; on it, at once."""

    def steps_left(*progress) -> int | float:
        short, rate = gap(*progress)  # the condition holds once short reaches 0
        return 0 if short >= 0 else -(short // rate) if rate > 0 else math.inf

    cond = phase.end_condition
    if isinstance(cond, TimerElapsed):
        nominal_s, end_steps = cond.seconds, -(-round(cond.seconds * 1000) // dt_ms)
        gap = lambda steps, transferred, moved, delta: (steps - end_steps, 1)
    elif isinstance(cond, VolumeTransferred):
        rate = sum(config.flows.get(a.id, 0.0) for a in active)
        if rate <= 0:
            raise PhaseUnreachable(phase.name, cycle, "no active flow for volume target")
        nominal_s, target_ul = cond.liters / rate, _ul(cond.liters)
        gap = lambda steps, transferred, moved, delta: (transferred - target_ul, moved)
    else:
        tank, target_ul = cond.tank, _ul(cond.liters)
        direction = (levels_ul[tank] < target_ul) - (levels_ul[tank] > target_ul)
        gap = lambda steps, transferred, moved, delta: (
            (levels_ul[tank] - target_ul) * direction, delta[tank] * direction
        )
        if not direction:
            return 1, steps_left
        net = sum(config.flows.get(a.id, 0.0) for a in active if a.to_tank == tank)
        net -= sum(config.flows.get(a.id, 0.0) for a in active if a.from_tank == tank)
        toward = net * direction
        # the µL an unfaulted step moves toward it, too: float rates can miss
        # a balance (0.1 + 0.1 + 0.1 - 0.3 > 0) and make the cap 1e19 steps
        ends = [(a.to_tank == tank) - (a.from_tank == tank) for a in active]
        step = sum(e * _ul(config.flows[a.id] * (dt_ms / 1000.0)) for e, a in zip(ends, active))
        if toward <= 0 or step * direction <= 0:
            raise PhaseUnreachable(phase.name, cycle, "no net flow toward target level")
        nominal_s = abs(target_ul - levels_ul[tank]) / _UL_PER_L / toward
    return max(1, math.ceil(nominal_s * 10_000 / dt_ms)), steps_left


def simulate(
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
    step, which lets callers audit mass conservation exactly.  It is called
    for each step of each stretch of equal steps (see the module
    docstring), and a hooked run replays no cycle.

    ``noise_sigma`` adds Gaussian noise to sensor values only; actuator
    records are always noise free.  With the default of zero the run is
    byte-deterministic regardless of seed.  It is drawn in one pass over
    the noise-free run's sensor records (see the module docstring).  A
    NaN, infinite or negative ``noise_sigma``, or one so large that a noisy
    sample is not finite, raises :class:`ConfigError`, also ahead of a
    :class:`PhaseUnreachable` that came after such a sample.
    """
    config.validate()
    if isinstance(n_cycles, bool) or not isinstance(n_cycles, int) or n_cycles < 1:
        raise ConfigError(f"n_cycles must be an int >= 1, got {n_cycles!r}")
    _require_finite("noise_sigma", noise_sigma, 1)
    if noise_sigma < 0:
        raise ConfigError(f"noise_sigma must be >= 0, got {noise_sigma!r}")
    faults = tuple(faults)
    for f in faults:
        f.validate(config)
    records: tuple[list, list, list] = ([], [], [])  # actuators, sensors, replays
    try:
        log = _integrate(config, n_cycles, faults, on_step, *records)
    except PhaseUnreachable:
        if noise_sigma > 0:  # a non-finite sample made before it is the first error
            _noisy(records, noise_sigma, seed)
        raise
    return _noisy(records, noise_sigma, seed) if noise_sigma > 0 else log


def _noisy(run: tuple[list, list, list], sigma: float, seed: int) -> SimulationLog:
    """The log of a noise-free ``run``'s records and replays with
    ``random.Random(seed).gauss(0.0, sigma)`` added to each sensor value in
    record order, a part at a time, so that its replayed records are never
    all built.  A noisy value that is not finite raises :class:`ConfigError`."""
    rng = random.Random(seed)
    noisy: list[tuple[int, str, float]] = []
    for records in _sensor_parts(*run):
        noise = map(rng.gauss, repeat(0.0, len(records)), repeat(sigma))
        values = list(map(add, map(_value, records), noise))
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"noise_sigma {sigma!r} gives a non-finite sample")
        noisy += zip(map(_time, records), map(_id, records), values)
    return SimulationLog(run[0], noisy)


def _integrate(
    config: PlantConfig, n_cycles: int, faults: tuple[FaultSpec, ...], on_step: Callable | None,
    actuator_records: list[tuple], sensor_records: list[tuple], replays: list[_Replay],
) -> SimulationLog:
    """The noise-free log of :func:`simulate`, its records and replays
    appended to the three lists as they are made."""
    prepared = [_prepare_fault(f) for f in faults]
    blockages = {
        a: [f for f in prepared if f.kind == "blockage" and f.target == a] for a in config.flows
    }
    leakages = [f for f in prepared if f.kind == "leakage"]

    dt_ms = config.dt_ms()
    dt_s = dt_ms / 1000.0
    acts = {a.id: a for a in config.actuators}
    levels = {t.id: _ul(t.initial_l) for t in config.tanks}
    initial_ul = {t.id: _ul(t.initial_l) for t in config.tanks}
    capacity_ul = {t.id: _ul(t.capacity_l) for t in config.tanks}
    source_tanks = sorted(config.source_tank_ids())
    sensors = sorted(config.sensors, key=lambda s: s.id)
    sensor_ids = tuple(s.id for s in sensors)
    # t_ms is always a whole number of steps, so the whole seconds it passes
    # are the multiples of this
    sample_every = math.lcm(dt_ms, 1000)
    edges = sorted({b for f in prepared for b in (f.onset_ms, f.end_ms) if b is not None})

    current: dict[str, bool] = {}
    t_ms = 0
    pending_inflow = 0

    def enter_vector(vector: Mapping[str, bool], establishing: bool = False) -> None:
        nonlocal current
        full = {aid: bool(vector.get(aid, False)) for aid in sorted(acts)}
        for aid in sorted(full):
            if establishing or full[aid] != current[aid]:
                actuator_records.append((t_ms, aid, full[aid]))
        current = full

    def sample_sensors(
        times: list[int], first: int, every: int, delta: Mapping[str, int],
        step_rates: Mapping[str, float],
    ) -> None:
        """Sample every sensor at each of ``times``, in record order: the
        first of them ``first`` steps after the current levels, each next
        one ``every`` steps on, while each step adds ``delta`` to the
        levels and moves at ``step_rates``."""
        columns = []
        for s in sensors:
            if s.kind == "level":
                change = delta[s.attached_to]
                level = levels[s.attached_to] + first * change
                change *= every
                ul = range(level, level + len(times) * change, change) if change else repeat(level)
                columns.append(map(truediv, ul, repeat(_UL_PER_L, len(times))))
            elif s.kind == "flow":
                columns.append(repeat(step_rates.get(s.attached_to, 0.0), len(times)))
            else:
                columns.append(repeat(AMBIENT_TEMPERATURE_C, len(times)))
        stamps = chain.from_iterable(map(repeat, times, repeat(len(sensors))))
        sensor_records.extend(
            zip(stamps, sensor_ids * len(times), chain.from_iterable(zip(*columns)))
        )

    sample_sensors([t_ms], 0, 1, dict.fromkeys(levels, 0), {})
    establishing = True
    stored: dict[tuple, _StoredCycle] = {}
    for cycle in range(n_cycles):
        for tid in source_tanks:
            delta = initial_ul[tid] - levels[tid]
            if delta > 0:
                levels[tid] = initial_ul[tid]
                pending_inflow += delta
        start_ms = t_ms
        first_edge = bisect_right(edges, start_ms)  # index of the first fault edge after it
        key = None
        # Without a per-step hook, a cycle is a pure function of this key, so
        # a repeated key replays the stored cycle if no fault edge is inside.
        if on_step is None and not establishing:
            key = (
                tuple(levels.items()),
                tuple(current.items()),
                t_ms % 1000,
                tuple(f.active(t_ms) for f in prepared),
            )
            hit = stored.get(key)
            if hit is not None and first_edge == bisect_left(edges, start_ms + hit.duration_ms):
                replays.append(hit.replay(start_ms, actuator_records, sensor_records))
                t_ms = replays[-1].end_ms
                levels = dict(hit.levels)
                current = dict(hit.vector)
                pending_inflow = 0
                continue
        actuator_lo, sensor_lo = len(actuator_records), len(sensor_records)
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
            cap_steps, steps_left = _phase_end(phase, levels, config, active, dt_ms, cycle)
            # each active actuator, its unfaulted per-step amount and its blockages
            moving = [(a, _ul(config.flows[a.id] * dt_s), blockages[a.id]) for a in active]
            transferred = 0
            steps = 0
            while True:
                # One step, then a stretch of ``more`` steps that move and
                # leak as much each, levels rising by ``delta`` per step.
                step_start = t_ms
                before = levels.copy()
                refill, pending_inflow = pending_inflow, 0
                inflow, outflow, leaked, moved = refill, 0, 0, 0
                rates: dict[str, float] = {}
                # each clamp's µL to spare in this step, the tank it reads,
                # and the sign with which that tank's level adds to it; an
                # empty source or full target moves nothing, and keeps so
                # until the level moves the other way
                spare: list[tuple[int, str, int]] = []
                for a, amount, blocking in moving:
                    mult = 1.0
                    for f in blocking:
                        if f.active(step_start):
                            mult *= f.magnitude
                    if mult != 1.0:
                        amount = _ul(config.flows[a.id] * mult * dt_s)
                    if a.from_tank is not None:
                        held = levels[a.from_tank]
                        spare.append(
                            (held - amount, a.from_tank, 1) if held else (0, a.from_tank, -1)
                        )
                        amount = min(amount, held)
                    if a.to_tank is not None:
                        room = capacity_ul[a.to_tank] - levels[a.to_tank]
                        spare.append((room - amount, a.to_tank, -1) if room else (0, a.to_tank, 1))
                        amount = min(amount, room)
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
                    moved += amount
                for f in leakages:
                    if f.active(step_start):
                        loss, held = _ul(f.magnitude * dt_s), levels[f.target]
                        spare.append((held - loss, f.target, 1) if held else (0, f.target, -1))
                        lost = min(loss, held)
                        if lost > 0:
                            levels[f.target] -= lost
                            leaked += lost
                transferred += moved
                t_ms += dt_ms
                steps += 1
                delta = {tid: levels[tid] - level for tid, level in before.items()}
                left = steps_left(steps, transferred, moved, delta)
                more = 0
                if left:
                    # up to the step that ends the phase or meets its cap,
                    # and short of a binding clamp and a fault's start or end
                    more = min(left, cap_steps - steps)
                    for room, tank, sign in spare:
                        change = sign * delta[tank]
                        if room < 0:
                            more = 0
                        elif change < 0:
                            more = min(more, room // -change)
                    edge = bisect_right(edges, step_start)
                    if edge < len(edges):
                        more = min(more, max(0, (edges[edge] - t_ms - 1) // dt_ms + 1))
                if on_step is not None:
                    for j in range(more + 1):  # the cycle's refill is in its first step
                        on_step(
                            (t_ms + j * dt_ms) / 1000.0,
                            {tid: (ul + j * delta[tid]) / _UL_PER_L for tid, ul in levels.items()},
                            (inflow if j == 0 else inflow - refill) / _UL_PER_L,
                            outflow / _UL_PER_L,
                            leaked / _UL_PER_L,
                        )
                end_ms = t_ms + more * dt_ms
                first = (step_start // sample_every + 1) * sample_every
                if first <= end_ms:
                    times = list(range(first, end_ms + 1, sample_every))
                    sample_sensors(
                        times, (first - t_ms) // dt_ms, sample_every // dt_ms, delta, rates
                    )
                    if times[-1] == end_ms:
                        end_ms = times[-1]  # its records and the next phase's share one int
                if more:
                    for tid, change in delta.items():
                        levels[tid] += more * change
                    transferred += more * moved
                    steps += more
                t_ms = end_ms
                if more == left:
                    break
                if steps >= cap_steps:
                    raise PhaseUnreachable(
                        phase.name, cycle, "end condition not reached within 10x nominal time"
                    )
        if key is not None and first_edge == bisect_left(edges, t_ms):
            stored[key] = _StoredCycle.of(
                start_ms, t_ms, actuator_records[actuator_lo:], sensor_records[sensor_lo:],
                levels, current,
            )
    # Close the final cycle by returning to the first phase's vector.
    enter_vector(config.phases[0].actuator_vector)

    logger.debug("simulated %d cycles, replayed %d", n_cycles - len(replays), len(replays))
    log = SimulationLog(actuator_records, sensor_records)
    if replays:  # sensor_records is built on its first read
        del log.sensor_records
        log._replays, log._outside_sensors = tuple(replays), sensor_records
    return log


class InvalidRecord(MixdiagError):
    """A log record that the CSV format cannot represent."""


_CHUNK = 4096  # sorted sensor records whose lines exist at once in write_log_csv
_HELD = 1024  # distinct blocks of each kind, and id tuples, whose text write_log_csv keeps
_body = itemgetter(1)  # of a (t_ms, text) or (t_ms, lines) block


def _stamps(times: Iterable[int]) -> Iterator[str]:
    """Each of ``times``, integer milliseconds, none negative, as seconds
    with at most three fractional digits and no trailing zero, in C."""
    texts = map("%d.%03d".__mod__, map(divmod, times, repeat(1000)))
    return map(str.rstrip, map(str.rstrip, texts, repeat("0")), repeat("."))


def _csv_field(text: str) -> str:
    """Quote ``text`` where ``csv.writer(lineterminator="\\n")`` would."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _fields(ids: tuple[str, ...]) -> tuple[str, ...]:
    """Each of ``ids`` quoted for CSV."""
    return tuple(map(_csv_field, ids))


def _tails(form: str, fields: Callable, ids: tuple[str, ...], packed: bytes) -> list[str]:
    """The lines of a block without their stamp, ``form % (quoted id,
    value)`` for each id and double packed in ``packed``, ordered by id and
    then by the value's repr, which orders an actuator's 0.0 and 1.0 as
    their ``%d`` text.  The list starts with ``""``, so that a stamp joins
    it into the block's text.  ``fields`` is :func:`_fields`, cached."""
    values = array("d", packed)
    if any(map(ge, ids, ids[1:])):  # a tie, or ids out of order
        ids, _, values = zip(*sorted(zip(ids, map(repr, values), values)))
    return ["", *map(form.__mod__, zip(fields(ids), values))]


def _lines(records: list[tuple], values: Iterable, tails: Callable) -> list[tuple[int, list[str]]]:
    """``(t_ms, lines)`` of each millisecond of ``records``, which are sorted
    by time and write ``values``.

    The records of a millisecond are its block.  Its lines are ``tails(ids,
    packed)``, of its ids and its values packed as doubles, both in record
    order, so -0.0 and 0.0 key apart.  With ``tails`` cached, each distinct
    block's lines are built once, and the rest is a few passes in C per
    record and per millisecond."""
    times = list(map(_time, records))
    ids = tuple(map(_id, records))
    packed = pack(f"{len(records)}d", *values)
    bounds = [*compress(count(), map(ne, times, chain([None], times))), len(times)]
    octets = list(map(mul, bounds, repeat(8)))
    lines = map(
        tails,
        map(ids.__getitem__, map(slice, bounds, bounds[1:])),
        map(packed.__getitem__, map(slice, octets, octets[1:])),
    )
    return list(zip(map(times.__getitem__, bounds[:-1]), lines))


def _blocks(records: list[tuple], values: Iterable, tails: Callable) -> list[tuple[int, str]]:
    """``(t_ms, text)`` of each millisecond block of ``records`` (see
    :func:`_lines`), each of its lines stamped with the block's time."""
    blocks = _lines(records, values, tails)
    starts = list(map(_time, blocks))
    return list(zip(starts, map(str.join, _stamps(starts), map(_body, blocks))))


def _outside(records: list[tuple], inside: Iterable[slice]) -> list[tuple]:
    """``records`` less the index ranges ``inside``, which are disjoint and
    in order, sorted by time."""
    inside = list(inside)
    starts = [0, *map(attrgetter("stop"), inside)]
    stops = [*map(attrgetter("start"), inside), len(records)]
    kept = chain.from_iterable(map(records.__getitem__, map(slice, starts, stops)))
    return sorted(kept, key=_time)


def _cycle_blocks(
    replay: _Replay, actuator_tails: Callable, sensor_tails: Callable
) -> tuple[list[int], list[str], list[list[str]]]:
    """The millisecond blocks of ``replay``'s records strictly inside its
    window, read from its stored cycle, in time order: the whole seconds of
    each block's time less those of the replay's start, its stamp's
    fraction (``".4"``, or ``""`` on a whole second), and its lines (see
    :func:`_lines`)."""
    cycle = replay.cycle
    actuators, sensors = cycle.actuators[cycle.inside[0]], cycle.sensors[cycle.inside[1]]
    blocks = sorted(  # each block's time is the index of its offset in cycle.offsets
        _lines(actuators, map(truth, map(_value, actuators)), actuator_tails)
        + _lines(sensors, map(_value, sensors), sensor_tails),
        key=_time,
    )
    times = list(
        map(add, map(cycle.offsets.__getitem__, map(_time, blocks)), repeat(replay.start_ms))
    )
    offsets = map(sub, map(floordiv, times, repeat(1000)), repeat(replay.start_ms // 1000))
    fractions = map(str.removeprefix, _stamps(map(mod, times, repeat(1000))), repeat("0"))
    return list(offsets), list(fractions), list(map(_body, blocks))


def _insides(
    replays: tuple[_Replay, ...], actuator_tails: Callable, sensor_tails: Callable
) -> list[tuple[int, str]]:
    """``(start_ms, text)`` of the records strictly inside each of
    ``replays``' windows, in time order.

    Two replays of one stored cycle start a whole number of seconds apart,
    so their lines differ only in the whole seconds of their stamps.  Each
    cycle's blocks are built once, from its last replay.  Nested maps
    re-stamp them in C for each replay, one ``str.join`` per block, each
    stamp the replay's start second plus the block's offset, then the
    block's fraction."""
    if not replays:
        return []
    cycles, starts = list(zip(*replays))[:2]
    blocks = {
        cycle: _cycle_blocks(replay, actuator_tails, sensor_tails)
        for cycle, replay in dict(zip(cycles, replays)).items()
    }
    offsets, fractions, lines = zip(*map(blocks.__getitem__, cycles))
    whole = map(map, repeat(add), offsets, map(repeat, map(floordiv, starts, repeat(1000))))
    stamps = map(map, repeat(add), map(map, repeat(str), whole), fractions)
    return list(zip(starts, map("".join, map(map, repeat(str.join), stamps, lines))))


def write_log_csv(log: SimulationLog) -> str:
    """Serialize a log to CSV, sorted by time, then record kind, then id.

    Records that repeat the same time, kind and id are ordered by the text
    of their value.  An id is quoted exactly where ``csv.writer`` with
    ``lineterminator="\\n"`` quotes it: when it holds ``,``, ``"`` or
    ``\\n``, with each ``"`` doubled; a ``\\r`` is written as it is.  A
    record with a negative time raises :class:`InvalidRecord`.

    The records strictly inside a replayed cycle's window are written from
    their stored cycle's blocks, re-stamped (see :func:`_insides`), so a
    simulated log's ``sensor_records`` is not built.  The rest are written
    one millisecond block at a time: the records of one time and kind,
    whose lines are built once per distinct block (see :func:`_blocks`),
    of which the last ``_HELD`` of each kind are kept.  The rest's sensor
    records, sorted by time, are written ``_CHUNK`` at a time, each chunk
    cut back to the first record of the millisecond at its end, so that
    only one chunk's blocks exist at once and no millisecond spans two
    chunks.  A chunk whose first millisecond holds more records runs to
    the end of that millisecond.
    """
    actuators = _outside(log.actuator_records, map(attrgetter("actuators"), log._replays))
    sensors = log.sensor_records if log._outside_sensors is None else log._outside_sensors
    sensors = sorted(sensors, key=_time)
    for first in actuators[:1] + sensors[:1]:
        if first[0] < 0:
            raise InvalidRecord(f"record {first!r} has a negative time")
    fields = lru_cache(_HELD)(_fields)
    actuator_tails = lru_cache(_HELD)(partial(_tails, ",actuator,%s,%d\n", fields))
    sensor_tails = lru_cache(_HELD)(partial(_tails, ",sensor,%s,%r\n", fields))
    insides = _insides(log._replays, actuator_tails, sensor_tails)
    actuator_blocks = _blocks(actuators, map(truth, map(_value, actuators)), actuator_tails)
    pieces = [",".join(LOG_HEADER) + "\n"]
    written = placed = 0  # actuator blocks and insides in pieces
    lo = 0
    while lo < len(sensors):
        hi = lo + _CHUNK
        if hi < len(sensors):
            cut = bisect_left(sensors, sensors[hi][0], lo, hi, key=_time)
            hi = cut if cut > lo else bisect_right(sensors, sensors[lo][0], hi, key=_time)
        chunk = sensors[lo:hi]
        blocks = _blocks(chunk, map(_value, chunk), sensor_tails)
        last = blocks[-1][0]
        end = bisect_right(actuator_blocks, last, written, key=_time)
        inner = bisect_right(insides, last, placed, key=_time)
        # A millisecond's actuator block goes before its sensor block, and
        # both before the inside of a replay that starts there: the sort is
        # stable.
        blocks = actuator_blocks[written:end] + blocks + insides[placed:inner]
        pieces += map(_body, sorted(blocks, key=_time))
        written, placed, lo = end, inner, hi
    pieces += map(_body, sorted(actuator_blocks[written:] + insides[placed:], key=_time))
    return "".join(pieces)
