"""Discrete-time simulation of a small batch mixing plant.

The plant is a tank network driven through a fixed phase sequence.  Valves
and pumps move liquid at constant rates; explicit Euler integration at
``dt_s`` advances tank levels.  The simulator emits an event log: one
actuator record per signal change and one sensor snapshot per simulated
second.

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
* Levels are clamped to ``[0, capacity]`` by limiting each transfer to what
  the source holds and the target can still take.
* Tanks that only ever feed flows (never receive one) are refilled to their
  initial level at each cycle start, so arbitrarily many cycles can run.
* A phase that has not finished after ten times its nominal duration raises
  :class:`PhaseUnreachable`.  The nominal duration uses unfaulted rates, so
  a blockage multiplier at or below 0.1 trips the cap by design.
* A cycle after the first that starts from the same tank levels, actuator
  vector, sensor-sampling phase (``t_ms % 1000``) and fault activity as an
  earlier simulated cycle is replayed: the earlier cycle's records are
  re-emitted shifted in time, without integrating.  This holds only without
  noise and without an ``on_step`` hook, and only when no fault starts or
  ends strictly inside either cycle's window, so the log is byte-identical
  to a stepwise run.
"""

from __future__ import annotations

import logging
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, asdict
from itertools import compress, count, islice
from operator import gt
from typing import Callable, Iterable, Mapping

from .errors import MixdiagError, ParseError, dump_json, parse_json

logger = logging.getLogger(__name__)

AMBIENT_TEMPERATURE_C = 20.0

LOG_HEADER = ("t_s", "kind", "id", "value")

_UL_PER_L = 1_000_000


def _ul(liters: float) -> int:
    """Liters to integer microliters."""
    return round(liters * _UL_PER_L)


class ConfigError(MixdiagError):
    """A plant configuration violates a structural invariant."""


def _require_finite(what: str, value: float, scale: float) -> None:
    """Reject NaN, infinity and values that overflow once scaled to the
    integer unit (milliseconds or microliters) the simulator rounds them to."""
    if not math.isfinite(value * scale):
        raise ConfigError(f"{what} must be finite, got {value!r}")


class PhaseUnreachable(MixdiagError):
    """A phase failed to meet its end condition within 10x nominal time."""

    def __init__(self, phase: str, cycle: int, reason: str):
        self.phase = phase
        self.cycle = cycle
        super().__init__(f"phase {phase!r} (cycle {cycle}): {reason}")


@dataclass(frozen=True)
class Tank:
    id: str
    capacity_l: float
    initial_l: float


@dataclass(frozen=True)
class Actuator:
    """A flow element.  ``from_tank``/``to_tank`` give the pipe's endpoints.

    ``None`` on the source side means an external supply, ``None`` on the
    target side means the flow leaves the plant.  An actuator without flow
    entry (a stirrer) moves nothing.
    """

    id: str
    kind: str  # valve | pump | stirrer
    from_tank: str | None = None
    to_tank: str | None = None


@dataclass(frozen=True)
class Sensor:
    """``attached_to`` names a tank, or the actuator whose pipe it sits on."""

    id: str
    kind: str  # level | flow | temperature
    attached_to: str
    observes_property: str


@dataclass(frozen=True)
class TimerElapsed:
    seconds: float


@dataclass(frozen=True)
class LevelReached:
    tank: str
    liters: float


@dataclass(frozen=True)
class VolumeTransferred:
    liters: float


EndCondition = TimerElapsed | LevelReached | VolumeTransferred


@dataclass(frozen=True)
class Phase:
    name: str
    actuator_vector: Mapping[str, bool]
    end_condition: EndCondition


@dataclass(frozen=True)
class PlantConfig:
    tanks: tuple[Tank, ...]
    actuators: tuple[Actuator, ...]
    sensors: tuple[Sensor, ...]
    flows: Mapping[str, float]
    phases: tuple[Phase, ...]
    dt_s: float

    def dt_ms(self) -> int:
        ms = round(self.dt_s * 1000)
        if ms < 1 or abs(self.dt_s * 1000 - ms) > 1e-6:
            raise ConfigError("dt_s must be a positive multiple of 0.001 s")
        return ms

    def tank_ids(self) -> set[str]:
        return {t.id for t in self.tanks}

    def actuator_ids(self) -> set[str]:
        return {a.id for a in self.actuators}

    def source_tank_ids(self) -> set[str]:
        """Tanks that feed flows but never receive one (refilled per cycle)."""
        froms = {a.from_tank for a in self.actuators if a.from_tank}
        tos = {a.to_tank for a in self.actuators if a.to_tank}
        return froms - tos

    def validate(self) -> None:
        tank_ids = [t.id for t in self.tanks]
        if len(set(tank_ids)) != len(tank_ids):
            raise ConfigError("duplicate tank id")
        act_ids = [a.id for a in self.actuators]
        if len(set(act_ids)) != len(act_ids):
            raise ConfigError("duplicate actuator id")
        sensor_ids = [s.id for s in self.sensors]
        if len(set(sensor_ids)) != len(sensor_ids):
            raise ConfigError("duplicate sensor id")
        tanks = set(tank_ids)
        acts = set(act_ids)
        for t in self.tanks:
            _require_finite(f"tank {t.id}: capacity", t.capacity_l, _UL_PER_L)
            if not (0.0 <= t.initial_l <= t.capacity_l):
                raise ConfigError(f"tank {t.id}: initial level outside [0, capacity]")
        for a in self.actuators:
            for side in (a.from_tank, a.to_tank):
                if side is not None and not (isinstance(side, str) and side in tanks):
                    raise ConfigError(f"actuator {a.id}: unknown tank {side!r}")
        for s in self.sensors:
            if s.attached_to not in tanks | acts:
                raise ConfigError(f"sensor {s.id}: unknown attachment {s.attached_to!r}")
        for aid, rate in self.flows.items():
            if aid not in acts:
                raise ConfigError(f"flow for unknown actuator {aid!r}")
            _require_finite(f"flow rate for {aid}", rate, _UL_PER_L)
            if rate <= 0:
                raise ConfigError(f"flow rate for {aid} must be positive")
        if not self.phases:
            raise ConfigError("at least one phase is required")
        for p in self.phases:
            for aid in p.actuator_vector:
                if aid not in acts:
                    raise ConfigError(f"phase {p.name}: unknown actuator {aid!r}")
            cond = p.end_condition
            if isinstance(cond, TimerElapsed):
                _require_finite(f"phase {p.name}: timer", cond.seconds, 1000)
            else:
                _require_finite(f"phase {p.name}: liters", cond.liters, _UL_PER_L)
            if isinstance(cond, LevelReached) and cond.tank not in tanks:
                raise ConfigError(f"phase {p.name}: unknown tank {cond.tank!r}")
            if isinstance(cond, TimerElapsed) and cond.seconds <= 0:
                raise ConfigError(f"phase {p.name}: timer must be positive")
            if isinstance(cond, VolumeTransferred) and cond.liters <= 0:
                raise ConfigError(f"phase {p.name}: volume must be positive")
        _require_finite("dt_s", self.dt_s, 1000)
        self.dt_ms()


@dataclass(frozen=True)
class FaultSpec:
    """An injected fault.

    ``leakage`` drains ``magnitude`` liters per second from a target tank
    while its level is above zero; ``blockage`` multiplies the target
    actuator's flow rate by ``magnitude`` (0 < magnitude < 1).  A fault is
    active from ``onset_s`` for ``duration_s`` seconds, or indefinitely when
    ``duration_s`` is None.
    """

    kind: str  # leakage | blockage
    target: str
    magnitude: float
    onset_s: float = 0.0
    duration_s: float | None = None

    def validate(self, config: PlantConfig) -> None:
        _require_finite("fault magnitude", self.magnitude, _UL_PER_L)
        _require_finite("fault onset", self.onset_s, 1000)
        if self.duration_s is not None:
            _require_finite("fault duration", self.duration_s, 1000)
        if self.kind == "leakage":
            if self.target not in config.tank_ids():
                raise ConfigError(f"leakage target {self.target!r} is not a tank")
            if self.magnitude <= 0:
                raise ConfigError("leakage magnitude must be positive")
        elif self.kind == "blockage":
            if self.target not in config.flows:
                raise ConfigError(f"blockage target {self.target!r} has no flow")
            if not (0.0 < self.magnitude < 1.0):
                raise ConfigError("blockage multiplier must be in (0, 1)")
        else:
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        if self.onset_s < 0:
            raise ConfigError("fault onset must be >= 0")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ConfigError("fault duration must be positive or None")


@dataclass
class SimulationLog:
    """Actuator records ``(t_ms, actuator_id, value: bool)`` and sensor
    records ``(t_ms, sensor_id, value: float)``, each a plain tuple."""

    actuator_records: list[tuple[int, str, bool]]
    sensor_records: list[tuple[int, str, float]]


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


@dataclass
class _StoredCycle:
    """A simulated cycle kept for replay: its window, the state it ended in
    and the index ranges of its records in the output lists."""

    start_ms: int
    duration_ms: int
    actuator_span: tuple[int, int]
    sensor_span: tuple[int, int]
    levels: dict[str, int]
    vector: dict[str, bool]

    def replay(
        self,
        start_ms: int,
        actuator_records: list[tuple[int, str, bool]],
        sensor_records: list[tuple[int, str, float]],
    ) -> None:
        """Append this cycle's records again, shifted to start at ``start_ms``."""
        shift = start_ms - self.start_ms
        actuators = actuator_records[slice(*self.actuator_span)]
        sensors = sensor_records[slice(*self.sensor_span)]
        actuator_records.extend([(t + shift, i, v) for t, i, v in actuators])
        sensor_records.extend([(t + shift, i, v) for t, i, v in sensors])


def _fault_boundary_inside(prepared: list[_PreparedFault], lo_ms: int, hi_ms: int) -> bool:
    """Whether a fault starts or ends strictly inside ``(lo_ms, hi_ms)``."""
    return any(
        lo_ms < b < hi_ms for f in prepared for b in (f.onset_ms, f.end_ms) if b is not None
    )


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
    step, which lets callers audit mass conservation exactly.

    ``noise_sigma`` adds Gaussian noise to sensor values only; actuator
    records are always noise free.  With the default of zero the run is
    byte-deterministic regardless of seed.  A NaN, infinite or negative
    ``noise_sigma``, or one so large that a noisy sample is not finite,
    raises :class:`ConfigError`.
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

    actuator_records: list[tuple[int, str, bool]] = []
    sensor_records: list[tuple[int, str, float]] = []
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
                if not math.isfinite(value):
                    raise ConfigError(f"noise_sigma {noise_sigma!r} gives a non-finite sample")
            sensor_records.append((t_ms, s.id, value))

    sample_sensors({})
    establishing = True
    # Without noise or a per-step hook, a cycle is a pure function of the
    # key formed below, so a repeated key replays the stored cycle.
    replayable = noise_sigma == 0 and on_step is None
    stored: dict[tuple, _StoredCycle] = {}
    replayed = 0
    for cycle in range(n_cycles):
        for tid in source_tanks:
            delta = initial_ul[tid] - levels[tid]
            if delta > 0:
                levels[tid] = initial_ul[tid]
                pending_inflow += delta
        start_ms = t_ms
        key = None
        if replayable and not establishing:
            key = (
                tuple(levels.items()),
                tuple(current.items()),
                t_ms % 1000,
                tuple(f.active(t_ms) for f in prepared),
            )
            hit = stored.get(key)
            if hit is not None and not _fault_boundary_inside(
                prepared, start_ms, start_ms + hit.duration_ms
            ):
                hit.replay(start_ms, actuator_records, sensor_records)
                levels = dict(hit.levels)
                current = dict(hit.vector)
                t_ms = start_ms + hit.duration_ms
                pending_inflow = 0
                replayed += 1
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
        if key is not None and not _fault_boundary_inside(prepared, start_ms, t_ms):
            stored[key] = _StoredCycle(
                start_ms,
                t_ms - start_ms,
                (actuator_lo, len(actuator_records)),
                (sensor_lo, len(sensor_records)),
                dict(levels),
                dict(current),
            )
    # Close the final cycle by returning to the first phase's vector.
    enter_vector(config.phases[0].actuator_vector)

    logger.debug("simulated %d cycles, replayed %d", n_cycles - replayed, replayed)
    return SimulationLog(actuator_records, sensor_records)


class InvalidRecord(MixdiagError):
    """A log record that the CSV format cannot represent."""


class _Memo(dict):
    """A dict that fills a missing key with ``fn(key)``."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def format_timestamp(t_ms: int) -> str:
    """Render integer milliseconds as seconds with at most three fractional
    digits.  Negative milliseconds raise :class:`InvalidRecord`."""
    if t_ms < 0:
        raise InvalidRecord(f"negative timestamp {t_ms} ms")
    whole, frac = divmod(t_ms, 1000)
    if frac == 0:
        return str(whole)
    return f"{whole}.{frac:03d}".rstrip("0")


def _csv_field(text: str) -> str:
    """Quote ``text`` where ``csv.writer(lineterminator="\\n")`` would."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _order_ties(records: list[tuple], lines: list[str]) -> None:
    """Put the lines of records that share time and id in text order.

    ``records`` are sorted natively, so such a run of lines is in value
    order, while a sort on the line fields puts ``10.0`` before ``9.0`` and
    ``-0.0`` before ``0.0``.  A run's lines differ only in the value text,
    and ``\\n`` sorts below every character of it, so sorting the lines
    sorts by that text.  A run out of order holds a descending pair.
    """
    for k in list(compress(count(), map(gt, lines, islice(lines, 1, None)))):
        key = records[k][:2]
        if records[k + 1][:2] != key or lines[k] <= lines[k + 1]:
            continue
        lo = hi = k
        while lo and records[lo - 1][:2] == key:
            lo -= 1
        while hi < len(records) and records[hi][:2] == key:
            hi += 1
        lines[lo:hi] = sorted(lines[lo:hi])


def write_log_csv(log: SimulationLog) -> str:
    """Serialize a log to CSV, sorted by time, then record kind, then id.

    Records that repeat the same time, kind and id are ordered by the text
    of their value.  An id is quoted exactly where ``csv.writer`` with
    ``lineterminator="\\n"`` quotes it: when it holds ``,``, ``"`` or
    ``\\n``, with each ``"`` doubled; a ``\\r`` is written as it is.  A
    record with a negative time raises :class:`InvalidRecord`.
    """
    actuators = sorted(log.actuator_records)
    sensors = sorted(log.sensor_records)
    for first in actuators[:1] + sensors[:1]:
        if first[0] < 0:
            raise InvalidRecord(f"record {first!r} has a negative time")
    # Each distinct millisecond and each distinct (id, value) is formatted
    # once.  A zero value is keyed with its sign: -0.0 == 0.0 as a key, but
    # not as text.
    stamps = _Memo(format_timestamp)
    actuator_tails = _Memo(
        lambda key: f",actuator,{_csv_field(key[0])},{'1' if key[1] else '0'}\n"
    )
    sensor_tails = _Memo(lambda key: f",sensor,{_csv_field(key[0])},{float(key[1])!r}\n")
    actuator_lines = [stamps[t] + actuator_tails[rid, v] for t, rid, v in actuators]
    sensor_lines = [
        stamps[t] + sensor_tails[(rid, v) if v else (rid, v, math.copysign(1.0, v))]
        for t, rid, v in sensors
    ]
    _order_ties(actuators, actuator_lines)
    _order_ties(sensors, sensor_lines)
    # Actuator lines go before the sensor lines of the same millisecond.
    pieces = [",".join(LOG_HEADER) + "\n"]
    start = 0
    for record, line in zip(actuators, actuator_lines):
        end = bisect_left(sensors, (record[0],), start)
        pieces += sensor_lines[start:end]
        pieces.append(line)
        start = end
    pieces += sensor_lines[start:]
    return "".join(pieces)


def _end_condition_to_dict(cond: EndCondition) -> dict:
    if isinstance(cond, TimerElapsed):
        return {"kind": "TimerElapsed", "seconds": cond.seconds}
    if isinstance(cond, LevelReached):
        return {"kind": "LevelReached", "tank": cond.tank, "liters": cond.liters}
    return {"kind": "VolumeTransferred", "liters": cond.liters}


def _end_condition_from_dict(raw: dict) -> EndCondition:
    kind = raw.get("kind")
    try:
        if kind == "TimerElapsed":
            return TimerElapsed(float(raw["seconds"]))
        if kind == "LevelReached":
            return LevelReached(str(raw["tank"]), float(raw["liters"]))
        if kind == "VolumeTransferred":
            return VolumeTransferred(float(raw["liters"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad end condition: {exc}") from None
    raise ParseError(f"unknown end condition kind {kind!r}")


def config_to_json(config: PlantConfig) -> str:
    doc = {
        "tanks": [asdict(t) for t in config.tanks],
        "actuators": [asdict(a) for a in config.actuators],
        "sensors": [asdict(s) for s in config.sensors],
        "flows": dict(sorted(config.flows.items())),
        "phases": [
            {
                "name": p.name,
                "actuator_vector": dict(sorted(p.actuator_vector.items())),
                "end_condition": _end_condition_to_dict(p.end_condition),
            }
            for p in config.phases
        ],
        "dt_s": config.dt_s,
    }
    return dump_json(doc)


def config_from_json(text: str) -> PlantConfig:
    doc = parse_json(text)
    try:
        config = PlantConfig(
            tanks=tuple(
                Tank(str(t["id"]), float(t["capacity_l"]), float(t["initial_l"]))
                for t in doc["tanks"]
            ),
            actuators=tuple(
                Actuator(
                    str(a["id"]),
                    str(a["kind"]),
                    a.get("from_tank"),
                    a.get("to_tank"),
                )
                for a in doc["actuators"]
            ),
            sensors=tuple(
                Sensor(
                    str(s["id"]),
                    str(s["kind"]),
                    str(s["attached_to"]),
                    str(s["observes_property"]),
                )
                for s in doc["sensors"]
            ),
            flows={str(k): float(v) for k, v in doc["flows"].items()},
            phases=tuple(
                Phase(
                    str(p["name"]),
                    {str(k): bool(v) for k, v in p["actuator_vector"].items()},
                    _end_condition_from_dict(p["end_condition"]),
                )
                for p in doc["phases"]
            ),
            dt_s=float(doc["dt_s"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"bad plant config: {exc}") from None
    config.validate()
    return config
