"""The plant description: its model, its checks and its JSON form.

A :class:`PlantConfig` holds a plant's tanks, actuators, sensors, flow
rates, phases and integration step, and a :class:`FaultSpec` a fault to
inject.  ``validate`` on either raises :class:`ConfigError` where
:func:`mixdiag.plant.simulate` could not run them.
"""

import math
from dataclasses import asdict, dataclass
from typing import Mapping

from .errors import MixdiagError, ParseError, dump_json, number, parse_json, reading, typed

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
        # the simulator reads a level from a tank and a flow from an
        # actuator's rate; a temperature is ambient wherever it is read
        for s in self.sensors:
            if s.attached_to not in tanks | acts:
                raise ConfigError(f"sensor {s.id}: unknown attachment {s.attached_to!r}")
            if s.kind not in ("level", "flow", "temperature"):
                raise ConfigError(f"sensor {s.id}: unknown kind {s.kind!r}")
            if s.kind == "level" and s.attached_to not in tanks:
                raise ConfigError(f"sensor {s.id}: a level sensor must be on a tank")
            if s.kind == "flow" and s.attached_to not in acts:
                raise ConfigError(f"sensor {s.id}: a flow sensor must be on an actuator")
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


_END_CONDITIONS = {  # a JSON end condition's reader, by its "kind", the class name
    "TimerElapsed": lambda raw: TimerElapsed(number(raw["seconds"])),
    "LevelReached": lambda raw: LevelReached(typed(raw["tank"], str), number(raw["liters"])),
    "VolumeTransferred": lambda raw: VolumeTransferred(number(raw["liters"])),
}


def _end_condition_from_dict(raw: dict) -> EndCondition:
    read = _END_CONDITIONS.get(raw.get("kind"))
    if read is None:
        raise ParseError(f"unknown end condition kind {raw.get('kind')!r}")
    return read(raw)


def config_to_json(config: PlantConfig) -> str:
    doc = asdict(config)
    for phase, raw in zip(config.phases, doc["phases"]):
        raw["end_condition"]["kind"] = type(phase.end_condition).__name__
    return dump_json(doc)


def config_from_json(text: str) -> PlantConfig:
    doc = parse_json(text)
    with reading("bad plant config"):
        config = PlantConfig(
            tanks=tuple(
                Tank(typed(t["id"], str), number(t["capacity_l"]), number(t["initial_l"]))
                for t in doc["tanks"]
            ),
            actuators=tuple(
                Actuator(
                    typed(a["id"], str),
                    typed(a["kind"], str),
                    a.get("from_tank"),
                    a.get("to_tank"),
                )
                for a in doc["actuators"]
            ),
            sensors=tuple(
                Sensor(
                    typed(s["id"], str),
                    typed(s["kind"], str),
                    typed(s["attached_to"], str),
                    typed(s["observes_property"], str),
                )
                for s in doc["sensors"]
            ),
            flows={k: number(v) for k, v in doc["flows"].items()},
            phases=tuple(
                Phase(
                    typed(p["name"], str),
                    {k: typed(v, bool) for k, v in p["actuator_vector"].items()},
                    _end_condition_from_dict(p["end_condition"]),
                )
                for p in doc["phases"]
            ),
            dt_s=number(doc["dt_s"]),
        )
    config.validate()
    return config
