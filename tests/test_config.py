"""The plant description's checks: a description they accept can run."""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from mixdiag.cli import main
from mixdiag.config import ConfigError, config_from_json, config_to_json
from mixdiag.errors import MixdiagError, ParseError
from mixdiag.plant import AMBIENT_TEMPERATURE_C, default_config, simulate

DOC = json.loads(config_to_json(default_config()))
TANKS = [t["id"] for t in DOC["tanks"]]
ACTUATORS = [a["id"] for a in DOC["actuators"]]


def _edited(doc: dict, edits) -> str:
    """``doc`` as JSON text, with the node at each ``(path, value)`` of
    ``edits`` set to its value."""
    doc = copy.deepcopy(doc)
    for path, value in edits:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return json.dumps(doc)


def _sensor(sensor_id: str) -> int:
    return [s["id"] for s in DOC["sensors"]].index(sensor_id)


ON_A_TANK = "a level sensor must be on a tank"
ON_AN_ACTUATOR = "a flow sensor must be on an actuator"
SENSORS_THE_SIMULATOR_CANNOT_READ = [
    pytest.param("L201", "attached_to", "V201", ON_A_TANK, id="level-on-valve"),
    pytest.param("L201", "attached_to", "M201", ON_A_TANK, id="level-on-stirrer"),
    pytest.param("F201", "attached_to", "B204", ON_AN_ACTUATOR, id="flow-on-tank"),
    pytest.param("L201", "kind", "pressure", "unknown kind 'pressure'", id="unknown-kind"),
]


@pytest.mark.parametrize("sensor, key, value, message", SENSORS_THE_SIMULATOR_CANNOT_READ)
def test_config_from_json_rejects_a_sensor_the_simulator_cannot_read(sensor, key, value, message):
    """A level sensor on an actuator raised a bare KeyError in ``simulate``,
    a flow sensor on a tank logged 0.0 and an unknown kind logged the
    ambient temperature."""
    text = _edited(DOC, [(("sensors", _sensor(sensor), key), value)])
    with pytest.raises(ConfigError, match=f"sensor {sensor}: {message}"):
        config_from_json(text)


@pytest.mark.parametrize("sensor, key, value, message", SENSORS_THE_SIMULATOR_CANNOT_READ)
def test_cli_simulate_rejects_a_sensor_the_simulator_cannot_read(
    sensor, key, value, message, tmp_path, capsys
):
    path = tmp_path / "plant.json"
    path.write_text(_edited(DOC, [(("sensors", _sensor(sensor), key), value)]), encoding="utf-8")
    out = tmp_path / "log.csv"
    assert main(["simulate", "--config", str(path), "--cycles", "1", "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: sensor {sensor}: {message}"
    assert not out.exists()


def test_a_temperature_sensor_may_sit_on_an_actuator():
    config = config_from_json(_edited(DOC, [(("sensors", _sensor("T201"), "attached_to"), "P201")]))
    log = simulate(config, 1)
    assert {v for _, sid, v in log.sensor_records if sid == "T201"} == {AMBIENT_TEMPERATURE_C}


def _edit(values, *path):
    """An edit that sets the node at ``path``, whose keys may be strategies,
    to one of ``values``."""
    keys = (st.just(key) if isinstance(key, str) else key for key in path)
    return st.tuples(st.tuples(*keys), st.sampled_from(values))


_SENSOR, _ACTUATOR, _PHASE = (
    st.integers(0, len(DOC[key]) - 1) for key in ("sensors", "actuators", "phases")
)
_LEVEL_PHASE = st.sampled_from(
    [i for i, p in enumerate(DOC["phases"]) if p["end_condition"]["kind"] == "LevelReached"]
)
_END = st.sampled_from(["from_tank", "to_tank"])
_UNKNOWN = "X999"
# One edit of the description's structure.  Durations and rates are left
# alone, so every run that starts stays short.
_EDITS = st.one_of(
    _edit(["level", "flow", "temperature", "pressure"], "sensors", _SENSOR, "kind"),
    _edit([*TANKS, *ACTUATORS, _UNKNOWN], "sensors", _SENSOR, "attached_to"),
    _edit([*TANKS, None, _UNKNOWN], "actuators", _ACTUATOR, _END),
    _edit([True, False], "phases", _PHASE, "actuator_vector", st.sampled_from(ACTUATORS)),
    _edit([*TANKS, _UNKNOWN], "phases", _LEVEL_PHASE, "end_condition", "tank"),
)


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(_EDITS, max_size=8))
def test_a_description_that_loads_can_run(edits):
    """A description that ``config_from_json`` accepts runs a cycle or
    raises a MixdiagError; any other exception fails the test."""
    try:
        config = config_from_json(_edited(DOC, edits))
    except (ParseError, ConfigError):
        return
    try:
        simulate(config, 1)
    except MixdiagError:
        pass
