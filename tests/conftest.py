"""Shared fixtures: one simulated plant, learned once per session."""

import pytest

from mixdiag.automaton import learn
from mixdiag.events import split_cycles, to_trace
from mixdiag.config import FaultSpec
from mixdiag.plant import default_config, simulate


@pytest.fixture(scope="session")
def config():
    return default_config()


@pytest.fixture(scope="session")
def train_log(config):
    return simulate(config, 10, (), 42)


@pytest.fixture(scope="session")
def train_trace(config, train_log):
    return to_trace(train_log, config)


@pytest.fixture(scope="session")
def cycle_traces(train_trace):
    return split_cycles(train_trace, train_trace.initial_vector)


@pytest.fixture(scope="session")
def automaton(cycle_traces):
    # Session-shared: tests must not mutate this instance.
    return learn(cycle_traces)


@pytest.fixture(scope="session")
def blockage_log(config):
    return simulate(config, 1, (FaultSpec("blockage", "P201", 0.5),), 42)


@pytest.fixture(scope="session")
def leakage_log(config):
    return simulate(config, 1, (FaultSpec("leakage", "B204", 0.02),), 42)


def state_by_active(automaton, *actuator_ids):
    """The id of the unique state whose active actuators are exactly these."""
    wanted = tuple(sorted(actuator_ids))
    matches = [s.id for s in automaton.states.values() if s.vector.active() == wanted]
    assert len(matches) == 1, f"no unique state with active={wanted}"
    return matches[0]
