"""The benchmark's tracer still finds every function it wraps.

``bench/tracing.py`` wraps each of its ``TARGETS`` where callers look it
up: a module attribute, or a method in its class's ``__dict__``.  A moved
or renamed function leaves the wrapper where no caller looks, and its span
silently reads zero.  These tests read the tracer and change nothing in it.
"""

import importlib.util
from pathlib import Path

from mixdiag import Query, Var, iri, pipeline

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_an_attribute_of_its_owner():
    tracing = _tracing()
    missing = [
        (name, attr) for name, owner, attr, _ in tracing.TARGETS if attr not in owner.__dict__
    ]
    assert missing == []


def test_a_traced_run_and_an_observation_query_record_every_span(tmp_path):
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # through the module, where the wrapper is installed
        result = pipeline.run_pipeline("blockage", tmp_path, train_cycles=10, seed=42)
        query = Query(("o",), ((Var("o"), iri("sosa:madeBySensor"), iri("ex:L204")),))
        assert result.graph.query(query)
    finally:
        tracer.uninstall()
    names = {name for name, *_ in tracing.TARGETS}
    assert len(names) == 20
    assert {span[0] for span in tracer.spans} == names
    assert not tracer.errors
