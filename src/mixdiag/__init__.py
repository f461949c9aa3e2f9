"""Diagnosis toolkit for a simulated five-tank mixing module.

The package simulates the plant, learns a timed automaton from actuator
event logs, flags timing anomalies against the learned envelope, and keeps
both the engineering knowledge and the learned artifacts in a small
knowledge graph that technician reports are generated from.
"""

from .anomalies import (
    Anomaly,
    DetectionSettings,
    TIMING_ABOVE_MAX,
    TIMING_BELOW_MIN,
    UNKNOWN_EVENT,
    UNKNOWN_STATE,
    detect,
)
from .annotate import annotate_anomalies, annotate_automaton, rebuild_automaton
from .automaton import State, TimedAutomaton, Transition, deserialize, learn, serialize
from .catalog import CqCatalog, CqItem, default_catalog, validate_catalog
from .errors import MixdiagError, ParseError
from .events import ActuatorVector, EventTrace, parse_log, split_cycles, to_trace
from .kg import KnowledgeGraph
from .mappings import MappingRule, apply_mappings
from .ntriples import parse_ntriples, serialize_ntriples
from .pipeline import PipelineResult, run_pipeline
from .plant import (
    FaultSpec,
    PhaseUnreachable,
    PlantConfig,
    SimulationLog,
    config_from_json,
    config_to_json,
    default_config,
    simulate,
    write_log_csv,
)
from .query import Filter, Query
from .report import Report
from .terms import Iri, Literal, Triple, Var, iri
from .virtual import VirtualBinding

__version__ = "0.1.0"

__all__ = [
    "ActuatorVector",
    "Anomaly",
    "CqCatalog",
    "CqItem",
    "DetectionSettings",
    "EventTrace",
    "FaultSpec",
    "Filter",
    "Iri",
    "KnowledgeGraph",
    "Literal",
    "MappingRule",
    "MixdiagError",
    "ParseError",
    "PhaseUnreachable",
    "PipelineResult",
    "PlantConfig",
    "Query",
    "Report",
    "SimulationLog",
    "State",
    "TimedAutomaton",
    "Transition",
    "Triple",
    "TIMING_ABOVE_MAX",
    "TIMING_BELOW_MIN",
    "UNKNOWN_EVENT",
    "UNKNOWN_STATE",
    "Var",
    "VirtualBinding",
    "annotate_anomalies",
    "annotate_automaton",
    "apply_mappings",
    "config_from_json",
    "config_to_json",
    "default_catalog",
    "default_config",
    "deserialize",
    "detect",
    "iri",
    "learn",
    "parse_log",
    "parse_ntriples",
    "rebuild_automaton",
    "run_pipeline",
    "serialize",
    "serialize_ntriples",
    "simulate",
    "split_cycles",
    "to_trace",
    "validate_catalog",
    "write_log_csv",
]
