"""Deterministic discrete-event simulator for TCP congestion control over
multi-hop wireless mesh chains."""

from .cc import CcPhase, CcVars, Flavor
from .engine import RngStream, RunTrace, TraceKind, run_until
from .errors import ConfigError, ContractError, MeshTcpError, MetricUndefinedError
from .experiment import (
    ExperimentSpec,
    ResultRow,
    emit_csv,
    load_config,
    run_experiment,
    run_single,
)
from .mesh import ChainTopology, DropDirective, LinkModel, ScriptedDrops, build_chain
from .metrics import MetricsSummary, summarize
from .world import MeshWorld

__version__ = "0.1.0"

__all__ = [
    "CcPhase",
    "CcVars",
    "ChainTopology",
    "ConfigError",
    "ContractError",
    "DropDirective",
    "ExperimentSpec",
    "Flavor",
    "LinkModel",
    "MeshTcpError",
    "MeshWorld",
    "MetricUndefinedError",
    "MetricsSummary",
    "ResultRow",
    "RngStream",
    "RunTrace",
    "ScriptedDrops",
    "TraceKind",
    "build_chain",
    "emit_csv",
    "load_config",
    "run_experiment",
    "run_single",
    "run_until",
    "summarize",
]
