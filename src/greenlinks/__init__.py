"""Desk-scale simulator and library for intermittency-aware rural
cellular edge services: topology and failure modeling, identity
management, lazy/immediate sync primitives, crowd-sensed whitespace
detection and the SMS-first applications built on top."""

from .errors import GreenLinksError, ScenarioError
from .simcore import Simulation, evaluate_dual, identity_latency_bench
from .topology import build_topology

__all__ = [
    "GreenLinksError",
    "ScenarioError",
    "Simulation",
    "build_topology",
    "evaluate_dual",
    "identity_latency_bench",
]

__version__ = "0.1.0"
