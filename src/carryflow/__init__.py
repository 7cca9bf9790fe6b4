"""Opportunistic-network workflow offloading simulator.

Workflows of chained service calls are carried through a delay-tolerant
network as store-carry-forward bundles, assigned to workers either ahead of
time or just in time by capability-rated selection strategies, executed on
synthetic service profiles, and accounted per phase into reproducible
reports.

The top level holds what a script needs to run scenarios and wire a world
by hand; everything else is imported from its submodule.
"""

from .announce import CapabilityVector, OfferMemo
from .assignment import Strategy
from .harness import run_scenario, run_suite, summarize
from .nodes import Node
from .report import Collector, ExperimentReport, selection_entropy
from .runtime import FaultPlan, ServiceDefinition
from .scenario import RunSettings, ScenarioError
from .simnet import LinkModel, World
from .workflow import WorkflowParseError

__version__ = "0.1.0"

__all__ = [
    "CapabilityVector", "Collector", "ExperimentReport", "FaultPlan",
    "LinkModel", "Node", "OfferMemo", "RunSettings", "ScenarioError",
    "ServiceDefinition", "Strategy", "World", "WorkflowParseError",
    "run_scenario", "run_suite", "selection_entropy", "summarize",
]
