"""Shared fixtures: hand-built micro worlds for protocol-level tests.

Scenario-file tests and the acceptance suite drive the real harness; the
fixtures here wire a handful of nodes onto a static line or ring so the
protocol paths (announce, offload, execute, error, cleanup) can be exercised
with exact arithmetic and without any mobility noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from carryflow.announce import CapabilityVector
from carryflow.assignment import Strategy
from carryflow.nodes import Node
from carryflow.report import Collector
from carryflow.runtime import FaultPlan, ServiceDefinition
from carryflow.scenario import RunSettings
from carryflow.simnet import LinkModel, World

# fast link so micro tests spend almost no simulated time in transit
FAST_LINK = LinkModel(bandwidth_bps=1e9, latency_s=0.001)

BIG_CAPS = dict(cpu=8.0, memory=8192.0, disk=65536.0, energy=1000.0)


def service(name: str, *, mean: float = 0.2, jitter: float = 0.0,
            output: int = 1000, energy: float = 1.0) -> ServiceDefinition:
    return ServiceDefinition(name=name, exec_seconds_mean=mean,
                             exec_seconds_jitter=jitter,
                             output_size_bytes=output, energy_cost_e=energy,
                             output_ext="out")


@dataclass
class MicroWorld:
    world: World
    collector: Collector
    nodes: dict[int, Node]

    def node(self, addr: int) -> Node:
        return self.nodes[addr]

    def settle(self, seconds: float = 1.0) -> None:
        """Run long enough for announcements to flood the topology."""
        self.world.run_until(self.world.now + seconds)


def build_line(n: int, services_by_addr: dict[int, dict[str, ServiceDefinition]],
               *, strategy: Strategy = Strategy.BEST, link: LinkModel = FAST_LINK,
               caps_by_addr: dict[int, dict[str, float]] | None = None,
               fault_plan: FaultPlan = FaultPlan(), seed: int = 7,
               announce_interval_s: float = 2.0,
               offer_expiry_s: float = 120.0) -> MicroWorld:
    """Nodes 1..n in a chain, 10 m apart, announcing from t=0."""
    adjacency = [(i, i + 1) for i in range(1, n)]
    world = World(link, tick_interval=0.5, adjacency=adjacency)
    collector = Collector()
    run = RunSettings(seed=seed, strategy=strategy, preprocess_s=0.01,
                      postprocess_s=0.01, announce_interval_s=announce_interval_s,
                      offer_expiry_s=offer_expiry_s, fault=fault_plan)
    caps_by_addr = caps_by_addr or {}
    nodes: dict[int, Node] = {}
    for addr in range(1, n + 1):
        caps = CapabilityVector(position=(10.0 * addr, 0.0),
                                **{**BIG_CAPS, **caps_by_addr.get(addr, {})})
        nodes[addr] = Node(addr, world, collector, run, caps,
                           services_by_addr.get(addr, {}))
    return MicroWorld(world=world, collector=collector, nodes=nodes)


@pytest.fixture
def line3() -> MicroWorld:
    """Client at 1, two workers offering `work` at 2 and 3."""
    svc = service("work")
    return build_line(3, {2: {"work": svc}, 3: {"work": svc}})
