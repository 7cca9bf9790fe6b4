"""Experiment harness: build a world from a scenario and run it to a report.

One run wires up the topology, cohorts, and clients described by a
ScenarioConfig (`build`), then drives the event loop until every offloaded
workflow reached a terminal state (plus a grace period for cleanup traffic)
or the configured duration cap, and freezes the collector into an
ExperimentReport (`run_built`). A built world holds no closure: every event
is a bound method or a `partial` of one, so a world pickles between events
up to its first offload, and `run_built` runs a loaded copy to the same
report bytes. Suites sweep seeds and strategies and aggregate into CSV
tables.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from .announce import CapabilityVector
from .assignment import Strategy
from .bundles import NodeAddress, format_address
from .nodes import Node
from .report import (Collector, ExperimentReport, freeze_workflow,
                     selection_entropy)
from .scenario import (RingTopology, ScenarioConfig, WaypointTopology,
                       resolve_cohort_counts)
from .simnet import Position, RandomWaypoint, World

_CHUNK_S = 5.0


@dataclass
class BuiltScenario:
    world: World
    nodes: dict[NodeAddress, Node]
    clients: list[Node]
    collector: Collector


def ring_positions(n: int, spacing_m: float) -> list[Position]:
    """Node slots on a circle whose arc between neighbors is exactly spacing_m."""
    radius = n * spacing_m / (2.0 * math.pi)
    return [(radius * math.cos(2.0 * math.pi * i / n),
             radius * math.sin(2.0 * math.pi * i / n)) for i in range(n)]


def ring_arc_distance(n: int, spacing_m: float) -> partial[float]:
    """Distance along the ring between two of its slots: hops times spacing_m.

    Each end is looked up by its exact position, so no trigonometric
    function runs after `ring_positions`, and the result is exact. A
    position that is not a slot of the ring raises ValueError. The result
    is a `partial` over the slot table, so a world that rates by it pickles.
    """
    slots = {position: i for i, position in enumerate(ring_positions(n, spacing_m))}
    if len(slots) != n:
        raise ValueError(f"{n} ring slots at {spacing_m} m do not all differ")
    return partial(_arc, slots, spacing_m)


def _arc(slots: dict[Position, int], spacing_m: float, a: Position, b: Position) -> float:
    # the ring's distance from a to b, given each slot's index by position
    try:
        hops = abs(slots[a] - slots[b])
    except KeyError as exc:
        raise ValueError(f"{exc.args[0]!r} is not a slot of the ring") from None
    return min(hops, len(slots) - hops) * spacing_m


def assign_cohorts(config: ScenarioConfig) -> dict[NodeAddress, int]:
    """Map each address to a cohort index, pinned first, the rest shuffled."""
    n = config.topology.nodes
    counts = resolve_cohort_counts(config.cohorts, n)
    assignment: dict[NodeAddress, int] = {}
    for idx, cohort in enumerate(config.cohorts):
        for addr in cohort.addresses:
            assignment[addr] = idx
    pool = [addr for addr in range(1, n + 1) if addr not in assignment]
    random.Random(f"{config.run.seed}:cohorts").shuffle(pool)
    cursor = 0
    for idx, cohort in enumerate(config.cohorts):
        take = counts[idx] - len(cohort.addresses)
        for addr in pool[cursor:cursor + take]:
            assignment[addr] = idx
        cursor += take
    return assignment


def build(config: ScenarioConfig) -> BuiltScenario:
    """Instantiate world, nodes, announcements, and offload schedule."""
    topo = config.topology
    run = config.run
    n = topo.nodes
    addresses = list(range(1, n + 1))

    if isinstance(topo, RingTopology):
        positions = ring_positions(n, topo.spacing_m)
        adjacency = [(addresses[i], addresses[(i + 1) % n]) for i in range(n)]
        world = World(config.link, tick_interval=run.tick_s, adjacency=adjacency,
                      rating_distance=ring_arc_distance(n, topo.spacing_m))
    elif isinstance(topo, WaypointTopology):
        rngs = [random.Random(f"{run.seed}:mob:{addr}") for addr in addresses]
        mobility = RandomWaypoint(topo, rngs)
        positions = mobility.initial_positions()
        world = World(config.link, tick_interval=run.tick_s,
                      contact_range=topo.range_m, mobility=mobility)
    else:
        raise TypeError(f"unsupported topology {topo!r}")

    collector = Collector()
    assignment = assign_cohorts(config)
    nodes: dict[NodeAddress, Node] = {}
    clients: list[Node] = []
    for i, addr in enumerate(addresses):
        cohort = config.cohorts[assignment[addr]]
        caps = CapabilityVector(cpu=cohort.cpu, memory=cohort.memory,
                                disk=cohort.disk, energy=cohort.energy,
                                position=positions[i])
        services = {name: config.services[name] for name in cohort.services}
        node = Node(addr, world, collector, run, caps, services)
        nodes[addr] = node
        if cohort.client:
            clients.append(node)

    spec = config.workflow
    for client in clients:
        for k in range(spec.repeat):
            world.schedule(spec.offload_at + k * spec.interval_s,
                           partial(client.offload, spec.text, spec.files))

    return BuiltScenario(world=world, nodes=nodes, clients=clients,
                         collector=collector)


def run_scenario(config: ScenarioConfig, *, seed: Optional[int] = None,
                 strategy: Optional[Strategy] = None) -> ExperimentReport:
    """Run one scenario once and freeze the report."""
    config = config.with_run(seed=seed, strategy=strategy)
    return run_built(build(config), config)


def run_built(built: BuiltScenario, config: ScenarioConfig) -> ExperimentReport:
    """Run a world built from `config` to its end, freeze the report and release it.

    The world runs from wherever it stands, in chunks of `_CHUNK_S` from
    there, so one loaded from a pickle taken at a chunk boundary runs the
    same chunks as the world it was copied from.
    """
    world, collector = built.world, built.collector
    run = config.run
    expected = len(built.clients) * config.workflow.repeat

    while world.now < run.duration_s:
        world.advance(min(_CHUNK_S, run.duration_s - world.now))
        tracks = collector.tracks
        if expected and len(tracks) >= expected and all(
                t.terminal for t in tracks.values()):
            world.run_until(min(run.duration_s, world.now + run.stop_grace_s))
            break

    workflows = [freeze_workflow(collector.tracks[wid], run.strategy.value)
                 for wid in sorted(collector.tracks)]
    report = ExperimentReport(
        scenario=config.name,
        seed=run.seed,
        strategy=run.strategy.value,
        config_digest=config.digest(),
        duration_s=world.now,
        workflows=workflows,
        selections=dict(collector.selections),
        residual_energy={addr: built.nodes[addr].caps.energy
                         for addr in sorted(built.nodes)},
        expired_drops=collector.expired_drops,
        malformed_offers=0,
    )
    world.release()
    return report


# -- suites -------------------------------------------------------------------


@dataclass
class SuiteResult:
    """One scenario's reports in (strategy, seed) order, however run or read in."""

    scenario: str
    reports: list[ExperimentReport]

    def __post_init__(self) -> None:
        self.reports = sorted(self.reports, key=lambda r: (r.strategy, r.seed))

    def digest(self) -> str:
        """Covers every report, each with its own config digest."""
        blob = "\n".join(r.digest() for r in self.reports).encode()
        return hashlib.sha256(blob).hexdigest()


def run_suite(config: ScenarioConfig, seeds: Sequence[int],
              strategies: Sequence[Strategy]) -> SuiteResult:
    """Sweep seeds for each strategy; reports in (strategy, seed) order."""
    reports = [run_scenario(config, seed=seed, strategy=strategy)
               for strategy in strategies for seed in seeds]
    return SuiteResult(scenario=config.name, reports=reports)


def makespan(report_workflow) -> Optional[float]:
    if report_workflow.finished_at is None:
        return None
    return report_workflow.finished_at - report_workflow.offloaded_at


# the per-strategy aggregates, in the order summary.csv and `carryflow report` show them
SUMMARY_COLUMNS = ("runs", "workflows", "success_rate", "mean_makespan_s",
                   "mean_runtime_s", "mean_transmission_s", "mean_execution_s",
                   "selection_entropy")


def summarize(reports: Sequence[ExperimentReport]) -> dict[str, dict[str, float]]:
    """Per-strategy aggregates over a suite's reports."""
    by_strategy: dict[str, list[ExperimentReport]] = {}
    for report in reports:
        by_strategy.setdefault(report.strategy, []).append(report)
    summary: dict[str, dict[str, float]] = {}
    for strategy, group in sorted(by_strategy.items()):
        workflows = [w for r in group for w in r.workflows]
        succeeded = [w for w in workflows if w.status == "succeeded"]
        counts: dict[NodeAddress, int] = {}
        for report in group:
            for (_, worker), c in report.selections.items():
                counts[worker] = counts.get(worker, 0) + c
        summary[strategy] = {
            "runs": len(group),
            "workflows": len(workflows),
            "success_rate": len(succeeded) / len(workflows) if workflows else 0.0,
            "mean_makespan_s": _mean([makespan(w) for w in succeeded]),
            "mean_runtime_s": _mean([w.runtime_s for w in succeeded]),
            "mean_transmission_s": _mean([w.transmission_s for w in succeeded]),
            "mean_execution_s": _mean([w.execution_s for w in succeeded]),
            "selection_entropy": selection_entropy(counts),
        }
    return summary


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else math.nan


def _fmt(value: float) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.6f}".rstrip("0").rstrip(".")
    return str(value)


def _tables(result: SuiteResult) -> dict[str, list[list]]:
    """The suite's CSV tables: file name to rows, header row first."""
    phases: list[list] = [["scenario", "strategy", "seed", "workflow_id", "task",
                           "runtime_s", "transmission_s", "execution_s"]]
    states: list[list] = [["scenario", "strategy", "seed", "workflow_id", "status",
                           "final_state", "error_class", "makespan_s"]]
    totals: dict[tuple[str, NodeAddress, NodeAddress], int] = {}
    for report in result.reports:
        run = [report.scenario, report.strategy, report.seed]
        for w in report.workflows:
            for task_idx, phase in enumerate(w.task_phases):
                phases.append([*run, w.workflow_id, task_idx, _fmt(phase.runtime_s),
                               _fmt(phase.transmission_s), _fmt(phase.execution_s)])
            span = makespan(w)
            states.append([*run, w.workflow_id, w.status, w.final_state.value,
                           w.error_class or "", _fmt(span) if span is not None else ""])
        for (caller, worker), count in report.selections.items():
            key = (report.strategy, caller, worker)
            totals[key] = totals.get(key, 0) + count
    load = [["scenario", "strategy", "caller", "worker", "count"]]
    load += [[result.scenario, strategy, format_address(caller), format_address(worker), count]
             for (strategy, caller, worker), count in sorted(totals.items())]
    summary = [["scenario", "strategy", *SUMMARY_COLUMNS]]
    summary += [[result.scenario, strategy, *(_fmt(row[c]) for c in SUMMARY_COLUMNS)]
                for strategy, row in summarize(result.reports).items()]
    return {"phases.csv": phases, "final_states.csv": states,
            "load_matrix.csv": load, "summary.csv": summary}


def emit_suite(result: SuiteResult, out_dir: str) -> list[str]:
    """Write reports plus the derived CSV tables; returns the files written."""
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []

    def path(name: str) -> str:
        written.append(name)
        return os.path.join(out_dir, name)

    for report in result.reports:
        name = f"report-{report.strategy}-{report.seed}.json"
        with open(path(name), "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")

    for name, rows in _tables(result).items():
        with open(path(name), "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)

    manifest = {
        "scenario": result.scenario,
        "seeds": sorted({r.seed for r in result.reports}),
        "strategies": sorted({r.strategy for r in result.reports}),
        "suite_digest": result.digest(),
        "files": sorted(written),
    }
    with open(path("manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return sorted(written)
