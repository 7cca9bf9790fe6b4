"""The benchmark's workloads, the runs each one makes, and the outcome check.

A workload is a scenario, a fixed strategy set and a fixed list of
simulation seeds whose outcome fingerprints are pinned in
``fingerprints.json``. The benchmark seed only shuffles the order in which
the runs are made, so every benchmark seed makes the same runs and the
outcome numbers repeat exactly; the simulator only ever sees
``(scenario, strategy, seed)``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from carryflow import Strategy, run_scenario, run_suite  # noqa: E402
from carryflow.cli import resolve_scenario  # noqa: E402
from hostspeed import Sampler, kernel_seconds, reference_seconds  # noqa: E402

FINGERPRINTS = os.path.join(BENCH_DIR, "fingerprints.json")

# Top-level report keys when the fingerprints were pinned. A report block
# added later is left out of the fingerprint; a change to any of these is not.
REPORT_KEYS = ("config_digest", "duration_s", "expired_drops",
               "malformed_offers", "residual_energy", "scenario", "seed",
               "selections", "strategy", "workflows")

ALL_STRATEGIES = (Strategy.BEST, Strategy.SPREAD, Strategy.RANDOM,
                  Strategy.RECENT)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str        # packaged scenario name, or a file in this directory
    strategies: tuple[Strategy, ...]
    seeds: tuple[int, ...]   # simulation seeds, each pinned in fingerprints.json
    suite_batch: int     # seeds per run_suite call; 0 drives run_scenario

    def resolve(self):
        if self.scenario.endswith(".ini"):
            return resolve_scenario(os.path.join(BENCH_DIR, self.scenario))
        return resolve_scenario(self.scenario)

    def items(self, bench_seed: int) -> list[tuple[int, ...]]:
        """Seed groups of one cycle, in run order; one call each."""
        seeds = list(self.seeds)
        random.Random(f"{self.name}:{bench_seed}").shuffle(seeds)
        step = self.suite_batch or 1
        return [tuple(seeds[i:i + step]) for i in range(0, len(seeds), step)]


WORKLOADS = {w.name: w for w in (
    Workload("ring-sweep", "ring-heterogeneous", ALL_STRATEGIES,
             seeds=(1, 2, 3, 4), suite_batch=2),
    Workload("mobile-sparse", "mobile-sparse", (Strategy.SPREAD,),
             seeds=(1, 2, 3), suite_batch=0),
    Workload("mobile-dense", "mobile-dense.ini", (Strategy.SPREAD,),
             seeds=(1, 2, 3, 4, 5, 6), suite_batch=0),
)}


def fingerprint(report) -> str:
    """SHA-256 over the canonical JSON of the pinned report keys.

    While the report has exactly these keys this equals report.digest().
    """
    obj = report.to_obj()
    pinned = {key: obj[key] for key in REPORT_KEYS}
    blob = json.dumps(pinned, sort_keys=True, indent=1).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def run_key(strategy: str, seed: int) -> str:
    return f"{strategy}:{seed}"


def load_fingerprints() -> dict[str, dict[str, str]]:
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        return json.load(fh)


def run_group(workload: Workload, config, seeds: tuple[int, ...]) -> list:
    """Make one group's runs the way the CLI does; returns their reports."""
    if workload.suite_batch:
        # as `carryflow suite`: sweep, then the suite digest
        suite = run_suite(config, list(seeds), list(workload.strategies))
        suite.digest()
        return suite.reports
    reports = []
    for seed in seeds:
        for strategy in workload.strategies:
            # as `carryflow run --out`: one report and its digest
            report = run_scenario(config, seed=seed, strategy=strategy)
            report.digest()
            reports.append(report)
    return reports


@dataclass
class Tally:
    """What one pass made: runs, failures, simulated and host time, outcomes."""

    attempted: int = 0
    failed: int = 0
    sim_s: float = 0.0
    wall_s: float = 0.0
    ref_s: float = 0.0
    workflows: int = 0
    succeeded: int = 0
    makespan_s: float = 0.0
    fingerprints: dict[str, str] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    # (sim_s, wall_s, ref_s) of each whole cycle through the seed list
    cycles: list[tuple[float, float, float]] = field(default_factory=list)

    def success_rate(self) -> float:
        return self.succeeded / self.workflows if self.workflows else 0.0

    def mean_makespan(self) -> float:
        return self.makespan_s / self.succeeded if self.succeeded else math.nan


def check_made_runs(workload: Workload, seeds: tuple[int, ...], reports) -> None:
    """Raise unless the reports are exactly the runs asked for, each once."""
    expected = [run_key(s.value, seed) for seed in seeds
                for s in workload.strategies]
    returned = [run_key(r.strategy, r.seed) for r in reports]
    if Counter(returned) != Counter(expected):
        raise ValueError(f"asked for runs {sorted(expected)}, "
                         f"got reports of {sorted(returned)}")


def run_pass(workload: Workload, config, groups: list[tuple[int, ...]],
             pinned: dict[str, str], seconds: float = 0.0,
             sample_s: float = 0.0,
             after_group: Optional[Callable[[], None]] = None) -> tuple[Tally, Tally]:
    """Make whole cycles through `groups`: one, and more while they fit in `seconds`.

    Returns (whole pass, first cycle); the whole pass also holds each
    cycle's simulated and host time. Every cycle makes the same runs, so
    per-cycle throughput does not depend on how many cycles fit. Host time is taken
    around the simulator calls only; the checks run outside it. The
    reference kernel runs before and after each group, and every `sample_s`
    seconds within it (0: never), to express its wall time in reference
    seconds as well; the time the samples take is not counted. A run that
    raises, or whose fingerprint differs from the pinned one, counts as
    failed; a group whose reports are not exactly the runs asked for, each
    once, fails whole.
    """
    total, first = Tally(), Tally()
    started = time.perf_counter()
    kernel_before = kernel_seconds()
    cycle = 0
    while cycle == 0 or time.perf_counter() - started + cycle_s <= seconds:
        cycle_start = time.perf_counter()
        before = (total.sim_s, total.wall_s, total.ref_s)
        tallies = (total, first) if cycle == 0 else (total,)
        for seeds in groups:
            sampler = Sampler(sample_s)
            t0 = time.perf_counter()
            try:
                with sampler:
                    reports = run_group(workload, config, seeds)
                wall = time.perf_counter() - t0 - sampler.spent_s
                check_made_runs(workload, seeds, reports)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                for tally in tallies:
                    for seed in seeds:
                        for s in workload.strategies:
                            tally.attempted += 1
                            tally.failed += 1
                            tally.mismatches.append(
                                f"{run_key(s.value, seed)} {type(exc).__name__}")
                kernel_before = kernel_seconds()
                continue
            kernel_after = kernel_seconds()
            ref = reference_seconds(
                wall, [kernel_before, *sampler.kernel_s, kernel_after])
            kernel_before = kernel_after
            if after_group is not None:
                after_group()
            for tally in tallies:
                tally.wall_s += wall
                tally.ref_s += ref
            for report in reports:
                _tally_run(tallies, report, pinned)
        total.cycles.append((total.sim_s - before[0], total.wall_s - before[1],
                             total.ref_s - before[2]))
        cycle += 1
        cycle_s = time.perf_counter() - cycle_start
    return total, first


def _tally_run(tallies: tuple[Tally, ...], report, pinned: dict[str, str]) -> None:
    key = run_key(report.strategy, report.seed)
    try:
        got = fingerprint(report)
    except (KeyError, TypeError, ValueError):
        traceback.print_exc(file=sys.stderr)
        got = "unreadable"
    ok = pinned.get(key) == got
    succeeded = [w for w in report.workflows if w.status == "succeeded"]
    for tally in tallies:
        tally.attempted += 1
        tally.sim_s += report.duration_s
        tally.fingerprints[key] = got
        if not ok:
            tally.failed += 1
            tally.mismatches.append(f"{key} fingerprint {got[:16]}")
        tally.workflows += len(report.workflows)
        tally.succeeded += len(succeeded)
        tally.makespan_s += sum(w.finished_at - w.offloaded_at
                                for w in succeeded)
