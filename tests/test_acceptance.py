"""Acceptance gate for the packaged scenarios.

Each test is one advertised property of the simulator: strategy orderings on
the ring scenarios, the calibrated transmission window, the selection law,
load-distribution shape, mobile success rates, error/TTL semantics,
determinism, and cleanup completeness. One pass/fail line per property under
pytest -v; measured values are printed alongside.
"""

import json
import math
import os
import random
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from statistics import fmean

import pytest

from carryflow.assignment import Strategy, folded_normal_index
from carryflow.bundles import BundleKind, format_address
from carryflow.cli import resolve_scenario
from carryflow.client import HandleStatus
from carryflow.harness import build, run_scenario, run_suite, summarize
from carryflow.report import selection_entropy
from carryflow.runtime import ErrorClass, FaultPlan
from carryflow.workflow import Archive

from conftest import build_line, service

SEEDS = list(range(1, 26))
ALL_STRATEGIES = [Strategy.BEST, Strategy.SPREAD, Strategy.RANDOM,
                  Strategy.RECENT]
GOLDEN_DIGESTS = Path(__file__).with_name("golden_digests.json")


@pytest.fixture(scope="module")
def het_suite():
    """Heterogeneous ring, 25 seeds x 4 strategies, wall time measured."""
    config = resolve_scenario("ring-heterogeneous")
    started = time.perf_counter()
    suite = run_suite(config, SEEDS, ALL_STRATEGIES)
    return suite, time.perf_counter() - started


@pytest.fixture(scope="module")
def hom_suite():
    config = resolve_scenario("ring-homogeneous")
    return run_suite(config, SEEDS, [Strategy.BEST, Strategy.SPREAD,
                                     Strategy.RANDOM])


@pytest.fixture(scope="module")
def mobile_suite():
    config = resolve_scenario("mobile-sparse")
    return run_suite(config, [1, 2, 3, 4, 5], ALL_STRATEGIES)


@pytest.fixture(scope="module")
def aot_runs():
    config = resolve_scenario("ring-aot")
    return [run_scenario(config, seed=seed) for seed in (1, 2, 3, 4, 5)]


@pytest.fixture(scope="module")
def fault_runs():
    """Runs that reach the failed, retried and timed-out paths, by digest key.

    The key's scenario part names the settings changed from the packaged
    scenario, so it never collides with a suite key.
    """
    het = resolve_scenario("ring-heterogeneous")
    runs = {}
    for name, fault in (
            ("fault_rate=0.3", FaultPlan(rate=0.3)),
            ("fault_rate=0.5+fault_max_failures=1",
             FaultPlan(rate=0.5, max_failures=1))):
        faulty = replace(het, run=replace(het.run, fault=fault))
        runs.update((f"ring-heterogeneous+{name}/{s.value}/{seed}",
                     run_scenario(faulty, seed=seed, strategy=s))
                    for s in ALL_STRATEGIES for seed in (1, 2, 3))
    mobile = resolve_scenario("mobile-sparse")
    mobile = replace(mobile, run=replace(mobile.run, fault=FaultPlan(rate=0.3),
                                         duration_s=400.0))
    runs["mobile-sparse+fault_rate=0.3+duration_s=400/spread/1"] = run_scenario(
        mobile, seed=1, strategy=Strategy.SPREAD)
    return runs


def mean_total(suite, strategy: str) -> float:
    totals = [w.total_s for r in suite.reports if r.strategy == strategy
              for w in r.workflows if w.status == "succeeded"]
    assert totals, f"no successful workflows under {strategy}"
    return fmean(totals)


def worker_counts(suite, strategy: str) -> dict[int, int]:
    counts: Counter[int] = Counter()
    for report in suite.reports:
        if report.strategy != strategy:
            continue
        for (_, worker), c in report.selections.items():
            counts[worker] += c
    return dict(counts)


def test_criterion_01_strategy_ordering_heterogeneous_ring(het_suite):
    suite, wall = het_suite
    totals = {s: mean_total(suite, s)
              for s in ("best", "spread", "random", "recent")}
    print(f"mean total_s best={totals['best']:.3f} spread={totals['spread']:.3f} "
          f"random={totals['random']:.3f} recent={totals['recent']:.3f} "
          f"wall={wall:.1f}s")
    assert totals["recent"] > totals["random"] > totals["best"]
    assert abs(totals["spread"] - totals["best"]) <= 0.15 * totals["best"]
    assert wall < 60.0


def test_criterion_02_homogeneous_spread_matches_best(hom_suite):
    best = mean_total(hom_suite, "best")
    spread = mean_total(hom_suite, "spread")
    print(f"mean total_s best={best:.3f} spread={spread:.3f} "
          f"gap={abs(spread - best) / best:.4f}")
    assert abs(spread - best) <= 0.05 * best


def test_criterion_03_pinned_chain_transmission_window(aot_runs):
    values = [w.transmission_s
              for report in aot_runs
              for w in report.workflows
              if w.status == "succeeded"]
    assert values
    mean = fmean(values)
    print(f"mean transmission_s={mean:.3f} over {len(values)} workflows")
    assert mean == pytest.approx(20.44, abs=2.0)


def test_criterion_04_folded_normal_selection_law():
    rng = random.Random("acceptance:folded-normal")
    draws = 10 ** 6
    counts = Counter(folded_normal_index(6, rng) for _ in range(draws))
    quoted = (0.6827, 0.2718, 0.0428)
    for k in range(3):
        p = counts[k] / draws
        law = math.erf((k + 1) / math.sqrt(2)) - math.erf(k / math.sqrt(2))
        print(f"P(index={k}) = {p:.4f} (law {law:.4f})")
        assert p == pytest.approx(quoted[k], abs=0.005)
        assert p == pytest.approx(law, abs=0.005)


def test_criterion_05_load_distribution_shapes(hom_suite):
    # best: every caller funnels 100% of its selections to one worker
    per_caller: dict[int, set[int]] = {}
    for report in hom_suite.reports:
        if report.strategy != "best":
            continue
        for (caller, worker) in report.selections:
            per_caller.setdefault(caller, set()).add(worker)
    widest = max(per_caller.values(), key=len)
    assert len(widest) == 1, f"best split a caller across {widest}"
    assert per_caller[1] == {2}    # the pinned client's nearest worker

    # spread: the top-ranked worker keeps a strict plurality while at least
    # three workers see >= 1% of all selections
    spread = worker_counts(hom_suite, "spread")
    total = sum(spread.values())
    shares = {w: c / total for w, c in spread.items()}
    print("spread shares " + " ".join(
        f"{w}:{shares[w]:.3f}" for w in sorted(shares)))
    assert all(spread[2] > c for w, c in spread.items() if w != 2)
    assert sum(1 for s in shares.values() if s >= 0.01) >= 3

    rand_entropy = selection_entropy(worker_counts(hom_suite, "random"))
    spread_entropy = selection_entropy(spread)
    print(f"entropy random={rand_entropy:.3f} spread={spread_entropy:.3f}")
    assert rand_entropy > spread_entropy


def test_criterion_06_mobile_success_rate_ordering(mobile_suite):
    summary = summarize(mobile_suite.reports)
    rates = {s: summary[s]["success_rate"]
             for s in ("best", "spread", "random", "recent")}
    print("success rates " + " ".join(
        f"{s}={rates[s]:.3f}" for s in ("best", "spread", "random", "recent")))
    assert rates["spread"] >= rates["random"] >= rates["recent"]
    assert rates["spread"] - rates["recent"] >= 0.2


def test_criterion_07_error_path_conformance():
    svc = service("work")
    both = {2: {"work": svc}, 3: {"work": svc}}

    # execution fault on a just-in-time worker: exactly one re-selection that
    # excludes the failed worker, and the log rides along to the client
    micro = build_line(3, both,
                       fault_plan=FaultPlan(rate=1.0, nodes=frozenset({2})))
    micro.settle(1.0)
    handle = micro.node(1).client.offload("any work in.dat\n", {"in.dat": b"x"})
    micro.settle(5.0)
    assert handle.status is HandleStatus.SUCCEEDED
    assert micro.collector.selections == {(1, 2): 1, (1, 3): 1}
    assert "task_execution" in handle.result.error_log
    assert format_address(2) in handle.result.error_log

    # calling fault (capabilities drifted below requirements): same retry shape
    micro = build_line(3, both, announce_interval_s=120.0)
    micro.settle(0.5)
    micro.node(2).caps.energy = 1.0
    handle = micro.node(1).client.offload("any work in.dat [energy=50]\n",
                                          {"in.dat": b"x"})
    micro.settle(5.0)
    assert handle.status is HandleStatus.SUCCEEDED
    assert micro.collector.selections == {(1, 2): 1, (1, 3): 1}
    assert "worker_calling" in handle.result.error_log

    # selection fault goes straight to the client, no retry
    micro = build_line(3, {2: {"work": svc}})
    micro.settle(1.0)
    handle = micro.node(1).client.offload(
        "any work in.dat\nany work ##result##\n", {"in.dat": b"x"})
    micro.settle(5.0)
    assert handle.status is HandleStatus.FAILED
    assert handle.error.error_class is ErrorClass.WORKER_SELECTION
    assert micro.collector.selections == {(1, 2): 1}

    # a pinned worker's failure skips the retry entirely
    micro = build_line(3, both,
                       fault_plan=FaultPlan(rate=1.0, nodes=frozenset({2})))
    micro.settle(1.0)
    handle = micro.node(1).client.offload(
        f"{format_address(2)} work in.dat\n", {"in.dat": b"x"})
    micro.settle(5.0)
    assert handle.status is HandleStatus.FAILED
    assert handle.error.error_class is ErrorClass.TASK_EXECUTION
    assert micro.collector.selections == {(1, 2): 1}

    # a second failure is terminal and reaches the client
    micro = build_line(3, both, fault_plan=FaultPlan(rate=1.0))
    micro.settle(1.0)
    handle = micro.node(1).client.offload("any work in.dat\n", {"in.dat": b"x"})
    micro.settle(5.0)
    assert handle.status is HandleStatus.FAILED
    assert handle.error.error_class is ErrorClass.TASK_EXECUTION
    assert handle.error.worker == 3
    assert micro.collector.selections == {(1, 2): 1, (1, 3): 1}


def test_criterion_08_ttl_conformance():
    micro = build_line(2, {2: {"work": service("work", mean=3.0)}})
    micro.settle(1.0)
    blocker = micro.node(1).client.offload("any work a.dat\n", {"a.dat": b"a"})
    doomed = micro.node(1).client.offload("ttl=2\nany work b.dat\n",
                                          {"b.dat": b"b"})
    micro.settle(10.0)
    assert blocker.status is HandleStatus.SUCCEEDED
    assert doomed.status is HandleStatus.TIMED_OUT
    assert doomed.finished_at == pytest.approx(doomed.description.created_at + 2.0)
    track = micro.collector.tracks[doomed.description.workflow_id]
    assert all(p.execution_s == 0.0 for p in track.phases.values())

    # a result that straggles in after the deadline never flips the state
    finished_at = doomed.finished_at
    micro.node(1).client.on_result(Archive(description=doomed.description))
    assert doomed.status is HandleStatus.TIMED_OUT
    assert doomed.finished_at == finished_at


def test_criterion_09_reports_are_deterministic(het_suite):
    suite, _ = het_suite
    config = resolve_scenario("ring-heterogeneous")
    once = run_scenario(config, seed=7, strategy=Strategy.SPREAD)
    again = run_scenario(config, seed=7, strategy=Strategy.SPREAD)
    assert once.to_json() == again.to_json()
    rerun = run_suite(config, SEEDS, ALL_STRATEGIES)
    print(f"suite digest {suite.digest()[:16]}")
    assert rerun.digest() == suite.digest()


def test_criterion_10_cleanup_leaves_no_residue():
    config = resolve_scenario("ring-heterogeneous").with_run(
        seed=4, strategy=Strategy.SPREAD)
    built = build(config)
    built.world.run_until(config.run.duration_s)
    tracks = built.collector.tracks
    assert tracks and all(t.status != "pending" for t in tracks.values())

    for addr, store in built.world.stores.items():
        residue = [b for b in store.live(built.world.now)
                   if b.workflow_id in tracks
                   and b.kind is not BundleKind.CLEANUP_MARKER]
        assert residue == [], f"node {addr} still carries {residue}"
    for addr, node in built.nodes.items():
        leftover = set(tracks) & set(node.worker.files)
        assert not leftover, f"node {addr} still holds files for {leftover}"


def test_golden_report_digests(het_suite, hom_suite, mobile_suite, aot_runs,
                               fault_runs):
    # Reuses the runs above; only fault_runs simulates for this check alone,
    # to cover the failed, retried and timed-out paths. To re-pin after an
    # intended behaviour change, run this test with CARRYFLOW_REGEN_GOLDEN=1
    # and record the change in CHANGES.md.
    reports = (het_suite[0].reports + hom_suite.reports + mobile_suite.reports
               + aot_runs)
    digests = {f"{r.scenario}/{r.strategy}/{r.seed}": r.digest()
               for r in reports}
    assert len(digests) == len(reports)
    digests.update((key, r.digest()) for key, r in fault_runs.items())
    if os.environ.get("CARRYFLOW_REGEN_GOLDEN"):
        GOLDEN_DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True)
                                  + "\n", encoding="utf-8")
    golden = json.loads(GOLDEN_DIGESTS.read_text(encoding="utf-8"))
    moved = sorted(key for key in golden.keys() | digests.keys()
                   if golden.get(key) != digests.get(key))
    assert not moved, f"{len(moved)} report digests moved: {moved[:5]}"
