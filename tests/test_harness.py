"""Experiment harness: geometry, cohort placement, runs, suites, tables."""

import csv
import dataclasses
import gc
import json
import math
import weakref
from pathlib import Path

import pytest

from carryflow import harness
from carryflow.assignment import Strategy
from carryflow.bundles import BundleKind
from carryflow.cli import resolve_scenario
from carryflow.harness import (assign_cohorts, build, emit_suite, makespan,
                               ring_arc_distance, ring_positions, run_scenario,
                               run_suite, summarize)
from carryflow.runtime import FaultPlan
from carryflow.scenario import parse_scenario
from carryflow.simnet import World

from test_scenario import RING_INI


@pytest.fixture(scope="module")
def tiny_config():
    return parse_scenario(RING_INI)


def test_ring_positions_spacing():
    n, spacing = 12, 100.0
    pos = ring_positions(n, spacing)
    assert len(pos) == 12
    radius = n * spacing / (2 * math.pi)
    for x, y in pos:
        assert math.hypot(x, y) == pytest.approx(radius)
    chord = math.dist(pos[0], pos[1])
    assert chord < spacing
    arc = ring_arc_distance(n, spacing)
    for i in range(n):
        assert arc(pos[i], pos[(i + 1) % n]) == spacing
        assert arc(pos[i], pos[i]) == 0.0
    # arc distance counts hops the short way around, exactly
    assert arc(pos[0], pos[6]) == 6 * spacing
    assert arc(pos[0], pos[9]) == 3 * spacing
    assert arc(pos[9], pos[2]) == 5 * spacing


def test_ring_arc_distance_refuses_a_position_that_is_not_a_slot():
    pos = ring_positions(12, 100.0)
    arc = ring_arc_distance(12, 100.0)
    off = (math.nextafter(pos[3][0], math.inf), pos[3][1])
    with pytest.raises(ValueError, match="not a slot"):
        arc(pos[0], off)
    with pytest.raises(ValueError, match="not a slot"):
        arc((0.0, 0.0), pos[0])


def test_a_ring_run_calls_no_trigonometry_after_its_slots(monkeypatch):
    config = resolve_scenario("ring-heterogeneous")
    want = [run_scenario(config, strategy=s).digest() for s in Strategy]
    slots = ring_positions(config.topology.nodes, config.topology.spacing_m)
    monkeypatch.setattr(harness, "ring_positions", lambda n, spacing_m: list(slots))

    def refused(*args):
        raise AssertionError("a trigonometric call after ring_positions")
    for name in ("atan2", "cos", "sin"):
        monkeypatch.setattr(math, name, refused)
    assert [run_scenario(config, strategy=s).digest() for s in Strategy] == want


def test_assign_cohorts_pins_and_shuffles(tiny_config):
    assignment = assign_cohorts(tiny_config)
    assert assignment[1] == 0                  # pinned client cohort
    assert sorted(assignment) == [1, 2, 3, 4, 5, 6]
    assert all(assignment[a] == 1 for a in range(2, 7))

    # an unpinned split shuffles by seed, reproducibly
    text = RING_INI.replace("nodes = 6", "nodes = 10").replace(
        "[cohort:worker]", "[cohort:strong]\ncount = 4\nservices = work\n\n"
                           "[cohort:worker]")
    cfg = parse_scenario(text)
    first = assign_cohorts(cfg)
    assert first == assign_cohorts(cfg)
    assert sum(1 for v in first.values() if v == 1) == 4
    other = assign_cohorts(cfg.with_run(seed=2))
    assert other != first


def test_build_wires_nodes_and_clients(tiny_config):
    built = build(tiny_config)
    assert sorted(built.nodes) == [1, 2, 3, 4, 5, 6]
    assert [c.address for c in built.clients] == [1]
    assert built.nodes[1].services == {}
    assert set(built.nodes[2].services) == {"work"}
    assert built.world.position_of(3) != built.world.position_of(4)
    # a node with services announces from its construction on
    built.world.run_until(0.0)
    assert [(b.kind, b.source) for b in built.nodes[2].store.live(0.0)] == \
        [(BundleKind.OFFER, 2)]
    assert len(built.nodes[1].store) == 0


def test_run_scenario_produces_report(tiny_config):
    report = run_scenario(tiny_config)
    assert report.scenario == "tiny-ring"
    assert report.seed == 9
    assert report.strategy == "spread"
    assert len(report.workflows) == 2          # repeat = 2
    assert [w.workflow_id for w in report.workflows] == \
        sorted(w.workflow_id for w in report.workflows)
    for w in report.workflows:
        assert w.status == "succeeded"
        assert w.transmission_s > 0.0
        assert w.execution_s > 0.0
        assert makespan(w) == pytest.approx(w.finished_at - w.offloaded_at)
    # early stop: both workflows finish long before the duration cap
    assert report.duration_s < tiny_config.run.duration_s
    assert report.config_digest == tiny_config.digest()
    assert set(report.residual_energy) == {1, 2, 3, 4, 5, 6}


def test_run_scenario_overrides(tiny_config):
    report = run_scenario(tiny_config, seed=3, strategy=Strategy.BEST)
    assert report.seed == 3
    assert report.strategy == "best"
    assert report.config_digest != tiny_config.digest()


def test_run_suite_order_and_digest(tiny_config):
    suite = run_suite(tiny_config, [1, 2], [Strategy.BEST, Strategy.RANDOM])
    assert [(r.strategy, r.seed) for r in suite.reports] == \
        [("best", 1), ("best", 2), ("random", 1), ("random", 2)]
    assert suite.digest() == run_suite(tiny_config, [1, 2],
                                       [Strategy.BEST, Strategy.RANDOM]).digest()


def test_summarize_aggregates(tiny_config):
    suite = run_suite(tiny_config, [1, 2], [Strategy.BEST])
    summary = summarize(suite.reports)
    row = summary["best"]
    assert row["runs"] == 2
    assert row["workflows"] == 4
    assert 0.0 <= row["success_rate"] <= 1.0
    if row["success_rate"] == 1.0:
        assert row["mean_makespan_s"] > 0.0
    assert row["selection_entropy"] >= 0.0


def test_makespan_none_until_finished(tiny_config):
    report = run_scenario(tiny_config)
    w = report.workflows[0]
    assert makespan(w) is not None
    import dataclasses
    unfinished = dataclasses.replace(w, finished_at=None)
    assert makespan(unfinished) is None


def test_emit_suite_writes_tables(tiny_config, tmp_path):
    suite = run_suite(tiny_config, [1, 2], [Strategy.BEST, Strategy.SPREAD])
    out = tmp_path / "out"
    files = emit_suite(suite, str(out))
    expected = {"report-best-1.json", "report-best-2.json",
                "report-spread-1.json", "report-spread-2.json",
                "phases.csv", "final_states.csv", "load_matrix.csv",
                "summary.csv", "manifest.json"}
    assert set(files) == expected
    assert {p.name for p in out.iterdir()} == expected

    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["suite_digest"] == suite.digest()
    assert manifest["seeds"] == [1, 2]
    assert manifest["strategies"] == ["best", "spread"]
    # each report carries its own config digest; the suite digest covers them all
    assert "config_digest" not in manifest
    assert "manifest.json" not in manifest["files"]

    with open(out / "phases.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scenario", "strategy", "seed", "workflow_id", "task",
                       "runtime_s", "transmission_s", "execution_s"]
    # 4 runs x 2 workflows x 2 tasks
    assert len(rows) - 1 == 16

    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["scenario", "strategy"]
    assert sorted(r[1] for r in rows[1:]) == ["best", "spread"]

    with open(out / "report-best-1.json") as fh:
        obj = json.load(fh)
    assert obj["seed"] == 1
    assert obj["strategy"] == "best"


def test_waypoint_scenario_runs():
    text = RING_INI.replace(
        "kind = ring\nnodes = 6\nspacing_m = 50",
        "kind = waypoint\nnodes = 8\nwidth_m = 120\nheight_m = 120\n"
        "range_m = 60").replace("duration_s = 60", "duration_s = 120")
    report = run_scenario(parse_scenario(text), seed=4)
    assert len(report.workflows) == 2
    assert report.duration_s <= 120.0


def test_suite_runs_match_fresh_runs_with_bounded_faults():
    # the fault cap is counted per run, not per config object
    base = resolve_scenario("ring-heterogeneous")
    fault = FaultPlan(rate=0.5, max_failures=1)
    config = dataclasses.replace(base, run=dataclasses.replace(base.run, fault=fault))
    suite = run_suite(config, [3, 3, 4], [Strategy.SPREAD])
    for report in suite.reports:
        fresh = run_scenario(config, seed=report.seed, strategy=Strategy.SPREAD)
        assert report.digest() == fresh.digest()


def test_run_scenario_releases_its_world(monkeypatch):
    import carryflow.harness as harness
    golden = json.loads((Path(__file__).with_name("golden_digests.json"))
                        .read_text(encoding="utf-8"))
    built = []
    real_build = harness.build
    monkeypatch.setattr(harness, "build",
                        lambda config: built.append(real_build(config)) or built[-1])
    # a static ring, and a mobile world that keeps a skin list
    for name, seed in (("ring-heterogeneous", 2), ("mobile-sparse", 1)):
        report = run_scenario(resolve_scenario(name), seed=seed,
                              strategy=Strategy.SPREAD)
        assert report.digest() == golden[f"{name}/spread/{seed}"]
        world = built[-1].world
        assert world.stores == {} and world._heap == [] and world._links == {}
        assert world._nodes == {}
        # the ring world has no range detector; the mobile one has
        assert (world._contacts is None) == (name == "ring-heterogeneous")


def test_finished_run_is_freed_by_reference_count(monkeypatch):
    import carryflow.harness as harness
    refs = []
    real_build = harness.build

    def build_and_watch(config):
        built = real_build(config)
        refs.extend(weakref.ref(obj) for obj in
                    (built.nodes[1], built.clients[0], built.world))
        return built

    at_release = {}
    real_release = World.release

    def release_and_count(world):
        at_release.update(open=len(world._links), aborted=world.transfers_aborted)
        real_release(world)

    monkeypatch.setattr(harness, "build", build_and_watch)
    monkeypatch.setattr(World, "release", release_and_count)
    ring = resolve_scenario("ring-heterogeneous")
    mobile = resolve_scenario("mobile-sparse")
    # the mobile run ends with links that closed mid-transfer and links
    # still open
    mobile = dataclasses.replace(mobile, run=dataclasses.replace(mobile.run,
                                                                 duration_s=120.0))
    for config, seed in ((ring, 2), (mobile, 1)):
        refs.clear()
        # without the collector, only reference counts can free the run
        gc.disable()
        try:
            run_scenario(config, seed=seed, strategy=Strategy.SPREAD)
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()
        assert at_release["open"] > 0
    assert at_release["aborted"] > 0


def test_stored_bundles_stay_bounded_on_a_long_mobile_run():
    base = resolve_scenario("mobile-sparse")
    config = dataclasses.replace(base, run=dataclasses.replace(
        base.run, duration_s=900.0, stop_grace_s=900.0))
    world = build(config).world
    peaks = {300.0: 0, 900.0: 0}
    while world.now < 900.0:
        world.advance(5.0)
        stored = sum(len(store) for store in world.stores.values())
        for horizon in peaks:
            if world.now <= horizon:
                peaks[horizon] = max(peaks[horizon], stored)
    assert peaks[300.0] > 0
    assert peaks[900.0] <= 1.1 * peaks[300.0]
