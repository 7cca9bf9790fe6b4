"""Scenario INI parsing: typed sections, cohort sizing, collected errors."""

import dataclasses
import math
import re
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carryflow.announce import (MAX_PARAM_COUNT, OFFER_HEADER_BYTES,
                                OFFER_RECORD_BYTES, SERVICE_NAME_BYTES,
                                CapabilityVector, build_offer_bundle)
from carryflow.assignment import Strategy
from carryflow.cli import packaged_scenarios, resolve_scenario
from carryflow.runtime import FILE_BYTES, FaultPlan, ServiceDefinition
from carryflow.harness import ring_arc_distance, ring_positions, run_scenario
from carryflow.scenario import (MAX_LENGTH_M, MAX_NODES, MIN_LENGTH_M,
                                CohortSpec, RingTopology, RunSettings,
                                ScenarioError, WaypointTopology, WorkflowSpec,
                                load_scenario, parse_scenario,
                                resolve_cohort_counts)
from carryflow.simnet import LinkModel
from carryflow.workflow import MAX_FILE_BYTES, parse as parse_workflow

RING_INI = """
[scenario]
name = tiny-ring

[topology]
kind = ring
nodes = 6
spacing_m = 50

[link]
bandwidth_mbit = 10
latency_ms = 5

[services]
work = mean=0.5, jitter=0.1, energy=2, output_bytes=1000, ext=png

[cohort:client]
addresses = 1
client = true

[cohort:worker]
cpu = 4
memory = 2048
disk = 8192
energy = 50
services = work

[workflow]
tasks =
    any work in.dat
    any work ##result##
ttl = 120
requirements = cpu=2, energy=5
input = in.dat:1000
offload_at = 2
repeat = 2
interval_s = 5

[run]
seed = 9
duration_s = 60
strategy = spread
stop_grace_s = 2
"""


def test_parse_ring_scenario():
    cfg = parse_scenario(RING_INI)
    assert cfg.name == "tiny-ring"
    assert cfg.topology == RingTopology(nodes=6, spacing_m=50.0)
    assert cfg.link.bandwidth_bps == 10e6
    assert cfg.link.latency_s == 0.005
    svc = cfg.services["work"]
    assert (svc.exec_seconds_mean, svc.exec_seconds_jitter) == (0.5, 0.1)
    assert (svc.output_size_bytes, svc.output_ext) == (1000, "png")
    assert cfg.cohorts[0].addresses == (1,)
    assert cfg.cohorts[0].client is True
    assert cfg.cohorts[1].services == ("work",)
    assert cfg.workflow.files == {"in.dat": 1000}
    assert (cfg.workflow.offload_at, cfg.workflow.repeat,
            cfg.workflow.interval_s) == (2.0, 2, 5.0)
    assert cfg.run.seed == 9
    assert cfg.run.strategy is Strategy.SPREAD
    # ttl override and requirement defaults are folded into the task text
    assert "ttl=120" in cfg.workflow.text
    assert "[cpu=2,energy=5]" in cfg.workflow.text


def test_parse_waypoint_topology():
    text = RING_INI.replace(
        "kind = ring\nnodes = 6\nspacing_m = 50",
        "kind = waypoint\nnodes = 10\nwidth_m = 200\nheight_m = 100\n"
        "range_m = 40\nspeed_min = 1\nspeed_max = 2\npause_max_s = 5")
    topo = parse_scenario(text).topology
    assert topo == WaypointTopology(nodes=10, width_m=200.0, height_m=100.0,
                                    range_m=40.0, speed_min=1.0, speed_max=2.0,
                                    pause_max_s=5.0)


def test_problems_are_collected_not_fail_fast():
    text = (RING_INI
            .replace("strategy = spread", "strategy = fastest")
            .replace("bandwidth_mbit = 10", "bandwidth_mbit = lots")
            .replace("services = work", "services = work, missing"))
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(text)
    problems = excinfo.value.problems
    assert len(problems) == 3
    joined = "\n".join(problems)
    assert "fastest" in joined
    assert "lots" in joined
    assert "missing" in joined


@pytest.mark.parametrize("mutate,fragment", [
    (lambda t: t.replace("client = true", "client = maybe"), "not a boolean"),
    (lambda t: t.replace("[run]", "[run]\nweights = cpu=1, energy=0.5"),
     "sum to 1"),
    (lambda t: t.replace("addresses = 1", "addresses = 1, 99"), "outside"),
    (lambda t: t.replace("addresses = 1", "count = 2\naddresses = 1"),
     "at most one of"),
    (lambda t: t.replace("[cohort:worker]", "[cohort:worker]\nfraction = 2"),
     "at most 1"),
    (lambda t: t.replace("client = true", "client = false"),
     "no cohort is marked client"),
    (lambda t: t.replace("any work in.dat", "any vanish in.dat"),
     "unknown service"),
    (lambda t: t.replace("any work in.dat", "-000000000000003 work in.dat"),
     r"\[workflow\] tasks: line 2: node address must be 16 hex chars"),
    (lambda t: t.replace("any work in.dat", "0x00000000000002 work in.dat"),
     r"\[workflow\] tasks: line 2: node address must be 16 hex chars"),
    (lambda t: t.replace("any work in.dat", "0000_0000_0000_1 work in.dat"),
     r"\[workflow\] tasks: line 2: node address must be 16 hex chars"),
    (lambda t: t.replace("any work in.dat", "+00000000000000f work in.dat"),
     r"\[workflow\] tasks: line 2: node address must be 16 hex chars"),
    (lambda t: t.replace("any work in.dat", "00000000000000ff work in.dat"),
     r"\[workflow\] task 0 pinned address 255 outside 1\.\.6"),
    (lambda t: t.replace("any work ##result##", "0000000000000000 work ##result##"),
     r"\[workflow\] task 1 pinned address 0 outside 1\.\.6"),
    (lambda t: t.replace("[workflow]", "[workflow]\nfile = extra.wf"),
     "either tasks or file"),
    (lambda t: t.replace("[run]", "[sprint]\nx = 1\n\n[run]"),
     "unknown section"),
    (lambda t: t.replace("seed = 9", "seed = 9\nwarp = 1"), "unknown key"),
    (lambda t: t + "\n[cohort:extra]\ncpu = 1\n\n[cohort:more]\ncpu = 1\n",
     "only one cohort may omit"),
    # a cohort name is stripped, so these two sections name one cohort
    (lambda t: t.replace("[cohort:client]", "[cohort: worker]"),
     r"\[cohort:\*\] name: worker is given more than once"),
    (lambda t: t.replace("[cohort:client]", "[cohort:]"),
     r"\[cohort:\] cohort name is empty"),
    (lambda t: t.replace("[cohort:worker]", "[cohort:worker]\nfraction = nan"),
     "fraction is not a finite number"),
    (lambda t: t.replace("[run]", "[run]\ntick_s = nan"),
     "tick_s is not a finite number"),
    (lambda t: t.replace("bandwidth_mbit = 10", "bandwidth_mbit = nan"),
     "bandwidth_mbit is not a finite number"),
    (lambda t: t.replace("offload_at = 2", "offload_at = nan"),
     "offload_at is not a finite number"),
    (lambda t: t.replace("duration_s = 60", "duration_s = inf"),
     "duration_s is not a finite number"),
    (lambda t: t.replace("latency_ms = 5", "latency_ms = -inf"),
     "latency_ms is not a finite number"),
    (lambda t: t.replace("cpu=2, energy=5", "cpu=inf, energy=5"),
     "cpu is not a finite number"),
    (lambda t: t.replace("ttl = 120", "ttl = nan"), "ttl is not a finite number"),
    (lambda t: t.replace("[services]\n", "[services]\n" + "ré" * 9 + " = mean=1\n"),
     "longer than the 24 UTF-8 bytes"),
    (lambda t: t.replace("[services]\n", "[services]\nwork\x00 = mean=1\n"),
     "ends in a NUL byte"),
    (lambda t: t.replace("ext=png", "ext=png, params=4294967296"),
     "params must be at most 4294967295"),
    (lambda t: t.replace("ext=png", "ext=png, params=-1"),
     "params must be at least 0, got -1"),
    # a service with an empty name never reaches an offer record
    (lambda t: t.replace("[services]\n", "[services]\n = mean=1\n"),
     "Source contains parsing errors"),
    (lambda t: t.replace("kind = ring\nnodes = 6\nspacing_m = 50",
                         "kind = waypoint\nspeed_min = 3\nspeed_max = 1"),
     "speed_min 3 exceeds speed_max 1"),
    (lambda t: t.replace("input = in.dat:1000", "input = in.dat:-1000"),
     "input: in.dat must be at least 0, got -1000"),
    (lambda t: t.replace("[run]", "[run]\nannounce_interval_s = 1e-300"),
     r"\[run\] announce_interval_s 1e-300 repeats more than 1000000 times"),
    (lambda t: t.replace("[run]", "[run]\ntick_s = 1e-5"),
     r"\[run\] tick_s 1e-05 repeats more than 1000000 times in duration_s 60"),
    (lambda t: t.replace("nodes = 6", "nodes = 1000000000"),
     r"\[topology\] nodes must be at most 10000, got 1000000000"),
    (lambda t: t.replace("repeat = 2", "repeat = 100001"),
     r"\[workflow\] repeat must be at most 100000, got 100001"),
    (lambda t: t.replace("addresses = 1", "count = 3").replace("repeat = 2", "repeat = 40000"),
     r"\[workflow\] repeat 40000 for 3 clients is more than 100000 offloads"),
    # a refused node count reads as its default of 8: the pins past it, in a
    # cohort, the tasks and the fault plan, are not checked against it
    (lambda t: t.replace("nodes = 6", "nodes = 2000000000")
     .replace("addresses = 1", "addresses = 1, 9")
     .replace("any work in.dat", "000000000000000b work in.dat"),
     r"\[topology\] nodes must be at most 10000, got 2000000000"),
    (lambda t: t.replace("nodes = 6", "nodes = many")
     .replace("seed = 9", "seed = 9\nfault_nodes = 1, 12"),
     r"\[topology\] nodes is not an integer: 'many'"),
    # a pin is checked against the node count where it is read, like fault_nodes
    (lambda t: t.replace("addresses = 1", "addresses = 1, 99"),
     r"\[cohort:client\] addresses: address 99 outside 1\.\.6"),
    # a rate whose value in bits per second would not be finite
    (lambda t: t.replace("bandwidth_mbit = 10", "bandwidth_mbit = 1e303"),
     r"\[link\] bandwidth_mbit must be at most 1e\+300, got 1e\+303"),
])
def test_single_problem_scenarios(mutate, fragment):
    with pytest.raises(ScenarioError, match=fragment) as info:
        parse_scenario(mutate(RING_INI))
    # one mistake, one problem: nothing derived from a refused value
    assert len(info.value.problems) == 1, info.value.problems


def test_a_refused_node_count_on_ring_aot_is_one_problem(tmp_path):
    # ring-aot pins its workers at 3, 5, 7, 9 and 11, past the default of 8
    text = (SCENARIO_DIR / "ring-aot.ini").read_text().replace(
        "file = aot-chain.wf", f"file = {SCENARIO_DIR / 'aot-chain.wf'}")
    text, found = re.subn(r"^nodes = .*$", "nodes = 1000000000", text, flags=re.M)
    assert found == 1
    path = tmp_path / "ring-aot.ini"
    path.write_text(text)
    with pytest.raises(ScenarioError) as info:
        load_scenario(str(path))
    assert info.value.problems == ["[topology] nodes must be at most 10000, got 1000000000"]


@pytest.mark.parametrize("old,new,problem", [
    ("input = in.dat:1000", "input = in.dat:1000, in.dat:5",
     "[workflow] input: in.dat is given more than once"),
    ("cpu=2, energy=5", "cpu=2, cpu=3, energy=5",
     "[workflow] requirements: cpu is given more than once"),
    ("work = mean=0.5,", "work = mean=0.5, mean=9.0,",
     "[services] work: mean is given more than once"),
    # sums to 1 only while disk counts once
    ("seed = 9", "seed = 9\nweights = energy=0.3, distance=0.3, cpu=0.2, "
     "memory=0.1, disk=0.1, disk=0.1",
     "[run] weights: disk is given more than once"),
    ("addresses = 1", "addresses = 1, 1",
     "[cohort:client] addresses: 1 is given more than once"),
    ("services = work", "services = work, work",
     "[cohort:worker] services: work is given more than once"),
    ("seed = 9", "seed = 9\nfault_nodes = 2, 2",
     "[run] fault_nodes: 2 is given more than once"),
], ids=["input", "requirements", "service", "weights", "addresses",
        "cohort-services", "fault-nodes"])
def test_a_name_given_twice_in_a_list_is_one_problem(old, new, problem):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(RING_INI.replace(old, new))
    assert info.value.problems == [problem]


@pytest.mark.parametrize("old,new,problem", [
    ("input = in.dat:1000", "input = :1000",
     "[workflow] input: expected name:value, got ':1000'"),
    ("input = in.dat:1000", "input = in.dat",
     "[workflow] input: expected name:value, got 'in.dat'"),
    ("cpu=2, energy=5", "=2, energy=5",
     "[workflow] requirements: expected name=value, got '=2'"),
    ("cpu=2, energy=5", "cpu, energy=5",
     "[workflow] requirements: expected name=value, got 'cpu'"),
    # sums to 1 without the bad item
    ("seed = 9", "seed = 9\nweights = cpu=1, =0",
     "[run] weights: expected name=value, got '=0'"),
    ("seed = 9", "seed = 9\nweights = cpu=1, disk",
     "[run] weights: expected name=value, got 'disk'"),
    ("ext=png", "ext=png, =3", "[services] work: expected name=value, got '=3'"),
    ("ext=png", "ext=png, jitter", "[services] work: expected name=value, got 'jitter'"),
], ids=["input-no-name", "input-no-sep", "requirements-no-name", "requirements-no-sep",
        "weights-no-name", "weights-no-sep", "service-no-name", "service-no-sep"])
def test_a_list_item_needs_a_name_and_a_separator(old, new, problem):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(RING_INI.replace(old, new))
    assert info.value.problems == [problem]


@pytest.mark.parametrize("weights,problem", [
    ("cpu=x", "[run] weights: cpu is not a finite number: 'x'"),
    # sums to 1, so only the sign is wrong
    ("energy=-1, distance=2", "[run] weights: energy must be at least 0, got -1"),
], ids=["not-a-number", "negative"])
def test_a_bad_rating_weight_is_one_problem(weights, problem):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(RING_INI.replace("seed = 9", f"seed = 9\nweights = {weights}"))
    assert info.value.problems == [problem]


def test_infinite_ttl_means_no_expiry():
    cfg = parse_scenario(RING_INI.replace("ttl = 120", "ttl = inf"))
    assert "ttl=inf" in cfg.workflow.text


def test_workflow_text_keeps_every_digit_of_ttl_and_requirements():
    cfg = parse_scenario(RING_INI.replace("ttl = 120", "ttl = 1234.5678").replace(
        "requirements = cpu=2, energy=5", "requirements = cpu=2, memory=1048576"))
    desc = parse_workflow(cfg.workflow.text)
    assert desc.ttl_seconds == 1234.5678
    assert {task.requirements["memory"] for task in desc.tasks} == {1048576.0}


def test_offer_wire_limits_are_inclusive():
    name = "w" * SERVICE_NAME_BYTES
    cfg = parse_scenario(RING_INI.replace(
        "[services]\n", f"[services]\n{name} = mean=1, params={MAX_PARAM_COUNT}\n"))
    svc = cfg.services[name]
    caps = CapabilityVector(cpu=1.0, memory=1.0, disk=1.0, energy=1.0,
                            position=(0.0, 0.0))
    bundle = build_offer_bundle((1, 1), 1, 0.0, caps, {svc.name: svc.param_count})
    assert bundle.payload.params == {name: MAX_PARAM_COUNT}
    assert bundle.size_bytes == OFFER_HEADER_BYTES + OFFER_RECORD_BYTES


def test_the_size_bounds_are_inclusive():
    text = RING_INI.replace("addresses = 1", "count = 5").replace("repeat = 2",
                                                                 "repeat = 20000")
    assert parse_scenario(text).workflow.repeat == 20000
    assert parse_scenario(RING_INI.replace("nodes = 6", "nodes = 10000")).topology.nodes \
        == 10000
    waypoint = "kind = waypoint\nwidth_m = {0!r}\nheight_m = {0!r}\nrange_m = {0!r}"
    for bound in (MIN_LENGTH_M, MAX_LENGTH_M):
        ring = parse_scenario(RING_INI.replace("spacing_m = 50", f"spacing_m = {bound!r}"))
        assert ring.topology.spacing_m == bound
        topo = parse_scenario(RING_INI.replace(
            "kind = ring\nnodes = 6\nspacing_m = 50", waypoint.format(bound))).topology
        assert (topo.width_m, topo.height_m, topo.range_m) == (bound, bound, bound)


@pytest.mark.parametrize("spacing_m", [MIN_LENGTH_M, MAX_LENGTH_M])
def test_ring_slots_stay_distinct_at_the_length_bounds(spacing_m):
    # ring_arc_distance raises if two slots round to one position
    for nodes in (*range(2, 65), MAX_NODES - 1, MAX_NODES):
        arc = ring_arc_distance(nodes, spacing_m)
        first, second = ring_positions(nodes, spacing_m)[:2]
        assert arc(first, second) == spacing_m


def test_a_zeno_announce_round_on_a_packaged_scenario_is_refused(tmp_path, monkeypatch):
    from carryflow import harness
    from carryflow.cli import main

    def no_world(config):
        raise AssertionError("a refused scenario built a world")
    monkeypatch.setattr(harness, "build", no_world)
    for setting in ("announce_interval_s = 1e-300", "tick_s = 1e-300"):
        text = (SCENARIO_DIR / "ring-heterogeneous.ini").read_text().replace(
            "[run]", f"[run]\n{setting}").replace("file = pipeline.wf",
                                                 f"file = {SCENARIO_DIR / 'pipeline.wf'}")
        path = tmp_path / "zeno.ini"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
    path.write_text(path.read_text().replace("nodes = 12", "nodes = 1000000000"))
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize("scenario,setting,key", [
    # (r + window) ** 2 overflowed in the contact detector's recheck
    ("mobile-sparse", "range_m = 1e200", "range_m"),
    # floor(x / width) overflowed when binning nodes into cells
    ("mobile-sparse", "range_m = 1e-320", "range_m"),
    ("mobile-sparse", "width_m = 1e10", "width_m"),
    ("mobile-sparse", "height_m = 1e-7", "height_m"),
    # ring slots overflowed to infinity or underflowed onto each other
    ("ring-heterogeneous", "nodes = 8\nspacing_m = 1e308", "spacing_m"),
    ("ring-heterogeneous", "nodes = 64\nspacing_m = 5e-324", "spacing_m"),
])
def test_out_of_range_geometry_on_a_packaged_scenario_is_refused(
        scenario, setting, key, tmp_path, monkeypatch, capsys):
    from carryflow import harness
    from carryflow.cli import main

    def no_world(config):
        raise AssertionError("a refused scenario built a world")
    monkeypatch.setattr(harness, "build", no_world)
    text = (SCENARIO_DIR / f"{scenario}.ini").read_text().replace(
        "file = pipeline.wf", f"file = {SCENARIO_DIR / 'pipeline.wf'}")
    for line in setting.splitlines():
        name = line.partition(" =")[0]
        text, found = re.subn(rf"^{name} = .*$", line, text, flags=re.M)
        assert found == 1
    path = tmp_path / "geometry.ini"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario:")
    problems = [line for line in err.splitlines() if line.startswith("  - ")]
    assert len(problems) == 1
    assert problems[0].startswith(f"  - [topology] {key} must be ")


# one file size per key: ring-aot's input file, and its denoise output
_SIZE_KEYS = {
    "input": ("input = photo.raw:13600000", "input = photo.raw:{}",
              "[workflow] input: photo.raw"),
    "output_bytes": ("denoise = mean=7.0, jitter=1.0, energy=6, output_bytes=13600000",
                     "denoise = mean=7.0, jitter=1.0, energy=6, output_bytes={}",
                     "[services] denoise: output_bytes"),
}


def _ring_aot_with(key: str, size: int) -> str:
    old, new, _ = _SIZE_KEYS[key]
    text = (SCENARIO_DIR / "ring-aot.ini").read_text().replace(
        "file = aot-chain.wf", f"file = {SCENARIO_DIR / 'aot-chain.wf'}")
    assert text.count(old) == 1
    return text.replace(old, new.format(size))


@pytest.mark.parametrize("key", sorted(_SIZE_KEYS))
def test_an_oversized_file_size_is_one_problem_and_builds_no_world(
        key, tmp_path, monkeypatch, capsys):
    # past a 64-bit content length a size no longer converts to a float, and
    # the run used to end in a traceback from transfer_duration
    from carryflow import harness
    from carryflow.cli import main

    def no_world(config):
        raise AssertionError("a refused scenario built a world")
    monkeypatch.setattr(harness, "build", no_world)
    path = tmp_path / "oversized.ini"
    for size in (MAX_FILE_BYTES + 1, 10 ** 400):
        path.write_text(_ring_aot_with(key, size))
        assert main(["run", str(path)]) == 2
        problems = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("  - ")]
        assert problems == [f"  - {_SIZE_KEYS[key][2]} must be at most "
                            f"{MAX_FILE_BYTES}, got {size}"]


@pytest.mark.parametrize("key", sorted(_SIZE_KEYS))
def test_the_file_size_bound_is_inclusive(key):
    config = parse_scenario(_ring_aot_with(key, MAX_FILE_BYTES))
    if key == "input":
        assert config.workflow.files == {"photo.raw": MAX_FILE_BYTES}
    else:
        assert config.services["denoise"].output_size_bytes == MAX_FILE_BYTES


FINITE = st.floats(min_value=5e-324, max_value=1.7e308, allow_nan=False,
                   allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(duration_s=FINITE, period=FINITE)
@example(duration_s=60.0, period=1e-300)
# the sum rounds up past an odd duration, yet the float below it stays put
@example(duration_s=1.0 + 2 ** -52, period=2 ** -53)
@example(duration_s=1e6, period=1.0)
def test_every_accepted_period_advances_the_clock(duration_s, period):
    text = RING_INI.replace("duration_s = 60", f"duration_s = {duration_s!r}").replace(
        "[run]", f"[run]\ntick_s = {period!r}\nannounce_interval_s = {period!r}")
    try:
        run = parse_scenario(text).run
    except ScenarioError as exc:
        assert all("repeats more than" in problem for problem in exc.problems)
        return
    assert (run.duration_s, run.tick_s, run.announce_interval_s) \
        == (duration_s, period, period)
    # every time up to the cap moves: the floats of the cap's binade have the
    # largest gaps, and the two below the cap have opposite last bits
    below = math.nextafter(duration_s, 0.0)
    for now in (duration_s, below, math.nextafter(below, 0.0), 0.0):
        assert now + period > now


@pytest.mark.parametrize("period", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("key", ["tick_s", "announce_interval_s"])
def test_a_hand_built_period_that_is_not_positive_is_refused(key, period):
    # the parser refuses these already; a zero period reschedules its event
    # at `now` forever, so a hand-built run must not reach a world either
    with pytest.raises(ValueError, match=f"{key} must be positive"):
        RunSettings(**{key: period})


@pytest.mark.parametrize("settings, problem", [
    # each would fail mid-run, scheduling an event before now
    (dict(preprocess_s=-1.0), "preprocess_s must be at least 0, got -1"),
    (dict(postprocess_s=-1.0), "postprocess_s must be at least 0, got -1"),
    (dict(stop_grace_s=math.nan), "stop_grace_s must be at least 0, got nan"),
    # each would leave the run without an end
    (dict(tick_s=1e-300),
     "tick_s 1e-300 repeats more than 1000000 times in duration_s 600"),
    (dict(duration_s=math.inf), "duration_s is not a finite number: inf"),
    (dict(stop_grace_s=math.inf), "stop_grace_s is not a finite number: inf"),
    (dict(seed=-1), "seed must be at least 0, got -1"),
])
def test_a_hand_built_run_meets_the_parsers_rules(settings, problem):
    with pytest.raises(ScenarioError) as info:
        RunSettings(**settings)
    assert info.value.problems == [problem]


@pytest.mark.parametrize("edit, field", [
    (lambda c: dataclasses.replace(c, link=dataclasses.replace(c.link, bandwidth_bps=0.0)),
     "bandwidth_bps"),
    (lambda c: dataclasses.replace(c, link=dataclasses.replace(c.link, latency_s=-1.0)),
     "latency_s"),
    (lambda c: dataclasses.replace(c, link=dataclasses.replace(c.link, bandwidth_bps=math.nan)),
     "bandwidth_bps"),
    (lambda c: dataclasses.replace(c, services={
        name: dataclasses.replace(service, output_size_bytes=-10**9)
        for name, service in c.services.items()}),
     "output_size_bytes"),
], ids=["no-bandwidth", "negative-latency", "nan-bandwidth", "negative-output"])
def test_a_hand_built_link_or_service_is_refused_before_its_run(edit, field):
    # values no scenario file can give are refused where they are built,
    # naming the field, not part-way through the run that first uses them
    with pytest.raises(ScenarioError) as info:
        run_scenario(edit(resolve_scenario("ring-homogeneous")))
    (problem,) = info.value.problems
    assert problem.startswith(f"{field} ")


@pytest.mark.parametrize("build, field", [
    (lambda: LinkModel(bandwidth_bps=math.inf), "bandwidth_bps"),
    (lambda: LinkModel(bandwidth_bps=-1.0), "bandwidth_bps"),
    (lambda: LinkModel(latency_s=math.inf), "latency_s"),
    (lambda: LinkModel(latency_s=math.nan), "latency_s"),
    (lambda: ServiceDefinition("s", output_size_bytes=MAX_FILE_BYTES + 1),
     "output_size_bytes"),
], ids=["inf-bandwidth", "negative-bandwidth", "inf-latency", "nan-latency",
        "oversized-output"])
def test_a_link_and_a_service_keep_the_parsers_bounds(build, field):
    with pytest.raises(ScenarioError) as info:
        build()
    (problem,) = info.value.problems
    assert problem.startswith(f"{field} ")


def test_the_link_and_service_bounds_take_their_edges():
    assert LinkModel(bandwidth_bps=5e-324, latency_s=0.0).latency_s == 0.0
    assert ServiceDefinition("s", output_size_bytes=0).output_size_bytes == 0
    assert ServiceDefinition("s", output_size_bytes=MAX_FILE_BYTES).output_size_bytes \
        == MAX_FILE_BYTES
    link = parse_scenario(RING_INI.replace("bandwidth_mbit = 10", "bandwidth_mbit = 1e300")).link
    assert link.bandwidth_bps == 1e300 * 1e6


# each bounded type with the fields it needs, set so that it builds at every
# row's edge: speed_min and duration_s sit at their own floors, so the cross
# rules hold while speed_max or a period sits at its floor too
BOUNDED = {
    RingTopology: {},
    WaypointTopology: {"speed_min": 5e-324},
    LinkModel: {},
    ServiceDefinition: {"name": "s"},
    CohortSpec: {"name": "c"},
    WorkflowSpec: {"text": ""},
    FaultPlan: {},
    RunSettings: {"duration_s": 5e-324},
}


def _step(key, value, toward):
    return value + (1 if toward > value else -1) if key.kind is int \
        else math.nextafter(value, toward)


def _probes(key):
    """(values the row takes, values one past them or of the wrong kind)."""
    if key.kind is bool:
        return [True, False], [1, "yes"]
    if key.kind is str:
        return ["x", ""], [5, b"x"]
    edges, past = [], ["1"]
    if key.positive:
        edges.append(_step(key, 0, math.inf))
        past.append(0)
    elif math.isfinite(key.minimum):
        edges.append(key.minimum)
        past.append(_step(key, key.minimum, -math.inf))
    if math.isfinite(key.maximum):
        edges.append(key.maximum)
        past.append(_step(key, key.maximum, math.inf))
    if key.kind is int:
        past += [float(edges[0]), True]
    else:
        past += [math.nan] + ([] if key.allow_inf else [math.inf, -math.inf])
    return edges, past


def _row_cases():
    """(type, field, the kwargs one value gives, whether it builds) per probe."""
    rows = [(cls, key, lambda field, value: {field: value})
            for cls in BOUNDED for key in cls.rows]
    # each file size of a workflow meets the file row
    rows.append((WorkflowSpec, dataclasses.replace(FILE_BYTES, name="files"),
                 lambda field, value: {"files": {"in.dat": value}}))
    for cls, key, kwargs in rows:
        field = key.attr or key.name
        edges, past = _probes(key)
        for value, builds in [(v, True) for v in edges] + [(v, False) for v in past]:
            yield pytest.param(cls, field, kwargs(field, value), builds,
                               id=f"{cls.__name__}-{field}-{value!r}")


@pytest.mark.parametrize("cls, field, kwargs, builds", list(_row_cases()))
def test_every_row_refuses_one_past_its_bounds_and_takes_its_edges(cls, field, kwargs, builds):
    # a hand-built value draws the one problem the row states, named by its
    # field, and the bound itself is taken
    kwargs = {**BOUNDED[cls], **kwargs}
    if builds:
        assert vars(cls(**kwargs)).items() >= kwargs.items()
        return
    with pytest.raises(ScenarioError) as info:
        cls(**kwargs)
    (problem,) = info.value.problems
    assert problem.startswith(f"{field} " if field != "files" else "files: in.dat ")


@pytest.mark.parametrize("build, problem", [
    # each of these built at the parent and failed, or ran, later
    (lambda: WorkflowSpec("", offload_at=-1), "offload_at must be at least 0, got -1"),
    (lambda: RingTopology(nodes=1), "nodes must be at least 2, got 1"),
    (lambda: RingTopology(spacing_m=math.nan), "spacing_m must be at least 1e-06, got nan"),
    (lambda: WorkflowSpec("", repeat=0), "repeat must be at least 1, got 0"),
    (lambda: CohortSpec("c", cpu=-1), "cpu must be positive, got -1"),
    (lambda: FaultPlan(rate=math.nan), "rate must be at least 0, got nan"),
    (lambda: ServiceDefinition("s", exec_seconds_mean=-50),
     "exec_seconds_mean must be at least 0, got -50"),
    (lambda: RunSettings(seed=1.5), "seed is not an integer: 1.5"),
    (lambda: RunSettings(seed=True), "seed is not an integer: True"),
    (lambda: RunSettings(seed=None), "seed is not an integer: None"),
    (lambda: CohortSpec("c", count=2.5), "count is not an integer: 2.5"),
    (lambda: CohortSpec("c", client=1), "client is not a boolean: 1"),
    (lambda: ServiceDefinition("s", output_ext=5), "output_ext is not a string: 5"),
    (lambda: WorkflowSpec("", files={"in.dat": -1}),
     "files: in.dat must be at least 0, got -1"),
    (lambda: WaypointTopology(speed_min=2.0, speed_max=1.0),
     "speed_min 2 exceeds speed_max 1"),
    # a cross rule over a refused value would only add a derived problem
    (lambda: WaypointTopology(speed_min=math.inf, speed_max=1.0),
     "speed_min is not a finite number: inf"),
], ids=["offload-at", "one-node-ring", "nan-spacing", "no-repeat", "negative-cpu",
        "nan-fault-rate", "negative-mean", "float-seed", "bool-seed", "no-seed",
        "float-count", "int-client", "int-ext", "negative-file", "speeds",
        "speeds-over-a-refused-one"])
def test_a_hand_built_value_is_refused_as_the_parser_refuses_it(build, problem):
    with pytest.raises(ScenarioError) as info:
        build()
    assert info.value.problems == [problem]


def test_none_leaves_an_optional_field_unset():
    assert CohortSpec("c", count=None, fraction=None).count is None
    assert FaultPlan(max_failures=None).max_failures is None


def test_a_cross_problem_over_a_refused_keys_default_goes_unsaid():
    # a refused key reads as its default; a period or speed rule over that
    # default would be a second problem derived from the first
    text = RING_INI.replace("duration_s = 60", "duration_s = 1000000\ntick_s = 0")
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert info.value.problems == ["[run] tick_s must be positive, got 0"]
    text = RING_INI.replace("kind = ring\nnodes = 6\nspacing_m = 50",
                            "kind = waypoint\nspeed_min = fast\nspeed_max = 0.5")
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert info.value.problems == ["[topology] speed_min is not a finite number: 'fast'"]


def test_the_parser_reports_the_period_rule_as_its_own_problem():
    # RunSettings states the rule; the parser reports what it says, with its
    # section, and a bad period is one problem, not a second derived one
    with pytest.raises(ScenarioError) as hand_built:
        RunSettings(tick_s=1e-5, duration_s=60.0)
    with pytest.raises(ScenarioError) as parsed:
        parse_scenario(RING_INI.replace("[run]", "[run]\ntick_s = 1e-5"))
    assert parsed.value.problems == [f"[run] {p}" for p in hand_built.value.problems]
    with pytest.raises(ScenarioError) as parsed:
        parse_scenario(RING_INI.replace("[run]", "[run]\ntick_s = 0"))
    assert parsed.value.problems == ["[run] tick_s must be positive, got 0"]


def test_duplicate_pins_rejected():
    text = RING_INI.replace("[cohort:worker]",
                            "[cohort:pinned]\naddresses = 1\n\n[cohort:worker]")
    with pytest.raises(ScenarioError, match="more than one cohort"):
        parse_scenario(text)


def cohort(name, **kw):
    return CohortSpec(name=name, **kw)


def test_cohort_counts_pins_counts_rest():
    cohorts = (cohort("a", addresses=(1, 2)), cohort("b", count=3), cohort("c"))
    assert resolve_cohort_counts(cohorts, 10) == [2, 3, 5]


def test_cohort_counts_fractions_largest_remainder():
    cohorts = (cohort("pin", count=3), cohort("x", fraction=0.5),
               cohort("y", fraction=0.25), cohort("z", fraction=0.25))
    # 5 remaining: quotas 2.5 / 1.25 / 1.25 round to 3 / 1 / 1
    assert resolve_cohort_counts(cohorts, 8) == [3, 3, 1, 1]


def test_cohort_counts_overflow_rejected():
    with pytest.raises(ScenarioError, match="resolve to"):
        resolve_cohort_counts((cohort("a", count=5), cohort("b", count=5)), 6)


def test_digest_tracks_run_settings():
    base = parse_scenario(RING_INI)
    assert base.digest() == parse_scenario(RING_INI).digest()
    reseeded = base.with_run(seed=10)
    assert reseeded.digest() != base.digest()
    assert reseeded.run.seed == 10
    assert base.run.seed == 9
    restrategized = base.with_run(strategy=Strategy.RECENT)
    assert restrategized.run.strategy is Strategy.RECENT
    assert restrategized.digest() != base.digest()


def test_workflow_file_reference(tmp_path):
    wf = tmp_path / "chain.wf"
    wf.write_text("ttl=60\nany work stuff.dat\n")
    ini = tmp_path / "scn.ini"
    ini.write_text(RING_INI.replace(
        "tasks =\n    any work in.dat\n    any work ##result##",
        "file = chain.wf").replace("ttl = 120\n", "")
        .replace("name = tiny-ring\n", ""))
    cfg = load_scenario(str(ini))
    assert cfg.name == "scn"      # filename stem when no explicit name
    assert "ttl=60" in cfg.workflow.text
    assert cfg.workflow.text.count("\n") == 2


def test_missing_workflow_file_is_reported(tmp_path):
    ini = tmp_path / "scn.ini"
    ini.write_text(RING_INI.replace(
        "tasks =\n    any work in.dat\n    any work ##result##",
        "file = nowhere.wf"))
    with pytest.raises(ScenarioError, match="cannot read workflow file"):
        load_scenario(str(ini))


def test_nul_byte_in_workflow_file_is_reported():
    text = RING_INI.replace("tasks =\n    any work in.dat\n    any work ##result##",
                            "file = \x00")
    with pytest.raises(ScenarioError, match="cannot read workflow file: .*null byte"):
        parse_scenario(text)


def test_fault_settings_parsed():
    text = RING_INI.replace(
        "[run]", "[run]\nfault_rate = 0.25\nfault_nodes = 2, 3\n"
                 "fault_service = work\nfault_max_failures = 4")
    fault = parse_scenario(text).run.fault
    assert fault.rate == 0.25
    assert fault.nodes == frozenset({2, 3})
    assert fault.service == "work"
    assert fault.max_failures == 4


@pytest.mark.parametrize("setting, problem", [
    ("fault_rate = 1.5", "[run] fault_rate must be at most 1, got 1.5"),
    ("fault_nodes = 0, 3, 7", "[run] fault_nodes: address 0 outside 1..6"),
    ("fault_nodes = 2, 99", "[run] fault_nodes: address 99 outside 1..6"),
    ("fault_nodes = ,", "[run] fault_nodes: no address given"),
    ("fault_service = nosuch", "[run] fault_service 'nosuch' is not under [services]"),
])
def test_fault_settings_checked_against_the_scenario(setting, problem):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(RING_INI.replace("[run]", f"[run]\n{setting}"))
    assert problem in err.value.problems


@pytest.mark.parametrize("key", ["fault_rate", "fault_nodes", "fault_service",
                                 "fault_max_failures"])
def test_a_blank_fault_key_is_not_set(key):
    text = RING_INI.replace("[run]", f"[run]\n{key} =")
    assert parse_scenario(text).run.fault == FaultPlan()


def test_cohort_with_no_readable_address_is_not_a_remainder():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(RING_INI.replace("addresses = 1", "addresses = one"))
    assert err.value.problems == ["[cohort:client] addresses: not an integer: 'one'"]


def test_fault_settings_at_their_bounds_parse():
    text = RING_INI.replace(
        "[run]", "[run]\nfault_rate = 1\nfault_nodes = 1, 6\nfault_service = work")
    fault = parse_scenario(text).run.fault
    assert (fault.rate, fault.nodes, fault.service) == (1.0, frozenset({1, 6}), "work")


def test_service_problems_name_the_service_once():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(RING_INI.replace("ext=png", "ext=png, params=4294967296, warp=1"))
    assert err.value.problems == [
        "[services] work: unknown key 'warp'",
        "[services] work: params must be at most 4294967295, got 4294967296"]


MINIMAL_INI = """
[topology]
kind = {kind}

[services]
work =

[cohort:client]
addresses = 1
client = true

[cohort:rest]

[workflow]
tasks = any work
"""


@pytest.mark.parametrize("topology", [RingTopology, WaypointTopology])
def test_omitted_keys_take_the_dataclass_defaults(topology):
    cfg = parse_scenario(MINIMAL_INI.format(kind=topology.kind))
    assert cfg.topology == topology()
    assert cfg.link == LinkModel()
    assert cfg.services == {"work": ServiceDefinition(name="work")}
    assert cfg.cohorts[1] == CohortSpec(name="rest")
    assert cfg.workflow == WorkflowSpec(text=cfg.workflow.text)
    assert cfg.run == RunSettings()


def test_readme_scenario_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"six sections.*?```ini\n(.*?)```", readme, re.S).group(1)
    assert parse_scenario(block).name == "tiny-ring"


SCENARIO_DIR = resources.files("carryflow") / "scenarios"
PACKAGED_INIS = [(SCENARIO_DIR / f"{name}.ini").read_text()
                 for name in packaged_scenarios()]
FUZZ_TOKENS = ["nan", "-1", "0", "=", ",", ":", "\x00", "1e400", "-inf", "inf",
               "##result##", "", "yes", "4294967296", "a=1", "x:-5", "[run]",
               "file", "kind", "fault_nodes", "9" * 30]


@st.composite
def mutated_scenarios(draw):
    """A packaged scenario with a few keys or values swapped for odd tokens."""
    lines = draw(st.sampled_from(PACKAGED_INIS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        idx = draw(st.integers(0, len(lines) - 1))
        key, sep, value = lines[idx].partition("=")
        token = draw(st.sampled_from(FUZZ_TOKENS))
        lines[idx] = draw(st.sampled_from([
            f"{key}{sep} {token}",
            f"{key}{sep}{value}{token}",
            f"{token}{sep}{value}",
            f"{lines[idx]}\n{token} = {draw(st.sampled_from(FUZZ_TOKENS))}",
        ]))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=mutated_scenarios())
@example(text=PACKAGED_INIS[packaged_scenarios().index("ring-aot")]
         .replace("file = aot-chain.wf", "file = \x00"))
def test_mutated_scenarios_raise_only_scenario_errors(text):
    try:
        parse_scenario(text, base_dir=str(SCENARIO_DIR))
    except ScenarioError:
        pass
