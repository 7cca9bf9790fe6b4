"""Event loop, link arithmetic, epidemic sync, and mobility bounds."""

import hashlib
import heapq
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carryflow.assignment import Strategy
from carryflow.bundles import Bundle, BundleKind, BundleStore
from carryflow.cli import packaged_scenarios, resolve_scenario
from carryflow.client import ClientRuntime
from carryflow.harness import build, run_scenario
from carryflow.nodes import Node
from carryflow.runtime import FaultPlan, WorkerRuntime
from carryflow.scenario import ScenarioError, WaypointTopology
from carryflow.simnet import LinkModel, RandomWaypoint, World, transfer_duration

LINK = LinkModel(bandwidth_bps=54e6, latency_s=0.020)


def waypoint(width, height, speed_min, speed_max, pause_max):
    """The geometry a RandomWaypoint walks, given as a topology gives it."""
    return WaypointTopology(width_m=width, height_m=height, speed_min=speed_min,
                            speed_max=speed_max, pause_max_s=pause_max)


def make_bundle(source: int, dest, seq: int, size: int, *, created_at: float = 0.0,
                ttl: float = 1e6, workflow_id=None) -> Bundle:
    return Bundle(bundle_id=(source, seq), source=source, destination=dest,
                  kind=BundleKind.WORKFLOW_ARCHIVE, payload=None,
                  size_bytes=size, created_at=created_at, ttl_seconds=ttl,
                  workflow_id=workflow_id)


def line_world(n: int, link: LinkModel = LINK, arrivals=None):
    # handlers also fire on the originating node itself; log receptions only
    world = World(link, tick_interval=0.5,
                  adjacency=[(i, i + 1) for i in range(1, n)])
    for addr in range(1, n + 1):
        if arrivals is None:
            world.add_node(addr)
        else:
            world.add_node(addr, handler=lambda b, a=addr: b.source != a
                           and arrivals.append((a, b.bundle_id, world.now)))
    return world


def test_transfer_duration_arithmetic():
    # latency plus serialization: 0.020 + 8 * size / 54e6
    assert transfer_duration(LINK, 1_000_000) == pytest.approx(0.1681481481481, abs=1e-9)
    assert transfer_duration(LINK, 13_600_000) == pytest.approx(2.0348148148148, abs=1e-9)
    assert transfer_duration(LINK, 0) == pytest.approx(0.020)
    with pytest.raises(ValueError):
        transfer_duration(LINK, -1)


@pytest.mark.parametrize("link", [LINK, LinkModel(bandwidth_bps=7_777_777.0, latency_s=0.0137),
                                  LinkModel(bandwidth_bps=1e6 / 3, latency_s=0.1)])
def test_transfer_end_times_are_exact(link):
    # sent back to back over one link, each copy lands at exactly the time the
    # last one landed plus transfer_duration: no reordering of the arithmetic
    arrivals = []
    world = line_world(2, link=link, arrivals=arrivals)
    sizes = [1, 999, 123_457, 10_000_001]
    bundles = [make_bundle(1, 2, seq, size, created_at=1.3)
               for seq, size in enumerate(sizes, start=1)]
    world.schedule(1.3, lambda: [world.originate(b) for b in bundles])
    world.run_until(1000.0)
    expected, end = [], 1.3
    for size in sizes:
        end = end + transfer_duration(link, size)
        expected.append(end)
    assert [t for _, _, t in arrivals] == expected


def test_same_time_events_run_in_insertion_order():
    world = World(LINK, adjacency=[])
    order = []
    world.schedule(1.0, lambda: order.append("a"))
    world.schedule(1.0, lambda: order.append("b"))
    world.schedule(0.5, lambda: order.append("first"))
    world.run_until(2.0)
    assert order == ["first", "a", "b"]
    assert world.now == 2.0


def test_an_event_cannot_schedule_before_now():
    # from inside an event at 5.0, a time of 2.0 is refused: it would set the
    # clock back and run ahead of the event already queued at 5.0
    world = World(LINK)
    seen = []

    def at_five():
        with pytest.raises(ValueError):
            world.schedule(2.0, lambda: seen.append(("past", world.now)))
        seen.append(("five", world.now))

    world.schedule(5.0, at_five)
    world.schedule(5.0, lambda: seen.append(("other", world.now)))
    world.run_until(10.0)
    assert seen == [("five", 5.0), ("other", 5.0)]
    assert world.now == 10.0
    with pytest.raises(ValueError):
        world.schedule(9.5, lambda: None)
    assert world._heap == [] and world._due == {}


def test_a_nan_time_is_refused_and_stalls_nothing():
    world = World(LINK)
    order = []
    with pytest.raises(ValueError):
        world.schedule(math.nan, lambda: order.append("nan"))
    world.schedule(1.0, lambda: order.append("one"))
    world.run_until(2.0)
    assert order == ["one"]


@pytest.mark.parametrize("same_time_child", [False, True])
def test_a_raising_event_leaves_the_rest_of_its_instant_queued(same_time_child):
    world = World(LINK)
    order = []

    def boom():
        order.append("boom")
        if same_time_child:
            world.schedule(world.now, lambda: order.append("child"))
        raise RuntimeError("boom")

    for fn in (lambda: order.append("a"), boom, lambda: order.append("b"),
               lambda: order.append("c")):
        world.schedule(1.0, fn)
    world.schedule(2.0, lambda: order.append("later"))
    with pytest.raises(RuntimeError):
        world.run_until(3.0)
    assert order == ["a", "boom"] and world.now == 1.0
    world.run_until(3.0)
    child = ["child"] if same_time_child else []
    assert order == ["a", "boom", "b", "c", *child, "later"]
    assert world.now == 3.0


class _Boom(Exception):
    pass


class _ReferenceQueue:
    """The (when, seq) tuple heap the world's queue must order events like."""

    def __init__(self) -> None:
        self.now = 0.0
        self.heap: list = []
        self.seq = 0

        def tick():
            pass

        tick.label = "tick"     # the world's own first event, at 0.0
        self.schedule(0.0, tick)

    def schedule(self, when, fn) -> None:
        if not when >= self.now:
            raise ValueError(when)
        self.seq += 1
        heapq.heappush(self.heap, (when, self.seq, fn))

    def run_until(self, t_end) -> None:
        while self.heap and self.heap[0][0] <= t_end:
            when, _, fn = heapq.heappop(self.heap)
            self.now = when
            fn()
        self.now = max(self.now, t_end)

    def pending(self) -> list:
        return [(when, fn.label) for when, _, fn in sorted(self.heap)]


def world_pending(world: World) -> list:
    # one heap entry per pending time, and a non-empty list for each
    assert sorted(world._heap) == sorted(world._due) and len(set(world._heap)) == len(world._heap)
    assert all(world._due.values())
    return [(when, getattr(fn, "label", "tick"))
            for when in sorted(world._heap) for fn in world._due[when]]


def drive(queue, ops) -> list:
    """Run ops on queue: what ran, at what time, and each call's outcome.

    A plan is (time, raises, children): its event schedules each child's
    plan and then raises if asked. A time before `now` must be refused.
    """
    log = []

    def schedule(plan, label):
        when, raises, children = plan

        def fn():
            log.append((label, queue.now))
            for i, child in enumerate(children):
                schedule(child, f"{label}.{i}")
            if raises:
                raise _Boom(label)

        fn.label = label
        try:
            queue.schedule(when, fn)
        except ValueError:
            log.append(("refused", label, queue.now))

    for k, (kind, arg) in enumerate(ops):
        if kind == "add":
            schedule(arg, str(k))
            continue
        try:
            queue.run_until(arg)
        except _Boom as exc:
            log.append(("raised", str(exc)))
        log.append(("now", queue.now))
    return log


_TIMES = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0, math.inf])
_PLANS = st.recursive(
    st.tuples(_TIMES, st.sampled_from([False, False, True]), st.just(())),
    lambda kids: st.tuples(_TIMES, st.sampled_from([False, False, True]),
                           st.lists(kids, max_size=3).map(tuple)),
    max_leaves=8)
# on event times and between them
_BOUNDS = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, math.inf])
_OPS = st.lists(st.one_of(st.tuples(st.just("add"), _PLANS),
                          st.tuples(st.just("run"), _BOUNDS)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(_OPS)
# ties, one scheduling at its own instant mid-list, and one raising before it
@example([("add", (1.0, False, ())), ("add", (1.0, False, ((1.0, False, ()),))),
          ("add", (1.0, True, ())), ("add", (1.0, False, ())), ("run", 1.0),
          ("add", (1.0, False, ())), ("run", 1.0)])
@example([("add", (-0.0, False, ((0.0, False, ()), (math.inf, False, ())))),
          ("run", 0.0), ("add", (-0.0, False, ())), ("run", math.inf)])
def test_queue_runs_events_as_a_sequence_numbered_heap(ops):
    world, reference = World(LINK), _ReferenceQueue()
    assert drive(world, ops) == drive(reference, ops)
    assert world.now == reference.now
    assert world_pending(world) == reference.pending()
    # every event still pending runs once, in the same order; each call
    # stops at most at one raising event
    while reference.heap:
        drain = [("run", math.inf)]
        assert drive(world, drain) == drive(reference, drain)
    assert world_pending(world) == []


def test_flood_arrival_times_per_hop():
    arrivals = []
    world = line_world(3, arrivals=arrivals)
    bundle = make_bundle(1, 3, 1, 1_000_000, created_at=1.0)
    world.schedule(1.0, lambda: world.originate(bundle))
    world.run_until(10.0)
    d = transfer_duration(LINK, 1_000_000)
    assert [(a, t) for a, _, t in arrivals] == [
        (2, pytest.approx(1.0 + d)),
        (3, pytest.approx(1.0 + 2 * d)),
    ]
    assert world.transfers_completed == 2


def test_link_serializes_fifo():
    arrivals = []
    world = line_world(2, arrivals=arrivals)
    first = make_bundle(1, 2, 1, 1_000_000, created_at=1.0)
    second = make_bundle(1, 2, 2, 2_000_000, created_at=1.0)

    def send():
        world.originate(first)
        world.originate(second)

    world.schedule(1.0, send)
    world.run_until(10.0)
    d1 = transfer_duration(LINK, 1_000_000)
    d2 = transfer_duration(LINK, 2_000_000)
    assert arrivals[0][2] == pytest.approx(1.0 + d1)
    assert arrivals[1][2] == pytest.approx(1.0 + d1 + d2)


def test_link_is_shared_both_directions():
    arrivals = []
    world = line_world(2, arrivals=arrivals)
    east = make_bundle(1, 2, 1, 1_000_000, created_at=1.0)
    west = make_bundle(2, 1, 1, 1_000_000, created_at=1.0)

    def send():
        world.originate(east)
        world.originate(west)

    world.schedule(1.0, send)
    world.run_until(10.0)
    d = transfer_duration(LINK, 1_000_000)
    times = sorted(t for _, _, t in arrivals)
    assert times == [pytest.approx(1.0 + d), pytest.approx(1.0 + 2 * d)]


def test_anti_entropy_on_new_contact():
    # bundle originated while disconnected spreads at the next encounter
    world = World(LINK, tick_interval=0.5, contact_range=50.0)
    got = []
    world.add_node(1, position=(0.0, 0.0))
    world.add_node(2, position=(1000.0, 0.0),
                   handler=lambda b: b.source != 2 and got.append(world.now))
    bundle = make_bundle(1, 2, 1, 1_000_000, created_at=1.0)
    world.schedule(1.0, lambda: world.originate(bundle))
    world.schedule(5.0, lambda: world.set_position(2, (10.0, 0.0)))
    world.run_until(20.0)
    # the move was queued before that instant's tick, so the 5.0 tick already
    # sees the nodes in range and starts the transfer
    d = transfer_duration(LINK, 1_000_000)
    assert got == [pytest.approx(5.0 + d)]


def test_abort_on_contact_loss_restarts_from_scratch():
    world = World(LINK, tick_interval=0.5, contact_range=50.0)
    got = []
    world.add_node(1, position=(0.0, 0.0))
    world.add_node(2, position=(10.0, 0.0),
                   handler=lambda b: b.source != 2 and got.append(world.now))
    big = make_bundle(1, 2, 1, 54_000_000, created_at=1.0)  # 8 s transfer
    world.schedule(1.0, lambda: world.originate(big))
    world.schedule(3.0, lambda: world.set_position(2, (1000.0, 0.0)))
    world.run_until(6.0)
    assert world.transfers_aborted == 1
    assert got == []
    assert big.bundle_id not in world.stores[2].arrived_at

    world.schedule(6.0, lambda: world.set_position(2, (10.0, 0.0)))
    world.run_until(30.0)
    d = transfer_duration(LINK, 54_000_000)
    assert got == [pytest.approx(6.5 + d)]
    assert world.transfers_completed == 1


def test_receiver_accept_filter_blocks_storage():
    world = World(LINK, tick_interval=0.5, adjacency=[(1, 2)])
    world.add_node(1)
    world.add_node(2, refused={"wf"})
    # a bundle of a workflow that node 2 refuses is never queued for it
    bundle = make_bundle(1, 2, 1, 1000, created_at=1.0, workflow_id="wf")
    world.schedule(1.0, lambda: world.originate(bundle))
    world.run_until(5.0)
    assert bundle.bundle_id not in world.stores[2].arrived_at
    assert world.transfers_completed == 0


def test_expired_bundle_not_forwarded():
    arrivals = []
    world = line_world(3, arrivals=arrivals)
    # dies while crossing the first hop: never reaches node 3
    bundle = make_bundle(1, 3, 1, 13_600_000, created_at=1.0, ttl=2.5)
    world.schedule(1.0, lambda: world.originate(bundle))
    world.run_until(10.0)
    assert [a for a, _, _ in arrivals] == [2]


def test_duplicate_not_requeued():
    world = line_world(2)
    bundle = make_bundle(1, 2, 1, 1000, created_at=1.0)
    world.schedule(1.0, lambda: world.originate(bundle))
    world.run_until(5.0)
    completed = world.transfers_completed
    world.schedule(5.0, lambda: world.originate(bundle))
    world.run_until(10.0)
    assert world.transfers_completed == completed


class _Float(float):
    """A float that is not a built-in float, as a numpy scalar is not."""


def test_positions_are_built_in_floats_that_round_trip_exactly():
    world = World(LINK, adjacency=[])
    world.add_node(1, position=(3, -4))
    world.add_node(2, position=(_Float(0.1), _Float(2.5e-300)))
    world.add_node(3)
    given = {1: (3.0, -4.0), 2: (0.1, 2.5e-300), 3: (0.0, 0.0)}
    world.set_position(3, (Fraction(1, 3), 7))
    given[3] = (1 / 3, 7.0)
    world.set_position(1, (0.1 + 0.2, -0.0))
    given[1] = (0.1 + 0.2, -0.0)
    for addr, expected in given.items():
        position = world.position_of(addr)
        assert type(position) is tuple
        assert [type(c) for c in position] == [float, float]
        # repr tells -0.0 from 0.0 and every last bit apart
        assert repr(position) == repr(expected)


@pytest.mark.parametrize("position", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0)])
def test_positions_must_be_finite(position):
    world = World(LINK, contact_range=10.0)
    with pytest.raises(ValueError, match="finite"):
        world.add_node(1, position=position)
    world.add_node(1)
    with pytest.raises(ValueError, match="finite"):
        world.set_position(1, position)
    assert world.position_of(1) == (0.0, 0.0)


@pytest.mark.parametrize("kwargs,problem", [
    # a period that is not positive would reschedule the tick at `now` forever
    *[(dict(tick_interval=period, contact_range=10.0), "tick_interval must be positive")
      for period in (0.0, -0.5, math.nan)],
    # a negative range would link nodes |range| apart, and NaN would link none
    (dict(contact_range=-5.0), "contact_range must be at least 0, got -5$"),
    (dict(contact_range=math.nan), "contact_range must be at least 0, got nan"),
    (dict(contact_range=math.inf), "contact_range is not a finite number: inf"),
    # a range world would drop its static pairs unread
    (dict(contact_range=5.0, adjacency=[(1, 2)]), "takes no static pairs"),
    # a link from a node to itself would list it twice among the node's own
    (dict(adjacency=[(1, 2), (1, 1)]), r"static pair \(1, 1\) joins a node to itself"),
])
def test_world_arguments_it_would_misread_are_refused(kwargs, problem):
    with pytest.raises(ValueError, match=problem):
        World(LINK, **kwargs)


def test_a_static_pair_with_an_absent_end_is_refused_before_any_link_opens():
    world = World(LINK, adjacency=[(1, 2), (2, 3)])
    world.add_node(1)
    world.add_node(2)
    with pytest.raises(ValueError, match=r"static pair \(2, 3\) names a node that never joined"):
        world.run_until(1.0)
    assert world._links == {}


def test_a_static_world_opens_its_pairs_once():
    world = line_world(3)
    world.run_until(100.0)
    assert sorted(world._links) == [(1, 2), (2, 3)]
    assert world._heap == []        # no tick is left to run
    with pytest.raises(ValueError, match="contact range"):
        World(LINK, mobility=RandomWaypoint(waypoint(100.0, 80.0, 0.8, 1.9, 10.0), []))


@pytest.mark.parametrize("args, message", [
    ((100.0, 100.0, 2.0, 1.0, 5.0), "speed_min 2 exceeds speed_max 1"),
    ((100.0, 100.0, math.nan, 1.9, 5.0), "speed_min must be positive, got nan"),
    ((100.0, 100.0, 0.0, 1.9, 5.0), "speed_min must be positive, got 0"),
    ((100.0, 100.0, 0.8, math.inf, 5.0), "speed_max is not a finite number: inf"),
    ((100.0, 100.0, 0.8, 1.9, -1.0), "pause_max_s must be at least 0, got -1"),
    ((100.0, 100.0, 0.8, 1.9, math.nan), "pause_max_s must be at least 0, got nan"),
    ((0.0, 100.0, 0.8, 1.9, 5.0), "width_m must be at least 1e-06, got 0"),
    ((100.0, math.inf, 0.8, 1.9, 5.0), "height_m is not a finite number: inf"),
], ids=[  # each names the rule its case breaks
    "args0-speed_min must be at most speed_max", "args1-speed_min must be finite and above 0",
    "args2-speed_min must be finite and above 0", "args3-speed_max must be finite and above 0",
    "args4-pause_max must be finite and at least 0",
    "args5-pause_max must be finite and at least 0", "args6-width must be finite and above 0",
    "args7-height must be finite and above 0"])
def test_waypoint_refuses_what_the_parser_refuses(args, message):
    # a range world bounds how far a node walks in a tick by speed_max, so a
    # model whose legs could outrun it, or whose positions turn NaN, is
    # refused when built; a WaypointTopology would refuse these itself, so
    # the geometry comes in a plain namespace with its fields
    geometry = SimpleNamespace(**{**vars(WaypointTopology()), **dict(zip(
        ("width_m", "height_m", "speed_min", "speed_max", "pause_max_s"), args))})
    with pytest.raises(ScenarioError) as info:
        RandomWaypoint(geometry, [random.Random(1)])
    assert info.value.problems == [message]


def test_originate_honors_source_refusal():
    world = World(LINK, adjacency=[])
    store = world.add_node(1, refused={"wf"})
    world.originate(make_bundle(1, None, 1, 10, workflow_id="wf"))
    assert len(store) == 0


def test_the_table_keeps_each_stored_bundle_once_through_a_mobile_run():
    # at every simulated second of a mobile-sparse run, through its
    # workflows and their cleanups, the world's one table holds exactly the
    # distinct ids its stores hold, and a store is one dict of arrival times
    config = resolve_scenario("mobile-sparse").with_run(seed=1, strategy=Strategy.SPREAD)
    world = build(config).world
    table = world.table
    extra_copies = tagged_seen = 0
    while world.now < 420.0:
        world.advance(1.0)
        stores = list(world.stores.values())
        assert all(store.table is table for store in stores)
        assert all([name for name in BundleStore.__slots__
                    if isinstance(getattr(store, name), dict)] == ["arrived_at"]
                   for store in stores)
        assert len(table) == len(set().union(*(store.arrived_at for store in stores)))
        extra_copies = max(extra_copies, sum(map(len, stores)) - len(table))
        tagged_seen = max(tagged_seen, len(table.workflows))
    # stores shared bundles, and workflows came and went
    assert extra_copies > 0 and tagged_seen > 0
    assert not table.workflows


def test_the_stored_peak_of_a_mobile_run_is_pinned():
    # (stored copies, distinct bundles) at the most copies any simulated
    # second of mobile-sparse, seed 1, spread, holds in its first 300 s: a
    # change to what a store takes, keeps or sheds moves one of them
    config = resolve_scenario("mobile-sparse").with_run(seed=1, strategy=Strategy.SPREAD)
    world = build(config).world
    peak = (0, 0, 0.0)
    while world.now < 300.0:
        world.advance(1.0)
        copies = sum(map(len, world.stores.values()))
        if copies > peak[0]:
            peak = (copies, len(world.table), world.now)
    assert peak == (13008, 549, 296.0)


class _Logged(set):
    """A node's refused workflows, logging each lookup as (node, workflow, time)."""

    def __init__(self, addr, world, log, refused=()) -> None:
        super().__init__(refused)
        self.addr, self.world, self.log = addr, world, log

    def __contains__(self, workflow_id) -> bool:
        self.log.append((self.addr, workflow_id, self.world.now))
        return super().__contains__(workflow_id)


def test_a_refusing_node_takes_offers_on_every_path_and_never_its_workflow():
    # node 2 starts refusing "wf" while its bundle is in flight to it, so it
    # refuses that bundle at delivery, then at its own originate and on a
    # forward; node 3 refuses it from the start, at a link scan and on a
    # forward. The offers take the same four paths to every node, and the
    # world looks a workflow up only for a bundle that carries one
    world = World(LINK, tick_interval=0.5, contact_range=20.0)
    asked = []
    refused = {addr: _Logged(addr, world, asked, initial)
               for addr, initial in ((1, ()), (2, ()), (3, ("wf",)))}
    for addr, x in ((1, 0.0), (2, 10.0), (3, 1000.0)):
        world.add_node(addr, position=(x, 0.0), refused=refused[addr])

    def pair(source, seq, created_at):
        return (make_bundle(source, None, seq, 1_000_000, created_at=created_at),
                make_bundle(source, 2, seq + 1, 1_000_000, created_at=created_at,
                            workflow_id="wf"))

    sent = [pair(1, 1, 1.2), pair(2, 1, 3.0), pair(1, 3, 7.0)]
    for offer, tagged in sent:
        world.schedule(offer.created_at, lambda o=offer, t=tagged: (world.originate(o),
                                                                    world.originate(t)))
    world.schedule(1.3, lambda: refused[2].add("wf"))
    world.schedule(5.2, lambda: world.set_position(3, (15.0, 0.0)))
    world.run_until(10.0)
    offers = {offer.bundle_id for offer, _ in sent}
    (_, first), (_, own), (_, last) = sent
    assert world.stores[1].arrived_at.keys() == offers | {first.bundle_id, last.bundle_id}
    for addr in (2, 3):
        assert world.stores[addr].arrived_at.keys() == offers
    assert {workflow for _, workflow, _ in asked} == {"wf"}
    d = transfer_duration(LINK, 1_000_000)
    assert [(a, t) for a, _, t in asked] == [
        (1, 1.2),                           # originate at node 1, which takes it
        (2, 1.2),                           # forwarding over (1, 2), not yet refused
        (2, pytest.approx(1.2 + 2 * d)),    # delivery behind the offer: refused
        (2, 3.0),                           # node 2's own originate: refused
        (3, 5.5),                           # the scan of (1, 3): refused
        (1, 7.0), (2, 7.0), (3, 7.0),       # originate, then forwards: refused
    ]


def test_waypoint_stays_in_bounds_and_is_deterministic():
    def trajectories(seed: str):
        rngs = [random.Random(f"{seed}:{i}") for i in range(4)]
        mob = RandomWaypoint(waypoint(100.0, 80.0, 0.8, 1.9, 10.0), rngs)
        world = World(LINK, tick_interval=0.5, contact_range=30.0, mobility=mob)
        for addr, pos in enumerate(mob.initial_positions(), start=1):
            world.add_node(addr, position=pos)
        samples = []
        for _ in range(200):
            world.advance(0.5)
            samples.append([world.position_of(a) for a in (1, 2, 3, 4)])
        return samples

    first = trajectories("s")
    for snapshot in first:
        for x, y in snapshot:
            assert 0.0 <= x <= 100.0
            assert 0.0 <= y <= 80.0
    # node positions actually move
    assert first[0] != first[-1]
    assert trajectories("s") == first


class PlainWaypoint(RandomWaypoint):
    """RandomWaypoint stepped by one plain loop over every node, with no
    fast path: the reference the fast paths must match bit for bit, draws
    included."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        n = len(self._rngs)
        self._target = [(0.0, 0.0)] * n
        self._speed = [0.0] * n
        self._has_target = [False] * n

    def step(self, positions, dt):
        rngs, targets, speeds = self._rngs, self._target, self._speed
        pauses, has_target = self._pause_left, self._has_target
        for i, rng in enumerate(rngs):
            x, y = positions[i]
            left = dt
            while left > 1e-12:
                if pauses[i] > 0.0:
                    used = min(left, pauses[i])
                    pauses[i] -= used
                    left -= used
                    continue
                if not has_target[i]:
                    targets[i] = (rng.uniform(0.0, self.width), rng.uniform(0.0, self.height))
                    speeds[i] = rng.uniform(self.speed_min, self.speed_max)
                    has_target[i] = True
                tx, ty = targets[i]
                speed = speeds[i]
                dist = math.hypot(tx - x, ty - y)
                reach = speed * left
                if reach >= dist:
                    x, y = tx, ty
                    left -= dist / speed if speed > 0 else left
                    has_target[i] = False
                    pauses[i] = rng.uniform(0.0, self.pause_max)
                else:
                    x += (tx - x) / dist * reach
                    y += (ty - y) / dist * reach
                    left = 0.0
            positions[i] = (x, y)


_speed = st.floats(0.0, 4.0, exclude_min=True)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32), nodes=st.integers(1, 5),
       speeds=st.one_of(st.tuples(_speed, _speed).map(sorted), _speed.map(lambda v: (v, v))),
       pause_max=st.sampled_from([0.0, 0.5, 2.0, 60.0]),
       dts=st.lists(st.sampled_from([0.0, 1e-13, 0.5, 7.3]), min_size=1, max_size=60))
@example(seed=1, nodes=3, speeds=(1.5, 1.5), pause_max=0.0, dts=[0.0, 1e-13, 0.5, 7.3] * 5)
def test_waypoint_step_matches_the_plain_loop(seed, nodes, speeds, pause_max, dts):
    # speed_min == speed_max and pause_max = 0 are the edges of the draws;
    # dt = 0 and 1e-13 move nothing, 0.5 is the tick, and 7.3 s spans legs
    # and pauses, which the fast paths leave to the loop
    def model(cls):
        rngs = [random.Random(f"{seed}:{i}") for i in range(nodes)]
        mob = cls(waypoint(60.0, 40.0, speeds[0], speeds[1], pause_max), rngs)
        return mob, mob.initial_positions()

    (fast, fast_at), (plain, plain_at) = model(RandomWaypoint), model(PlainWaypoint)
    for dt in dts:
        fast.step(fast_at, dt)
        plain.step(plain_at, dt)
        # repr tells every last bit apart
        assert repr(fast_at) == repr(plain_at)
    assert [rng.getstate() for rng in fast._rngs] == [rng.getstate() for rng in plain._rngs]


# integer-valued coordinates keep every squared distance exact, so nodes
# exactly at range are decided the same way by the detector and by the
# reference
_node = st.tuples(st.integers(1, 2 ** 64 - 1), st.integers(0, 12).map(float),
                  st.integers(0, 12).map(float))


@settings(max_examples=200, deadline=None)
@given(nodes=st.lists(_node, max_size=9, unique_by=lambda n: n[0]),
       radius=st.sampled_from([0.0, 1.0, 5.0, 7.5, 20.0]))
@example(nodes=[], radius=5.0)
@example(nodes=[(7, 1.0, 1.0)], radius=5.0)
@example(nodes=[(2, 0.0, 0.0), (1, 3.0, 4.0)], radius=5.0)
@example(nodes=[(9, 2.0, 2.0), (4, 2.0, 2.0), (6, 2.0, 2.0)], radius=0.0)
def test_contact_pairs_match_pairwise_reference(nodes, radius):
    world = World(LINK, contact_range=radius)
    for addr, x, y in nodes:
        world.add_node(addr, position=(x, y))
    expected = set()
    for i, (a, ax, ay) in enumerate(nodes):
        for b, bx, by in nodes[i + 1:]:
            if (ax - bx) ** 2 + (ay - by) ** 2 <= radius ** 2:
                expected.add((min(a, b), max(a, b)))
    closed, opened = world._contacts.changes(world._positions, world._addrs, 0.0)
    assert closed == []
    assert opened == sorted(expected)
    assert all(type(a) is int and type(b) is int for pair in opened for a in pair)


def in_range_pairs(world, radius):
    """Every (a, b), a < b, within radius, from a plain pairwise loop."""
    present = [(addr, world.position_of(addr)) for addr in sorted(world.stores)]
    pairs = set()
    for i, (a, (ax, ay)) in enumerate(present):
        for b, (bx, by) in present[i + 1:]:
            dx, dy = ax - bx, ay - by
            if dx * dx + dy * dy <= radius * radius:
                pairs.add((a, b))
    return pairs


_coord = st.integers(0, 100).map(float)


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       addrs=st.lists(st.integers(1, 2 ** 64 - 1), min_size=2, max_size=10, unique=True),
       radius=st.sampled_from([10.0, 25.0, 50.0]), seed=st.integers(0, 10 ** 6))
def test_contact_changes_keep_links_and_neighbours_exact(data, addrs, radius, seed):
    # waypoint nodes first, then static ones that may join after some ticks;
    # random jumps and small drifts between ticks (a drift is under the
    # skin, often under half of it, so some rebuilds come only from drifts
    # that add up); addresses arrive in no particular order
    n_mobile = data.draw(st.integers(1, len(addrs)), label="mobile nodes")
    rngs = [random.Random(f"{seed}:{i}") for i in range(n_mobile)]
    mob = RandomWaypoint(waypoint(100.0, 100.0, 2.0, 8.0, 3.0), rngs)
    world = World(LINK, tick_interval=0.5, contact_range=radius, mobility=mob)
    for addr, pos in zip(addrs, mob.initial_positions()):
        world.add_node(addr, position=pos)
    late = addrs[n_mobile:]
    drift = st.floats(-radius / 3, radius / 3)
    for _ in range(30):
        if late and data.draw(st.booleans(), label="join"):
            world.add_node(late.pop(0), position=(data.draw(_coord), data.draw(_coord)))
        for _ in range(data.draw(st.integers(0, 2), label="moves")):
            addr = data.draw(st.sampled_from(sorted(world.stores)), label="moved")
            world.set_position(addr, (data.draw(_coord), data.draw(_coord)))
        for _ in range(data.draw(st.integers(0, 3), label="drifts")):
            addr = data.draw(st.sampled_from(sorted(world.stores)), label="drifted")
            x, y = world.position_of(addr)
            world.set_position(addr, (x + data.draw(drift), y + data.draw(drift)))
        world.advance(0.5)

        assert world._links.keys() == in_range_pairs(world, radius)
        neighbours = {addr: [] for addr in world.stores}
        for pair in sorted(world._links):
            state = world._links[pair]
            neighbours[pair[0]].append((pair, state, pair[1]))
            neighbours[pair[1]].append((pair, state, pair[0]))
        assert {addr: [(pair, state, far.addr) for pair, state, far in node.links]
                for addr, node in world._nodes.items()} == neighbours


def test_skin_list_catches_two_ends_that_each_drift_under_half_a_skin():
    # range 40 m, so the skin is 20 m: the pair starts 60.5 m apart, off the
    # skin list, and each end then drifts 2.6 m a tick toward the other, 10.4 m
    # in all, under a whole skin. Together they close 20.8 m in four ticks and
    # come into range at the fourth, which only the summed drift of both ends
    # can tell.
    world = World(LINK, tick_interval=0.5, contact_range=40.0)
    world.add_node(1, position=(0.0, 0.0))
    world.add_node(2, position=(60.5, 0.0))
    world.run_until(0.0)
    assert world._links == {} and world._contacts._pairs == []
    for step in range(1, 5):
        world.set_position(1, (2.6 * step, 0.0))
        world.set_position(2, (60.5 - 2.6 * step, 0.0))
        world.advance(0.5)
        assert list(world._links) == ([(1, 2)] if step == 4 else [])


def test_skin_list_sums_the_jumps_of_one_node_between_ticks():
    # range 40 m, so the skin is 20 m: the pair starts 60.5 m apart, off the
    # skin list. Between two ticks node 2 jumps three times, 7 m each, under
    # half a skin; the jumps sum to 21 m, past it, and bring the pair into
    # range. A bound by the longest single jump would keep the list and miss
    # the pair.
    world = World(LINK, tick_interval=0.5, contact_range=40.0)
    world.add_node(1, position=(0.0, 0.0))
    world.add_node(2, position=(60.5, 0.0))
    world.run_until(0.0)
    assert world._links == {} and world._contacts._pairs == []
    for x in (53.5, 46.5, 39.5):
        world.set_position(2, (x, 0.0))
    world.advance(0.5)
    assert list(world._links) == [(1, 2)]


def test_skin_window_slack_covers_rounding_in_the_bound():
    # no walkers, so the ends' jumps alone bound the drift and a pair can sit
    # on the window's rounding edge. The pair joins 40 + 2d apart, and a tick
    # later each end has jumped d toward the other. It is then exactly 40 m
    # apart, in range; but its squared distance at the join lies just above
    # (40 + 2 * drift)**2 as rounded, so only the window's slack tests it.
    d = 2.2197220890791756
    far = 40.0 + 2 * d
    world = World(LINK, tick_interval=0.5, contact_range=40.0)
    world.add_node(1, position=(0.0, -500.0))
    world.add_node(2, position=(far, -500.0))
    world.run_until(0.0)
    assert world._links == {} and world._contacts._pairs == [(0, 1)]
    world.set_position(1, (d, -500.0))
    world.set_position(2, (far - d, -500.0))
    world.advance(0.5)
    assert list(world._links) == [(1, 2)]


def test_skin_window_covers_rounding_in_a_walk():
    # a field 1e9 m wide, as the parser allows, where the two walkers' x
    # lies in [2**28, 2**29) and so is a multiple of u = 2**-24. Each walks
    # 0.6u a tick straight at the other, and the step rounds to a whole u:
    # the pair closes 2u a tick against the 1.2u that speed_max * dt
    # allows. From 40 + 44u apart it comes into range at the 22nd tick,
    # when the speed bound and the 1 um slack alone give a window of only
    # 26.4u + 16.8u. The world's rounding term keeps the pair in the window.
    u = 2.0 ** -24
    rngs = [random.Random(f"walk:0:{i}") for i in range(2)]
    # legs toward x = 7.7e8 and 4.8e7: node 1 walks right, node 2 left
    mob = RandomWaypoint(waypoint(1e9, 1e-6, 1.2 * u, 1.2 * u, 0.0), rngs)
    world = World(LINK, tick_interval=0.5, contact_range=40.0, mobility=mob)
    world.add_node(1, position=(2.0 ** 28, 0.0))
    world.add_node(2, position=(2.0 ** 28 + 40.0 + 44 * u, 0.0))
    for tick in range(1, 23):
        world.advance(0.5)
        (x1, _), (x2, _) = world.position_of(1), world.position_of(2)
        assert x2 - x1 == 40.0 + (44 - 2 * tick) * u
        assert list(world._links) == ([(1, 2)] if tick == 22 else [])


def test_range_contacts_match_all_pairs_every_tick():
    # the benchmark's dense world: 150 waypoint nodes on 600 x 600 m with a
    # 40 m range. Now and then a node jumps across the field or a static
    # node joins, so ticks mix the skin window and rebuilds.
    rng = random.Random(3)
    mob = RandomWaypoint(waypoint(600.0, 600.0, 0.8, 1.9, 60.0),
                         [random.Random(f"dense:{i}") for i in range(150)])
    world = World(LINK, tick_interval=0.5, contact_range=40.0, mobility=mob)
    addrs = rng.sample(range(3, 100_000), 160)
    for addr, pos in zip(addrs, mob.initial_positions()):
        world.add_node(addr, position=pos)
    late = addrs[150:]
    # a probe pair 500 m off the field: it joins 40 + 2d apart, and a tick
    # later each end has jumped d toward the other, more than any walker
    # moves in a tick. It is then exactly 40 m apart, in range, which the
    # window reaches only by the jumps. The walkers' top speed widens the
    # window by more than a jump can use, so the same pair sits on the
    # window's rounding edge only in a world without walkers, as in
    # test_skin_window_slack_covers_rounding_in_the_bound.
    d = 2.2197220890791756
    far = 40.0 + 2 * d
    probes = {120: (0.0, far), 121: (d, far - d)}
    for tick in range(240):
        if tick in probes:
            a, b = probes[tick]
            if tick == 120:
                world.add_node(1, position=(a, -500.0))
                world.add_node(2, position=(b, -500.0))
            else:
                world.set_position(1, (a, -500.0))
                world.set_position(2, (b, -500.0))
        elif tick % 30 == 11:
            world.add_node(late.pop(), position=(rng.uniform(0, 600), rng.uniform(0, 600)))
        elif tick % 30 == 23:
            world.set_position(rng.choice(addrs[:150]),
                               (rng.uniform(0, 600), rng.uniform(0, 600)))
        world.advance(0.5)
        assert world._links.keys() == in_range_pairs(world, 40.0), tick
    assert (1, 2) in world._links


def test_static_range_world_moved_by_hand_keeps_links_exact():
    # no mobility: only set_position moves nodes, in walks of mixed step
    # sizes, so ticks alternate between the skin list and rebuilds
    rng = random.Random(5)
    world = World(LINK, tick_interval=0.5, contact_range=15.0)
    for addr in range(1, 13):
        world.add_node(addr, position=(rng.uniform(0, 60), rng.uniform(0, 60)))
    for tick in range(120):
        step = (0.5, 2.0, 6.0)[tick // 8 % 3]
        for addr in rng.sample(range(1, 13), 4):
            x, y = world.position_of(addr)
            world.set_position(addr, (x + rng.uniform(-step, step),
                                      y + rng.uniform(-step, step)))
        world.advance(0.5)
        assert world._links.keys() == in_range_pairs(world, 15.0)


def test_push_reaches_neighbours_in_pair_order():
    # star around node 5 plus a tail 9-11; nodes and links are registered
    # out of order, so only the pair order can produce the arrival order
    arrivals = []
    world = World(LINK, tick_interval=0.5,
                  adjacency=[(9, 5), (11, 9), (5, 1), (7, 5), (3, 5)])
    for addr in (7, 11, 1, 9, 5, 3):
        world.add_node(addr, handler=lambda b, a=addr: b.source != a
                       and arrivals.append((a, world.now)))
    bundle = make_bundle(5, None, 1, 1_000_000, created_at=1.2)
    # between ticks, so the transfers are queued by the push, not a link scan
    world.schedule(1.2, lambda: world.originate(bundle))
    world.run_until(10.0)
    d = transfer_duration(LINK, 1_000_000)
    assert arrivals == [(1, pytest.approx(1.2 + d)), (3, pytest.approx(1.2 + d)),
                        (7, pytest.approx(1.2 + d)), (9, pytest.approx(1.2 + d)),
                        (11, pytest.approx(1.2 + 2 * d))]


def test_a_queue_head_starts_inside_the_forward_that_finds_its_link_idle():
    # line 1-2-3: node 2's handler makes a bundle while link 1-2 completes,
    # so that forward finds the link idle with (1, 2) still queued. The head
    # starts right there, before link 2-3 gets the new bundle, and the two
    # equal-sized transfers that start together end in that order
    log = []
    world = World(LINK, tick_interval=0.5, adjacency=[(1, 2), (2, 3)])

    def handler(addr, bundle):
        if bundle.source != addr:
            log.append((addr, bundle.bundle_id, world.now))
        if addr == 2 and bundle.bundle_id == (1, 1):
            world.originate(make_bundle(2, None, 1, 1_000, created_at=world.now))
    for addr in (1, 2, 3):
        world.add_node(addr, handler=lambda b, a=addr: handler(a, b))
    world.schedule(0.0, lambda: [world.originate(make_bundle(1, None, seq, 1_000))
                                 for seq in (1, 2)])
    world.run_until(1.0)
    d = transfer_duration(LINK, 1_000)
    assert log[:3] == [(2, (1, 1), d), (2, (1, 2), d + d), (3, (2, 1), d + d)]
    assert log[1][2] == pytest.approx(0.0403, abs=1e-4)


SPARSE = resolve_scenario("mobile-sparse")
# the benchmark's contact-bound scenario: 150 nodes, about two neighbours each
DENSE = str(Path(__file__).resolve().parents[1] / "bench" / "mobile-dense.ini")


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(1, 10_000), nodes=st.integers(8, 16),
       range_m=st.sampled_from([30.0, 45.0, 70.0]),
       fault_rate=st.sampled_from([0.0, 0.3]))
def test_open_links_hold_every_bundle_the_receiver_lacks(seed, nodes, range_m,
                                                         fault_rate):
    # a link is scanned only in the tick it opens, so from then on the push
    # alone must keep queued every live bundle the other end lacks and has
    # not cleaned, and never queue one bundle twice for one receiver
    config = replace(
        SPARSE,
        topology=WaypointTopology(nodes=nodes, width_m=150.0, height_m=150.0,
                                  range_m=range_m, pause_max_s=10.0),
        services={name: replace(svc, exec_seconds_mean=2.0, exec_seconds_jitter=0.5,
                                output_size_bytes=200_000)
                  for name, svc in SPARSE.services.items()},
        workflow=replace(SPARSE.workflow, offload_at=5.0, interval_s=10.0),
        run=replace(SPARSE.run, seed=seed, fault=FaultPlan(rate=fault_rate)))
    built = build(config)
    world = built.world
    checked = 0
    # 0.37 s steps stop between the 0.5 s ticks, with transfers in flight
    while world.now < 90.0:
        world.run_until(world.now + 0.37)
        for pair, state in world._links.items():
            entries = list(state.queue)
            if state.current is not None:
                entries.append(state.current)
            pending = [(node.addr, bundle.bundle_id) for bundle, node in entries]
            assert len(set(pending)) == len(pending), (world.now, pair, pending)
            pending = set(pending)
            for sender, receiver in (pair, pair[::-1]):
                held = world.stores[receiver].arrived_at
                cleaned = built.nodes[receiver].cleaned
                for bundle in world.stores[sender].live(world.now):
                    if bundle.bundle_id in held or bundle.workflow_id in cleaned:
                        continue
                    assert (receiver, bundle.bundle_id) in pending, \
                        (world.now, sender, receiver, bundle.bundle_id)
                    checked += 1
    assert checked


def test_a_copy_expired_in_flight_or_already_delivered_is_not_stored(monkeypatch):
    # a store tests nothing, so the world must drop both before the write:
    # 1-2-3 is a triangle, and node 1 sends two bundles. The short-lived one
    # expires while it crosses (1, 2) and (1, 3). The lasting one reaches
    # node 2 and node 3 at the same instant, and node 2 forwards it over
    # (2, 3), where the copy lands after node 3 already has it
    inserted = []
    real_insert = BundleStore.insert

    def insert(self, bundle, now):
        inserted.append((self, bundle.bundle_id))
        real_insert(self, bundle, now)

    monkeypatch.setattr(BundleStore, "insert", insert)
    world = World(LINK, tick_interval=0.5, adjacency=[(1, 2), (1, 3), (2, 3)])
    stores = {addr: world.add_node(addr) for addr in (1, 2, 3)}
    d = transfer_duration(LINK, 13_600_000)
    short = make_bundle(1, None, 1, 13_600_000, created_at=1.0, ttl=d / 2)
    lasting = make_bundle(1, None, 2, 13_600_000, created_at=1.0)
    world.schedule(1.0, lambda: world.originate(short))
    world.run_until(1.0 + 2 * d)
    assert world.transfers_completed == 2
    assert inserted == [(stores[1], short.bundle_id)]
    inserted.clear()
    world.schedule(world.now, lambda: world.originate(lasting))
    world.run_until(world.now + 3 * d)
    # (1, 2) and (1, 3) land together, then (2, 3) lands a copy node 3 holds
    assert world.transfers_completed == 2 + 3
    assert inserted == [(stores[addr], lasting.bundle_id) for addr in (1, 2, 3)]
    assert all(short.bundle_id not in stores[addr].arrived_at for addr in (2, 3))


@pytest.mark.parametrize("scenario", [*packaged_scenarios(), DENSE],
                         ids=[*packaged_scenarios(), "mobile-dense"])
def test_the_world_hands_each_store_only_live_bundles_it_never_held(monkeypatch,
                                                                    scenario):
    # BundleStore.insert refuses nothing: the world keeps its contract, on
    # every packaged scenario and the benchmark's dense world
    ever: dict = {}     # store -> every id it was ever handed
    broken = []
    calls = 0
    real_insert = BundleStore.insert

    def insert(self, bundle, now):
        nonlocal calls
        calls += 1
        held = bundle.bundle_id in self.arrived_at
        seen = ever.setdefault(self, set())
        if now > bundle.expires_at:
            broken.append(("expired", now, bundle.bundle_id))
        if held:
            broken.append(("held", now, bundle.bundle_id))
        elif bundle.bundle_id in seen:
            broken.append(("removed", now, bundle.bundle_id))
        seen.add(bundle.bundle_id)
        real_insert(self, bundle, now)

    monkeypatch.setattr(BundleStore, "insert", insert)
    config = resolve_scenario(scenario)
    config = replace(config, run=replace(config.run, duration_s=min(config.run.duration_s,
                                                                     120.0)))
    run_scenario(config, seed=1)
    assert calls and broken == []


# the kind of every event that is not a link's completion, by the function
# its callback calls: a bound method, or a partial of one
EVENT_KINDS = {
    World._tick: "tick",
    Node._announce: "announce",
    ClientRuntime.offload: "offload",
    ClientRuntime._finish: "ttl",
    ClientRuntime._dispatch: "dispatch",
    WorkerRuntime._resume: "stay",
    Node.send_archive: "retry send",
}


def event_kind(fn) -> str:
    """The kind of a scheduled callback; one that is not in EVENT_KINDS fails the test."""
    method = getattr(fn, "func", fn)
    kind = EVENT_KINDS.get(getattr(method, "__func__", method))
    assert kind is not None, f"no event kind for {fn!r}"
    return kind


def link_work(monkeypatch, config, seed, strategy):
    """What one run's links, stores and handlers did, in the counts the tracer reads.

    (transfers completed, transfers aborted, events scheduled, store inserts,
    handler calls, SHA-256 of every scheduled event's (time, target) in
    scheduling order). A completion's target is its link's pair; any other
    event's is its kind, so renaming a callback moves nothing. A store
    refuses nothing, so every insert stores its bundle, and no offer
    reaches a handler.
    """
    import carryflow.harness as harness
    built = []
    real_build = harness.build
    monkeypatch.setattr(harness, "build",
                        lambda c: built.append(real_build(c)) or built[-1])
    counts = Counter()
    order = hashlib.sha256()
    # each open link's completion callback, by the callback, to its pair
    pairs: dict = {}
    real_schedule = World.schedule

    def schedule(self, when, fn):
        counts["scheduled"] += 1
        target = pairs.get(fn)
        if target is None:
            pairs.update((state.complete, pair) for pair, state in self._links.items())
            target = pairs.get(fn) or event_kind(fn)
        order.update(f"{when!r} {target}\n".encode())
        real_schedule(self, when, fn)

    real_insert = BundleStore.insert

    def insert(self, bundle, now):
        counts["inserted"] += 1
        real_insert(self, bundle, now)

    real_on_bundle = Node.on_bundle

    def on_bundle(self, bundle):
        counts["handled"] += 1
        real_on_bundle(self, bundle)

    monkeypatch.setattr(World, "schedule", schedule)
    monkeypatch.setattr(BundleStore, "insert", insert)
    monkeypatch.setattr(Node, "on_bundle", on_bundle)
    harness.run_scenario(config, seed=seed, strategy=strategy)
    world = built[0].world
    return (world.transfers_completed, world.transfers_aborted, counts["scheduled"],
            counts["inserted"], counts["handled"], order.hexdigest())


@pytest.mark.parametrize("name, duration_s, strategy, expected", [
    ("ring-heterogeneous", None, Strategy.BEST, (
        5525, 0, 6028, 5753, 77,
        "a17337e4c1b1efa0bd469e675358379e84ab6d160ecaf6b92acc671312b8f238")),
    ("mobile-sparse", 120.0, Strategy.SPREAD, (
        58976, 29, 60885, 35228, 0,
        "6f507fd2dd0939884aa1f937a7623e74bbf5e0c3b4e318714fadc75ebb6a6126")),
    pytest.param(DENSE, 120.0, Strategy.SPREAD, (
        6276, 4, 6607, 3660, 413,
        "875667455a0dd7f93d86287803574c21c8e86d333061a93d1041af8470fdf800"),
        id="mobile-dense"),
])
def test_link_work_is_pinned(monkeypatch, name, duration_s, strategy, expected):
    # report bytes do not show every transfer: a change to how links queue,
    # start or drop work, or to which instant's events run in which order,
    # must also leave these counts and the schedule digest where they were
    config = resolve_scenario(name)
    if duration_s is not None:
        config = replace(config, run=replace(config.run, duration_s=duration_s))
    assert link_work(monkeypatch, config, 1, strategy) == expected
