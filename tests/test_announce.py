"""Offer records, the fold over a store's offer bundles, and freshness."""

import math
import random
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import carryflow
from carryflow import announce
from carryflow.announce import (Announcement, CapabilityVector,
                                MAX_PARAM_COUNT, OFFER_HEADER_BYTES, OFFER_RECORD_BYTES,
                                OfferDatabase, OfferRecord, SERVICE_NAME_BYTES,
                                build_offer_bundle)
from carryflow.assignment import DEFAULT_WEIGHTS, Strategy, select
from carryflow.bundles import BROADCAST, Bundle, BundleKind, BundleStore
from carryflow.cli import resolve_scenario
from carryflow.harness import run_scenario
from carryflow.scenario import ScenarioError, parse_scenario

CAPS = CapabilityVector(cpu=4.0, memory=2048.0, disk=8192.0, energy=75.5,
                        position=(12.5, -3.0))
SCENARIOS = Path(carryflow.__file__).parent / "scenarios"


def test_a_built_bundle_reads_back_through_a_lookup():
    """Each service of a built bundle shows its worker and capability snapshot."""
    db = OfferDatabase(BundleStore())
    bundle = build_offer_bundle((42, 1), 42, 7.25, CAPS, {"scale": 1, "denoise": 2})
    assert bundle.size_bytes == OFFER_HEADER_BYTES + 2 * OFFER_RECORD_BYTES
    assert bundle.payload.params == {"scale": 1, "denoise": 2}
    assert (bundle.source, bundle.created_at) == (42, 7.25)
    assert db.store.insert(bundle, 7.5)
    read = [rec for name in ("scale", "denoise") for rec in db.lookup(name, 8.0)]
    assert [(rec.worker, rec.received_at) for rec in read] == [(42, 7.5), (42, 7.5)]
    first = read[0]
    assert first.capabilities is bundle.payload.capabilities
    assert first.capabilities.cpu == 4.0
    assert first.capabilities.energy == 75.5
    assert first.capabilities.position == (12.5, -3.0)


def test_build_offer_bundle_fields():
    params = {"denoise": 2, "scale": 1}
    bundle = build_offer_bundle((5, 1), 5, 3, CAPS, params, expiry_s=60.0)
    assert bundle.kind is BundleKind.OFFER
    assert bundle.destination is BROADCAST
    assert bundle.created_at == 3.0
    assert bundle.ttl_seconds == 60.0
    record = bundle.payload
    assert type(record) is Announcement
    assert (bundle.source, repr(bundle.created_at)) == (5, "3.0")
    # every round of a node shares its one params map
    assert record.params is params
    assert record.capabilities == CAPS and record.capabilities is not CAPS


def test_payload_size_is_header_plus_records():
    for n in range(5):
        bundle = build_offer_bundle((1, 1), 1, 0.0, CAPS, {f"s{i}": 1 for i in range(n)})
        assert bundle.size_bytes == OFFER_HEADER_BYTES + n * OFFER_RECORD_BYTES


def parse_with_service(line: str):
    text = (SCENARIOS / "ring-heterogeneous.ini").read_text(encoding="utf-8")
    return parse_scenario(text.replace("[services]\n", f"[services]\n{line}\n"),
                          base_dir=str(SCENARIOS))


def test_service_name_length_limit():
    name = "x" * SERVICE_NAME_BYTES
    assert name in parse_with_service(f"{name} = mean=1").services
    with pytest.raises(ScenarioError) as info:
        parse_with_service(f"{name}x = mean=1")
    assert info.value.problems == [
        f"[services] {name}x: name is longer than the 24 UTF-8 bytes an offer "
        "record holds"]


@pytest.mark.parametrize("service", [
    ("", 1, "parsing errors"),      # no name to offer
    ("a\x00", 1, "NUL byte"),       # the record's padding would drop it
    ("é" * 13, 1, "24 UTF-8 bytes"),  # 13 characters, but 26 bytes
    ("rescale", -1, "at least 0"),
    ("rescale", MAX_PARAM_COUNT + 1, f"at most {MAX_PARAM_COUNT}"),
])
def test_the_parser_refuses_a_service_the_offer_layout_cannot_hold(service):
    """A service whose name or param count the fixed-width layout cannot hold is refused."""
    name, count, why = service
    with pytest.raises(ScenarioError) as info:
        parse_with_service(f"{name} = mean=1, params={count}")
    problem, = info.value.problems
    assert why in problem


NUMBERS = st.integers(-2 ** 60, 2 ** 60) | st.floats()
NAMES = st.text(st.characters(codec="utf-8"), min_size=1, max_size=24).filter(
    lambda name: len(name.encode("utf-8")) <= SERVICE_NAME_BYTES
    and not name.endswith("\x00"))


@settings(max_examples=300, deadline=None)
@given(worker=st.integers(0, 2 ** 64 - 1),
       issued_at=st.integers(-2 ** 60, 2 ** 60)
       | st.floats(allow_nan=False, allow_infinity=False),
       numbers=st.lists(NUMBERS, min_size=6, max_size=6),
       params=st.dictionaries(NAMES, st.integers(0, MAX_PARAM_COUNT), max_size=5))
@example(worker=0, issued_at=3, numbers=[4, 2048, -0.0, 0, -7, 2 ** 53 + 1],
         params={"é" * 12: 0, "名" * 8: MAX_PARAM_COUNT, "a\x00b": 1})
def test_a_lookup_shows_each_service_of_a_built_bundle_as_a_float_snapshot(
        worker, issued_at, numbers, params):
    """Each service of a built bundle reads back through a lookup as a float snapshot."""
    cpu, memory, disk, energy, x, y = numbers
    caps = CapabilityVector(cpu=cpu, memory=memory, disk=disk, energy=energy,
                            position=(x, y))
    db = OfferDatabase(BundleStore())
    now = float(issued_at)
    bundle = build_offer_bundle((worker, 1), worker, issued_at, caps, params)
    assert db.store.insert(bundle, now)
    assert bundle.payload.params is params
    assert repr(bundle.created_at) == repr(now)
    snapshot = CapabilityVector(cpu=float(cpu), memory=float(memory), disk=float(disk),
                                energy=float(energy), position=(float(x), float(y)))
    want = {name: repr(OfferRecord(worker=worker, capabilities=snapshot, received_at=now))
            for name in params}

    def read() -> dict:
        # repr tells an int from a float and -0.0 from 0.0
        return {name: repr(rec) for name in params for rec in db.lookup(name, now)}
    assert read() == want
    # the offers hold a snapshot: the node moves and spends its own vector
    caps.position, caps.energy = (1.5, 2.5), 0.5
    assert read() == want


@settings(max_examples=200, deadline=None)
@given(worker=st.integers(0, 2 ** 64 - 1), issued_at=NUMBERS,
       numbers=st.lists(NUMBERS, min_size=6, max_size=6))
@example(worker=0, issued_at=3, numbers=[4, 2048, -0.0, 0, -7, 2 ** 53 + 1])
def test_an_announcement_is_a_frozen_float_snapshot(worker, issued_at, numbers):
    cpu, memory, disk, energy, x, y = numbers
    caps = CapabilityVector(cpu=cpu, memory=memory, disk=disk, energy=energy,
                            position=(x, y))
    bundle = build_offer_bundle((worker, 1), worker, issued_at, caps, {"s": 1})
    record = bundle.payload
    want = repr((float(issued_at), float(cpu), float(memory), float(disk),
                 float(energy), (float(x), float(y))))
    snapshot = record.capabilities

    def seen() -> str:
        # repr tells an int from a float and -0.0 from 0.0
        return repr((bundle.created_at, snapshot.cpu, snapshot.memory, snapshot.disk,
                     snapshot.energy, snapshot.position))
    assert seen() == want
    # the node moves and spends its own vector; the round keeps what it sent
    caps.position, caps.energy = (1.5, 2.5), 0.5
    assert seen() == want
    with pytest.raises(FrozenInstanceError):
        bundle.created_at = 0.0
    with pytest.raises(FrozenInstanceError):
        record.params = {}
    assert not hasattr(record, "__dict__")


def view() -> OfferDatabase:
    return OfferDatabase(BundleStore())


def receive(db: OfferDatabase, bundle, now: float) -> bool:
    """Store a bundle, as a node's world does on arrival."""
    return db.store.insert(bundle, now)


def offer_bundle(seq: int, worker: int, issued_at: float, services=("scale",),
                 expiry_s: float = 120.0):
    return build_offer_bundle((worker, seq), worker, issued_at, CAPS,
                              {name: 1 for name in services}, expiry_s=expiry_s)


def assert_shows(records, winners) -> None:
    """A lookup's records are the winning (bundle, received_at) pairs, in order.

    Every bundle here carries CAPS's values, so a record's snapshot is matched
    by identity: build_offer_bundle makes a fresh one per bundle.
    """
    assert [(rec.worker, rec.received_at) for rec in records] == \
        [(bundle.source, at) for bundle, at in winners]
    assert all(rec.capabilities is bundle.payload.capabilities
               for rec, (bundle, _) in zip(records, winners))


ARRIVAL_ORDER = [(10.0, 10.1), (12.0, 12.1), (11.0, 15.0), (12.0, 16.0)]


def test_ingest_newer_wins_older_never_overwrites():
    db, winners = view(), {}
    arrivals = [(offer_bundle(seq, 1, issued_at), at)
                for seq, (issued_at, at) in enumerate(ARRIVAL_ORDER, start=1)]
    assert db.ingest(arrivals[:1], winners) == 1
    assert db.ingest(arrivals[1:2], winners) == 1
    # a delayed older announce must not roll the view back
    assert db.ingest(arrivals[2:3], winners) == 0
    # equal issue time: first arrival stays authoritative
    assert db.ingest(arrivals[3:], winners) == 0
    assert winners[1] is arrivals[1]
    # one call folds a whole arrival sequence the same way
    folded = {}
    assert db.ingest(arrivals, folded) == 2
    assert folded[1] is arrivals[1]


def test_lookup_folds_the_store_in_arrival_order():
    db = view()
    bundles = [offer_bundle(seq, 1, issued_at)
               for seq, (issued_at, _) in enumerate(ARRIVAL_ORDER, start=1)]
    for bundle, (_, at) in zip(bundles, ARRIVAL_ORDER):
        assert receive(db, bundle, at)
    assert_shows(db.lookup("scale", now=16.0), [(bundles[1], 12.1)])


def test_lookup_keeps_the_newest_issue_that_offers_the_service():
    db = view()
    older = build_offer_bundle((1, 1), 1, 10.0, CAPS, {"a": 3, "b": 7})
    newer = build_offer_bundle((1, 2), 1, 12.0, CAPS, {"a": 4})
    receive(db, older, 10.0)
    receive(db, newer, 12.0)
    assert_shows(db.lookup("b", now=13.0), [(older, 10.0)])
    assert_shows(db.lookup("a", now=13.0), [(newer, 12.0)])
    assert db.lookup("c", now=13.0) == []


def test_a_lookup_folds_through_ingest_once(monkeypatch):
    """The benchmark tracer counts a lookup's candidates as ingest's second argument."""
    calls = []
    real = OfferDatabase.ingest

    def counted(self, candidates, winners):
        applied = real(self, candidates, winners)
        calls.append((len(candidates), applied))
        return applied
    monkeypatch.setattr(OfferDatabase, "ingest", counted)
    db = view()
    for seq, (worker, issued_at, services) in enumerate(
            [(1, 1.0, ("a",)), (2, 1.0, ("a", "b")), (1, 2.0, ("a",)), (3, 0.5, ("b",))],
            start=1):
        receive(db, offer_bundle(seq, worker, issued_at, services), 3.0)
    assert [r.worker for r in db.lookup("a", 3.0)] == [1, 2]
    assert calls == [(3, 3)]
    assert db.lookup("z", 3.0) == []
    assert calls[1:] == [(0, 0)]


def test_recent_strategy_reads_the_winning_bundles_arrival():
    db = view()
    receive(db, offer_bundle(1, 1, 12.0), 13.0)
    receive(db, offer_bundle(2, 2, 15.0), 15.5)
    # worker 1's older announce arrives last but does not win its key
    receive(db, offer_bundle(3, 1, 11.0), 20.0)
    records = db.lookup("scale", now=21.0)
    assert [(r.worker, r.received_at) for r in records] == [(1, 13.0), (2, 15.5)]
    chosen = select(Strategy.RECENT, records, {}, DEFAULT_WEIGHTS, (0.0, 0.0),
                    random.Random(0))
    assert chosen == 2


def test_lookup_filters_by_issue_age_and_sorts():
    db = view()
    receive(db, offer_bundle(1, 3, 0.0, expiry_s=100.0), 60.0)
    receive(db, offer_bundle(2, 1, 50.0, expiry_s=100.0), 60.0)
    receive(db, offer_bundle(3, 2, 50.0, ("other",), expiry_s=100.0), 60.0)
    assert [r.worker for r in db.lookup("scale", now=90.0)] == [1, 3]
    # worker 3's offer is now 101 s old by issue time, regardless of arrival
    assert [r.worker for r in db.lookup("scale", now=101.0)] == [1]


def test_offers_leave_the_view_with_their_bundle():
    db = view()
    stale = offer_bundle(1, 2, 0.0, ("a", "b"), expiry_s=100.0)
    fresh = offer_bundle(2, 7, 80.0, ("a",), expiry_s=100.0)
    receive(db, stale, 0.0)
    receive(db, fresh, 80.0)
    assert [r.worker for r in db.lookup("a", now=100.0)] == [2, 7]
    assert db.lookup("b", now=150.0) == []
    assert [r.worker for r in db.lookup("a", now=150.0)] == [7]
    assert stale.bundle_id not in db.store
    assert stale.bundle_id not in db.store.arrived_at


def test_offer_is_visible_until_its_bundle_expires():
    db = view()
    bundle = offer_bundle(1, 4, 7.809482654856925, expiry_s=40.0)
    receive(db, bundle, 8.0)
    assert [r.worker for r in db.lookup("scale", bundle.expires_at)] == [4]
    after = math.nextafter(bundle.expires_at, math.inf)
    assert db.lookup("scale", after) == []


@settings(max_examples=300, deadline=None)
@given(issued_at=st.integers(0, 10 ** 6), expiry_s=st.integers(1, 10 ** 5),
       late=st.floats(0.0, 2e5, allow_nan=False, allow_infinity=False))
@example(issued_at=7, expiry_s=40, late=40.0)
@example(issued_at=7, expiry_s=40, late=math.nextafter(40.0, 41.0))
def test_store_expiry_agrees_with_the_issue_age_rule(issued_at, expiry_s, late):
    """Whole-second issue times and expiry: an offer is shown iff now - issued_at <= expiry."""
    now = issued_at + late
    db = view()
    assert receive(db, offer_bundle(1, 1, float(issued_at), expiry_s=float(expiry_s)),
                   float(issued_at))
    shown = bool(db.lookup("scale", now))
    assert shown == (now - issued_at <= expiry_s)


def test_two_stores_holding_one_offer_bundle_share_its_snapshot(monkeypatch):
    calls = []
    monkeypatch.setattr(announce, "decode_offers", calls.append)
    first = offer_bundle(1, 1, 0.0, expiry_s=10.0)
    a, b = view(), view()
    assert receive(a, first, 0.0) and receive(b, first, 9.0)
    # the payload is a record, so no receiver decodes it
    assert calls == []
    seen_a, = a.lookup("scale", 9.0)
    seen_b, = b.lookup("scale", 9.0)
    assert seen_a.worker == seen_b.worker == 1
    assert seen_a.capabilities is seen_b.capabilities
    assert seen_a.capabilities is first.payload.capabilities
    assert (seen_a.received_at, seen_b.received_at) == (0.0, 9.0)


def test_a_lookup_leaves_the_bundle_as_built():
    """Reading a bundle's record through a lookup writes nothing back to the bundle."""
    bundle = offer_bundle(1, 1, 0.0)
    fresh = replace(bundle)
    db = view()
    assert receive(db, bundle, 0.0)
    assert db.lookup("scale", 1.0)
    assert bundle == fresh
    assert repr(bundle) == repr(fresh)
    # no attribute was added or rebound, and the record is the one it was built with
    assert vars(bundle) == vars(fresh)
    assert bundle.payload is fresh.payload
    # like an archive bundle, an offer bundle has no hash: its record holds a dict
    with pytest.raises(TypeError):
        hash(bundle)


def test_one_offer_bundle_reaching_two_nodes_is_one_shared_record(line3, monkeypatch):
    calls = []
    monkeypatch.setattr(announce, "decode_offers", calls.append)
    line3.settle(0.5)
    # worker 3's first announce: one record, held by every store it reached
    first = line3.world.stores[3].by_id[(3, 1)]
    assert all(line3.world.stores[addr].by_id[first.bundle_id] is first
               for addr in (1, 2))
    assert calls == []
    now = line3.world.now
    seen_at_1, seen_at_2 = (line3.node(addr).offer_db.lookup("work", now)
                            for addr in (1, 2))
    assert [r.worker for r in seen_at_1] == [2, 3]
    assert seen_at_1[1].capabilities is seen_at_2[1].capabilities


def test_a_run_calls_no_offer_decoder(monkeypatch):
    calls = []
    monkeypatch.setattr(announce, "decode_offers", calls.append)
    report = run_scenario(resolve_scenario("ring-heterogeneous"))
    assert report.workflows[0].status == "succeeded"
    assert report.malformed_offers == 0
    # every announce is a record, so a run decodes none
    assert calls == []


ORACLE_EXPIRY_S = 10.0
SERVICES = ["scale", "denoise", "crop"]
# issue times from a small grid, so ties and reordering are common
TIMES = st.sampled_from([0.0, 1.0, 2.5, 4.0, 9.0, 10.0, 12.5, 20.0])
# (seconds forward, worker or None for a lookup, issue time, services)
OPS = st.tuples(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5, 4.0]),
    st.one_of(st.none(), st.integers(1, 4)),
    TIMES,
    st.lists(st.sampled_from(SERVICES), min_size=1, max_size=3, unique=True))


class HistoryOracle:
    """Every offer bundle ever received per (worker, service); the winner is derived from it.

    The winner of a key is the bundle with the newest issue time, and among
    bundles issued at that time the one that arrived first.
    """

    def __init__(self, expiry_s: float) -> None:
        self.expiry_s = expiry_s
        self.history: dict[tuple[int, str], list[tuple[Bundle, float]]] = {}

    def record(self, key):
        entries = self.history[key]
        newest = max(bundle.created_at for bundle, _ in entries)
        return next((bundle, at) for bundle, at in entries if bundle.created_at == newest)

    def ingest(self, bundle, received_at) -> None:
        for name in bundle.payload.params:
            self.history.setdefault((bundle.source, name), []).append((bundle, received_at))

    def lookup(self, service, now):
        fresh = [self.record(key) for key in sorted(self.history)
                 if key[1] == service]
        return [(bundle, at) for bundle, at in fresh
                if now - bundle.created_at <= self.expiry_s]


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(OPS, max_size=25))
def test_offer_database_matches_a_history_oracle(ops):
    db = view()
    oracle = HistoryOracle(ORACLE_EXPIRY_S)
    now = 0.0
    for seq, (dt, worker, issued_at, services) in enumerate(ops, start=1):
        now += dt
        if worker is None:
            for name in SERVICES:
                assert_shows(db.lookup(name, now), oracle.lookup(name, now))
            continue
        bundle = offer_bundle(seq, worker, issued_at, services, expiry_s=ORACLE_EXPIRY_S)
        receive(db, bundle, now)
        oracle.ingest(bundle, now)


def full_fold(store: BundleStore, now: float) -> dict:
    """(worker, service) -> (bundle, received_at), folding every service of every live bundle."""
    folded: dict = {}
    for bundle in store.live(now):
        for name in bundle.payload.params:
            key = (bundle.source, name)
            if key not in folded or folded[key][0].created_at < bundle.created_at:
                folded[key] = (bundle, store.arrived_at[bundle.bundle_id])
    return folded


# (seconds forward, worker, issue delay, param count per offered service, expiry)
ARRIVALS = st.lists(st.tuples(
    st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0]),
    st.integers(1, 4),
    st.sampled_from([0.0, 0.0, 0.5, 2.0, 6.0]),
    st.dictionaries(st.sampled_from(SERVICES), st.integers(0, 3), min_size=1),
    st.sampled_from([5.0, 10.0, 30.0])), max_size=30)


@settings(max_examples=300, deadline=None)
@given(arrivals=ARRIVALS)
def test_a_one_service_lookup_equals_a_full_fold(arrivals):
    db = view()
    now = 0.0
    for seq, (dt, worker, delay, params, expiry_s) in enumerate(arrivals, start=1):
        now += dt
        receive(db, build_offer_bundle((worker, seq), worker, max(0.0, now - delay),
                                       CAPS, params, expiry_s=expiry_s), now)
        folded = full_fold(db.store, now)
        for name in SERVICES:
            assert_shows(db.lookup(name, now),
                         [folded[key] for key in sorted(folded) if key[1] == name])


INBOX_EXPIRY_S = 10.0
# (seconds forward, worker or None for a lookup, issue delay, services)
INBOX_STEPS = st.lists(st.tuples(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 4.0]),
    st.one_of(st.none(), st.integers(1, 3)),
    # arrivals out of issue order, and some right at the expiry edge
    st.sampled_from([0.0, 0.5, 1.0, 3.0, 9.5, 10.0, 10.5, 14.0]),
    st.lists(st.sampled_from(SERVICES), min_size=1, max_size=3, unique=True)),
    max_size=40)


@settings(max_examples=300, deadline=None)
@given(steps=INBOX_STEPS)
def test_inbox_lookups_match_an_eager_fold(steps):
    """The store's offer bundles are the inbox; an eager fold of every arrival agrees."""
    db = view()
    # per service, the winner per worker of every arrival so far
    eager: dict[str, dict] = {name: {} for name in SERVICES}
    now = 0.0
    for seq, (dt, worker, delay, services) in enumerate(steps, start=1):
        now += dt
        if worker is None:
            for name in SERVICES:
                assert_shows(db.lookup(name, now),
                             [(bundle, at) for _, (bundle, at) in sorted(eager[name].items())
                              if now - bundle.created_at <= INBOX_EXPIRY_S])
            continue
        # issue times on a half-second grid, so equal issue times recur
        issued_at = max(0.0, now - delay)
        bundle = offer_bundle(seq, worker, issued_at, services, expiry_s=INBOX_EXPIRY_S)
        # the store refuses a bundle dead on arrival; the eager fold takes it
        assert receive(db, bundle, now) == (now - issued_at <= INBOX_EXPIRY_S)
        for name in services:
            winner = eager[name].get(worker)
            if winner is None or winner[0].created_at < bundle.created_at:
                eager[name][worker] = (bundle, now)
