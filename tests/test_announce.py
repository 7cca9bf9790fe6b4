"""Offer wire format, the fold over a store's offer bundles, and freshness."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carryflow import announce
from carryflow.announce import (CapabilityVector, OFFER_HEADER_BYTES,
                                OFFER_RECORD_BYTES, OfferCodecError,
                                OfferDatabase, ServiceOffer, build_offer_bundle,
                                decode_offers, encode_offers, offers_of)
from carryflow.assignment import DEFAULT_WEIGHTS, Strategy, select
from carryflow.bundles import BROADCAST, BundleKind, BundleStore
from carryflow.cli import resolve_scenario
from carryflow.harness import build, run_scenario

CAPS = CapabilityVector(cpu=4.0, memory=2048.0, disk=8192.0, energy=75.5,
                        position=(12.5, -3.0))


def offer(worker: int, service: str, issued_at: float) -> ServiceOffer:
    return ServiceOffer(worker=worker, service_name=service, param_count=1,
                        capabilities=CAPS, issued_at=issued_at)


def test_codec_round_trip():
    payload = encode_offers(42, 7.25, CAPS, [("scale", 1), ("denoise", 2)])
    assert len(payload) == OFFER_HEADER_BYTES + 2 * OFFER_RECORD_BYTES
    decoded = decode_offers(payload)
    assert [(o.service_name, o.param_count) for o in decoded] == \
        [("scale", 1), ("denoise", 2)]
    first = decoded[0]
    assert first.worker == 42
    assert first.issued_at == 7.25
    assert first.capabilities.cpu == 4.0
    assert first.capabilities.energy == 75.5
    assert first.capabilities.position == (12.5, -3.0)


def test_payload_size_is_header_plus_records():
    for n in range(1, 5):
        payload = encode_offers(1, 0.0, CAPS, [(f"s{i}", 1) for i in range(n)])
        assert len(payload) == OFFER_HEADER_BYTES + n * OFFER_RECORD_BYTES


def test_service_name_length_limit():
    encode_offers(1, 0.0, CAPS, [("x" * 24, 1)])
    with pytest.raises(ValueError):
        encode_offers(1, 0.0, CAPS, [("x" * 25, 1)])


@pytest.mark.parametrize("payload", [
    b"",
    b"\x00" * (OFFER_HEADER_BYTES - 1),
    b"\x00" * (OFFER_HEADER_BYTES + 7),    # trailing partial record
    "not-bytes",
])
def test_decode_rejects_malformed(payload):
    with pytest.raises(OfferCodecError):
        decode_offers(payload)


def test_decode_rejects_empty_service_name():
    payload = encode_offers(1, 0.0, CAPS, [("ok", 1)])
    broken = payload[:OFFER_HEADER_BYTES] + b"\x00" * OFFER_RECORD_BYTES
    with pytest.raises(OfferCodecError):
        decode_offers(broken)


def test_build_offer_bundle_fields():
    bundle = build_offer_bundle((5, 1), 5, 3.0, CAPS, [("scale", 1)], expiry_s=60.0)
    assert bundle.kind is BundleKind.OFFER
    assert bundle.destination is BROADCAST
    assert bundle.size_bytes == len(bundle.payload)
    assert bundle.created_at == 3.0
    assert bundle.ttl_seconds == 60.0


def view() -> OfferDatabase:
    return OfferDatabase(BundleStore())


def receive(db: OfferDatabase, bundle, now: float) -> bool:
    """Store a bundle and decode it, as a node does on arrival."""
    if not db.store.insert(bundle, now):
        return False
    try:
        offers_of(bundle)
    except OfferCodecError:
        pass
    return True


def offer_bundle(seq: int, worker: int, issued_at: float, services=("scale",),
                 expiry_s: float = 120.0):
    return build_offer_bundle((worker, seq), worker, issued_at, CAPS,
                              [(name, 1) for name in services], expiry_s=expiry_s)


def test_ingest_newer_wins_older_never_overwrites():
    db, records = view(), {}
    assert db.ingest([offer(1, "scale", 10.0)], 10.1, records) == 1
    assert db.ingest([offer(1, "scale", 12.0)], 12.1, records) == 1
    # a delayed older announce must not roll the view back
    assert db.ingest([offer(1, "scale", 11.0)], 15.0, records) == 0
    # equal issue time: first arrival stays authoritative
    assert db.ingest([offer(1, "scale", 12.0)], 16.0, records) == 0
    issued_at, _, received_at = records[(1, "scale")]
    assert (issued_at, received_at) == (12.0, 12.1)


def test_lookup_folds_the_store_in_arrival_order():
    db = view()
    for seq, (issued_at, at) in enumerate([(10.0, 10.1), (12.0, 12.1),
                                           (11.0, 15.0), (12.0, 16.0)], start=1):
        assert receive(db, offer_bundle(seq, 1, issued_at), at)
    rec, = db.lookup("scale", now=16.0)
    assert rec.offer.issued_at == 12.0
    assert rec.received_at == 12.1


def test_recent_strategy_reads_the_winning_bundles_arrival():
    db = view()
    receive(db, offer_bundle(1, 1, 12.0), 13.0)
    receive(db, offer_bundle(2, 2, 15.0), 15.5)
    # worker 1's older announce arrives last but does not win its key
    receive(db, offer_bundle(3, 1, 11.0), 20.0)
    records = db.lookup("scale", now=21.0)
    assert [(r.offer.worker, r.received_at) for r in records] == [(1, 13.0), (2, 15.5)]
    chosen = select(Strategy.RECENT, records, {}, DEFAULT_WEIGHTS, (0.0, 0.0),
                    random.Random(0))
    assert chosen == 2


def test_lookup_filters_by_issue_age_and_sorts():
    db = view()
    receive(db, offer_bundle(1, 3, 0.0, expiry_s=100.0), 60.0)
    receive(db, offer_bundle(2, 1, 50.0, expiry_s=100.0), 60.0)
    receive(db, offer_bundle(3, 2, 50.0, ("other",), expiry_s=100.0), 60.0)
    assert [r.offer.worker for r in db.lookup("scale", now=90.0)] == [1, 3]
    # worker 3's offer is now 101 s old by issue time, regardless of arrival
    assert [r.offer.worker for r in db.lookup("scale", now=101.0)] == [1]


def test_offers_leave_the_view_with_their_bundle():
    db = view()
    stale = offer_bundle(1, 2, 0.0, ("a", "b"), expiry_s=100.0)
    fresh = offer_bundle(2, 7, 80.0, ("a",), expiry_s=100.0)
    receive(db, stale, 0.0)
    receive(db, fresh, 80.0)
    assert [r.offer.worker for r in db.lookup("a", now=100.0)] == [2, 7]
    assert db.lookup("b", now=150.0) == []
    assert [r.offer.worker for r in db.lookup("a", now=150.0)] == [7]
    assert stale.bundle_id not in db.store
    assert stale.bundle_id not in db.store.arrived_at


def test_offer_is_visible_until_its_bundle_expires():
    db = view()
    bundle = offer_bundle(1, 4, 7.809482654856925, expiry_s=40.0)
    receive(db, bundle, 8.0)
    assert [r.offer.worker for r in db.lookup("scale", bundle.expires_at)] == [4]
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
    """Every offer ever received per key; the current record is derived from it.

    The record of a key is the offer with the newest issue time, and among
    offers issued at that time the one that arrived first.
    """

    def __init__(self, expiry_s: float) -> None:
        self.expiry_s = expiry_s
        self.history: dict[tuple[int, str], list[tuple[ServiceOffer, float]]] = {}

    def record(self, key):
        entries = self.history[key]
        newest = max(o.issued_at for o, _ in entries)
        return next((o, at) for o, at in entries if o.issued_at == newest)

    def ingest(self, offers, received_at) -> None:
        for o in offers:
            self.history.setdefault((o.worker, o.service_name), []).append((o, received_at))

    def lookup(self, service, now):
        fresh = [self.record(key) for key in sorted(self.history)
                 if key[1] == service]
        return [(o, at) for o, at in fresh if now - o.issued_at <= self.expiry_s]


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
                got = [(rec.offer, rec.received_at) for rec in db.lookup(name, now)]
                assert got == oracle.lookup(name, now)
            continue
        bundle = offer_bundle(seq, worker, issued_at, services, expiry_s=ORACLE_EXPIRY_S)
        receive(db, bundle, now)
        oracle.ingest(decode_offers(bundle.payload), now)


def test_lookup_passes_over_a_malformed_offer_bundle():
    db = view()
    assert receive(db, offer_bundle(1, 1, 0.0), 0.1)
    bad = offer_bundle(2, 2, 0.0)
    bad = replace(bad, payload=bad.payload[:-5])
    assert receive(db, bad, 0.2)
    assert bad.bundle_id in db.store
    assert [r.offer.worker for r in db.lookup("scale", 1.0)] == [1]


def count_decodes(monkeypatch) -> list:
    calls = []
    real = announce.decode_offers
    monkeypatch.setattr(announce, "decode_offers",
                        lambda payload: calls.append(bytes(payload)) or real(payload))
    return calls


def test_an_offer_bundle_received_twice_is_decoded_once(monkeypatch):
    calls = count_decodes(monkeypatch)
    first = offer_bundle(1, 1, 0.0, expiry_s=10.0)
    a, b = view(), view()
    assert receive(a, first, 0.0) and receive(b, first, 9.0)
    assert len(calls) == 1
    assert a.lookup("scale", 9.0)[0].offer is b.lookup("scale", 9.0)[0].offer


def test_decoding_leaves_equality_hash_and_repr_alone():
    bundle = offer_bundle(1, 1, 0.0)
    fresh = replace(bundle)
    offers_of(bundle)
    assert bundle.decoded is not None and fresh.decoded is None
    assert bundle == fresh
    assert hash(bundle) == hash(fresh)
    assert repr(bundle) == repr(fresh)


def test_memoised_payload_reaching_a_second_node_is_not_decoded(line3, monkeypatch):
    calls = count_decodes(monkeypatch)
    line3.settle(0.5)
    # worker 3's first announce, decoded where it was issued
    first = line3.world.stores[3].by_id[(3, 1)]
    assert all(first.bundle_id in line3.world.stores[addr] for addr in (1, 2))
    assert calls.count(first.payload) == 1
    now = line3.world.now
    seen_at_1, seen_at_2 = (line3.node(addr).offer_db.lookup("work", now)
                            for addr in (1, 2))
    assert [r.offer.worker for r in seen_at_1] == [2, 3]
    assert seen_at_1[1].offer is seen_at_2[1].offer


def test_malformed_payload_is_not_kept():
    bad = offer_bundle(1, 1, 0.0)
    bad = replace(bad, payload=bad.payload[:-5])
    for _ in range(3):
        with pytest.raises(OfferCodecError):
            offers_of(bad)
    assert bad.decoded is None


def test_one_decode_per_offer_payload_per_run(monkeypatch):
    calls = count_decodes(monkeypatch)
    report = run_scenario(resolve_scenario("ring-heterogeneous"))
    assert report.workflows[0].status == "succeeded"
    assert len(calls) > 100
    assert len(calls) == len(set(calls))


def test_malformed_offer_counts_once_per_receiver(monkeypatch):
    calls = count_decodes(monkeypatch)
    # a short byte string, and payloads that are not byte strings at all
    for spoil in (lambda payload: payload[:-5], bytearray, bytes.hex):
        calls.clear()
        built = build(resolve_scenario("ring-heterogeneous"))
        bad = build_offer_bundle((2, 10_000), 2, 1.0, CAPS, [("scale", 1)], expiry_s=60.0)
        bad = replace(bad, payload=spoil(bad.payload))
        built.world.schedule(1.0, lambda: built.world.originate(bad))
        built.world.run_until(30.0)
        holders = [addr for addr, store in built.world.stores.items()
                   if bad.bundle_id in store]
        assert len(holders) == len(built.nodes)
        assert built.collector.malformed_offers == len(holders)
        # a payload that is not a byte string is refused before the decoder
        decoded = len(holders) if type(bad.payload) is bytes else 0
        assert calls.count(bad.payload) == decoded


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
    eager: dict = {}
    now = 0.0
    for seq, (dt, worker, delay, services) in enumerate(steps, start=1):
        now += dt
        if worker is None:
            for name in SERVICES:
                got = [(r.offer, r.received_at) for r in db.lookup(name, now)]
                want = sorted((w, o, at) for (w, n), (issued_at, o, at) in eager.items()
                              if n == name and now - issued_at <= INBOX_EXPIRY_S)
                assert got == [(o, at) for _, o, at in want]
            continue
        # issue times on a half-second grid, so equal issue times recur
        issued_at = max(0.0, now - delay)
        bundle = offer_bundle(seq, worker, issued_at, services, expiry_s=INBOX_EXPIRY_S)
        # the store refuses a bundle dead on arrival; the eager fold takes it
        assert receive(db, bundle, now) == (now - issued_at <= INBOX_EXPIRY_S)
        db.ingest(decode_offers(bundle.payload), now, eager)
