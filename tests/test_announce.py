"""Offer wire format, monotonic ingest, and freshness queries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carryflow import announce
from carryflow.announce import (CapabilityVector, OFFER_HEADER_BYTES,
                                OFFER_RECORD_BYTES, OfferCodecError,
                                OfferDatabase, OfferMemo, ServiceOffer,
                                build_offer_bundle, decode_offers, encode_offers)
from carryflow.bundles import BROADCAST, BundleKind
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
    assert build_offer_bundle((5, 2), 5, 3.0, CAPS, []) is None


def test_ingest_newer_wins_older_never_overwrites():
    db = OfferDatabase(expiry_s=120.0)
    assert db.ingest([offer(1, "scale", 10.0)], received_at=10.1) == 1
    assert db.ingest([offer(1, "scale", 12.0)], received_at=12.1) == 1
    # a delayed older announce must not roll the view back
    assert db.ingest([offer(1, "scale", 11.0)], received_at=15.0) == 0
    # equal issue time: first arrival stays authoritative
    assert db.ingest([offer(1, "scale", 12.0)], received_at=16.0) == 0
    rec = db.lookup("scale", now=16.0)[0]
    assert rec.offer.issued_at == 12.0
    assert rec.received_at == 12.1


def test_lookup_filters_by_issue_age_and_sorts():
    db = OfferDatabase(expiry_s=100.0)
    db.ingest([offer(3, "scale", 0.0)], received_at=0.0)
    db.ingest([offer(1, "scale", 50.0)], received_at=50.0)
    db.ingest([offer(2, "other", 50.0)], received_at=50.0)
    assert [r.offer.worker for r in db.lookup("scale", now=90.0)] == [1, 3]
    # worker 3's offer is now 101 s old by issue time, regardless of arrival
    assert [r.offer.worker for r in db.lookup("scale", now=101.0)] == [1]


def test_prune_drops_expired_offers():
    db = OfferDatabase(expiry_s=100.0)
    db.ingest([offer(2, "a", 0.0), offer(2, "b", 0.0)], received_at=0.0)
    db.ingest([offer(7, "a", 80.0)], received_at=80.0)
    # queued and never folded by a read: one stale by 150, one still fresh
    for seq, (worker, issued_at) in enumerate([(3, 20.0), (4, 90.0)], start=1):
        bundle = build_offer_bundle((worker, seq), worker, issued_at, CAPS,
                                    [("c", 1)], expiry_s=100.0)
        assert db.ingest_bundle(bundle, received_at=issued_at + 1.0) == 1
    assert db.prune(now=150.0) == 3
    assert len(db) == 2
    assert not db._inbox
    assert [r.offer.worker for r in db.lookup("c", now=150.0)] == [4]


ORACLE_EXPIRY_S = 10.0
# issue and clock times from a small grid, so ties and reordering are common
TIMES = st.sampled_from([0.0, 1.0, 2.5, 4.0, 9.0, 10.0, 12.5, 20.0])
OFFERS = st.builds(offer, worker=st.integers(1, 4),
                   service=st.sampled_from(["scale", "denoise", "crop"]),
                   issued_at=TIMES)
OPS = st.one_of(
    st.tuples(st.just("ingest"), st.lists(OFFERS, max_size=6), TIMES),
    st.tuples(st.just("lookup"), st.sampled_from(["scale", "denoise", "crop"]), TIMES),
    st.tuples(st.just("prune"), st.none(), TIMES))


class HistoryOracle:
    """Every offer ever ingested per key; the current record is derived from it.

    The record of a key is the offer with the newest issue time, and among
    offers issued at that time the one that arrived first. Pruning forgets a
    key's history once its record is stale.
    """

    def __init__(self, expiry_s: float) -> None:
        self.expiry_s = expiry_s
        self.history: dict[tuple[int, str], list[tuple[ServiceOffer, float]]] = {}

    def record(self, key):
        entries = self.history[key]
        newest = max(o.issued_at for o, _ in entries)
        return next((o, at) for o, at in entries if o.issued_at == newest)

    def ingest(self, offers, received_at) -> int:
        applied = 0
        for o in offers:
            earlier = self.history.setdefault((o.worker, o.service_name), [])
            if all(prior.issued_at < o.issued_at for prior, _ in earlier):
                applied += 1
            earlier.append((o, received_at))
        return applied

    def lookup(self, service, now):
        fresh = [self.record(key) for key in sorted(self.history)
                 if key[1] == service]
        return [(o, at) for o, at in fresh if now - o.issued_at <= self.expiry_s]

    def prune(self, now) -> int:
        stale = [key for key in self.history
                 if now - self.record(key)[0].issued_at > self.expiry_s]
        for key in stale:
            del self.history[key]
        return len(stale)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(OPS, max_size=25))
def test_offer_database_matches_a_history_oracle(ops):
    db = OfferDatabase(expiry_s=ORACLE_EXPIRY_S)
    oracle = HistoryOracle(ORACLE_EXPIRY_S)
    for op, arg, at in ops:
        if op == "ingest":
            assert db.ingest(arg, received_at=at) == oracle.ingest(arg, at)
        elif op == "lookup":
            got = [(rec.offer, rec.received_at) for rec in db.lookup(arg, now=at)]
            want = oracle.lookup(arg, at)
            assert [(o.worker, received) for o, received in got] == \
                [(o.worker, received) for o, received in want]
            assert all(g is w for (g, _), (w, _) in zip(got, want))
        else:
            assert db.prune(now=at) == oracle.prune(at)
        assert len(db) == len(oracle.history)


def test_ingest_bundle_counts_malformed():
    db = OfferDatabase()
    bundle = build_offer_bundle((1, 1), 1, 0.0, CAPS, [("scale", 1)])
    good = db.ingest_bundle(bundle, received_at=0.1)
    assert good == 1
    bad = build_offer_bundle((1, 2), 1, 0.0, CAPS, [("scale", 1)])
    bad.payload = bad.payload[:-5]
    assert db.ingest_bundle(bad, received_at=0.2) == 0
    assert db.malformed_dropped == 1


def count_decodes(monkeypatch) -> list:
    calls = []
    real = announce.decode_offers
    monkeypatch.setattr(announce, "decode_offers",
                        lambda payload: calls.append(bytes(payload)) or real(payload))
    return calls


def test_memo_decodes_each_payload_once_and_forgets_expired_ones(monkeypatch):
    calls = count_decodes(monkeypatch)
    memo = OfferMemo()
    first = build_offer_bundle((1, 1), 1, 0.0, CAPS, [("scale", 1)], expiry_s=10.0)
    a, b = OfferDatabase(memo=memo), OfferDatabase(memo=memo)
    assert a.ingest_bundle(first, received_at=0.0) == 1
    assert b.ingest_bundle(first, received_at=9.0) == 1
    assert len(calls) == 1
    assert a.lookup("scale", 9.0)[0].offer is b.lookup("scale", 9.0)[0].offer
    later = build_offer_bundle((1, 2), 1, 11.0, CAPS, [("scale", 1)], expiry_s=10.0)
    a.ingest_bundle(later, received_at=11.0)
    assert len(memo) == 1
    assert len(calls) == 2


def test_hand_built_databases_do_not_share_a_memo():
    assert OfferDatabase().memo is not OfferDatabase().memo


def test_malformed_payload_is_not_memoised():
    memo = OfferMemo()
    bad = build_offer_bundle((1, 1), 1, 0.0, CAPS, [("scale", 1)])
    bad.payload = bad.payload[:-5]
    dbs = [OfferDatabase(memo=memo) for _ in range(3)]
    for db in dbs:
        assert db.ingest_bundle(bad, received_at=0.0) == 0
    assert [db.malformed_dropped for db in dbs] == [1, 1, 1]
    assert len(memo) == 0


def test_one_decode_per_offer_payload_per_run(monkeypatch):
    calls = count_decodes(monkeypatch)
    report = run_scenario(resolve_scenario("ring-heterogeneous"))
    assert report.workflows[0].status == "succeeded"
    assert len(calls) > 100
    assert len(calls) == len(set(calls))


def test_malformed_offer_counts_once_per_receiver(monkeypatch):
    calls = count_decodes(monkeypatch)
    built = build(resolve_scenario("ring-heterogeneous"))
    bad = build_offer_bundle((2, 10_000), 2, 1.0, CAPS, [("scale", 1)], expiry_s=60.0)
    bad.payload = bad.payload[:-5]
    built.world.schedule(1.0, lambda: built.world.originate(bad))
    built.world.run_until(30.0)
    holders = [addr for addr, store in built.world.stores.items()
               if bad.bundle_id in store]
    assert len(holders) == len(built.nodes)
    assert built.collector.malformed_offers == len(holders)
    assert calls.count(bad.payload) == len(holders)


INBOX_EXPIRY_S = 10.0
# (seconds forward, worker or None for a lookup, issue delay, services)
INBOX_STEPS = st.lists(st.tuples(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 4.0]),
    st.one_of(st.none(), st.integers(1, 3)),
    # arrivals out of issue order, and some right at the expiry edge
    st.sampled_from([0.0, 0.5, 1.0, 3.0, 9.5, 10.0, 10.5, 14.0]),
    st.lists(st.sampled_from(["scale", "denoise", "crop"]), min_size=1,
             max_size=3, unique=True)),
    max_size=40)


@settings(max_examples=300, deadline=None)
@given(steps=INBOX_STEPS)
def test_inbox_lookups_match_an_eager_fold(steps):
    db = OfferDatabase(expiry_s=INBOX_EXPIRY_S)
    eager = OfferDatabase(expiry_s=INBOX_EXPIRY_S)
    now = 0.0
    for seq, (dt, worker, delay, services) in enumerate(steps, start=1):
        now += dt
        if worker is None:
            for name in ("scale", "denoise", "crop"):
                got = [(r.offer, r.received_at) for r in db.lookup(name, now)]
                want = [(r.offer, r.received_at) for r in eager.lookup(name, now)]
                assert got == want
            continue
        # issue times on a half-second grid, so equal issue times recur
        issued_at = max(0.0, now - delay)
        bundle = build_offer_bundle((worker, seq), worker, issued_at, CAPS,
                                    [(name, 1) for name in services],
                                    expiry_s=INBOX_EXPIRY_S)
        assert db.ingest_bundle(bundle, received_at=now) == len(services)
        eager.ingest(decode_offers(bundle.payload), received_at=now)
