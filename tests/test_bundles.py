"""Bundle store semantics: addressing, expiry, insertion log, pruning."""

import pytest

from carryflow.bundles import (Bundle, BundleKind, BundleStore, format_address,
                               parse_address)


def make_bundle(seq: int, *, created_at: float = 0.0, ttl: float = 100.0,
                size: int = 10) -> Bundle:
    return Bundle(bundle_id=(1, seq), source=1, destination=2,
                  kind=BundleKind.WORKFLOW_ARCHIVE, payload=b"x" * size,
                  size_bytes=size, created_at=created_at, ttl_seconds=ttl,
                  workflow_id=f"wf-{seq}")


def test_address_round_trip():
    assert format_address(0) == "0" * 16
    assert format_address(255) == "00000000000000ff"
    assert parse_address("00000000000000ff") == 255
    assert parse_address(format_address(2**64 - 1)) == 2**64 - 1


def test_address_rejects_wrong_length():
    with pytest.raises(ValueError):
        parse_address("ff")
    with pytest.raises(ValueError):
        parse_address("0" * 17)


def test_expiry_boundary_is_inclusive():
    b = make_bundle(1, created_at=5.0, ttl=10.0)
    assert not b.is_expired(15.0)
    assert b.is_expired(15.0001)


def test_infinite_ttl_never_expires():
    b = make_bundle(1, ttl=float("inf"))
    assert not b.is_expired(1e12)


def test_insert_and_duplicate():
    store = BundleStore()
    b = make_bundle(1)
    assert store.insert(b, now=0.0)
    assert not store.insert(b, now=0.0)
    assert len(store) == 1
    assert b.bundle_id in store


def test_dead_on_arrival_rejected():
    store = BundleStore()
    b = make_bundle(1, created_at=0.0, ttl=1.0)
    assert not store.insert(b, now=5.0)
    assert len(store) == 0


def test_scan_log_orders_and_skips_removed():
    store = BundleStore()
    bundles = [make_bundle(i) for i in range(1, 5)]
    for b in bundles:
        store.insert(b, now=0.0)
    assert [b.bundle_id for _, b in store.scan_log(0, now=0.0)] == \
        [b.bundle_id for b in bundles]

    store.remove(bundles[1].bundle_id)
    seen = [b.bundle_id for _, b in store.scan_log(0, now=0.0)]
    assert bundles[1].bundle_id not in seen
    assert len(seen) == 3

    # resume from a cursor: only strictly newer entries appear
    seqs = [seq for seq, _ in store.scan_log(0, now=0.0)]
    assert [b.bundle_id for _, b in store.scan_log(seqs[1], now=0.0)] == \
        [bundles[3].bundle_id]


def test_scan_log_skips_expired():
    store = BundleStore()
    short = make_bundle(1, ttl=1.0)
    lasting = make_bundle(2, ttl=100.0)
    store.insert(short, now=0.0)
    store.insert(lasting, now=0.0)
    assert [b.bundle_id for _, b in store.scan_log(0, now=5.0)] == \
        [lasting.bundle_id]


def test_remove_where_counts():
    store = BundleStore()
    for i in range(1, 6):
        store.insert(make_bundle(i), now=0.0)
    removed = store.remove_where(lambda b: b.workflow_id in ("wf-2", "wf-4"))
    assert removed == 2
    assert len(store) == 3


def test_prune_drops_expired_and_compacts_log():
    store = BundleStore()
    for i in range(1, 4):
        store.insert(make_bundle(i, ttl=1.0), now=0.0)
    keeper = make_bundle(9, ttl=1000.0)
    store.insert(keeper, now=0.0)
    assert store.prune(now=10.0) == 3
    assert len(store) == 1
    assert [b.bundle_id for _, b in store.scan_log(0, now=10.0)] == \
        [keeper.bundle_id]
    assert store.prune(now=10.0) == 0


def test_log_seq_is_monotonic_across_removal():
    store = BundleStore()
    a, b = make_bundle(1), make_bundle(2)
    store.insert(a, now=0.0)
    seq_after_a = store.log_seq
    store.remove(a.bundle_id)
    store.insert(b, now=0.0)
    assert store.log_seq > seq_after_a
