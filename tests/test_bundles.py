"""Bundle store semantics: addressing, expiry, insertion order, pruning."""

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


def test_live_keeps_insertion_order_and_skips_removed():
    store = BundleStore()
    bundles = [make_bundle(i) for i in range(1, 5)]
    for b in bundles:
        store.insert(b, now=0.0)
    assert [b.bundle_id for b in store.live(now=0.0)] == \
        [b.bundle_id for b in bundles]

    assert store.remove_where(lambda b: b.bundle_id == bundles[1].bundle_id) == 1
    assert [b.bundle_id for b in store.live(now=0.0)] == \
        [b.bundle_id for b in bundles if b is not bundles[1]]


def test_live_skips_expired():
    store = BundleStore()
    short = make_bundle(1, ttl=1.0)
    lasting = make_bundle(2, ttl=100.0)
    store.insert(short, now=0.0)
    store.insert(lasting, now=0.0)
    assert [b.bundle_id for b in store.live(now=5.0)] == \
        [lasting.bundle_id]


def test_remove_where_counts():
    store = BundleStore()
    for i in range(1, 6):
        store.insert(make_bundle(i), now=0.0)
    removed = store.remove_where(lambda b: b.workflow_id in ("wf-2", "wf-4"))
    assert removed == 2
    assert len(store) == 3


def test_prune_drops_expired():
    store = BundleStore()
    for i in range(1, 4):
        store.insert(make_bundle(i, ttl=1.0), now=0.0)
    keeper = make_bundle(9, ttl=1000.0)
    store.insert(keeper, now=0.0)
    assert store.prune(now=10.0) == 3
    assert len(store) == 1
    assert [b.bundle_id for b in store.live(now=10.0)] == \
        [keeper.bundle_id]
    assert store.prune(now=10.0) == 0
