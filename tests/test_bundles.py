"""Bundle store semantics: addressing, expiry, insertion order, arrival times."""

import ast
import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert b.expires_at == 15.0
    store = BundleStore()
    assert store.insert(b, 5.0)
    assert list(store.live(15.0)) == [b]
    assert list(store.live(15.0001)) == []


def test_infinite_ttl_never_expires():
    b = make_bundle(1, ttl=float("inf"))
    store = BundleStore()
    assert store.insert(b, 1e12)
    assert list(store.live(1e12)) == [b]


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

    assert store.remove_where(lambda b: True, workflow_id=bundles[1].workflow_id) == 1
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
    removed = sum(store.remove_where(lambda b: True, workflow_id=workflow_id)
                  for workflow_id in ("wf-2", "wf-4"))
    assert removed == 2
    assert len(store) == 3


def test_live_drops_expired_with_their_arrival_times():
    store = BundleStore()
    for i in range(1, 4):
        store.insert(make_bundle(i, ttl=1.0), now=0.0)
    keeper = make_bundle(9, ttl=1000.0)
    store.insert(keeper, now=0.5)
    assert len(store) == 4
    assert [b.bundle_id for b in store.live(now=10.0)] == \
        [keeper.bundle_id]
    assert len(store) == 1
    assert dict(store.arrived_at) == {keeper.bundle_id: 0.5}


def marker(seq: int, workflow_id: str, *, ttl: float = 100.0) -> Bundle:
    return Bundle(bundle_id=(2, seq), source=2, destination=None,
                  kind=BundleKind.CLEANUP_MARKER, payload=workflow_id,
                  size_bytes=64, created_at=0.0, ttl_seconds=ttl,
                  workflow_id=workflow_id)


def test_expires_at_is_creation_plus_ttl():
    assert make_bundle(1, created_at=5.0, ttl=10.0).expires_at == 15.0
    assert make_bundle(1, ttl=float("inf")).expires_at == float("inf")


def test_insert_sheds_expired():
    store = BundleStore()
    short = make_bundle(1, ttl=1.0)
    store.insert(short, now=0.0)
    assert store.insert(make_bundle(2, created_at=5.0), now=5.0)
    assert short.bundle_id not in store
    assert len(store) == 1


def test_live_sheds_expired_and_keeps_insertion_order():
    store = BundleStore()
    ttls = {1: 1.0, 2: 100.0, 3: 50.0, 4: 2.0, 5: float("inf")}
    for seq, ttl in ttls.items():
        store.insert(make_bundle(seq, ttl=ttl), now=0.0)
    assert [b.bundle_id[1] for b in store.live(now=10.0)] == [2, 3, 5]
    assert len(store) == 3
    assert [b.bundle_id[1] for b in store.live(now=60.0)] == [2, 5]
    assert len(store) == 2


def test_shedding_skips_bundles_cleanup_already_removed():
    store = BundleStore()
    store.insert(make_bundle(1, ttl=1.0), now=0.0)
    store.insert(make_bundle(2, ttl=1.0), now=0.0)
    assert store.remove_where(lambda b: True, workflow_id="wf-1") == 1
    assert list(store.arrived_at) == [(1, 2)]
    assert list(store.live(now=5.0)) == []
    assert len(store) == 0
    assert not store.arrived_at


def test_remove_where_by_workflow_touches_only_that_workflow():
    store = BundleStore()
    store.insert(make_bundle(1), now=0.0)
    store.insert(marker(1, "wf-1"), now=0.0)
    store.insert(make_bundle(2), now=0.0)
    seen = []

    def not_a_marker(b: Bundle) -> bool:
        seen.append(b.bundle_id)
        return b.kind is not BundleKind.CLEANUP_MARKER

    assert store.remove_where(not_a_marker, workflow_id="wf-1") == 1
    assert sorted(seen) == [(1, 1), (2, 1)]
    assert [b.bundle_id for b in store.live(now=0.0)] == [(2, 1), (1, 2)]
    assert store.remove_where(not_a_marker, workflow_id="wf-9") == 0


def test_workflow_index_shrinks_when_its_bundles_expire():
    store = BundleStore()
    store.insert(make_bundle(1, ttl=1.0), now=0.0)
    store.insert(marker(1, "wf-1", ttl=2.0), now=0.0)
    store.insert(make_bundle(2, ttl=100.0), now=0.0)
    assert len(list(store.live(now=1.5))) == 2
    assert set(store._by_workflow) == {"wf-1", "wf-2"}
    assert len(list(store.live(now=3.0))) == 1
    assert set(store._by_workflow) == {"wf-2"}


# one step: (seconds forward, operation, bundle seq, ttl)
_steps = st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                            st.sampled_from(["insert", "live", "cleanup"]),
                            st.integers(1, 6),
                            st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, float("inf")])),
                  max_size=40)


@settings(max_examples=200, deadline=None)
@given(_steps)
def test_store_holds_exactly_the_live_bundles_in_arrival_order(steps):
    store = BundleStore()
    model: dict = {}    # what the store held, by arrival, before shedding
    now = 0.0
    for dt, op, seq, ttl in steps:
        now += dt
        bundle = make_bundle(seq, created_at=now - 0.5, ttl=ttl)
        live = {bid: b for bid, b in model.items() if now <= b.expires_at}
        if op == "insert":
            accepted = store.insert(bundle, now)
            assert accepted == (bundle.bundle_id not in live
                                and now <= bundle.expires_at)
            model = live
            if accepted:
                model[bundle.bundle_id] = bundle
        elif op == "cleanup":
            assert store.remove_where(lambda b: True, workflow_id=f"wf-{seq}") <= 1
            assert bundle.bundle_id not in store
            model.pop(bundle.bundle_id, None)
            continue
        assert list(store.live(now)) == list(live.values())
        assert len(store) == len(live)
        model = live


# one step: (seconds forward, operation, bundle seq, expiry time); few expiry
# times, so that many stored bundles share one
_colliding_steps = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]),
              st.sampled_from(["insert", "insert", "remove", "live"]),
              st.integers(1, 8),
              st.sampled_from([1.0, 2.0, 3.0, 5.0, float("inf")])),
    max_size=50)


@settings(max_examples=300, deadline=None)
@given(_colliding_steps)
def test_store_matches_a_dict_oracle_when_expiry_times_collide(steps):
    store = BundleStore()
    oracle: dict = {}   # id -> bundle, in arrival order, holding what the store holds
    arrived: dict = {}  # id -> arrival time, for every bundle ever accepted

    def shed(now):
        expired = [bid for bid, b in oracle.items() if now > b.expires_at]
        for bid in expired:
            del oracle[bid]
        return len(expired)

    now = 0.0
    for dt, op, seq, expires_at in steps:
        now += dt
        if op == "insert":
            # three workflows, so one cleanup removes bundles of several seqs
            bundle = Bundle(bundle_id=(1, seq), source=1, destination=2,
                            kind=BundleKind.WORKFLOW_ARCHIVE, payload=None,
                            size_bytes=10, created_at=0.0, ttl_seconds=expires_at,
                            workflow_id=f"wf-{seq % 3}")
            shed(now)
            accepted = bundle.bundle_id not in oracle and now <= expires_at
            assert store.insert(bundle, now) == accepted
            if accepted:
                oracle[bundle.bundle_id] = bundle
                arrived[bundle.bundle_id] = now
        elif op == "remove":
            workflow_id = f"wf-{seq % 3}"
            doomed = [bid for bid, b in oracle.items() if b.workflow_id == workflow_id]
            assert store.remove_where(lambda b: True, workflow_id=workflow_id) == len(doomed)
            for bid in doomed:
                del oracle[bid]
        else:
            shed(now)
            assert list(store.live(now)) == list(oracle.values())
        assert len(store) == len(oracle)
        assert dict(store.arrived_at) == {bid: arrived[bid] for bid in oracle}


def test_no_bundle_field_is_written_after_construction():
    """Bundles are frozen, and the package's only writes past that are __post_init__'s own."""
    assert Bundle.__dataclass_params__.frozen
    with pytest.raises(dataclasses.FrozenInstanceError):
        make_bundle(1).payload = b"y"
    package = Path(__file__).resolve().parents[1] / "src" / "carryflow"
    stray = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for call in ast.walk(func):
                if (isinstance(call, ast.Call) and ast.unparse(call.func) in
                        ("object.__setattr__", "setattr")
                        and not (func.name == "__post_init__"
                                 and ast.unparse(call.args[0]) == "self")):
                    stray.add(f"{path.name}: {ast.unparse(call)}")
    # the collector adds seconds to its own phase rows, which are not bundles
    assert stray == {"report.py: setattr(row, column, getattr(row, column) + seconds)"}
