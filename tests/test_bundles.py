"""Bundle store semantics: addressing, expiry, insertion order, arrival times.

`BundleStore.insert` tests nothing: its caller hands it only a live bundle
the store has never held. Every call here keeps that contract; the world's
side of it is tested in tests/test_simnet.py.
"""

import ast
import dataclasses
import math
import pickle
from collections import Counter
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carryflow.bundles import (Bundle, BundleKind, BundleStore, BundleTable,
                               format_address, parse_address)


def make_bundle(seq: int, *, created_at: float = 0.0, ttl: float = 100.0,
                size: int = 10, workflow_id: Optional[str] = None) -> Bundle:
    return Bundle(bundle_id=(1, seq), source=1, destination=2,
                  kind=BundleKind.WORKFLOW_ARCHIVE, payload=b"x" * size,
                  size_bytes=size, created_at=created_at, ttl_seconds=ttl,
                  workflow_id=workflow_id or f"wf-{seq}")


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
    for text in ("-000000000000001", "+00000000000000f", " 00000000000000f",
                 "0x00000000000002", "0000_0000_0000_1", "00000000000000g"):
        with pytest.raises(ValueError, match="hex"):
            parse_address(text)
    assert parse_address("00000000000000FF") == 255


def test_expiry_boundary_is_inclusive():
    b = make_bundle(1, created_at=5.0, ttl=10.0)
    assert b.expires_at == 15.0
    store = BundleStore()
    store.insert(b, 5.0)
    assert list(store.live(15.0)) == [b]
    assert list(store.live(15.0001)) == []


def test_infinite_ttl_never_expires():
    b = make_bundle(1, ttl=float("inf"))
    store = BundleStore()
    store.insert(b, 1e12)
    assert list(store.live(1e12)) == [b]


def test_insert_and_duplicate():
    # insert stores and answers nothing; a caller skips a duplicate by the
    # membership test of the arrival dict that the insert itself makes true
    store = BundleStore()
    b = make_bundle(1)
    assert b.bundle_id not in store.arrived_at
    assert store.insert(b, now=0.0) is None
    assert len(store) == 1
    assert b.bundle_id in store.arrived_at
    (stored,) = store.live(0.0)
    assert stored is b
    assert dict(store.arrived_at) == {b.bundle_id: 0.0}


def test_dead_on_arrival_rejected():
    # the caller refuses a bundle once now > expires_at; up to that instant
    # it is live, and the store keeps it until the instant after
    b = make_bundle(1, created_at=0.0, ttl=1.0)
    store = BundleStore()
    store.insert(b, now=b.expires_at)
    assert list(store.live(b.expires_at)) == [b]
    assert list(store.live(math.nextafter(b.expires_at, math.inf))) == []
    assert len(store) == 0


def test_live_keeps_insertion_order_and_skips_removed():
    store = BundleStore()
    bundles = [make_bundle(i) for i in range(1, 5)]
    for b in bundles:
        store.insert(b, now=0.0)
    assert [b.bundle_id for b in store.live(now=0.0)] == \
        [b.bundle_id for b in bundles]

    assert store.remove_where(bundles[1].workflow_id) == 1
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
    removed = sum(store.remove_where(workflow_id)
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


def marker(seq: int, workflow_id: str) -> Bundle:
    return Bundle(bundle_id=(2, seq), source=2, destination=None,
                  kind=BundleKind.CLEANUP_MARKER, payload=workflow_id,
                  size_bytes=64, created_at=0.0, ttl_seconds=100.0)


def test_expires_at_is_creation_plus_ttl():
    assert make_bundle(1, created_at=5.0, ttl=10.0).expires_at == 15.0
    assert make_bundle(1, ttl=float("inf")).expires_at == float("inf")


@pytest.mark.parametrize("created_at, ttl", [(0.0, math.nan), (math.nan, 100.0),
                                             (math.inf, -math.inf)])
def test_a_nan_expiry_is_refused(created_at, ttl):
    # a NaN expiry never compares as passed: at the head of the table's expiry
    # heap it would keep every bundle behind it from being shed
    with pytest.raises(ValueError, match="NaN"):
        make_bundle(1, created_at=created_at, ttl=ttl)


def test_insert_sheds_expired():
    store = BundleStore()
    short = make_bundle(1, ttl=1.0)
    store.insert(short, now=0.0)
    store.insert(make_bundle(2, created_at=5.0), now=5.0)
    assert short.bundle_id not in store.arrived_at
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
    assert store.remove_where("wf-1") == 1
    assert list(store.arrived_at) == [(1, 2)]
    assert list(store.live(now=5.0)) == []
    assert len(store) == 0
    assert not store.arrived_at


def test_remove_where_by_workflow_touches_only_that_workflow():
    store = BundleStore()
    store.insert(make_bundle(1), now=0.0)
    store.insert(marker(1, "wf-1"), now=0.0)
    store.insert(make_bundle(2), now=0.0)
    # the marker names its workflow only in its payload, so it outlives the
    # cleanup it announces
    assert store.remove_where("wf-1") == 1
    assert [b.bundle_id for b in store.live(now=0.0)] == [(2, 1), (1, 2)]
    assert store.remove_where("wf-9") == 0


def test_workflow_index_shrinks_when_its_bundles_expire():
    store = BundleStore()
    store.insert(make_bundle(1, ttl=1.0), now=0.0)
    store.insert(dataclasses.replace(make_bundle(3, ttl=2.0), workflow_id="wf-1"), now=0.0)
    store.insert(make_bundle(2, ttl=100.0), now=0.0)
    workflows = store.table.workflows
    assert len(list(store.live(now=1.5))) == 2
    assert {wf: set(ids) for wf, ids in workflows.items()} == {"wf-1": {(1, 3)},
                                                               "wf-2": {(1, 2)}}
    assert len(list(store.live(now=3.0))) == 1
    assert set(workflows) == {"wf-2"}
    assert len(store.table) == 1


def test_stores_that_share_a_table_keep_one_bundle_and_their_own_arrivals():
    # the bundle sits in the table once, however many stores hold it; each
    # store keeps its own arrival time, and a store built alone its own table
    table = BundleTable()
    stores = [BundleStore(table) for _ in range(3)]
    b = make_bundle(1)
    for at, store in enumerate(stores):
        store.insert(b, now=float(at))
    assert len(table) == 1
    for at, store in enumerate(stores):
        assert dict(store.arrived_at) == {b.bundle_id: float(at)}
        (stored,) = store.live(2.0)
        assert stored is b
    assert BundleStore().table is not BundleStore().table


def test_a_tagged_bundle_leaves_the_table_with_its_last_copy():
    # even one that never expires: a cleaned archive is not kept for the run
    table = BundleTable()
    first, second = BundleStore(table), BundleStore(table)
    lasting = make_bundle(1, ttl=math.inf)
    offer = dataclasses.replace(make_bundle(2, ttl=math.inf), workflow_id=None)
    for store in (first, second):
        store.insert(lasting, now=0.0)
        store.insert(offer, now=0.0)
    assert first.remove_where("wf-1") == 1
    assert len(table) == 2 and "wf-1" in table.workflows
    assert second.remove_where("wf-1") == 1
    assert len(table) == 1 and "wf-1" not in table.workflows
    # an in-flight copy stored after every cleanup is kept again, once
    third = BundleStore(table)
    third.insert(lasting, now=1.0)
    assert [b.bundle_id for b in third.live(1.0)] == [(1, 1)]
    assert third.remove_where("wf-1") == 1 and len(table) == 1
    table.clear()
    assert len(table) == 0 and not table.workflows



def test_a_store_and_its_shared_table_pickle_together():
    # every map of a store and its table is a plain dict, so a round trip
    # keeps arrivals, bundles, copy counts and the store's place in the table
    table = BundleTable()
    store, other = BundleStore(table), BundleStore(table)
    archive = make_bundle(1)
    offer = dataclasses.replace(make_bundle(2), kind=BundleKind.OFFER, workflow_id=None)
    store.insert(archive, now=0.5)
    store.insert(offer, now=0.75)
    other.insert(archive, now=1.0)
    copy = pickle.loads(pickle.dumps(store))
    assert copy.arrived_at == {(1, 1): 0.5, (1, 2): 0.75}
    assert copy.table._stores[0] is copy.arrived_at
    assert copy.table._stores[1] == other.arrived_at
    assert copy.table.workflows == {"wf-1": {(1, 1): 2}}
    assert list(copy.live(1.0)) == [archive, offer]
    # the copy stands alone: its cleanup leaves the original as it was
    assert copy.remove_where("wf-1") == 1
    assert copy.table.workflows == {"wf-1": {(1, 1): 1}}
    assert store.arrived_at == {(1, 1): 0.5, (1, 2): 0.75}
    assert table.workflows == {"wf-1": {(1, 1): 2}}


# one step: (seconds forward, operation, bundle seq, ttl)
_steps = st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                            st.sampled_from(["insert", "live", "cleanup"]),
                            st.integers(1, 6),
                            st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, float("inf")])),
                  max_size=40)


@settings(max_examples=200, deadline=None)
@given(_steps)
def test_store_holds_exactly_the_live_bundles_in_arrival_order(steps):
    # calls that keep insert's contract, as the world's do: each insert is of
    # a fresh id, and a bundle dead on arrival never reaches the store; the
    # seq names one of six workflows, so one cleanup can drop several bundles
    store = BundleStore()
    model: dict = {}    # what the store holds, by arrival, before shedding
    now = 0.0
    for step, (dt, op, seq, ttl) in enumerate(steps, start=1):
        now += dt
        if op == "insert":
            bundle = make_bundle(step, created_at=now - 0.5, ttl=ttl,
                                 workflow_id=f"wf-{seq}")
            if now <= bundle.expires_at:
                store.insert(bundle, now)
                model[bundle.bundle_id] = bundle
        elif op == "cleanup":
            doomed = [bid for bid, b in model.items() if b.workflow_id == f"wf-{seq}"]
            assert store.remove_where(f"wf-{seq}") == len(doomed)
            for bid in doomed:
                del model[bid]
                assert bid not in store.arrived_at
            continue
        model = {bid: b for bid, b in model.items() if now <= b.expires_at}
        assert list(store.live(now)) == list(model.values())
        assert len(store) == len(model)


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
    arrived: dict = {}  # id -> arrival time, for every bundle ever stored

    def shed(now):
        expired = [bid for bid, b in oracle.items() if now > b.expires_at]
        for bid in expired:
            del oracle[bid]
        return len(expired)

    now = 0.0
    for step, (dt, op, seq, expires_at) in enumerate(steps, start=1):
        now += dt
        if op == "insert":
            # a fresh id per insert, as insert's contract asks; three
            # workflows, so one cleanup removes bundles of several seqs
            bundle = Bundle(bundle_id=(1, step), source=1, destination=2,
                            kind=BundleKind.WORKFLOW_ARCHIVE, payload=None,
                            size_bytes=10, created_at=0.0, ttl_seconds=expires_at,
                            workflow_id=f"wf-{seq % 3}")
            # the caller drops a bundle dead on arrival before the store
            if now <= expires_at:
                shed(now)
                store.insert(bundle, now)
                oracle[bundle.bundle_id] = bundle
                arrived[bundle.bundle_id] = now
        elif op == "remove":
            workflow_id = f"wf-{seq % 3}"
            doomed = [bid for bid, b in oracle.items() if b.workflow_id == workflow_id]
            assert store.remove_where(workflow_id) == len(doomed)
            for bid in doomed:
                del oracle[bid]
        else:
            shed(now)
            assert list(store.live(now)) == list(oracle.values())
        assert len(store) == len(oracle)
        assert dict(store.arrived_at) == {bid: arrived[bid] for bid in oracle}


# one step: (seconds forward, operation, store, workflow, ttl); every insert
# is of a fresh bundle, and some steps hand that same bundle to several stores
_shared_steps = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]),
              st.sampled_from(["insert", "insert", "copy", "live", "cleanup"]),
              st.integers(0, 2),
              st.integers(1, 3),
              st.sampled_from([0.5, 1.0, 2.0, 3.0, float("inf")])),
    max_size=50)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 3), _shared_steps)
def test_stores_that_share_a_table_match_a_per_store_oracle(n_stores, steps):
    # calls that keep insert's contract, as the world's do: a store gets a
    # bundle only while it is live, and never one it held before; "copy"
    # hands the last bundle made to one more store, as a transfer does
    table = BundleTable()
    stores = [BundleStore(table) for _ in range(n_stores)]
    oracles: list[dict] = [{} for _ in stores]    # per store: id -> (bundle, arrival)
    removed: list[set] = [set() for _ in stores]  # per store: ids it held once
    last = None
    now = 0.0
    for step, (dt, op, which, wf, ttl) in enumerate(steps, start=1):
        now += dt
        which %= n_stores
        store, oracle = stores[which], oracles[which]
        if op == "insert":
            last = Bundle(bundle_id=(1, step), source=1, destination=2,
                          kind=BundleKind.WORKFLOW_ARCHIVE if wf < 3 else BundleKind.OFFER,
                          payload=None, size_bytes=10, created_at=now, ttl_seconds=ttl,
                          workflow_id=f"wf-{wf}" if wf < 3 else None)
        if op in ("insert", "copy") and last is not None:
            bid = last.bundle_id
            if (now <= last.expires_at and bid not in oracle
                    and bid not in removed[which]):
                store.insert(last, now)
                oracle[bid] = (last, now)
        elif op == "cleanup":
            doomed = [bid for bid, (b, _) in oracle.items() if b.workflow_id == f"wf-{wf}"]
            store.remove_where(f"wf-{wf}")
            for bid in doomed:
                del oracle[bid]
                removed[which].add(bid)
        elif op == "live":
            for bid in [bid for bid, (b, _) in oracle.items() if now > b.expires_at]:
                del oracle[bid]
                removed[which].add(bid)
            assert list(store.live(now)) == [b for b, _ in oracle.values()]
            assert dict(store.arrived_at) == {bid: at for bid, (_, at) in oracle.items()}
            # shedding here shows no expired bundle through any other store
            for other, held in zip(stores, oracles):
                assert all(now <= held[bid][0].expires_at for bid in other.arrived_at)
        for held, gone, each in zip(oracles, removed, stores):
            # what a store dropped never comes back, and what it holds is
            # what the oracle holds, bar bundles expired and not yet shed
            assert not gone & each.arrived_at.keys()
            assert each.arrived_at.keys() <= held.keys()
        # the table keeps exactly the bundles some store holds, and counts
        # each tagged one's copies under its workflow
        held_by = Counter(bid for each in stores for bid in each.arrived_at)
        assert len(table) == len(held_by)
        bundles = {bid: b for held in oracles for bid, (b, _) in held.items()}
        assert {(b.workflow_id, bid, n) for bid, n in held_by.items()
                if (b := bundles[bid]).workflow_id is not None} == {
            (wf, bid, n) for wf, copies in table.workflows.items()
            for bid, n in copies.items()}


# one step: (seconds forward, operation, store, workflow, ttl, what the scan's
# receiver holds); inserts and copies keep insert's contract as above
_scan_steps = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]),
              st.sampled_from(["insert", "insert", "copy", "copy", "scan", "cleanup"]),
              st.integers(0, 2),
              st.integers(1, 3),
              st.sampled_from([0.5, 1.0, 2.0, 3.0, float("inf")]),
              st.one_of(st.integers(0, 2), st.frozensets(st.integers(1, 50)))),
    max_size=50)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 3), _scan_steps)
def test_a_scan_lists_what_live_lists_less_the_held_ids(n_stores, steps):
    # the link scan's filter: with stores sharing one table, through expiries
    # and cleanups, scan_log(now, held) is live(now) without the ids in
    # `held`, in the same order. `held` is another store's arrival dict, as
    # the world passes it, or a set of ids. The scan runs first, so it must
    # shed by itself
    table = BundleTable()
    stores = [BundleStore(table) for _ in range(n_stores)]
    gone: list[set] = [set() for _ in stores]    # per store: ids cleanup removed
    last = None
    now = 0.0
    for step, (dt, op, which, wf, ttl, held) in enumerate(steps, start=1):
        now += dt
        store = stores[which % n_stores]
        if op == "insert":
            last = Bundle(bundle_id=(1, step), source=1, destination=2,
                          kind=BundleKind.WORKFLOW_ARCHIVE if wf < 3 else BundleKind.OFFER,
                          payload=None, size_bytes=10, created_at=now, ttl_seconds=ttl,
                          workflow_id=f"wf-{wf}" if wf < 3 else None)
        if op in ("insert", "copy") and last is not None:
            bid = last.bundle_id
            if (now <= last.expires_at and bid not in store.arrived_at
                    and bid not in gone[which % n_stores]):
                store.insert(last, now)
        elif op == "cleanup":
            gone[which % n_stores].update(bid for bid in store.arrived_at
                                          if table._bundles[bid].workflow_id == f"wf-{wf}")
            store.remove_where(f"wf-{wf}")
        elif op == "scan":
            if isinstance(held, int):
                held = stores[held % n_stores].arrived_at
            else:
                held = {(1, seq) for seq in held}
            scanned = list(store.scan_log(now, held))
            assert scanned == [b for b in store.live(now) if b.bundle_id not in held]


def test_no_bundle_field_is_written_after_construction():
    """Bundles are frozen, and the package's only writes past that are constructors' own."""
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
            # a bundle's constructor writes its slots through `_set`, the
            # module's one name for object.__setattr__
            own = ("__init__" if path.name == "bundles.py" else "__post_init__")
            for call in ast.walk(func):
                if (isinstance(call, ast.Call) and ast.unparse(call.func) in
                        ("object.__setattr__", "setattr", "_set")
                        and not (func.name == own and ast.unparse(call.args[0]) == "self")):
                    stray.add(f"{path.name}: {ast.unparse(call)}")
        stray.update(f"{path.name}: {ast.unparse(node)}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assign)
                     and ast.unparse(node.value) == "object.__setattr__"
                     and ast.unparse(node) != "_set = object.__setattr__")
    # the collector adds seconds to its own phase rows, which are not bundles
    assert stray == {"report.py: setattr(row, column, getattr(row, column) + seconds)"}
    bundles = ast.parse((package / "bundles.py").read_text(encoding="utf-8"))
    callers = {func.name for func in ast.walk(bundles) if isinstance(func, ast.FunctionDef)
               for call in ast.walk(func)
               if isinstance(call, ast.Call) and ast.unparse(call.func) == "_set"}
    assert callers == {"__init__"}


def test_the_bundle_constructor_takes_its_fields_in_order_or_by_name():
    """One written-out constructor: what the generated one did, and nothing else."""
    args = ((1, 7), 1, 2, BundleKind.WORKFLOW_ARCHIVE, b"x", 10, 5.0, 10.0, "wf")
    names = [f.name for f in dataclasses.fields(Bundle)]
    assert names == list(Bundle.__slots__)
    assert [f.name for f in dataclasses.fields(Bundle) if f.init] == names[:-1]
    by_position = Bundle(*args)
    by_name = Bundle(**dict(zip(names, args)))
    assert by_position == by_name
    assert repr(by_position) == repr(by_name)
    assert by_position.expires_at == 15.0
    assert Bundle(*args[:8]) == dataclasses.replace(by_position, workflow_id=None)
    assert dataclasses.replace(by_position) == by_position
    assert dataclasses.replace(by_position, ttl_seconds=1.0).expires_at == 6.0
    assert not hasattr(by_position, "__dict__")
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(by_position, name, None)
    with pytest.raises(ValueError, match="NaN"):
        Bundle(*args[:6], math.inf, -math.inf)
    with pytest.raises(ValueError, match="NaN"):
        dataclasses.replace(by_position, created_at=math.nan)
    with pytest.raises(TypeError):
        Bundle(*args, 15.0)
