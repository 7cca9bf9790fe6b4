"""Handle lifecycle: terminal-once semantics and network-wide cleanup."""

from dataclasses import replace

import pytest

from carryflow.bundles import Bundle, BundleKind
from carryflow.report import FinalState
from carryflow.runtime import ErrorClass, WorkerError

from conftest import build_line, service


def test_timeout_fires_exactly_once_and_result_cannot_flip_it():
    micro = build_line(2, {2: {"work": service("work", mean=3.0)}})
    micro.settle(1.0)
    handle = micro.node(1).offload("ttl=2\nany work in.dat\n",
                                   {"in.dat": 1})
    micro.settle(10.0)
    # the TTL fires while the 3 s task executes: the workflow keeps that phase
    assert handle.status == "timed_out"
    assert handle.state is FinalState.EXECUTION
    assert handle.result is None
    timed_out_at = handle.finished_at
    assert timed_out_at == pytest.approx(handle.description.created_at + 2.0)

    # a result or an error that straggles in later is ignored
    late_error = replace(_fake_archive(handle),
                         error=WorkerError(ErrorClass.TASK_EXECUTION, "late", 2))
    for late in (_fake_archive(handle), late_error):
        micro.node(1).on_returned(late)
        assert handle.status == "timed_out"
        assert handle.state is FinalState.EXECUTION
        assert handle.result is None
        assert handle.finished_at == timed_out_at


def _fake_archive(handle):
    from carryflow.workflow import Archive
    return Archive(description=handle.description, files={})


def test_late_error_cannot_flip_success(line3):
    line3.settle(1.0)
    handle = line3.node(1).offload("any work in.dat\n", {"in.dat": 1})
    line3.settle(5.0)
    assert handle.status == "succeeded"
    result = handle.result
    late = replace(_fake_archive(handle),
                   error=WorkerError(ErrorClass.TASK_EXECUTION, "late", 2))
    line3.node(1).on_returned(late)
    assert handle.status == "succeeded"
    assert handle.state is FinalState.SUCCESS
    assert handle.result is result and result.error is None


def test_unknown_workflow_results_are_ignored(line3):
    from carryflow.workflow import Archive, parse

    line3.settle(1.0)
    handle = line3.node(1).offload("any work in.dat\n", {"in.dat": 1})
    stranger = parse("any work in.dat\n", workflow_id="wf-unknown", client=1)
    line3.node(1).on_returned(Archive(description=stranger))
    line3.settle(5.0)
    assert handle.status == "succeeded"


def test_terminal_workflow_is_scrubbed_from_every_store(line3):
    line3.settle(1.0)
    handle = line3.node(1).offload(
        "any work in.dat\nany work ##result##\n", {"in.dat": 64})
    line3.settle(10.0)
    assert handle.status == "succeeded"
    wf = handle.description.workflow_id
    for addr, store in line3.world.stores.items():
        leftovers = [b for b in store.live(line3.world.now) if b.workflow_id == wf]
        assert leftovers == [], f"node {addr} still carries {leftovers}"
    for addr in (1, 2, 3):
        assert wf in line3.node(addr).cleaned


def test_cleaned_node_refuses_replanting(line3):
    line3.settle(1.0)
    handle = line3.node(1).offload("any work in.dat\n", {"in.dat": 1})
    line3.settle(5.0)
    wf = handle.description.workflow_id
    assert wf in line3.node(1).cleaned
    # node 1 originates a stray archive of the cleaned workflow and a marker
    # for it: the world drops the archive and stores the untagged marker
    stray = Bundle(bundle_id=(9, 1), source=1, destination=3,
                   kind=BundleKind.WORKFLOW_ARCHIVE, payload=None,
                   size_bytes=10, created_at=line3.world.now, ttl_seconds=100.0,
                   workflow_id=wf)
    marker = Bundle(bundle_id=(9, 2), source=1, destination=None,
                    kind=BundleKind.CLEANUP_MARKER, payload=wf,
                    size_bytes=10, created_at=line3.world.now, ttl_seconds=100.0)
    line3.world.originate(stray)
    line3.world.originate(marker)
    line3.settle(1.0)
    held = line3.world.stores[1].arrived_at
    assert stray.bundle_id not in held
    assert marker.bundle_id in held
    assert all(stray.bundle_id not in store.arrived_at
               for store in line3.world.stores.values())


def test_local_failure_broadcasts_no_marker():
    micro = build_line(3, {2: {"work": service("work")}})
    handle = micro.node(1).offload("any other in.dat\n", {"in.dat": 1})
    assert handle.status == "failed"
    micro.settle(3.0)
    markers = [b for store in micro.world.stores.values()
               for b in store.live(micro.world.now)
               if b.kind is BundleKind.CLEANUP_MARKER]
    assert markers == []
    assert handle.description.workflow_id in micro.node(1).cleaned


def test_successful_workflow_broadcasts_marker_to_all(line3):
    line3.settle(1.0)
    handle = line3.node(1).offload("any work in.dat\n", {"in.dat": 1})
    line3.settle(5.0)
    assert handle.status == "succeeded"
    for addr in (2, 3):
        held = [b for b in line3.world.stores[addr].live(line3.world.now)
                if b.kind is BundleKind.CLEANUP_MARKER
                and b.payload == handle.description.workflow_id]
        assert len(held) == 1


def test_unparsable_workflow_raises_immediately(line3):
    from carryflow.workflow import WorkflowParseError
    with pytest.raises(WorkflowParseError):
        line3.node(1).offload("nonsense", {})
    assert line3.collector.tracks == {}


def test_a_cleaned_workflow_that_never_expires_leaves_the_bundle_table(line3):
    # ttl=inf: no expiry ever sheds its archives, so only the copy count
    # takes them out of the world's table once every node has cleaned up
    world = line3.world
    table = world.table
    line3.settle(1.0)
    handle = line3.node(1).offload("ttl=inf\nany work in.dat\n", {"in.dat": 1})
    workflow_id = handle.description.workflow_id
    indexed = False
    while world.now < 10.0:
        line3.settle(0.01)
        indexed |= workflow_id in table.workflows
    assert indexed
    assert handle.status == "succeeded"
    assert all(workflow_id in line3.node(addr).cleaned for addr in (1, 2, 3))
    assert workflow_id not in table.workflows
    stored = set().union(*(store.arrived_at for store in world.stores.values()))
    assert len(table) == len(stored)
    world.release()
    assert len(table) == 0
