"""End-to-end protocol paths on hand-built line worlds.

Covers the execution pipeline, queueing, TTL refusal, and the three error
classes with their retry semantics: a failure on a just-in-time worker goes
back to its assigner for exactly one re-selection that excludes the failed
worker; pinned-worker failures and selection failures go straight to the
client; a second failure is terminal.
"""

import math

import pytest

from carryflow.bundles import BundleKind, format_address
from carryflow.client import HandleStatus
from carryflow.report import FinalState, classify
from carryflow.runtime import ErrorClass, FaultPlan
from carryflow.simnet import LinkModel
from carryflow.workflow import Archive

from conftest import build_line, service

TWO_STEP = "any work in.dat\nany work ##result##\n"


def offload(micro, text=TWO_STEP, addr=1, files=None):
    return micro.node(addr).client.offload(
        text, files if files is not None else {"in.dat": b"x" * 64})


def test_two_task_chain_succeeds(line3):
    line3.settle(1.0)
    handle = offload(line3)
    line3.settle(5.0)
    assert handle.status is HandleStatus.SUCCEEDED
    assert sorted(handle.result.files) == ["result_1.out"]
    assert handle.finished_at > handle.description.created_at

    # best strategy: tie on equal caps breaks to the lower address, then the
    # holder excludes itself
    assert line3.collector.selections == {(1, 2): 1, (2, 3): 1}
    track = line3.collector.tracks[handle.description.workflow_id]
    assert track.status == "succeeded"
    assert track.phases[0].execution_s == pytest.approx(0.2)
    assert track.phases[1].execution_s == pytest.approx(0.2)
    assert track.phases[0].transmission_s > 0.0
    # both workers burned one execution's energy
    assert line3.node(2).caps.energy == pytest.approx(999.0)
    assert line3.node(3).caps.energy == pytest.approx(999.0)


def test_recent_strategy_prefers_last_arrival():
    from carryflow.assignment import Strategy
    svc = service("work")
    micro = build_line(3, {2: {"work": svc}, 3: {"work": svc}},
                       strategy=Strategy.RECENT)
    micro.settle(1.0)
    handle = offload(micro, "any work in.dat\n")
    micro.settle(5.0)
    assert handle.status is HandleStatus.SUCCEEDED
    # worker 3's announcement needed one more hop, so it arrived last
    assert micro.collector.selections == {(1, 3): 1}


def test_busy_worker_queues_fifo():
    micro = build_line(2, {2: {"work": service("work", mean=0.5)}})
    micro.settle(1.0)
    first = offload(micro, "any work a.dat\n", files={"a.dat": b"a"})
    second = offload(micro, "any work b.dat\n", files={"b.dat": b"b"})
    micro.settle(5.0)
    assert first.status is HandleStatus.SUCCEEDED
    assert second.status is HandleStatus.SUCCEEDED
    assert first.finished_at < second.finished_at
    # the second workflow's runtime phase includes the wait behind the first
    waited = micro.collector.tracks[second.description.workflow_id].phases[0].runtime_s
    assert waited > 0.4


def test_expired_workflow_behind_a_queue_never_executes():
    micro = build_line(2, {2: {"work": service("work", mean=3.0)}})
    micro.settle(1.0)
    blocker = offload(micro, "any work a.dat\n", files={"a.dat": b"a"})
    doomed = offload(micro, "ttl=1\nany work b.dat\n", files={"b.dat": b"b"})
    micro.settle(10.0)
    assert blocker.status is HandleStatus.SUCCEEDED
    assert doomed.status is HandleStatus.TIMED_OUT
    track = micro.collector.tracks[doomed.description.workflow_id]
    assert track.phases.get(0) is None or track.phases[0].execution_s == 0.0


def test_worker_refuses_expired_archives():
    from carryflow.workflow import parse

    micro = build_line(2, {2: {"work": service("work")}})
    micro.settle(3.0)
    # expired two seconds ago
    desc = parse("ttl=1\nany work in.dat\n", workflow_id="wf-x", client=1, created_at=0.0)
    micro.node(2).worker.on_archive(Archive(description=desc), micro.world.now)
    assert micro.collector.expired_drops == 1
    assert not micro.node(2).worker.busy

    # an archive that expires during preprocessing is dropped there
    fresh = parse("ttl=1\nany work in.dat\n", workflow_id="wf-y", client=1,
                  created_at=micro.world.now - 0.995)
    micro.node(2).worker.on_archive(Archive(description=fresh), micro.world.now)
    assert micro.node(2).worker.busy
    micro.settle(1.0)
    assert micro.collector.expired_drops == 2
    assert micro.collector.tracks == {}    # nothing was ever charged


def test_jit_fault_retries_once_excluding_failed_worker():
    svc = service("work")
    micro = build_line(3, {2: {"work": svc}, 3: {"work": svc}},
                       fault_plan=FaultPlan(rate=1.0, nodes=frozenset({2})))
    arrivals = record_archive_arrivals(micro)
    micro.settle(1.0)
    handle = offload(micro, "any work in.dat\n")
    micro.settle(5.0)
    assert handle.status is HandleStatus.SUCCEEDED
    assert micro.collector.selections == {(1, 2): 1, (1, 3): 1}
    log = handle.result.error_log
    assert "task_execution" in log
    assert format_address(2) in log
    # the failure travels back as the archive itself, with its error set; the
    # re-sent workflow archive and the result carry none
    kinds = [(b.kind, b.destination) for b, _ in arrivals]
    assert kinds == [(BundleKind.WORKFLOW_ARCHIVE, 2), (BundleKind.ERROR_ARCHIVE, 1),
                     (BundleKind.WORKFLOW_ARCHIVE, 3), (BundleKind.RESULT_ARCHIVE, 1)]
    payloads = [b.payload for b, _ in arrivals]
    assert all(isinstance(p, Archive) for p in payloads)
    assert payloads[1].error.worker == 2
    assert payloads[1].error.error_class is ErrorClass.TASK_EXECUTION
    assert payloads[2].error is None and payloads[2].retried
    assert payloads[3].error is None
    assert handle.result is payloads[3]


ARCHIVE_KINDS = (BundleKind.WORKFLOW_ARCHIVE, BundleKind.RESULT_ARCHIVE,
                 BundleKind.ERROR_ARCHIVE)


def record_archive_arrivals(micro):
    """(bundle, arrival time) of each archive bundle its addressee stores, in order."""
    arrivals = []
    for addr, record in micro.world._nodes.items():
        def handler(bundle, addr=addr, inner=record.handler):
            if bundle.kind in ARCHIVE_KINDS and bundle.destination == addr:
                arrivals.append((bundle, micro.world.now))
            inner(bundle)
        record.handler = handler
    return arrivals


def test_transmission_is_each_archive_trip_charged_to_its_cursor():
    # line3's workers, with one fault on worker 2: the client retries task 0
    # on worker 3, which forwards task 1 back to worker 2
    svc = service("work")
    micro = build_line(3, {2: {"work": svc}, 3: {"work": svc}},
                       fault_plan=FaultPlan(rate=1.0, nodes=frozenset({2}),
                                            max_failures=1))
    arrivals = record_archive_arrivals(micro)
    micro.settle(1.0)
    handle = offload(micro)
    micro.settle(5.0)
    assert handle.status is HandleStatus.SUCCEEDED
    trips = []
    for bundle, arrived in arrivals:
        desc = bundle.payload.description
        leg = "return" if desc.finished else desc.cursor
        trips.append((bundle.kind, bundle.destination, leg, arrived - bundle.created_at))
    assert [trip[:3] for trip in trips] == [
        (BundleKind.WORKFLOW_ARCHIVE, 2, 0), (BundleKind.ERROR_ARCHIVE, 1, 0),
        (BundleKind.WORKFLOW_ARCHIVE, 3, 0), (BundleKind.WORKFLOW_ARCHIVE, 2, 1),
        (BundleKind.RESULT_ARCHIVE, 1, "return")]
    track = micro.collector.tracks[handle.description.workflow_id]
    for task in (0, 1):
        expected = sum(seconds for _, _, leg, seconds in trips if leg == task)
        assert track.phases[task].transmission_s == expected > 0.0
    # the return leg is the ledger row after the last task
    assert track.phases[2].transmission_s == trips[-1][3] > 0.0


def test_unfinished_workflow_is_reported_by_the_phase_it_is_in():
    # one 0.5 s hop each way, 0.01 s of pre- and post-processing and a 2 s
    # task; the single announce at t=0 leaves the link free for the archives
    micro = build_line(2, {2: {"work": service("work", mean=2.0)}},
                       link=LinkModel(bandwidth_bps=1e9, latency_s=0.5),
                       announce_interval_s=100.0)
    micro.settle(1.0)
    handle = offload(micro, "any work in.dat\n")
    track = micro.collector.tracks[handle.description.workflow_id]
    # offloaded at 1.0: sent at 1.01, arrives at ~1.51, preprocessed until
    # ~1.52, executes until ~3.52, post-processed until ~3.53, back at ~4.03
    expected = [(1.005, FinalState.RUNTIME), (1.3, FinalState.TRANSMISSION),
                (1.515, FinalState.RUNTIME), (2.5, FinalState.EXECUTION),
                (3.525, FinalState.RUNTIME), (3.8, FinalState.TRANSMISSION)]
    for at, state in expected:
        micro.world.run_until(at)
        assert (at, handle.status, classify(track)) == (at, HandleStatus.PENDING, state)
    micro.world.run_until(4.5)
    assert classify(track) is FinalState.SUCCESS


def test_infinite_ttl_workflow_succeeds_with_unexpiring_archives(line3):
    arrivals = record_archive_arrivals(line3)
    line3.settle(1.0)
    handle = offload(line3, "ttl=inf\n" + TWO_STEP)
    line3.settle(5.0)
    assert handle.status is HandleStatus.SUCCEEDED
    assert handle.description.ttl_seconds == math.inf
    assert [bundle.kind for bundle, _ in arrivals] == [
        BundleKind.WORKFLOW_ARCHIVE, BundleKind.WORKFLOW_ARCHIVE,
        BundleKind.RESULT_ARCHIVE]
    assert all(bundle.expires_at == math.inf for bundle, _ in arrivals)


def test_second_fault_reaches_client():
    svc = service("work")
    micro = build_line(3, {2: {"work": svc}, 3: {"work": svc}},
                       fault_plan=FaultPlan(rate=1.0))
    micro.settle(1.0)
    handle = offload(micro, "any work in.dat\n")
    micro.settle(5.0)
    assert handle.status is HandleStatus.FAILED
    assert handle.error.error_class is ErrorClass.TASK_EXECUTION
    # one selection plus exactly one retry, then no third attempt
    assert micro.collector.selections == {(1, 2): 1, (1, 3): 1}
    assert handle.error.worker == 3


def test_worker_calling_when_capabilities_drifted():
    svc = service("work")
    micro = build_line(3, {2: {"work": svc}, 3: {"work": svc}},
                       announce_interval_s=120.0)
    micro.settle(0.5)
    # worker 2 announced plenty of energy, then lost it before being called
    micro.node(2).caps.energy = 1.0
    handle = offload(micro, "any work in.dat [energy=50]\n")
    micro.settle(5.0)
    assert handle.status is HandleStatus.SUCCEEDED
    assert micro.collector.selections == {(1, 2): 1, (1, 3): 1}
    assert "worker_calling" in handle.result.error_log


def test_pinned_worker_failure_skips_retry():
    svc = service("work")
    micro = build_line(3, {2: {"work": svc}, 3: {"work": svc}},
                       fault_plan=FaultPlan(rate=1.0, nodes=frozenset({2})))
    micro.settle(1.0)
    handle = offload(micro, f"{format_address(2)} work in.dat\n")
    micro.settle(5.0)
    assert handle.status is HandleStatus.FAILED
    assert handle.error.error_class is ErrorClass.TASK_EXECUTION
    assert handle.error.worker == 2
    # the pinned dispatch is recorded, but no re-selection follows it
    assert micro.collector.selections == {(1, 2): 1}


def test_pinned_worker_without_service_is_worker_calling():
    micro = build_line(3, {2: {"work": service("work")}})
    micro.settle(1.0)
    handle = offload(micro, f"{format_address(3)} work in.dat\n")
    micro.settle(5.0)
    assert handle.status is HandleStatus.FAILED
    assert handle.error.error_class is ErrorClass.WORKER_CALLING
    assert "not offered" in handle.error.message


def test_empty_offer_database_fails_locally():
    micro = build_line(3, {2: {"work": service("work")}})
    # no settling: nothing has been announced yet
    handle = offload(micro, "any work in.dat\n")
    assert handle.status is HandleStatus.FAILED
    assert handle.error.error_class is ErrorClass.WORKER_SELECTION
    assert handle.sent_any is False
    micro.settle(2.0)
    # the failure never touched the network
    tagged = [b for store in micro.world.stores.values()
              for b in store.live(micro.world.now)
              if b.workflow_id == handle.description.workflow_id]
    assert tagged == []


def test_mid_chain_selection_failure_reaches_client():
    # only worker 2 offers the service, and it cannot pick itself again
    micro = build_line(3, {2: {"work": service("work")}})
    micro.settle(1.0)
    handle = offload(micro)
    micro.settle(5.0)
    assert handle.status is HandleStatus.FAILED
    assert handle.error.error_class is ErrorClass.WORKER_SELECTION
    assert micro.collector.selections == {(1, 2): 1}


def test_energy_clamps_at_zero():
    micro = build_line(2, {2: {"work": service("work", energy=5.0)}})
    micro.settle(1.0)
    micro.node(2).caps.energy = 3.0
    handle = offload(micro, "any work in.dat\n")
    micro.settle(5.0)
    assert handle.status is HandleStatus.SUCCEEDED
    assert micro.node(2).caps.energy == 0.0


def test_fault_plan_scoping():
    import random
    rng = random.Random(1)
    plan = FaultPlan(rate=1.0, nodes=frozenset({2}), service="work",
                     max_failures=2)
    assert not plan.should_fail(3, "work", rng, 0)
    assert not plan.should_fail(2, "other", rng, 0)
    assert plan.should_fail(2, "work", rng, 0)
    assert plan.should_fail(2, "work", rng, 1)
    assert not plan.should_fail(2, "work", rng, 2)    # budget exhausted
    assert not FaultPlan().should_fail(2, "work", rng, 0)


def assert_client_archive_untouched(handle):
    """Workers send new archives; the client's own description never moves."""
    assert handle.status is HandleStatus.SUCCEEDED
    assert handle.description.cursor == 0
    assert handle.description.tasks[1].params == ("##result##",)
    assert handle.result.description is not handle.description
    assert handle.result.description.cursor == 2


def test_hops_leave_the_client_description_untouched(line3):
    line3.settle(1.0)
    handle = offload(line3)
    line3.settle(5.0)
    assert_client_archive_untouched(handle)


def test_retry_leaves_the_client_description_untouched():
    svc = service("work")
    micro = build_line(4, {2: {"work": svc}, 3: {"work": svc}, 4: {"work": svc}},
                       fault_plan=FaultPlan(rate=1.0, nodes=frozenset({2})))
    micro.settle(1.0)
    handle = offload(micro)
    micro.settle(5.0)
    assert "task_execution" in handle.result.error_log
    assert_client_archive_untouched(handle)
