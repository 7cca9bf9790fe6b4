"""Lifecycle invariants over generated runs of the heterogeneous ring.

Each generated run varies the seed, the strategy, the fault plan and the
workflow TTL (short enough that some runs time out). Whatever the run, each
workflow is pending exactly while it has no finish time; its report's
status and final state, both read from the handle's one lifecycle state,
agree; energy never goes negative; and the report survives a JSON round
trip byte for byte. The phases of a succeeded or failed workflow fit inside
its makespan; a timed-out one's may not yet (see the xfail below).
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carryflow.assignment import Strategy
from carryflow.cli import resolve_scenario
from carryflow.harness import run_scenario
from carryflow.report import FinalState, report_from_obj
from carryflow.runtime import FaultPlan
from carryflow.workflow import format_description, parse

RING = resolve_scenario("ring-heterogeneous")

UNFINISHED_STATES = {FinalState.RUNTIME, FinalState.TRANSMISSION,
                     FinalState.EXECUTION}
STATE_OF_STATUS = {"succeeded": {FinalState.SUCCESS},
                   "failed": {FinalState.WORKER_ERROR},
                   "timed_out": UNFINISHED_STATES,
                   "pending": UNFINISHED_STATES}

fault_plans = st.builds(
    FaultPlan,
    rate=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    nodes=st.none() | st.frozensets(st.integers(1, 12), min_size=1, max_size=6),
    max_failures=st.none() | st.integers(0, 3),
)


def charged_s(w) -> float:
    return w.total_s + w.return_transmission_s


def with_ttl(config, ttl_s: float):
    desc = replace(parse(config.workflow.text), ttl_seconds=ttl_s)
    return replace(config, workflow=replace(config.workflow,
                                            text=format_description(desc)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(1, 10_000), strategy=st.sampled_from(list(Strategy)),
       fault=fault_plans, ttl_s=st.sampled_from([5.0, 15.0, 30.0, 60.0, 900.0]))
def test_workflow_lifecycle_invariants(seed, strategy, fault, ttl_s):
    config = with_ttl(replace(RING, run=replace(RING.run, fault=fault)), ttl_s)
    report = run_scenario(config, seed=seed, strategy=strategy)

    assert report.workflows
    for w in report.workflows:
        assert (w.status == "pending") == (w.finished_at is None)
        assert w.final_state in STATE_OF_STATUS[w.status]
        if w.status in ("succeeded", "failed"):
            assert charged_s(w) <= w.finished_at - w.offloaded_at + 1e-9
    assert all(energy >= 0.0 for energy in report.residual_energy.values())

    text = report.to_json()
    assert report_from_obj(json.loads(text)).to_json() == text


@pytest.mark.xfail(strict=True, reason="a workflow whose TTL fires mid-execution "
                   "is charged its whole execution after the deadline")
def test_timed_out_phases_fit_inside_makespan():
    report = run_scenario(with_ttl(RING, 15.0), seed=1, strategy=Strategy.RECENT)
    [w] = report.workflows
    assert (w.status, w.final_state) == ("timed_out", FinalState.EXECUTION)
    assert charged_s(w) <= w.finished_at - w.offloaded_at
