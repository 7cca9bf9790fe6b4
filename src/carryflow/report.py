"""Workflow lifecycle, phase accounting, and report serialization.

Every workflow's wall clock is split into three phases: runtime (parsing,
packing, queueing, worker assignment), transmission (bundle in transit,
including store-carry-forward waiting), and execution (the service actually
running). A workflow's one lifecycle state is its handle's `state`:
`Collector.charge` moves it between phases and writes the phase ledger,
`WorkflowHandle.finish` ends it once, and `freeze_workflow` reads it into
the report. The report's dataclass fields are its JSON keys, so `to_obj`
and `report_from_obj` spell out only the values that are not plain JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .bundles import NodeAddress, format_address
from .workflow import Archive, WorkflowDescription


class FinalState(Enum):
    """A workflow's one lifecycle state: a phase until it ends in success or error.

    The phase members' values name the ledger's columns. A workflow that
    timed out or never finished is reported by the phase it was in.
    """

    SUCCESS = "success"
    WORKER_ERROR = "worker_error"
    TRANSMISSION = "transmission"
    RUNTIME = "runtime"
    EXECUTION = "execution"


@dataclass
class PhaseBreakdown:
    runtime_s: float = 0.0
    transmission_s: float = 0.0
    execution_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.runtime_s + self.transmission_s + self.execution_s


@dataclass
class WorkflowHandle:
    """One workflow's whole lifecycle, and the record its report is frozen from.

    The description holds the workflow's id and offload time; the handle
    adds only what changes as the workflow runs. `state` is its one
    lifecycle field, which `Collector.charge` moves between phases and
    `finish` ends. `result` is the archive the workflow ended with: the
    result, or the error archive. `sent_any` records that a bundle of the
    workflow left the client. `phases` is its ledger, one row per task plus
    the result's trip back at row `len(tasks)`.
    """

    description: WorkflowDescription
    state: FinalState = FinalState.RUNTIME
    result: Optional[Archive] = None
    finished_at: Optional[float] = None
    sent_any: bool = False
    phases: dict[int, PhaseBreakdown] = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.finished_at is not None

    @property
    def status(self) -> str:
        if self.state is FinalState.SUCCESS:
            return "succeeded"
        if self.state is FinalState.WORKER_ERROR:
            return "failed"
        return "pending" if self.finished_at is None else "timed_out"

    def finish(self, archive: Optional[Archive], now: float) -> bool:
        """End the workflow once, by the archive that came back or by its TTL (None)."""
        if self.terminal:
            return False
        self.result = archive
        if archive is not None:
            self.state = (FinalState.SUCCESS if archive.error is None
                          else FinalState.WORKER_ERROR)
        self.finished_at = now
        return True


class Collector:
    """Keeps each workflow's phase ledger and the run's selection counts.

    `tracks` maps each offloaded workflow to its client's handle, which
    holds the workflow's whole lifecycle. `charge` is the one way its ledger
    is written: it moves the workflow to a phase and adds seconds to the row
    its description's cursor names. Task i's runtime, transmission and
    execution land in row i; the result's trip back lands in the row after
    the last task, the cursor of a finished archive. An archive's
    transmission is charged when its bundle reaches the addressee: arrival
    minus the bundle's send time. `faults_injected` is the run's count
    against its fault plan's cap.
    """

    def __init__(self) -> None:
        self.tracks: dict[str, WorkflowHandle] = {}
        self.selections: dict[tuple[NodeAddress, NodeAddress], int] = {}
        self.expired_drops = 0
        self.faults_injected = 0

    def charge(self, desc: WorkflowDescription, phase: FinalState,
               seconds: float = 0.0) -> None:
        """Put the workflow in `phase` and add `seconds` to that phase's column.

        `phase` is runtime, transmission or execution, whose values name the
        ledger's columns. A terminal workflow keeps the state it ended in.
        """
        track = self.tracks.get(desc.workflow_id)
        if track is None:
            return
        if not track.terminal:
            track.state = phase
        if seconds:
            row = track.phases.setdefault(desc.cursor, PhaseBreakdown())
            column = f"{phase.value}_s"
            setattr(row, column, getattr(row, column) + seconds)

    def selection(self, caller: NodeAddress, worker: NodeAddress) -> None:
        key = (caller, worker)
        self.selections[key] = self.selections.get(key, 0) + 1


# -- frozen reports ----------------------------------------------------------


@dataclass
class WorkflowReport:
    workflow_id: str
    client: NodeAddress
    strategy: str
    status: str
    error_class: Optional[str]
    error_message: str
    final_state: FinalState
    offloaded_at: float
    finished_at: Optional[float]
    task_phases: list[PhaseBreakdown]
    return_transmission_s: float

    @property
    def runtime_s(self) -> float:
        return sum(p.runtime_s for p in self.task_phases)

    @property
    def transmission_s(self) -> float:
        return sum(p.transmission_s for p in self.task_phases)

    @property
    def execution_s(self) -> float:
        return sum(p.execution_s for p in self.task_phases)

    @property
    def total_s(self) -> float:
        return self.runtime_s + self.transmission_s + self.execution_s


@dataclass
class ExperimentReport:
    scenario: str
    seed: int
    strategy: str
    config_digest: str
    duration_s: float
    workflows: list[WorkflowReport]
    selections: dict[tuple[NodeAddress, NodeAddress], int]
    residual_energy: dict[NodeAddress, float]
    expired_drops: int
    # always 0: an offer bundle carries its Announcement record, so none is
    # malformed. The key stays until a re-pin of the report bytes removes
    # it, since the benchmark's fingerprints read every key.
    malformed_offers: int

    def to_obj(self) -> dict:
        """The report as JSON types; every field is a key of the same name.

        Each record's fields are copied one level deep from its `vars`;
        `dataclasses.asdict` would deep-copy every leaf as well.
        """
        obj = dict(vars(self))
        obj["workflows"] = [_workflow_obj(w) for w in self.workflows]
        obj["selections"] = {
            f"{format_address(caller)}:{format_address(worker)}": count
            for (caller, worker), count in sorted(self.selections.items())
        }
        obj["residual_energy"] = {
            format_address(worker): energy
            for worker, energy in sorted(self.residual_energy.items())
        }
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, indent=1)

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def _workflow_obj(w: WorkflowReport) -> dict:
    obj = dict(vars(w))
    obj["client"] = format_address(w.client)
    obj["final_state"] = w.final_state.value
    obj["task_phases"] = [dict(vars(p)) for p in w.task_phases]
    return obj


def report_from_obj(obj: dict) -> ExperimentReport:
    """Inverse of `ExperimentReport.to_obj`; a key that is no field raises TypeError."""
    workflows = [WorkflowReport(**{
        **w, "client": int(w["client"], 16),
        "final_state": FinalState(w["final_state"]),
        "task_phases": [PhaseBreakdown(**p) for p in w["task_phases"]],
    }) for w in obj["workflows"]]
    selections = {}
    for key, count in obj["selections"].items():
        caller, _, worker = key.partition(":")
        selections[(int(caller, 16), int(worker, 16))] = count
    residual_energy = {int(k, 16): v for k, v in obj["residual_energy"].items()}
    return ExperimentReport(**{**obj, "workflows": workflows, "selections": selections,
                               "residual_energy": residual_energy})


def freeze_workflow(handle: WorkflowHandle, strategy: str) -> WorkflowReport:
    desc = handle.description
    error = handle.result.error if handle.result else None
    # rows 0..n-1 are the tasks; row n is the result's trip back to the client
    n = len(desc.tasks)
    rows = [handle.phases.get(i, PhaseBreakdown()) for i in range(n + 1)]
    return WorkflowReport(
        workflow_id=desc.workflow_id,
        client=desc.client,
        strategy=strategy,
        status=handle.status,
        error_class=error.error_class.value if error else None,
        error_message=error.message if error else "",
        final_state=handle.state,
        offloaded_at=desc.created_at,
        finished_at=handle.finished_at,
        task_phases=rows[:n],
        return_transmission_s=rows[n].transmission_s,
    )


def selection_entropy(counts: dict[NodeAddress, int]) -> float:
    """Shannon entropy (nats) of a worker selection histogram."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counts.values():
        if count:
            p = count / total
            entropy -= p * math.log(p)
    return entropy
