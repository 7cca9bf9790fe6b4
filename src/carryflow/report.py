"""Phase accounting, final-state bookkeeping, and report serialization.

Every workflow's wall clock is split into three phases: runtime (parsing,
packing, queueing, worker assignment), transmission (bundle in transit,
including store-carry-forward waiting), and execution (the service actually
running). The collector accumulates these per task while a scenario runs;
the harness freezes them into an ExperimentReport afterwards.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

from .bundles import NodeAddress, format_address
from .workflow import WorkflowDescription

if TYPE_CHECKING:
    from .client import WorkflowHandle


class HandleStatus(str, Enum):
    """A workflow's status; the values are the strings its report carries."""

    PENDING = "pending"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    TIMED_OUT = "timed_out"


class FinalState(Enum):
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


class Collector:
    """Accumulates phase charges and selection counts while a run executes.

    `tracks` maps each offloaded workflow to its client's handle, which
    holds the workflow's whole lifecycle; the phase charges land on it. An
    archive's transmission is charged when its bundle reaches the addressee:
    arrival minus the bundle's send time, to the task the archive's cursor
    names. `faults_injected` is the run's count against its fault plan's cap.
    """

    def __init__(self) -> None:
        self.tracks: dict[str, WorkflowHandle] = {}
        self.selections: dict[tuple[NodeAddress, NodeAddress], int] = {}
        self.expired_drops = 0
        self.malformed_offers = 0
        self.faults_injected = 0

    # -- workflow lifecycle -------------------------------------------------

    def set_stage(self, workflow_id: str, state: FinalState) -> None:
        """Record the state a workflow would end in if it never finished."""
        track = self.tracks.get(workflow_id)
        if track is not None and not track.terminal:
            track.stage = state

    # -- phase charges ------------------------------------------------------

    def charge(self, workflow_id: str, task_idx: int, phase: str, seconds: float) -> None:
        track = self.tracks.get(workflow_id)
        if track is None or seconds == 0.0:
            return
        breakdown = track.phases.setdefault(task_idx, PhaseBreakdown())
        if phase == "runtime":
            breakdown.runtime_s += seconds
        elif phase == "execution":
            breakdown.execution_s += seconds
        else:
            raise ValueError(f"unknown phase {phase!r}")

    def delivered(self, desc: WorkflowDescription, sent_at: float, now: float) -> None:
        """Charge an archive's trip, sent at sent_at, to the task its cursor names.

        A finished archive is the result on its way back to the client.
        """
        track = self.tracks.get(desc.workflow_id)
        if track is None:
            return
        if desc.finished:
            track.return_transmission_s += now - sent_at
        else:
            breakdown = track.phases.setdefault(desc.cursor, PhaseBreakdown())
            breakdown.transmission_s += now - sent_at

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
    malformed_offers: int

    def to_obj(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "strategy": self.strategy,
            "config_digest": self.config_digest,
            "duration_s": self.duration_s,
            "expired_drops": self.expired_drops,
            "malformed_offers": self.malformed_offers,
            "workflows": [
                {
                    "workflow_id": w.workflow_id,
                    "client": format_address(w.client),
                    "strategy": w.strategy,
                    "status": w.status,
                    "error_class": w.error_class,
                    "error_message": w.error_message,
                    "final_state": w.final_state.value,
                    "offloaded_at": w.offloaded_at,
                    "finished_at": w.finished_at,
                    "return_transmission_s": w.return_transmission_s,
                    "task_phases": [
                        {"runtime_s": p.runtime_s, "transmission_s": p.transmission_s,
                         "execution_s": p.execution_s}
                        for p in w.task_phases
                    ],
                }
                for w in self.workflows
            ],
            "selections": {
                f"{format_address(caller)}:{format_address(worker)}": count
                for (caller, worker), count in sorted(self.selections.items())
            },
            "residual_energy": {
                format_address(worker): energy
                for worker, energy in sorted(self.residual_energy.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, indent=1)

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def report_from_obj(obj: dict) -> ExperimentReport:
    workflows = []
    for w in obj["workflows"]:
        workflows.append(WorkflowReport(
            workflow_id=w["workflow_id"],
            client=int(w["client"], 16),
            strategy=w["strategy"],
            status=w["status"],
            error_class=w["error_class"],
            error_message=w["error_message"],
            final_state=FinalState(w["final_state"]),
            offloaded_at=w["offloaded_at"],
            finished_at=w["finished_at"],
            task_phases=[PhaseBreakdown(p["runtime_s"], p["transmission_s"], p["execution_s"])
                         for p in w["task_phases"]],
            return_transmission_s=w["return_transmission_s"],
        ))
    selections = {}
    for key, count in obj["selections"].items():
        caller, _, worker = key.partition(":")
        selections[(int(caller, 16), int(worker, 16))] = count
    return ExperimentReport(
        scenario=obj["scenario"], seed=obj["seed"], strategy=obj["strategy"],
        config_digest=obj["config_digest"], duration_s=obj["duration_s"],
        workflows=workflows, selections=selections,
        residual_energy={int(k, 16): v for k, v in obj["residual_energy"].items()},
        expired_drops=obj["expired_drops"], malformed_offers=obj["malformed_offers"],
    )


def classify(handle: WorkflowHandle) -> FinalState:
    """Map a workflow's end-of-run status onto the five reported final states."""
    if handle.status is HandleStatus.SUCCEEDED:
        return FinalState.SUCCESS
    if handle.status is HandleStatus.FAILED:
        return FinalState.WORKER_ERROR
    # timed out or still pending at the experiment cap: report where it sat
    return handle.stage


def freeze_workflow(workflow_id: str, handle: WorkflowHandle) -> WorkflowReport:
    desc, error = handle.description, handle.error
    return WorkflowReport(
        workflow_id=workflow_id,
        client=desc.client,
        strategy=handle.strategy,
        status=handle.status.value,
        error_class=error.error_class.value if error else None,
        error_message=error.message if error else "",
        final_state=classify(handle),
        offloaded_at=handle.submitted_at,
        finished_at=handle.finished_at,
        task_phases=[handle.phases.get(i, PhaseBreakdown()) for i in range(len(desc.tasks))],
        return_transmission_s=handle.return_transmission_s,
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
