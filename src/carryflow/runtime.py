"""Worker-side execution: run tasks, forward archives, handle errors.

A worker accepts an archive addressed to it, re-checks the TTL and its own
live capabilities, executes the current task synthetically, then either
forwards the archive to the next worker (pinned or freshly selected) or
returns the result to the client. Three error classes exist: the task
itself failing (task execution), no candidate for the next task (worker
selection), and a worker that turns out unfit for what it was sent (worker
calling). A failure travels as the archive itself with its `error` set. A
failure on a just-in-time assigned worker goes back to whoever assigned it
for exactly one retry with the failed worker excluded; ahead of time
failures and second failures go straight to the client. Archives are
frozen: every hop sends a new one built with `replace`.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .assignment import SelectionError, select
from .bundles import BundleKind, NodeAddress, format_address
from .report import FinalState
from .workflow import (Archive, FileStub, RESOURCE_METRICS, WorkflowDescription,
                       substitute_result)

MIN_EXEC_SECONDS = 0.05


@dataclass(frozen=True)
class ServiceDefinition:
    """A synthetic service profile: timing, output size, and energy drain."""

    name: str
    param_count: int = 1
    exec_seconds_mean: float = 1.0
    exec_seconds_jitter: float = 0.0
    output_size_bytes: int = 1_000_000
    energy_cost_e: float = 1.0
    output_ext: str = "out"


class ErrorClass(Enum):
    TASK_EXECUTION = "task_execution"
    WORKER_SELECTION = "worker_selection"
    WORKER_CALLING = "worker_calling"


@dataclass(frozen=True)
class WorkerError:
    error_class: ErrorClass
    message: str
    worker: NodeAddress


def retryable(archive: Archive, error_class: ErrorClass) -> bool:
    """Whether a failure goes back to the worker's assigner for a retry.

    Only the first failure of a just-in-time assigned task does, and never
    a selection failure; every other failure goes to the client.
    """
    desc = archive.description
    return (not desc.finished and desc.current_task.worker is None
            and not archive.retried and error_class is not ErrorClass.WORKER_SELECTION)


@dataclass(frozen=True)
class FaultPlan:
    """Scenario-configured execution faults, optionally scoped and bounded.

    The plan is a spec only: the run counts the faults it has injected and
    passes that count in, so one plan serves any number of runs.
    """

    rate: float = 0.0
    nodes: Optional[frozenset[NodeAddress]] = None
    service: Optional[str] = None
    max_failures: Optional[int] = None

    def should_fail(self, worker: NodeAddress, service: str, rng: random.Random,
                    injected: int) -> bool:
        # a capped plan returns before the draw, so the order of checks
        # decides which executions consume a number from the node's stream
        if self.rate <= 0.0:
            return False
        if self.nodes is not None and worker not in self.nodes:
            return False
        if self.service is not None and service != self.service:
            return False
        if self.max_failures is not None and injected >= self.max_failures:
            return False
        return rng.random() < self.rate


class WorkerRuntime:
    """One node's execution engine; archives queue when the worker is busy."""

    def __init__(self, node, services: dict[str, ServiceDefinition]) -> None:
        self.node = node
        self.services = dict(services)
        self.busy = False
        self.queue: deque[tuple[Archive, float]] = deque()
        self.files: dict[str, set[str]] = {}

    # -- archive intake ------------------------------------------------------

    def _stale(self, desc: WorkflowDescription, now: float) -> bool:
        """Whether to drop an archive: its workflow was cleaned, or it expired.

        Expired drops are counted; expired workflows consume no execution
        time at all.
        """
        if desc.workflow_id in self.node.cleaned:
            return True
        if desc.is_expired(now):
            self.node.collector.expired_drops += 1
            return True
        return False

    def on_archive(self, archive: Archive, now: float) -> None:
        desc = archive.description
        if self._stale(desc, now):
            return
        self.node.collector.charge(desc, FinalState.RUNTIME)
        self.queue.append((archive, now))
        self._start_next()

    def _start_next(self) -> None:
        if self.busy or not self.queue:
            return
        now = self.node.world.now
        archive, arrived = self.queue.popleft()
        desc = archive.description
        if self._stale(desc, now):
            self._start_next()
            return
        self.busy = True
        self.node.collector.charge(desc, FinalState.RUNTIME, now - arrived)
        self.node.collector.charge(desc, FinalState.RUNTIME, self.node.config.preprocess_s)
        self.node.world.schedule(now + self.node.config.preprocess_s,
                                 lambda: self._preprocessed(archive))

    def _release(self) -> None:
        self.busy = False
        self._start_next()

    # -- execution -------------------------------------------------------------

    def _preprocessed(self, archive: Archive) -> None:
        now = self.node.world.now
        desc = archive.description
        if self._stale(desc, now):
            self._release()
            return
        task = desc.current_task
        service = self.services.get(task.service_name)
        if service is None:
            self._emit_error(archive, ErrorClass.WORKER_CALLING,
                             f"service {task.service_name!r} is not offered here")
            return
        unmet = [m for m, req in task.requirements.items()
                 if m in RESOURCE_METRICS and self.node.caps.resource(m) < req]
        if unmet:
            self._emit_error(archive, ErrorClass.WORKER_CALLING,
                             f"capabilities changed since the offer: {', '.join(unmet)} below requirement")
            return
        rng = self.node.exec_rng
        duration = service.exec_seconds_mean
        if service.exec_seconds_jitter > 0:
            duration += rng.uniform(-service.exec_seconds_jitter, service.exec_seconds_jitter)
        duration = max(MIN_EXEC_SECONDS, duration)
        self.node.collector.charge(desc, FinalState.EXECUTION)
        self.node.world.schedule(now + duration,
                                 lambda: self._executed(archive, service, duration))

    def _executed(self, archive: Archive, service: ServiceDefinition, duration: float) -> None:
        now = self.node.world.now
        desc = archive.description
        task_idx = desc.cursor
        self.node.collector.charge(desc, FinalState.EXECUTION, duration)
        self.node.caps.energy = max(0.0, self.node.caps.energy - service.energy_cost_e)
        if desc.workflow_id in self.node.cleaned:
            self._release()
            return
        if self.node.config.fault.should_fail(self.node.address, service.name,
                                              self.node.fault_rng,
                                              self.node.collector.faults_injected):
            self.node.collector.faults_injected += 1
            self._emit_error(archive, ErrorClass.TASK_EXECUTION,
                             f"service {service.name!r} failed during execution")
            return
        result_name = f"result_{task_idx}.{service.output_ext}"
        self.files.setdefault(desc.workflow_id, set()).add(result_name)
        tasks = list(desc.tasks)
        if task_idx + 1 < len(tasks):
            tasks[task_idx + 1] = substitute_result(tasks[task_idx + 1], result_name)
        archive = replace(
            archive, description=replace(desc, tasks=tuple(tasks), cursor=task_idx + 1),
            files={result_name: FileStub(size_bytes=service.output_size_bytes,
                                         tag=f"{desc.workflow_id}:{result_name}")})
        self.node.collector.charge(desc, FinalState.RUNTIME, self.node.config.postprocess_s)
        self.node.world.schedule(now + self.node.config.postprocess_s,
                                 lambda: self._forward(archive))

    # -- forwarding --------------------------------------------------------------

    def _forward(self, archive: Archive) -> None:
        now = self.node.world.now
        desc = archive.description
        if desc.workflow_id in self.node.cleaned or desc.is_expired(now):
            self._release()
            return
        if desc.finished:
            self.node.send_archive(BundleKind.RESULT_ARCHIVE, archive, desc.client)
            self._release()
            return
        try:
            worker = self.resolve_worker(archive, exclude=set())
        except SelectionError as exc:
            self._emit_error(archive, ErrorClass.WORKER_SELECTION, str(exc))
            return
        archive = replace(archive, assigned_by=self.node.address, retried=False)
        self.node.send_archive(BundleKind.WORKFLOW_ARCHIVE, archive, worker)
        self._release()

    def resolve_worker(self, archive: Archive, exclude: set[NodeAddress]) -> NodeAddress:
        """Resolve the worker for the archive's current task; records the selection."""
        desc = archive.description
        task = desc.current_task
        if task.worker is not None:
            worker = task.worker
        else:
            records = self.node.offer_db.lookup(task.service_name, self.node.world.now)
            worker = select(self.node.config.strategy, records, task.requirements,
                            self.node.config.weights, self.node.position(),
                            self.node.select_rng,
                            distance_fn=self.node.world.rating_distance,
                            exclude={self.node.address} | exclude)
        self.node.collector.selection(self.node.address, worker)
        return worker

    # -- errors -------------------------------------------------------------------

    def _emit_error(self, archive: Archive, error_class: ErrorClass, message: str) -> None:
        now = self.node.world.now
        desc = archive.description
        error = WorkerError(error_class=error_class, message=message,
                            worker=self.node.address)
        dest = archive.assigned_by if retryable(archive, error_class) else desc.client
        archive = replace(archive, error=error, error_log=archive.error_log + (
            f"[{now:.3f}] {format_address(self.node.address)} "
            f"task {desc.cursor} {error_class.value}: {message}\n"))
        self.node.send_archive(BundleKind.ERROR_ARCHIVE, archive, dest)
        self._release()

    def on_error_report(self, archive: Archive) -> None:
        """Retry path at the node that assigned the failing worker."""
        now = self.node.world.now
        desc = archive.description
        if desc.workflow_id in self.node.cleaned or desc.is_expired(now):
            return
        try:
            worker = self.resolve_worker(archive, exclude={archive.error.worker})
        except SelectionError as exc:
            error = WorkerError(error_class=ErrorClass.WORKER_SELECTION, message=str(exc),
                                worker=self.node.address)
            self.node.hand_error_to_client(replace(archive, error=error))
            return
        archive = replace(archive, assigned_by=self.node.address, retried=True, error=None)
        self.node.collector.charge(desc, FinalState.RUNTIME, self.node.config.postprocess_s)
        self.node.world.schedule(
            now + self.node.config.postprocess_s,
            lambda: self.node.send_archive(BundleKind.WORKFLOW_ARCHIVE, archive, worker))

    # -- cleanup ---------------------------------------------------------------

    def on_cleanup(self, workflow_id: str) -> None:
        self.files.pop(workflow_id, None)
        if self.queue:
            self.queue = deque((a, t) for a, t in self.queue
                               if a.description.workflow_id != workflow_id)
