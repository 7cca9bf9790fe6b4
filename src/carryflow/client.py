"""Client-side workflow lifecycle: offload, await the result, enforce the TTL.

A handle moves from pending to exactly one of succeeded, failed, or timed
out, and never leaves a terminal state; whatever arrives later is ignored.
Every terminal transition of a workflow that put bundles on the network
broadcasts a cleanup marker so carriers drop the workflow's leftovers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .assignment import SelectionError
from .bundles import BundleKind, NodeAddress
from .report import FinalState, HandleStatus, PhaseBreakdown
from .runtime import ErrorClass, WorkerError
from .workflow import Archive, FileContent, WorkflowDescription, parse


@dataclass
class WorkflowHandle:
    """One workflow's whole lifecycle, and the record its report is frozen from.

    The description holds the workflow's id and offload time; the handle
    adds only what changes as the workflow runs. `stage` is the final state
    an unfinished workflow is reported as: the phase it was in when the run
    ended or its TTL fired. `phases` is its ledger, one row per task plus
    the result's trip back at row `len(tasks)`; `Collector.charge` writes
    both.
    """

    description: WorkflowDescription
    status: HandleStatus = HandleStatus.PENDING
    result: Optional[Archive] = None
    error: Optional[WorkerError] = None
    finished_at: Optional[float] = None
    sent_any: bool = False
    stage: FinalState = FinalState.RUNTIME
    phases: dict[int, PhaseBreakdown] = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.status is not HandleStatus.PENDING


class ClientRuntime:
    """Workflow origination and terminal bookkeeping for one node.

    Results and errors reach only the client named in the description, so
    the handle they finish is the run's track of that workflow.
    """

    def __init__(self, node) -> None:
        self.node = node
        self._counter = 0

    def offload(self, text: str, files: dict[str, FileContent]) -> WorkflowHandle:
        """Parse, assign the first worker, and send the archive on its way.

        Unparsable text raises immediately. An empty candidate set for a
        just-in-time first task fails the handle locally without any
        network traffic.
        """
        now = self.node.world.now
        self._counter += 1
        workflow_id = f"wf-{self.node.address:x}-{self._counter}"
        desc = parse(text, workflow_id=workflow_id, client=self.node.address, created_at=now)
        handle = WorkflowHandle(description=desc)
        self.node.collector.tracks[workflow_id] = handle
        archive = Archive(description=desc, files=dict(files),
                          assigned_by=self.node.address)
        try:
            worker = self.node.worker.resolve_worker(archive, exclude=set())
        except SelectionError as exc:
            error = WorkerError(error_class=ErrorClass.WORKER_SELECTION, message=str(exc),
                                worker=self.node.address)
            self._finish(handle, HandleStatus.FAILED, error=error)
            return handle
        if math.isfinite(desc.ttl_seconds):
            self.node.world.schedule(now + desc.ttl_seconds, lambda: self._expire(handle))
        self.node.collector.charge(desc, FinalState.RUNTIME, self.node.config.postprocess_s)
        self.node.world.schedule(
            now + self.node.config.postprocess_s,
            lambda: self._dispatch(handle, archive, worker))
        return handle

    def _dispatch(self, handle: WorkflowHandle, archive: Archive,
                  worker: NodeAddress) -> None:
        if handle.terminal:
            return
        handle.sent_any = True
        self.node.send_archive(BundleKind.WORKFLOW_ARCHIVE, archive, worker)

    # -- terminal transitions -------------------------------------------------

    def on_result(self, archive: Archive) -> None:
        handle = self.node.collector.tracks.get(archive.description.workflow_id)
        if handle is None or handle.terminal:
            return
        handle.result = archive
        self._finish(handle, HandleStatus.SUCCEEDED)

    def on_error(self, archive: Archive) -> None:
        handle = self.node.collector.tracks.get(archive.description.workflow_id)
        if handle is None or handle.terminal:
            return
        self._finish(handle, HandleStatus.FAILED, error=archive.error)

    def _expire(self, handle: WorkflowHandle) -> None:
        if handle.terminal:
            return
        self._finish(handle, HandleStatus.TIMED_OUT)

    def _finish(self, handle: WorkflowHandle, status: HandleStatus,
                error: Optional[WorkerError] = None) -> None:
        handle.status = status
        handle.error = error
        handle.finished_at = self.node.world.now
        if handle.sent_any:
            self.node.send_cleanup(handle.description)
        else:
            self.node.on_cleanup(handle.description.workflow_id)
