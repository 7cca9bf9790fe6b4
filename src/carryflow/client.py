"""Client role of a node: offload, await the result, enforce the TTL.

`ClientRuntime` holds only methods; `Node` inherits them and owns the state
they use. A workflow finishes once, through `_finish`: with the result or
error archive that returns, or, when its TTL fires, with none; later
arrivals are ignored. When no first worker can be chosen, the worker
role's `_fail_selection`, which also ends a failed retry, builds the
worker-selection error archive and hands it straight back here. A finish
of a workflow that put bundles on the network broadcasts a cleanup marker
so carriers drop its leftovers.
"""

from __future__ import annotations

import math
from typing import Optional

from .assignment import SelectionError
from .bundles import BundleKind, NodeAddress
from .report import FinalState, WorkflowHandle
from .workflow import Archive, FileContent, parse


class ClientRuntime:
    """The client role of a `Node`: workflow origination and terminal bookkeeping.

    Results and errors reach only the client named in the description, so
    the handle they finish is the run's track of that workflow. The role
    numbers its workflows with the node's `_workflow_seq` and reads its
    `address`, `world`, `collector` and `config`; it picks the first worker
    with the worker role's `resolve_worker`, ends a failed pick with its
    `_fail_selection`, and sends through `send_archive`, `send_cleanup` and
    `on_cleanup`.
    """

    def offload(self, text: str, files: dict[str, FileContent]) -> WorkflowHandle:
        """Parse, assign the first worker, and send the archive on its way.

        Unparsable text raises immediately. An empty candidate set for a
        just-in-time first task fails the handle locally without any
        network traffic.
        """
        now = self.world.now
        self._workflow_seq += 1
        workflow_id = f"wf-{self.address:x}-{self._workflow_seq}"
        desc = parse(text, workflow_id=workflow_id, client=self.address, created_at=now)
        handle = WorkflowHandle(description=desc)
        self.collector.tracks[workflow_id] = handle
        archive = Archive(description=desc, files=dict(files),
                          assigned_by=self.address)
        try:
            worker = self.resolve_worker(archive, exclude=set())
        except SelectionError as exc:
            self._fail_selection(archive, exc)
            return handle
        if math.isfinite(desc.ttl_seconds):
            self.world.schedule(now + desc.ttl_seconds, lambda: self._finish(handle, None))
        self.collector.charge(desc, FinalState.RUNTIME, self.config.postprocess_s)
        self.world.schedule(
            now + self.config.postprocess_s,
            lambda: self._dispatch(handle, archive, worker))
        return handle

    def _dispatch(self, handle: WorkflowHandle, archive: Archive,
                  worker: NodeAddress) -> None:
        if handle.terminal:
            return
        handle.sent_any = True
        self.send_archive(BundleKind.WORKFLOW_ARCHIVE, archive, worker)

    # -- terminal transitions -------------------------------------------------

    def on_returned(self, archive: Archive) -> None:
        """A result or error archive reached its client."""
        handle = self.collector.tracks.get(archive.description.workflow_id)
        if handle is not None:
            self._finish(handle, archive)

    def _finish(self, handle: WorkflowHandle, archive: Optional[Archive]) -> None:
        if not handle.finish(archive, self.world.now):
            return
        if handle.sent_any:
            self.send_cleanup(handle.description)
        else:
            self.on_cleanup(handle.description.workflow_id)
