"""Worker role of a node: run tasks, forward archives, handle errors.

`WorkerRuntime` holds only methods; `Node` inherits them and owns the state
they use. A worker queues each archive addressed to it and serves one at a
time, each stay one process: it re-checks the TTL and its own live
capabilities, executes the current task synthetically, then either forwards
the archive to the next worker (pinned or freshly selected) or returns the
result to the client. A worker fails an archive when the task itself
fails, when the next task has no candidate or is pinned to an address no
node has, or when it turns out unfit for what it was sent; the failure
travels as the archive itself, carrying its `WorkerError`. A failure on a
just-in-time assigned worker goes back to whoever assigned it for exactly
one retry with the failed worker excluded; ahead of time failures and
second failures go straight to the client.
Archives are frozen: every hop sends a new one built with `replace`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterator, Optional

from .announce import MAX_PARAM_COUNT
from .assignment import SelectionError, select
from .bounds import Key, check
from .bundles import BundleKind, NodeAddress, format_address
from .report import FinalState
from .workflow import (MAX_FILE_BYTES, Archive, ErrorClass, WorkerError,
                       WorkflowDescription, substitute_result)

MIN_EXEC_SECONDS = 0.05


# a file's size in bytes, up to the archive layout's 64-bit content length
FILE_BYTES = Key("bytes", kind=int, minimum=0, maximum=MAX_FILE_BYTES)


@dataclass(frozen=True)
class ServiceDefinition:
    """A synthetic service profile: timing, output size, and energy drain.

    Built, it meets its `rows`, each named by its key under `[services]`,
    so a service no file could give is refused here rather than by the
    first result it sends.
    """

    name: str
    param_count: int = 1
    exec_seconds_mean: float = 1.0
    exec_seconds_jitter: float = 0.0
    output_size_bytes: int = 1_000_000
    energy_cost_e: float = 1.0
    output_ext: str = "out"

    rows = (Key("params", "param_count", int, minimum=0, maximum=MAX_PARAM_COUNT),
            Key("mean", "exec_seconds_mean", minimum=0.0),
            Key("jitter", "exec_seconds_jitter", minimum=0.0),
            replace(FILE_BYTES, name="output_bytes", attr="output_size_bytes"),
            Key("energy", "energy_cost_e", minimum=0.0),
            Key("ext", "output_ext", str))

    def __post_init__(self) -> None:
        check(self, self.rows)


def retryable(archive: Archive) -> bool:
    """Whether an error archive goes back to the worker's assigner for a retry.

    Only the first failure of a just-in-time assigned task does, and never
    a selection failure; every other failure goes to the client.
    """
    desc = archive.description
    return (not desc.finished and desc.current_task.worker is None and not archive.retried
            and archive.error.error_class is not ErrorClass.WORKER_SELECTION)


@dataclass(frozen=True)
class FaultPlan:
    """Scenario-configured execution faults, optionally scoped and bounded.

    The plan is a spec only: the run counts the faults it has injected and
    passes that count in, so one plan serves any number of runs. Built, it
    meets its `rows`, each named by its key under `[run]`.
    """

    rate: float = 0.0
    nodes: Optional[frozenset[NodeAddress]] = None
    service: Optional[str] = None
    max_failures: Optional[int] = None

    rows = (Key("fault_max_failures", "max_failures", int, minimum=0),
            Key("fault_rate", "rate", minimum=0.0, maximum=1.0))

    def __post_init__(self) -> None:
        check(self, self.rows)

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
    """The worker role of a `Node`: its execution engine.

    Archives wait in the node's `queue` while it is `busy`, and one of a
    cleaned workflow is skipped when `_start_next` reaches it; `services`
    are what it offers. The role also reads `address`, `world`,
    `collector`, `config`, `caps`, `cleaned`, `offer_db`, `position()` and
    the random streams, sends through `send_archive`, and hands a terminal
    error to `on_returned`.

    `_serve` is one archive's stay, and each way out of it is a `return`;
    `_resume`, its driver, is the one place that frees the worker. Each
    wait comes back as a `partial` of `_resume` over the stay's generator,
    the one scheduled event that holds a generator, so a world with a stay
    under way does not pickle. No `finally` may wrap a `yield` there: a
    released world drops suspended stays, and the `finally` would then run
    on that world.
    """

    # -- archive intake ------------------------------------------------------

    def _stale(self, desc: WorkflowDescription, now: float) -> bool:
        """Whether to drop an archive: its workflow was cleaned, or it expired.

        Expired drops are counted; expired workflows consume no execution
        time at all.
        """
        if desc.workflow_id in self.cleaned:
            return True
        if desc.is_expired(now):
            self.collector.expired_drops += 1
            return True
        return False

    def on_archive(self, archive: Archive, now: float) -> None:
        desc = archive.description
        if self._stale(desc, now):
            return
        self.collector.charge(desc, FinalState.RUNTIME)
        self.queue.append((archive, now))
        self._start_next()

    def _start_next(self) -> None:
        while not self.busy and self.queue:
            now = self.world.now
            archive, arrived = self.queue.popleft()
            desc = archive.description
            if self._stale(desc, now):
                continue
            self.busy = True
            self.collector.charge(desc, FinalState.RUNTIME, now - arrived)
            self._resume(self._serve(archive))

    def _resume(self, serving: Iterator[float]) -> None:
        """Run a stay to its next wait and come back after it; free the worker at its end."""
        wait = next(serving, None)
        if wait is None:
            self.busy = False
            self._start_next()
        else:
            self.world.schedule(self.world.now + wait, partial(self._resume, serving))

    # -- serving an archive ----------------------------------------------------

    def _serve(self, archive: Archive) -> Iterator[float]:
        """Preprocess, execute and postprocess one archive, yielding each wait."""
        desc = archive.description
        self.collector.charge(desc, FinalState.RUNTIME, self.config.preprocess_s)
        yield self.config.preprocess_s
        if self._stale(desc, self.world.now):
            return
        task = desc.current_task
        service = self.services.get(task.service_name)
        if service is None:
            self._emit_error(archive, ErrorClass.WORKER_CALLING,
                             f"service {task.service_name!r} is not offered here")
            return
        unmet = self.caps.unmet(task.requirements)
        if unmet:
            self._emit_error(archive, ErrorClass.WORKER_CALLING,
                             f"capabilities changed since the offer: {', '.join(unmet)} below requirement")
            return
        duration = service.exec_seconds_mean
        if service.exec_seconds_jitter > 0:
            duration += self.exec_rng.uniform(-service.exec_seconds_jitter,
                                              service.exec_seconds_jitter)
        duration = max(MIN_EXEC_SECONDS, duration)
        self.collector.charge(desc, FinalState.EXECUTION)
        yield duration
        task_idx = desc.cursor
        self.collector.charge(desc, FinalState.EXECUTION, duration)
        self.caps.energy = max(0.0, self.caps.energy - service.energy_cost_e)
        if desc.workflow_id in self.cleaned:
            return
        if self.config.fault.should_fail(self.address, service.name, self.fault_rng,
                                         self.collector.faults_injected):
            self.collector.faults_injected += 1
            self._emit_error(archive, ErrorClass.TASK_EXECUTION,
                             f"service {service.name!r} failed during execution")
            return
        result_name = f"result_{task_idx}.{service.output_ext}"
        tasks = list(desc.tasks)
        if task_idx + 1 < len(tasks):
            tasks[task_idx + 1] = substitute_result(tasks[task_idx + 1], result_name)
        archive = replace(
            archive, description=replace(desc, tasks=tuple(tasks), cursor=task_idx + 1),
            files={result_name: service.output_size_bytes})
        self.collector.charge(desc, FinalState.RUNTIME, self.config.postprocess_s)
        yield self.config.postprocess_s
        desc = archive.description
        if desc.workflow_id in self.cleaned or desc.is_expired(self.world.now):
            return
        if desc.finished:
            self.send_archive(BundleKind.RESULT_ARCHIVE, archive, desc.client)
            return
        try:
            worker = self.resolve_worker(archive, exclude=set())
        except SelectionError as exc:
            self._emit_error(archive, ErrorClass.WORKER_SELECTION, str(exc))
            return
        archive = replace(archive, assigned_by=self.address, retried=False)
        self.send_archive(BundleKind.WORKFLOW_ARCHIVE, archive, worker)

    def resolve_worker(self, archive: Archive, exclude: set[NodeAddress]) -> NodeAddress:
        """Resolve the worker for the archive's current task; records the selection.

        Raises SelectionError when no worker qualifies, or when the task is
        pinned to an address that no node of the world has.
        """
        desc = archive.description
        task = desc.current_task
        if task.worker is not None:
            worker = task.worker
            if worker not in self.world.stores:
                raise SelectionError(
                    f"pinned worker {format_address(worker)} is not in the world")
        else:
            records = self.offer_db.lookup(task.service_name, self.world.now)
            worker = select(self.config.strategy, records, task.requirements,
                            self.config.weights, self.position(),
                            self.select_rng,
                            distance_fn=self.world.rating_distance,
                            exclude={self.address} | exclude)
        selections = self.collector.selections
        selections[self.address, worker] = selections.get((self.address, worker), 0) + 1
        return worker

    # -- errors -------------------------------------------------------------------

    def _emit_error(self, archive: Archive, error_class: ErrorClass, message: str) -> None:
        now = self.world.now
        desc = archive.description
        archive = replace(archive, error=WorkerError(error_class, message, self.address),
                          error_log=archive.error_log + (
                              f"[{now:.3f}] {format_address(self.address)} "
                              f"task {desc.cursor} {error_class.value}: {message}\n"))
        dest = archive.assigned_by if retryable(archive) else desc.client
        self.send_archive(BundleKind.ERROR_ARCHIVE, archive, dest)

    def _fail_selection(self, archive: Archive, exc: SelectionError) -> None:
        """End the workflow in a worker-selection error at its client.

        The client's own selections end here too: `on_returned` finds the
        handle `offload` registered. The error log is left as it is, since a
        line there would change the archive's packed size.
        """
        client = archive.description.client
        archive = replace(archive, error=WorkerError(
            error_class=ErrorClass.WORKER_SELECTION, message=str(exc), worker=self.address))
        if client == self.address:
            self.on_returned(archive)
        else:
            self.send_archive(BundleKind.ERROR_ARCHIVE, archive, client)

    def on_error_report(self, archive: Archive) -> None:
        """Retry path at the node that assigned the failing worker."""
        now = self.world.now
        desc = archive.description
        if desc.workflow_id in self.cleaned or desc.is_expired(now):
            return
        try:
            worker = self.resolve_worker(archive, exclude={archive.error.worker})
        except SelectionError as exc:
            self._fail_selection(archive, exc)
            return
        archive = replace(archive, assigned_by=self.address, retried=True, error=None)
        self.collector.charge(desc, FinalState.RUNTIME, self.config.postprocess_s)
        self.world.schedule(now + self.config.postprocess_s, partial(
            self.send_archive, BundleKind.WORKFLOW_ARCHIVE, archive, worker))
