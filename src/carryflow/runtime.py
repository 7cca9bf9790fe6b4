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
from typing import Iterator, NamedTuple, Optional, Sequence

from .announce import MAX_PARAM_COUNT
from .assignment import SelectionError, Strategy, select
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


def _some_nodes(plan: FaultPlan) -> list[str]:
    # None scopes the plan to every node, and a config writes it and an
    # empty set alike, so an empty set would run apart under one digest
    if plan.nodes is not None and not plan.nodes:
        return ["nodes is empty: None scopes a plan to every node"]
    return []


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
        check(self, self.rows, _some_nodes)

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


class Streams(dict):
    """Every random stream of one table, each made at its first use.

    Key `(role, address)` makes the stream seeded from the string
    `seed:role:address`, and `(role,)` the one from `seed:role`; a stream
    made late draws as one made eagerly would. A run draws from these keys:
    `("cohorts",)` shuffles the cohorts; in the world's table,
    `("mob", address)` walks a node, `("exec", address)` jitters its
    executions and `("fault", address)` injects its faults; and in each
    strategy's own table, `("select", address)` feeds its picks at a node.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def __missing__(self, key: tuple) -> random.Random:
        stream = self[key] = random.Random(":".join(map(str, (self.seed, *key))))
        return stream


class Member(NamedTuple):
    """One strategy of a lockstep group and its table of select streams."""

    strategy: Strategy
    streams: Streams


class Lockstep:
    """The strategies one world runs for one seed while their picks agree.

    Only a pick reads the strategy, so strategies that pick the same worker
    at every pick run the same world. The first member leads: its picks
    steer the world. A member that picks another worker leaves for `left`,
    to run later in a world of its own; each member still in at the end
    ran, draw for draw, what its solo run would have. `streams` is the
    world's table, which every member shares; each member picks from its
    own. Every node of a world shares its group; a node built without one
    is a group of its run's one strategy.
    """

    def __init__(self, seed: int, strategies: Sequence[Strategy]) -> None:
        self.streams = Streams(seed)
        self.members = [Member(strategy, Streams(seed)) for strategy in strategies]
        self.left: list[Strategy] = []

    def join(self, strategies: Sequence[Strategy]) -> None:
        """Add members, which must come before any member has picked."""
        if any(member.streams for member in self.members):
            raise ValueError("a strategy joins a lockstep group before its first pick")
        self.members += [Member(strategy, Streams(self.streams.seed)) for strategy in strategies]


class WorkerRuntime:
    """The worker role of a `Node`: its execution engine.

    Archives wait in the node's `queue` while it is `busy`, and one of a
    cleaned workflow is skipped when `_start_next` reaches it; `services`
    are what it offers. The role also reads `address`, `world`,
    `collector`, `config`, `caps`, `cleaned`, `offer_db`, `position()` and
    the world's `lockstep` group, whose `streams` table gives the node's
    exec and fault streams and whose members pick from their own; it sends
    through `send_archive`, and hands a terminal error to `on_returned`.

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
        jitter = service.exec_seconds_jitter
        if jitter > 0:
            duration += self.lockstep.streams["exec", self.address].uniform(-jitter, jitter)
        duration = max(MIN_EXEC_SECONDS, duration)
        self.collector.charge(desc, FinalState.EXECUTION)
        yield duration
        task_idx = desc.cursor
        self.collector.charge(desc, FinalState.EXECUTION, duration)
        self.caps.energy = max(0.0, self.caps.energy - service.energy_cost_e)
        if desc.workflow_id in self.cleaned:
            return
        if self.config.fault.should_fail(self.address, service.name,
                                         self.lockstep.streams["fault", self.address],
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

        A just-in-time task asks `select` once per member of the world's
        lockstep group, each with its own stream; the lead's pick is the
        world's, and a member that picks another worker leaves the group.

        Raises SelectionError when no worker qualifies, or when the task is
        pinned to an address that no node of the world has. No strategy
        decides that: `select` raises it from the capability-filtered
        candidates, before it draws, so the lead raises it for every member.
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
            origin = self.position()
            exclude = {self.address} | exclude
            group = self.lockstep
            worker = None
            kept = []
            for member in group.members:
                picked = select(member.strategy, records, task.requirements, self.config.weights,
                                origin, member.streams["select", self.address],
                                distance_fn=self.world.rating_distance, exclude=exclude)
                if worker is None:
                    worker = picked
                if picked == worker:
                    kept.append(member)
                else:
                    group.left.append(member.strategy)
            group.members = kept
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
