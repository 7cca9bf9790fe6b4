"""One network participant: store, offer view, worker role, client role.

A node is one object. It inherits the worker role (`WorkerRuntime`) and the
client role (`ClientRuntime`) and owns the state both read. It announces its
services, if it has any, on a fixed period from the moment it is built, one
offer bundle per round, and keeps its last round's `Announcement` record:
the next round carries that record again unless what it snapshots has
changed, so a new record is built only when the node moves or spends energy.
A received offer bundle needs no handling, so the world never passes one to
`on_bundle`: its store keeps it, and the node's offer view reads the store
when a task is assigned. `on_bundle` gets every other bundle the node
stores. It dispatches the archives addressed to the node to its worker or
client methods, only carries the ones passing through, and honors a cleanup
marker by dropping every stored copy of the finished workflow's archives.
Nodes remember which workflows were cleaned, in `cleaned`, and the world
refuses by that same set, so anti-entropy cannot re-plant stale copies on
them; a worker skips a queued archive of a cleaned workflow when it reaches
it. A cleanup marker, like an offer, carries no workflow tag, so no node
ever refuses one.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Optional

from .announce import (Announcement, CapabilityVector, OfferDatabase,
                       build_offer_bundle)
from .bundles import BROADCAST, Bundle, BundleKind, NodeAddress
from .client import ClientRuntime
from .report import Collector, FinalState
from .runtime import ServiceDefinition, WorkerRuntime, retryable
from .scenario import RunSettings
from .simnet import Position, World
from .workflow import Archive, WorkflowDescription, packed_size

CLEANUP_MARKER_BYTES = 64


class _Stream:
    """A node's random stream for one role, made at its first draw.

    Nothing draws from a stream before its first use, and the stream is
    seeded from the same `seed:role:address` string an eager one would
    take, so no draw moves; a node that only carries bundles never makes
    one. The node keeps the stream as a plain attribute, which shadows this
    descriptor from then on. `functools.cached_property` would write it
    through the instance `__dict__`, and on CPython 3.11 that makes every
    later attribute load on the node about three times slower.
    """

    def __init__(self, role: str) -> None:
        self.role = role

    def __get__(self, node: Optional[Node], owner: type) -> random.Random:
        if node is None:
            return self
        return node._first_draw(self.role)


class Node(WorkerRuntime, ClientRuntime):
    """Full protocol stack of one address, wired into a World."""

    select_rng = _Stream("select")
    exec_rng = _Stream("exec")
    fault_rng = _Stream("fault")

    def __init__(self, address: NodeAddress, world: World, collector: Collector,
                 run: RunSettings, caps: CapabilityVector,
                 services: dict[str, ServiceDefinition]) -> None:
        self.address = address
        self.world = world
        self.collector = collector
        self.config = run
        self.caps = caps
        self.cleaned: set[str] = set()
        self.services = dict(services)
        # param count by service, shared by every announcement: services are
        # fixed once built
        self._offered = {name: self.services[name].param_count
                         for name in sorted(self.services)}
        # the last round's record, which the next round carries again if
        # nothing it snapshots has changed
        self._announced: Optional[Announcement] = None
        self.busy = False
        self.queue: deque[tuple[Archive, float]] = deque()
        self._workflow_seq = 0
        self._bundle_seq = 0
        self.store = world.add_node(address, position=caps.position,
                                    handler=self.on_bundle, refused=self.cleaned)
        self.offer_db = OfferDatabase(self.store)
        # nodes built in address order announce in address order
        if self.services:
            world.schedule(world.now, self._announce)

    def _first_draw(self, role: str) -> random.Random:
        # the stream becomes a plain attribute, which shadows its `_Stream`
        stream = random.Random(f"{self.config.seed}:{role}:{self.address}")
        if role == "select":
            self.select_rng = stream
        elif role == "exec":
            self.exec_rng = stream
        else:
            self.fault_rng = stream
        return stream

    def position(self) -> Position:
        return self.world.position_of(self.address)

    # -- announcements ---------------------------------------------------------

    def _announce(self) -> None:
        now = self.world.now
        self.caps.position = self.position()
        bundle = build_offer_bundle(self._next_bundle_id(), self.address, now, self.caps,
                                    self._offered, self.config.offer_expiry_s,
                                    self._announced)
        self._announced = bundle.payload
        self.world.originate(bundle)
        self.world.schedule(now + self.config.announce_interval_s, self._announce)

    # -- bundle plumbing ---------------------------------------------------------

    def _next_bundle_id(self):
        self._bundle_seq += 1
        return (self.address, self._bundle_seq)

    def on_bundle(self, bundle: Bundle) -> None:
        """Act on a stored cleanup marker or archive; the world passes no offer."""
        kind = bundle.kind
        if kind is BundleKind.CLEANUP_MARKER:
            self.on_cleanup(str(bundle.payload))
            return
        if bundle.destination != self.address:
            return
        now = self.world.now
        archive = bundle.payload
        self.collector.charge(archive.description, FinalState.TRANSMISSION,
                              now - bundle.created_at)
        # an error is retried by the node that assigned the failing worker if
        # it can be; a result, or an error that is not retried, ends at the client
        if kind is BundleKind.WORKFLOW_ARCHIVE:
            self.on_archive(archive, now)
        elif kind is BundleKind.ERROR_ARCHIVE and retryable(archive):
            self.on_error_report(archive)
        elif archive.description.client == self.address:
            self.on_returned(archive)

    # -- sending -----------------------------------------------------------------

    def send_archive(self, kind: BundleKind, archive: Archive, dest: NodeAddress) -> None:
        desc = archive.description
        bundle = Bundle(bundle_id=self._next_bundle_id(), source=self.address,
                        destination=dest, kind=kind, payload=archive,
                        size_bytes=packed_size(archive), created_at=self.world.now,
                        ttl_seconds=max(0.0, desc.expires_at() - self.world.now),
                        workflow_id=desc.workflow_id)
        self.collector.charge(desc, FinalState.TRANSMISSION)
        self.world.originate(bundle)

    def send_cleanup(self, desc: WorkflowDescription) -> None:
        bundle = Bundle(bundle_id=self._next_bundle_id(), source=self.address,
                        destination=BROADCAST, kind=BundleKind.CLEANUP_MARKER,
                        payload=desc.workflow_id,
                        size_bytes=CLEANUP_MARKER_BYTES + len(desc.workflow_id),
                        created_at=self.world.now, ttl_seconds=desc.ttl_seconds)
        self.world.originate(bundle)

    # -- cleanup -------------------------------------------------------------------

    def on_cleanup(self, workflow_id: str) -> None:
        self.cleaned.add(workflow_id)
        self.store.remove_where(workflow_id)
