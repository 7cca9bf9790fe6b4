"""One network participant: store, offer view, worker role, client role.

A node is one object. It inherits the worker role (`WorkerRuntime`) and the
client role (`ClientRuntime`) and owns the state both read. It announces its
services, if it has any, on a fixed period from the moment it is built, one
`Announcement` record per round. A received offer bundle needs no handling:
its store keeps it, and the node's offer view reads the store when a task
is assigned. It dispatches addressed bundles to its worker or client
methods, and honors cleanup markers by purging everything a finished
workflow left behind. Nodes remember which workflows were cleaned so
anti-entropy cannot re-plant stale copies on them.
"""

from __future__ import annotations

import random
from collections import deque

from .announce import CapabilityVector, OfferDatabase, build_offer_bundle
from .bundles import BROADCAST, Bundle, BundleKind, NodeAddress
from .client import ClientRuntime
from .report import Collector, FinalState
from .runtime import ServiceDefinition, WorkerRuntime, retryable
from .scenario import RunSettings
from .simnet import Position, World
from .workflow import Archive, WorkflowDescription, packed_size

CLEANUP_MARKER_BYTES = 64


class Node(WorkerRuntime, ClientRuntime):
    """Full protocol stack of one address, wired into a World."""

    def __init__(self, address: NodeAddress, world: World, collector: Collector,
                 run: RunSettings, caps: CapabilityVector,
                 services: dict[str, ServiceDefinition]) -> None:
        self.address = address
        self.world = world
        self.collector = collector
        self.config = run
        self.caps = caps
        self.cleaned: set[str] = set()
        self.select_rng = random.Random(f"{run.seed}:select:{address}")
        self.exec_rng = random.Random(f"{run.seed}:exec:{address}")
        self.fault_rng = random.Random(f"{run.seed}:fault:{address}")
        self.services = dict(services)
        # param count by service, shared by every announcement: services are
        # fixed once built
        self._offered = {name: self.services[name].param_count
                         for name in sorted(self.services)}
        self.busy = False
        self.queue: deque[tuple[Archive, float]] = deque()
        self.files: dict[str, set[str]] = {}
        self._workflow_seq = 0
        self._bundle_seq = 0
        self.store = world.add_node(address, position=caps.position,
                                    handler=self.on_bundle, accept=self.accepts)
        self.offer_db = OfferDatabase(self.store)
        # nodes built in address order announce in address order
        if self.services:
            world.schedule(world.now, self._announce)

    def position(self) -> Position:
        return self.world.position_of(self.address)

    # -- announcements ---------------------------------------------------------

    def _announce(self) -> None:
        now = self.world.now
        self.caps.position = self.position()
        self.world.originate(build_offer_bundle(
            self._next_bundle_id(), self.address, now, self.caps, self._offered,
            expiry_s=self.config.offer_expiry_s))
        self.world.schedule(now + self.config.announce_interval_s, self._announce)

    # -- bundle plumbing ---------------------------------------------------------

    def _next_bundle_id(self):
        self._bundle_seq += 1
        return (self.address, self._bundle_seq)

    def accepts(self, bundle: Bundle) -> bool:
        """Refuse re-planting of bundles from workflows this node already cleaned.

        The world asks only about bundles that carry a workflow id.
        """
        return (bundle.workflow_id not in self.cleaned
                or bundle.kind is BundleKind.CLEANUP_MARKER)

    def on_bundle(self, bundle: Bundle) -> None:
        kind = bundle.kind
        if kind is BundleKind.CLEANUP_MARKER:
            self.on_cleanup(str(bundle.payload))
            return
        # an offer is broadcast, so it ends here, kept only in the store
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
        elif (kind is BundleKind.ERROR_ARCHIVE and archive.assigned_by == self.address
              and retryable(archive, archive.error.error_class)):
            self.on_error_report(archive)
        elif archive.description.client == self.address:
            self.on_returned(archive)

    # -- sending -----------------------------------------------------------------

    def _remaining_ttl(self, desc: WorkflowDescription) -> float:
        return max(0.0, desc.expires_at() - self.world.now)

    def send_archive(self, kind: BundleKind, archive: Archive, dest: NodeAddress) -> None:
        desc = archive.description
        bundle = Bundle(bundle_id=self._next_bundle_id(), source=self.address,
                        destination=dest, kind=kind, payload=archive,
                        size_bytes=packed_size(archive), created_at=self.world.now,
                        ttl_seconds=self._remaining_ttl(desc),
                        workflow_id=desc.workflow_id)
        self.collector.charge(desc, FinalState.TRANSMISSION)
        self.world.originate(bundle)

    def send_cleanup(self, desc: WorkflowDescription) -> None:
        bundle = Bundle(bundle_id=self._next_bundle_id(), source=self.address,
                        destination=BROADCAST, kind=BundleKind.CLEANUP_MARKER,
                        payload=desc.workflow_id,
                        size_bytes=CLEANUP_MARKER_BYTES + len(desc.workflow_id),
                        created_at=self.world.now, ttl_seconds=desc.ttl_seconds,
                        workflow_id=desc.workflow_id)
        self.world.originate(bundle)

    # -- cleanup -------------------------------------------------------------------

    def on_cleanup(self, workflow_id: str) -> None:
        self.cleaned.add(workflow_id)
        self.store.remove_where(lambda b: b.kind is not BundleKind.CLEANUP_MARKER,
                                workflow_id=workflow_id)
        self._drop_workflow(workflow_id)
