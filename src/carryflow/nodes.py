"""One network participant: store, offer view, worker engine, client role.

The node owns the glue: it announces its services on a fixed period, decodes
each received offer through the run's memo (its offer view reads the store),
dispatches addressed bundles to the worker or client runtime, and honors
cleanup markers by purging everything a finished workflow left behind. Nodes
remember which workflows were cleaned so anti-entropy cannot re-plant stale
copies on them.
"""

from __future__ import annotations

import random
from typing import Optional

from .announce import (CapabilityVector, OfferCodecError, OfferDatabase,
                       OfferMemo, build_offer_bundle)
from .bundles import BROADCAST, Bundle, BundleKind, NodeAddress
from .client import ClientRuntime
from .report import Collector, FinalState
from .runtime import ServiceDefinition, WorkerRuntime, retryable
from .scenario import RunSettings
from .simnet import Position, World
from .workflow import Archive, WorkflowDescription, packed_size

CLEANUP_MARKER_BYTES = 64


class Node:
    """Full protocol stack of one address, wired into a World."""

    def __init__(self, address: NodeAddress, world: World, collector: Collector,
                 run: RunSettings, caps: CapabilityVector,
                 services: dict[str, ServiceDefinition],
                 offer_memo: Optional[OfferMemo] = None) -> None:
        self.address = address
        self.world = world
        self.collector = collector
        self.config = run
        self.caps = caps
        self.cleaned: set[str] = set()
        self.select_rng = random.Random(f"{run.seed}:select:{address}")
        self.exec_rng = random.Random(f"{run.seed}:exec:{address}")
        self.fault_rng = random.Random(f"{run.seed}:fault:{address}")
        self.worker = WorkerRuntime(self, services)
        self.client = ClientRuntime(self)
        self._bundle_seq = 0
        self.store = world.add_node(address, position=caps.position,
                                    handler=self.on_bundle, accept=self.accepts)
        self.offer_db = OfferDatabase(
            self.store, OfferMemo() if offer_memo is None else offer_memo)
        self._decoded = self.offer_db.memo.decoded

    def release(self) -> None:
        """Drop the runtimes once the run is over.

        Each runtime refers back to this node; breaking that cycle lets a
        finished run's nodes be freed by reference count instead of whenever
        the garbage collector next runs.
        """
        self.worker = self.client = None

    def position(self) -> Position:
        return self.world.position_of(self.address)

    # -- announcements ---------------------------------------------------------

    def start_announcing(self) -> None:
        """Broadcast offers now and on every announce interval from here on."""
        self._announce()

    def _announce(self) -> None:
        now = self.world.now
        if self.worker.services:
            self.caps.position = self.position()
            self.world.originate(build_offer_bundle(
                self._next_bundle_id(), self.address, now, self.caps,
                [(svc.name, svc.param_count) for svc in
                 sorted(self.worker.services.values(), key=lambda s: s.name)],
                expiry_s=self.config.offer_expiry_s))
        self.world.schedule(now + self.config.announce_interval_s, self._announce)

    # -- bundle plumbing ---------------------------------------------------------

    def _next_bundle_id(self):
        self._bundle_seq += 1
        return (self.address, self._bundle_seq)

    def accepts(self, bundle: Bundle) -> bool:
        """Refuse re-planting of bundles from workflows this node already cleaned."""
        workflow_id = bundle.workflow_id
        return (workflow_id is None or workflow_id not in self.cleaned
                or bundle.kind is BundleKind.CLEANUP_MARKER)

    def on_bundle(self, bundle: Bundle) -> None:
        kind = bundle.kind
        if kind is BundleKind.OFFER:
            payload = bundle.payload
            # a copy of a payload the memo holds needs no decode; the type test
            # keeps an unhashable payload out of the lookup
            if type(payload) is bytes and payload in self._decoded:
                return
            try:
                self.offer_db.memo.decode(bundle, self.world.now)
            except OfferCodecError:
                self.collector.malformed_offers += 1
            return
        if kind is BundleKind.CLEANUP_MARKER:
            self.on_cleanup(str(bundle.payload))
            return
        if bundle.destination != self.address:
            return
        now = self.world.now
        archive = bundle.payload
        self.collector.charge(archive.description, FinalState.TRANSMISSION,
                              now - bundle.created_at)
        if kind is BundleKind.WORKFLOW_ARCHIVE:
            self.worker.on_archive(archive, now)
        elif kind is BundleKind.RESULT_ARCHIVE:
            self.client.on_result(archive)
        elif kind is BundleKind.ERROR_ARCHIVE:
            self._route_error(archive)

    def _route_error(self, archive: Archive) -> None:
        if (archive.assigned_by == self.address
                and retryable(archive, archive.error.error_class)):
            self.worker.on_error_report(archive)
        elif archive.description.client == self.address:
            self.client.on_error(archive)

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

    def hand_error_to_client(self, archive: Archive) -> None:
        """Terminal error path: deliver locally when this node is the client."""
        client = archive.description.client
        if client == self.address:
            self.client.on_error(archive)
        else:
            self.send_archive(BundleKind.ERROR_ARCHIVE, archive, client)

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
        if workflow_id in self.cleaned:
            return
        self.cleaned.add(workflow_id)
        self.store.remove_where(lambda b: b.kind is not BundleKind.CLEANUP_MARKER,
                                workflow_id=workflow_id)
        self.worker.on_cleanup(workflow_id)
