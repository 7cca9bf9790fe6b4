"""Service offers: periodic capability announcements and the local offer view.

Every worker broadcasts one bundle per announcement round. Its payload is
the round's `Announcement`, the way an archive bundle's payload is its
`Archive`: a snapshot of the worker's capability vector and the param count
of each service it offers. The bundle's source and creation time are the
worker and the issue time. Nothing is encoded; a bundle's size is what the
fixed-width record layout would take, a header plus one record per
service, so link timing follows the layout. The layout's limits,
`SERVICE_NAME_BYTES` and `MAX_PARAM_COUNT`, are the model's, and the
scenario parser enforces them. Every store holding a copy holds the same
bundle, so the announcement is freed with its last copy, and nothing may
edit it.

A node's offer view is read from the offer bundles its store holds, in
arrival order: of the announcements of one worker offering one service, a
newer issue always wins, a delayed older one never overwrites, and of two
issued at the same time the first to arrive stays. An offer is fresh
exactly while its bundle is live in the store, so the store's expiry rule
is the only one. The view keeps no state of its own; a lookup, which runs
when a task is assigned, folds the live offer bundles of the one service
it asks for and builds an OfferRecord only for each winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .bundles import (BROADCAST, Bundle, BundleId, BundleKind, BundleStore,
                      NodeAddress)
from .simnet import Position
from .workflow import RESOURCE_METRICS

# the record layout that sizes an offer bundle: a header (worker, issue time,
# four resources, x, y) and per service a NUL-padded UTF-8 name, an unsigned
# 32-bit param count and a reserved word
OFFER_HEADER_BYTES = 64
OFFER_RECORD_BYTES = 32
SERVICE_NAME_BYTES = 24
MAX_PARAM_COUNT = 2 ** 32 - 1

DEFAULT_ANNOUNCE_INTERVAL_S = 2.0
DEFAULT_OFFER_EXPIRY_S = 120.0


@dataclass
class CapabilityVector:
    """A worker's advertised resources plus its position at announce time."""

    cpu: float
    memory: float
    disk: float
    energy: float
    position: Position

    def unmet(self, requirements: dict[str, float]) -> list[str]:
        """The required resource metrics this vector falls short of, in requirement order."""
        return [metric for metric, required in requirements.items()
                if metric in RESOURCE_METRICS and getattr(self, metric) < required]


@dataclass(frozen=True, slots=True)
class Announcement:
    """One announcement round: the payload of an offer bundle.

    `capabilities` is this round's snapshot, every number a float. `params`
    maps each offered service to its param count; a node builds it once,
    since its services are fixed once it is built, and every round shares it.
    """

    capabilities: CapabilityVector
    params: Mapping[str, int]


@dataclass(frozen=True, slots=True)
class OfferRecord:
    """One worker's winning offer of a service, as selection reads it."""

    worker: NodeAddress
    capabilities: CapabilityVector
    received_at: float


def decode_offers(payload: object) -> list[OfferRecord]:
    """No payload is encoded; the name stays only for the benchmark tracer, which patches it."""
    raise NotImplementedError("offer payloads are Announcement records, not bytes")


def build_offer_bundle(bundle_id: BundleId, worker: NodeAddress, issued_at: float,
                       caps: CapabilityVector, params: Mapping[str, int],
                       expiry_s: float = DEFAULT_OFFER_EXPIRY_S) -> Bundle:
    """One broadcast bundle per announcement round, whose payload is the round's record."""
    x, y = caps.position
    snapshot = CapabilityVector(cpu=float(caps.cpu), memory=float(caps.memory),
                                disk=float(caps.disk), energy=float(caps.energy),
                                position=(float(x), float(y)))
    issued_at = float(issued_at)
    return Bundle(bundle_id=bundle_id, source=worker, destination=BROADCAST,
                  kind=BundleKind.OFFER,
                  payload=Announcement(snapshot, params),
                  size_bytes=OFFER_HEADER_BYTES + OFFER_RECORD_BYTES * len(params),
                  created_at=issued_at, ttl_seconds=expiry_s)


class OfferDatabase:
    """A node's view of who offers what, read from the live offer bundles of its store.

    Nothing is kept between lookups: each one folds the store's live
    announcements of one service in arrival order.
    """

    def __init__(self, store: BundleStore) -> None:
        self.store = store

    def ingest(self, candidates: Sequence[tuple[Bundle, float]],
               winners: dict[NodeAddress, tuple[Bundle, float]]) -> int:
        """Fold (offer bundle, received_at) pairs, in arrival order, into one winner per worker.

        A newer issue wins; on a tie the first arrival stays. Returns how
        many candidates added or replaced a winner.
        """
        applied = 0
        for candidate in candidates:
            worker = candidate[0].source
            winner = winners.get(worker)
            if winner is None or winner[0].created_at < candidate[0].created_at:
                winners[worker] = candidate
                applied += 1
        return applied

    def lookup(self, service_name: str, now: float) -> list[OfferRecord]:
        """Fresh offers for one service, sorted by worker address."""
        arrived_at = self.store.arrived_at
        candidates = [(bundle, arrived_at[bundle.bundle_id])
                      for bundle in self.store.live(now)
                      if bundle.kind is BundleKind.OFFER
                      and service_name in bundle.payload.params]
        winners: dict[NodeAddress, tuple[Bundle, float]] = {}
        self.ingest(candidates, winners)
        return [OfferRecord(worker, bundle.payload.capabilities, received_at)
                for worker, (bundle, received_at) in sorted(winners.items())]
