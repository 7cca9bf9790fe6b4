"""Service offers: periodic capability announcements and the local offer view.

Every worker broadcasts one bundle per announcement round. Its payload is an
`Announcement`, the way an archive bundle's payload is its `Archive`: a
snapshot of the worker's capability vector and the param count of each
service it offers. The bundle's source and creation time are the worker and
the issue time. A round builds a new record only when what it would snapshot
has changed since the worker's last round; otherwise the bundle carries the
last record again, so a worker that keeps still and idle costs one bundle
per round. A snapshot holds each number as `float(v)`, which is `v` itself
for a built-in float, so the test is one identity comparison per source
value, and it is exact: a record is reused only while every source value is
the very object it holds, so its repr is what a fresh build's would be,
`-0.0` against `0.0` and NaN included.

Nothing is encoded; a bundle's size is what the fixed-width record layout
would take, a header plus one record per service, so link timing follows the
layout. The layout's limits, `SERVICE_NAME_BYTES` and `MAX_PARAM_COUNT`, are
the model's, and the scenario parser enforces them. Every store holding a
copy holds the same bundle, so the announcement is freed with its last copy,
and nothing may edit it.

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
from typing import Mapping, Optional, Sequence

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

# an enum member read through its class costs an attribute lookup each time
_OFFER = BundleKind.OFFER


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
                       expiry_s: float = DEFAULT_OFFER_EXPIRY_S,
                       last: Optional[Announcement] = None) -> Bundle:
    """One broadcast bundle per announcement round, whose payload is the round's record.

    `last` is the worker's record of its previous round, if it had one. When
    each source value (the four resources, both coordinates and `params`)
    is the very object `last` holds, the snapshot would read the same, and
    the bundle carries `last` itself; otherwise it carries a new snapshot.
    """
    x, y = caps.position
    cpu, memory, disk, energy = caps.cpu, caps.memory, caps.disk, caps.energy
    record = last
    if record is not None:
        # a snapshot holds float(v), which is v itself for a built-in float,
        # so it holds the source's very objects while none has changed; a
        # new -0.0 for 0.0, a new NaN or an int for a float is a change
        held = record.capabilities
        held_x, held_y = held.position
        if not (x is held_x and y is held_y and cpu is held.cpu and memory is held.memory
                and disk is held.disk and energy is held.energy
                and params is record.params):
            record = None
    if record is None:
        record = Announcement(CapabilityVector(float(cpu), float(memory), float(disk),
                                               float(energy), (float(x), float(y))),
                              params)
    return Bundle(bundle_id, worker, BROADCAST, _OFFER, record,
                  OFFER_HEADER_BYTES + OFFER_RECORD_BYTES * len(params),
                  float(issued_at), expiry_s)


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
                      if bundle.kind is _OFFER
                      and service_name in bundle.payload.params]
        winners: dict[NodeAddress, tuple[Bundle, float]] = {}
        self.ingest(candidates, winners)
        return [OfferRecord(worker, bundle.payload.capabilities, received_at)
                for worker, (bundle, received_at) in sorted(winners.items())]
