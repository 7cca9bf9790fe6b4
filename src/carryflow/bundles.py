"""Per-node bundle storage for a store-carry-forward network.

A bundle is the unit of replication: an addressed (or broadcast) payload with
a creation time and a TTL. Every store holding a copy holds the same frozen
object, and no field of it is written after construction. A payload is a
plain object, never encoded bytes: an offer bundle's `Announcement`, an
archive bundle's `Archive`, a cleanup marker's workflow id. Only
`size_bytes` stands for the wire. Each node owns one store; synchronization
between stores happens in the network layer, this module only answers what a
node currently holds. A store sheds a bundle once it expires: inserting and
listing the live bundles first drop everything whose expiry time has passed,
so what a store holds is bounded by its live data, not by how long the run
has gone. Expiry is kept by time, not by bundle: a heap holds each distinct
expiry time once, and the bundles that expire at that time hang off it, so
the copies of one announce round cost one heap entry. Each stored bundle's
arrival time is kept beside it and dropped with it. A cleanup removes one
workflow's bundles (`remove_where`) and never scans the whole store.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Optional

NodeAddress = int

# destination value meaning "every node"
BROADCAST: Optional[NodeAddress] = None

ADDRESS_HEX_DIGITS = 16


def format_address(addr: NodeAddress) -> str:
    """Render a node address as the canonical 16 hex character string."""
    return f"{addr:016x}"


def parse_address(text: str) -> NodeAddress:
    if len(text) != ADDRESS_HEX_DIGITS:
        raise ValueError(f"node address must be {ADDRESS_HEX_DIGITS} hex chars, got {text!r}")
    return int(text, 16)


class BundleKind(Enum):
    OFFER = "offer"
    WORKFLOW_ARCHIVE = "workflow_archive"
    RESULT_ARCHIVE = "result_archive"
    ERROR_ARCHIVE = "error_archive"
    CLEANUP_MARKER = "cleanup_marker"


# (source address, per-source sequence number)
BundleId = tuple[int, int]


@dataclass(frozen=True)
class Bundle:
    """A payload unit carried between nodes.

    Bundles are frozen, and every store holding a copy holds the same
    object; its payload is frozen too.
    """

    bundle_id: BundleId
    source: NodeAddress
    destination: Optional[NodeAddress]
    kind: BundleKind
    payload: object
    size_bytes: int
    created_at: float
    ttl_seconds: float
    # workflow tag used for cleanup; None for offers
    workflow_id: Optional[str] = None
    # created_at + ttl_seconds; infinite for a bundle that never expires
    expires_at: float = field(init=False)

    def __post_init__(self) -> None:
        expires_at = self.created_at + self.ttl_seconds
        # a NaN expiry would sit at the head of a store's expiry heap, never
        # compare as passed, and keep everything behind it from being shed
        if math.isnan(expires_at):
            raise ValueError(f"bundle expiry is NaN (created_at={self.created_at!r}, "
                             f"ttl_seconds={self.ttl_seconds!r})")
        object.__setattr__(self, "expires_at", expires_at)


class BundleStore:
    """Holds the bundles one node currently carries, in insertion order.

    A removed bundle is never stored again (removal happens only on cleanup,
    after which the node refuses that workflow, or on expiry, after which
    insert refuses it), so iterating the store gives the order in which its
    live bundles arrived. A heap of distinct expiry times, each with the ids
    that expire then, finds the bundles to shed, and a per-workflow index
    lets a cleanup touch only its own workflow.
    """

    def __init__(self) -> None:
        self._bundles: dict[BundleId, Bundle] = {}
        # read-only view for callers that test membership on a hot path
        self.by_id: Mapping[BundleId, Bundle] = MappingProxyType(self._bundles)
        self._arrived: dict[BundleId, float] = {}
        # read-only: when each stored bundle was inserted
        self.arrived_at: Mapping[BundleId, float] = MappingProxyType(self._arrived)
        # each finite expiry time of a stored bundle once, and per time the
        # ids stored to expire then (ids cleanup removed since stay listed)
        self._expiry: list[float] = []
        self._expiring: dict[float, list[BundleId]] = {}
        self._by_workflow: dict[str, dict[BundleId, Bundle]] = {}

    def __len__(self) -> int:
        return len(self._bundles)

    def __contains__(self, bundle_id: BundleId) -> bool:
        return bundle_id in self._bundles

    def insert(self, bundle: Bundle, now: float) -> bool:
        """Store a bundle. Returns False for duplicates and dead-on-arrival bundles.

        The world never hands it a bundle the store holds or one that has
        expired, since it tests both first; so these refusals guard direct
        callers only.
        """
        expiry = self._expiry
        if expiry and expiry[0] < now:
            self._shed(now)
        bundle_id, expires_at = bundle.bundle_id, bundle.expires_at
        if bundle_id in self._bundles or now > expires_at:
            return False
        self._bundles[bundle_id] = bundle
        self._arrived[bundle_id] = now
        if expires_at != math.inf:
            ids = self._expiring.get(expires_at)
            if ids is None:
                heapq.heappush(expiry, expires_at)
                self._expiring[expires_at] = [bundle_id]
            else:
                ids.append(bundle_id)
        if bundle.workflow_id is not None:
            self._by_workflow.setdefault(bundle.workflow_id, {})[bundle_id] = bundle
        return True

    def remove_where(self, predicate: Callable[[Bundle], bool], workflow_id: str) -> int:
        """Drop the bundles of one workflow that match predicate; returns how many."""
        doomed = [b for b in self._by_workflow.get(workflow_id, {}).values()
                  if predicate(b)]
        for bundle in doomed:
            self._drop(bundle)
        return len(doomed)

    def live(self, now: float) -> Iterator[Bundle]:
        """All stored, non-expired bundles in insertion order."""
        self._shed(now)
        yield from self._bundles.values()

    # The link scan calls live() under this second name so that a profiler
    # patching the class attribute by name can time link scans on their own.
    scan_log = live

    def _shed(self, now: float) -> None:
        # drops each expired bundle as _drop would, inline: most are offers
        heap, expiring, bundles, arrived = (self._expiry, self._expiring, self._bundles,
                                            self._arrived)
        while heap and heap[0] < now:
            for bundle_id in expiring.pop(heapq.heappop(heap)):
                bundle = bundles.get(bundle_id)
                # the id may be gone (cleanup) or stored again with a later expiry
                if bundle is None or now <= bundle.expires_at:
                    continue
                del bundles[bundle_id]
                del arrived[bundle_id]
                workflow_id = bundle.workflow_id
                if workflow_id is not None:
                    held = self._by_workflow[workflow_id]
                    del held[bundle_id]
                    if not held:
                        del self._by_workflow[workflow_id]

    def _drop(self, bundle: Bundle) -> None:
        del self._bundles[bundle.bundle_id]
        del self._arrived[bundle.bundle_id]
        if bundle.workflow_id is not None:
            held = self._by_workflow[bundle.workflow_id]
            del held[bundle.bundle_id]
            if not held:
                del self._by_workflow[bundle.workflow_id]
