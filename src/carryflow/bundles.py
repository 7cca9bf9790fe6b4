"""Per-node bundle storage for a store-carry-forward network.

A bundle is the unit of replication: an addressed (or broadcast) payload with
a creation time and a TTL. Each node owns one store; synchronization between
stores happens in the network layer, this module only answers what a node
currently holds and what has expired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional

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


@dataclass
class Bundle:
    """An immutable-by-convention payload unit carried between nodes."""

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

    def is_expired(self, now: float) -> bool:
        if math.isinf(self.ttl_seconds):
            return False
        return now > self.created_at + self.ttl_seconds


class BundleStore:
    """Holds the bundles one node currently carries, in insertion order.

    A removed bundle is never stored again (removal happens only on cleanup,
    after which the node refuses that workflow), so iterating the store gives
    the order in which its live bundles arrived.
    """

    def __init__(self) -> None:
        self._bundles: dict[BundleId, Bundle] = {}

    def __len__(self) -> int:
        return len(self._bundles)

    def __contains__(self, bundle_id: BundleId) -> bool:
        return bundle_id in self._bundles

    def insert(self, bundle: Bundle, now: float) -> bool:
        """Store a bundle. Returns False for duplicates and dead-on-arrival bundles."""
        if bundle.bundle_id in self._bundles:
            return False
        if bundle.is_expired(now):
            return False
        self._bundles[bundle.bundle_id] = bundle
        return True

    def remove_where(self, predicate: Callable[[Bundle], bool]) -> int:
        doomed = [bid for bid, b in self._bundles.items() if predicate(b)]
        for bid in doomed:
            del self._bundles[bid]
        return len(doomed)

    def live(self, now: float) -> Iterator[Bundle]:
        """All stored, non-expired bundles in insertion order."""
        for bundle in self._bundles.values():
            if not bundle.is_expired(now):
                yield bundle

    # The link scan calls live() under this second name so that a profiler
    # patching the class attribute by name can time link scans on their own.
    scan_log = live

    def prune(self, now: float) -> int:
        """Drop expired bundles."""
        return self.remove_where(lambda b: b.is_expired(now))
