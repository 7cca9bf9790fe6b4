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
    """Holds the bundles one node currently carries.

    Insertion order is recorded in a log so the sync layer can scan only
    entries it has not seen yet. Log entries of removed bundles are skipped
    at scan time; removal itself leaves no tombstone.
    """

    def __init__(self) -> None:
        self._bundles: dict[BundleId, Bundle] = {}
        self._log: list[tuple[int, BundleId]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._bundles)

    def __contains__(self, bundle_id: BundleId) -> bool:
        return bundle_id in self._bundles

    @property
    def log_seq(self) -> int:
        """Sequence number of the most recent insertion."""
        return self._seq

    def insert(self, bundle: Bundle, now: float) -> bool:
        """Store a bundle. Returns False for duplicates and dead-on-arrival bundles."""
        if bundle.bundle_id in self._bundles:
            return False
        if bundle.is_expired(now):
            return False
        self._seq += 1
        self._bundles[bundle.bundle_id] = bundle
        self._log.append((self._seq, bundle.bundle_id))
        return True

    def remove(self, bundle_id: BundleId) -> bool:
        return self._bundles.pop(bundle_id, None) is not None

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

    def scan_log(self, after_seq: int, now: float) -> Iterator[tuple[int, Bundle]]:
        """Yield (seq, bundle) for insertions newer than after_seq, skipping
        bundles that were removed or expired since."""
        for seq, bid in self._iter_log(after_seq):
            bundle = self._bundles.get(bid)
            if bundle is not None and not bundle.is_expired(now):
                yield seq, bundle

    def _iter_log(self, after_seq: int) -> Iterator[tuple[int, BundleId]]:
        log = self._log
        lo, hi = 0, len(log)
        while lo < hi:
            mid = (lo + hi) // 2
            if log[mid][0] <= after_seq:
                lo = mid + 1
            else:
                hi = mid
        for i in range(lo, len(log)):
            yield log[i]

    def prune(self, now: float) -> int:
        """Drop expired bundles; also compacts the insertion log."""
        removed = self.remove_where(lambda b: b.is_expired(now))
        if removed or len(self._log) > 4 * max(1, len(self._bundles)):
            self._log = [(seq, bid) for seq, bid in self._log if bid in self._bundles]
        return removed
