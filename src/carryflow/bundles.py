"""Per-node bundle storage for a store-carry-forward network.

A bundle is the unit of replication: an addressed (or broadcast) payload with
a creation time and a TTL. Every store holding a copy holds the same frozen
object, and no field of it is written after construction. `Bundle` has one
written-out constructor, not a generated one: it takes the fields in order,
by position or keyword, computes the expiry time, refuses a NaN one, and
writes the ten slots directly, so an announce round, which builds a bundle
per worker, pays one plain call for each. A payload is a plain object,
never encoded bytes: an offer bundle's `Announcement`, an archive bundle's
`Archive`, a cleanup marker's workflow id. Only `size_bytes` stands for the
wire. Each node owns one store; synchronization between stores happens in
the network layer, this module only answers what a node currently holds.

A stored copy costs one dict entry: a store is an insertion-ordered dict
from bundle id to arrival time (`arrived_at`, a plain dict), and nothing
else. The bundles sit in a `BundleTable`, one per world, shared by all its
stores, which keeps each bundle once however many stores hold it. The
table sheds a bundle once it expires, from itself and from every store at
once: inserting into any store and listing any store's live bundles first
drop everything whose expiry time has passed, so what the stores hold is
bounded by the live data, not by how long the run has gone. Expiry is kept by time, not by
bundle: a heap holds each distinct expiry time once, and the ids that
expire at that time hang off it, so an announce round's offers cost one
heap entry. A store refuses nothing: its caller hands `insert` only a live
bundle that the store has never held. The world checks both before every
write (a copy in flight can expire, and one can arrive over two links), so
the store does not test them again. Only archive bundles carry a workflow
tag; an offer or a cleanup marker carries none. The table keeps one map
for them, from each workflow to its bundles' ids and per id the number of
stores that hold it: a cleanup drops the store's entries for the ids its
workflow's map names (`remove_where`), so it never scans the store and
never removes a marker, and a tagged bundle leaves the table with its last
copy, even one that never expires. A store writes the table's maps itself
when it takes or drops a copy; the table only sheds and clears. Every map
is a plain dict, so a store and its table copy and pickle together.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import filterfalse
from typing import Container, Iterator, Optional

NodeAddress = int

# destination value meaning "every node"
BROADCAST: Optional[NodeAddress] = None

ADDRESS_HEX_DIGITS = 16
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def format_address(addr: NodeAddress) -> str:
    """Render a node address as the canonical 16 hex character string."""
    return f"{addr:016x}"


def parse_address(text: str) -> NodeAddress:
    """Read exactly 16 hex digits: no sign, prefix, underscore or space."""
    if len(text) != ADDRESS_HEX_DIGITS or not _HEX_DIGITS.issuperset(text):
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


# writes a slot of a frozen bundle; only its constructor calls it
_set = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class Bundle:
    """A payload unit carried between nodes.

    Bundles are frozen and slotted, and every store holding a copy holds the
    same object; its payload is frozen too. `__init__` is written out: it
    does what the generated one would, computes `expires_at`, and nothing else.
    """

    bundle_id: BundleId
    source: NodeAddress
    destination: Optional[NodeAddress]
    kind: BundleKind
    payload: object
    size_bytes: int
    created_at: float
    ttl_seconds: float
    # workflow tag used for cleanup; None for offers and cleanup markers
    workflow_id: Optional[str] = None
    # created_at + ttl_seconds; infinite for a bundle that never expires
    expires_at: float = field(init=False)

    def __init__(self, bundle_id: BundleId, source: NodeAddress,
                 destination: Optional[NodeAddress], kind: BundleKind, payload: object,
                 size_bytes: int, created_at: float, ttl_seconds: float,
                 workflow_id: Optional[str] = None) -> None:
        expires_at = created_at + ttl_seconds
        # a NaN expiry, the one value unequal to itself, would sit at the head
        # of the table's expiry heap, never compare as passed, and keep
        # everything behind it from being shed
        if expires_at != expires_at:
            raise ValueError(f"bundle expiry is NaN (created_at={created_at!r}, "
                             f"ttl_seconds={ttl_seconds!r})")
        _set(self, "bundle_id", bundle_id)
        _set(self, "source", source)
        _set(self, "destination", destination)
        _set(self, "kind", kind)
        _set(self, "payload", payload)
        _set(self, "size_bytes", size_bytes)
        _set(self, "created_at", created_at)
        _set(self, "ttl_seconds", ttl_seconds)
        _set(self, "workflow_id", workflow_id)
        _set(self, "expires_at", expires_at)


class BundleTable:
    """Each bundle that a store of one world holds, once, and its expiry.

    Every copy of a bundle expires at the same `expires_at`, so the table
    sheds a bundle once for all its copies: it pops the bundle here and its
    id from every member store's arrival dict. A heap holds each distinct
    finite expiry time once, with the ids that expire then, so an announce
    round's offers cost one heap entry. Archive bundles carry a workflow
    tag; `workflows` maps each tag to its bundles' ids, each with the
    number of stores that hold it, for a store's cleanup, so a tagged
    bundle leaves the table once no store holds it, even one that never
    expires. An offer or a cleanup marker is removed only by expiry, so it
    stays here exactly while a store holds it.
    """

    def __init__(self) -> None:
        self._bundles: dict[BundleId, Bundle] = {}
        # each finite expiry time of a bundle once, and per time the ids
        # listed to expire then (an id that left with its last copy stays)
        self._expiry: list[float] = []
        self._expiring: dict[float, list[BundleId]] = {}
        # per workflow tag, the ids of its bundles, each with the number of
        # stores that hold it
        self.workflows: dict[str, dict[BundleId, int]] = {}
        # the arrival dict of every store that shares this table
        self._stores: list[dict[BundleId, float]] = []

    def __len__(self) -> int:
        return len(self._bundles)

    def shed(self, now: float) -> None:
        """Drop every bundle that expired before `now`, with all its copies."""
        heap, expiring, bundles, stores, workflows = (
            self._expiry, self._expiring, self._bundles, self._stores, self.workflows)
        while heap and heap[0] < now:
            for bundle_id in expiring.pop(heapq.heappop(heap)):
                # the id may be gone (no store held it any more); a tagged
                # one stored again meanwhile is listed twice
                bundle = bundles.pop(bundle_id, None)
                if bundle is None:
                    continue
                for arrived in stores:
                    arrived.pop(bundle_id, None)
                if bundle.workflow_id is not None:
                    copies = workflows[bundle.workflow_id]
                    del copies[bundle_id]
                    if not copies:
                        del workflows[bundle.workflow_id]

    def clear(self) -> None:
        """Empty every member store, then forget it and every bundle, as a finished world does."""
        for arrived in self._stores:
            arrived.clear()
        for part in (self._bundles, self._expiry, self._expiring, self.workflows,
                     self._stores):
            part.clear()


class BundleStore:
    """The ids one node currently carries, each with its arrival time, in arrival order.

    `arrived_at` is the store: a dict from each stored id to its arrival
    time, the only state a store has, and the one way to ask whether it
    holds an id. The bundles themselves sit in a `BundleTable`, which a
    world shares among its stores; a store built without one makes its
    own. Taking a copy and dropping one write the table's maps here, so
    the table itself only sheds and clears. A removed bundle is never
    stored again (removal happens only on cleanup, after which the node
    refuses that workflow, or on expiry, after which the world no longer
    hands it over), so iterating the store gives the order in which its
    live bundles arrived. `live` lists them all; `scan_log`, which a link
    scan calls, lists only those whose ids the other end lacks, filtering
    in C, since on a busy link the other end holds most of them.
    """

    __slots__ = ("table", "arrived_at")

    def __init__(self, table: Optional[BundleTable] = None) -> None:
        self.table = BundleTable() if table is None else table
        # when each stored bundle was inserted
        self.arrived_at: dict[BundleId, float] = {}
        self.table._stores.append(self.arrived_at)

    def __len__(self) -> int:
        return len(self.arrived_at)

    def insert(self, bundle: Bundle, now: float) -> None:
        """Store a bundle, first shedding what expired before `now`.

        The caller hands it only a live bundle (`now <= expires_at`) that
        this store has never held, neither now nor before a cleanup or
        expiry removed it; nothing here tests that again. The first copy
        puts the bundle in the table, listed under its expiry time; a
        tagged one is counted under its workflow.
        """
        table = self.table
        expiry = table._expiry
        if expiry and expiry[0] < now:
            table.shed(now)
        bundle_id, workflow_id = bundle.bundle_id, bundle.workflow_id
        if bundle_id not in table._bundles:
            table._bundles[bundle_id] = bundle
            expires_at = bundle.expires_at
            if expires_at != math.inf:
                ids = table._expiring.get(expires_at)
                if ids is None:
                    heapq.heappush(expiry, expires_at)
                    table._expiring[expires_at] = [bundle_id]
                else:
                    ids.append(bundle_id)
            if workflow_id is not None:
                table.workflows.setdefault(workflow_id, {})[bundle_id] = 1
        elif workflow_id is not None:
            table.workflows[workflow_id][bundle_id] += 1
        self.arrived_at[bundle_id] = now

    def remove_where(self, workflow_id: str) -> int:
        """Drop every stored bundle of one workflow; returns how many.

        Each dropped copy is counted off in the table, and a bundle leaves
        it with its last copy. Only archive bundles carry a workflow tag, so
        a cleanup marker is never indexed and outlives its workflow's cleanup.
        """
        table = self.table
        copies = table.workflows.get(workflow_id)
        if copies is None:
            return 0
        arrived = self.arrived_at
        removed = [bundle_id for bundle_id in copies if bundle_id in arrived]
        for bundle_id in removed:
            del arrived[bundle_id]
            left = copies[bundle_id] - 1
            if left:
                copies[bundle_id] = left
            else:
                del copies[bundle_id], table._bundles[bundle_id]
        if not copies:
            del table.workflows[workflow_id]
        return len(removed)

    def live(self, now: float) -> Iterator[Bundle]:
        """All stored, non-expired bundles in insertion order."""
        table = self.table
        table.shed(now)
        yield from map(table._bundles.__getitem__, self.arrived_at)

    def scan_log(self, now: float, held: Container[BundleId]) -> Iterator[Bundle]:
        """The live bundles whose ids `held` lacks, in insertion order.

        What `live(now)` lists, less every bundle whose id is in `held`;
        it sheds at the call, and the filter and lookup run in C, so an id
        the other end of a link holds never reaches a Python-level test.
        """
        table = self.table
        table.shed(now)
        return map(table._bundles.__getitem__,
                   filterfalse(held.__contains__, self.arrived_at))
