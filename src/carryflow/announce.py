"""Service offers: periodic capability announcements and the local offer view.

Every worker broadcasts one bundle per announcement round carrying its full
capability vector and one record per offered service. A node's offer view
is read from the offer bundles its store holds, in arrival order: of the
offers for one (worker, service), a newer issue always wins, a delayed older
one never overwrites, and of two issued at the same time the first to arrive
stays. An offer is fresh exactly while its bundle is live in the store, so
the store's expiry rule is the only one. The view keeps no state of its own;
a lookup, which runs when a task is assigned, folds the live offer bundles
and builds the OfferRecords it returns.

Decoding is pure, so one run decodes each offer payload once, when a copy
arrives: the run's nodes share an OfferMemo keyed by payload bytes, which
forgets a payload after its bundle has expired. Most arrivals are copies of a
payload the memo already holds, and such a receipt costs one lookup in the
memo; only a payload the memo lacks goes through decode. No other module
relies on a payload being bytes. Lookups read the memo and never decode.
Malformed payloads are never memoised, so each arrival of one is counted,
and a lookup passes over it.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .bundles import (BROADCAST, Bundle, BundleId, BundleKind, BundleStore,
                      NodeAddress)
from .simnet import Position

OFFER_HEADER_BYTES = 64
OFFER_RECORD_BYTES = 32
_HEADER = struct.Struct(">Qddddddd")     # worker, issued_at, cpu, memory, disk, energy, x, y
SERVICE_NAME_BYTES = 24                  # UTF-8 bytes, NUL padded on the wire
MAX_PARAM_COUNT = 2 ** 32 - 1            # the record's unsigned 32-bit field
_RECORD = struct.Struct(f">{SERVICE_NAME_BYTES}sII")   # service name, param count, reserved

DEFAULT_ANNOUNCE_INTERVAL_S = 2.0
DEFAULT_OFFER_EXPIRY_S = 120.0


class OfferCodecError(ValueError):
    """Raised when an offer payload cannot be decoded."""


@dataclass
class CapabilityVector:
    """A worker's advertised resources plus its position at announce time."""

    cpu: float
    memory: float
    disk: float
    energy: float
    position: Position

    def resource(self, metric: str) -> float:
        return {"cpu": self.cpu, "memory": self.memory,
                "disk": self.disk, "energy": self.energy}[metric]


@dataclass(frozen=True)
class ServiceOffer:
    worker: NodeAddress
    service_name: str
    param_count: int
    capabilities: "CapabilityVector"
    issued_at: float


@dataclass
class OfferRecord:
    offer: ServiceOffer
    received_at: float


def encode_offers(worker: NodeAddress, issued_at: float, caps: CapabilityVector,
                  services: list[tuple[str, int]]) -> bytes:
    """Fixed-width wire layout: 64 byte header + 32 bytes per offered service."""
    parts = [_HEADER.pack(worker, issued_at, caps.cpu, caps.memory, caps.disk,
                          caps.energy, caps.position[0], caps.position[1])]
    for name, param_count in services:
        raw = name.encode("utf-8")
        if len(raw) > SERVICE_NAME_BYTES:
            raise ValueError(f"service name too long for wire format: {name!r}")
        parts.append(_RECORD.pack(raw, param_count, 0))
    return b"".join(parts)


def decode_offers(payload: bytes) -> list[ServiceOffer]:
    if not isinstance(payload, (bytes, bytearray)):
        raise OfferCodecError("offer payload is not a byte sequence")
    if len(payload) < OFFER_HEADER_BYTES:
        raise OfferCodecError(f"offer payload truncated: {len(payload)} bytes")
    if (len(payload) - OFFER_HEADER_BYTES) % OFFER_RECORD_BYTES != 0:
        raise OfferCodecError(f"offer payload has trailing bytes: {len(payload)}")
    worker, issued_at, cpu, memory, disk, energy, x, y = _HEADER.unpack_from(payload, 0)
    caps = CapabilityVector(cpu=cpu, memory=memory, disk=disk, energy=energy, position=(x, y))
    offers = []
    for off in range(OFFER_HEADER_BYTES, len(payload), OFFER_RECORD_BYTES):
        raw_name, param_count, _ = _RECORD.unpack_from(payload, off)
        try:
            name = raw_name.rstrip(b"\x00").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise OfferCodecError(f"undecodable service name at offset {off}") from exc
        if not name:
            raise OfferCodecError(f"empty service name at offset {off}")
        offers.append(ServiceOffer(worker=worker, service_name=name,
                                   param_count=param_count, capabilities=caps,
                                   issued_at=issued_at))
    return offers


def build_offer_bundle(bundle_id: BundleId, worker: NodeAddress, issued_at: float,
                       caps: CapabilityVector, services: list[tuple[str, int]],
                       expiry_s: float = DEFAULT_OFFER_EXPIRY_S) -> Bundle:
    """One broadcast bundle per announcement round."""
    payload = encode_offers(worker, issued_at, caps, services)
    return Bundle(bundle_id=bundle_id, source=worker, destination=BROADCAST,
                  kind=BundleKind.OFFER, payload=payload, size_bytes=len(payload),
                  created_at=issued_at, ttl_seconds=expiry_s)


class OfferMemo:
    """Decoded offers by payload bytes, shared by the nodes of one run.

    Entries leave in arrival order, at the first miss after their bundle
    has expired. The source decodes its own offer when it issues it and a
    run's offers share one TTL, so that order is expiry order; every bundle
    carrying one payload is a copy of one announce, so the entry outlives
    none of them. A copy is delivered only while it is live, so a payload
    the memo holds on arrival is one that decoding again would return as
    is. Every reader of a payload gets the same offer objects, so nothing
    may edit a decoded offer.
    """

    def __init__(self) -> None:
        self._offers: dict[bytes, list[ServiceOffer]] = {}
        self._arrivals: deque[tuple[float, bytes]] = deque()

    def __len__(self) -> int:
        return len(self._offers)

    def decode(self, bundle: Bundle, now: float) -> list[ServiceOffer]:
        """The bundle's offers, held or decoded; OfferCodecError if malformed."""
        payload = bundle.payload
        if type(payload) is not bytes:
            raise OfferCodecError("offer payload is not bytes")
        offers = self._offers.get(payload)
        if offers is not None:
            return offers
        arrivals = self._arrivals
        while arrivals and arrivals[0][0] < now:
            del self._offers[arrivals.popleft()[1]]
        offers = self._offers[payload] = decode_offers(payload)
        arrivals.append((bundle.expires_at, payload))
        return offers

    def offers(self, payload: object) -> Optional[list[ServiceOffer]]:
        """The memoised offers of a payload; None if it never decoded."""
        return self._offers.get(payload) if type(payload) is bytes else None


class OfferDatabase:
    """A node's view of who offers what, read from the live offer bundles of its store.

    Nothing is kept between lookups: each one folds the store's live offer
    bundles in arrival order, with the offers the run's memo decoded when
    each bundle arrived.
    """

    def __init__(self, store: BundleStore, memo: OfferMemo) -> None:
        self.store = store
        self.memo = memo

    def ingest(self, offers: list[ServiceOffer], received_at: float,
               records: dict[tuple[NodeAddress, str],
                             tuple[float, ServiceOffer, float]]) -> int:
        """Fold offers into records; a newer issue wins, on a tie the first arrival stays.

        Each (worker, service) key holds a plain (issued_at, offer, received_at)
        tuple. Returns how many offers replaced or added a record.
        """
        applied = 0
        for offer in offers:
            key = (offer.worker, offer.service_name)
            record = records.get(key)
            if record is None or record[0] < offer.issued_at:
                records[key] = (offer.issued_at, offer, received_at)
                applied += 1
        return applied

    def lookup(self, service_name: str, now: float) -> list[OfferRecord]:
        """Fresh offers for one service, sorted by worker address."""
        records: dict[tuple[NodeAddress, str], tuple[float, ServiceOffer, float]] = {}
        memoised, arrived_at = self.memo.offers, self.store.arrived_at
        for bundle in self.store.live(now):
            if bundle.kind is BundleKind.OFFER:
                offers = memoised(bundle.payload)
                # a payload the memo lacks is malformed; its arrival was counted
                if offers is not None:
                    self.ingest(offers, arrived_at[bundle.bundle_id], records)
        # one key per worker for a service, so the sort compares workers only
        fresh = sorted((worker, offer, received_at)
                       for (worker, name), (_, offer, received_at) in records.items()
                       if name == service_name)
        return [OfferRecord(offer=offer, received_at=received_at)
                for _, offer, received_at in fresh]
