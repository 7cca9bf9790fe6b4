"""Service offers: periodic capability announcements and the local offer view.

Every worker broadcasts one bundle per announcement round carrying its full
capability vector and one record per offered service. Receivers fold the
records into an offer database keyed by (worker, service); a newer announce
always wins, a delayed older one never overwrites, and of two announces
issued at the same time the first to arrive stays. Offers age out by their
issue time, not by arrival. Each key holds a plain (issued_at, offer,
received_at) tuple, so folding an offer builds no object; only lookup, which
runs when a task is assigned, builds the OfferRecords it returns.

Offers are read far less often than they arrive, so a received bundle is
only decoded and put in an inbox; lookup folds the inbox in arrival order
before it reads, which gives the view an eager fold would. An inbox entry
that is already stale when a later bundle arrives can never be seen, nor
keep a fresh offer out, so arrivals trim such entries off the inbox's head.

Decoding is pure, so one run decodes each offer payload once: the run's
offer databases share an OfferMemo keyed by payload bytes, which forgets a
payload once its bundle has expired and can no longer be delivered.
Malformed payloads are never memoised, so every receiver counts its drop.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .bundles import BROADCAST, Bundle, BundleId, BundleKind, NodeAddress
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
                       expiry_s: float = DEFAULT_OFFER_EXPIRY_S) -> Optional[Bundle]:
    """One broadcast bundle per announcement round; None if nothing is offered."""
    if not services:
        return None
    payload = encode_offers(worker, issued_at, caps, services)
    return Bundle(bundle_id=bundle_id, source=worker, destination=BROADCAST,
                  kind=BundleKind.OFFER, payload=payload, size_bytes=len(payload),
                  created_at=issued_at, ttl_seconds=expiry_s)


class OfferMemo:
    """Decoded offers by payload bytes, shared by the offer databases of one run.

    Entries leave in arrival order once their bundle has expired. The source
    decodes its own offer when it issues it and a run's offers share one TTL,
    so that order is expiry order. Every receiver of a payload gets the same
    offer objects, so nothing may edit a decoded offer.
    """

    def __init__(self) -> None:
        self._offers: dict[bytes, list[ServiceOffer]] = {}
        self._arrivals: deque[tuple[float, bytes]] = deque()

    def __len__(self) -> int:
        return len(self._offers)

    def decode(self, bundle: Bundle, now: float) -> list[ServiceOffer]:
        """The bundle's offers; raises OfferCodecError for a malformed payload."""
        arrivals = self._arrivals
        while arrivals and arrivals[0][0] < now:
            del self._offers[arrivals.popleft()[1]]
        payload = bundle.payload
        if type(payload) is not bytes:
            return decode_offers(payload)
        offers = self._offers.get(payload)
        if offers is None:
            offers = decode_offers(payload)
            self._offers[payload] = offers
            arrivals.append((bundle.expires_at, payload))
        return offers


class OfferDatabase:
    """A node's current view of who offers what, folded from received bundles.

    Each (worker, service) key holds a plain (issued_at, offer, received_at)
    tuple; lookup builds the OfferRecords it returns. Received bundles wait
    in an inbox of (issued_at, offers, received_at) until a read folds them.
    """

    def __init__(self, expiry_s: float = DEFAULT_OFFER_EXPIRY_S,
                 memo: Optional[OfferMemo] = None) -> None:
        self.expiry_s = expiry_s
        self.memo = OfferMemo() if memo is None else memo
        self._records: dict[tuple[NodeAddress, str],
                            tuple[float, ServiceOffer, float]] = {}
        self._inbox: deque[tuple[float, list[ServiceOffer], float]] = deque()
        self.malformed_dropped = 0

    def __len__(self) -> int:
        self._fold()
        return len(self._records)

    def ingest_bundle(self, bundle: Bundle, received_at: float) -> int:
        """Queue one offer bundle's offers for folding and return how many it carries.

        A malformed payload is dropped and counted, and queues nothing.
        """
        try:
            offers = self.memo.decode(bundle, received_at)
        except OfferCodecError:
            self.malformed_dropped += 1
            return 0
        if offers:
            # one payload carries one issue time
            issued_at = offers[0].issued_at
            inbox, expiry_s = self._inbox, self.expiry_s
            while inbox and received_at - inbox[0][0] > expiry_s:
                inbox.popleft()
            inbox.append((issued_at, offers, received_at))
        return len(offers)

    def ingest(self, offers: list[ServiceOffer], received_at: float) -> int:
        """Fold offers in at once; a newer issue wins, on a tie the first arrival stays.

        Bundles queued by ingest_bundle are not folded first, so one database
        takes its offers through one of the two.
        """
        records = self._records
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
        self._fold()
        expiry_s = self.expiry_s
        # one key per worker for a service, so the sort compares workers only
        fresh = sorted((worker, offer, received_at)
                       for (worker, name), (issued_at, offer, received_at)
                       in self._records.items()
                       if name == service_name and now - issued_at <= expiry_s)
        return [OfferRecord(offer=offer, received_at=received_at)
                for _, offer, received_at in fresh]

    def prune(self, now: float) -> int:
        """Drop the keys whose offer is stale at now, queued offers included."""
        self._fold()
        stale = [key for key, (issued_at, _, _) in self._records.items()
                 if now - issued_at > self.expiry_s]
        for key in stale:
            del self._records[key]
        return len(stale)

    def _fold(self) -> None:
        # apply the queued bundles in the order they arrived
        inbox = self._inbox
        if inbox:
            ingest = self.ingest
            for _, offers, received_at in inbox:
                ingest(offers, received_at)
            inbox.clear()
