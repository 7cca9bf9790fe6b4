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

An offer bundle carries its offers (`Bundle.decoded`) from where it is
built: `build_offer_bundle` encodes them, which checks them and sizes the
payload, and keeps the very offers `decode_offers` would read back from
that payload, since the encoder writes only payloads that decode to its
inputs. Every store holding a copy holds the same bundle object, so no
receiver and no lookup decodes it, and the offers are freed with the
bundle. A bundle built any other way is decoded by `offers_of` when a copy
first arrives, and keeps what it decoded. Nothing may edit a decoded offer.
No other module relies on a payload being bytes. A malformed payload keeps
nothing, so each arrival of one is counted, and a lookup passes over it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .bundles import (BROADCAST, Bundle, BundleId, BundleKind, BundleStore,
                      NodeAddress)
from .simnet import Position
from .workflow import RESOURCE_METRICS

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
        return getattr(self, metric)

    def unmet(self, requirements: dict[str, float]) -> list[str]:
        """The required resource metrics this vector falls short of, in requirement order."""
        return [metric for metric, required in requirements.items()
                if metric in RESOURCE_METRICS and getattr(self, metric) < required]


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
    """Fixed-width wire layout: 64 byte header + 32 bytes per offered service.

    Writes only payloads that decode back to its inputs: a service name that
    is empty, too long or ends in NUL, or a param count outside the record's
    field, is a ValueError.
    """
    parts = [_HEADER.pack(worker, issued_at, caps.cpu, caps.memory, caps.disk,
                          caps.energy, caps.position[0], caps.position[1])]
    for name, param_count in services:
        raw = name.encode("utf-8")
        # the decoder strips the NUL padding, so a name may not end in one
        if not raw or len(raw) > SERVICE_NAME_BYTES or raw.endswith(b"\x00"):
            raise ValueError(f"service name does not fit the wire format: {name!r}")
        if not 0 <= param_count <= MAX_PARAM_COUNT:
            raise ValueError(f"param count out of range for service {name!r}: {param_count}")
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
    """One broadcast bundle per announcement round, carrying its decoded offers.

    The offers are what `decode_offers` reads back from the payload: one
    snapshot of the capabilities, every number a float.
    """
    payload = encode_offers(worker, issued_at, caps, services)
    bundle = Bundle(bundle_id=bundle_id, source=worker, destination=BROADCAST,
                    kind=BundleKind.OFFER, payload=payload, size_bytes=len(payload),
                    created_at=issued_at, ttl_seconds=expiry_s)
    x, y = caps.position
    snapshot = CapabilityVector(cpu=float(caps.cpu), memory=float(caps.memory),
                                disk=float(caps.disk), energy=float(caps.energy),
                                position=(float(x), float(y)))
    issued_at = float(issued_at)
    object.__setattr__(bundle, "decoded", [
        ServiceOffer(worker=worker, service_name=name, param_count=param_count,
                     capabilities=snapshot, issued_at=issued_at)
        for name, param_count in services])
    return bundle


def offers_of(bundle: Bundle) -> list[ServiceOffer]:
    """The offer bundle's offers, decoded once if it was not built with them.

    Raises OfferCodecError if the payload is malformed.
    """
    offers = bundle.decoded
    if offers is not None:
        return offers
    payload = bundle.payload
    if type(payload) is not bytes:
        raise OfferCodecError("offer payload is not bytes")
    offers = decode_offers(payload)
    object.__setattr__(bundle, "decoded", offers)
    return offers


class OfferDatabase:
    """A node's view of who offers what, read from the live offer bundles of its store.

    Nothing is kept between lookups: each one folds the store's live offer
    bundles in arrival order, with the offers each bundle carries.
    """

    def __init__(self, store: BundleStore) -> None:
        self.store = store

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
        arrived_at = self.store.arrived_at
        for bundle in self.store.live(now):
            if bundle.kind is BundleKind.OFFER:
                offers = bundle.decoded
                # an undecoded offer bundle is malformed; its arrival was counted
                if offers is not None:
                    self.ingest(offers, arrived_at[bundle.bundle_id], records)
        # one key per worker for a service, so the sort compares workers only
        fresh = sorted((worker, offer, received_at)
                       for (worker, name), (_, offer, received_at) in records.items()
                       if name == service_name)
        return [OfferRecord(offer=offer, received_at=received_at)
                for _, offer, received_at in fresh]
