"""Worker rating and the four selection strategies.

Selection reads a lookup's offer records: per worker, the capability
snapshot of its winning announcement and the time that bundle arrived. A
worker's score for a task sums, over the task's required resource metrics,
the weighted ratio of advertised capability to requirement (capped so one
huge resource cannot buy an arbitrary advantage), plus a weighted proximity
term derived from the distance to the worker's announced position. Selection
then picks from the ranked list: the best worker, a folded-normal index into
the ranking (spread), a uniformly random capable worker, or the worker whose
offer arrived last.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Callable, Optional

from .announce import CapabilityVector, OfferRecord
from .bundles import NodeAddress
from .simnet import Position, euclidean
from .workflow import RESOURCE_METRICS

DISTANCE_METRIC = "distance"

# weight layout: energy and closeness matter most, then compute, then storage
DEFAULT_WEIGHTS = {
    "energy": 0.30,
    "distance": 0.30,
    "cpu": 0.20,
    "memory": 0.10,
    "disk": 0.10,
}

_WEIGHT_SUM_TOL = 1e-9


class Strategy(Enum):
    RECENT = "recent"
    RANDOM = "random"
    BEST = "best"
    SPREAD = "spread"


class SelectionError(RuntimeError):
    """No capable worker is available for the task."""


def validate_weights(weights: dict[str, float]) -> dict[str, float]:
    unknown = sorted(set(weights) - set(RESOURCE_METRICS) - {DISTANCE_METRIC})
    if unknown:
        raise ValueError(f"unknown rating metrics: {unknown}")
    total = sum(weights.values())
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        raise ValueError(f"rating weights must sum to 1, got {total!r}")
    if any(w < 0 for w in weights.values()):
        raise ValueError("rating weights must be non-negative")
    return dict(weights)


def proximity(distance_m: float, reference_m: float) -> float:
    """Map a distance to (0, 1]; 1 at zero distance, 0.5 at the reference radius."""
    return 1.0 / (1.0 + distance_m / reference_m)


def rate(caps: CapabilityVector, requirements: dict[str, float],
         weights: dict[str, float], origin: Position,
         distance_fn: Callable[[Position, Position], float] = euclidean) -> float:
    """Score one advertised capability vector against one task's requirements.

    Metrics absent from the requirements are left out of the score entirely.
    """
    CAP_RATIO = 10.0
    score = 0.0
    for metric in RESOURCE_METRICS:
        required = requirements.get(metric)
        if required is None:
            continue
        ratio = getattr(caps, metric) / required
        score += weights.get(metric, 0.0) * min(ratio, CAP_RATIO)
    reference = requirements.get(DISTANCE_METRIC)
    if reference is not None:
        d = distance_fn(origin, caps.position)
        score += weights.get(DISTANCE_METRIC, 0.0) * proximity(d, reference)
    return score


def capability_filter(records: list[OfferRecord],
                      requirements: dict[str, float]) -> list[OfferRecord]:
    """Keep offers whose advertised resources meet every required metric."""
    return [rec for rec in records if not rec.capabilities.unmet(requirements)]


def rank(records: list[OfferRecord], requirements: dict[str, float],
         weights: dict[str, float], origin: Position,
         distance_fn: Callable[[Position, Position], float] = euclidean) -> list[OfferRecord]:
    """Order candidates by descending score, ties by ascending address."""
    return sorted(records, key=lambda rec: (
        -rate(rec.capabilities, requirements, weights, origin, distance_fn), rec.worker))


def folded_normal_index(n: int, rng: random.Random) -> int:
    """Index into a ranking of length n: floor of |N(0,1)|, clamped to the tail.

    `normalvariate` calls libm's `log`, whose last bit may differ between
    platforms. Only `int(|z|)` is used, so such a difference can change an
    index only where |z| lies within an ulp of an integer.
    """
    if n < 1:
        raise ValueError("ranking is empty")
    z = abs(rng.normalvariate(0.0, 1.0))
    return min(int(z), n - 1)


def select(strategy: Strategy, records: list[OfferRecord],
           requirements: dict[str, float], weights: dict[str, float],
           origin: Position, rng: random.Random,
           distance_fn: Callable[[Position, Position], float] = euclidean,
           exclude: Optional[set[NodeAddress]] = None) -> NodeAddress:
    """Pick a worker for one task; raises SelectionError when nobody qualifies.

    All strategies draw from the capability-filtered candidate set so the
    strategies stay comparable. Ties everywhere resolve by worker address.
    """
    if exclude:
        records = [rec for rec in records if rec.worker not in exclude]
    candidates = capability_filter(records, requirements)
    if not candidates:
        raise SelectionError("no capable worker offers the service")
    if strategy is Strategy.RECENT:
        return max(candidates, key=lambda rec: (rec.received_at, -rec.worker)).worker
    if strategy is Strategy.RANDOM:
        workers = sorted(rec.worker for rec in candidates)
        return workers[rng.randrange(len(workers))]
    ranked = rank(candidates, requirements, weights, origin, distance_fn)
    if strategy is Strategy.BEST:
        return ranked[0].worker
    if strategy is Strategy.SPREAD:
        return ranked[folded_normal_index(len(ranked), rng)].worker
    raise ValueError(f"unknown strategy {strategy!r}")
