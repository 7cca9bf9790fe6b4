"""Rating math and the four selection strategies against hand oracles."""

import math
import random

import pytest

from carryflow.announce import CapabilityVector, OfferRecord
from carryflow.assignment import (DEFAULT_WEIGHTS, SelectionError, Strategy,
                                  capability_filter, folded_normal_index,
                                  proximity, rank, rate, select,
                                  validate_weights)

ORIGIN = (0.0, 0.0)


def record(worker: int, *, cpu=4.0, memory=2048.0, disk=8192.0, energy=100.0,
           x=100.0, received_at=10.5) -> OfferRecord:
    caps = CapabilityVector(cpu=cpu, memory=memory, disk=disk, energy=energy,
                            position=(x, 0.0))
    return OfferRecord(worker, caps, received_at)


def test_validate_weights():
    assert validate_weights(DEFAULT_WEIGHTS) == DEFAULT_WEIGHTS
    with pytest.raises(ValueError, match="unknown"):
        validate_weights({"speed": 1.0})
    with pytest.raises(ValueError, match="sum to 1"):
        validate_weights({"cpu": 0.7})
    with pytest.raises(ValueError, match="non-negative"):
        validate_weights({"cpu": 1.5, "energy": -0.5})
    # a NaN sum passes the sum test, so the weight itself is refused
    for weights in ({"cpu": math.nan}, {"cpu": math.nan, "memory": 1.0}):
        with pytest.raises(ValueError, match="finite"):
            validate_weights(weights)


def test_proximity_endpoints():
    assert proximity(0.0, 100.0) == 1.0
    assert proximity(100.0, 100.0) == 0.5
    assert proximity(300.0, 100.0) == 0.25
    assert proximity(50.0, 100.0) > proximity(150.0, 100.0)


def test_rate_hand_computed():
    weights = {"cpu": 0.2, "memory": 0.1, "disk": 0.1, "energy": 0.3,
               "distance": 0.3}
    reqs = {"cpu": 2.0, "memory": 1024.0, "energy": 50.0, "distance": 100.0}
    rec = record(1, cpu=4.0, memory=2048.0, energy=100.0, x=100.0)
    # 0.2*2 + 0.1*2 + 0.3*2 + 0.3*(1/(1+1)); disk not required, so no term
    expected = 0.4 + 0.2 + 0.6 + 0.15
    assert rate(rec.capabilities, reqs, weights, ORIGIN) == pytest.approx(expected)


def test_rate_caps_huge_ratios():
    weights = {"cpu": 1.0}
    assert rate(record(1, cpu=1000.0).capabilities, {"cpu": 1.0}, weights, ORIGIN) == \
        pytest.approx(10.0)


def test_rate_without_requirements_is_zero():
    assert rate(record(1).capabilities, {}, DEFAULT_WEIGHTS, ORIGIN) == 0.0


def test_rank_orders_by_score_then_address():
    weights = {"cpu": 0.5, "distance": 0.5}
    reqs = {"cpu": 1.0, "distance": 100.0}
    near = record(5, cpu=2.0, x=50.0)
    far = record(2, cpu=2.0, x=400.0)
    twin = record(3, cpu=2.0, x=50.0)     # same score as worker 5
    ranked = rank([near, far, twin], reqs, weights, ORIGIN)
    assert [r.worker for r in ranked] == [3, 5, 2]
    assert rate(twin.capabilities, reqs, weights, ORIGIN) == rate(near.capabilities, reqs, weights, ORIGIN)


def test_capability_filter_ignores_distance():
    reqs = {"cpu": 2.0, "energy": 50.0, "distance": 1.0}
    weak = record(1, cpu=1.0)
    drained = record(2, energy=10.0)
    fit = record(3, x=900.0)              # far away but resource-capable
    assert [r.worker for r in capability_filter([weak, drained, fit],
                                                      reqs)] == [3]


def test_folded_normal_matches_gaussian_law():
    # P(index = k) = erf((k+1)/sqrt(2)) - erf(k/sqrt(2)) for an uncapped tail
    rng = random.Random(1234)
    n = 200_000
    counts = [0] * 10
    for _ in range(n):
        counts[folded_normal_index(10, rng)] += 1
    for k in range(3):
        expected = math.erf((k + 1) / math.sqrt(2)) - math.erf(k / math.sqrt(2))
        assert counts[k] / n == pytest.approx(expected, abs=0.01)


def test_folded_normal_clamps_to_tail():
    rng = random.Random(5)
    assert all(folded_normal_index(1, rng) == 0 for _ in range(100))
    assert all(folded_normal_index(3, rng) in (0, 1, 2) for _ in range(1000))
    with pytest.raises(ValueError):
        folded_normal_index(0, rng)


class RiggedNormal:
    """normalvariate returns scripted values, for deterministic spread picks."""

    def __init__(self, values):
        self._values = list(values)

    def normalvariate(self, mu=0.0, sigma=1.0):
        return self._values.pop(0)


REQS = {"cpu": 1.0, "distance": 100.0}
WEIGHTS = {"cpu": 0.5, "distance": 0.5}


def candidates():
    return [record(1, x=300.0, received_at=20.0),
            record(2, x=100.0, received_at=30.0),
            record(3, x=200.0, received_at=30.0)]


def test_select_best_takes_top_ranked():
    pick = select(Strategy.BEST, candidates(), REQS, WEIGHTS, ORIGIN,
                  random.Random(0))
    assert pick == 2


def test_select_recent_takes_last_arrival_ties_to_low_address():
    pick = select(Strategy.RECENT, candidates(), REQS, WEIGHTS, ORIGIN,
                  random.Random(0))
    assert pick == 2  # 30.0 arrival shared with 3, lower wins


def test_select_spread_indexes_ranking_by_folded_normal():
    # ranking is [2, 3, 1]; |N| = 1.4 lands on index 1
    pick = select(Strategy.SPREAD, candidates(), REQS, WEIGHTS, ORIGIN,
                  RiggedNormal([-1.4]))
    assert pick == 3
    pick = select(Strategy.SPREAD, candidates(), REQS, WEIGHTS, ORIGIN,
                  RiggedNormal([0.2]))
    assert pick == 2


def test_select_random_is_uniform_over_candidates():
    rng = random.Random(99)
    counts = {1: 0, 2: 0, 3: 0}
    for _ in range(3000):
        counts[select(Strategy.RANDOM, candidates(), REQS, WEIGHTS, ORIGIN,
                      rng)] += 1
    for worker in counts:
        assert counts[worker] / 3000 == pytest.approx(1 / 3, abs=0.04)


def test_select_applies_exclusion_and_filter():
    pick = select(Strategy.BEST, candidates(), REQS, WEIGHTS, ORIGIN,
                  random.Random(0), exclude={2})
    assert pick == 3
    with pytest.raises(SelectionError):
        select(Strategy.BEST, candidates(), REQS, WEIGHTS, ORIGIN,
               random.Random(0), exclude={1, 2, 3})
    with pytest.raises(SelectionError):
        select(Strategy.BEST, candidates(), {"cpu": 99.0}, WEIGHTS, ORIGIN,
               random.Random(0))
