"""Seeded random seaweed types shared by the test modules."""

import math
import random

import pytest

from seaweeds.compositions import Composition, SeaweedType


def _random_composition(rng, n, mean):
    cuts = [i for i in range(1, n) if rng.random() * mean < 1] + [n]
    return Composition(tuple(b - a for a, b in zip([0] + cuts, cuts)))


def _seeded_pairs(seed, count, n_range, mean_range):
    """`count` types, n and the mean part each log-uniform in its range, both
    sides drawn at that mean: a mean of 1 gives parts of 1 only."""
    rng = random.Random(seed)
    (n_lo, n_hi), (m_lo, m_hi) = (map(math.log, r) for r in (n_range, mean_range))
    pairs = []
    for _ in range(count):
        n = round(math.exp(rng.uniform(n_lo, n_hi)))
        mean = math.exp(rng.uniform(m_lo, m_hi))
        pairs.append(SeaweedType(_random_composition(rng, n, mean),
                                 _random_composition(rng, n, mean)))
    return pairs


@pytest.fixture(scope="module")
def large_random_pairs():
    """60 types, n log-uniform in [8, 10^4], mean part in [1, 300]."""
    return _seeded_pairs(1012, 60, (8, 10**4), (1, 300))


@pytest.fixture
def seeded_pairs():
    """_seeded_pairs(seed, count, n_range, mean_range): many-part types are
    drawn with a mean part of 1 to 3."""
    return _seeded_pairs
