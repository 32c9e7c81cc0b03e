import json

import numpy as np
import pytest

from algotune.mechanisms import (
    FiniteDistribution,
    ValuationProfile,
    build_nam_distribution,
    build_spa_distribution,
)


def test_spa_distribution_json():
    dist = build_spa_distribution([0.3, 0.9], threshold=1)
    payload = json.loads(dist.to_json())
    assert payload["probabilities"] == [0.5, 0.5]
    assert payload["support"][0] == {
        "kind": "single_bid",
        "agent": 0,
        "value": 0.3,
        "n_agents": 2,
    }


def test_nam_distribution_json():
    pairs = [(0.4, -0.1), (-0.2, 0.1)]
    dist = build_nam_distribution(pairs, n_profiles=2, rng=np.random.default_rng(0))
    payload = json.loads(dist.to_json())
    assert len(payload["support"]) == 2
    assert payload["support"][0]["kind"] == "two_bidder"
    assert payload["support"][0]["n_agents"] == 4


def test_dense_profile_json():
    dist = FiniteDistribution([ValuationProfile([[1.0, 0.0]])], np.array([1.0]))
    payload = json.loads(dist.to_json())
    assert payload["support"][0] == {"kind": "dense", "matrix": [[1.0, 0.0]]}


def test_empty_distributions_rejected():
    with pytest.raises(ValueError, match="nonempty support"):
        FiniteDistribution.uniform([])
    with pytest.raises(ValueError, match="n_profiles must be >= 1"):
        build_nam_distribution([(0.4, -0.1), (-0.2, 0.1)], n_profiles=0)
