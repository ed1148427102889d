"""Shadow-feature selection tests on planted-signal data."""

import numpy as np
import pytest

from conftest import encoded_dataset

from ganids import boruta, gbdt


def planted_dataset(seed=0, n=200):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    x = np.column_stack([y.astype(np.float64),       # exact label copy
                         rng.random(n)])             # pure noise
    ds = encoded_dataset(x, y, ["neg", "pos"])
    ds.feature_names = ["signal", "noise"]
    return ds


SMALL_BOOST = gbdt.BoostParams(rounds=5, max_depth=3, min_leaf=5,
                               goss_a=1.0, goss_b=0.0)


def test_planted_signal_accepted_noise_rejected():
    decision = boruta.boruta_select(planted_dataset(), rounds=20, alpha=0.05,
                                    boost_params=SMALL_BOOST, seed=1)
    assert decision.status["signal"] == "accepted"
    assert decision.status["noise"] == "rejected"
    assert decision.hits["signal"] > decision.hits["noise"]


def test_zero_rounds_all_tentative():
    decision = boruta.boruta_select(planted_dataset(), rounds=0, alpha=0.05,
                                    boost_params=SMALL_BOOST)
    assert set(decision.status.values()) == {"tentative"}
    assert decision.hits == {"signal": 0, "noise": 0}


def test_shadow_columns_absent_from_output():
    decision = boruta.boruta_select(planted_dataset(), rounds=3, alpha=0.05,
                                    boost_params=SMALL_BOOST)
    assert sorted(decision.status) == ["noise", "signal"]
    assert not any(name.startswith("shadow") for name in decision.status)


def test_statuses_partition_features():
    decision = boruta.boruta_select(planted_dataset(), rounds=10, alpha=0.05,
                                    boost_params=SMALL_BOOST)
    assert set(decision.status) == {"signal", "noise"}
    assert set(decision.status.values()) \
        <= {"accepted", "rejected", "tentative"}
    assert all(h <= decision.rounds for h in decision.hits.values())


def test_decision_reproducible():
    a = boruta.boruta_select(planted_dataset(), 8, 0.05, SMALL_BOOST, seed=7)
    b = boruta.boruta_select(planted_dataset(), 8, 0.05, SMALL_BOOST, seed=7)
    assert a == b


def test_planted_signal_robust_across_seeds():
    wins = 0
    for seed in range(20):
        decision = boruta.boruta_select(planted_dataset(seed), rounds=12,
                                        alpha=0.05, boost_params=SMALL_BOOST,
                                        seed=seed)
        wins += decision.status["signal"] == "accepted"
    assert wins >= 19  # >= 95% of repetitions


def test_alpha_validation():
    with pytest.raises(ValueError):
        boruta.boruta_select(planted_dataset(), 5, 1.5, SMALL_BOOST)


def test_empty_dataset_rejected():
    ds = planted_dataset().select(np.zeros(0, dtype=np.int64))
    with pytest.raises(boruta.EmptyDataset):
        boruta.boruta_select(ds, 5, 0.05, SMALL_BOOST)
