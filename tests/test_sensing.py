import numpy as np
import pytest

from reverb import sensing
from reverb.errors import ConfigError


def test_two_agents_cover_both_features():
    fleet = sensing.generate_fleet(sensing.FleetConfig(n_agents=2), np.random.default_rng(0))
    assert [a.feature for a in fleet.agents] == [0, 1]
    assert fleet.feature_index == {0: (0,), 1: (1,)}


def test_round_robin_parity():
    fleet = sensing.generate_fleet(sensing.FleetConfig(n_agents=20), np.random.default_rng(0))
    assert len(fleet.agents_for(0)) == 10
    assert len(fleet.agents_for(1)) == 10


def test_generation_is_deterministic():
    cfg = sensing.FleetConfig(n_agents=20)
    a = sensing.generate_fleet(cfg, np.random.default_rng(123))
    b = sensing.generate_fleet(cfg, np.random.default_rng(123))
    for x, y in zip(a.agents, b.agents):
        assert x.distance_m == y.distance_m
        assert x.noise_var == y.noise_var


def test_too_few_agents_rejected():
    with pytest.raises(ConfigError):
        sensing.generate_fleet(sensing.FleetConfig(n_agents=1), np.random.default_rng(0))


def test_distances_within_range():
    cfg = sensing.FleetConfig(n_agents=40, max_distance_m=20.0)
    fleet = sensing.generate_fleet(cfg, np.random.default_rng(9))
    for a in fleet.agents:
        assert 0.0 < a.distance_m <= 20.0


def test_noise_variances_within_feature_ranges():
    cfg = sensing.FleetConfig(n_agents=30)
    fleet = sensing.generate_fleet(cfg, np.random.default_rng(4))
    for a in fleet.agents:
        lo, hi = cfg.noise_var_ranges[a.feature]
        assert lo <= a.noise_var <= hi


def test_observe_noiseless_limit():
    agent = sensing.SensingAgent(0, 0, 1e-30, distance_m=5.0, tx_power_w=0.02)
    obs = sensing.observe(agent, np.array([0.3, -0.01]), np.random.default_rng(0))
    assert abs(obs.values[0] - 0.3) < 1e-10


def test_observe_selector_row():
    agent = sensing.SensingAgent(0, 0, 1e-4, distance_m=5.0, tx_power_w=0.02)
    rng = np.random.default_rng(1)
    samples = np.array([sensing.observe(agent, np.array([0.3, -0.01]), rng).values[0] for _ in range(2000)])
    assert abs(samples.mean() - 0.3) < 4.0 * 1e-2 / np.sqrt(2000)


def test_residual_moments_match_noise_covariance():
    var = 2.5e-3
    agent = sensing.SensingAgent(0, 1, var, distance_m=5.0, tx_power_w=0.02)
    rng = np.random.default_rng(2)
    s = np.array([0.1, 0.02])
    res = np.array([sensing.observe(agent, s, rng).values[0] - 0.02 for _ in range(100_000)])
    assert abs(res.mean()) < 4.0 * np.sqrt(var) / np.sqrt(res.size)
    assert abs(res.var() - var) / var < 0.05


def test_feature_index_round_trips():
    fleet = sensing.generate_fleet(sensing.FleetConfig(n_agents=12), np.random.default_rng(8))
    assert sorted(fleet.feature_index) == [0, 1]
    for k, ids in fleet.feature_index.items():
        assert ids == tuple(a.agent_id for a in fleet.agents if a.feature == k)


@pytest.mark.parametrize(
    "feature, noise_var, fragment",
    [
        (2, 1e-4, "feature must be 0..1, got 2"),
        (-1, 1e-4, "feature must be 0..1, got -1"),
        (0.5, 1e-4, "feature must be 0..1, got 0.5"),
        (0, np.nan, "noise_var must be finite and strictly positive, got nan"),
        (0, 0.0, "noise_var must be finite and strictly positive, got 0.0"),
        (1, -1e-4, "noise_var must be finite and strictly positive, got -0.0001"),
    ],
    ids=["feature-2", "feature-negative", "feature-fraction", "nan-var", "zero-var", "negative-var"],
)
def test_non_selector_sensor_rejected(feature, noise_var, fragment):
    with pytest.raises(ConfigError, match=fragment):
        sensing.SensingAgent(0, feature, noise_var, distance_m=5.0, tx_power_w=0.02)
