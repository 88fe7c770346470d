import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reverb import sensing
from reverb.errors import ConfigError, InputError

import oracles


def test_two_agents_cover_both_features():
    fleet = sensing.generate_fleet(sensing.FleetConfig(n_agents=2), np.random.default_rng(0))
    assert [a.feature for a in fleet.agents] == [0, 1]
    assert fleet.feature_index == {0: (0,), 1: (1,)}


def test_round_robin_parity():
    fleet = sensing.generate_fleet(sensing.FleetConfig(n_agents=20), np.random.default_rng(0))
    assert len(fleet.feature_index[0]) == 10
    assert len(fleet.feature_index[1]) == 10


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


@pytest.mark.parametrize(
    "noise_var_ranges",
    [
        ((1e-3, 2e-2), (2e-4, 4e-3)),
        ((0.5, 0.5), (1e-9, 3e5)),
        ((1e-300, 1e300), (7.0, 7.000000000000001)),
    ],
)
def test_fleet_equals_one_scalar_draw_per_field(noise_var_ranges):
    """One ``rng.random(2n)`` gives every field of ``oracles.generate_fleet_scalar``, and its generator state."""
    for n_agents in (2, 3, 17, 60, 80):
        cfg = sensing.FleetConfig(n_agents=n_agents, max_distance_m=37.3, noise_var_ranges=noise_var_ranges)
        for seed in (0, 1, 29, 2**40 + 3):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sensing.generate_fleet(cfg, rng).agents
            want = oracles.generate_fleet_scalar(cfg, oracle_rng).agents
            assert len(got) == len(want) == n_agents
            for i, (a, b) in enumerate(zip(got, want)):
                assert (a.feature, a.tx_power_w) == (b.feature, b.tx_power_w)
                fields = ("noise_var", a.noise_var, b.noise_var), ("distance_m", a.distance_m, b.distance_m)
                for name, x, y in (*fields, ("noise_std", oracles.noise_std(a), oracles.noise_std(b))):
                    assert type(x) is float and x.hex() == y.hex(), (n_agents, seed, i, name)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


def one_sensor(feature, noise_var):
    agent = sensing.SensingAgent(feature, noise_var, distance_m=5.0, tx_power_w=0.02)
    return sensing.SensorFleet((agent,))


def test_observe_noiseless_limit():
    normals = oracles.per_call_normals(np.random.default_rng(0))
    obs = sensing.observe(one_sensor(0, 1e-30), [0], np.array([0.3, -0.01]), normals)
    assert abs(obs[0] - 0.3) < 1e-10


def test_observe_selector_row():
    normals = oracles.per_call_normals(np.random.default_rng(1))
    samples = np.array(sensing.observe(one_sensor(0, 1e-4), [0] * 2000, np.array([0.3, -0.01]), normals))
    assert abs(samples.mean() - 0.3) < 4.0 * 1e-2 / np.sqrt(2000)


def test_residual_moments_match_noise_covariance():
    var = 2.5e-3
    normals = oracles.per_call_normals(np.random.default_rng(2))
    s = np.array([0.1, 0.02])
    res = np.array(sensing.observe(one_sensor(1, var), [0] * 100_000, s, normals)) - 0.02
    assert abs(res.mean()) < 4.0 * np.sqrt(var) / np.sqrt(res.size)
    assert abs(res.var() - var) / var < 0.05


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("k", [0, 1])
def test_observe_rejects_non_finite_state(bad, k):
    """A non-finite entry, and a state that is not a pair (checked first, as ``dynamics.step`` does), take no normal."""
    state = [0.3, -0.01]
    state[k] = bad
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(InputError, match="state must be finite"):
        sensing.observe(one_sensor(0, 1e-4), [0], state, oracles.per_call_normals(rng))
    for not_a_pair in (state[k:k + 1], [*state, 0.0], [0.3, -0.01, bad], bad):
        with pytest.raises(InputError, match="state must be two finite numbers"):
            sensing.observe(one_sensor(0, 1e-4), [0], not_a_pair, oracles.per_call_normals(rng))
    assert rng.bit_generator.state == before


def test_feature_index_round_trips():
    fleet = sensing.generate_fleet(sensing.FleetConfig(n_agents=12), np.random.default_rng(8))
    assert sorted(fleet.feature_index) == [0, 1]
    for k, ids in fleet.feature_index.items():
        assert ids == tuple(i for i, a in enumerate(fleet.agents) if a.feature == k)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 1),
            st.floats(1e-12, 1e6, allow_nan=False),
            st.floats(1e-3, 1e3, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_fleet_id_indexed_tuples_equal_each_agents_fields(spec):
    """``features``, ``noise_vars`` and ``noise_stds`` hold, at index i, agent i's own fields."""
    fleet = sensing.SensorFleet(tuple(
        sensing.SensingAgent(k, r, distance_m=d, tx_power_w=0.02) for k, r, d in spec
    ))
    assert fleet.features == tuple(a.feature for a in fleet.agents)
    assert fleet.noise_vars == tuple(a.noise_var for a in fleet.agents)
    assert fleet.noise_stds == tuple(oracles.noise_std(a) for a in fleet.agents)


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
        sensing.SensingAgent(feature, noise_var, distance_m=5.0, tx_power_w=0.02)
