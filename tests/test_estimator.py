import math

import numpy as np
import pytest

from reverb import dynamics as dyn
from reverb import estimator as est
from reverb.errors import InputError, NumericalError

import oracles
from oracles import accuracy_vector, joseph_update, linear_model


def test_predict_identity_keeps_covariance():
    model = linear_model(np.eye(2))
    belief = est.Belief(np.zeros(2), np.diag([0.3, 0.04]))
    out = est.predict(belief, 0.0, model)
    assert np.allclose(out.cov, belief.cov)


def test_predict_scalar_linear_case():
    # a diagonal linear model keeps the features apart: each is the scalar case a^2 p + c_u
    a, c_u = 0.7, 0.01
    model = linear_model([[a, 0.0], [0.0, 1.0]], [[c_u, 0.0], [0.0, 0.0]])
    out = est.predict(est.Belief(np.array([1.0, 0.0]), np.diag([0.5, 0.2])), 0.0, model)
    assert out.cov[0][0] == pytest.approx(a * a * 0.5 + c_u, abs=1e-15)
    assert out.cov[1][1] == 0.2 and out.cov[0][1] == out.cov[1][0] == 0.0


def test_belief_is_two_dimensional():
    for n in (1, 3):
        with pytest.raises(InputError, match="2-vector mean with a 2x2 covariance"):
            est.Belief(np.zeros(n), np.eye(n))
    with pytest.raises(InputError, match="2x2 covariance"):
        est.Belief(np.zeros(2), np.eye(3))


def test_blind_prediction_matches_scalar_oracle():
    # five blind mountain-car steps, covariance propagated entry by entry
    model = dyn.plant((1e-6, 1e-6))
    belief = est.Belief(np.array([-0.5, 0.0]), np.diag([1e-4, 1e-4]))
    # independent scalar-by-scalar propagation: P <- J P J^T + Q unrolled
    mean = belief.mean
    p11, p12, p22 = 1e-4, 0.0, 1e-4
    for _ in range(5):
        g = 3 * 0.0025 * np.sin(3 * mean[0])
        j11, j12, j21, j22 = 1 + g, 1.0, g, 1.0
        q11 = j11 * p11 + j12 * p12
        q12 = j11 * p12 + j12 * p22
        q21 = j21 * p11 + j22 * p12
        q22 = j21 * p12 + j22 * p22
        p11 = q11 * j11 + q12 * j12 + 1e-6
        p12 = q11 * j21 + q12 * j22
        p22 = q21 * j21 + q22 * j22 + 1e-6
        mean = model.update(mean, 0.0)
        belief = est.predict(belief, 0.0, model)
    assert np.allclose(belief.cov, [[p11, p12], [p12, p22]], atol=1e-12)
    assert np.allclose(belief.mean, mean)


def test_belief_checks_its_mean_and_covariance_and_keeps_float_tuples():
    eye = ((1.0, 0.0), (0.0, 1.0))
    for mean in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(InputError, match="mean must be finite"):
            est.Belief(mean, eye)
    for cov in (((1.0, 0.5), (0.0, 1.0)), ((1.0, 0.0), (1e-9, 1.0)), ((1.0, math.nan), (math.nan, 1.0))):
        with pytest.raises(NumericalError, match="symmetry"):
            est.Belief((0.0, 0.0), cov)
    for cov in (((1.0, 2.0), (2.0, 1.0)), ((-1e-6, 0.0), (0.0, 1.0)), ((math.nan, 0.0), (0.0, 1.0))):
        with pytest.raises(NumericalError, match="semidefiniteness"):
            est.Belief((0.0, 0.0), cov)
    for mean, cov in (((0.0,), eye), ((0.0, 0.0, 0.0), eye), ((0.0, 0.0), ((1.0, 0.0),)), (None, eye)):
        with pytest.raises(InputError, match="2x2 covariance"):
            est.Belief(mean, cov)
    belief = est.Belief([0.5, -0.25], [[2.0, 0.5], [0.5, 1.0]])
    assert belief.mean == (0.5, -0.25) and belief.cov == ((2.0, 0.5), (0.5, 1.0))


def test_predict_is_bit_equal_to_einsum_oracle():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(2000):
        jac = rng.uniform(-2.0, 2.0, (2, 2))
        q = rng.uniform(-1e-3, 1e-3, (2, 2))
        q = q @ q.T
        a = rng.uniform(-1.0, 1.0, (2, 2))
        p = a @ a.T + np.diag(rng.uniform(1e-6, 1.0, 2))
        out = np.array(est.predict(est.Belief(np.zeros(2), p), 0.0, linear_model(jac, q)).cov)
        c = np.einsum("ik,lk->il", np.einsum("ij,jk->ik", jac, p), jac) + q
        assert out.tobytes() == (0.5 * (c + c.T)).tobytes()
        m = jac @ p @ jac.T + q
        worst = max(worst, float(np.max(np.abs(out - 0.5 * (m + m.T))) / np.max(np.abs(m))))
    assert worst <= 1e-15


def test_predict_keeps_the_mountain_car_mean_and_checks():
    car = dyn.plant((1e-6, 1e-6))
    belief = est.Belief(np.array([-0.5, 0.01]), np.diag([1e-4, 2e-4]))
    out = est.predict(belief, 0.3, car)
    assert np.array(out.mean).tobytes() == np.array(car.update(belief.mean, 0.3)).tobytes()
    indefinite = est.Belief.__new__(est.Belief)
    indefinite.mean, indefinite.cov = (0.0, 0.0), ((-1.0, 0.0), (0.0, 1.0))
    with pytest.raises(NumericalError, match="semidefiniteness"):
        est.predict(indefinite, 0.0, dyn.plant((0.0, 0.0)))


def test_fuse_equal_variances_halve():
    prior = est.Belief(np.array([0.0, 0.0]), np.diag([1.0, 1.0]))
    batch = est.FusionBatch(np.array([[1.0, 0.0]]), np.array([[1.0]]), np.array([2.0]))
    out = est.fuse(prior, batch)
    assert out.cov[0][0] == pytest.approx(0.5, abs=1e-12)
    assert out.mean[0] == pytest.approx(1.0, abs=1e-12)
    # the unobserved, uncorrelated feature keeps its prior
    assert out.cov[1][1] == pytest.approx(1.0, abs=1e-12) and out.mean[1] == 0.0


def test_fuse_exact_sensor_dominates():
    prior = est.Belief(np.array([1.0, -1.0]), np.diag([0.5, 0.5]))
    obs = np.array([0.2, 0.3])
    batch = est.FusionBatch(np.eye(2), 1e-14 * np.eye(2), obs)
    out = est.fuse(prior, batch)
    assert np.all(np.diag(out.cov) < 1e-10)
    assert np.allclose(out.mean, obs, atol=1e-10)


def test_fuse_matches_textbook_oracle():
    # the batch Joseph oracle, on general observation matrices, against the textbook update
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = rng.standard_normal((2, 2))
        prior_cov = a @ a.T + 0.1 * np.eye(2)
        mean = rng.standard_normal(2)
        h = rng.standard_normal((2, 2))
        r = np.diag(rng.uniform(0.01, 0.4, 2))
        o = rng.standard_normal(2)
        # straight-line textbook update with an explicit inverse
        s_mat = r + h @ prior_cov @ h.T
        gain = prior_cov @ h.T @ np.linalg.inv(s_mat)
        want_cov = (np.eye(2) - gain @ h) @ prior_cov
        want_mean = mean + gain @ (o - h @ mean)
        got_gain, got_cov = joseph_update(prior_cov, h, r)
        got_mean = mean + got_gain @ (o - h @ mean)
        assert np.max(np.abs(got_cov - want_cov)) < 1e-10
        assert np.max(np.abs(got_mean - want_mean)) < 1e-10


@pytest.mark.parametrize(
    "obs_matrix, noise_cov, values, fragment",
    [
        ([[0.5, 0.5]], [[1e-3]], [0.1], "must select one feature"),
        ([[1.0, 1.0]], [[1e-3]], [0.1], "must select one feature"),
        ([[1.0, 0.0], [0.0, 1.0]], [[1e-3, 1e-5], [1e-5, 1e-3]], [0.1, 0.0], "must be diagonal"),
        ([[1.0, 0.0], [0.0, 1.0]], [[1e-3, 0.0], [0.0, 1e-3]], [0.1], "dimensions do not match"),
    ],
    ids=["non-selector-row", "row-with-two-ones", "off-diagonal-noise", "row-count-not-values"],
)
def test_fuse_rejects_what_is_not_independent_selector_readings(obs_matrix, noise_cov, values, fragment):
    prior = est.Belief(np.zeros(2), np.eye(2))
    batch = est.FusionBatch(np.array(obs_matrix), np.array(noise_cov), np.array(values))
    with pytest.raises(InputError, match=fragment):
        est.fuse(prior, batch)


def test_fusion_never_inflates_diagonal():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = rng.standard_normal((2, 2))
        prior_cov = a @ a.T + 0.05 * np.eye(2)
        h = np.zeros((1, 2))
        h[0, rng.integers(2)] = 1.0
        batch = est.FusionBatch(h, [[rng.uniform(1e-4, 1e-2)]], np.array([0.0]))
        out = est.fuse(est.Belief(np.zeros(2), prior_cov), batch)
        assert np.all(np.diag(out.cov) <= np.diag(prior_cov) + 1e-12)


def test_symmetry_preserved_through_operations():
    model = dyn.plant((1e-6, 1e-6))
    belief = est.Belief(np.array([-0.4, 0.01]), np.diag([1e-3, 1e-4]))
    for _ in range(10):
        belief = est.predict(belief, 0.3, model)
        batch = est.FusionBatch(np.array([[1.0, 0.0]]), [[1e-3]], np.array([belief.mean[0]]))
        belief = est.fuse(belief, batch)
        cov = np.array(belief.cov)
        assert np.max(np.abs(cov - cov.T)) < 1e-10


def test_linear_system_matches_standard_kf():
    # constant-Jacobian model: the EKF must reproduce a textbook KF exactly
    a_mat = np.array([[0.95, 0.1], [0.0, 0.9]])
    q = np.diag([1e-5, 2e-5])
    h = np.array([[1.0, 0.0]])
    r = np.array([[1e-2]])
    model = linear_model(a_mat, q)
    rng = np.random.default_rng(8)
    belief = est.Belief(np.array([0.5, -0.2]), np.diag([0.1, 0.1]))
    kf_mean, kf_cov = np.array(belief.mean), np.array(belief.cov)
    for _ in range(100):
        obs = np.array([rng.normal()])
        belief = est.predict(belief, 0.0, model)
        belief = est.fuse(belief, est.FusionBatch(h, r, obs))
        kf_mean = a_mat @ kf_mean
        kf_cov = a_mat @ kf_cov @ a_mat.T + q
        s_mat = h @ kf_cov @ h.T + r
        gain = kf_cov @ h.T @ np.linalg.inv(s_mat)
        kf_mean = kf_mean + (gain @ (obs - h @ kf_mean)).ravel()
        kf_cov = (np.eye(2) - gain @ h) @ kf_cov
        assert np.max(np.abs(belief.mean - kf_mean)) < 1e-9
        assert np.max(np.abs(belief.cov - kf_cov)) < 1e-9


def test_refusing_same_batch_strictly_shrinks():
    prior = est.Belief(np.zeros(2), np.diag([0.02, 0.01]))
    batch = est.FusionBatch(np.array([[1.0, 0.0]]), [[5e-3]], np.array([0.1]))
    once = est.fuse(prior, batch)
    twice = est.fuse(once, batch)
    assert twice.cov[0][0] < once.cov[0][0] < prior.cov[0][0]


def test_accuracy_vector_values():
    belief = est.Belief(np.zeros(2), np.diag([0.01, 0.002]))
    assert np.allclose(accuracy_vector(belief), [100.0, 500.0])
    eye = est.Belief(np.zeros(2), np.eye(2))
    assert np.allclose(accuracy_vector(eye), [1.0, 1.0])


def test_accuracy_vector_roundtrip_and_errors():
    belief = est.Belief(np.zeros(2), np.diag([0.037, 0.0021]))
    eta = accuracy_vector(belief)
    assert np.allclose(eta * np.diag(belief.cov), 1.0)
    bad = est.Belief(np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(NumericalError):
        accuracy_vector(bad)


def test_meets_targets_cases():
    ok, viol = oracles.meets_targets(est.Belief(np.zeros(2), np.diag([0.005, 0.001])), [0.01, 0.002])
    assert ok and viol == ()
    ok, viol = oracles.meets_targets(est.Belief(np.zeros(2), np.diag([0.02, 0.001])), [0.01, 0.002])
    assert not ok and viol == (0,)
    # boundary equality is inclusive
    ok, _ = oracles.meets_targets(est.Belief(np.zeros(2), np.diag([0.01, 0.002])), [0.01, 0.002])
    assert ok


def test_singular_innovation_raises():
    prior = est.Belief(np.zeros(2), np.diag([1.0, 1.0]))
    batch = est.FusionBatch(np.array([[1.0, 0.0]]), np.array([[-2.0]]), np.array([0.0]))
    with pytest.raises(NumericalError):
        est.fuse(prior, batch)


def test_init_belief_statistics():
    rng = np.random.default_rng(21)
    s = np.array([-0.5, 0.0])
    draws = np.array([est.init_belief(s, rng, 1e-4).mean - s for _ in range(20000)])
    assert abs(draws.mean()) < 4.0 * 1e-2 / np.sqrt(draws.size)
    belief = est.init_belief(s, rng, 1e-4)
    assert np.allclose(belief.cov, 1e-4 * np.eye(2))
