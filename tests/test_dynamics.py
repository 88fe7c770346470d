import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reverb import dynamics as dyn
from reverb.errors import ConfigError, InputError

from oracles import finite_difference_jacobian, mountain_car_update, per_call_normals


@pytest.fixture
def car():
    return dyn.mountain_car_model(process_noise_var=(0.0, 0.0))


def identity_model(process_noise_cov=np.zeros((2, 2))):
    return dyn.DynamicsModel(
        update=lambda s, a: s,
        jacobian=lambda s: ((1.0, 0.0), (0.0, 1.0)),
        clamp=lambda s: s,
        process_noise_cov=process_noise_cov,
    )


def test_fixed_point_without_force_or_drift():
    model = identity_model()
    normals = per_call_normals(np.random.default_rng(0))
    s = (0.3, 0.0)
    assert dyn.step(model, s, 0.0, normals) == s


def test_step_matches_hand_evaluated_update(car):
    # v' = -0.0025 cos(-1.5), x' = -0.5 + v', evaluated once by hand.
    normals = per_call_normals(np.random.default_rng(0))
    out = dyn.step(car, np.array([-0.5, 0.0]), 0.0, normals)
    assert out[1] == pytest.approx(-0.00017684300416925727, abs=1e-18)
    assert out[0] == pytest.approx(-0.5001768430041692, abs=1e-15)


def test_full_throttle_crosses_goal(car):
    # 0.07 + 0.0015 - 0.0025 cos(1.32) > 0.07 clamps, position passes 0.45.
    normals = per_call_normals(np.random.default_rng(0))
    out = dyn.step(car, np.array([0.44, 0.07]), 1.0, normals)
    assert out[0] > 0.45
    assert out[1] == pytest.approx(0.07)


def test_step_rejects_nonfinite(car):
    normals = per_call_normals(np.random.default_rng(0))
    with pytest.raises(InputError):
        dyn.step(car, np.array([np.nan, 0.0]), 0.0, normals)
    with pytest.raises(InputError):
        dyn.step(car, np.array([0.0, 0.0]), math.inf, normals)


def test_jacobian_at_origin(car):
    assert np.allclose(car.jacobian(np.array([0.0, 0.0])), [[1.0, 1.0], [0.0, 1.0]])


def test_jacobian_gravity_slope_peak(car):
    # at x = pi/6, sin(3x) = 1, so dv'/dx = 3 * gravity
    jac = car.jacobian(np.array([math.pi / 6.0, 0.0]))
    assert jac[1][0] == pytest.approx(3 * 0.0025)
    assert jac[0][0] == pytest.approx(1 + 3 * 0.0025)


def test_jacobian_matches_finite_differences(car):
    rng = np.random.default_rng(42)
    for _ in range(100):
        s = np.array([rng.uniform(-1.1, 0.5), rng.uniform(-0.06, 0.06)])
        fd = finite_difference_jacobian(s)
        assert np.max(np.abs(car.jacobian(s) - fd)) < 1e-5


def test_deterministic_without_process_noise(car):
    s = np.array([-0.42, 0.013])
    a = 0.37
    out1 = dyn.step(car, s, a, per_call_normals(np.random.default_rng(1)))
    out2 = dyn.step(car, s, a, per_call_normals(np.random.default_rng(99)))
    assert np.array_equal(out1, out2)


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(-1.2, 0.6),
    v=st.floats(-0.07, 0.07),
    a=st.floats(-1.0, 1.0),
)
def test_outputs_always_clamped(x, v, a):
    model = dyn.mountain_car_model(process_noise_var=(1e-4, 1e-4))
    out = dyn.step(model, np.array([x, v]), a, per_call_normals(np.random.default_rng(7)))
    assert -1.2 <= out[0] <= 0.6
    assert -0.07 <= out[1] <= 0.07


def test_left_wall_resets_velocity(car):
    out = dyn.step(car, np.array([-1.2, -0.07]), -1.0, per_call_normals(np.random.default_rng(0)))
    assert out[0] == -1.2
    assert out[1] == 0.0


def test_noise_sample_mean_converges():
    var = (4e-6, 1e-6)
    model = dyn.mountain_car_model(process_noise_var=var)
    det = dyn.mountain_car_model(process_noise_var=(0.0, 0.0))
    normals = per_call_normals(np.random.default_rng(5))
    s = (-0.5, 0.0)
    n = 100_000
    base = dyn.step(det, s, 0.0, normals)
    draws = np.array([dyn.step(model, s, 0.0, normals) for _ in range(n)]) - base
    for k, v in enumerate(var):
        assert abs(draws[:, k].mean()) < 4.0 * math.sqrt(v) / math.sqrt(n)


def test_step_noise_is_the_float_matrix_vector_product():
    model = identity_model(np.array([[4e-6, 1e-6], [1e-6, 2e-6]]))
    s = (0.1, -0.2)
    rng, oracle_rng = np.random.default_rng(8), np.random.default_rng(8)
    out = np.array(dyn.step(model, s, 0.0, per_call_normals(rng)))
    z = oracle_rng.standard_normal(2)
    (a, b), (c, d) = model.noise_scale
    want = [0.1 + (a * z[0] + b * z[1]), -0.2 + (c * z[0] + d * z[1])]
    assert out.tobytes() == np.array(want).tobytes()
    assert np.max(np.abs(out - (s + np.array(model.noise_scale) @ z))) <= 1e-17
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_invalid_process_noise_rejected():
    with pytest.raises(ConfigError):
        dyn.mountain_car_model(process_noise_var=(-1e-6, 1e-6))


def test_model_is_built_once_per_noise_setting():
    a = dyn.mountain_car_model(process_noise_var=(3e-6, 1e-6))
    assert dyn.mountain_car_model(process_noise_var=[3e-6, np.float64(1e-6)]) is a
    assert a.process_noise_cov == ((3e-6, 0.0), (0.0, 1e-6))
    assert dyn.mountain_car_model(process_noise_var=(1e-6, 3e-6)) is not a
    zero, signed = (dyn.mountain_car_model(process_noise_var=(0.0, v)) for v in (0.0, -0.0))
    assert zero is not signed and math.copysign(1.0, signed.process_noise_cov[1][1]) == -1.0
    with pytest.raises(ConfigError):  # a rejected setting is rejected every time
        dyn.mountain_car_model(process_noise_var=(-1e-6, 1e-6))


def test_initial_state_in_start_range():
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = dyn.initial_state(rng)
        assert -0.6 <= s[0] <= -0.4
        assert s[1] == 0.0


def assert_update_matches_oracle(car, x, v, a):
    out = car.update((x, v), a)
    assert np.array(out).tobytes() == np.array(mountain_car_update(x, v, a)).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(-3.0, 3.0),
    v=st.floats(-0.5, 0.5),
    a=st.floats(-1.0, 1.0),
)
def test_update_is_bit_equal_to_the_oracle_inside_and_outside_the_bounds(x, v, a):
    assert_update_matches_oracle(dyn.mountain_car_model(process_noise_var=(1e-6, 1e-6)), x, v, a)


@pytest.mark.parametrize(
    "x, v, a, want",
    [
        (0.5, 0.069, 1.0, (0.5 + 0.07, 0.07)),      # v' clipped at +VELOCITY_MAX
        (-0.5, -0.069, -1.0, (-0.5 - 0.07, -0.07)),  # v' clipped at -VELOCITY_MAX
        (-1.19, -0.05, -1.0, (-1.2, 0.0)),           # x' clamped to POSITION_MIN with v' < 0: the car stops
        (0.59, 0.06, 1.0, (0.6, None)),              # x' clamped to POSITION_MAX
    ],
    ids=["velocity-max", "velocity-min", "left-wall", "right-bound"],
)
def test_update_clamp_branches(car, x, v, a, want):
    assert_update_matches_oracle(car, x, v, a)
    out = car.update((x, v), a)
    assert out[0] == want[0]
    if want[1] is not None:
        assert out[1] == want[1]
