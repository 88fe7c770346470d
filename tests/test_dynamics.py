import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reverb import dynamics as dyn
from reverb.errors import ConfigError, InputError

from oracles import (
    finite_difference_jacobian,
    linear_model,
    mountain_car_clamp,
    mountain_car_step,
    mountain_car_update,
    per_call_normals,
)


@pytest.fixture
def car():
    return dyn.plant((0.0, 0.0))


def test_fixed_point_without_force_or_drift():
    model = linear_model(np.eye(2))
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
    model = dyn.plant((1e-4, 1e-4))
    out = dyn.step(model, np.array([x, v]), a, per_call_normals(np.random.default_rng(7)))
    assert -1.2 <= out[0] <= 0.6
    assert -0.07 <= out[1] <= 0.07


def test_left_wall_resets_velocity(car):
    out = dyn.step(car, np.array([-1.2, -0.07]), -1.0, per_call_normals(np.random.default_rng(0)))
    assert out[0] == -1.2
    assert out[1] == 0.0


def test_noise_sample_mean_converges():
    var = (4e-6, 1e-6)
    model = dyn.plant(var)
    det = dyn.plant((0.0, 0.0))
    normals = per_call_normals(np.random.default_rng(5))
    s = (-0.5, 0.0)
    n = 100_000
    base = dyn.step(det, s, 0.0, normals)
    draws = np.array([dyn.step(model, s, 0.0, normals) for _ in range(n)]) - base
    for k, v in enumerate(var):
        assert abs(draws[:, k].mean()) < 4.0 * math.sqrt(v) / math.sqrt(n)


def counting_normals(values):
    """``normals`` handing out ``values``; ``.calls`` lists the count of each request."""

    def normals(n):
        normals.calls.append(n)
        return values[:n]

    normals.calls = []
    return normals


@pytest.mark.parametrize(
    "var",
    [(1e-6, 1e-6), (1e-6, 4e-6), (4e-6, 1e-6), (0.0, 1e-6), (1e-6, 0.0)],
    ids=["equal", "v0<v1", "v0>v1", "v0=0", "v1=0"],
)
def test_each_feature_takes_its_own_normal(var):
    """Position gets sqrt(v0) z0 and velocity sqrt(v1) z1, bit for bit, whatever the order of the variances.

    The plant's noise was once the PSD root of diag(v0, v1) from ``eigh``,
    times z, each entry summed in index order. For equal variances, every
    golden and benchmark config, that root is exactly diag(sqrt(v)), and
    x + (s z0 + 0.0 z1) is x + s z0, so those runs keep every byte. ``eigh``
    sorts the eigenvalues, so for v0 > v1 (and for v1 = 0) its root paired
    position with z1: runs of such configs changed when the root became
    diag(sqrt(v0), sqrt(v1)).
    """
    v0, v1 = var
    car = dyn.plant(var)
    assert car.process_noise_cov == ((v0, 0.0), (0.0, v1))
    rng = np.random.default_rng(8)
    for _ in range(20):
        s = (rng.uniform(-1.0, 0.4), rng.uniform(-0.05, 0.05))
        a = rng.uniform(-1.0, 1.0)
        z0, z1 = rng.standard_normal(2).tolist()
        normals = counting_normals([z0, z1])
        out = dyn.step(car, s, a, normals)
        x, v = car.update(s, a)
        want = car.clamp((x + math.sqrt(v0) * z0, v + math.sqrt(v1) * z1))
        assert normals.calls == [2]
        assert np.array(out).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_a_noiseless_plant_takes_no_normals(zero):
    car = dyn.plant((0.0, zero))
    assert car.noise_std is None
    assert math.copysign(1.0, car.process_noise_cov[1][1]) == math.copysign(1.0, zero)
    normals = counting_normals([0.5, -0.5])
    s, a = (-0.5, 0.01), 0.3
    assert np.array(dyn.step(car, s, a, normals)).tobytes() == np.array(car.update(s, a)).tobytes()
    assert normals.calls == []


def test_invalid_process_noise_rejected():
    for var in ((-1e-6, 1e-6), (1e-6, -1e-300), (math.nan, 0.0), (0.0, math.inf)):
        with pytest.raises(ConfigError, match="finite and nonnegative"):
            dyn.plant(var)


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
    assert_update_matches_oracle(dyn.plant((1e-6, 1e-6)), x, v, a)


@pytest.mark.parametrize(
    "x, v, a, want",
    [
        (0.5, 0.069, 1.0, (0.5 + 0.07, 0.07)),      # v' clipped at +VELOCITY_MAX
        (-0.5, -0.069, -1.0, (-0.5 - 0.07, -0.07)),  # v' clipped at -VELOCITY_MAX
        (-1.19, -0.05, -1.0, (-1.2, 0.0)),           # x' clamped to POSITION_MIN with v' < 0: the car stops
        (0.59, 0.06, 1.0, (0.6, None)),              # x' clamped to POSITION_MAX
        (-1.2, 0.0, 0.0, None),                      # x at each bound, v at each bound
        (0.6, 0.0, 0.0, None),
        (-0.5, 0.07, 0.0, None),
        (-0.5, -0.07, 0.0, None),
        (0.6, 0.07, 1.0, None),
        (-1.2, -0.07, -1.0, None),
        (-0.5, -0.0, 0.0, None),                     # v = -0.0
        (-1.2, -0.0, -1.0, None),
        (-1.2, -0.0, 0.0, None),
    ],
    ids=[
        "velocity-max", "velocity-min", "left-wall", "right-bound", "x-min", "x-max", "v-max", "v-min",
        "x-max-v-max", "x-min-v-min", "v-minus-zero", "x-min-v-minus-zero", "x-min-v-minus-zero-coast",
    ],
)
def test_update_clamp_branches(car, x, v, a, want):
    assert_update_matches_oracle(car, x, v, a)
    if want is not None:
        out = car.update((x, v), a)
        assert out[0] == want[0]
        if want[1] is not None:
            assert out[1] == want[1]


BOUND_EDGES_X = [-1.2, 0.6, -1.3, 0.7, 0.0, -0.0, -1, 0, 1, -2, math.nan, math.inf, -math.inf,
                 math.nextafter(-1.2, 0.0), math.nextafter(-1.2, -2.0)]
BOUND_EDGES_V = [-0.07, 0.07, -0.08, 0.08, 0.0, -0.0, 0, 1, -1, math.nan, math.inf, -math.inf,
                 math.nextafter(-0.07, 0.0), math.nextafter(0.07, 1.0)]


def test_clamp_returns_what_min_max_clips_return(car):
    """Each bound is two comparisons, ``if lo > x: x = lo`` then ``if hi < x: x = hi``.

    ``max(x, lo)`` returns ``x`` unless ``lo > x`` is true, and ``min(y, hi)``
    returns ``y`` unless ``hi < y`` is true, so the comparisons return what
    ``min(max(x, lo), hi)`` returns, object for object: a tie keeps ``x``
    (a -0.0 keeps its sign), a NaN fails both tests and passes through, and
    an int inside the bounds stays an int. ``update``, ``step``'s force clip
    and ``PolicyAgent.squash`` clip the same way; ``repr`` tells each of
    these cases apart.
    """
    for x in BOUND_EDGES_X:
        for v in BOUND_EDGES_V:
            assert repr(car.clamp((x, v))) == repr(tuple(mountain_car_clamp(x, v))), (x, v)


@pytest.mark.parametrize("a", [1.5, -1.5, 1.0, -1.0, -0.0, 0.25])
def test_step_clips_force_and_noisy_state_as_min_max_clips(a):
    """``step`` gives the bits of the ``min``/``max`` form, with noise that pushes the state past each bound."""
    car = dyn.plant((1e-4, 1e-4))
    std0, std1 = car.noise_std
    cases = [
        ((0.59, 0.05), (3.0, 8.0)),       # past POSITION_MAX and VELOCITY_MAX after the update's own clamp
        ((-1.19, -0.06), (-3.0, -8.0)),   # past POSITION_MIN with v < 0: the car stops again
        ((-0.5, 0.0), (200.0, -10.0)),    # from inside, past the right bound and -VELOCITY_MAX
        ((-0.5, 0.0), (-200.0, 10.0)),
        ((-0.5, 0.01), (0.1, -0.2)),      # inside every bound
    ]
    for (x, v), (z0, z1) in cases:
        out = dyn.step(car, (x, v), a, counting_normals([z0, z1]))
        want = mountain_car_step(x, v, a, (std0 * z0, std1 * z1))
        assert np.array(out).tobytes() == np.array(want).tobytes(), ((x, v), (z0, z1))
