import math
from unittest import mock

import numpy as np
import pytest
from scipy import integrate, special

from reverb import channel as ch
from reverb.errors import ConfigError, DomainError, InfeasibleError

from oracles import gaussian_q, marcum_q1

TABLE = ch.ChannelParams()  # headline parameter set


def test_snr_unit_parameters():
    got = ch.snr(TABLE, tx_power_w=1.0, distance_m=1.0, bandwidth_hz=2.0, fading=1.0)
    assert got == pytest.approx(1.0 / (2.0 * TABLE.noise_psd))


def test_snr_inverse_square_distance():
    near = ch.snr(TABLE, 0.02, 5.0, 180e3, 1.0)
    far = ch.snr(TABLE, 0.02, 10.0, 180e3, 1.0)
    assert far == pytest.approx(near / 4.0)


def test_snr_headline_value():
    # 0.02 / (20^2 * 180e3 * N0) with N0 = 10^(-11.5/10-3)/20e6, by calculator
    got = ch.snr(TABLE, 0.02, 20.0, 180e3, 1.0)
    assert got == pytest.approx(78.47430803459753, rel=1e-12)


def test_fading_pure_los_limit():
    rng = np.random.default_rng(0)
    samples = ch.rician_fading_sample(1e9, rng, size=1000)
    assert np.max(np.abs(samples - 1.0)) < 1e-3


def test_fading_rayleigh_special_case():
    rng = np.random.default_rng(1)
    samples = ch.rician_fading_sample(0.0, rng, size=100_000)
    assert abs(samples.mean() - 1.0) < 4.0 / math.sqrt(samples.size)
    # exponential(1): variance equals 1
    assert abs(samples.var() - 1.0) < 0.05


def test_fading_unit_mean():
    rng = np.random.default_rng(2)
    samples = ch.rician_fading_sample(10.0, rng, size=100_000)
    # var of unit-mean Rician power = (1 + 2K) / (1 + K)^2
    sigma = math.sqrt((1 + 2 * 10.0) / (1 + 10.0) ** 2)
    assert abs(samples.mean() - 1.0) < 4.0 * sigma / math.sqrt(samples.size)


def test_marcum_zero_threshold():
    assert marcum_q1(1.7, 0.0) == 1.0


def test_marcum_central_case():
    for b in (0.3, 1.0, 2.5):
        assert marcum_q1(0.0, b) == pytest.approx(math.exp(-b * b / 2.0), rel=1e-12)


def test_marcum_matches_quadrature():
    # integrate the Rice density tail: Q1(a,b) = int_b^inf x e^{-(x^2+a^2)/2} I0(ax) dx
    a, b = 1.0, 2.0
    val, err = integrate.quad(
        lambda x: x * math.exp(-(x * x + a * a) / 2.0) * special.i0(a * x), b, 60.0
    )
    assert err < 1e-10
    assert marcum_q1(a, b) == pytest.approx(val, abs=1e-8)


def test_marcum_monotonicity_grid():
    a_grid = np.linspace(0.0, 4.0, 9)
    b_grid = np.linspace(0.1, 5.0, 11)
    for a in a_grid:
        vals = [marcum_q1(a, b) for b in b_grid]
        assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))  # decreasing in b
    for b in b_grid:
        vals = [marcum_q1(a, b) for a in a_grid]
        assert all(y >= x - 1e-15 for x, y in zip(vals, vals[1:]))  # increasing in a


def test_gaussian_q_inv_median():
    assert ch.gaussian_q_inv(0.5) == pytest.approx(0.0, abs=1e-14)


def test_gaussian_q_inv_round_trip():
    assert ch.gaussian_q_inv(gaussian_q(1.0)) == pytest.approx(1.0, rel=1e-12)
    for eps in (1e-6, 1e-4, 1e-2, 0.3):
        x = ch.gaussian_q_inv(eps)
        assert abs(gaussian_q(x) - eps) / eps < 1e-10


def test_gaussian_q_inv_matches_erfcinv():
    eps = np.concatenate([np.geomspace(1e-8, 0.5, 4000, endpoint=False), [1e-5, 1e-3, 0.1, 0.49]])
    for e in eps.tolist():
        want = math.sqrt(2.0) * float(special.erfcinv(2.0 * e))
        assert abs(ch.gaussian_q_inv(e) - want) <= 1e-14 * abs(want)
    assert ch.gaussian_q_inv(1e-5) == math.sqrt(2.0) * float(special.erfcinv(2e-5))


def test_gaussian_q_inv_tail_by_bisection():
    # bisection on Q as the independent oracle
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gaussian_q(mid) > 1e-5:
            lo = mid
        else:
            hi = mid
    got = ch.gaussian_q_inv(1e-5)
    assert 4.26 < got < 4.27
    assert got == pytest.approx(0.5 * (lo + hi), abs=1e-9)


def test_lambert_known_points():
    assert ch.lambert_w_lower(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-6)
    assert ch.lambert_w_lower(-2.0 * math.exp(-2.0)) == pytest.approx(-2.0, rel=1e-12)


def test_lambert_clips_to_the_branch_point_and_solves_near_zero():
    """Just below -1/e (inside the 1e-15 allowance) solves at -1/e itself; x near 0 converges."""
    branch = -math.exp(-1.0)
    assert ch.lambert_w_lower(math.nextafter(branch, -1.0)) == ch.lambert_w_lower(branch)
    for x in (-1e-13, -1e-300, -1e-310):
        w = ch.lambert_w_lower(x)
        assert w < -1.0 and abs(w * math.exp(w) - x) <= 1e-9 * abs(x)


def test_lambert_rejects_subnormals_it_cannot_solve():
    """Where e^w underflows, the iteration either divides by zero or stalls far from x; both are DomainErrors."""
    for x in (-5e-324, -1e-323, -3e-321, -4e-321, -1e-320, -1e-315):
        with pytest.raises(DomainError, match="^Halley iteration failed to converge for x="):
            ch.lambert_w_lower(x)
    # Still solved just above them, and decreasing as x nears 0.
    ws = [ch.lambert_w_lower(x) for x in (-1e-300, -1e-310, -1e-312)]
    assert ws == sorted(ws, reverse=True) and ws[-1] < -710.0


def test_lambert_identity_lower_branch():
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1.0 / math.e, -1e-6, size=1000)
    for x in xs:
        w = ch.lambert_w_lower(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


def test_lambert_matches_scipy():
    rng = np.random.default_rng(6)
    for x in rng.uniform(-1.0 / math.e + 1e-9, -1e-6, size=200):
        assert ch.lambert_w_lower(x) == pytest.approx(float(special.lambertw(x, -1).real), rel=1e-10)


def test_lambert_domain_errors():
    with pytest.raises(DomainError):
        ch.lambert_w_lower(-1.0)
    with pytest.raises(DomainError):
        ch.lambert_w_lower(0.5)


def test_fading_threshold_headline_value():
    # straight-line evaluation of the formula, frozen
    assert ch.outage_fading_threshold(10.0, 1e-5) == pytest.approx(0.567362115845647, rel=1e-12)


def test_fading_threshold_consistency_with_marcum():
    # the approximation hits the outage within 1.6% at eps=1e-3 but degrades
    # toward the LoS-domain boundary: 36% high at eps=1e-5, still inside the
    # [0.2 eps, 5 eps] fidelity band used for acceptance
    for eps, band in ((1e-3, (0.90, 1.10)), (1e-5, (0.2, 5.0))):
        y = ch.outage_fading_threshold(10.0, eps)
        outage = 1.0 - marcum_q1(math.sqrt(20.0), y)
        assert band[0] <= outage / eps <= band[1]


def test_fading_threshold_monotone_in_outage():
    assert ch.outage_fading_threshold(10.0, 1e-3) > ch.outage_fading_threshold(10.0, 1e-5)


def test_fading_threshold_requires_strong_los():
    with pytest.raises(DomainError):
        ch.outage_fading_threshold(2.0, 1e-5)


def test_bandwidth_substitution_identity():
    budget = ch.optimal_bandwidth(TABLE, 0.02, 20.0)
    ups = -TABLE.packet_bits * math.log(2.0) / (budget.bandwidth_hz * TABLE.max_latency_s)
    assert (1.0 - ups * budget.theta) * math.exp(ups) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("excess", [5e-8, 1e-6])
def test_bandwidth_just_above_theta_one_takes_lower_branch(excess):
    # theta scales as d^-alpha: place the link where theta - 1 = excess
    theta_1m = ch.optimal_bandwidth(TABLE, 0.02, 1.0).theta
    distance = (theta_1m / (1.0 + excess)) ** (1.0 / TABLE.path_loss_exp)
    budget = ch.optimal_bandwidth(TABLE, 0.02, distance)
    assert budget.theta - 1.0 == pytest.approx(excess, rel=1e-6)
    ups = -TABLE.packet_bits * math.log(2.0) / (budget.bandwidth_hz * TABLE.max_latency_s)
    # near theta = 1, (1 - ups theta) e^ups = 1 gives ups ~ -2 (theta - 1)
    assert ups == pytest.approx(-2.0 * (budget.theta - 1.0), rel=0.05)


@pytest.mark.parametrize("excess", [1e-8, 1e-10, 1e-12])
def test_bandwidth_root_accurate_near_theta_one(excess):
    # The Lambert-W form read Ups ~ -(Theta - 1) at 1e-8 and about 6,000x the root at 1e-12.
    theta_1m = ch.optimal_bandwidth(TABLE, 0.02, 1.0).theta
    distance = (theta_1m / (1.0 + excess)) ** (1.0 / TABLE.path_loss_exp)
    budget = ch.optimal_bandwidth(TABLE, 0.02, distance)
    delta = budget.theta - 1.0
    ups = -TABLE.packet_bits * math.log(2.0) / (budget.bandwidth_hz * TABLE.max_latency_s)
    assert ups == pytest.approx(-2.0 * delta + 4.0 * delta * delta / 3.0, rel=1e-6)


def bisect_bandwidth(params: ch.ChannelParams, tx_power_w: float, distance_m: float) -> float:
    """Independent sizing: bisection on W ln(1 + c/W) = D ln 2 / tau."""
    y = ch.outage_fading_threshold(params.rician_k, params.outage_target)
    c = (
        params.system_gain
        * tx_power_w
        * y
        * y
        / (2.0 * (1.0 + params.rician_k) * distance_m**params.path_loss_exp * params.noise_psd)
    )
    need = params.packet_bits * math.log(2.0) / params.max_latency_s
    f = lambda w: w * math.log1p(c / w) - need
    lo, hi = 1e-6, 1.0
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > 1e18:
            raise AssertionError("bisection found no feasible bandwidth")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_bandwidth_matches_bisection_at_headline_point():
    budget = ch.optimal_bandwidth(TABLE, 0.02, 20.0)
    want = bisect_bandwidth(TABLE, 0.02, 20.0)
    assert budget.bandwidth_hz == pytest.approx(want, rel=1e-6)


def test_bandwidth_monotone_in_power_and_distance():
    powers = [0.01, 0.02, 0.05, 0.1]  # all feasible at 10 m
    ws = [ch.optimal_bandwidth(TABLE, p, 10.0).bandwidth_hz for p in powers]
    assert all(a > b for a, b in zip(ws, ws[1:]))  # more power, less bandwidth
    dists = [2.0, 5.0, 10.0, 15.0, 20.0]
    ws = [ch.optimal_bandwidth(TABLE, 0.02, d).bandwidth_hz for d in dists]
    assert all(a < b for a, b in zip(ws, ws[1:]))  # longer range, more bandwidth


def test_prb_quantization_never_underallocates():
    rng = np.random.default_rng(10)
    for _ in range(100):
        budget = ch.optimal_bandwidth(TABLE, rng.uniform(0.005, 0.1), rng.uniform(1.0, 20.0))
        assert budget.prbs * TABLE.prb_hz >= budget.bandwidth_hz
        assert budget.prbs >= 1


def test_infeasible_link_raises():
    # at 200 m the wideband rate limit falls below D/tau for this power budget
    with pytest.raises(InfeasibleError):
        ch.optimal_bandwidth(TABLE, 0.02, 200.0)


def test_starved_link_names_agent_distance_and_theta():
    # theta ~ 1e-6: e^{-1/theta} underflows, so the guard must fire before Lambert W
    with pytest.raises(InfeasibleError, match=r"agent 7 at 5 m: link constant theta=1\.16\d*e-06"):
        ch.optimal_bandwidth(TABLE, 1e-9, 5.0, agent_id=7)


def test_uplink_delivers_at_nominal_fading():
    budget = ch.optimal_bandwidth(TABLE, 0.02, 20.0)
    # direct rate evaluation with fading pinned at its mean
    gamma = ch.snr(TABLE, 0.02, 20.0, budget.bandwidth_hz, 1.0)
    latency = TABLE.packet_bits / (budget.bandwidth_hz * math.log2(1.0 + gamma))
    assert latency <= TABLE.max_latency_s


def test_uplink_outage_within_band():
    budget = ch.optimal_bandwidth(TABLE, 0.02, 20.0)
    rng = np.random.default_rng(3)
    fading = ch.rician_fading_sample(TABLE.rician_k, rng, size=1_000_000)
    gamma = (
        TABLE.system_gain * 0.02 * fading
        / (20.0**TABLE.path_loss_exp * budget.bandwidth_hz * TABLE.noise_psd)
    )
    latency = TABLE.packet_bits / (budget.bandwidth_hz * np.log2(1.0 + gamma))
    outage = float(np.mean(latency > TABLE.max_latency_s))
    assert outage <= 5.0 * TABLE.outage_target


def test_starved_link_mostly_fails():
    budget = ch.optimal_bandwidth(TABLE, 0.02, 20.0)
    starved = ch.LinkBudget(
        bandwidth_hz=budget.bandwidth_hz / 10.0,
        prbs=1,
        theta=budget.theta,
        tx_power_w=budget.tx_power_w,
        distance_m=budget.distance_m,
    )
    rng = np.random.default_rng(4)
    fails = sum(
        not ch.uplink_outcome(TABLE, starved, rng).delivered for _ in range(2000)
    )
    assert fails / 2000 > 100 * TABLE.outage_target


def test_params_validation():
    with pytest.raises(ConfigError):
        ch.ChannelParams(outage_target=0.7)
    with pytest.raises(ConfigError):
        ch.ChannelParams(rician_k=2.0)  # strong-LoS condition fails at eps=1e-5
    with pytest.raises(ConfigError):
        ch.ChannelParams(prb_hz=0.0)


SURE_SETTINGS = [
    TABLE,
    ch.ChannelParams(rician_k=250.0, outage_target=0.2, packet_bits=256.0, max_latency_s=1e-2),
    ch.ChannelParams(rician_k=12.5, outage_target=1e-3, packet_bits=8192.0, max_latency_s=1e-3),
]
# theta - 1 per link: the series branch (below 1e-2) down to where 1 + snr rounds, then the Lambert-W branch.
SURE_EXCESS = [1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 5e-3, 0.0099, 0.1, 1.0, 10.0, 1e3, 1e6, 1e9]


def boundary_fade(params: ch.ChannelParams, terms) -> float:
    """The fade at which the link's rate meets D/tau exactly: (2^(D/(tau W)) - 1) den / num."""
    bandwidth, num, den, _ = terms
    return math.expm1(math.log(2.0) * params.packet_bits / (params.max_latency_s * bandwidth)) * den / num


def deadline_cases(params: ch.ChannelParams, fades):
    """(normals giving each fade as ``meets_deadline`` forms it, the fades it forms)."""
    los, sigma = params.fading_terms
    normals, formed = [], []
    for f in fades:
        re_z = (math.sqrt(f) - los) / sigma
        re, im = los + sigma * re_z, sigma * 0.0
        normals += [re_z, 0.0]
        formed.append(re * re + im * im)
    return normals, formed


@pytest.mark.parametrize("params", SURE_SETTINGS, ids=["headline", "K250-eps0.2", "K12.5-eps1e-3"])
def test_sure_fade_decides_as_uplink_latency_and_takes_no_logarithm(params):
    """``meets_deadline`` equals ``uplink_latency(...) <= max_latency_s`` on [0, 3] and near each boundary.

    The margin: the test delivers when W log2(1 + snr) >= D/tau. Raising the
    fade by the factor ``SURE_MARGIN`` = 1 + 1e-6 raises the rate by a
    relative 1e-6 snr / ((1 + snr) ln(1 + snr)), at least 1e-6 / 710 for any
    snr under the float range, while the float expressions of the test and
    of the sure fade err by a few units of 2^-53, plus 2^-53 / snr where
    1 + snr is rounded. So the test delivers at the sure fade, and, being
    monotone in the fade, above it, unless the boundary snr is below about
    1e-9: there ``link_terms`` finds the exact test failing at the raised
    fade and keeps the sure fade infinite (theta - 1 = 1e-12 and below here).
    """
    theta_1m = ch.optimal_bandwidth(params, 0.02, 1.0).theta
    budgets = []
    for excess in SURE_EXCESS:
        budget = ch.optimal_bandwidth(params, 0.02, (theta_1m / (1.0 + excess)) ** (1.0 / params.path_loss_exp))
        budgets += [budget, budget._replace(bandwidth_hz=0.3 * budget.bandwidth_hz)]  # sized and starved
    for budget in budgets:
        terms = ch.link_terms(params, budget)
        bandwidth, num, den, sure = terms
        boundary = boundary_fade(params, terms)
        if budget.theta - 1.0 > 1e-11:
            assert boundary < sure <= boundary * (1.0 + 2e-6)
        fades = [3.0 * n / 300 for n in range(301)] + [boundary * (1.0 + 1e-7 * n) for n in range(-100, 101)]
        if sure < math.inf:
            fades += [sure, math.nextafter(sure, 0.0), math.nextafter(sure, math.inf)]
        normals, formed = deadline_cases(params, fades)
        want = [ch.uplink_latency(params, budget, f) <= params.max_latency_s for f in formed]
        assert ch.meets_deadline(params, [terms] * len(fades), normals) == want
        assert any(want) and not all(want)
        # At or above the sure fade the test is decided without a logarithm.
        above = [n for n, f in enumerate(formed) if f >= sure]
        with mock.patch.object(math, "log2", side_effect=AssertionError("a logarithm was taken")):
            got = ch.meets_deadline(params, [terms] * len(above), [normals[2 * n + j] for n in above for j in (0, 1)])
        assert got == [True] * len(above)


def test_a_sure_fade_that_overflows_is_infinite():
    """A boundary past the float range leaves every fade to the exact test: 2^(D/(tau W)) overflows, or den / num."""
    budget = ch.optimal_bandwidth(TABLE, 0.02, 20.0)
    for starved in (budget._replace(bandwidth_hz=1.0), budget._replace(tx_power_w=1e-320)):
        terms = ch.link_terms(TABLE, starved)
        assert terms[3] == math.inf
        fades = [0.0, 1.0, 3.0, 1e300]
        normals, formed = deadline_cases(TABLE, fades)
        want = [ch.uplink_latency(TABLE, starved, f) <= TABLE.max_latency_s for f in formed]
        assert ch.meets_deadline(TABLE, [terms] * len(fades), normals) == want
