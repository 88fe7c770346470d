"""End-to-end acceptance gate: analytic oracles plus benchmark trend checks.

Each test prints one PASS/FAIL line per criterion in the terminal summary
(see conftest). Tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from reverb import channel as ch
from reverb import control as ctl
from reverb import dynamics as dyn
from reverb import estimator as est
from reverb import scheduler as sched
from reverb.aol import AolTracker
from reverb.config import RunConfig
from reverb.errors import ConfigError, DomainError, InfeasibleError
from reverb.runner import apply_sweep_point, monte_carlo
from reverb.schemes import build_loop, make_policy, run_episode
from reverb import cli

from test_channel import bisect_bandwidth
from oracles import finite_difference_jacobian, linear_model, per_call_normals
from test_scheduler import make_fleet, oracle_plan, random_instance


def test_a1_closed_form_bandwidth(criterion):
    """A1: closed form satisfies its defining identity and matches bisection."""
    rng = np.random.default_rng(101)
    start = time.time()
    checked = 0
    max_identity = 0.0
    max_rel = 0.0
    while checked < 100:
        g = float(rng.uniform(2.0, 50.0))
        eps = float(10.0 ** rng.uniform(-6.0, -2.0))
        d = float(rng.uniform(1.0, 20.0))
        p = float(rng.uniform(1e-3, 0.1))
        bits = float(rng.choice([256.0, 1024.0, 4096.0]))
        tau = float(rng.uniform(1e-3, 1e-2))
        try:
            params = ch.ChannelParams(
                rician_k=g, outage_target=eps, packet_bits=bits, max_latency_s=tau
            )
            budget = ch.optimal_bandwidth(params, p, d)
        except (ConfigError, DomainError, InfeasibleError):
            continue  # outside the lemma's domain (weak LoS or infeasible rate)
        ups = -bits * math.log(2.0) / (budget.bandwidth_hz * tau)
        max_identity = max(max_identity, abs((1.0 - ups * budget.theta) * math.exp(ups) - 1.0))
        want = bisect_bandwidth(params, p, d)
        max_rel = max(max_rel, abs(budget.bandwidth_hz - want) / want)
        checked += 1
    elapsed = time.time() - start
    ok = max_identity < 1e-9 and max_rel < 1e-6 and elapsed < 5.0
    criterion(
        "A1",
        ok,
        f"identity {max_identity:.2e} <1e-9, bisection rel {max_rel:.2e} <1e-6, {elapsed:.2f}s",
    )


def test_a2_outage_fidelity(criterion):
    """A2: Monte-Carlo outage at the sized bandwidth stays within [0.2, 5] x target.

    Each of 10^6 transmissions on the sized link is tested by the deadline
    check a round runs, ``channel.meets_deadline`` on the link's
    ``link_terms``, with two standard normals per transmission.
    """
    params = ch.ChannelParams()
    start = time.time()
    budget = ch.optimal_bandwidth(params, 0.02, 20.0)
    rng = np.random.default_rng(202)
    n = 1_000_000
    met = ch.meets_deadline(params, [ch.link_terms(params, budget)] * n, rng.standard_normal(2 * n).tolist())
    outage = met.count(False) / n
    elapsed = time.time() - start
    lo, hi = 0.2 * params.outage_target, 5.0 * params.outage_target
    ok = lo <= outage <= hi and elapsed < 30.0
    criterion("A2", ok, f"outage {outage:.2e} in [{lo:.0e}, {hi:.0e}], {elapsed:.1f}s")


def test_a3_ekf_oracle_equivalence(criterion):
    """A3: EKF equals a standard KF on ``oracles.linear_model``; Jacobians match FD.

    Each interval's two readings are fused by ``scheduler.fuse_delivered``,
    the fusion a run executes, over a fleet of one sensor per feature.
    """
    a_mat = np.array([[0.97, 0.08], [-0.02, 0.91]])
    q = np.diag([3e-5, 1e-5])
    h = np.array([[1.0, 0.0], [0.0, 1.0]])
    r = np.diag([4e-3, 9e-4])
    fleet = make_fleet([(0, 4e-3, 5.0), (1, 9e-4, 5.0)])
    model = linear_model(a_mat, q)
    rng = np.random.default_rng(33)
    belief = est.Belief(np.array([0.4, -0.1]), np.diag([0.05, 0.02]))
    kf_mean, kf_cov = np.array(belief.mean), np.array(belief.cov)
    worst = 0.0
    for _ in range(100):
        obs = rng.standard_normal(2) * 0.3
        belief = est.predict(belief, 0.0, model)
        belief = sched.fuse_delivered(belief, [0, 1], [0, 1], obs.tolist(), fleet)
        kf_mean = a_mat @ kf_mean
        kf_cov = a_mat @ kf_cov @ a_mat.T + q
        s_mat = h @ kf_cov @ h.T + r
        gain = kf_cov @ h.T @ np.linalg.inv(s_mat)
        kf_mean = kf_mean + gain @ (obs - h @ kf_mean)
        kf_cov = (np.eye(2) - gain @ h) @ kf_cov
        worst = max(
            worst,
            float(np.max(np.abs(belief.mean - kf_mean))),
            float(np.max(np.abs(belief.cov - kf_cov))),
        )
    car = dyn.plant(RunConfig().process_noise_var)
    jac_rng = np.random.default_rng(44)
    worst_jac = 0.0
    for _ in range(100):
        s = np.array([jac_rng.uniform(-1.1, 0.5), jac_rng.uniform(-0.06, 0.06)])
        fd = finite_difference_jacobian(s)
        worst_jac = max(worst_jac, float(np.max(np.abs(car.jacobian(s) - fd))))
    ok = worst < 1e-9 and worst_jac < 1e-5
    criterion("A3", ok, f"KF gap {worst:.2e} <1e-9, FD gap {worst_jac:.2e} <1e-5")


def test_a4_scheduler_oracle(criterion):
    """A4: the selection trace equals an independent re-implementation."""
    rng = np.random.default_rng(404)
    mismatches = 0
    for _ in range(60):
        spec, agents, prior_cov, bounds, ages, thresholds, cap = random_instance(rng)
        fleet = make_fleet(spec)
        violated = AolTracker(ages, thresholds).violated()
        selected, _ = sched.plan_selection(prior_cov, bounds, violated, fleet, cap)
        want = oracle_plan(prior_cov, bounds, violated, agents, cap)
        if selected != want or len(selected) > cap:
            mismatches += 1
    criterion("A4", mismatches == 0, f"{mismatches} mismatches over 60 instances")


def test_a5_control_capability(criterion):
    """A5: scripted pump summits fast; trained policy reaches the goal reliably."""
    model = dyn.plant((0.0, 0.0))
    s = np.array([-0.5, 0.0])
    normals = per_call_normals(np.random.default_rng(0))
    push, pull = ctl.ActionVector(1.0, (0.0, 0.0)), ctl.ActionVector(-1.0, (0.0, 0.0))
    steps = 0
    while s[0] < 0.45 and steps < 200:
        s = dyn.step(model, s, ctl.scripted_controller(s, push, pull).force, normals)
        steps += 1
    scripted_ok = steps < 200

    cfg = RunConfig()
    start = time.time()
    _, curve = ctl.train(
        lambda r: build_loop(cfg, "AoL-REVERB", r), 500, cfg.control, seed=1, qi_cap=cfg.qi_cap
    )
    elapsed = time.time() - start
    reached = sum(s.reached_goal for s in curve[-100:])
    finite = all(math.isfinite(s.shaped_return) for s in curve)
    ok = scripted_ok and reached >= 80 and finite and elapsed < 900.0
    criterion(
        "A5",
        ok,
        f"scripted {steps} QIs <200, trained {reached}/100 >=80, {elapsed:.0f}s <900s",
    )


@pytest.fixture(scope="module")
def bench_cfg():
    return RunConfig()  # headline configuration: C=10, 20 sensors, 200 episodes


def test_a6_prb_and_mrmse_trends(criterion, bench_cfg):
    """A6: PRB ordering across schemes and the raw-observation error gap."""
    start = time.time()
    out = {}
    for scheme in ("AoL-REVERB", "CB-Greedy", "EB-Greedy", "Traditional"):
        out[scheme], _ = monte_carlo(bench_cfg, 200, scheme=scheme)
    elapsed = time.time() - start
    prb_order = (
        out["AoL-REVERB"].mean_total_prbs
        < out["CB-Greedy"].mean_total_prbs
        < out["EB-Greedy"].mean_total_prbs
    )
    ratio = out["Traditional"].mrmse / out["AoL-REVERB"].mrmse
    ok = prb_order and ratio >= 5.0 and elapsed < 600.0
    criterion(
        "A6",
        ok,
        "prbs {:.0f} < {:.0f} < {:.0f}, mrmse ratio {:.1f} >=5, {:.0f}s".format(
            out["AoL-REVERB"].mean_total_prbs,
            out["CB-Greedy"].mean_total_prbs,
            out["EB-Greedy"].mean_total_prbs,
            ratio,
            elapsed,
        ),
    )


def test_a7_capacity_sweep(criterion, bench_cfg):
    """A7: failure probability falls at least 3x from C=1 to C=10, monotone within slack."""
    fail = {}
    for cap in range(1, 31):
        summary, _ = monte_carlo(
            apply_sweep_point(bench_cfg, "C", cap), 25, scheme="AoL-REVERB"
        )
        fail[cap] = summary.failure_prob
    drop_ok = fail[1] >= 3.0 * fail[10] and fail[1] > 0.0
    mono_ok = all(fail[c + 1] <= fail[c] + 0.02 for c in range(1, 30))
    criterion(
        "A7",
        drop_ok and mono_ok,
        f"fail(C=1)={fail[1]:.3f} >= 3x fail(C=10)={fail[10]:.3f}, monotone within +0.02: {mono_ok}",
    )


def test_a8_age_threshold_sweep(criterion, bench_cfg):
    """A8: tighter age thresholds demand more simultaneous sensors."""
    tight, _ = monte_carlo(apply_sweep_point(bench_cfg, "aol", 1), 40, scheme="AoL-REVERB")
    loose, _ = monte_carlo(apply_sweep_point(bench_cfg, "aol", 10), 40, scheme="AoL-REVERB")
    ratio = tight.mean_selected / loose.mean_selected
    criterion(
        "A8",
        ratio >= 1.2,
        f"|Q| {tight.mean_selected:.2f} vs {loose.mean_selected:.2f}, ratio {ratio:.2f} >=1.2",
    )


def test_a9_age_bound_under_scheduler(criterion):
    """A9: no feature's age ever exceeds its threshold + 1 under the scheduler."""
    # ages bind hardest when the variance targets are vacuous
    cfg = RunConfig(
        required_var=(1e6, 1e6),
        scripted_accuracy=(0.0, 0.0),
        aol_thresholds=(5, 5),
        cap=10,
    )
    policy = make_policy(cfg)
    worst = 0
    for i in range(50):
        record = run_episode(cfg, "AoL-REVERB", policy, seed=1 + i)
        worst = max(worst, max(record.columns["age_pos"]), max(record.columns["age_vel"]))
    # and under the default (variance-driven) configuration as well
    default_cfg = RunConfig()
    policy = make_policy(default_cfg)
    for i in range(50):
        record = run_episode(default_cfg, "AoL-REVERB", policy, seed=1 + i)
        worst = max(worst, max(record.columns["age_pos"]), max(record.columns["age_vel"]))
    criterion("A9", worst <= 6, f"max logged age {worst} <= threshold+1 = 6")


def test_a10_cli_determinism(criterion, tmp_path):
    """A10: every subcommand, rerun with the same seed, emits byte-identical files."""
    pairs = []
    for tag, argv, files in (
        (
            "train",
            ["train", "--episodes", "3", "--seed", "5"],
            ["weights.json", "learning_curve.csv"],
        ),
        ("run", ["run", "--scheme", "AoL-REVERB", "--seed", "5"], ["episode_0.csv"]),
        (
            "bench",
            ["bench", "--scheme", "Perfect", "--episodes", "2", "--seed", "5"],
            ["summary.csv", "summary.json"],
        ),
        (
            "sweep",
            ["bench", "--scheme", "AoL-REVERB", "--episodes", "1", "--seed", "5",
             "--sweep", "C:1..2"],
            ["summary.csv", "summary.json"],
        ),
    ):
        outs = []
        for run_idx in (0, 1):
            out = tmp_path / f"{tag}{run_idx}"
            assert cli.main(argv + ["--out", str(out)]) == 0
            outs.append(out)
        for name in files:
            pairs.append(
                (f"{tag}/{name}", (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes())
            )
    bad = [name for name, same in pairs if not same]
    criterion("A10", not bad, f"checked {len(pairs)} files, mismatches: {bad or 'none'}")
