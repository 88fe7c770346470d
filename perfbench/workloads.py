"""The benchmark's workloads, the spans it records, and the per-episode facts it checks.

Every workload is a closed loop of units, one after another; a unit is a call
into the package's public API with a seed, and it returns the per-episode
facts the package itself reported, so the benchmark can check them against
what it observed at ``TwinLoop.step``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reverb
from reverb import (
    aol,
    channel,
    config,
    control,
    dynamics,
    estimator,
    loop,
    metrics,
    nets,
    recordio,
    runner,
    scheduler,
    schemes,
    sensing,
)
from reverb.errors import ReverbError

from hostspeed import HostSpeed, speed_kernel
from tracer import SPAN_FIELDS, LayerStat, Patcher, Tracer, percentile

# The metrics of an untraced run, in report order.
END_TO_END = ("qi_per_s", "step_us_p50", "step_us_p90", "setup_s", "peak_rss_mb",
              "failure_prob", "mrmse", "prbs_per_qi")
FIDELITY_UNITS = {"failure_prob": "ratio", "mrmse": "state", "prbs_per_qi": "prb/qi"}

MODULES = (aol, channel, config, control, dynamics, estimator, loop, metrics, nets,
           recordio, runner, scheduler, schemes, sensing)

# Episodes per ``control.train`` call in the ``train`` workload.
TRAIN_EPISODES = 2

# (span name, owner inside the package, attribute). Module functions are also
# replaced wherever another module imported them by name.
SPANS = (
    ("runner.monte_carlo", runner, "monte_carlo"),
    ("control.train", control, "train"),
    ("sensing.generate_fleet", sensing, "generate_fleet"),
    ("loop.step", loop.TwinLoop, "step"),
    ("dynamics.step", dynamics, "step"),
    ("estimator.predict", estimator, "predict"),
    ("scheduler.compute_targets", scheduler, "compute_targets"),
    ("aol.violated", aol.AolTracker, "violated"),
    ("scheduler.plan_selection", scheduler, "plan_selection"),
    ("estimator.posterior_cov", estimator, "posterior_cov"),
    ("scheduler.size_and_transmit", scheduler, "size_and_transmit"),
    ("channel.optimal_bandwidth", channel, "optimal_bandwidth"),
    ("sensing.observe", sensing, "observe"),
    ("channel.uplink_outcome", channel, "uplink_outcome"),
    ("scheduler.fuse_delivered", scheduler, "fuse_delivered"),
    ("estimator.FusionBatch.from_observations", estimator.FusionBatch, "from_observations"),
    ("estimator.fuse", estimator, "fuse"),
    ("recordio.EpisodeRecord.append", recordio.EpisodeRecord, "append"),
    ("metrics.compute_metrics", metrics, "compute_metrics"),
    ("control.ppo_update", control, "ppo_update"),
    ("control.sample_step", control.PolicyAgent, "sample_step"),
    ("control.scripted_controller", control, "scripted_controller"),
    # Every forward pass, ``MLP.forward`` included, runs through ``forward_cached``.
    ("nets.forward", nets.MLP, "forward_cached"),
    ("nets.backward", nets.MLP, "backward"),
)
# The scheme round is a closure made per loop, so its span wraps what ``make_round`` returns.
ROUND_SPAN = "schemes.round"
SPAN_NAMES = tuple(name for name, _, _ in SPANS) + (ROUND_SPAN,)


@dataclass
class Episode:
    """What the benchmark saw of one episode at ``TwinLoop.step``."""

    qis: int = 0
    picks: int = 0
    delivered: int = 0
    prbs: int = 0
    failed: int = 0
    blind: int = 0
    goal: int = 0
    err_sum: float = 0.0        # sum over QIs of ||true state - belief mean||
    env_return: float = 0.0
    step_ns: array = field(default_factory=lambda: array("q"))   # host time of each step
    scale: float = 1.0          # reference seconds per host second while it ran

    @property
    def err_mean(self) -> float:
        return self.err_sum / self.qis

    def facts(self) -> list:
        return [self.qis, self.picks, self.delivered, self.prbs, self.failed, self.blind,
                self.goal, self.err_sum, self.env_return]


def same_value(a, b) -> bool:
    """Counts must match exactly; float sums may differ only by summation order."""
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def same_facts(a: list, b: list) -> bool:
    return len(a) == len(b) and all(same_value(x, y) for x, y in zip(a, b))


class StepCollector:
    """Times every ``TwinLoop.step`` and tallies its outcome per episode.

    An episode starts at each ``schemes.build_loop`` call; ``on_episode``
    receives the new episode's index. Step time is reported to ``speed``,
    which runs its kernel in between steps, outside the step's timing.
    """

    def __init__(self, on_episode: Callable[[int], None] | None = None) -> None:
        self.on_episode = on_episode
        self.episodes: list[Episode] = []
        self.speed = HostSpeed()
        self.current = Episode()
        self._patcher = Patcher()

    def __enter__(self) -> "StepCollector":
        try:
            self._patcher.replace(schemes, "build_loop", self._wrap_build, MODULES)
            self._patcher.replace(loop.TwinLoop, "step", self._wrap_step)
        except BaseException:
            self._patcher.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.close()

    def take(self) -> list[Episode]:
        """Episodes that ran steps since the last take; fleets built without stepping are dropped."""
        done = [ep for ep in self.episodes if ep.qis]
        self.episodes = []
        return done

    def _wrap_build(self, build_loop):
        def counted_build_loop(*args, **kwargs):
            self.current = Episode()
            self.episodes.append(self.current)
            if self.on_episode is not None:
                self.on_episode(len(self.episodes))
            return build_loop(*args, **kwargs)

        return counted_build_loop

    def _wrap_step(self, step):
        clock = time.perf_counter_ns

        def timed_step(twin, force, accuracy):
            start = clock()
            res = step(twin, force, accuracy)
            took = clock() - start
            ep = self.current
            ep.step_ns.append(took)
            sched = res.schedule
            ep.qis += 1
            ep.picks += len(sched.selected)
            ep.delivered += len(sched.delivered)
            ep.prbs += sched.total_prbs
            ep.failed += res.failed
            ep.blind += sched.blind
            ep.goal = max(ep.goal, int(res.done))
            ep.err_sum += math.hypot(res.true_state[0] - res.belief.mean[0],
                                     res.true_state[1] - res.belief.mean[1])
            ep.env_return += res.reward_env
            self.speed.add_work(took)
            return res

        return timed_step


@dataclass
class LayerCounts:
    """Counts taken where spans end, for the ratios the trace reports."""

    picks: int = 0
    violations: int = 0
    delivered: int = 0
    links: set = field(default_factory=set)

    def on_plan(self, result) -> None:
        self.picks += len(result[0])

    def on_violated(self, result) -> None:
        self.violations += len(result)

    def on_bandwidth(self, result) -> None:
        self.links.add((result.tx_power_w, result.distance_m))

    def on_uplink(self, result) -> None:
        self.delivered += bool(result.delivered)

    def reset(self) -> None:
        self.picks = self.violations = self.delivered = 0
        self.links = set()


def install_spans(patcher: Patcher, tracer: Tracer, counts: LayerCounts) -> None:
    """Wrap every function in ``SPANS`` and every scheme round for the tracer."""
    hooks = {
        "scheduler.plan_selection": counts.on_plan,
        "aol.violated": counts.on_violated,
        "channel.optimal_bandwidth": counts.on_bandwidth,
        "channel.uplink_outcome": counts.on_uplink,
    }
    for name, owner, attr in SPANS:
        patcher.replace(
            owner, attr,
            lambda fn, name=name: tracer.wrap(name, fn, hooks.get(name)),
            MODULES,
        )

    def make_round_factory(make_round):
        def traced_make_round(*args, **kwargs):
            return tracer.wrap(ROUND_SPAN, make_round(*args, **kwargs))

        return traced_make_round

    patcher.replace(schemes, "make_round", make_round_factory, MODULES)


# --- workloads ---------------------------------------------------------------


def _episode_facts(record) -> dict:
    delivered = sum(len(ids.split(";")) for ids in record.columns["delivered"] if ids)
    return {
        "qis": record.qis,
        "picks": int(sum(record.columns["n_selected"])),
        "delivered": delivered,
        "prbs": record.total_prbs,
        "failed": record.failure_count,
        "goal": int(record.reached_goal),
        "err_mean": record.mean_error_norm,
    }


def monte_carlo_unit(schemes: tuple[str, ...], cfg, seed: int) -> list[dict]:
    """One episode of each scheme on the same seed, through ``runner.monte_carlo``."""
    cfg = dataclasses.replace(cfg, seed=seed)
    facts = []
    for scheme in schemes:
        _, records = runner.monte_carlo(cfg, 1, scheme=scheme)
        facts.append(_episode_facts(records[0]))
    return facts


def train_unit(cfg, seed: int) -> list[dict]:
    """A fresh ``control.train`` run of ``TRAIN_EPISODES`` episodes on AoL-REVERB loops."""
    _, curve = control.train(
        lambda rng: schemes.build_loop(cfg, "AoL-REVERB", rng),
        TRAIN_EPISODES,
        cfg.control,
        seed=seed,
        qi_cap=cfg.qi_cap,
    )
    return [{"qis": s.qis, "goal": int(s.reached_goal), "env_return": s.env_return} for s in curve]


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict                      # run-config overrides of the package defaults
    unit: Callable[[config.RunConfig, int], list[dict]]
    # Fixed units checked against reference.json; the first is also the warm-up.
    reference_seeds: tuple[int, ...]

    def config(self) -> config.RunConfig:
        return config.config_from_dict(self.overrides)


WORKLOADS = {
    "schemes": Workload("schemes", {}, functools.partial(monte_carlo_unit, config.SCHEMES), (1, 2, 3, 4, 5)),
    "dense": Workload(
        "dense",
        {"cap": 30, "scripted_accuracy": [10000.0, 60000.0], "fleet": {"n_agents": 60}},
        functools.partial(monte_carlo_unit, ("AoL-REVERB",)),
        # Uplinks are sized for a 1e-5 outage, so few episodes lose one; seed 128 does.
        (1, 2, 3, 4, 5, 6, 7, 128),
    ),
    # The untrained policy almost never reaches the goal, so episodes run to
    # qi_cap either way; 200 instead of 999 lets a 20-s run sample about 33
    # freshly initialised policies instead of about 11, whose differing
    # accuracy requests otherwise swing the step-time median between seeds.
    "train": Workload("train", {"qi_cap": 200}, train_unit, (1, 2, 3, 4)),
}


def unit_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th unit of a run with workload seed ``seed``."""
    return 10_000 * seed + index


def fresh_import() -> None:
    """Import the package's modules from source again, as a set-up would; the loaded ones stay in use."""
    def loaded():
        return [k for k in sys.modules if k == "reverb" or k.startswith("reverb.")]

    saved = {k: sys.modules.pop(k) for k in loaded()}
    try:
        for module in MODULES:
            importlib.import_module(module.__name__)
    finally:
        for k in loaded():
            del sys.modules[k]
        sys.modules.update(saved)


def first_fleet(cfg, seed: int) -> None:
    schemes.build_loop(cfg, cfg.scheme, np.random.default_rng(seed))


def fidelity(episodes: list[Episode]) -> dict[str, float]:
    qis = sum(ep.qis for ep in episodes)
    return {
        "failure_prob": sum(ep.failed for ep in episodes) / qis,
        "mrmse": sum(ep.err_mean for ep in episodes) / len(episodes),
        "prbs_per_qi": sum(ep.prbs for ep in episodes) / qis,
        "goal_rate": sum(ep.goal for ep in episodes) / len(episodes),
    }


def check_reported(reported: list[dict], episodes: list[Episode]) -> int:
    """Number of episodes whose package-reported facts disagree with what the steps showed."""
    if len(reported) != len(episodes):
        return max(len(reported), len(episodes))
    bad = 0
    for facts, ep in zip(reported, episodes):
        if not all(same_value(value, getattr(ep, key)) for key, value in facts.items()):
            bad += 1
    return bad


def step_percentile_us(episodes: list[Episode], p: float):
    """``p``-th percentile of step time in reference us, with every episode weighing the same.

    Equal episode weights keep a scheme whose episodes run longer from
    moving the percentile: in the ``schemes`` workload the fast Perfect and
    Traditional steps would otherwise sit right around the median.
    """
    samples, weights = [], []
    for ep in episodes:
        samples.extend(ns * ep.scale for ns in ep.step_ns)
        weights.extend([1.0 / len(ep.step_ns)] * len(ep.step_ns))
    value = percentile(samples, weights, p)
    return None if value is None else value / 1e3


def layer_metrics(tracer: Tracer, counts: LayerCounts, episodes: list[Episode], scale: float) -> dict:
    """Per-layer metrics of a traced window: name -> (value, unit).

    ``scale`` turns host time into reference time (see ``hostspeed``).
    """
    qis = sum(ep.qis for ep in episodes)

    def stat(name: str) -> LayerStat:
        return tracer.stats.get(name, LayerStat())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls_per_qi"] = (stat(name).calls / qis, "calls/qi")
        out[f"{name}.self_us_per_qi"] = (stat(name).self_ns * scale / 1e3 / qis, "us/qi")
    out["scheduler.picks_per_qi"] = (ratio(counts.picks, stat("scheduler.plan_selection").calls), "picks/qi")
    out["channel.optimal_bandwidth.distinct_ratio"] = (
        ratio(len(counts.links), stat("channel.optimal_bandwidth").calls), "ratio")
    out["channel.delivered_ratio"] = (ratio(counts.delivered, stat("channel.uplink_outcome").calls), "ratio")
    out["control.ppo_update.self_ms_per_episode"] = (
        stat("control.ppo_update").self_ns * scale / 1e6 / len(episodes), "ms/episode")
    out["aol.violations_per_qi"] = (counts.violations / qis, "count/qi")
    out["scheduler.blind_qi_ratio"] = (sum(ep.blind for ep in episodes) / qis, "ratio")
    return out
