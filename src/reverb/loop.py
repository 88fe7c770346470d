"""Per-episode co-simulation engine: plant, sensing fleet, belief, and ages.

``TwinLoop`` runs one ``RunConfig``: it builds its plant from the
process-noise variances, reads the channel, the uplink cap, the variance and
age targets and the initial belief variance from it, and holds none of them a
second time. It owns the mutable episode state, which its constructor
starts: it draws the initial plant state and then the initial belief from
the episode's generator, sets every age fresh, and hands the generator to a
``NormalStream``, which every later draw goes through. It also owns the
episode's link table, ``links``: empty at first, filled by the radio rounds
(``scheduler.size_and_transmit``), with a three-part entry per selection.

Each ``step`` takes an action, a force and a per-feature accuracy request.
It checks the request first, by taking its variance bounds, so a failing
request changes nothing; then the plant moves, and the scheme's round
(``schemes.make_round``) turns the last belief, the force and the last ages
into the next belief and ages: ``scheduler.run_round`` for a radio scheme,
which predicts, selects the sensors from the due features of the last ages,
transmits, fuses and makes the ages' one transition of the interval
(``AolTracker.close_loop``), and for Perfect the true state with both ages
at ``(1, 1)`` and no prior. The reward is -0.1 f² (+100 at the goal) + kappa *
mean(request), kappa being the config's ``control.kappa``. Every value a
step hands on (plant state, belief, targets, ages) is a tuple of floats or
ints, and the step returns an immutable named tuple, ``StepResult``.

The variance bounds depend only on the configured ``required_var`` and the
request, so the last bounds are reused while the request is a tuple equal to
the last one; a list or an array is not kept, since it can change in place,
and a request that fails the check is never kept, so it fails every step.
The failure flag reads the posterior's two variances against the two bounds
directly: the belief's constructor has already checked them.

Every noise a step adds is standard normals in one stream: the plant's
process noise (``dynamics.step``), then, in a radio round, the readings
(``sensing.observe``) and the fades (``scheduler.size_and_transmit``). Each
takes its numbers through the loop's ``normals`` callable, ``n -> list of n
floats``, which slices them from a block of ``BLOCK`` normals drawn ahead:
exactly the numbers a ``standard_normal(n)`` call per consumer would give,
in the same order, whatever the block boundaries. The first block is drawn
when the loop is built; a blind round takes no normals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import dynamics as dyn
from . import estimator as est
from .aol import AolTracker
from .scheduler import ScheduleResult, compute_targets
from .sensing import SensorFleet

if TYPE_CHECKING:  # config imports control, which imports this module
    from .config import RunConfig

TERMINATION_REWARD = 100.0      # environment reward for reaching the goal
ACTION_COST_WEIGHT = 0.1        # environment reward per unit of squared force, negated
# Standard normals per generator call. Drawing a block costs about one median
# step (some 50 us on a 2-vCPU Xeon), so a block lasts tens of steps even on
# the widest headline rounds (about 34 normals per interval) and few steps pay
# a refill; what an episode leaves of its last block is drawn for nothing.
BLOCK = 1024


class NormalStream:
    """A generator's standard normals, handed out in order from blocks drawn ahead."""

    __slots__ = ("_rng", "_block", "_pos")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._block = rng.standard_normal(BLOCK).tolist()
        self._pos = 0

    def take(self, n: int) -> list[float]:
        """The next ``n`` normals; a refill keeps the unread tail and draws at least ``n`` more."""
        pos = self._pos
        end = pos + n
        if end > len(self._block):
            self._block = self._block[pos:] + self._rng.standard_normal(max(BLOCK, n)).tolist()
            pos, end = 0, n
        self._pos = end
        return self._block[pos:end]


class StepResult(NamedTuple):
    belief: est.Belief
    reward_env: float
    reward: float               # reward_env + kappa * mean(request)
    done: bool
    schedule: ScheduleResult
    true_state: dyn.State
    targets: tuple[float, ...]  # variance bounds in force this interval
    failed: bool                # any belief variance above its bound after fusion


class TwinLoop:
    def __init__(
        self,
        cfg: RunConfig,
        fleet: SensorFleet,
        scheme_round: Callable[..., tuple[ScheduleResult, est.Belief, AolTracker]],
        rng: np.random.Generator,
    ) -> None:
        self.cfg = cfg
        self.plant = dyn.plant(cfg.process_noise_var)
        self.fleet = fleet
        self.scheme_round = scheme_round
        self.state = dyn.initial_state(rng)
        self.belief = est.init_belief(self.state, rng, cfg.init_belief_var)
        self.normals = NormalStream(rng).take
        self.links: dict = {}
        self.aol = AolTracker.fresh(cfg.aol_thresholds)
        # The last request tuple whose bounds were computed, and those bounds (see the module text).
        self._request: tuple[float, ...] | None = None
        self._bounds: tuple[float, ...] = ()

    def step(self, force: float, accuracy: tuple[float, ...]) -> StepResult:
        if accuracy.__class__ is tuple and accuracy == self._request:
            targets = self._bounds
        else:
            targets = compute_targets(self.cfg.required_var, accuracy)
            if accuracy.__class__ is tuple:
                self._request, self._bounds = accuracy, targets
        a0, a1 = accuracy
        self.state = dyn.step(self.plant, self.state, force, self.normals)
        done = self.state[0] >= dyn.GOAL_POSITION
        reward_env = -ACTION_COST_WEIGHT * float(force) ** 2
        if done:
            reward_env += TERMINATION_REWARD
        reward = reward_env + self.cfg.control.kappa * ((a0 + a1) / 2)

        sched, posterior, self.aol = self.scheme_round(
            self.belief,
            force,
            self.plant,
            targets,
            self.aol,
            self.fleet,
            self.cfg.channel,
            self.links,
            self.cfg.cap,
            self.state,
            self.normals,
        )
        self.belief = posterior
        (v0, _), (_, v1) = posterior.cov
        b0, b1 = targets
        return StepResult(posterior, reward_env, reward, done, sched, self.state, targets, v0 > b0 or v1 > b1)
