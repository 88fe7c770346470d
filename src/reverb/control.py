"""Actor-critic controller that outputs a force and per-feature accuracy requests.

The actor is a Gaussian policy over a raw action vector; the first raw
dimension is squashed by tanh into the force range, the rest pass through a
scaled sigmoid to become nonnegative accuracy requests. Training learns from
the twin step's reward (``loop.StepResult.reward``): -0.1 f² (+100 at the
goal) + kappa * mean(request), with the loop's ``control.kappa``.
Log-probabilities and the clipped-ratio surrogate are computed in the raw
(pre-squash) space. The critic is a state-value net trained on one-step
temporal-difference targets; the same one-step residual is the actor's
advantage. The agent's parameters are one vector, ``PolicyAgent.flat``
(actor, log-std, critic), and one ``Adam`` step per minibatch moves it once
both gradients are checked.

The nets map the scaled belief mean (``STATE_FEATURES`` entries) to
``ACTION_DIM`` = 1 + ``STATE_FEATURES`` raw entries through ``HIDDEN``
widths. A weights file must record those end dimensions, and may declare
other hidden widths; its ``eta_max`` and ``input_scale`` are set through
``ControlConfig`` and obey the rules they have in a config file.

An action is an ``ActionVector``, an immutable named tuple whose constructor
checks the force and the requests; ``_make`` and ``_replace`` run the same
constructor. A deterministic energy-pumping controller is provided so the
estimation and scheduling pipeline can be exercised without a trained policy:
``scripted_controller`` picks one of two given actions, which
``schemes.make_policy`` builds once per policy.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InputError, TrainingError
from .loop import TwinLoop
from .nets import MLP, Adam, number_array
from .schema import NONNEGATIVE, POSITIVE, STATE_FEATURES, check_fields, spec

Array = np.ndarray

ACTION_DIM = 1 + STATE_FEATURES  # the force, then one accuracy request per feature
LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
_LOG_2PI = math.log(2.0 * math.pi)

# The learning recipe; Adam's step size, betas and eps are constants of ``nets``.
HIDDEN = (64, 64)     # hidden-layer widths of a new actor and critic
INIT_LOG_STD = 0.5    # the policy's initial log-std, every action entry
CLIP = 0.2            # the surrogate's ratio clip, 1 +- CLIP
GAMMA = 0.99          # discount of the one-step TD target
EPOCHS = 10           # passes over an episode's batch per update
MINIBATCH = 64        # rows per gradient step; the last may be smaller
# Exploration schedule: keep log-std at or above EXPLORE_FLOOR for the first
# EXPLORE_FRAC of training episodes so the sparse summit bonus can be found
# before the action-cost gradient shrinks the policy's spread.
EXPLORE_FLOOR = -0.75
EXPLORE_FRAC = 0.5


class _ActionFields(NamedTuple):
    force: float
    accuracy: tuple[float, ...]


class ActionVector(_ActionFields):
    """Control force in [-1, 1] plus per-feature accuracy requests in [0, eta_max], as floats."""

    __slots__ = ()

    def __new__(cls, force: float, accuracy: tuple[float, ...]):
        if not math.isfinite(force):
            raise InputError("action fields must be finite")
        negative = False
        for eta in accuracy:
            if not math.isfinite(eta):
                raise InputError("action fields must be finite")
            if eta < 0.0:
                negative = True
        if abs(force) > 1.0 + 1e-12:
            raise InputError("force outside [-1, 1]")
        if negative:
            raise InputError("accuracy requests must be nonnegative")
        return tuple.__new__(cls, (force, accuracy))

    @classmethod
    def _make(cls, iterable) -> "ActionVector":
        """An action from its two fields, checked by the constructor (``_replace`` comes here too)."""
        return cls(*iterable)


class Transition(NamedTuple):
    """One QI of an episode, as ``train`` records it for ``ppo_update``."""

    state: Sequence[float]
    raw_action: Array
    log_prob: float
    reward: float
    next_state: Sequence[float]
    done: bool


@dataclass(frozen=True)
class ControlConfig:
    """The reward's accuracy weight and the two values a weights file carries; the recipe is fixed."""

    kappa: float = spec(5e-6, float, NONNEGATIVE)
    eta_max: float = spec(1e4, float, NONNEGATIVE)
    # Fixed per-feature scaling applied to the belief mean before the nets;
    # mountain-car velocity lives on a ~1/14 scale relative to position.
    input_scale: tuple[float, ...] = spec((1.0, 14.285714285714286), (float,), POSITIVE, per_feature=True)

    def __post_init__(self) -> None:
        check_fields(self)


class PolicyAgent:
    """Gaussian actor + value critic over the belief mean, all parameters in ``flat``."""

    def __init__(self, cfg: ControlConfig, rng: np.random.Generator) -> None:
        self.cfg = cfg
        self.actor = MLP((STATE_FEATURES, *HIDDEN, ACTION_DIM), rng)
        self.critic = MLP((STATE_FEATURES, *HIDDEN, 1), rng)
        self.log_std = np.full(ACTION_DIM, INIT_LOG_STD)
        self.scale = np.asarray(cfg.input_scale, dtype=float)
        self._join()

    def _join(self) -> None:
        """Copy the actor, the log-std and the critic into ``flat`` and make each a view into it."""
        self.flat = np.concatenate([self.actor.flat, self.log_std, self.critic.flat])
        actor, self.log_std, critic = self.split(self.flat)
        self.actor.bind(actor)
        self.critic.bind(critic)

    def split(self, vec: Array) -> tuple[Array, Array, Array]:
        """The actor, log-std and critic views of a vector laid out like ``flat``."""
        return tuple(np.split(vec, np.cumsum([self.actor.flat.size, ACTION_DIM])))

    # --- action plumbing ----------------------------------------------------

    def _scaled(self, states) -> Array:
        """A batch of states, one per row, as the nets' scaled input."""
        return np.atleast_2d(np.asarray(states, dtype=float)) * self.scale

    def raw_mean(self, state: Sequence[float]) -> Array:
        """The actor's raw-action mean at one state: a 1-D pass through the net."""
        return self.actor.forward(np.array(state) * self.scale)

    def squash(self, raw: Array) -> ActionVector:
        force, r0, r1 = np.asarray(raw, dtype=float).tolist()
        # Past exp(709) the float range ends; below -709 a request saturates to ~0 anyway.
        # One numpy exp over both requests (numpy's bits, not math.exp's), the rest in floats.
        c0, c1 = -r0, -r1
        if 709.0 < c0:
            c0 = 709.0
        if 709.0 < c1:
            c1 = 709.0
        e0, e1 = np.exp((c0, c1)).tolist()
        eta_max = self.cfg.eta_max
        return ActionVector(math.tanh(force), (eta_max / (1.0 + e0), eta_max / (1.0 + e1)))

    def sample_step(
        self, state: Sequence[float], rng: np.random.Generator
    ) -> tuple[ActionVector, Array, float]:
        """Sample a raw action, return (squashed action, raw, log-probability).

        The diagonal-Gaussian log density is summed in floats, in index order,
        with the same operations as the batch form in ``ppo_update``.
        """
        mean = self.raw_mean(state)
        std = np.exp(self.log_std)
        raw = mean + std * rng.standard_normal(ACTION_DIM)
        total = 0.0
        for r, m, s, ls in zip(raw.tolist(), mean.tolist(), std.tolist(), self.log_std.tolist()):
            z = (r - m) / s
            total += z * z + 2.0 * ls + _LOG_2PI
        return self.squash(raw), raw, -0.5 * total

    def act_mean(self, state: Sequence[float]) -> ActionVector:
        """Deterministic (mean) action, used for evaluation rollouts."""
        return self.squash(self.raw_mean(state))

    # --- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "state_dim": STATE_FEATURES,
            "n_features": STATE_FEATURES,
            "eta_max": self.cfg.eta_max,
            "input_scale": self.scale.tolist(),
            "log_std": self.log_std.tolist(),
            "actor": self.actor.to_lists(),
            "critic": self.critic.to_lists(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PolicyAgent":
        """An agent from ``to_dict``'s output; ``eta_max`` and ``input_scale`` obey ``ControlConfig``."""
        if not isinstance(data, dict):
            raise InputError(f"weights must be a JSON object, got {type(data).__name__}")
        version = data.get("version")
        if type(version) is not int or version != 1:
            raise InputError(f"weights: unsupported 'version' {version!r}, expected 1")

        def read(key: str, convert):
            if key not in data:
                raise InputError(f"weights: missing key {key!r}")
            try:
                return convert(data[key])
            except ConfigError as exc:  # a value the config field rejects
                raise InputError(f"weights: {key!r} is out of range ({exc})") from None
            except (TypeError, ValueError, KeyError, AttributeError, OverflowError) as exc:
                raise InputError(f"weights: ill-typed {key!r} ({type(exc).__name__}: {exc})") from None

        def finite(key: str, *arrays: Array) -> None:
            if not all(np.isfinite(a).all() for a in arrays):
                raise InputError(f"weights: {key!r} holds a NaN or infinite entry")

        def net(key: str, n_in: int, n_out: int) -> MLP:
            mlp = read(key, MLP.from_lists)
            sizes = mlp.sizes
            if len(sizes) < 2 or sizes[0] != n_in or sizes[-1] != n_out:
                raise InputError(f"weights: {key!r} sizes {list(sizes)} must run from {n_in} to {n_out}")
            if len(mlp.weights) != len(sizes) - 1 or len(mlp.biases) != len(sizes) - 1:
                raise InputError(f"weights: {key!r} needs {len(sizes) - 1} weight matrices and bias vectors")
            for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
                want_w, want_b = (sizes[i], sizes[i + 1]), (sizes[i + 1],)
                if w.shape != want_w or b.shape != want_b:
                    raise InputError(
                        f"weights: {key!r} layer {i} has shapes {w.shape} and {b.shape}, "
                        f"expected {want_w} and {want_b}"
                    )
            finite(key, *mlp.weights, *mlp.biases)
            return mlp

        cfg = read("eta_max", lambda v: ControlConfig(eta_max=v))
        dims = read("state_dim", operator.index), read("n_features", operator.index)
        if dims != (STATE_FEATURES, STATE_FEATURES):
            raise InputError(
                f"weights for state_dim {dims[0]} and n_features {dims[1]}, "
                f"but the plant has {STATE_FEATURES} state features"
            )
        agent = cls.__new__(cls)
        agent.actor = net("actor", STATE_FEATURES, ACTION_DIM)
        agent.critic = net("critic", STATE_FEATURES, 1)
        agent.log_std = read("log_std", number_array)
        if agent.log_std.shape != (ACTION_DIM,):
            raise InputError(f"weights: 'log_std' has shape {agent.log_std.shape}, expected ({ACTION_DIM},)")
        finite("log_std", agent.log_std)
        agent.cfg = read("input_scale", lambda v: dataclasses.replace(cfg, input_scale=v))
        agent.scale = np.asarray(agent.cfg.input_scale, dtype=float)
        agent._join()
        return agent


def ppo_update(
    agent: PolicyAgent,
    batch: Sequence[Transition],
    opt: Adam,
    rng: np.random.Generator,
    log_std_floor: float = LOG_STD_MIN,
) -> None:
    """Clipped-ratio policy step and TD(0) critic regression over one batch."""
    if not batch:
        raise InputError("update needs a nonempty batch")
    # Never raise an entry that already sits below the floor: with zero
    # gradients the update must leave parameters exactly unchanged.
    floor = min(log_std_floor, float(agent.log_std.min()))
    states = agent._scaled([t.state for t in batch])
    next_states = agent._scaled([t.next_state for t in batch])
    raws = np.stack([t.raw_action for t in batch])
    logp_old = np.array([t.log_prob for t in batch])
    rewards = np.array([t.reward for t in batch])
    not_done = 1.0 - np.array([t.done for t in batch], dtype=float)
    n = len(batch)

    grad = np.zeros_like(agent.flat)
    actor_grad, grad_log_std, critic_grad = agent.split(grad)
    actor_views, critic_views = agent.actor.views(actor_grad), agent.critic.views(critic_grad)

    for _ in range(EPOCHS):
        # One-step TD residuals with the current critic; they are both the
        # critic's regression error and the actor's advantage estimate.
        v_s = agent.critic.forward(states)[:, 0]
        v_next = agent.critic.forward(next_states)[:, 0] * not_done
        targets = rewards + GAMMA * v_next
        delta = targets - v_s
        adv = (delta - delta.mean()) / (delta.std() + 1e-8)

        # The epoch's rows in permuted order, gathered once; each minibatch is a slice.
        order = rng.permutation(n)
        ep_states, ep_raws, ep_logp = states[order], raws[order], logp_old[order]
        ep_adv, ep_targets = adv[order], targets[order]
        for start in range(0, n, MINIBATCH):
            mb = slice(start, start + MINIBATCH)
            x = ep_states[mb]
            mb_size = len(x)

            # Actor: clipped surrogate in the raw action space, with the
            # diagonal-Gaussian log density of the minibatch's raw actions.
            mean, acts = agent.actor.forward_cached(x)
            std = np.exp(agent.log_std)
            z = (ep_raws[mb] - mean) / std
            zz = z * z
            logp_new = -0.5 * np.sum(zz + 2.0 * agent.log_std + _LOG_2PI, axis=1)
            ratio = np.exp(logp_new - ep_logp[mb])
            a_mb = ep_adv[mb]
            unclipped = ratio * a_mb
            clipped = np.clip(ratio, 1.0 - CLIP, 1.0 + CLIP) * a_mb
            # d surrogate / d logp_new is ratio*adv where the unclipped term is
            # active, zero in the clipped-and-worse region.
            active = unclipped <= clipped
            dlogp = np.where(active, unclipped, 0.0) / mb_size
            grad_mean = -(dlogp[:, None] * z / std)  # minimize -surrogate
            grad_log_std[:] = -(dlogp[:, None] * (zz - 1.0)).sum(axis=0)
            agent.actor.backward(acts, grad_mean, actor_views)
            if not (np.isfinite(actor_grad).all() and np.isfinite(grad_log_std).all()):
                raise TrainingError("non-finite actor gradients")

            # Critic: semi-gradient MSE to the frozen minibatch targets. It reads
            # no actor parameter, so one joint step equals stepping the actor first.
            v_mb, c_acts = agent.critic.forward_cached(x)
            err = v_mb[:, 0] - ep_targets[mb]
            agent.critic.backward(c_acts, (2.0 * err / mb_size)[:, None], critic_views)
            if not np.isfinite(critic_grad).all():
                raise TrainingError("non-finite critic gradients")
            opt.step(agent.flat, grad)
            np.clip(agent.log_std, floor, LOG_STD_MAX, out=agent.log_std)


@dataclass
class EpisodeStats:
    episode: int
    shaped_return: float
    env_return: float
    reached_goal: bool
    qis: int


def train(
    make_loop: Callable[[np.random.Generator], TwinLoop],
    episodes: int,
    cfg: ControlConfig,
    seed: int,
    qi_cap: int,
) -> tuple[PolicyAgent, list[EpisodeStats]]:
    """Run the full learning loop: belief in, force and accuracy request out.

    Each episode drives a fresh co-simulation and takes one clipped-ratio
    update; a loop whose ``cfg.control`` is not ``cfg``, the agent's, fails.
    """
    if episodes < 0:
        raise InputError(f"episode count must be nonnegative, got {episodes}")
    root = np.random.SeedSequence(seed)
    init_ss, act_ss, update_ss, env_ss = root.spawn(4)
    init_rng = np.random.default_rng(init_ss)
    act_rng = np.random.default_rng(act_ss)
    update_rng = np.random.default_rng(update_ss)
    env_children = env_ss.spawn(episodes)
    agent = PolicyAgent(cfg, init_rng)
    opt = Adam()
    curve: list[EpisodeStats] = []

    explore_until = int(EXPLORE_FRAC * episodes)
    for ep in range(episodes):
        loop = make_loop(np.random.default_rng(env_children[ep]))
        if loop.cfg.control != cfg:
            raise ConfigError(f"the loop's control config {loop.cfg.control} is not train's {cfg}")
        state = loop.belief.mean
        transitions: list[Transition] = []
        env_return = 0.0
        shaped_return = 0.0
        for _ in range(qi_cap):
            action, raw, logp = agent.sample_step(state, act_rng)
            res = loop.step(action.force, action.accuracy)
            next_state = res.belief.mean
            transitions.append(
                Transition(state, raw, logp, res.reward, next_state, res.done)
            )
            env_return += res.reward_env
            shaped_return += res.reward
            state = next_state
            if res.done:
                break
        if not math.isfinite(shaped_return):
            raise TrainingError("non-finite episode return")
        floor = EXPLORE_FLOOR if ep < explore_until else LOG_STD_MIN
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                ppo_update(agent, transitions, opt, update_rng, log_std_floor=floor)
        except FloatingPointError as exc:  # a learning rate or reward scale too large
            raise TrainingError(f"episode {ep}: the policy update left the float range ({exc})") from None
        curve.append(
            EpisodeStats(ep, shaped_return, env_return, transitions[-1].done, len(transitions))
        )
    return agent, curve


def scripted_controller(state: Sequence[float], push: ActionVector, pull: ActionVector) -> ActionVector:
    """Deterministic energy pump: ``push`` (force +1) while the velocity is >= 0, else ``pull`` (-1)."""
    try:
        x, v = state
    except (TypeError, ValueError):  # not a pair
        raise InputError("state must be two finite numbers") from None
    if not (math.isfinite(x) and math.isfinite(v)):
        raise InputError("state must be finite")
    return push if v >= 0.0 else pull
