"""Actor-critic controller that outputs a force and per-feature accuracy requests.

The actor is a Gaussian policy over a raw action vector; the first raw
dimension is squashed by tanh into the force range, the rest pass through a
scaled sigmoid to become nonnegative accuracy requests. Log-probabilities and
the clipped-ratio surrogate are computed in the raw (pre-squash) space. The
critic is a state-value net trained on one-step temporal-difference targets;
the same one-step residual is the actor's advantage.

A deterministic energy-pumping controller is provided so the estimation and
scheduling pipeline can be exercised without a trained policy.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, InputError, TrainingError
from .loop import TwinLoop
from .nets import MLP, make_optimizer
from .schema import NONNEGATIVE, POSITIVE, STATE_FEATURES, at_least, check_fields, one_of, spec, within

Array = np.ndarray

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ActionVector:
    """Control force in [-1, 1] plus per-feature accuracy requests in [0, eta_max]."""

    force: float
    accuracy: Array

    def __post_init__(self) -> None:
        acc = np.asarray(self.accuracy, dtype=float)
        values = acc.ravel().tolist()
        if not (math.isfinite(self.force) and all(map(math.isfinite, values))):
            raise InputError("action fields must be finite")
        if abs(self.force) > 1.0 + 1e-12:
            raise InputError("force outside [-1, 1]")
        if min(values, default=0.0) < 0.0:  # NaN was rejected above
            raise InputError("accuracy requests must be nonnegative")
        object.__setattr__(self, "accuracy", acc)


@dataclass(frozen=True)
class Transition:
    state: Array
    raw_action: Array
    log_prob: float
    reward: float
    next_state: Array
    done: bool


@dataclass
class ControlConfig:
    hidden: tuple[int, ...] = spec((64, 64), (int,), at_least(1))
    lr_actor: float = spec(1e-3, float, POSITIVE)
    lr_critic: float = spec(1e-3, float, POSITIVE)
    clip: float = spec(0.2, float, POSITIVE)
    gamma: float = spec(0.99, float, within(0.0, 1.0))
    kappa: float = spec(5e-6, float, NONNEGATIVE)
    eta_max: float = spec(1e4, float, NONNEGATIVE)
    epochs: int = spec(10, int, at_least(1))
    minibatch: int = spec(64, int, at_least(1))
    entropy_coef: float = spec(0.0, float, NONNEGATIVE)
    init_log_std: float = spec(0.5, float, within(LOG_STD_MIN, LOG_STD_MAX))
    # Exploration schedule: keep log-std at or above this floor for the first
    # explore_frac of training episodes so the sparse summit bonus can be
    # found before the action-cost gradient shrinks the policy's spread.
    explore_floor: float = spec(-0.75, float, within(LOG_STD_MIN, LOG_STD_MAX))
    explore_frac: float = spec(0.5, float, within(0.0, 1.0))
    advantage_norm: bool = spec(True, bool)
    optimizer: str = spec("adam", str, one_of("adam", "sgd"))
    shaping: str = spec("accuracy_bonus", str, one_of("accuracy_bonus", "accuracy_cost"))
    # Fixed per-feature scaling applied to the belief mean before the nets;
    # mountain-car velocity lives on a ~1/14 scale relative to position.
    input_scale: tuple[float, ...] = spec((1.0, 14.285714285714286), (float,), POSITIVE, per_feature=True)

    def __post_init__(self) -> None:
        check_fields(self)


class PolicyAgent:
    """Gaussian actor + value critic over the belief mean."""

    def __init__(
        self,
        state_dim: int,
        n_features: int,
        cfg: ControlConfig,
        rng: np.random.Generator,
    ) -> None:
        self.cfg = cfg
        self.state_dim = state_dim
        self.n_features = n_features
        self.action_dim = 1 + n_features
        self.actor = MLP((state_dim, *cfg.hidden, self.action_dim), rng)
        self.critic = MLP((state_dim, *cfg.hidden, 1), rng)
        self.log_std = np.full(self.action_dim, float(cfg.init_log_std))
        self.scale = np.asarray(cfg.input_scale[:state_dim], dtype=float)

    # --- action plumbing ----------------------------------------------------

    def _scaled(self, states: Array) -> Array:
        return np.atleast_2d(np.asarray(states, dtype=float)) * self.scale

    def raw_mean(self, states: Array) -> Array:
        return self.actor.forward(self._scaled(states))

    def squash(self, raw: Array) -> ActionVector:
        raw = np.asarray(raw, dtype=float)
        force = math.tanh(float(raw[0]))
        # Past exp(709) the float range ends; below -709 a request saturates to ~0 anyway.
        accuracy = self.cfg.eta_max / (1.0 + np.exp(np.minimum(-raw[1:], 709.0)))
        return ActionVector(force=force, accuracy=accuracy)

    def sample_step(self, state: Array, rng: np.random.Generator) -> tuple[ActionVector, Array, float]:
        """Sample a raw action, return (squashed action, raw, log-probability)."""
        mean = self.raw_mean(state)[0]
        std = np.exp(self.log_std)
        raw = mean + std * rng.standard_normal(self.action_dim)
        logp = float(gaussian_log_prob(raw[None, :], mean[None, :], self.log_std)[0])
        return self.squash(raw), raw, logp

    def act(self, state: Array, rng: np.random.Generator) -> ActionVector:
        action, _, _ = self.sample_step(state, rng)
        return action

    def act_mean(self, state: Array) -> ActionVector:
        """Deterministic (mean) action, used for evaluation rollouts."""
        return self.squash(self.raw_mean(state)[0])

    def value(self, states: Array) -> Array:
        return self.critic.forward(self._scaled(states))[:, 0]

    # --- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "state_dim": self.state_dim,
            "n_features": self.n_features,
            "eta_max": self.cfg.eta_max,
            "input_scale": self.scale.tolist(),
            "log_std": self.log_std.tolist(),
            "actor": self.actor.to_lists(),
            "critic": self.critic.to_lists(),
        }

    @classmethod
    def from_dict(cls, data: dict, cfg: ControlConfig | None = None) -> "PolicyAgent":
        if not isinstance(data, dict):
            raise InputError(f"weights must be a JSON object, got {type(data).__name__}")
        if data.get("version") != 1:
            raise InputError(f"unsupported weights version {data.get('version')!r}")

        def read(key: str, convert):
            if key not in data:
                raise InputError(f"weights: missing key {key!r}")
            try:
                return convert(data[key])
            except ConfigError as exc:  # a number outside the config field's range
                raise InputError(f"weights: {key!r} is out of range ({exc})") from None
            except (TypeError, ValueError, KeyError, AttributeError, OverflowError) as exc:
                raise InputError(f"weights: ill-typed {key!r} ({type(exc).__name__}: {exc})") from None

        def floats(value) -> Array:
            return np.array(value, dtype=float)

        def finite(key: str, *arrays: Array) -> None:
            if not all(np.isfinite(a).all() for a in arrays):
                raise InputError(f"weights: {key!r} holds a NaN or infinite entry")

        def vector(key: str, n: int) -> Array:
            value = read(key, floats)
            if value.shape != (n,):
                raise InputError(f"weights: {key!r} has shape {value.shape}, expected ({n},)")
            finite(key, value)
            return value

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

        cfg = read("eta_max", lambda v: dataclasses.replace(cfg or ControlConfig(), eta_max=float(v)))
        agent = cls.__new__(cls)
        agent.cfg = cfg
        agent.state_dim = read("state_dim", operator.index)
        agent.n_features = read("n_features", operator.index)
        if agent.state_dim < 1 or agent.n_features < 0:
            raise InputError("weights: 'state_dim' must be at least 1 and 'n_features' nonnegative")
        agent.action_dim = 1 + agent.n_features
        agent.actor = net("actor", agent.state_dim, agent.action_dim)
        agent.critic = net("critic", agent.state_dim, 1)
        agent.log_std = vector("log_std", agent.action_dim)
        agent.scale = vector("input_scale", agent.state_dim)
        return agent


def gaussian_log_prob(raw: Array, mean: Array, log_std: Array) -> Array:
    """Diagonal-Gaussian log density of raw actions, summed over dimensions."""
    z = (raw - mean) / np.exp(log_std)
    return -0.5 * np.sum(z * z + 2.0 * log_std + _LOG_2PI, axis=1)


def shaped_reward(reward_env: float, accuracy: Array, kappa: float, mode: str = "accuracy_bonus") -> float:
    """Add the accuracy-request term: reward + kappa * mean(accuracy).

    ``accuracy_cost`` flips the sign, treating requested accuracy as a direct
    cost instead of a bonus. The mean sums in index order, as ``np.mean``
    does for a 2-vector.
    """
    values = np.asarray(accuracy, dtype=float).ravel().tolist()
    if not values:
        raise InputError("need at least one accuracy request")
    total = values[0]
    for v in values[1:]:
        total += v
    term = kappa * (total / len(values))
    if mode == "accuracy_bonus":
        return reward_env + term
    if mode == "accuracy_cost":
        return reward_env - term
    raise InputError(f"unknown shaping mode {mode!r}")


@dataclass
class UpdateDiagnostics:
    actor_loss: float
    critic_loss: float
    mean_advantage: float


def ppo_update(
    agent: PolicyAgent,
    batch: Sequence[Transition],
    actor_opt,
    critic_opt,
    rng: np.random.Generator,
    log_std_floor: float = LOG_STD_MIN,
) -> UpdateDiagnostics:
    """Clipped-ratio policy step and TD(0) critic regression over one batch."""
    if not batch:
        raise InputError("update needs a nonempty batch")
    cfg = agent.cfg
    # Never raise an entry that already sits below the floor: with zero
    # gradients the update must leave parameters exactly unchanged.
    floor = min(log_std_floor, float(agent.log_std.min()))
    states = np.stack([t.state for t in batch])
    next_states = np.stack([t.next_state for t in batch])
    raws = np.stack([t.raw_action for t in batch])
    logp_old = np.array([t.log_prob for t in batch])
    rewards = np.array([t.reward for t in batch])
    not_done = 1.0 - np.array([t.done for t in batch], dtype=float)
    n = len(batch)

    actor_params = agent.actor.parameters() + [agent.log_std]
    critic_params = agent.critic.parameters()
    actor_losses: list[float] = []
    critic_losses: list[float] = []
    last_adv = 0.0

    for _ in range(cfg.epochs):
        # One-step TD residuals with the current critic; they are both the
        # critic's regression error and the actor's advantage estimate.
        v_s = agent.value(states)
        v_next = agent.value(next_states) * not_done
        targets = rewards + cfg.gamma * v_next
        delta = targets - v_s
        adv = delta.copy()
        if cfg.advantage_norm:
            adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        last_adv = float(delta.mean())

        order = rng.permutation(n)
        for start in range(0, n, cfg.minibatch):
            mb = order[start : start + cfg.minibatch]
            x = agent._scaled(states[mb])

            # Actor: clipped surrogate in the raw action space.
            mean, acts = agent.actor.forward_cached(x)
            std = np.exp(agent.log_std)
            logp_new = gaussian_log_prob(raws[mb], mean, agent.log_std)
            ratio = np.exp(logp_new - logp_old[mb])
            a_mb = adv[mb]
            unclipped = ratio * a_mb
            clipped = np.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip) * a_mb
            surrogate = np.minimum(unclipped, clipped)
            # d surrogate / d logp_new is ratio*adv where the unclipped term is
            # active, zero in the clipped-and-worse region.
            active = unclipped <= clipped
            dlogp = np.where(active, ratio * a_mb, 0.0) / len(mb)
            z = (raws[mb] - mean) / std
            grad_mean = -(dlogp[:, None] * z / std)  # minimize -surrogate
            grad_log_std = -(dlogp[:, None] * (z * z - 1.0)).sum(axis=0)
            if cfg.entropy_coef > 0.0:
                grad_log_std -= cfg.entropy_coef * np.ones_like(agent.log_std)
            net_grads = agent.actor.backward(acts, grad_mean)
            if not all(np.all(np.isfinite(g)) for g in net_grads + [grad_log_std]):
                raise TrainingError("non-finite actor gradients")
            actor_opt.step(actor_params, net_grads + [grad_log_std])
            np.clip(agent.log_std, floor, LOG_STD_MAX, out=agent.log_std)
            actor_losses.append(float(-surrogate.mean()))

            # Critic: semi-gradient MSE to the frozen minibatch targets.
            v_mb, c_acts = agent.critic.forward_cached(x)
            err = v_mb[:, 0] - targets[mb]
            c_grads = agent.critic.backward(c_acts, (2.0 * err / len(mb))[:, None])
            if not all(np.all(np.isfinite(g)) for g in c_grads):
                raise TrainingError("non-finite critic gradients")
            critic_opt.step(critic_params, c_grads)
            critic_losses.append(float(np.mean(err * err)))

    return UpdateDiagnostics(
        actor_loss=float(np.mean(actor_losses)),
        critic_loss=float(np.mean(critic_losses)),
        mean_advantage=last_adv,
    )


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
    qi_cap: int = 999,
) -> tuple[PolicyAgent, list[EpisodeStats]]:
    """Run the full learning loop: belief in, force and accuracy request out.

    Each episode drives a fresh co-simulation; the shaped reward is observed,
    transitions are batched per episode, and one clipped-ratio update follows.
    """
    if episodes < 0:
        raise InputError(f"episode count must be nonnegative, got {episodes}")
    root = np.random.SeedSequence(seed)
    init_ss, act_ss, update_ss, env_ss = root.spawn(4)
    init_rng = np.random.default_rng(init_ss)
    act_rng = np.random.default_rng(act_ss)
    update_rng = np.random.default_rng(update_ss)
    env_children = env_ss.spawn(episodes)
    agent = PolicyAgent(state_dim=STATE_FEATURES, n_features=STATE_FEATURES, cfg=cfg, rng=init_rng)
    actor_opt = make_optimizer(cfg.optimizer, cfg.lr_actor)
    critic_opt = make_optimizer(cfg.optimizer, cfg.lr_critic)
    curve: list[EpisodeStats] = []

    explore_until = int(cfg.explore_frac * episodes)
    for ep in range(episodes):
        loop = make_loop(np.random.default_rng(env_children[ep]))
        belief = loop.reset()
        state = belief.mean.copy()
        transitions: list[Transition] = []
        env_return = 0.0
        shaped_return = 0.0
        reached = False
        qis = 0
        for _ in range(qi_cap):
            action, raw, logp = agent.sample_step(state, act_rng)
            res = loop.step(action.force, action.accuracy)
            r = shaped_reward(res.reward_env, action.accuracy, cfg.kappa, cfg.shaping)
            next_state = res.belief.mean.copy()
            transitions.append(
                Transition(state, raw, logp, r, next_state, res.done)
            )
            env_return += res.reward_env
            shaped_return += r
            state = next_state
            qis += 1
            if res.done:
                reached = True
                break
        if not math.isfinite(shaped_return):
            raise TrainingError("non-finite episode return")
        floor = cfg.explore_floor if ep < explore_until else LOG_STD_MIN
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                ppo_update(agent, transitions, actor_opt, critic_opt, update_rng, log_std_floor=floor)
        except FloatingPointError as exc:  # a learning rate, reward scale or entropy term too large
            raise TrainingError(f"episode {ep}: the policy update left the float range ({exc})") from None
        curve.append(EpisodeStats(ep, shaped_return, env_return, reached, qis))
    return agent, curve


def scripted_controller(state: Array, accuracy: Array) -> ActionVector:
    """Deterministic energy pump: push along the velocity sign, +1 at rest."""
    s = np.asarray(state, dtype=float).ravel().tolist()
    if not all(map(math.isfinite, s)):
        raise InputError("state must be finite")
    force = 1.0 if s[1] >= 0.0 else -1.0
    return ActionVector(force=force, accuracy=accuracy)
