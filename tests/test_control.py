import math
from unittest import mock

import numpy as np
import pytest
from scipy import stats

from reverb import control as ctl
from reverb import dynamics as dyn
from reverb.errors import InputError, TrainingError
from reverb.nets import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ADAM_LR, MLP, Adam

import oracles
from oracles import per_call_normals, td_error


def param_arrays(net):
    """The net's arrays in (w0, b0, w1, b1, ...) order."""
    return [a for pair in zip(net.weights, net.biases) for a in pair]


def zeroed_agent(cfg=None, seed=0):
    agent = ctl.PolicyAgent(cfg or ctl.ControlConfig(), np.random.default_rng(seed))
    for net in (agent.actor, agent.critic):
        net.flat[:] = 0.0
    return agent


def test_action_ranges():
    agent = ctl.PolicyAgent(ctl.ControlConfig(), np.random.default_rng(1))
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        a = agent.sample_step(np.array([-0.5, 0.01]), rng)[0]
        assert -1.0 <= a.force <= 1.0
        assert type(a.accuracy) is tuple and len(a.accuracy) == 2
        assert 0.0 <= min(a.accuracy) and max(a.accuracy) <= agent.cfg.eta_max


def test_zero_weights_give_symmetric_force():
    agent = zeroed_agent()
    rng = np.random.default_rng(3)
    forces = np.array([agent.sample_step(np.array([0.2, -0.01]), rng)[0].force for _ in range(4000)])
    assert abs(forces.mean()) < 4.0 / math.sqrt(forces.size)
    assert abs((forces > 0).mean() - 0.5) < 0.03


def test_sampling_deterministic_given_seed():
    agent = ctl.PolicyAgent(ctl.ControlConfig(), np.random.default_rng(5))
    a1 = agent.sample_step(np.array([0.1, 0.0]), np.random.default_rng(8))[0]
    a2 = agent.sample_step(np.array([0.1, 0.0]), np.random.default_rng(8))[0]
    assert a1.force == a2.force
    assert np.array_equal(a1.accuracy, a2.accuracy)


def test_log_prob_consistent_with_density():
    agent = ctl.PolicyAgent(ctl.ControlConfig(), np.random.default_rng(6))
    rng = np.random.default_rng(7)
    state = np.array([-0.3, 0.02])
    _, raw, logp = agent.sample_step(state, rng)
    mean = agent.raw_mean(state)
    want = stats.norm.logpdf(raw, loc=mean, scale=np.exp(agent.log_std)).sum()
    assert math.isfinite(logp)
    assert logp == pytest.approx(want, rel=1e-10)


def test_shaped_reward_examples():
    assert ctl.shaped_reward(-0.1, np.array([0.0, 0.0]), 5e-6) == pytest.approx(-0.1)
    assert ctl.shaped_reward(0.0, np.array([100.0, 100.0]), 5e-6) == pytest.approx(5e-4)
    assert ctl.shaped_reward(-0.37, np.array([123.0, 7.0]), 0.0) == -0.37


def test_shaped_reward_monotone_in_accuracy():
    base = ctl.shaped_reward(0.1, np.array([10.0, 10.0]), 5e-6)
    for bump in (1.0, 50.0, 4000.0):
        assert ctl.shaped_reward(0.1, np.array([10.0 + bump, 10.0]), 5e-6) >= base


def test_td_error_zero_critic():
    agent = zeroed_agent()
    tr = ctl.Transition((0.0, 0.0), np.zeros(3), 0.0, reward=0.7, next_state=(1.0, 1.0), done=False)
    assert td_error(agent, tr, 0.99) == pytest.approx(0.7)


def test_td_error_terminal_drops_bootstrap():
    agent = zeroed_agent()
    agent.critic.biases[-1][0] = 2.5  # V() == 2.5 everywhere
    tr = ctl.Transition((0.0, 0.0), np.zeros(3), 0.0, reward=0.7, next_state=(1.0, 1.0), done=True)
    assert td_error(agent, tr, 0.99) == pytest.approx(0.7 - 2.5)


def test_td_error_matches_straight_line():
    agent = ctl.PolicyAgent(ctl.ControlConfig(), np.random.default_rng(9))
    tr = ctl.Transition(
        (0.3, -0.01), np.zeros(3), 0.0, reward=-0.2, next_state=(0.31, -0.005), done=False,
    )
    v_s = float(agent.critic.forward(agent._scaled([tr.state]))[0, 0])
    v_n = float(agent.critic.forward(agent._scaled([tr.next_state]))[0, 0])
    assert td_error(agent, tr, 0.97) == pytest.approx(-0.2 + 0.97 * v_n - v_s, abs=1e-10)


def make_batch(agent, rng, n=24, reward=0.0):
    """Transitions with float-tuple states, as ``control.train`` records them."""
    batch = []
    for _ in range(n):
        s = rng.standard_normal(2) * 0.3
        a, raw, logp = agent.sample_step(tuple(s.tolist()), rng)
        s_next = s + rng.normal(0, 0.01, 2)
        batch.append(ctl.Transition(tuple(s.tolist()), raw, logp, reward, tuple(s_next.tolist()), False))
    return batch


def test_zero_advantage_leaves_actor_unchanged():
    # zero critic and zero rewards make every residual exactly zero
    agent = zeroed_agent(seed=11)
    rng = np.random.default_rng(12)
    # restore a random actor so the check is not trivially about zeros
    agent.actor.flat[:] = ctl.PolicyAgent(agent.cfg, np.random.default_rng(13)).actor.flat
    batch = make_batch(agent, rng, reward=0.0)
    before = [p.copy() for p in param_arrays(agent.actor)] + [agent.log_std.copy()]
    ctl.ppo_update(agent, batch, Adam(), np.random.default_rng(14))
    after = param_arrays(agent.actor) + [agent.log_std]
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


def test_adam_on_the_flat_vector_equals_adam_per_layer():
    """One ``Adam`` over a joined vector leaves the bits ``oracles.adam_step`` leaves on each part, over 50 steps."""
    rng = np.random.default_rng(31)
    parts = [rng.standard_normal(n) for n in (4547, 3, 4417)]  # actor, log-std and critic sizes
    joined = np.concatenate(parts)
    m, v = [np.zeros_like(p) for p in parts], [np.zeros_like(p) for p in parts]
    opt = Adam()
    for t in range(1, 51):
        grads = [rng.standard_normal(p.shape) * 10.0 ** rng.uniform(-6, 3, p.shape) for p in parts]
        opt.step(joined, np.concatenate(grads))
        oracles.adam_step(parts, grads, m, v, t)
    for got, want in ((joined, parts), (opt.m, m), (opt.v, v)):
        assert got.tobytes() == np.concatenate(want).tobytes()


def test_adam_in_place_moments_equal_the_textbook_update():
    """Adam's in-place moment updates give the bits of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g."""
    rng = np.random.default_rng(34)
    params = rng.standard_normal(307)
    want = params.copy()
    m, v = np.zeros_like(want), np.zeros_like(want)
    opt = Adam()
    for t in range(1, 51):
        # Gradients over nine decades, so the products round differently across entries.
        g = rng.standard_normal(params.shape) * 10.0 ** rng.uniform(-6, 3, params.shape)
        opt.step(params, g)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        want -= ADAM_LR * (m / (1.0 - ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS)
    for got, expected in zip([params, opt.m, opt.v], [want, m, v]):
        assert got.tobytes() == expected.tobytes()


def test_adam_step_matches_the_whole_array_oracle():
    """Over 50 steps, ``Adam.step`` leaves the bits ``oracles.adam_step`` leaves: parameters and both moments."""
    rng = np.random.default_rng(35)
    params = rng.standard_normal(4613)
    want = params.copy()
    m, v = np.zeros_like(want), np.zeros_like(want)
    opt = Adam()
    for t in range(1, 51):
        # Gradients over nine decades, both signs, and exact zeros.
        g = rng.standard_normal(params.shape) * 10.0 ** rng.uniform(-6, 3, params.shape)
        g[:: 7 + t] = 0.0
        opt.step(params, g)
        oracles.adam_step([want], [g], [m], [v], t)
    assert opt.t == 50
    for got, expected in zip([params, opt.m, opt.v], [want, m, v]):
        assert got.tobytes() == expected.tobytes()


def test_squash_in_floats_matches_the_numpy_oracle():
    """``PolicyAgent.squash`` gives ``oracles.squash``'s bits on raw vectors over six decades and the clip edges."""
    rng = np.random.default_rng(36)
    n = 100_000
    raws = rng.standard_normal((n, ctl.ACTION_DIM)) * 10.0 ** rng.uniform(-3, 3, (n, ctl.ACTION_DIM))
    edges = [709.0, -709.0, np.nextafter(709.0, 0.0), np.nextafter(-709.0, 0.0), 710.0, -710.0, 0.0, -0.0]
    raws[: len(edges) ** 2, 1:] = [(a, b) for a in edges for b in edges]
    for eta_max in (1e4, 1.0):
        agent = ctl.PolicyAgent(ctl.ControlConfig(eta_max=eta_max), np.random.default_rng(37))
        rows = raws if eta_max == 1e4 else raws[:1000]
        got = [agent.squash(raw) for raw in rows]
        want = [oracles.squash(agent, raw) for raw in rows]
        assert np.array([(a.force, *a.accuracy) for a in got]).tobytes() == \
            np.array([(a.force, *a.accuracy) for a in want]).tobytes()


def test_squash_clips_requests_past_709_as_the_builtin_min():
    """Raw requests at, just past and far past +-709 give the bits of the ``min(-r, 709.0)`` form."""
    agent = ctl.PolicyAgent(ctl.ControlConfig(), np.random.default_rng(37))
    edges = [709.0, -709.0, math.nextafter(709.0, math.inf), math.nextafter(-709.0, -math.inf),
             710.0, -710.0, 1e3, -1e3, 1e308, -1e308, math.inf, -math.inf]
    for r0 in edges:
        for r1 in edges:
            raw = np.array([0.3, r0, r1])
            assert repr(agent.squash(raw)) == repr(oracles.squash_min(agent, raw)), (r0, r1)
    for squash in (agent.squash, lambda raw: oracles.squash_min(agent, raw)):
        with pytest.raises(InputError, match="action fields must be finite"):
            squash(np.array([0.3, math.nan, 1e3]))


def test_layer_arrays_stay_views_of_the_flat_vector():
    agent = ctl.PolicyAgent(ctl.ControlConfig(), np.random.default_rng(32))
    rng = np.random.default_rng(33)
    before = agent.actor.flat.copy()
    ctl.ppo_update(agent, make_batch(agent, rng, reward=1.0), Adam(), rng)
    assert not np.array_equal(agent.actor.flat, before)
    clone = ctl.PolicyAgent.from_dict(agent.to_dict())
    for a in (agent, clone):
        assert a.flat.size == a.actor.flat.size + ctl.ACTION_DIM + a.critic.flat.size
        for part in (a.actor.flat, a.log_std, a.critic.flat):
            assert np.shares_memory(part, a.flat)
    for net in (agent.actor, agent.critic, clone.actor, clone.critic):
        assert net.flat.size == sum(p.size for p in param_arrays(net))
        for p in param_arrays(net):
            assert np.shares_memory(p, net.flat)
    s = np.array([-0.4, 0.02])
    assert np.array_equal(clone.raw_mean(s), agent.raw_mean(s))
    clone.actor.flat[:] = 0.0  # a forward pass sees a write to the flat vector
    assert np.array_equal(clone.raw_mean(s), np.zeros(3))


@pytest.mark.parametrize("net", ["actor", "critic"])
def test_one_nan_gradient_entry_raises(net):
    # One minibatch per epoch; the poisoned net's first gradient must raise
    # before any step, so no parameter and no Adam moment moves.
    agent = ctl.PolicyAgent(ctl.ControlConfig(), np.random.default_rng(34))
    rng = np.random.default_rng(35)
    batch = make_batch(agent, rng, n=8, reward=1.0)
    before = agent.flat.tobytes()
    backward = MLP.backward

    def poisoned(self, acts, grad_out, grads):
        backward(self, acts, grad_out, grads)
        if self is getattr(agent, net):
            grads[2].flat[5] = np.nan  # one entry of the second weight matrix

    opt = Adam()
    with mock.patch.object(MLP, "backward", poisoned):
        with pytest.raises(TrainingError, match=f"non-finite {net} gradients"):
            ctl.ppo_update(agent, batch, opt, rng)
    assert agent.flat.tobytes() == before
    assert opt.t == 0 and opt.m is None


def test_overflowing_raw_actions_raise_before_any_step():
    """Raw actions of 1e200 overflow z*z: the log-std gradient is NaN while the mean's is a finite 0.

    The actor check must see the log-std gradient, or Adam writes NaN into ``log_std``.
    """
    agent = ctl.PolicyAgent(ctl.ControlConfig(), np.random.default_rng(36))
    rng = np.random.default_rng(37)
    batch = [
        t._replace(raw_action=np.full_like(t.raw_action, 1e200))
        for t in make_batch(agent, rng, n=8, reward=1.0)
    ]
    before = agent.flat.tobytes()
    opt = Adam()
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match="non-finite actor gradients"):
        ctl.ppo_update(agent, batch, opt, rng)
    assert agent.flat.tobytes() == before
    assert opt.t == 0


def test_critic_gradient_matches_fd_three_weight_net():
    rng = np.random.default_rng(15)
    net = MLP((2, 1), rng)  # two weights and one bias
    x = rng.standard_normal((5, 2))
    target = rng.standard_normal(5)

    def loss(flat):
        net.flat[:] = flat
        err = net.forward(x)[:, 0] - target
        return float(np.mean(err * err))

    flat = net.flat.copy()
    out, acts = net.forward_cached(x)
    ana = np.empty_like(flat)
    net.backward(acts, (2.0 * (out[:, 0] - target) / 5.0)[:, None], net.views(ana))
    num = np.zeros_like(flat)
    for i in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[i] += 1e-6
        dn[i] -= 1e-6
        num[i] = (loss(up) - loss(dn)) / 2e-6
    net.flat[:] = flat
    assert np.max(np.abs(ana - num)) < 1e-4


def test_critic_gradient_matches_fd_random_nets():
    rng = np.random.default_rng(16)
    for sizes in ((2, 8, 1), (3, 5, 4, 1)):
        net = MLP(sizes, rng)
        x = rng.standard_normal((7, sizes[0]))
        target = rng.standard_normal(7)
        out, acts = net.forward_cached(x)
        ana = np.empty_like(net.flat)
        net.backward(acts, (2.0 * (out[:, 0] - target) / 7.0)[:, None], net.views(ana))
        flat = net.flat.copy()

        def loss(v):
            net.flat[:] = v
            err = net.forward(x)[:, 0] - target
            return float(np.mean(err * err))

        num = np.zeros_like(flat)
        for i in range(flat.size):
            up, dn = flat.copy(), flat.copy()
            up[i] += 1e-6
            dn[i] -= 1e-6
            num[i] = (loss(up) - loss(dn)) / 2e-6
        net.flat[:] = flat
        rel = np.max(np.abs(ana - num) / (np.abs(num) + 1e-6))
        assert rel < 1e-3


def test_critic_moves_toward_td_target():
    agent = ctl.PolicyAgent(ctl.ControlConfig(), np.random.default_rng(17))
    rng = np.random.default_rng(18)
    s = np.array([0.2, -0.03])
    tr = ctl.Transition(s, np.zeros(3), 0.0, reward=1.0, next_state=s, done=True)
    before_gap = abs(1.0 - float(oracles.value(agent, s)[0]))
    ctl.ppo_update(agent, [tr] * 16, Adam(), rng)
    after_gap = abs(1.0 - float(oracles.value(agent, s)[0]))
    assert after_gap < before_gap


def test_scripted_controller_signs():
    push, pull = ctl.ActionVector(1.0, (100.0, 100.0)), ctl.ActionVector(-1.0, (100.0, 100.0))
    assert ctl.scripted_controller(np.array([0.0, 0.05]), push, pull) is push
    assert ctl.scripted_controller(np.array([0.0, -0.05]), push, pull) is pull
    assert ctl.scripted_controller(np.array([0.0, 0.0]), push, pull) is push


def test_scripted_controller_rejects_a_state_that_is_not_a_pair_of_finite_numbers():
    push, pull = ctl.ActionVector(1.0, (100.0, 100.0)), ctl.ActionVector(-1.0, (100.0, 100.0))
    for state in ([0.05], [0.0, 0.05, 0.0], [0.0, 0.05, math.nan], np.zeros(3), 0.05):
        with pytest.raises(InputError, match="state must be two finite numbers"):
            ctl.scripted_controller(state, push, pull)
    for state in ([math.nan, 0.05], [0.0, math.inf], np.array([-math.inf, 0.0])):
        with pytest.raises(InputError, match="state must be finite"):
            ctl.scripted_controller(state, push, pull)


def test_action_checks_finiteness_then_force_then_requests():
    """Each check reports the first failing rule in order; a request list of any length, even none, is read."""
    for force, accuracy, line in [
        (math.nan, ("not read",), "action fields must be finite"),
        (2.0, (1.0, math.inf), "action fields must be finite"),
        (0.5, (-1.0, math.nan), "action fields must be finite"),
        (2.0, (-1.0, 1.0), "force outside [-1, 1]"),
        (0.5, (1.0, 2.0, -1e-300), "accuracy requests must be nonnegative"),
    ]:
        with pytest.raises(InputError) as caught:
            ctl.ActionVector(force, accuracy)
        assert str(caught.value) == line
    for accuracy in ((), (-0.0, 0.0), (0.0, 1.0, 2.0)):
        assert ctl.ActionVector(1.0, accuracy).accuracy is accuracy


def test_scripted_controller_reaches_goal_quickly():
    # pure dynamics, no noise: the pump must summit in under 200 intervals
    model = dyn.plant((0.0, 0.0))
    s = np.array([-0.5, 0.0])
    normals = per_call_normals(np.random.default_rng(0))
    push, pull = ctl.ActionVector(1.0, (0.0, 0.0)), ctl.ActionVector(-1.0, (0.0, 0.0))
    for t in range(200):
        a = ctl.scripted_controller(s, push, pull)
        s = dyn.step(model, s, a.force, normals)
        if s[0] >= 0.45:
            break
    assert s[0] >= 0.45
    assert t < 199


def test_agent_serialization_round_trip():
    agent = ctl.PolicyAgent(ctl.ControlConfig(), np.random.default_rng(19))
    clone = ctl.PolicyAgent.from_dict(agent.to_dict())
    s = np.array([-0.4, 0.02])
    assert np.array_equal(agent.raw_mean(s), clone.raw_mean(s))
    assert np.array_equal(agent.log_std, clone.log_std)
    a1, a2 = agent.act_mean(s), clone.act_mean(s)
    assert a1.force == a2.force
    assert np.array_equal(a1.accuracy, a2.accuracy)


def test_zero_episode_training_returns_initial_params():
    from reverb.config import RunConfig
    from reverb.schemes import build_loop

    cfg = RunConfig()
    agent, curve = ctl.train(
        lambda rng: build_loop(cfg, "AoL-REVERB", rng), 0, ctl.ControlConfig(), seed=4, qi_cap=cfg.qi_cap
    )
    init_rng = np.random.default_rng(np.random.SeedSequence(4).spawn(4)[0])
    reference = ctl.PolicyAgent(ctl.ControlConfig(), init_rng)
    assert curve == []
    for p, q in zip(param_arrays(agent.actor), param_arrays(reference.actor)):
        assert np.array_equal(p, q)


def test_training_deterministic_given_seed():
    from reverb.config import RunConfig
    from reverb.schemes import build_loop

    cfg = RunConfig()
    results = []
    for _ in range(2):
        agent, curve = ctl.train(
            lambda rng: build_loop(cfg, "AoL-REVERB", rng), 3, cfg.control, seed=21, qi_cap=120
        )
        results.append((
            [(s.shaped_return, s.qis, s.reached_goal) for s in curve],
            agent.actor.flat.copy(),
        ))
    assert results[0][0] == results[1][0]
    assert np.array_equal(results[0][1], results[1][1])
    assert all(math.isfinite(r) for r, _, _ in results[0][0])


@pytest.mark.parametrize("done_at", [None, 3])
def test_episode_stats_match_the_steps_run(done_at):
    """Each EpisodeStats agrees with the steps its loop ran: a timeout at qi_cap, or the goal."""
    from reverb.config import RunConfig
    from reverb.schemes import build_loop

    cfg = RunConfig()
    runs = []

    def make_loop(rng):
        loop = build_loop(cfg, "AoL-REVERB", rng)
        run = []
        step = loop.step

        def recorded_step(force, accuracy):
            res = step(force, accuracy)
            if done_at is not None:
                res = res._replace(done=len(run) + 1 == done_at)
            run.append((np.array(accuracy, dtype=float), res))
            return res

        loop.step = recorded_step
        runs.append(run)
        return loop

    _, curve = ctl.train(make_loop, 2, cfg.control, seed=5, qi_cap=6)
    assert len(curve) == len(runs) == 2
    for stats, run in zip(curve, runs):
        env_return = shaped_return = 0.0
        for accuracy, res in run:
            env_return += res.reward_env
            shaped_return += ctl.shaped_reward(res.reward_env, accuracy, cfg.control.kappa)
        assert stats.qis == len(run) == (done_at or 6)
        assert stats.reached_goal == (done_at is not None) == run[-1][1].done
        assert stats.env_return == env_return
        assert stats.shaped_return == shaped_return


def box_states(n_side=45):
    """A grid over the mountain-car box, its edges and corners included: n_side² states."""
    xs = np.linspace(dyn.POSITION_MIN, dyn.POSITION_MAX, n_side)
    vs = np.linspace(-dyn.VELOCITY_MAX, dyn.VELOCITY_MAX, n_side)
    return [(x, v) for x in xs.tolist() for v in vs.tolist()]


@pytest.fixture(scope="module")
def trained_agent():
    """The agent a 5-episode ``control.train`` leaves."""
    from reverb.config import RunConfig
    from reverb.schemes import build_loop

    cfg = RunConfig()
    agent, _ = ctl.train(lambda rng: build_loop(cfg, "AoL-REVERB", rng), 5, cfg.control, seed=3, qi_cap=200)
    return agent


def learner_agents(trained):
    """Fresh agents from several seeds, two with log-stds drawn across their range, and a trained one."""
    agents = [ctl.PolicyAgent(ctl.ControlConfig(), np.random.default_rng(seed)) for seed in range(40, 45)]
    rng = np.random.default_rng(45)
    for agent in agents[3:]:
        agent.log_std[:] = rng.uniform(ctl.LOG_STD_MIN, ctl.LOG_STD_MAX, ctl.ACTION_DIM)
    return agents + [trained]


def test_one_row_forward_is_row_zero_of_the_batch_forward(trained_agent):
    """The 1-D pass gives the bits of the 2-D pass over the same single row.

    The 2-D passes, one row and all the rows at once, with every activation,
    give the bits of ``tanh(h @ W + b)`` with a new array per operation.
    """
    states = box_states()
    assert len(states) >= 2000
    for agent in learner_agents(trained_agent):
        for net in (agent.actor, agent.critic):
            for s in states:
                x = np.array(s) * agent.scale
                one = net.forward(x)
                assert one.shape == (net.sizes[-1],)
                row = net.forward(x[None, :])[0]
                assert one.tobytes() == row.tobytes() == oracles.forward_2d(net, x)[0][0].tobytes()
            batch = agent._scaled(states)
            got, want = net.forward_cached(batch), oracles.forward_2d(net, batch)
            assert [a.tobytes() for a in got[1]] == [a.tobytes() for a in want[1]]


def test_sample_step_and_act_mean_match_the_batch_oracle(trained_agent):
    """(action, raw, logp) and the mean action are bit-equal to the one-row batch learner."""
    states = box_states(23)
    for seed, agent in enumerate(learner_agents(trained_agent)):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for s in states:
            action, raw, logp = agent.sample_step(s, rng)
            want_action, want_raw, want_logp = oracles.sample_step_2d(agent, s, oracle_rng)
            assert action == want_action
            assert raw.tobytes() == want_raw.tobytes()
            assert type(logp) is float and np.float64(logp).tobytes() == np.float64(want_logp).tobytes()
            mean_action = oracles.squash(agent, oracles.forward_2d(agent.actor, agent._scaled(s))[0][0])
            assert agent.act_mean(s) == mean_action


def fixed_batch(agent, rng, n=200):
    """n transitions with float-tuple states, mixed rewards and about one terminal step in ten."""
    batch = []
    for _ in range(n):
        s = np.array([rng.uniform(dyn.POSITION_MIN, dyn.POSITION_MAX), rng.uniform(-0.07, 0.07)])
        _, raw, logp = agent.sample_step(tuple(s.tolist()), rng)
        s_next = s + rng.normal(0.0, 0.01, 2)
        reward, done = float(rng.normal(-0.1, 0.5)), bool(rng.random() < 0.1)
        batch.append(ctl.Transition(tuple(s.tolist()), raw, logp, reward, tuple(s_next.tolist()), done))
    return batch


def run_updates(update, opt, batch, floor, updates=3):
    """The agent ``updates`` updates with ``opt`` leave."""
    agent = ctl.PolicyAgent(ctl.ControlConfig(), np.random.default_rng(50))
    rng = np.random.default_rng(51)
    for _ in range(updates):
        update(agent, batch, opt, rng, log_std_floor=floor)
    return agent


def learner_state(update, batch, floor):
    """The bytes of every array three updates write: the agent's vector and the Adam moments."""
    opt = Adam()
    return [a.tobytes() for a in (run_updates(update, opt, batch, floor).flat, opt.m, opt.v)]


@pytest.mark.parametrize("floor", [ctl.LOG_STD_MIN, 0.45, ctl.INIT_LOG_STD])
def test_ppo_update_matches_the_batch_oracle(floor):
    """Three updates on a fixed 200-transition batch leave the bits the two-Adam, per-minibatch learner leaves.

    The one Adam's moments are the oracle's two states' parts joined in ``agent.flat`` order.
    With the floor at the initial log-std the clip binds, so its place after each step is checked too.
    """
    sampler = ctl.PolicyAgent(ctl.ControlConfig(), np.random.default_rng(50))
    batch = fixed_batch(sampler, np.random.default_rng(52))
    assert len(batch) // ctl.MINIBATCH >= 2 and len(batch) % ctl.MINIBATCH  # several minibatches, the last partial
    opts = oracles.AdamState(), oracles.AdamState()
    want = run_updates(oracles.ppo_update_batch, opts, batch, floor)
    moments = [np.concatenate([*opts[0].m, *opts[1].m]), np.concatenate([*opts[0].v, *opts[1].v])]
    assert learner_state(ctl.ppo_update, batch, floor) == [a.tobytes() for a in (want.flat, *moments)]
    for net in ("actor", "critic"):  # both nets moved
        assert getattr(want, net).flat.tobytes() != getattr(sampler, net).flat.tobytes()
    if floor == ctl.INIT_LOG_STD:  # two updates leave a log-std entry clipped to the floor
        assert (run_updates(ctl.ppo_update, Adam(), batch, floor, updates=2).log_std == floor).any()


def test_ppo_update_gives_the_same_bits_from_tuple_and_array_states():
    sampler = ctl.PolicyAgent(ctl.ControlConfig(), np.random.default_rng(53))
    batch = fixed_batch(sampler, np.random.default_rng(54), n=100)
    arrays = [
        t._replace(state=np.array(t.state), next_state=np.array(t.next_state)) for t in batch
    ]
    floor = ctl.LOG_STD_MIN
    assert learner_state(ctl.ppo_update, batch, floor) == learner_state(ctl.ppo_update, arrays, floor)


def test_one_forward_pass_per_sample_step_and_act_mean():
    """Each per-interval action runs ``MLP.forward_cached`` once, on the actor."""
    agent = ctl.PolicyAgent(ctl.ControlConfig(), np.random.default_rng(55))
    forward_cached = MLP.forward_cached
    nets = []

    def counted(self, x):
        nets.append(self)
        return forward_cached(self, x)

    with mock.patch.object(MLP, "forward_cached", counted):
        agent.sample_step((-0.5, 0.01), np.random.default_rng(56))
        assert nets == [agent.actor]
        agent.act_mean((-0.5, 0.01))
        assert nets == [agent.actor, agent.actor]
