"""The loop's block stream of standard normals against per-call draws.

``loop.NormalStream`` hands the plant, the sensors and the uplinks their
normals from blocks drawn ahead. Its oracle is ``oracles.per_call_normals``,
one ``standard_normal(n)`` call per take on a twin generator: whole episodes
run with either must give the same step results and the same episode CSV.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

from reverb import loop as loop_module
from reverb import schemes
from reverb.config import SCHEMES, RunConfig, config_from_dict
from reverb.loop import BLOCK, NormalStream
from reverb.recordio import EPISODE_COLUMNS

from oracles import per_call_normals


@pytest.mark.parametrize(
    "sizes, refills",
    [
        # Each refill lands where a block ends; the last asks for more than a block.
        ([0, 1, BLOCK - 1, 0, BLOCK, BLOCK + 1, 0], [BLOCK, BLOCK + 1]),
        # The first refill keeps BLOCK-1 unread normals ahead of the new block.
        ([1, BLOCK, BLOCK - 1, 0, BLOCK + 1], [BLOCK, BLOCK + 1]),
    ],
    ids=["at block ends", "keeping a tail"],
)
def test_takes_across_two_refills_are_one_big_draw(sizes, refills):
    """Sizes 0, 1, BLOCK-1, BLOCK and BLOCK+1 return the numbers of one draw, in order, one call per block."""
    generator = mock.Mock(wraps=np.random.default_rng(17))
    stream = NormalStream(generator)
    taken = [stream.take(n) for n in sizes]
    want = np.random.default_rng(17).standard_normal(sum(sizes)).tolist()
    assert [len(t) for t in taken] == sizes
    assert all(type(t) is list for t in taken)
    assert [x for t in taken for x in t] == want
    assert [c.args for c in generator.mock_calls] == [(BLOCK,)] + [(n,) for n in refills]
    assert [c[0] for c in generator.mock_calls] == ["standard_normal"] * (1 + len(refills))


def test_a_take_is_a_new_list():
    stream = NormalStream(np.random.default_rng(3))
    first = stream.take(4)
    first[:] = [0.0] * 4
    assert stream.take(4) == np.random.default_rng(3).standard_normal(8).tolist()[4:]


class PerCallStream:
    """A stream whose ``take`` is the per-call oracle on the generator the loop hands it."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.take = per_call_normals(rng)


def run(cfg: RunConfig, scheme: str, seed: int, per_call: bool):
    """``schemes.run_episode``'s record and every ``StepResult`` its loop returned."""
    steps = []
    step = loop_module.TwinLoop.step

    def recorded(twin, force, accuracy):
        res = step(twin, force, accuracy)
        steps.append(res)
        return res

    with contextlib.ExitStack() as patches:
        patches.enter_context(mock.patch.object(loop_module.TwinLoop, "step", recorded))
        if per_call:
            patches.enter_context(mock.patch.object(loop_module, "NormalStream", PerCallStream))
        record = schemes.run_episode(cfg, scheme, schemes.make_policy(cfg), seed)
    return record, steps


HEADLINE = RunConfig()
DENSE = config_from_dict({"cap": 30, "scripted_accuracy": [10000.0, 60000.0], "fleet": {"n_agents": 60}})
# No accuracy request, so AoL-REVERB transmits only when a feature's age runs out.
LOOSE = config_from_dict({"scripted_accuracy": [0.0, 0.0]})

CASES = [(HEADLINE, scheme, 3) for scheme in SCHEMES] + [(DENSE, "AoL-REVERB", 3), (LOOSE, "AoL-REVERB", 4)]


@pytest.mark.parametrize(
    "cfg, scheme, seed", CASES, ids=[f"headline-{s}" for s in SCHEMES] + ["dense", "blind-rounds"]
)
def test_episodes_equal_those_of_per_call_draws(cfg, scheme, seed):
    record, steps = run(cfg, scheme, seed, per_call=False)
    want_record, want_steps = run(cfg, scheme, seed, per_call=True)
    assert len(steps) == len(want_steps) == record.qis > 0
    # repr spells every float exactly, so equal reprs are equal bits (-0.0 included).
    for got, want in zip(steps, want_steps):
        assert repr(got) == repr(want)
    for column in EPISODE_COLUMNS:
        assert repr(list(record.columns[column])) == repr(list(want_record.columns[column])), column
    assert record.reached_goal == want_record.reached_goal


def test_the_cases_cover_refills_an_early_goal_and_blind_rounds():
    """The dense episode crosses blocks, one episode ends at the goal within its first block, one has blind rounds."""
    dense, dense_steps = run(DENSE, "AoL-REVERB", 3, per_call=False)
    normals = sum(2 + 3 * len(res.schedule.selected) for res in dense_steps)
    assert normals > 2 * BLOCK
    short, short_steps = run(HEADLINE, "Perfect", 3, per_call=False)
    assert short.reached_goal and short.qis < HEADLINE.qi_cap and 2 * short.qis < BLOCK
    _, loose_steps = run(LOOSE, "AoL-REVERB", 4, per_call=False)
    blind = [res.schedule.blind for res in loose_steps]
    assert any(blind) and not all(blind)
