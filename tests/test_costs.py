"""Exact per-QI cost counts: no package call, numpy entry, builtin call or draw may rise above ``tests/costs.json``."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from reverb import aol, runner, sensing
from reverb import estimator as est
from reverb.config import RunConfig

import oracles

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden_outputs", ROOT / "scripts" / "golden_outputs.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_per_qi_costs_do_not_rise_above_the_recorded_counts():
    """Every scheme's episode, the ``dense`` episode and a short training, counted again.

    A count below its record passes: the change that lowered it re-records
    the file (``scripts/golden_outputs.py --costs tests/costs.json``).
    """
    want = json.loads((ROOT / "tests" / "costs.json").read_text())
    got = golden.all_costs()
    assert got.keys() == want["runs"].keys()
    for name, costs in got.items():
        assert costs["qis"] == want["runs"][name]["qis"], name
    risen = golden.cost_increases(got, want["runs"])
    assert not risen, (
        f"per-QI costs rose above tests/costs.json: {risen}; it was recorded with "
        f"{want['versions']}, this run has {golden.versions()} (numpy's own Python calls "
        "and Python's profile events can differ between versions)"
    )
    # One more call of anything, or a function never called before, is caught; so is a clip's
    # ``min`` back on the per-QI path.
    more = {
        name: {**costs, "package": dict(costs["package"]), "builtins": dict(costs["builtins"])}
        for name, costs in got.items()
    }
    more["Perfect"]["package"]["reverb.loop.TwinLoop.step"] += 1
    # Perfect's round replaces the belief, so a prediction back in its step is work thrown away.
    perfect_qis = got["Perfect"]["qis"]
    more["Perfect"]["package"]["reverb.estimator.predict"] = perfect_qis
    # Perfect keeps its tracker once the ages are (1, 1), so an age transition back in every round is
    # work thrown away too.
    perfect_closes = want["runs"]["Perfect"]["package"]["reverb.aol.AolTracker.close_loop"]
    more["Perfect"]["package"]["reverb.aol.AolTracker.close_loop"] = perfect_qis
    qis, dense_min = got["dense"]["qis"], got["dense"]["builtins"]["builtins.min"]
    more["dense"]["builtins"]["builtins.min"] += qis
    more["train"]["package"]["reverb.dynamics.finite_difference_jacobian"] = 1
    assert golden.cost_increases(more, want["runs"]) == [
        f"Perfect package reverb.aol.AolTracker.close_loop: 1 per QI, recorded {perfect_closes / perfect_qis:.4g}",
        f"Perfect package reverb.loop.TwinLoop.step: {1 + 1 / perfect_qis:.4g} per QI, recorded 1",
        "Perfect package reverb.estimator.predict: 1 per QI, recorded 0",
        f"dense builtins builtins.min: {dense_min / qis + 1:.4g} per QI, recorded {dense_min / qis:.4g}",
        f"train package reverb.dynamics.finite_difference_jacobian: {1 / got['train']['qis']:.4g} per QI, "
        "recorded 0",
    ]


def test_cost_changes_name_every_moved_count_per_qi():
    """Canned counts: a count that moved per QI is listed, old then new, whichever side lacks it; others are not."""
    empty = {kind: {} for kind in golden.COST_KINDS}
    old = {
        "a": {**empty, "qis": 10, "package": {"f": 10, "g": 5, "gone": 3}, "builtins": {"builtins.len": 20}},
        "only_old": {**empty, "qis": 1, "package": {"f": 1}},
    }
    new = {
        "a": {**empty, "qis": 20, "package": {"f": 20, "g": 5, "new": 2}, "builtins": {"builtins.len": 40}},
        "only_new": {**empty, "qis": 1, "package": {"f": 9}},
    }
    assert golden.cost_changes(new, old) == [
        "a package g: 0.5 → 0.25 per QI",
        "a package gone: 0.3 → 0 per QI",
        "a package new: 0 → 0.1 per QI",
    ]
    assert golden.cost_changes(old, old) == []


def test_the_counter_sees_package_calls_numpy_entries_and_draws():
    """A hand-made run: its calls, its numpy entries (not numpy's inner calls), its builtin calls and its draws."""
    fleet = sensing.generate_fleet(sensing.FleetConfig(n_agents=4), np.random.default_rng(0))
    counter = golden.CostCounter()
    normals = oracles.per_call_normals(golden.CountingGenerator(np.random.default_rng(1), counter.draws))

    def run():
        for _ in range(3):
            sensing.observe(fleet, [0, 1], (0.1, 0.2), normals)
        np.mean(np.zeros(3))
        aol.AolTracker.fresh([2, 3])  # one ``min`` and one ``len`` in the package
        min(1, 2)  # outside the package: not counted

    sys.setprofile(counter)
    try:
        run()
    finally:
        sys.setprofile(None)
    # The fleet's cached tuples are computed on first use, once.
    assert counter.package == {
        "reverb.sensing.observe": 3, "reverb.sensing.SensorFleet.features": 1,
        "reverb.sensing.SensorFleet.noise_vars": 1, "reverb.sensing.SensorFleet.noise_stds": 1,
        "reverb.aol.AolTracker.fresh": 1,
    }
    # ``observe``'s ``len(ids)``, and ``fresh``'s ``min`` and ``len``; no type called or method.
    assert counter.builtins == {"builtins.len": 4, "builtins.min": 1}
    assert counter.draws == {"standard_normal": 3}
    # ``np.mean``'s Python body counts once; its dispatcher and inner calls do not.
    mean = [name for name in counter.numpy if name.endswith("fromnumeric.mean")]
    assert len(mean) == 1
    assert counter.numpy == {"numpy.ndarray.tolist": 3, "numpy.zeros": 1, mean[0]: 1}


def test_the_kalman_kernel_calls_no_builtin():
    """``estimator.rank1_update`` checks with comparisons: no ``abs`` or other builtin per pick, on either k,
    through the jitter retry too."""
    counter = golden.CostCounter()
    sys.setprofile(counter)
    try:
        est.rank1_update(2e-2, 1e-3, 1e-3, 1e-2, 0, 1e-3)
        est.rank1_update(2e-2, 1e-3, 1e-3, 1e-2, 1, 1e-3)
        est.rank1_update(0.0, 0.0, 0.0, 1.0, 0, 0.0)
    finally:
        sys.setprofile(None)
    assert counter.package == {"reverb.estimator.rank1_update": 3}
    assert counter.builtins == {}


def test_an_episode_builds_one_column_dict_for_the_metrics_and_perfbench():
    """``runner.monte_carlo``'s ``compute_metrics`` builds the dict; perfbench's two reads of it reuse it."""
    sys.path.append(str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    counter = golden.CostCounter()
    sys.setprofile(counter)
    try:
        _, (record,) = runner.monte_carlo(RunConfig(seed=golden.COSTS_SEED), 1, scheme="AoL-REVERB")
        built = record._columns
        facts = workloads._episode_facts(record)
    finally:
        sys.setprofile(None)
    # Three reads of ``columns``: one by ``compute_metrics``, two by ``_episode_facts``; one dict serves them all.
    assert counter.package["reverb.recordio.EpisodeRecord.columns"] == 3
    assert type(built) is dict and record._columns is built and facts["qis"] == record.qis
