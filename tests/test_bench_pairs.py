"""``scripts/bench_pairs.py``'s parsing and summary on canned perfbench output; nothing is run."""

import importlib.util
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DIRECTIONS = bench_pairs.end_to_end_directions(json.loads((ROOT / "BENCHMARK.json").read_text()))


def result_line(qi_per_s, p50, rss, failure_prob=0.25, correct=True):
    metrics = {
        "qi_per_s": {"value": qi_per_s, "unit": "qi/s"},
        "step_us_p50": {"value": p50, "unit": "us"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "failure_prob": {"value": failure_prob, "unit": "ratio"},
    }
    return json.dumps({"correct": correct, "attempted": 10, "failed": 0 if correct else 1, "metrics": metrics})


def stdout_of(line):
    env = {"nproc": 2, "cpu": "Test CPU", "python": "3.11.7", "numpy": "2.4.6"}
    return f"env {json.dumps(env)}\n== dense (untraced) ==\n  qi_per_s  1 qi/s\n{line}\n"


def canned_runs():
    """Three dense pairs and one schemes pair, as ``run_pairs`` records them."""
    lines = {
        ("dense", 1, "parent"): result_line(100.0, 10.0, 50.0),
        ("dense", 1, "change"): result_line(120.0, 8.0, 52.0),
        ("dense", 2, "change"): result_line(130.0, 9.0, 51.0),
        ("dense", 2, "parent"): result_line(110.0, 9.5, 50.0),
        ("dense", 3, "parent"): result_line(90.0, 11.0, 49.0),
        ("dense", 3, "change"): result_line(85.0, 7.0, 49.0),
        ("schemes", 1, "parent"): result_line(200.0, 5.0, 60.0),
        ("schemes", 1, "change"): result_line(210.0, 4.0, 61.0, correct=False),
    }
    runs = []
    for (workload, seed, side), line in lines.items():
        env, result = bench_pairs.parse_output(stdout_of(line))
        assert bench_pairs.machine(env) == "2-vCPU Test CPU, Python 3.11.7, numpy 2.4.6"
        runs.append({"workload": workload, "seed": seed, "side": side, "result": result})
    return runs


def test_summary_of_canned_pairs():
    summary = bench_pairs.summarize(canned_runs(), DIRECTIONS)
    dense = summary["dense"]
    assert dense["pairs"] == 3 and dense["all_correct"] is True
    qi = dense["qi_per_s"]
    assert qi["parent_median"] == 100.0 and qi["change_median"] == 120.0
    assert qi["parent_q1_q3"] == [95.0, 105.0] and qi["change_q1_q3"] == [102.5, 125.0]
    assert qi["change_wins"] == 2 and qi["ratio"] == pytest.approx(1.2)
    # Lower reads better for step time and memory; a tie is no win.
    assert dense["step_us_p50"]["change_wins"] == 3
    assert dense["peak_rss_mb"]["change_wins"] == 0 and dense["peak_rss_mb"]["ratio"] == pytest.approx(51.0 / 50.0)
    assert dense["failure_prob"]["change_wins"] == 0 and dense["failure_prob"]["ratio"] == 1.0
    # Metrics absent from the runs are left out.
    assert "setup_s" not in dense
    schemes = summary["schemes"]
    assert schemes["pairs"] == 1 and schemes["all_correct"] is False
    assert schemes["qi_per_s"]["parent_q1_q3"] == [200.0, 200.0] and schemes["qi_per_s"]["change_wins"] == 1


def test_an_unpaired_run_is_left_out_of_the_summary():
    runs = canned_runs() + [{"workload": "dense", "seed": 9, "side": "parent",
                             "result": json.loads(result_line(1.0, 1.0, 1.0))}]
    assert bench_pairs.summarize(runs, DIRECTIONS)["dense"] == bench_pairs.summarize(canned_runs(), DIRECTIONS)["dense"]


def test_traced_comparison_and_pair_specs():
    runs = [
        {"workload": "dense", "seed": 5, "side": side,
         "result": {"correct": True, "metrics": {"loop.step.calls_per_qi": {"value": 1.0, "unit": "calls/qi"},
                                                 "loop.step.self_us_per_qi": {"value": us, "unit": "us/qi"}}}}
        for side, us in (("parent", 14.0), ("change", 12.5))
    ]
    assert bench_pairs.compare_traced(runs) == {
        "dense": {"loop.step.calls_per_qi": {"parent": 1.0, "change": 1.0},
                  "loop.step.self_us_per_qi": {"parent": 14.0, "change": 12.5}},
    }
    assert bench_pairs.parse_pairs(["dense=10", "train=3"]) == [("dense", 10), ("train", 3)]
    for bad in ("dense", "dense=0", "=3", "dense=x"):
        with pytest.raises(SystemExit):
            bench_pairs.parse_pairs([bad])


def test_traced_pairs_report_medians_and_a_per_layer_summary():
    def traced(seed, side, us):
        metrics = {"loop.step.self_us_per_qi": {"value": us, "unit": "us/qi"},
                   "scheduler.compute_targets.calls_per_qi": {"value": 1.0 if side == "parent" else 0.01,
                                                              "unit": "calls/qi"}}
        return {"workload": "schemes", "seed": seed, "side": side, "result": {"correct": True, "metrics": metrics}}

    plan = bench_pairs.pair_plan([("schemes", 3)], 131)
    assert plan == [("schemes", 131), ("schemes", 132), ("schemes", 133)]
    timings = {131: (14.0, 12.0), 132: (15.0, 12.5), 133: (13.0, 13.5)}
    runs = [traced(seed, side, us) for _, seed in plan for side, us in zip(("parent", "change"), timings[seed])]
    assert bench_pairs.compare_traced(runs) == {
        "schemes": {"loop.step.self_us_per_qi": {"parent": 14.0, "change": 12.5},
                    "scheduler.compute_targets.calls_per_qi": {"parent": 1.0, "change": 0.01}},
    }
    directions = bench_pairs.per_layer_directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    summary = bench_pairs.summarize(runs, directions)["schemes"]
    assert summary["pairs"] == 3 and summary["all_correct"] is True
    step = summary["loop.step.self_us_per_qi"]
    assert step["change_wins"] == 2 and step["verdict"] == "unresolved"
    assert step["parent_q1_q3"] == [13.5, 14.5] and step["change_q1_q3"] == [12.25, 13.0]
    assert summary["scheduler.compute_targets.calls_per_qi"]["verdict"] == "gain"
    assert bench_pairs.pair_plan([("dense", 2), ("train", 1)], 7) == [("dense", 7), ("dense", 8), ("train", 7)]


BOUNDS = bench_pairs.end_to_end_bounds(json.loads((ROOT / "BENCHMARK.json").read_text()))


def test_verdicts_of_canned_pairs():
    summary = bench_pairs.summarize(canned_runs(), DIRECTIONS, BOUNDS)
    dense = summary["dense"]
    # 3 of 3 step-time wins, and the 2-us median gap exceeds the parent's 0.75-us IQR.
    assert dense["step_us_p50"]["verdict"] == "gain"
    # 2 of 3 wins is short of 9 in 10, however large the gap.
    assert dense["qi_per_s"]["verdict"] == "unresolved"
    # 2% more memory is within the 10% bound; equal values are no gain.
    assert dense["peak_rss_mb"]["verdict"] == "unresolved"
    assert dense["failure_prob"]["verdict"] == "unresolved"
    # One pair that wins is a gain: 1 of 1 and any gap beats a zero IQR.
    assert summary["schemes"]["qi_per_s"]["verdict"] == "gain"
    # Without bounds nothing reads worse.
    slower = [dict(run, result=json.loads(result_line(50.0, 20.0, 50.0))) if run["side"] == "change" else run
              for run in canned_runs()]
    assert bench_pairs.summarize(slower, DIRECTIONS)["dense"]["qi_per_s"]["verdict"] == "unresolved"
    worse = bench_pairs.summarize(slower, DIRECTIONS, BOUNDS)["dense"]
    assert worse["qi_per_s"]["verdict"] == "worse" and worse["step_us_p50"]["verdict"] == "worse"


@pytest.mark.parametrize(
    "parent, change, better, bound, want",
    [
        # 9 of 10 wins and a median gap of 10.5 over an IQR of 4.5: a gain.
        ([100, 101, 102, 103, 104, 105, 106, 107, 108, 109], [115] * 9 + [90], "higher", 0.2, "gain"),
        # The same wins, but a gap of 2.5 within the IQR.
        ([100, 101, 102, 103, 104, 105, 106, 107, 108, 109], [107] * 9 + [90], "higher", 0.2, "unresolved"),
        # 8 of 10 wins.
        ([100] * 10, [120] * 8 + [90] * 2, "higher", 0.2, "unresolved"),
        # A 21% lower throughput against a 20% bound, and a 19% one.
        ([100] * 4, [79] * 4, "higher", 0.2, "worse"),
        ([100] * 4, [81] * 4, "higher", 0.2, "unresolved"),
        # Lower reads better: 26% more step time against a 25% bound; 9 of 10 lower ones win.
        ([10.0] * 4, [12.6] * 4, "lower", 0.25, "worse"),
        ([10.0] * 10, [9.0] * 9 + [11.0], "lower", 0.25, "gain"),
        # A tie is no win.
        ([0.5] * 10, [0.5] * 10, "lower", 0.05, "unresolved"),
    ],
    ids=["gain", "gap-within-iqr", "8-of-10", "worse", "within-bound", "worse-lower", "gain-lower", "ties"],
)
def test_verdict_rule(parent, change, better, bound, want):
    assert bench_pairs.verdict(parent, change, better, bound) == want


def test_fixed_work_rss_parsing_and_summary():
    """A canned fixed-work run: the probe's last ``peak_rss`` line is the peak; a failed command raises."""
    stdout = (
        "AoL-REVERB: 200 episodes, ...\n"
        'peak_rss {"exit": 0, "peak_rss_mb": 99.0}\n'
        'peak_rss {"exit": 0, "peak_rss_mb": 55.25}\n'
    )
    assert bench_pairs.parse_rss(stdout) == 55.25
    with pytest.raises(ValueError, match="exited 1"):
        bench_pairs.parse_rss('peak_rss {"exit": 1, "peak_rss_mb": 30.0}\n')
    with pytest.raises(ValueError, match="no peak_rss line"):
        bench_pairs.parse_rss("error: something\n")
    assert bench_pairs.FIXED_WORK == {
        "schemes": ("bench", "--episodes", "200", "--seed", "1"),
        "dense": ("bench", "--config", "configs/dense.yaml", "--scheme", "AoL-REVERB", "--episodes", "200",
                  "--seed", "1"),
    }
    assert (ROOT / "configs" / "dense.yaml").is_file()
    runs = [
        {"index": 0, "side": "parent", "peak_rss_mb": 60.0},
        {"index": 0, "side": "change", "peak_rss_mb": 54.0},
        {"index": 1, "side": "change", "peak_rss_mb": 56.0},
        {"index": 1, "side": "parent", "peak_rss_mb": 62.0},
        {"index": 2, "side": "parent", "peak_rss_mb": 61.0},
        {"index": 2, "side": "change", "peak_rss_mb": 55.0},
    ]
    summary = bench_pairs.summarize_rss(runs)
    assert summary["parent"] == {"peak_rss_mb": [60.0, 62.0, 61.0], "median": 61.0}
    assert summary["change"] == {"peak_rss_mb": [54.0, 56.0, 55.0], "median": 55.0}
    assert summary["ratio"] == pytest.approx(55.0 / 61.0)


def test_the_rss_probe_prints_its_own_peak():
    """The probe's code, run here on a stand-in ``main``, prints one line ``parse_rss`` reads."""
    import contextlib
    import io
    import types

    work = bench_pairs.FIXED_WORK["dense"]
    cli = types.ModuleType("reverb.cli")
    cli.main = lambda argv: 0 if list(argv) == list(work) else 2
    printed = io.StringIO()
    saved_argv = sys.argv
    sys.argv = ["-c", *work]
    try:
        with mock.patch.dict(sys.modules, {"reverb.cli": cli}), contextlib.redirect_stdout(printed):
            exec(bench_pairs.RSS_PROBE, {})
    finally:
        sys.argv = saved_argv
        if sys.path and sys.path[0] == "src":
            sys.path.pop(0)
    assert bench_pairs.parse_rss(printed.getvalue()) > 0.0


def test_fixed_work_runs_alternate_per_workload_command(tmp_path):
    """Canned processes: each run is the probe on the given command in its side's tree, the parent first on even
    indices, and its printed peak is filed under that side."""
    calls = []

    def fake_run(cmd, cwd, capture_output, text):
        calls.append((cmd, cwd))
        peak = 40.0 + len(calls)
        return mock.Mock(returncode=0, stdout=f'peak_rss {{"exit": 0, "peak_rss_mb": {peak}}}\n', stderr="")

    trees = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    work = bench_pairs.FIXED_WORK["dense"]
    with mock.patch.object(bench_pairs.subprocess, "run", fake_run):
        runs = bench_pairs.run_fixed_work(trees, work, 3, tmp_path / "out")
    assert [(r["index"], r["side"], r["peak_rss_mb"]) for r in runs] == [
        (0, "parent", 41.0), (0, "change", 42.0), (1, "change", 43.0), (1, "parent", 44.0),
        (2, "parent", 45.0), (2, "change", 46.0),
    ]
    for (cmd, cwd), run in zip(calls, runs):
        assert cwd == trees[run["side"]]
        assert cmd[:3] == [sys.executable, "-c", bench_pairs.RSS_PROBE]
        assert cmd[3:] == [*work, "--out", str(tmp_path / "out" / f"{run['side']}-{run['index']}")]
