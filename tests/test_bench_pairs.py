"""``scripts/bench_pairs.py``'s parsing and summary on canned perfbench output; nothing is run."""

import importlib.util
import json
from pathlib import Path

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
