#!/usr/bin/env python3
"""Alternating before/after perfbench pairs, summarised into ``BENCH_<pr>.json``.

    python3 scripts/bench_pairs.py --parent HEAD~1 --pr 19 \\
        --pairs dense=10 --pairs schemes=3 --pairs train=3 --first-seed 101 \\
        --traced-seed 131 --traced-pairs 3

exports the parent commit with ``git archive REV | tar -x`` into a temporary
directory (removed at exit) and runs, one process at a time,

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0

once from the parent's tree and once from the change's tree per pair: the
working tree this script sits in, or ``--change REV`` exported the same way.
Workload W runs its pairs on seeds ``--first-seed`` onwards. Over all pairs,
in the order the ``--pairs`` options are given, the parent runs first on even
pair indices and second on odd ones, so a drift of the host's speed during
the session falls on both sides alike. ``--traced-seed`` adds traced pairs
(``--trace 1``) per workload, ``--traced-pairs`` of them (default 1) on seeds
``--traced-seed`` onwards, alternating the same way.

The JSON file holds, per workload and end-to-end metric, the parent's and the
change's median and quartiles over the pairs, ``change_wins`` (the pairs in
which the change reads strictly better, in the metric's direction from
``BENCHMARK.json``), the ratio of the medians, change over parent, and a
``verdict``:

* ``gain``: the change wins at least 9 in 10 of the pairs, and its median is
  better than the parent's by more than the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more than the
  metric's relative ``bound`` in ``BENCHMARK.json``;
* ``unresolved``: neither.

Then come every run's final JSON line and the traced runs: per per-layer
metric, both sides' medians over the traced pairs, and the same summary as
the end-to-end one with the directions of ``BENCHMARK.json``'s
``per_layer`` list and no bound, so a per-layer change can rest on more
than one pair.

perfbench keeps every timed step, so its ``peak_rss_mb`` grows with the
QIs a run gets through. ``--fixed-work-rss N`` measures the program's own
peak at a fixed amount of work beside it: ``reverb bench --episodes 200
--seed 1`` N times per side, alternating the same way, each in a new
process that prints its ``getrusage`` peak when the command returns. The
file then holds both sides' peaks, their medians and the ratio, change over
parent, under ``fixed_work_rss``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def end_to_end_directions(benchmark: dict) -> dict[str, str]:
    """End-to-end metric name -> "higher" or "lower", the direction that reads better."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"]}


def per_layer_directions(benchmark: dict) -> dict[str, str]:
    """Per-layer metric name -> "higher" or "lower", the direction that reads better."""
    return {m["name"]: m["better"] for m in benchmark["per_layer"]}


def end_to_end_bounds(benchmark: dict) -> dict[str, float]:
    """End-to-end metric name -> the relative change of its median that counts as worse."""
    return {m["name"]: m["bound"] for m in benchmark["end_to_end"]}


def parse_output(stdout: str) -> tuple[dict, dict]:
    """(the ``env`` line's fields, the final JSON line) of one ``perfbench/run.py`` run."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    if not lines:
        raise ValueError("perfbench printed nothing")
    return env, json.loads(lines[-1])


def machine(env: dict) -> str:
    return f"{env.get('nproc')}-vCPU {env.get('cpu')}, Python {env.get('python')}, numpy {env.get('numpy')}"


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def change_wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change reads strictly better; a tie is no win."""
    return sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> str:
    """``gain``, ``worse`` or ``unresolved`` for one metric's paired values (see the module text).

    ``bound`` None never reads ``worse``.
    """
    sign = 1.0 if better == "higher" else -1.0
    gap = sign * (statistics.median(change) - statistics.median(parent))
    q1, q3 = quartiles(parent)
    if 10 * change_wins(parent, change, better) >= 9 * len(parent) and gap > q3 - q1:
        return "gain"
    if bound is not None and gap < -bound * abs(statistics.median(parent)):
        return "worse"
    return "unresolved"


def summarize(runs: list[dict], directions: dict[str, str], bounds: dict[str, float] | None = None) -> dict:
    """Per workload: pairs, all_correct and, per metric, medians, quartiles, change_wins, ratio and verdict.

    ``runs`` holds ``{"workload", "seed", "side", "result"}`` entries, one per
    side of every pair; a pair is the parent and change runs of one workload
    and seed. ``bounds`` holds each metric's bound for ``verdict``.
    """
    pairs: dict[str, dict[int, dict[str, dict]]] = {}
    for run in runs:
        pairs.setdefault(run["workload"], {}).setdefault(run["seed"], {})[run["side"]] = run["result"]
    summary = {}
    for workload, by_seed in pairs.items():
        complete = [sides for sides in by_seed.values() if {"parent", "change"} <= sides.keys()]
        entry = {
            "pairs": len(complete),
            "all_correct": all(r.get("correct", False) for sides in complete for r in sides.values()),
        }
        for name, better in directions.items():
            try:
                parent = [sides["parent"]["metrics"][name]["value"] for sides in complete]
                change = [sides["change"]["metrics"][name]["value"] for sides in complete]
            except KeyError:
                continue
            if not parent:
                continue
            p_med, c_med = statistics.median(parent), statistics.median(change)
            entry[name] = {
                "parent_median": p_med,
                "parent_q1_q3": quartiles(parent),
                "change_median": c_med,
                "change_q1_q3": quartiles(change),
                "change_wins": change_wins(parent, change, better),
                "ratio": c_med / p_med if p_med else None,
                "verdict": verdict(parent, change, better, (bounds or {}).get(name)),
            }
        summary[workload] = entry
    return summary


def compare_traced(runs: list[dict]) -> dict:
    """Per workload and per-layer metric: the parent's and the change's median over the traced pairs."""
    values: dict[str, dict] = {}
    for run in runs:
        side = values.setdefault(run["workload"], {})
        for name, metric in run["result"].get("metrics", {}).items():
            side.setdefault(name, {}).setdefault(run["side"], []).append(metric["value"])
    return {
        workload: {name: {side: statistics.median(v) for side, v in sides.items()} for name, sides in metrics.items()}
        for workload, metrics in values.items()
    }


def export(rev: str, into: Path) -> Path:
    """``git archive REV | tar -x`` into a new directory ``into``; returns ``into``."""
    into.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit(f"error: could not export {rev!r}")
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return parse_output(proc.stdout)


# The fixed work of ``--fixed-work-rss``, and the process that runs it and prints its peak RSS.
FIXED_WORK = ("bench", "--episodes", "200", "--seed", "1")
RSS_PROBE = (
    "import json, resource, sys\n"
    "sys.path.insert(0, 'src')\n"
    "from reverb.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0\n"
    "print('peak_rss ' + json.dumps({'exit': code, 'peak_rss_mb': peak}))\n"
)


def parse_rss(stdout: str) -> float:
    """The peak RSS in MB that one ``RSS_PROBE`` run printed last; a run whose command failed raises."""
    lines = [ln for ln in stdout.splitlines() if ln.startswith("peak_rss ")]
    if not lines:
        raise ValueError("the fixed-work run printed no peak_rss line")
    probe = json.loads(lines[-1][len("peak_rss "):])
    if probe["exit"] != 0:
        raise ValueError(f"the fixed-work command exited {probe['exit']}")
    return probe["peak_rss_mb"]


def run_fixed_work(trees: dict[str, Path], runs: int, out: Path) -> list[dict]:
    """``runs`` fixed-work runs per side, the parent first on even indices; one entry per run."""
    results = []
    for index in range(runs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            cmd = [sys.executable, "-c", RSS_PROBE, *FIXED_WORK, "--out", str(out / f"{side}-{index}")]
            proc = subprocess.run(cmd, cwd=trees[side], capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"error: fixed-work run in {trees[side]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            peak = parse_rss(proc.stdout)
            results.append({"index": index, "side": side, "peak_rss_mb": peak})
            print(f"fixed work {index} {side}: {peak:.1f} MB", flush=True)
    return results


def summarize_rss(runs: list[dict]) -> dict:
    """Per side, the peaks in run order and their median; and the ratio of the medians, change over parent."""
    summary = {}
    for side in ("parent", "change"):
        peaks = [r["peak_rss_mb"] for r in runs if r["side"] == side]
        summary[side] = {"peak_rss_mb": peaks, "median": statistics.median(peaks)}
    summary["ratio"] = summary["change"]["median"] / summary["parent"]["median"]
    return summary


def run_pairs(trees: dict[str, Path], plan: list[tuple[str, int]], seconds: float,
              trace: int) -> tuple[list[dict], dict]:
    """One pair per (workload, seed) of ``plan``, the parent first on even pair indices."""
    runs, env = [], {}
    for index, (workload, seed) in enumerate(plan):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            env, result = run_once(trees[side], workload, seed, seconds, trace)
            runs.append({"workload": workload, "seed": seed, "side": side, "result": result})
            value = result.get("metrics", {}).get("qi_per_s", {}).get("value")
            shown = f"{value:.1f} qi/s" if value is not None else "traced"
            print(f"{workload} seed {seed} {side}: {shown}, correct {result.get('correct')}", flush=True)
    return runs, env


def parse_pairs(specs: list[str]) -> list[tuple[str, int]]:
    out = []
    for spec in specs:
        name, _, count = spec.partition("=")
        if not name or not count.isdigit() or int(count) < 1:
            raise SystemExit(f"error: bad --pairs {spec!r}; expected WORKLOAD=N with N >= 1")
        out.append((name, int(count)))
    return out


def pair_plan(workloads: list[tuple[str, int]], first_seed: int) -> list[tuple[str, int]]:
    """(workload, seed) per pair: each workload's N pairs on seeds ``first_seed`` onwards, in order."""
    return [(w, first_seed + i) for w, n in workloads for i in range(n)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--change", help="git revision of the change side (default: this working tree)")
    parser.add_argument("--pr", required=True, help="writes BENCH_<pr>.json at the repository root")
    parser.add_argument("--pairs", action="append", required=True, help="WORKLOAD=N, repeatable")
    parser.add_argument("--first-seed", type=int, required=True, help="each workload's first pair seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--traced-seed", type=int, help="also run traced pairs per workload from this seed")
    parser.add_argument("--traced-pairs", type=int, default=1, help="traced pairs per workload (default 1)")
    parser.add_argument("--fixed-work-rss", type=int, default=0, metavar="N",
                        help="also run `reverb bench --episodes 200 --seed 1` N times per side for its peak RSS")
    parser.add_argument("--note", default="", help="appended to the protocol text")
    args = parser.parse_args(argv)

    workloads = parse_pairs(args.pairs)
    if args.traced_pairs < 1:
        raise SystemExit(f"error: --traced-pairs must be at least 1, got {args.traced_pairs}")
    plan = pair_plan(workloads, args.first_seed)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions, bounds = end_to_end_directions(benchmark), end_to_end_bounds(benchmark)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {
            "parent": export(args.parent, Path(tmp) / "parent"),
            "change": export(args.change, Path(tmp) / "change") if args.change else ROOT,
        }
        runs, env = run_pairs(trees, plan, args.seconds, trace=0)
        traced = None
        if args.traced_seed is not None:
            traced_plan = pair_plan([(w, args.traced_pairs) for w, _ in workloads], args.traced_seed)
            traced_runs, _ = run_pairs(trees, traced_plan, args.seconds, trace=1)
            traced = {
                "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 1",
                "summary": compare_traced(traced_runs),
                "pairs": summarize(traced_runs, per_layer_directions(benchmark)),
                "runs": traced_runs,
            }
        fixed = None
        if args.fixed_work_rss:
            fixed_runs = run_fixed_work(trees, args.fixed_work_rss, Path(tmp) / "fixed_work")
            fixed = {
                "command": "reverb " + " ".join(FIXED_WORK) + " (peak: getrusage ru_maxrss of its own process)",
                "summary": summarize_rss(fixed_runs),
                "runs": fixed_runs,
            }

    change = args.change or "the working tree"
    seeds = ", ".join(f"{w} {args.first_seed}-{args.first_seed + n - 1}" for w, n in workloads)
    protocol = (
        "alternating pairs, parent first on even pair index (the index runs over all pairs in the order "
        f"{', '.join(w for w, _ in workloads)}); parent = git archive of {args.parent}, change = {change}; "
        f"seeds {seeds}; medians and inclusive quartiles over the pairs, change_wins = pairs where the "
        "change reads better, verdict = gain (wins >= 9/10 of the pairs and the median gap exceeds the "
        "parent's IQR), worse (the median is worse by more than the metric's bound) or unresolved"
    )
    if traced:
        last = args.traced_seed + args.traced_pairs - 1
        protocol += (f"; traced runs: {args.traced_pairs} pair(s) per workload, seeds {args.traced_seed}-{last}, "
                     "summary = medians per side, pairs = the same summary as the end-to-end one, no bound")
    if args.note:
        protocol += f"; {args.note}"
    payload = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "protocol": protocol,
        "machine": machine(env),
        "summary": summarize(runs, directions, bounds),
        "runs": runs,
    }
    if traced:
        payload["traced"] = traced
    if fixed:
        payload["fixed_work_rss"] = fixed
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
