#!/usr/bin/env python3
"""Closed-loop benchmark of the reverb co-simulator, run from the repository root.

    python3 perfbench/run.py --workload dense --seed 3 --seconds 20 --trace 0

runs one workload and prints its metrics, ending with one JSON line. Without
``--workload`` it runs every workload untraced, then every workload traced,
and checks that both saw identical simulations. See perfbench/README.md.
"""

import os
import sys
import time

_T0 = time.perf_counter()
# Pinned before numpy loads: the benchmark measures one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse
import json
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = json.loads((BENCH / "reference.json").read_text())  # workload -> unit seed -> episode facts
SETUP_REPS = 5
# A run on a heavily loaded host stops after this many times --seconds of wall time.
WALL_CAP = 1.5

W = None  # the workloads module, imported in main() once the source tree is found


@dataclass
class Result:
    workload: str
    traced: bool
    metrics: dict = field(default_factory=dict)     # name -> (value, unit)
    notes: dict = field(default_factory=dict)       # printed, not part of the JSON result
    attempted: int = 0
    failed: int = 0
    seeded: list = field(default_factory=list)      # facts of every timed episode, in order


def run_units(wl, cfg, seeds, col, result: Result) -> list:
    """Run one unit per seed, check each against the package's own report; return the episodes."""
    episodes = []
    for seed in seeds:
        try:
            reported = wl.unit(cfg, seed)
        except W.ReverbError as exc:
            started = col.take()
            result.attempted += max(1, len(started))
            result.failed += 1
            print(f"error: {wl.name} unit seed {seed}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        eps = col.take()
        result.attempted += len(eps)
        result.failed += W.check_reported(reported, eps)
        episodes.extend(eps)
    return episodes


def count_mismatches(expected: list, got: list) -> int:
    """Episodes whose facts differ, plus any missing or extra episodes."""
    bad = sum(not W.same_facts(a, b) for a, b in zip(expected, got))
    return bad + abs(len(expected) - len(got))


def work_time(col, fn):
    """Run ``fn``; return its result, the host seconds it took without host-speed kernels, and its scale."""
    mark = col.speed.mark()
    start = time.perf_counter()
    out = fn()
    host_s = time.perf_counter() - start - col.speed.kernel_s(mark)
    return out, host_s, col.speed.scale(mark)


def run_reference(wl, seeds, col, result: Result):
    """Run the reference units ``seeds`` and check them against reference.json.

    Every episode that differs from its stored facts counts as failed.
    Returns (episodes, reference seconds).
    """
    episodes, host_s, scale = work_time(col, lambda: run_units(wl, wl.config(), seeds, col, result))
    expected = [facts for seed in seeds for facts in REFERENCE[wl.name][str(seed)]]
    result.failed += count_mismatches(expected, [ep.facts() for ep in episodes])
    return episodes, host_s * scale


def setup(wl, seed: int, import_s: float, result: Result) -> list:
    """Package import, config, first fleet and the warm-up unit, ``SETUP_REPS`` times.

    ``setup_s`` is the median repetition in reference seconds; the warm-up
    is the workload's first reference unit. ``setup_base_s`` is the median
    part before the warm-up, ``warmup_s`` the median warm-up. numpy and
    scipy load once per process, before the first repetition; that time is
    printed as ``first_import_s``. Returns the warm-up episodes of the
    first repetition.
    """
    reps, bases, warmups, first = [], [], [], None

    def one_setup():
        start = time.perf_counter()
        W.fresh_import()
        W.first_fleet(wl.config(), seed)
        col.take()
        base_host_s = time.perf_counter() - start   # no step has run, so no host-speed kernel either
        episodes, warmup_s = run_reference(wl, wl.reference_seeds[:1], col, result)
        warmups.append(warmup_s)
        return episodes, base_host_s

    with W.StepCollector() as col:
        for _ in range(SETUP_REPS):
            (episodes, base_host_s), host_s, scale = work_time(col, one_setup)
            reps.append(host_s * scale)
            bases.append(base_host_s * scale)
            first = first or episodes
    result.notes["first_import_s"] = (import_s, "s")
    result.notes["setup_rep_s"] = (reps, "s")
    result.notes["setup_base_s"] = (statistics.median(bases), "s")
    result.notes["warmup_s"] = (statistics.median(warmups), "s")
    result.metrics["setup_s"] = (statistics.median(reps), "s")
    return first


def timed_window(wl, seed: int, seconds: float, col, result: Result) -> list:
    """Run units back to back until they have taken ``seconds`` reference seconds; return the episodes.

    Each unit is scaled to reference seconds by the kernels run during it, so
    how many units run, and which episodes they are, does not depend on how
    loaded the host is. ``qi_per_s`` is the median over units of each unit's
    QIs per reference second.
    """
    cfg = wl.config()
    episodes, rates, host_rates = [], [], []
    measured = 0.0
    col.take()
    start = time.perf_counter()
    while measured < seconds and time.perf_counter() - start < WALL_CAP * seconds:
        seed_i = W.unit_seed(seed, len(rates))
        unit, host_s, scale = work_time(col, lambda: run_units(wl, cfg, [seed_i], col, result))
        qis = sum(ep.qis for ep in unit)
        for ep in unit:
            ep.scale = scale
        measured += host_s * scale
        rates.append(qis / (host_s * scale))
        host_rates.append(qis / host_s)
        episodes.extend(unit)
    result.seeded = [ep.facts() for ep in episodes]
    result.metrics["qi_per_s"] = (statistics.median(rates), "qi/s")
    result.notes["host_qi_per_s"] = (statistics.median(host_rates), "qi/s")
    result.notes["units"] = (len(rates), "count")
    result.notes["episodes"] = (len(episodes), "count")
    result.notes["qis"] = (sum(ep.qis for ep in episodes), "count")
    result.notes["measured_s"] = (measured, "s")
    result.notes["elapsed_s"] = (time.perf_counter() - start, "s")
    return episodes


def run_untraced(wl, seed: int, seconds: float, import_s: float, own_process: bool) -> Result:
    """Set-up, the rest of the reference units once, then the timed window.

    ``peak_rss_mb`` is the process's peak, so it is a metric only when this
    is the process's only workload (``own_process``); otherwise it is
    printed as ``process_peak_rss_mb``.
    """
    result = Result(wl.name, traced=False)
    reference_eps = setup(wl, seed, import_s, result)
    with W.StepCollector() as col:
        reference_eps += run_reference(wl, wl.reference_seeds[1:], col, result)[0]
        episodes = timed_window(wl, seed, seconds, col, result)
    m = result.metrics
    m["step_us_p50"] = (W.step_percentile_us(episodes, 50), "us")
    m["step_us_p90"] = (W.step_percentile_us(episodes, 90), "us")
    peak_rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    if own_process:
        m["peak_rss_mb"] = peak_rss
    else:
        result.notes["process_peak_rss_mb"] = peak_rss
    fid = W.fidelity(reference_eps)
    for name in ("failure_prob", "mrmse", "prbs_per_qi"):
        m[name] = (fid[name], W.FIDELITY_UNITS[name])
    result.notes["goal_rate"] = (fid["goal_rate"], "ratio")
    result.notes["step_us_p99"] = (W.step_percentile_us(episodes, 99), "us")
    result.notes["step_samples"] = (sum(ep.qis for ep in episodes), "count")
    # Report order: the contract's end-to-end list first.
    result.metrics = {k: m[k] for k in W.END_TO_END if k in m}
    return result


def run_traced(wl, seed: int, seconds: float, import_s: float, untraced_warmup_s: float | None) -> Result:
    """The reference units and the timed window with every span installed.

    ``untraced_warmup_s`` is the untraced run's ``warmup_s``; without it the
    set-up runs here first to measure it. The warm-up unit runs
    ``SETUP_REPS`` times traced, and ``trace.overhead_ratio`` compares its
    median time with the untraced one.
    """
    result = Result(wl.name, traced=True)
    if untraced_warmup_s is None:
        setup(wl, seed, import_s, result)
        untraced_warmup_s = result.notes["warmup_s"][0]
    tracer = W.Tracer()
    counts = W.LayerCounts()

    def new_episode(index: int) -> None:
        tracer.request = index

    with W.Patcher() as patcher:
        W.install_spans(patcher, tracer, counts)
        with W.StepCollector(on_episode=new_episode) as col:
            # A span of its own, so kernel time leaves the enclosing spans' self time.
            col.speed = W.HostSpeed(tracer.wrap("perfbench.kernel", W.speed_kernel))
            # Wrappers must not change the simulation: the traced reference
            # units must match reference.json as the untraced ones do.
            warmup_times = [run_reference(wl, wl.reference_seeds[:1], col, result)[1] for _ in range(SETUP_REPS)]
            run_reference(wl, wl.reference_seeds[1:], col, result)
            tracer.reset()
            counts.reset()
            mark = col.speed.mark()
            episodes = timed_window(wl, seed, seconds, col, result)
            scale = col.speed.scale(mark)
    result.notes["traced_qi_per_s"] = result.metrics["qi_per_s"]
    result.metrics = W.layer_metrics(tracer, counts, episodes, scale)
    result.metrics["trace.overhead_ratio"] = (statistics.median(warmup_times) / untraced_warmup_s - 1.0, "ratio")
    dump_spans(wl.name, seed, tracer)
    return result


def dump_spans(workload: str, seed: int, tracer) -> None:
    """Write the kept spans (the first episodes of the timed window) and per-layer totals."""
    OUT.mkdir(exist_ok=True)
    payload = {
        "workload": workload,
        "seed": seed,
        "clock": "time.perf_counter_ns",
        "fields": W.SPAN_FIELDS,
        "spans": tracer.spans,
        "layers": {
            name: {"calls": s.calls, "total_ns": s.total_ns, "self_ns": s.self_ns}
            for name, s in sorted(tracer.stats.items())
        },
    }
    (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(payload))


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def report(result: Result) -> None:
    kind = "traced" if result.traced else "untraced"
    print(f"== {result.workload} ({kind}) ==")
    for name, (value, unit) in list(result.metrics.items()) + list(result.notes.items()):
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else value
        print(f"  {name:<48} {shown} {unit}")
    print(f"  attempted {result.attempted}, failed {result.failed}")


def as_json(results: list, prefix: bool) -> str:
    metrics = {}
    for r in results:
        for name, (value, unit) in r.metrics.items():
            metrics[f"{r.workload}.{name}" if prefix else name] = {"value": value, "unit": unit}
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="schemes, dense or train; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="reference seconds of work in the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1 records per-layer spans; with --workload the default is 0")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    global W
    args = parse_args(argv)
    if not (SRC / "reverb" / "__init__.py").is_file():
        print(f"error: no reverb source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # loads numpy, scipy and reverb, after the thread pins above

    W = workloads
    import_s = time.perf_counter() - _T0
    if Path(W.reverb.__file__).resolve().parent != SRC / "reverb":
        print(f"error: imported reverb from {W.reverb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()))
    if args.workload is not None:
        if args.workload not in W.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}", file=sys.stderr)
            return 2
        wl = W.WORKLOADS[args.workload]
        if args.trace == 1:
            result = run_traced(wl, args.seed, args.seconds, import_s, None)
        else:
            result = run_untraced(wl, args.seed, args.seconds, import_s, own_process=True)
        report(result)
        print(as_json([result], prefix=False))
        return 0

    untraced = [run_untraced(wl, args.seed, args.seconds, import_s, own_process=False)
                for wl in W.WORKLOADS.values()]
    traced = [run_traced(wl, args.seed, args.seconds, import_s, plain.notes["warmup_s"][0])
              for wl, plain in zip(W.WORKLOADS.values(), untraced)]
    for plain, spans in zip(untraced, traced):
        # Same seed, same episodes: the traced run must simulate exactly what the untraced one did.
        n = min(len(plain.seeded), len(spans.seeded))
        spans.failed += count_mismatches(plain.seeded[:n], spans.seeded[:n])
    for result in untraced + traced:
        report(result)
    print(as_json(untraced + traced, prefix=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
