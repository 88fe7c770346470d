"""Tests of the benchmark's own machinery: patch restore, self time, percentiles, contract.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from hostspeed import KERNEL_EVERY_NS, KERNEL_REF_S, HostSpeed  # noqa: E402
from tracer import Patcher, Tracer, percentile  # noqa: E402


class Boom(Exception):
    pass


def _all_bindings():
    """Every attribute of the package modules and traced classes, by identity."""
    owners = list(workloads.MODULES) + [owner for _, owner, _ in workloads.SPANS if isinstance(owner, type)]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_patcher_restores_aliases_and_descriptors_on_exception():
    mod = types.ModuleType("mod")
    other = types.ModuleType("other")

    def f():
        return 1

    class C:
        @classmethod
        def make(cls):
            return cls

        def method(self):
            return 2

    mod.f = other.f = f
    raw_make, raw_method = C.__dict__["make"], C.__dict__["method"]
    with pytest.raises(Boom):
        with Patcher() as p:
            p.replace(mod, "f", lambda fn: lambda: fn() + 10, [mod, other])
            p.replace(C, "make", lambda fn: lambda cls: ("wrapped", fn(cls)))
            p.replace(C, "method", lambda fn: lambda self: fn(self) + 20)
            assert mod.f() == 11 and other.f() == 11
            assert C.make() == ("wrapped", C)
            assert C().method() == 22
            raise Boom
    assert mod.f is f and other.f is f
    assert C.__dict__["make"] is raw_make and C.__dict__["method"] is raw_method


def test_span_install_leaves_no_wrapper_behind():
    before = _all_bindings()
    tracer, counts = Tracer(), workloads.LayerCounts()
    with pytest.raises(Boom):
        with Patcher() as p:
            workloads.install_spans(p, tracer, counts)
            during = _all_bindings()
            changed = {key for key in before if during[key] is not before[key]}
            # Every span target, its by-name imports and make_round were replaced.
            assert len(changed) > len(workloads.SPANS)
            raise Boom
    after = _all_bindings()
    assert all(after[key] is before[key] for key in before)
    assert after.keys() == before.keys()


def test_self_time_subtracts_child_spans():
    ticks = iter([0, 10, 30, 40, 45, 100])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    tracer.request = 7
    outer()
    assert tracer.stats["outer"].total_ns == 100
    assert tracer.stats["outer"].self_ns == 100 - 20 - 5
    assert tracer.stats["inner"].calls == 2
    assert tracer.stats["inner"].self_ns == 25
    # (id, name, episode, parent, start, end, self): children end first.
    first, second, top = tracer.spans
    assert top == (1, "outer", 7, 0, 0, 100, 75)
    assert first == (2, "inner", 7, 1, 10, 30, 20)
    assert second == (3, "inner", 7, 1, 40, 45, 5)


def test_span_closes_when_the_call_raises():
    ticks = iter([0, 5, 8, 20])
    tracer = Tracer(clock=lambda: next(ticks))

    def fail():
        raise Boom

    failing = tracer.wrap("fail", fail)

    def body():
        with pytest.raises(Boom):
            failing()

    tracer.wrap("outer", body)()
    assert tracer.stats["fail"].self_ns == 3
    assert tracer.stats["outer"].self_ns == 20 - 3
    assert tracer._stack == []


def test_reset_keeps_wrappers_recording():
    tracer = Tracer(keep=1)
    f = tracer.wrap("f", lambda: None)
    f()
    f()
    assert tracer.stats["f"].calls == 2 and len(tracer.spans) == 1
    tracer.reset()
    assert tracer.stats["f"].calls == 0 and tracer.spans == []
    f()
    assert tracer.stats["f"].calls == 1


def test_percentile_needs_ten_samples_above():
    ones = [1.0] * 1000
    samples = list(range(1000, 0, -1))
    assert percentile(samples, ones, 50) == 500
    assert percentile(samples, ones, 90) == 900
    assert percentile(samples, ones, 99) == 990       # ten samples above it
    assert percentile(samples[:999], ones[:999], 99) is None
    assert percentile([], [], 50) is None


def test_step_percentile_weighs_episodes_equally():
    long = workloads.Episode(qis=60)
    long.step_ns.extend([1000] * 60)
    short = workloads.Episode(qis=20)
    short.step_ns.extend([5000] * 20)
    # Pooled, 60 of 80 steps are fast; by episode, half the weight is slow.
    assert workloads.step_percentile_us([long, short], 50) == 1.0
    assert workloads.step_percentile_us([long, short], 60) == 5.0


def test_host_speed_runs_kernels_between_work_and_scales_by_them():
    kernel_ns = round(2 * KERNEL_REF_S * 1e9)          # a host at half the reference speed
    ticks = iter([0, kernel_ns, 5, 5 + kernel_ns])
    speed = HostSpeed(kernel=lambda: None, clock=lambda: next(ticks))
    speed.add_work(KERNEL_EVERY_NS - 1)
    assert speed.kernels == 0
    speed.add_work(1)
    assert speed.kernels == 1
    mark = speed.mark()
    assert speed.scale(mark) == 0.5                    # runs one kernel: none since the mark
    assert speed.kernels == 2 and speed.kernel_s(mark) == kernel_ns / 1e9
    assert speed.scale() == 0.5


def test_reference_data_covers_every_unit_and_a_lost_uplink():
    reference = json.loads((BENCH / "reference.json").read_text())
    assert reference.keys() == workloads.WORKLOADS.keys()
    for name, wl in workloads.WORKLOADS.items():
        assert list(reference[name]) == [str(seed) for seed in wl.reference_seeds]
    # Episode facts start with QIs, picks, deliveries: some dense uplink must be lost.
    assert any(row[2] < row[1] for rows in reference["dense"].values() for row in rows)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_meets_the_contract(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _run(ROOT, "--workload", "dense", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "schemes", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
