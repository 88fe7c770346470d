#!/usr/bin/env python3
"""Write the fixed output set that a behaviour-preserving change must reproduce.

Runs, with the package from this checkout's ``src/``:

* ``reverb bench --episodes 5 --seed 1``                        -> DIR/bench
* the same on ``configs/lossy.yaml`` (about one uplink in twenty lost) -> DIR/bench_lossy
* ``reverb run --scheme S --seed 1`` for all five schemes        -> DIR/run_S
* ``reverb run --scheme AoL-REVERB --seed 1`` on ``configs/dense.yaml`` (60
  sensors, cap 30) and on ``configs/unequal_noise.yaml``  -> DIR/run_dense, DIR/run_unequal_noise
* ``reverb bench --scheme AoL-REVERB --sweep C:1..30 --episodes 2 --seed 1`` -> DIR/sweep_cap
* ``reverb bench --scheme AoL-REVERB --sweep aol:1..10 --episodes 2 --seed 1`` -> DIR/sweep_aol
* ``reverb train --episodes 5 --seed 1``                         -> DIR/train
* ``reverb run --scheme AoL-REVERB --weights DIR/train/weights.json --seed 1``
  (the trained policy loaded back)                               -> DIR/run_weights

Outputs are byte-identical across reruns of the same code, so the gate for a
change is that this script's output at the parent commit and at the change
are the same files with the same bytes. ``--against DIR`` checks that after
writing and exits 1 naming the first differing or missing file. For every CSV
or JSON file present in both trees whose bytes differ it also prints the
largest relative difference between float cells and the number of other
cells (integers, ids, text) that differ, which sizes a deliberate rounding
shift:

    (cd parent-checkout && python3 scripts/golden_outputs.py --out /tmp/golden_old)
    python3 scripts/golden_outputs.py --out /tmp/golden_new --against /tmp/golden_old

``--digest FILE`` writes the SHA-256 of every file in the ``DIGESTED``
directories, the 15 whose bytes go through no BLAS product (not ``train`` or
``run_weights``), headed by the Python and numpy versions they were taken
with; ``tests/golden.sha256`` is that file, and a Tier-1 test regenerates the
15 files and compares. A change that shifts rounding on purpose rewrites it:

    python3 scripts/golden_outputs.py --out /tmp/golden_new --digest tests/golden.sha256

``--learner FILE`` writes the learner pin: ``learner_run``'s short
``control.train`` of the headline config, each episode's returns and length
and the final ``actor.flat``, ``critic.flat`` and ``log_std``, headed by the
versions they were taken with. ``tests/learner.json`` is that file, and a
Tier-1 test trains again and compares at ``LEARNER_RTOL``. Those values go
through BLAS products, so they are compared at a tolerance rather than by
digest; a change to the learner on purpose rewrites the file:

    python3 scripts/golden_outputs.py --out /tmp/golden_new --learner tests/learner.json

``--costs FILE`` writes the per-QI cost counts: ``count_costs`` runs each of
``cost_runs`` (every scheme's headline episode, the ``dense`` episode, an
AoL-REVERB episode on ``configs/lossy.yaml`` and a short ``control.train``)
once to warm caches, then again under a ``sys.setprofile`` hook, and records
the QIs, every package function's calls, the numpy functions entered from
outside numpy, the functions of Python's ``builtins`` module (``min``,
``max``, ``len``, ...) called from package code and the calls on the generator
behind each loop's normal stream (``loop.NormalStream``), by name.
``tests/costs.json`` is that file, headed by the versions; a Tier-1 test
counts again and fails when any count per QI is above its recorded value.
Counts are exact and do not depend on the host, so a change that removes work
re-records the file, and one that adds work names each risen count. When
FILE exists, every per-QI count that moved is printed before FILE is
overwritten, one line each (``run kind name: old → new per QI``):

    python3 scripts/golden_outputs.py --out /tmp/golden_new --costs tests/costs.json

What a profile hook cannot see is not counted: array operators (``@``,
``+``), ufuncs and ``Generator`` methods make no event (the generator is
counted by a proxy), and comprehension frames are left out as package
calls, since Python 3.12 inlines list comprehensions; a builtin called
inside one counts either way.
"""

import argparse
import collections
import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import platform
import sys
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import reverb  # noqa: E402
from reverb import control, loop, runner, schemes  # noqa: E402
from reverb.cli import main as reverb_main  # noqa: E402
from reverb.config import SCHEMES, RunConfig, load_config  # noqa: E402
from reverb.schemes import build_loop  # noqa: E402


# The headline config on a lossy channel: the golden runs and cost runs that lose links.
LOSSY = ROOT / "configs" / "lossy.yaml"
# A deep planner and large fusion batches: a golden run and a cost run.
DENSE = ROOT / "configs" / "dense.yaml"
# Unequal process-noise variances, which no other golden config has.
UNEQUAL_NOISE = ROOT / "configs" / "unequal_noise.yaml"


def commands(out: Path) -> list[list[str]]:
    runs = [["bench", "--episodes", "5", "--seed", "1", "--out", str(out / "bench")]]
    runs.append([
        "bench", "--config", str(LOSSY), "--episodes", "5", "--seed", "1", "--out", str(out / "bench_lossy"),
    ])
    runs += [
        ["run", "--scheme", s, "--seed", "1", "--out", str(out / f"run_{s}")] for s in SCHEMES
    ]
    runs += [
        ["run", "--config", str(config), "--scheme", "AoL-REVERB", "--seed", "1",
         "--out", str(out / f"run_{config.stem}")]
        for config in (DENSE, UNEQUAL_NOISE)
    ]
    runs.append([
        "bench", "--scheme", "AoL-REVERB", "--sweep", "C:1..30", "--episodes", "2",
        "--seed", "1", "--out", str(out / "sweep_cap"),
    ])
    runs.append([
        "bench", "--scheme", "AoL-REVERB", "--sweep", "aol:1..10", "--episodes", "2",
        "--seed", "1", "--out", str(out / "sweep_aol"),
    ])
    runs.append(["train", "--episodes", "5", "--seed", "1", "--out", str(out / "train")])
    runs.append([
        "run", "--scheme", "AoL-REVERB", "--weights", str(out / "train" / "weights.json"),
        "--seed", "1", "--out", str(out / "run_weights"),
    ])
    return runs


# Output directories whose bytes go through no BLAS product, so a digest pins them.
DIGESTED = (
    "bench", "bench_lossy", *(f"run_{s}" for s in SCHEMES), "run_dense", "run_unequal_noise",
    "sweep_cap", "sweep_aol",
)


def out_name(argv: list[str]) -> str:
    """The output directory name of one of ``commands``' runs."""
    return Path(argv[argv.index("--out") + 1]).name


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file in the ``DIGESTED`` directories under ``root``, by relative path."""
    return {
        rel: hashlib.sha256((root / rel).read_bytes()).hexdigest()
        for rel in sorted(_files(root))
        if rel.split("/")[0] in DIGESTED
    }


def write_digest(root: Path, path: Path) -> None:
    lines = [f"# {name} {version}" for name, version in versions().items()]
    lines += [f"{digest}  {rel}" for rel, digest in digests(root).items()]
    path.write_text("\n".join(lines) + "\n")


def read_digest(path: Path) -> tuple[dict[str, str], dict[str, str]]:
    """(versions the digests were taken with, digest by relative path) of ``write_digest``'s file."""
    taken, files = {}, {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            name, version = line[2:].split(" ", 1)
            taken[name] = version
        else:
            digest, rel = line.split("  ", 1)
            files[rel] = digest
    return taken, files


# The learner pin: episodes and seed of the short training run. Three
# episodes of the headline config take about a second.
LEARNER_EPISODES = 3
LEARNER_SEED = 1
# Largest relative difference the pin allows, per episode return and per
# parameter vector (largest entry difference over largest entry). Measured
# with OpenBLAS 0.3.31 on a 2-vCPU Xeon: one and two threads give the same
# bits, a last-bit change of every initial weight moves no pinned value by
# more than 1e-14, and each of the learner mutants GAMMA 0.98, EPOCHS 9,
# CLIP 0.3 and ADAM_LR 2e-3 moves every pinned parameter vector by more than
# 3e-2.
LEARNER_RTOL = 1e-9


def learner_run() -> dict:
    """Per-episode (shaped return, environment return, QIs) and the final parameters of the pin's run."""
    cfg = RunConfig()
    agent, curve = control.train(
        lambda rng: build_loop(cfg, cfg.scheme, rng), LEARNER_EPISODES, cfg.control,
        seed=LEARNER_SEED, qi_cap=cfg.qi_cap,
    )
    return {
        "episodes": [[s.shaped_return, s.env_return, s.qis] for s in curve],
        "actor": agent.actor.flat.tolist(),
        "critic": agent.critic.flat.tolist(),
        "log_std": agent.log_std.tolist(),
    }


def write_learner(path: Path) -> None:
    run = {"versions": versions(), **learner_run()}
    path.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in run.items()) + "\n}\n")


def learner_differences(got: dict, want: dict) -> list[str]:
    """One line per pinned value of ``got`` that differs from ``want`` by more than ``LEARNER_RTOL``."""
    lines = []
    for i, (g, w) in enumerate(zip(got["episodes"], want["episodes"])):
        for name, a, b in zip(("shaped return", "environment return", "QIs"), g, w):
            if not abs(a - b) <= LEARNER_RTOL * abs(b):
                lines.append(f"episode {i} {name}: {a!r} != {b!r}")
    for name in ("actor", "critic", "log_std"):
        a, b = np.asarray(got[name]), np.asarray(want[name])
        if a.shape != b.shape:
            lines.append(f"{name}: {a.size} values != {b.size}")
        elif not np.max(np.abs(a - b), initial=0.0) <= LEARNER_RTOL * np.max(np.abs(b), initial=0.0):
            rel = np.max(np.abs(a - b)) / np.max(np.abs(b))
            lines.append(f"{name}: largest relative difference {rel:.3g}")
    return lines


# --- per-QI cost counts ------------------------------------------------------

COSTS_SEED = 3
COSTS_TRAIN_EPISODES = 2
COSTS_TRAIN_QI_CAP = 200
COST_KINDS = ("package", "numpy", "builtins", "draws")

_PACKAGE_DIR = os.path.dirname(reverb.__file__) + os.sep
_NUMPY_DIR = os.path.dirname(np.__file__) + os.sep
_COMPREHENSIONS = frozenset({"<listcomp>", "<genexpr>", "<dictcomp>", "<setcomp>"})


class CountingGenerator:
    """Forwards to a numpy ``Generator`` and counts each method called on it, by name."""

    def __init__(self, rng: np.random.Generator, draws: collections.Counter) -> None:
        self._rng = rng
        self._draws = draws

    def __getattr__(self, name: str):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self._draws[name] += 1
            return attr(*args, **kwargs)

        return counted


def _frame_name(frame) -> str:
    """Module and qualified name of a frame's function (Python 3.10 code objects lack ``co_qualname``)."""
    code = frame.f_code
    return f"{frame.f_globals['__name__']}.{getattr(code, 'co_qualname', code.co_name)}"


class CostCounter:
    """A ``sys.setprofile`` hook counting package calls, numpy entries and builtin calls by name.

    A package call is the start of a frame of code under ``src/reverb`` that
    is not a comprehension. A numpy entry is the start of a numpy Python
    frame, or a call of a numpy builtin, from code outside numpy; what numpy
    calls inside itself is not counted. A builtin call is a call of a
    ``builtins`` module function made by package code, comprehensions
    included; a type called (``float``, ``tuple``), a method and a function
    that C code calls (the ``len`` of ``map(len, ...)``) make no such event.
    """

    def __init__(self) -> None:
        self.package: collections.Counter = collections.Counter()
        self.numpy: collections.Counter = collections.Counter()
        self.builtins: collections.Counter = collections.Counter()
        self.draws: collections.Counter = collections.Counter()

    def __call__(self, frame, event: str, arg) -> None:
        if event == "call":
            code = frame.f_code
            path = code.co_filename
            if path.startswith(_PACKAGE_DIR):
                if code.co_name not in _COMPREHENSIONS:
                    self.package[_frame_name(frame)] += 1
            elif path.startswith(_NUMPY_DIR) and not code.co_name.endswith("_dispatcher"):
                # An array function's dispatcher runs from the same caller as its body; the body counts.
                caller = frame.f_back
                if caller is None or not caller.f_code.co_filename.startswith(_NUMPY_DIR):
                    self.numpy[_frame_name(frame)] += 1
        elif event == "c_call":
            path = frame.f_code.co_filename
            if path.startswith(_NUMPY_DIR):
                return
            module = getattr(arg, "__module__", None)
            if module == "builtins":
                if path.startswith(_PACKAGE_DIR):
                    self.builtins[f"builtins.{arg.__qualname__}"] += 1
                return
            module = module or type(getattr(arg, "__self__", None)).__module__
            if module == "numpy" or module.startswith("numpy."):
                self.numpy[f"{module}.{arg.__qualname__}"] += 1


@contextlib.contextmanager
def counted_loops(draws: collections.Counter):
    """While open, every ``TwinLoop``'s normal stream draws its blocks through a ``CountingGenerator``.

    The stream is wrapped where the loop builds it, so its first block, drawn
    with the loop, counts too; the initial state and belief drawn before it
    do not.
    """
    stream = loop.NormalStream

    def counted_stream(rng: np.random.Generator) -> loop.NormalStream:
        return stream(CountingGenerator(rng, draws))

    loop.NormalStream = counted_stream
    try:
        yield
    finally:
        loop.NormalStream = stream


def cost_runs() -> dict[str, Callable[[], int]]:
    """Name -> a run that returns its QIs: one episode per scheme, of ``dense`` and ``lossy``, and a short training."""
    headline = RunConfig(seed=COSTS_SEED)

    def episode(cfg: RunConfig, scheme: str) -> Callable[[], int]:
        return lambda: runner.monte_carlo(cfg, 1, scheme=scheme)[1][0].qis

    def training() -> int:
        _, curve = control.train(
            lambda rng: schemes.build_loop(headline, headline.scheme, rng), COSTS_TRAIN_EPISODES,
            headline.control, seed=COSTS_SEED, qi_cap=COSTS_TRAIN_QI_CAP,
        )
        return sum(s.qis for s in curve)

    runs = {scheme: episode(headline, scheme) for scheme in SCHEMES}
    runs["dense"] = episode(dataclasses.replace(load_config(DENSE), seed=COSTS_SEED), "AoL-REVERB")
    runs["lossy"] = episode(dataclasses.replace(load_config(LOSSY), seed=COSTS_SEED), "AoL-REVERB")
    runs["train"] = training
    return runs


def count_costs(run: Callable[[], int]) -> dict:
    """QIs and counts by kind and name of ``run``'s second call; the first warms every cache."""
    counter = CostCounter()
    with counted_loops(counter.draws):
        run()
        counter.draws.clear()
        sys.setprofile(counter)
        try:
            qis = run()
        finally:
            sys.setprofile(None)
    return {"qis": qis, **{kind: dict(sorted(getattr(counter, kind).items())) for kind in COST_KINDS}}


def all_costs() -> dict[str, dict]:
    return {name: count_costs(run) for name, run in cost_runs().items()}


def write_costs(path: Path) -> None:
    """Count every run and write the file; when ``path`` exists, first print each per-QI count that moved."""
    costs = all_costs()
    if path.exists():
        for line in cost_changes(costs, json.loads(path.read_text())["runs"]):
            print(line)
    path.write_text(json.dumps({"versions": versions(), "runs": costs}, indent=1) + "\n")


def cost_changes(got: dict[str, dict], want: dict[str, dict]) -> list[str]:
    """One line per count whose per-QI value differs between ``want`` (old) and ``got`` (new), runs in both.

    A name one side lacks counts 0 there. Each line reads ``run kind name: old → new per QI``.
    """
    lines = []
    for name, costs in got.items():
        recorded = want.get(name)
        if recorded is None:
            continue
        for kind in COST_KINDS:
            new, old = costs[kind], recorded[kind]
            for key in sorted(new.keys() | old.keys()):
                n, m = new.get(key, 0), old.get(key, 0)
                if n * recorded["qis"] != m * costs["qis"]:
                    lines.append(f"{name} {kind} {key}: {m / recorded['qis']:.4g} → {n / costs['qis']:.4g} per QI")
    return lines


def cost_increases(got: dict[str, dict], want: dict[str, dict]) -> list[str]:
    """One line per count of ``got`` that is above ``want``'s per QI; a name ``want`` lacks counts 0."""
    lines = []
    for name, costs in got.items():
        recorded = want[name]
        for kind in COST_KINDS:
            for key, n in costs[kind].items():
                m = recorded[kind].get(key, 0)
                if n * recorded["qis"] > m * costs["qis"]:
                    lines.append(f"{name} {kind} {key}: {n / costs['qis']:.4g} per QI, "
                                 f"recorded {m / recorded['qis']:.4g}")
    return lines


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def first_difference(new: Path, old: Path) -> str | None:
    """The first file, in path order, that is missing from either tree or differs in bytes."""
    new_files, old_files = _files(new), _files(old)
    for rel in sorted(new_files | old_files):
        if rel not in old_files:
            return f"{rel}: only in {new}"
        if rel not in new_files:
            return f"{rel}: only in {old}"
        if (new / rel).read_bytes() != (old / rel).read_bytes():
            return f"{rel}: contents differ"
    return None


def _cells(path: Path) -> list:
    """A CSV's cells row by row, or a JSON document's leaves in document order.

    A CSV cell that reads as a float but not as an integer becomes a float;
    every other cell stays text.
    """
    if path.suffix == ".json":
        def leaves(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield key
                    yield from leaves(value)
            elif isinstance(node, list):
                for value in node:
                    yield from leaves(value)
            else:
                yield node

        return list(leaves(json.loads(path.read_text())))

    def cell(text: str):
        try:
            int(text)
            return text
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            return text

    with open(path, newline="") as fh:
        return [cell(text) for row in csv.reader(fh) for text in row]


def float_shift(new_file: Path, old_file: Path) -> tuple[float, int]:
    """(largest relative difference of paired float cells, number of other cells that differ).

    Cells pair up by position; a cell without a partner counts as a differing
    non-float cell.
    """
    new_cells, old_cells = _cells(new_file), _cells(old_file)
    largest, others = 0.0, abs(len(new_cells) - len(old_cells))
    for a, b in zip(new_cells, old_cells):
        if type(a) is float and type(b) is float:
            if a != b:
                largest = max(largest, abs(a - b) / max(abs(a), abs(b)))
        elif a != b:
            others += 1
    return largest, others


def shifted_files(new: Path, old: Path) -> list[str]:
    """One line per CSV or JSON file present in both trees whose bytes differ, with its shift."""
    lines = []
    for rel in sorted(_files(new) & _files(old)):
        if Path(rel).suffix not in (".csv", ".json"):
            continue
        if (new / rel).read_bytes() == (old / rel).read_bytes():
            continue
        largest, others = float_shift(new / rel, old / rel)
        lines.append(
            f"{rel}: largest relative float difference {largest:.3g}, "
            f"{others} differing non-float cells"
        )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, required=True, help="directory to write into")
    parser.add_argument("--against", type=Path, default=None,
                        help="earlier output tree the new one must equal byte for byte")
    parser.add_argument("--digest", type=Path, default=None,
                        help="file to write the SHA-256 digests of the DIGESTED outputs to")
    parser.add_argument("--learner", type=Path, default=None,
                        help="file to write the learner pin (learner_run's values) to")
    parser.add_argument("--costs", type=Path, default=None,
                        help="file to write the per-QI cost counts (all_costs) to")
    args = parser.parse_args()
    for argv in commands(args.out):
        print("reverb " + " ".join(argv), flush=True)
        code = reverb_main(argv)
        if code != 0:
            return code
    if args.digest is not None:
        write_digest(args.out, args.digest)
        print(f"digests of {len(digests(args.out))} files written to {args.digest}")
    if args.learner is not None:
        write_learner(args.learner)
        print(f"learner pin of {LEARNER_EPISODES} episodes written to {args.learner}")
    if args.costs is not None:
        write_costs(args.costs)
        print(f"cost counts of {len(cost_runs())} runs written to {args.costs}")
    if args.against is not None:
        if not args.against.is_dir():
            print(f"error: {args.against} is not a directory", file=sys.stderr)
            return 1
        diff = first_difference(args.out, args.against)
        if diff is not None:
            print(f"error: {diff}", file=sys.stderr)
            for line in shifted_files(args.out, args.against):
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"identical to {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
