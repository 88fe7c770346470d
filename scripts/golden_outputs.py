#!/usr/bin/env python3
"""Write the fixed output set that a behaviour-preserving change must reproduce.

Runs, with the package from this checkout's ``src/``:

* ``reverb bench --episodes 5 --seed 1``                        -> DIR/bench
* ``reverb run --scheme S --seed 1`` for all five schemes        -> DIR/run_S
* ``reverb bench --scheme AoL-REVERB --sweep C:1..30 --episodes 2 --seed 1`` -> DIR/sweep_cap
* ``reverb train --episodes 5 --seed 1``                         -> DIR/train

Outputs are byte-identical across reruns of the same code, so the gate for a
change is that ``diff -r`` of this script's output at the parent commit and at
the change is empty:

    python3 scripts/golden_outputs.py --out /tmp/golden_new
    (cd parent-checkout && python3 scripts/golden_outputs.py --out /tmp/golden_old)
    diff -r /tmp/golden_old /tmp/golden_new
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from reverb.cli import main as reverb_main  # noqa: E402
from reverb.config import SCHEMES  # noqa: E402


def commands(out: Path) -> list[list[str]]:
    runs = [["bench", "--episodes", "5", "--seed", "1", "--out", str(out / "bench")]]
    runs += [
        ["run", "--scheme", s, "--seed", "1", "--out", str(out / f"run_{s}")] for s in SCHEMES
    ]
    runs.append([
        "bench", "--scheme", "AoL-REVERB", "--sweep", "C:1..30", "--episodes", "2",
        "--seed", "1", "--out", str(out / "sweep_cap"),
    ])
    runs.append(["train", "--episodes", "5", "--seed", "1", "--out", str(out / "train")])
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, required=True, help="directory to write into")
    args = parser.parse_args()
    for argv in commands(args.out):
        print("reverb " + " ".join(argv), flush=True)
        code = reverb_main(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
