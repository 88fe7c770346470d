"""Command-line entry points: train, run, bench.

Outputs are deterministic for a fixed config and seed; the REVERB_SEED
environment variable overrides the config seed, and --seed overrides both.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import control
from .config import SCHEMES, RunConfig, load_config
from .errors import ConfigError, ReverbError
from .recordio import write_episode_csv, write_summary_csv, write_summary_json
from .runner import monte_carlo, run_sweep
from .schemes import build_loop


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    env_seed = os.environ.get("REVERB_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"REVERB_SEED must be an integer, got {env_seed!r}") from None
        cfg = dataclasses.replace(cfg, seed=seed)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "scheme", None):
        cfg = dataclasses.replace(cfg, scheme=args.scheme)
    if args.out:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    return cfg


def _load_agent(path: str | None) -> control.PolicyAgent | None:
    if not path:
        return None
    with open(path, "rb") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
        except RecursionError:  # nested deeper than the decoder's recursion allows
            raise ConfigError(f"{path} is not valid JSON: nested too deeply to parse") from None
    return control.PolicyAgent.from_dict(data)


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    episodes = args.episodes if args.episodes is not None else cfg.train_episodes
    if episodes < 1:
        raise ConfigError(f"train needs at least one episode, got {episodes}")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def make_loop(rng: np.random.Generator):
        return build_loop(cfg, "AoL-REVERB", rng)

    agent, curve = control.train(make_loop, episodes, cfg.control, seed=cfg.seed, qi_cap=cfg.qi_cap)
    with open(out / "weights.json", "w") as fh:
        json.dump(agent.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    rows = [
        {
            "episode": s.episode,
            "shaped_return": s.shaped_return,
            "env_return": s.env_return,
            "reached_goal": int(s.reached_goal),
            "qis": s.qis,
        }
        for s in curve
    ]
    write_summary_csv(rows, out / "learning_curve.csv")
    reached = sum(s.reached_goal for s in curve[-100:])
    print(f"trained {episodes} episodes; goal reached in {reached} of the last {min(100, len(curve))}")
    return 0


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary, (record,) = monte_carlo(cfg, 1, scheme=cfg.scheme, agent=_load_agent(args.weights))
    write_episode_csv(record, out / "episode_0.csv")
    print(
        f"{cfg.scheme}: {'reached goal' if record.reached_goal else 'timed out'} "
        f"after {record.qis} QIs, {record.total_prbs} PRBs, mrmse {summary.mrmse:.4g}"
    )
    return 0


def cmd_bench(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    agent = _load_agent(args.weights)
    episodes = args.episodes if args.episodes is not None else cfg.episodes
    schemes = [args.scheme] if args.scheme else list(SCHEMES)

    rows = []
    payload = []
    if args.sweep:
        points = run_sweep(cfg, args.sweep, episodes, schemes, agent)
        name = args.sweep.split(":", 1)[0]
        for scheme, value, summary in points:
            rows.append({name: value, **summary.to_row()})
            payload.append({name: value, **summary.to_payload()})
    else:
        for scheme in schemes:
            summary, _ = monte_carlo(cfg, episodes, scheme=scheme, agent=agent)
            rows.append(summary.to_row())
            payload.append(summary.to_payload())
    write_summary_csv(rows, out / "summary.csv")
    write_summary_json(payload, out / "summary.json")
    for row in rows:
        print(", ".join(f"{k}={v}" for k, v in row.items()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reverb",
        description="Digital-twin control loop co-simulation: train, run, and benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=str, default=None, help="output directory")

    p_train = sub.add_parser("train", help="train the actor-critic controller")
    common(p_train)
    p_train.add_argument("--episodes", type=int, default=None, help="training episodes")
    p_train.set_defaults(fn=cmd_train)

    p_run = sub.add_parser("run", help="run one episode and write its CSV")
    common(p_run)
    p_run.add_argument("--scheme", choices=SCHEMES, default=None)
    p_run.add_argument("--weights", type=str, default=None, help="trained weights JSON")
    p_run.set_defaults(fn=cmd_run)

    p_bench = sub.add_parser("bench", help="Monte-Carlo benchmark, optionally swept")
    common(p_bench)
    p_bench.add_argument("--scheme", choices=SCHEMES, default=None, help="default: all schemes")
    p_bench.add_argument("--episodes", type=int, default=None, help="episodes per point")
    p_bench.add_argument("--sweep", type=str, default=None, help="C:1..30 or aol:1..10")
    p_bench.add_argument("--weights", type=str, default=None, help="trained weights JSON")
    p_bench.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ReverbError, OSError) as exc:  # a missing or unreadable file, a directory, a full disk
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size no machine holds, such as fleet.n_agents: 1000000000000
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
