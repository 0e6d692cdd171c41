"""Command-line entry points: train, sweep, evaluate, oracle.

Exit code 0 on success; on failure a single machine-parsable line
``error: <message>`` goes to stderr and the exit code is 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .baselines import InstanceSizeError
from .config import ConfigError, ScenarioConfig, load_scenario_config
from .env import ScalarizedObjective
from .harness import (ENV_VARIANTS, ExperimentSpec, build_variant_state,
                      config_hash, robustness_sweep, run_experiment)
from .nets import CheckpointError, load_checkpoint
from .scenario import generate_scenario
from . import __version__


def _scenario_from_args(args) -> ScenarioConfig:
    if args.config:
        return load_scenario_config(args.config)
    return ScenarioConfig.desk_default()


def _spec_from_args(args, algorithm: str) -> ExperimentSpec:
    return ExperimentSpec(
        scenario=_scenario_from_args(args),
        algorithm=algorithm,
        env_variant=args.env_variant,
        episodes=args.episodes,
        seeds=tuple(args.seed),
        sweep_param=getattr(args, "param", None),
        sweep_values=(tuple(args.values)
                      if getattr(args, "values", None) else None),
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="scenario YAML (defaults to the desk-scale scenario)")
    parser.add_argument("--seed", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--env-variant", choices=ENV_VARIANTS, default="mbn")
    parser.add_argument("--episodes", type=int, default=2000)


def cmd_train(args) -> int:
    """`train` and `sweep`: run the experiment the arguments describe."""
    run_experiment(_spec_from_args(args, args.algo), args.out)
    return 0


def cmd_oracle(args) -> int:
    spec = _spec_from_args(args, "optimal")
    records = run_experiment(spec, args.out)
    alloc_dir = Path(args.out) / "allocations"
    alloc_dir.mkdir(parents=True, exist_ok=True)
    for record in records:
        if record.final_allocation is not None:
            (alloc_dir / f"{record.run_id}.json").write_text(
                json.dumps(record.final_allocation.to_json()))
    return 0


def cmd_evaluate(args) -> int:
    cfg = _scenario_from_args(args)
    base = generate_scenario(cfg, seed=cfg.seed)
    state = build_variant_state(base, args.env_variant)
    objective_cfg = ScalarizedObjective.for_state(
        state, weight_rate=cfg.weight_rate,
        violation_penalty=cfg.violation_penalty)

    if args.use_oracle:
        from .baselines import optimal_allocation
        decider = {"allocation": optimal_allocation(state, objective_cfg)[0]}
    else:
        if not (args.checkpoint_fembb and args.checkpoint_eurllc):
            raise ConfigError("evaluate needs --use-oracle or both "
                              "--checkpoint-fembb and --checkpoint-eurllc")
        decider = {"fembb_model": load_checkpoint(args.checkpoint_fembb),
                   "eurllc_model": load_checkpoint(args.checkpoint_eurllc)}
    rows = robustness_sweep(state, objective_cfg, args.perturbation,
                            args.values, noise_seeds=args.noise_seeds,
                            mobility_speed_mps=args.speed, **decider)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(json.dumps(
        {"scenario": cfg.to_dict(), "perturbation": args.perturbation,
         "values": list(args.values), "version": __version__},
        indent=2, sort_keys=True))
    with open(out / "robustness.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("perturbation", "value", "fembb_rate_bps_mean",
                         "fembb_rate_bps_sem", "n"))
        for row in rows:
            writer.writerow((row["perturbation"], repr(row["value"]),
                             repr(row["fembb_rate_bps_mean"]),
                             repr(row["fembb_rate_bps_sem"]), row["n"]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbnsim",
        description="Multi-band network simulator and DRL benchmark harness")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one algorithm on one scenario")
    _add_common(p_train)
    p_train.add_argument("--algo", default="duel_dqn",
                         choices=("dqn", "double_dqn", "duel_dqn"))
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="grid over one scenario parameter")
    _add_common(p_sweep)
    p_sweep.add_argument("--algo", default="duel_dqn",
                         choices=("dqn", "double_dqn", "duel_dqn", "optimal"))
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", type=float, nargs="+", required=True)
    p_sweep.set_defaults(func=cmd_train)

    p_oracle = sub.add_parser("oracle", help="exact solve, no training")
    _add_common(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_eval = sub.add_parser("evaluate",
                            help="frozen policy/allocation under perturbations")
    p_eval.add_argument("--config")
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--env-variant", choices=ENV_VARIANTS, default="mbn")
    p_eval.add_argument("--perturbation", choices=("csi", "mobility"),
                        required=True)
    p_eval.add_argument("--values", type=float, nargs="+", required=True)
    p_eval.add_argument("--noise-seeds", type=int, default=24)
    p_eval.add_argument("--speed", type=float, default=2.0)
    p_eval.add_argument("--use-oracle", action="store_true")
    p_eval.add_argument("--checkpoint-fembb")
    p_eval.add_argument("--checkpoint-eurllc")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InstanceSizeError, CheckpointError, ValueError,
            FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
