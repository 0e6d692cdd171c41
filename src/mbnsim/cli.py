"""Command-line entry points: train, sweep, evaluate, oracle.

Exit code 0 on success; on any failure, usage errors included, one line
``error: <message>`` goes to stderr and the exit code is 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .agents import Algorithm
from .baselines import check_instance_size, optimal_allocation
from .config import ConfigError, ScenarioConfig, load_scenario_config
from .env import JnsaEnv
from .harness import (ALGORITHMS, ENV_VARIANTS, ROBUSTNESS_COLUMNS,
                      ExperimentSpec, build_problem, derived_seed,
                      format_cell, kept_user_counts, robustness_sweep,
                      run_experiment, write_manifest, write_rows)
from .nets import model_from_checkpoint
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
    """`train`, `sweep`, `oracle`: run the experiment the arguments describe."""
    run_experiment(_spec_from_args(args, args.algo), args.out)
    return 0


def _checkpoint_for(path: str, env: JnsaEnv, fembb: bool):
    """The network in `path`, which must take the observations of `env`'s
    FeMBB (or eURLLC) agents over its stations and choose among their
    actions. A checkpoint that records no station list observes every one."""
    try:
        data = json.loads(Path(path).read_text())
        model = model_from_checkpoint(data)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except ValueError as exc:   # a CheckpointError, or no JSON at all
        raise ConfigError(f"{path}: {exc}") from exc
    config = data.get("config")
    recorded = config.get("stations") if isinstance(config, dict) else None
    if recorded is None:
        recorded = list(range(env.state.n_bs))
    if recorded != env.stations.tolist():
        raise ConfigError(
            f"{path}: the network observes stations {recorded}; this "
            f"scenario's policies observe {env.stations.tolist()}")
    user_class, dims = (
        ("FeMBB", (env.fembb_obs_dim, env.fembb_action_count)) if fembb
        else ("eURLLC", (env.eurllc_obs_dim, env.eurllc_action_count)))
    if (model.input_dim, model.action_count) != dims:
        raise ConfigError(
            f"{path}: the network has {model.input_dim} inputs and "
            f"{model.action_count} actions; this scenario's {user_class} "
            f"policy needs {dims[0]} and {dims[1]}")
    return model


def cmd_evaluate(args) -> int:
    """Score the oracle's allocation or a trained policy under a
    perturbation, on the network `train --seed S` trains run0000 on."""
    cfg = _scenario_from_args(args)
    if args.seed < 0:
        raise ConfigError(f"--seed must be an int >= 0, got {args.seed}")
    ignored = args.use_oracle and (args.checkpoint_fembb
                                   or args.checkpoint_eurllc)
    if ignored:
        raise ConfigError(f"--use-oracle takes no checkpoint, got {ignored}")
    counts = kept_user_counts(cfg, args.env_variant)
    if args.use_oracle:
        check_instance_size(sum(counts), cfg.subchannels_per_band)
    state, objective_cfg = build_problem(cfg, args.env_variant,
                                         derived_seed(cfg.seed, args.seed, 0))

    if args.use_oracle:
        decider = {"allocation": optimal_allocation(state, objective_cfg)[0]}
    else:
        env, decider = JnsaEnv(state, objective_cfg), {}
        for cls, n_users in zip(("fembb", "eurllc"), counts):
            path = getattr(args, f"checkpoint_{cls}")
            if bool(path) != bool(n_users):
                raise ConfigError(
                    f"{path}: this scenario has no {cls} users" if path else
                    f"evaluate needs --use-oracle or --checkpoint-{cls}")
            if path:
                decider[f"{cls}_model"] = _checkpoint_for(path, env, cls == "fembb")
    rows = robustness_sweep(state, objective_cfg, args.perturbation,
                            args.values, **decider)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_manifest(out, {"scenario": cfg.to_dict(), "seed": args.seed,
                         "env_variant": args.env_variant,
                         "use_oracle": args.use_oracle, "checkpoints": [
                             args.checkpoint_fembb, args.checkpoint_eurllc],
                         "perturbation": args.perturbation,
                         "values": list(args.values)})
    write_rows(out / "robustness.csv", [ROBUSTNESS_COLUMNS] + [
        [format_cell(row[col]) for col in ROBUSTNESS_COLUMNS]
        for row in rows], "w")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # subcommands' parsers are _Parsers too
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mbnsim",
        description="Multi-band network simulator and DRL benchmark harness")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one algorithm on one scenario")
    _add_common(p_train)
    p_train.add_argument("--algo", default="duel_dqn",
                         choices=[a.value for a in Algorithm])
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="grid over one scenario parameter")
    _add_common(p_sweep)
    p_sweep.add_argument("--algo", default="duel_dqn", choices=ALGORITHMS)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", type=float, nargs="+", required=True)
    p_sweep.set_defaults(func=cmd_train)

    p_oracle = sub.add_parser("oracle", help="exact solve, no training")
    _add_common(p_oracle)
    p_oracle.set_defaults(func=cmd_train, algo="optimal")

    p_eval = sub.add_parser("evaluate",
                            help="frozen policy/allocation under perturbations")
    p_eval.add_argument("--config")
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--seed", type=int, default=1,
                        help="evaluate on the network `train --seed` draws")
    p_eval.add_argument("--env-variant", choices=ENV_VARIANTS, default="mbn")
    p_eval.add_argument("--perturbation", choices=("csi", "mobility"),
                        required=True)
    p_eval.add_argument("--values", type=float, nargs="+", required=True)
    p_eval.add_argument("--use-oracle", action="store_true")
    p_eval.add_argument("--checkpoint-fembb")
    p_eval.add_argument("--checkpoint-eurllc")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, FloatingPointError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
