"""Experiment runner: seeded training runs, sweeps, convergence metrics,
robustness evaluation, and CSV/JSON result emission.

File schemas (all floats emitted with repr so rows round-trip exactly):

* ``runs.csv``: one row per (sweep value, seed) with columns run_id,
  algorithm, env_variant, sweep_param, sweep_value, seed, episodes,
  final_objective, fembb_rate_bps, eurllc_feasible_count, episodes_to_95
  (int, ``not_converged``, or empty for runs shorter than
  ``CONVERGENCE_WINDOW`` episodes, as untrained runs are), wall_clock_s,
  config_hash. wall_clock_s is the only non-reproducible column.
* ``rewards.csv``: run_id, episode, reward (per-episode total reward).
* ``summary.csv``: per (algorithm, env_variant, sweep_param, sweep_value)
  seed aggregates: mean and standard error of the mean.
* ``allocations/<run_id>.json``: an ``optimal`` run's chosen allocation
  (``Allocation.to_json``).
* ``manifest.json``: the fully resolved experiment spec and config hash,
  the package version, the learners' float type (``learner_dtype``) and
  the python and numpy versions, which the bits of a trained run depend on.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .agents import Algorithm, DqnTrainer, ExplorationSchedule, TrainerConfig
from .baselines import check_instance_size, optimal_allocation
from .config import ConfigError, ScenarioConfig, require_positive
from .env import (Allocation, JnsaEnv, ScalarizedObjective, apply_mobility,
                  objective_breakdown, perturb_csi, reached_stations)
from .nets import LEARNER_DTYPE, save_checkpoint
from .scenario import (NetworkState, UserClass, generate_scenario,
                       make_sbn_scenario, make_sc_scenario)

ALGORITHMS = tuple(a.value for a in Algorithm) + ("optimal",)
# each environment variant and the transform of the base scenario it runs on
ENV_VARIANTS = {
    "mbn": NetworkState.copy,
    "sbn": make_sbn_scenario,
    "sc": lambda base: make_sc_scenario(base, qos_enforced=True),
    "sc_noqos": lambda base: make_sc_scenario(base, qos_enforced=False),
}
SWEEP_WHITELIST = ("n_fembb", "n_eurllc", "n_tbs", "aerial_fraction",
                   "hotspot_fraction", "subchannels_per_band",
                   "minislots_per_subchannel")
CSI_NOISE_SEED_BASE = 7000  # noise draw r of a CSI row uses seed base + r
CSI_NOISE_SEEDS = 24  # noise draws a CSI row averages over
CONVERGENCE_WINDOW = 50  # episodes per moving average of episodes_to_95
FINAL_WINDOW = 100  # last episodes whose mean sets episodes_to_95's target
EVAL_EPISODES = 3  # greedy fading episodes a run's final scores average over

RUNS_COLUMNS = ("run_id", "algorithm", "env_variant", "sweep_param",
                "sweep_value", "seed", "episodes", "final_objective",
                "fembb_rate_bps", "eurllc_feasible_count", "episodes_to_95",
                "wall_clock_s", "config_hash")
SUMMARY_COLUMNS = ("algorithm", "env_variant", "sweep_param", "sweep_value",
                   "n_runs", "final_objective_mean", "final_objective_sem",
                   "fembb_rate_bps_mean", "fembb_rate_bps_sem",
                   "eurllc_feasible_count_mean", "eurllc_feasible_count_sem",
                   "episodes_to_95_mean")
ROBUSTNESS_COLUMNS = ("perturbation", "value", "fembb_rate_bps_mean",
                      "fembb_rate_bps_sem", "n")


@dataclass
class ExperimentSpec:
    scenario: ScenarioConfig
    algorithm: str = "duel_dqn"
    env_variant: str = "mbn"
    episodes: int = 2000
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    sweep_param: str | None = None
    sweep_values: tuple | None = None
    epsilon_decay_fraction: float = 0.6
    trainer: TrainerConfig = field(default_factory=TrainerConfig)

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, "
                              f"got {self.algorithm!r}")
        if self.env_variant not in ENV_VARIANTS:
            raise ConfigError(f"env_variant must be one of "
                              f"{tuple(ENV_VARIANTS)}, "
                              f"got {self.env_variant!r}")
        require_positive("episodes", self.episodes, integral=True)
        require_positive("epsilon_decay_fraction", self.epsilon_decay_fraction)
        if (not self.seeds or len(set(self.seeds)) != len(self.seeds)
                or any(isinstance(s, bool) or not isinstance(s, int) or s < 0
                       for s in self.seeds)):
            raise ConfigError(f"seeds must be one or more distinct ints >= 0, "
                              f"got {self.seeds!r}")
        if (self.sweep_param is None) != (self.sweep_values is None):
            raise ConfigError("sweep_param and sweep_values go together")
        scenarios = [self.scenario]
        if self.sweep_param is not None:
            if self.sweep_param not in SWEEP_WHITELIST:
                raise ConfigError(f"sweep_param must be one of {SWEEP_WHITELIST}, "
                                  f"got {self.sweep_param!r}")
            if not self.sweep_values:
                raise ConfigError("sweep_values must be non-empty")
            if len(set(self.sweep_values)) != len(self.sweep_values):
                raise ConfigError(f"sweep_values must be distinct, "
                                  f"got {self.sweep_values!r}")
            scenarios = [self.scenario.replace(**{self.sweep_param: value})
                         for value in self.sweep_values]
        for cfg in scenarios:
            counts = kept_user_counts(cfg, self.env_variant)
            if self.algorithm == "optimal":
                check_instance_size(sum(counts), cfg.subchannels_per_band)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class RunRecord:
    run_id: str
    algorithm: str
    env_variant: str
    sweep_param: str
    sweep_value: float | str
    seed: int
    episodes: int
    rewards: list[float]
    final_objective: float
    fembb_rate_bps: float
    eurllc_feasible_count: float
    episodes_to_95: int | None
    wall_clock_s: float
    config_hash: str
    final_allocation: Allocation | None = None


def config_hash(spec: ExperimentSpec) -> str:
    payload = {"spec": spec.to_dict(), "version": __version__}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def derived_seed(*parts: int) -> int:
    """Deterministic child seed from integer parts (SeedSequence mixing)."""
    ss = np.random.SeedSequence(list(parts))
    return int(ss.generate_state(1)[0])


def kept_user_counts(cfg: ScenarioConfig, variant: str) -> list[int]:
    """The (FeMBB, eURLLC) user counts `variant` keeps; none is an error."""
    counts = [cfg.n_fembb, cfg.n_eurllc]
    if variant in ("sc", "sc_noqos"):  # terrestrial only
        counts = [n - cfg.aerial_count(n) for n in counts]
    if sum(counts) < 1:
        raise ConfigError(f"the {variant} variant keeps no users: it drops "
                          f"every aerial one")
    return counts


def build_problem(cfg: ScenarioConfig, variant: str, seed: int
                  ) -> tuple[NetworkState, ScalarizedObjective]:
    """`variant`'s state drawn from `cfg` with `seed`, and its objective."""
    state = ENV_VARIANTS[variant](generate_scenario(cfg, seed=seed))
    return state, ScalarizedObjective.for_state(
        state, weight_rate=cfg.weight_rate,
        violation_penalty=cfg.violation_penalty)


# ---------------------------------------------------------------------------
# Training and evaluation

def train_policies(env: JnsaEnv, algorithm: Algorithm, episodes: int,
                   trainer_cfg: TrainerConfig, seed: int,
                   epsilon_decay_fraction: float = 0.6
                   ) -> tuple[DqnTrainer | None, DqnTrainer | None, list[float]]:
    """Drive one shared policy per user class through `episodes` episodes.

    Transitions chain within a class: an agent's next observation is the
    next same-class agent's, and the class's last agent in the episode is
    terminal for bootstrapping.
    """
    trainers: dict[UserClass, DqnTrainer | None] = {}
    for cls, n_agents, obs_dim, n_actions in (
            (UserClass.FEMBB, len(env.fembb_ids), env.fembb_obs_dim,
             env.fembb_action_count),
            (UserClass.EURLLC, len(env.eurllc_ids), env.eurllc_obs_dim,
             env.eurllc_action_count)):
        if n_agents == 0:
            trainers[cls] = None
            continue
        decay = max(1, int(episodes * n_agents * epsilon_decay_fraction))
        schedule = ExplorationSchedule(decay_steps=decay)
        trainers[cls] = DqnTrainer(
            algorithm, obs_dim, n_actions, trainer_cfg, schedule,
            seed=derived_seed(seed, 1 if cls is UserClass.FEMBB else 2))

    def push_and_train(cls: UserClass, transition: tuple, next_obs,
                       done: bool) -> None:
        """Store (obs, action, reward) + next_obs; train on every push once
        the class's buffer holds a batch."""
        trainer = trainers[cls]
        trainer.push(*transition, next_obs, done)
        if len(trainer.buffer) >= trainer.cfg.batch_size:
            trainer.train_step()

    episode_rewards: list[float] = []
    for _ in range(episodes):
        obs = env.reset()
        pending: dict[UserClass, tuple | None] = {UserClass.FEMBB: None,
                                                  UserClass.EURLLC: None}
        total = 0.0
        while not env.done:
            cls = env.user_class(env.current_agent)
            if pending[cls] is not None:
                push_and_train(cls, pending[cls], obs, False)
            action = trainers[cls].select_action(obs)
            next_obs, reward, _ = env.step(action)
            total += reward
            pending[cls] = (obs, action, reward)
            obs = next_obs
        for cls, trainer in trainers.items():
            if trainer is not None and pending[cls] is not None:
                push_and_train(cls, pending[cls],
                               np.zeros_like(pending[cls][0]), True)
        episode_rewards.append(total)
    return trainers[UserClass.FEMBB], trainers[UserClass.EURLLC], episode_rewards


def greedy_rollout(env: JnsaEnv, fembb_model, eurllc_model):
    """Play one episode greedily; returns (allocation, objective breakdown).
    The breakdown is the env's own score of its committed allocation."""
    obs = env.reset()
    while not env.done:
        model = (fembb_model
                 if env.user_class(env.current_agent) is UserClass.FEMBB
                 else eurllc_model)
        obs, _, _ = env.step(int(np.argmax(model.forward(obs))))
    return env.allocation.copy(), env.breakdown


def evaluate_policies(state: NetworkState, objective_cfg: ScalarizedObjective,
                      fembb_model, eurllc_model, eval_seed: int,
                      eval_episodes: int, conflict_penalty: float = 1.0):
    """Greedy evaluation over fresh fading episodes; returns per-episode
    breakdowns and the last allocation."""
    env = JnsaEnv(state.copy(), objective_cfg,
                  conflict_penalty=conflict_penalty, seed=eval_seed)
    results, alloc = [], None
    for _ in range(eval_episodes):
        alloc, br = greedy_rollout(env, fembb_model, eurllc_model)
        results.append(br)
    return results, alloc


def evaluate_oracle(state: NetworkState, objective_cfg: ScalarizedObjective,
                    eval_seed: int, eval_episodes: int):
    """Exact solve on the same eval fading states the policies see."""
    env = JnsaEnv(state.copy(), objective_cfg, seed=eval_seed)
    results, alloc = [], None
    for _ in range(eval_episodes):
        env.reset()
        alloc, _ = optimal_allocation(env.state, objective_cfg)
        results.append(objective_breakdown(env.state, alloc, objective_cfg))
    return results, alloc


# ---------------------------------------------------------------------------
# Convergence metric

def convergence_metric(rewards) -> int | None:
    """1-based start episode of the first `CONVERGENCE_WINDOW`-episode
    moving average reaching 95% of the final-`FINAL_WINDOW` mean (from
    below in magnitude), or None when never reached."""
    rewards = np.asarray(rewards, dtype=float)
    if len(rewards) < CONVERGENCE_WINDOW:
        raise ValueError(f"series of {len(rewards)} episodes is shorter than "
                         f"the {CONVERGENCE_WINDOW}-episode window")
    final_mean = float(rewards[-min(FINAL_WINDOW, len(rewards)):].mean())
    threshold = final_mean - 0.05 * abs(final_mean)
    kernel = np.ones(CONVERGENCE_WINDOW) / CONVERGENCE_WINDOW
    moving = np.convolve(rewards, kernel, mode="valid")
    hits = np.nonzero(moving >= threshold)[0]
    return int(hits[0]) + 1 if len(hits) else None


# ---------------------------------------------------------------------------
# Robustness sweeps

def robustness_sweep(state: NetworkState, objective_cfg: ScalarizedObjective,
                     perturbation: str, values, *,
                     allocation: Allocation | None = None,
                     fembb_model=None, eurllc_model=None) -> list[dict]:
    """FeMBB total rate under CSI noise or mobility, one row per value.

    A frozen `allocation` is re-evaluated as-is on the perturbed state; a
    policy (its models) re-decides greedily on the perturbed observations.
    CSI rows average over CSI_NOISE_SEEDS draws; mobility is deterministic
    and moves each user away from the station serving it in the allocation
    decided on `state`, for `value` seconds at `env.MOBILITY_SPEED_MPS`. A
    policy observes and acts over the stations `state` reaches on every
    perturbed state too, as moving users may leave some.
    """
    frozen = allocation is not None
    if frozen == (fembb_model is not None or eurllc_model is not None):
        raise ValueError("pass exactly one of allocation or policy models")
    if perturbation not in ("csi", "mobility"):
        raise ValueError(f"perturbation must be csi or mobility, got {perturbation!r}")
    values = list(values)
    if not all(math.isfinite(value) for value in values):
        raise ValueError(f"sweep values must be finite, got {values!r}")

    stations = reached_stations(state)

    def decide(s: NetworkState) -> Allocation:
        if frozen:
            return allocation
        env = JnsaEnv(s, objective_cfg, seed=0, refresh_fading_on_reset=False,
                      stations=stations)
        return greedy_rollout(env, fembb_model, eurllc_model)[0]

    if perturbation == "mobility":
        serving = decide(state.copy())

    rows = []
    for value in values:
        if perturbation == "csi":
            perturbed = [perturb_csi(state, value, seed=CSI_NOISE_SEED_BASE + rep)
                         for rep in range(CSI_NOISE_SEEDS)]
        else:
            perturbed = [apply_mobility(state, serving, value)]
        mean, sem = _mean_sem(
            [objective_breakdown(s, decide(s), objective_cfg).fembb_total_rate_bps
             for s in perturbed])
        rows.append({"perturbation": perturbation, "value": float(value),
                     "fembb_rate_bps_mean": mean, "fembb_rate_bps_sem": sem,
                     "n": len(perturbed)})
    return rows


# ---------------------------------------------------------------------------
# The experiment driver

def format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _run_single(spec: ExperimentSpec, cfg: ScenarioConfig, run_id: str,
                sweep_param: str, sweep_value, seed: int,
                chash: str, checkpoint_dir: Path | None) -> RunRecord:
    t0 = time.perf_counter()
    state, objective_cfg = build_problem(cfg, spec.env_variant,
                                         derived_seed(cfg.seed, seed, 0))
    eval_seed = derived_seed(cfg.seed, seed, 1)
    env_seed = derived_seed(cfg.seed, seed, 2)

    rewards: list[float] = []
    if spec.algorithm == "optimal":
        results, alloc = evaluate_oracle(state, objective_cfg, eval_seed,
                                         EVAL_EPISODES)
    else:
        env = JnsaEnv(state.copy(), objective_cfg,
                      conflict_penalty=cfg.conflict_penalty, seed=env_seed)
        trainer_f, trainer_u, rewards = train_policies(
            env, Algorithm.parse(spec.algorithm), spec.episodes, spec.trainer,
            seed=seed, epsilon_decay_fraction=spec.epsilon_decay_fraction)
        results, alloc = evaluate_policies(
            state, objective_cfg,
            trainer_f.online if trainer_f else None,
            trainer_u.online if trainer_u else None,
            eval_seed, EVAL_EPISODES,
            conflict_penalty=cfg.conflict_penalty)
        if checkpoint_dir is not None:
            checkpoint_dir.mkdir(parents=True, exist_ok=True)
            echo = {"run_id": run_id, "algorithm": spec.algorithm,
                    "config_hash": chash, "stations": env.stations.tolist()}
            for role, trainer in (("fembb", trainer_f), ("eurllc", trainer_u)):
                if trainer is not None:
                    save_checkpoint(trainer.online,
                                    checkpoint_dir / f"{run_id}_{role}.json", echo)

    episodes_to_95 = None
    if len(rewards) >= CONVERGENCE_WINDOW:
        episodes_to_95 = convergence_metric(rewards)
    return RunRecord(
        run_id=run_id,
        algorithm=spec.algorithm,
        env_variant=spec.env_variant,
        sweep_param=sweep_param,
        sweep_value=sweep_value,
        seed=seed,
        episodes=spec.episodes,
        rewards=rewards,
        final_objective=float(np.mean([r.value for r in results])),
        fembb_rate_bps=float(np.mean([r.fembb_total_rate_bps for r in results])),
        eurllc_feasible_count=float(np.mean([r.eurllc_feasible_count
                                             for r in results])),
        episodes_to_95=episodes_to_95,
        wall_clock_s=time.perf_counter() - t0,
        config_hash=chash,
        final_allocation=alloc,
    )


def run_experiment(spec: ExperimentSpec,
                   out_dir: str | Path | None = None) -> list[RunRecord]:
    """One RunRecord per (sweep value, seed), sweep values outermost. When
    out_dir is given, each finished run's rows are appended to runs.csv and
    rewards.csv (and an optimal run's allocation written) before the next
    run starts, and summary.csv follows the last run."""
    spec.validate()
    chash = config_hash(spec)
    values = spec.sweep_values if spec.sweep_param is not None else ("",)
    grid = [(spec.sweep_param or "", value, seed) for value in values
            for seed in spec.seeds]

    out_path = Path(out_dir) if out_dir is not None else None
    checkpoint_dir = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        checkpoint_dir = out_path / "checkpoints"
        write_manifest(out_path, {"spec": spec.to_dict(),
                                  "config_hash": chash})
        write_rows(out_path / "runs.csv", [RUNS_COLUMNS], "w")
        write_rows(out_path / "rewards.csv", [("run_id", "episode", "reward")],
                   "w")

    records: list[RunRecord] = []
    for index, (sweep_param, sweep_value, seed) in enumerate(grid):
        cfg = (spec.scenario.replace(**{sweep_param: sweep_value})
               if sweep_param else spec.scenario)
        record = _run_single(spec, cfg, f"run{index:04d}", sweep_param,
                             sweep_value, seed, chash, checkpoint_dir)
        records.append(record)
        if out_path is not None:
            write_rows(out_path / "runs.csv", [_record_row(record)])
            write_rows(out_path / "rewards.csv",
                       [(record.run_id, episode, repr(float(reward)))
                        for episode, reward in enumerate(record.rewards,
                                                         start=1)])
            if spec.algorithm == "optimal":
                alloc_dir = out_path / "allocations"
                alloc_dir.mkdir(exist_ok=True)
                (alloc_dir / f"{record.run_id}.json").write_text(
                    json.dumps(record.final_allocation.to_json()))

    if out_path is not None:
        summary = [[format_cell(row[col]) for col in SUMMARY_COLUMNS]
                   for row in summarize(records)]
        write_rows(out_path / "summary.csv", [SUMMARY_COLUMNS] + summary, "w")
    return records


def write_manifest(out_path: Path, fields: dict) -> None:
    """Write manifest.json: `fields` plus the package version, the
    learners' float type and the python and numpy versions."""
    manifest = {**fields, "version": __version__,
                "learner_dtype": np.dtype(LEARNER_DTYPE).name,
                "python": platform.python_version(),
                "numpy": np.__version__}
    (out_path / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True))


def write_rows(path: Path, rows, mode: str = "a") -> None:
    """Write CSV rows to path, appending by default. The file is closed
    again on return, so the rows outlive a later crash of the run."""
    with open(path, mode, newline="") as fh:
        csv.writer(fh).writerows(rows)


def _record_row(r: RunRecord) -> list[str]:
    if len(r.rewards) < CONVERGENCE_WINDOW:
        to95 = None  # series too short for the metric
    elif r.episodes_to_95 is None:
        to95 = "not_converged"
    else:
        to95 = r.episodes_to_95
    return [format_cell(v) for v in (
        r.run_id, r.algorithm, r.env_variant, r.sweep_param, r.sweep_value,
        r.seed, r.episodes, r.final_objective, r.fembb_rate_bps,
        r.eurllc_feasible_count, to95, r.wall_clock_s, r.config_hash)]


def _mean_sem(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    sem = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return float(arr.mean()), sem


def summarize(records: list[RunRecord]) -> list[dict]:
    groups: dict[tuple, list[RunRecord]] = {}
    for r in records:
        groups.setdefault(
            (r.algorithm, r.env_variant, r.sweep_param, r.sweep_value),
            []).append(r)
    rows = []
    for key in groups:
        runs = groups[key]
        obj_m, obj_s = _mean_sem([r.final_objective for r in runs])
        rate_m, rate_s = _mean_sem([r.fembb_rate_bps for r in runs])
        cnt_m, cnt_s = _mean_sem([r.eurllc_feasible_count for r in runs])
        conv = [r.episodes_to_95 for r in runs if r.episodes_to_95 is not None]
        rows.append({
            "algorithm": key[0], "env_variant": key[1],
            "sweep_param": key[2], "sweep_value": key[3],
            "n_runs": len(runs),
            "final_objective_mean": obj_m, "final_objective_sem": obj_s,
            "fembb_rate_bps_mean": rate_m, "fembb_rate_bps_sem": rate_s,
            "eurllc_feasible_count_mean": cnt_m,
            "eurllc_feasible_count_sem": cnt_s,
            "episodes_to_95_mean": (float(np.mean(conv)) if conv else None),
        })
    return rows


def read_runs_csv(path: str | Path) -> list[dict]:
    """Parse runs.csv back into typed dicts (inverse of the emitter)."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            parsed = dict(row)
            parsed["seed"] = int(row["seed"])
            parsed["episodes"] = int(row["episodes"])
            for col in ("final_objective", "fembb_rate_bps",
                        "eurllc_feasible_count", "wall_clock_s"):
                parsed[col] = float(row[col])
            to95 = row["episodes_to_95"]
            parsed["episodes_to_95"] = (int(to95) if to95.isdigit() else
                                        (None if to95 == "" else to95))
            out.append(parsed)
    return out
