"""Harness: convergence metric, CSV schemas, determinism, robustness, CLI."""

import csv
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest

from mbnsim import __version__, cli
from mbnsim.agents import TrainerConfig
from mbnsim.baselines import optimal_allocation
from mbnsim.config import (ConfigError, ScenarioConfig, load_scenario_config,
                           save_scenario_config)
from mbnsim.env import (JnsaEnv, ScalarizedObjective, apply_mobility,
                        objective_breakdown, reached_stations)
from mbnsim.harness import (CSI_NOISE_SEEDS, EVAL_EPISODES, ExperimentSpec,
                            build_problem, convergence_metric, derived_seed,
                            greedy_rollout, read_runs_csv, robustness_sweep,
                            run_experiment, summarize)
from mbnsim.nets import QNetwork, checkpoint_dict, save_checkpoint
from mbnsim.scenario import generate_scenario

TINY_TRAINER = TrainerConfig(hidden_sizes=(16, 16), batch_size=16,
                             buffer_capacity=2000)


def tiny_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        scenario=ScenarioConfig.desk_default().replace(
            n_fembb=2, n_eurllc=2, subchannels_per_band=3,
            minislots_per_subchannel=2),
        algorithm="dqn",
        episodes=60,
        seeds=(1,),
        trainer=TINY_TRAINER,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestConvergenceMetric:
    def test_constant_series(self):
        assert convergence_metric([3.0] * 120) == 1

    def test_all_zero_series(self):
        assert convergence_metric([0.0] * 120) == 1

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            convergence_metric([1.0] * 49)

    def test_saturating_ramp(self):
        series = list(np.linspace(0.0, 1.0, 300)) + [1.0] * 300
        metric = convergence_metric(series)
        # oracle: ramp mean over a window starting at s is (s + 24.5) / 300,
        # so the 0.95 threshold is crossed at s = 0.95 * 300 - 24.5
        expected = math.ceil(0.95 * 300 - 24.5) + 1
        assert abs(metric - expected) <= 1
        assert abs(metric - 300) <= 50  # within one window of saturation

    def test_noisy_plateau(self):
        rng = np.random.default_rng(0)
        series = list(rng.normal(5.0, 0.1, size=400))
        assert convergence_metric(series) == 1


class TestSpecValidation:
    def test_bad_algorithm(self):
        with pytest.raises(ConfigError, match="algorithm"):
            tiny_spec(algorithm="sarsa").validate()

    def test_bad_variant(self):
        with pytest.raises(ConfigError, match="env_variant"):
            tiny_spec(env_variant="dual_band").validate()

    def test_zero_episodes(self):
        with pytest.raises(ConfigError, match="episodes"):
            tiny_spec(episodes=0).validate()

    def test_empty_seeds(self):
        with pytest.raises(ConfigError, match="seeds"):
            tiny_spec(seeds=()).validate()

    def test_duplicate_seeds(self):
        with pytest.raises(ConfigError, match="distinct"):
            tiny_spec(seeds=(1, 2, 1)).validate()

    @pytest.mark.parametrize("field, value", [
        ("episodes", 2.5), ("episodes", True),
        ("epsilon_decay_fraction", float("nan")),
        ("epsilon_decay_fraction", float("inf")),
        ("epsilon_decay_fraction", 0.0), ("epsilon_decay_fraction", -0.5),
    ])
    def test_bad_counts_and_fraction(self, field, value):
        with pytest.raises(ConfigError, match=field):
            tiny_spec(**{field: value}).validate()

    @pytest.mark.parametrize("seed", [-1, 1.0, True, "1"])
    def test_bad_seed(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            tiny_spec(seeds=(2, seed)).validate()

    def test_sweep_param_whitelist(self):
        with pytest.raises(ConfigError, match="sweep_param"):
            tiny_spec(sweep_param="cell_radius_m",
                      sweep_values=(1, 2)).validate()

    def test_duplicate_sweep_values(self):
        with pytest.raises(ConfigError, match="distinct"):
            tiny_spec(sweep_param="n_eurllc", sweep_values=(1, 2, 1.0)).validate()

    def test_sweep_pairing(self):
        with pytest.raises(ConfigError, match="sweep"):
            tiny_spec(sweep_param="n_eurllc").validate()


class TestRunExperiment:
    def test_records_per_seed_and_sweep_value(self, tmp_path):
        spec = tiny_spec(seeds=(1, 2), sweep_param="n_eurllc",
                         sweep_values=(1, 2))
        records = run_experiment(spec, tmp_path)
        assert len(records) == 4
        assert {(r.sweep_value, r.seed) for r in records} == {
            (1, 1), (1, 2), (2, 1), (2, 2)}
        assert (tmp_path / "runs.csv").exists()
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "rewards.csv").exists()
        checkpoints = list((tmp_path / "checkpoints").glob("*.json"))
        assert len(checkpoints) == 8  # two policies per run

    def test_manifest_records_learner_dtype_and_versions(self, tmp_path):
        run_experiment(tiny_spec(episodes=20), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["learner_dtype"] == "float32"
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        for name in ("runs.csv", "rewards.csv", "summary.csv"):
            text = (tmp_path / name).read_text()
            assert "float32" not in text and "numpy" not in text

    def test_optimal_record_matches_direct_oracle(self):
        spec = tiny_spec(algorithm="optimal", episodes=1)
        record = run_experiment(spec)[0]
        # independent recomputation of the eval protocol
        cfg = spec.scenario
        # the mbn variant runs on the drawn scenario as it is
        state = generate_scenario(cfg, seed=derived_seed(cfg.seed, 1, 0))
        objective_cfg = ScalarizedObjective.for_state(
            state, weight_rate=cfg.weight_rate,
            violation_penalty=cfg.violation_penalty)
        env = JnsaEnv(state.copy(), objective_cfg,
                      seed=derived_seed(cfg.seed, 1, 1))
        rates = []
        from mbnsim.env import objective_breakdown
        for _ in range(EVAL_EPISODES):
            env.reset()
            alloc, _ = optimal_allocation(env.state, objective_cfg)
            rates.append(objective_breakdown(env.state, alloc,
                                             objective_cfg).fembb_total_rate_bps)
        assert record.fembb_rate_bps == pytest.approx(np.mean(rates),
                                                      rel=1e-12)

    def test_round_trip_runs_csv(self, tmp_path):
        spec = tiny_spec()
        records = run_experiment(spec, tmp_path)
        rows = read_runs_csv(tmp_path / "runs.csv")
        assert len(rows) == 1
        assert rows[0]["final_objective"] == records[0].final_objective
        assert rows[0]["fembb_rate_bps"] == records[0].fembb_rate_bps
        assert rows[0]["seed"] == records[0].seed
        assert rows[0]["config_hash"] == records[0].config_hash

    def test_summary_matches_recomputation(self, tmp_path):
        spec = tiny_spec(seeds=(1, 2, 3))
        run_experiment(spec, tmp_path)
        rows = read_runs_csv(tmp_path / "runs.csv")
        with open(tmp_path / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 1
        values = [r["fembb_rate_bps"] for r in rows]
        mean = float(np.mean(values))
        sem = float(np.std(values, ddof=1) / math.sqrt(len(values)))
        assert abs(float(summary[0]["fembb_rate_bps_mean"]) - mean) < 1e-12
        assert abs(float(summary[0]["fembb_rate_bps_sem"]) - sem) < 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        spec = tiny_spec(seeds=(1, 2))
        run_experiment(spec, tmp_path / "a")
        run_experiment(spec, tmp_path / "b")

        def strip_wall_clock(path: Path) -> list[str]:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            idx = rows[0].index("wall_clock_s")
            return ["|".join(v for i, v in enumerate(row) if i != idx)
                    for row in rows]

        assert strip_wall_clock(tmp_path / "a/runs.csv") == \
            strip_wall_clock(tmp_path / "b/runs.csv")
        assert (tmp_path / "a/rewards.csv").read_bytes() == \
            (tmp_path / "b/rewards.csv").read_bytes()
        assert (tmp_path / "a/summary.csv").read_bytes() == \
            (tmp_path / "b/summary.csv").read_bytes()

    @pytest.mark.parametrize("algorithm", ["dqn", "optimal"])
    def test_crash_keeps_finished_runs_on_disk(self, tmp_path, monkeypatch,
                                               algorithm):
        from mbnsim import harness
        real_run_single = harness._run_single
        calls = []

        def crash_on_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("injected crash")
            return real_run_single(*args, **kwargs)

        monkeypatch.setattr(harness, "_run_single", crash_on_second)
        with pytest.raises(RuntimeError, match="injected crash"):
            run_experiment(tiny_spec(seeds=(1, 2), algorithm=algorithm),
                           tmp_path)
        rows = read_runs_csv(tmp_path / "runs.csv")
        assert [(row["run_id"], row["seed"]) for row in rows] == [("run0000", 1)]
        with open(tmp_path / "rewards.csv", newline="") as fh:
            rewards = list(csv.reader(fh))
        assert rewards[0] == ["run_id", "episode", "reward"]
        trained = algorithm != "optimal"  # the oracle has no episodes
        assert [row[:2] for row in rewards[1:]] == [
            ["run0000", str(e)] for e in range(1, 61) if trained]
        allocations = tmp_path / "allocations"
        if trained:
            assert not allocations.exists()
        else:  # an oracle run's allocation reaches disk with its rows
            assert [p.name for p in allocations.iterdir()] == ["run0000.json"]

    def test_different_seed_differs(self, tmp_path):
        records_a = run_experiment(tiny_spec(seeds=(1,)))
        records_b = run_experiment(tiny_spec(seeds=(2,)))
        assert records_a[0].rewards != records_b[0].rewards

    def test_summarize_groups(self):
        records = run_experiment(tiny_spec(seeds=(1, 2)))
        rows = summarize(records)
        assert len(rows) == 1
        assert rows[0]["n_runs"] == 2

    def test_config_hash_tracks_spec_changes(self):
        from mbnsim.harness import config_hash
        base = tiny_spec()
        same = tiny_spec()
        other = tiny_spec(episodes=61)
        other_scenario = tiny_spec(
            scenario=base.scenario.replace(n_fembb=3))
        assert config_hash(base) == config_hash(same)
        assert config_hash(base) != config_hash(other)
        assert config_hash(base) != config_hash(other_scenario)

    def test_three_algorithms_five_seeds_yield_fifteen_records(self):
        # record accounting of the comparison protocol: one record per
        # (algorithm, seed), three algorithms x five seeds
        records = []
        for algo in ("dqn", "double_dqn", "duel_dqn"):
            records += run_experiment(tiny_spec(algorithm=algo, episodes=20,
                                                seeds=(1, 2, 3, 4, 5)))
        assert len(records) == 15
        assert {(r.algorithm, r.seed) for r in records} == {
            (a, s) for a in ("dqn", "double_dqn", "duel_dqn")
            for s in (1, 2, 3, 4, 5)}


class TestRobustnessSweep:
    def _frozen_setup(self):
        cfg = ScenarioConfig.desk_default().replace(
            n_fembb=2, n_eurllc=2, subchannels_per_band=3,
            minislots_per_subchannel=2)
        state = generate_scenario(cfg, seed=7)
        weights = ScalarizedObjective.for_state(state)
        alloc, _ = optimal_allocation(state, weights)
        return state, weights, alloc

    def test_identity_values_reproduce_baseline(self):
        state, weights, alloc = self._frozen_setup()
        from mbnsim.env import objective_breakdown
        base_rate = objective_breakdown(state, alloc,
                                        weights).fembb_total_rate_bps
        csi = robustness_sweep(state, weights, "csi", [1.0], allocation=alloc)
        assert csi[0]["fembb_rate_bps_mean"] == pytest.approx(base_rate)
        assert csi[0]["fembb_rate_bps_sem"] == 0.0
        mob = robustness_sweep(state, weights, "mobility", [0.0],
                               allocation=alloc)
        assert mob[0]["fembb_rate_bps_mean"] == pytest.approx(base_rate)

    def test_frozen_mobility_rate_non_increasing(self):
        state, weights, alloc = self._frozen_setup()
        rows = robustness_sweep(state, weights, "mobility",
                                [0.0, 5.0, 10.0, 20.0, 40.0],
                                allocation=alloc)
        rates = [r["fembb_rate_bps_mean"] for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))

    def test_csi_rows_carry_sem(self):
        state, weights, alloc = self._frozen_setup()
        rows = robustness_sweep(state, weights, "csi", [2.0], allocation=alloc)
        assert rows[0]["n"] == CSI_NOISE_SEEDS == 24
        assert rows[0]["fembb_rate_bps_sem"] > 0.0

    def test_policy_keeps_its_stations_when_every_thz_link_vanishes(self):
        # a policy observes and acts over the stations of the unperturbed
        # state; at 40 s of 2 m/s no user reaches a THz station any more
        state, weights, _ = self._frozen_setup()
        env = JnsaEnv(state.copy(), weights, refresh_fading_on_reset=False)
        assert len(env.stations) > 1
        rng = np.random.default_rng(0)
        models = [QNetwork(dim, (8,), actions, rng) for dim, actions in (
            (env.fembb_obs_dim, env.fembb_action_count),
            (env.eurllc_obs_dim, env.eurllc_action_count))]
        serving = greedy_rollout(env, *models)[0]
        moved = apply_mobility(state, serving, 40.0)
        assert np.array_equal(reached_stations(moved), [0])
        rows = robustness_sweep(state, weights, "mobility", [0.0, 40.0],
                                fembb_model=models[0], eurllc_model=models[1])
        assert [row["value"] for row in rows] == [0.0, 40.0]
        assert all(math.isfinite(row["fembb_rate_bps_mean"]) for row in rows)

    def test_argument_validation(self):
        state, weights, alloc = self._frozen_setup()
        with pytest.raises(ValueError):
            robustness_sweep(state, weights, "csi", [1.0])
        with pytest.raises(ValueError):
            robustness_sweep(state, weights, "fog", [1.0], allocation=alloc)
        with pytest.raises(ValueError):
            robustness_sweep(state, weights, "csi", [0.5], allocation=alloc)

    @pytest.mark.parametrize("perturbation, values", [
        ("csi", [2.0, float("nan")]),
        ("mobility", [float("inf")]),
    ], ids=["nan_value", "inf_value"])
    def test_bad_sweep_input_rejected(self, perturbation, values):
        state, weights, alloc = self._frozen_setup()
        with pytest.raises(ValueError):
            robustness_sweep(state, weights, perturbation, values,
                             allocation=alloc)


def write_shaped_checkpoints(directory: Path, cfg: ScenarioConfig) -> None:
    """`fembb.json` and `eurllc.json` fit `evaluate`'s scenario for `cfg`;
    `fembb_x3.json` has three times the FeMBB action count, and
    `fembb_huge.json` a header whose input size numpy cannot allocate."""
    env = JnsaEnv(*build_problem(cfg, "mbn", cfg.seed))
    rng = np.random.default_rng(0)
    for name, obs_dim, actions in (
            ("fembb", env.fembb_obs_dim, env.fembb_action_count),
            ("eurllc", env.eurllc_obs_dim, env.eurllc_action_count),
            ("fembb_x3", env.fembb_obs_dim, 3 * env.fembb_action_count)):
        save_checkpoint(QNetwork(obs_dim, (8,), actions, rng),
                        directory / f"{name}.json")
    huge = json.loads((directory / "fembb.json").read_text())
    huge["input_dim"] = 10**15
    (directory / "fembb_huge.json").write_text(json.dumps(huge))


EVALUATE_MOBILITY = ["evaluate", "--perturbation", "mobility", "--values", "0"]
TINY_YAML = ("n_fembb: 2\nn_eurllc: 2\nsubchannels_per_band: 3\n"
             "minislots_per_subchannel: 2\n")


class TestCli:
    def _write_cfg(self, tmp_path) -> Path:
        cfg = ScenarioConfig.desk_default().replace(
            n_fembb=2, n_eurllc=2, subchannels_per_band=3,
            minislots_per_subchannel=2)
        path = tmp_path / "scenario.yaml"
        save_scenario_config(cfg, path)
        return path

    def test_train_smoke(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        rc = cli.main(["train", "--config", str(cfg), "--algo", "dqn",
                       "--episodes", "40", "--seed", "1",
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out/runs.csv").exists()
        assert (tmp_path / "out/manifest.json").exists()
        rows = read_runs_csv(tmp_path / "out/runs.csv")
        assert rows[0]["algorithm"] == "dqn"
        assert rows[0]["episodes_to_95"] is None  # short series, no metric

    def test_oracle_smoke(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        rc = cli.main(["oracle", "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        allocs = list((tmp_path / "out/allocations").glob("*.json"))
        assert [p.name for p in allocs] == ["run0000.json"]
        doc = json.loads(allocs[0].read_text())
        assert {k: doc[k] for k in ("schema_version", "n_fembb", "n_eurllc",
                                    "n_subchannels", "n_minislots")} == {
            "schema_version": 1, "n_fembb": 2, "n_eurllc": 2,
            "n_subchannels": 3, "n_minislots": 2}
        assert len(doc["fembb"]) == 2 and len(doc["punctures"]) == 2
        n_bs = 1 + load_scenario_config(cfg).n_tbs
        for entry in doc["fembb"]:
            assert entry is None or (0 <= entry[0] < n_bs
                                     and 0 <= entry[1] < 3)
        for entry in doc["punctures"]:
            assert entry is None or (0 <= entry[0] < 3 and 0 <= entry[1] < 2
                                     and 0 <= entry[2] < n_bs)

    def test_evaluate_oracle_smoke(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        rc = cli.main(["evaluate", "--config", str(cfg), "--use-oracle",
                       "--perturbation", "csi", "--values", "1", "2",
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        with open(tmp_path / "out/robustness.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["value"]) for r in rows] == [1.0, 2.0]

    def test_sweep_smoke(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        rc = cli.main(["sweep", "--config", str(cfg), "--algo", "dqn",
                       "--episodes", "30", "--seed", "1",
                       "--param", "n_eurllc", "--values", "1", "2",
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert len(read_runs_csv(tmp_path / "out/runs.csv")) == 2

    def test_optimal_sweep_writes_oracle_allocations(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        assert cli.main(["sweep", "--config", str(cfg), "--algo", "optimal",
                         "--param", "n_eurllc", "--values", "1", "2",
                         "--seed", "1", "--out", str(tmp_path / "sweep")]) == 0
        allocations = tmp_path / "sweep/allocations"
        assert sorted(p.name for p in allocations.iterdir()) == [
            "run0000.json", "run0001.json"]
        for index, n_eurllc in enumerate((1, 2)):
            path = tmp_path / f"n_eurllc{n_eurllc}.yaml"
            save_scenario_config(load_scenario_config(cfg).replace(
                n_eurllc=n_eurllc), path)
            out = tmp_path / f"oracle{n_eurllc}"
            assert cli.main(["oracle", "--config", str(path), "--seed", "1",
                             "--out", str(out)]) == 0
            assert (allocations / f"run{index:04d}.json").read_bytes() == \
                (out / "allocations/run0000.json").read_bytes()

    def test_evaluate_with_checkpoints(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        assert cli.main(["train", "--config", str(cfg), "--algo", "duel_dqn",
                         "--episodes", "30", "--seed", "1",
                         "--out", str(tmp_path / "train")]) == 0
        ckpt = tmp_path / "train/checkpoints"
        rc = cli.main(["evaluate", "--config", str(cfg),
                       "--checkpoint-fembb", str(ckpt / "run0000_fembb.json"),
                       "--checkpoint-eurllc", str(ckpt / "run0000_eurllc.json"),
                       "--perturbation", "mobility", "--values", "0", "10",
                       "--out", str(tmp_path / "eval")])
        assert rc == 0
        with open(tmp_path / "eval/robustness.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2

    @pytest.mark.parametrize("present, absent", [("fembb", "eurllc"),
                                                 ("eurllc", "fembb")])
    def test_evaluate_single_class_policy(self, tmp_path, capsys, present,
                                          absent):
        # one class's users train one network, and evaluate takes it alone
        path = tmp_path / "scenario.yaml"
        save_scenario_config(ScenarioConfig.desk_default().replace(
            **{f"n_{present}": 2, f"n_{absent}": 0}, subchannels_per_band=3,
            minislots_per_subchannel=2), path)
        assert cli.main(["train", "--config", str(path), "--algo", "dqn",
                         "--episodes", "30", "--seed", "1",
                         "--out", str(tmp_path / "train")]) == 0
        ckpt = tmp_path / f"train/checkpoints/run0000_{present}.json"
        assert list(ckpt.parent.iterdir()) == [ckpt]
        evaluate = [*EVALUATE_MOBILITY, "--config", str(path),
                    f"--checkpoint-{present}", str(ckpt)]
        assert cli.main([*evaluate, "--out", str(tmp_path / "eval")]) == 0
        with open(tmp_path / "eval/robustness.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 1
        # a checkpoint for the class without users is rejected, not ignored
        rc = cli.main([*evaluate, f"--checkpoint-{absent}", str(ckpt),
                       "--out", str(tmp_path / "extra")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {ckpt}: this scenario has no {absent} users\n")
        assert not (tmp_path / "extra").exists()

    def test_evaluate_scores_the_training_network(self, tmp_path):
        path = self._write_cfg(tmp_path)
        rc = cli.main(["evaluate", "--config", str(path), "--use-oracle",
                       "--seed", "2", "--perturbation", "mobility",
                       "--values", "0", "--out", str(tmp_path / "out")])
        assert rc == 0
        with open(tmp_path / "out/robustness.csv", newline="") as fh:
            [row] = list(csv.DictReader(fh))
        cfg = load_scenario_config(path)
        rates = []
        for seed in (derived_seed(cfg.seed, 2, 0), cfg.seed):
            state, objective_cfg = build_problem(cfg, "mbn", seed)
            alloc = optimal_allocation(state, objective_cfg)[0]
            rates.append(objective_breakdown(
                state, alloc, objective_cfg).fembb_total_rate_bps)
        # run0000 of `train --seed 2` trains on the first network, not on
        # the one drawn with the config's own seed
        assert float(row["fembb_rate_bps_mean"]) == rates[0] != rates[1]
        manifest = json.loads((tmp_path / "out/manifest.json").read_text())
        assert manifest["seed"] == 2

    def test_evaluate_manifest_records_versions(self, tmp_path):
        rc = cli.main(["evaluate", "--config", str(self._write_cfg(tmp_path)),
                       "--use-oracle", "--perturbation", "csi", "--values",
                       "1", "--out", str(tmp_path / "out")])
        assert rc == 0
        manifest = json.loads((tmp_path / "out/manifest.json").read_text())
        assert manifest["learner_dtype"] == "float32"
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["version"] == __version__
        assert manifest["perturbation"] == "csi"
        assert manifest["values"] == [1.0]
        assert manifest["scenario"]["n_fembb"] == 2
        assert manifest["env_variant"] == "mbn"
        assert manifest["use_oracle"] is True
        assert manifest["checkpoints"] == [None, None]

    @pytest.mark.parametrize("yaml_text, argv", [
        ("subchannels_per_band: 0\n", ["oracle", "--seed", "1"]),
        ("minislots_per_subchannel: 0\n", ["oracle", "--seed", "1"]),
        ("eurllc_max_error: 2\n", ["oracle", "--seed", "1"]),
        ("rf_pathloss_exponent: 1\n", ["oracle", "--seed", "1"]),
        ("blocklength_symbols: 0\n", ["oracle", "--seed", "1"]),
        ("seed: -1\n", ["oracle", "--seed", "1"]),
        ("", ["sweep", "--algo", "optimal", "--episodes", "1", "--seed", "1",
              "--param", "minislots_per_subchannel", "--values", "2", "0"]),
        ("", ["sweep", "--algo", "dqn", "--episodes", "1", "--seed", "1",
              "--param", "n_fembb", "--values", "2", "2"]),
        ("n_fembb: 0\nn_eurllc: 0\n",
         ["train", "--algo", "dqn", "--seed", "1", "--episodes", "5"]),
        # sc keeps terrestrial users only
        ("n_fembb: 1\nn_eurllc: 1\naerial_fraction: 1.0\n",
         ["train", "--env-variant", "sc", "--algo", "dqn", "--seed", "1",
          "--episodes", "5"]),
        ("n_fembb: 0\nn_eurllc: 2\naerial_fraction: 1.0\n",
         ["train", "--env-variant", "sc", "--algo", "dqn", "--seed", "1",
          "--episodes", "5"]),
        ("n_fembb: 1\nn_eurllc: 1\naerial_fraction: 1.0\n"
         "subchannels_per_band: 4\n",
         ["evaluate", "--env-variant", "sc", "--use-oracle",
          "--perturbation", "csi", "--values", "1"]),
        ("", ["oracle", "--seed", "1", "-1"]),
        ("", ["oracle", "--seed", "1", "1"]),
        ("", ["train", "--algo", "dqn", "--seed", "1", "--episodes", "0"]),
        # beyond the oracle's limits (12 users, 10 subchannels)
        ("n_fembb: 10\nn_eurllc: 10\nsubchannels_per_band: 4\n",
         ["oracle", "--seed", "1"]),
        ("n_fembb: 2\nn_eurllc: 2\nsubchannels_per_band: 12\n",
         ["oracle", "--seed", "1"]),
        ("n_fembb: 2\nn_eurllc: 2\nsubchannels_per_band: 3\n",
         ["sweep", "--algo", "optimal", "--episodes", "1", "--seed", "1",
          "--param", "n_fembb", "--values", "2", "20"]),
        # sc keeps 7 - round(1.75) + 10 - round(2.5) = 13 terrestrial users
        ("n_fembb: 7\nn_eurllc: 10\naerial_fraction: 0.25\n"
         "subchannels_per_band: 1\nminislots_per_subchannel: 1\n",
         ["oracle", "--env-variant", "sc", "--seed", "1"]),
        # checkpoints that do not fit the desk scenario's 12 FeMBB actions
        ("", [*EVALUATE_MOBILITY, "--checkpoint-fembb", "{ckpt}/fembb_x3.json",
              "--checkpoint-eurllc", "{ckpt}/eurllc.json"]),
        ("", [*EVALUATE_MOBILITY, "--checkpoint-fembb", "{ckpt}/eurllc.json",
              "--checkpoint-eurllc", "{ckpt}/fembb.json"]),
        ("", [*EVALUATE_MOBILITY, "--checkpoint-fembb",
              "{ckpt}/fembb_huge.json", "--checkpoint-eurllc",
              "{ckpt}/eurllc.json"]),
        # every class with users needs its checkpoint
        ("", [*EVALUATE_MOBILITY, "--checkpoint-eurllc", "{ckpt}/eurllc.json"]),
        # the oracle decides alone; a checkpoint beside it would be ignored
        ("", [*EVALUATE_MOBILITY, "--use-oracle",
              "--checkpoint-fembb", "{ckpt}/fembb.json"]),
        ("", [*EVALUATE_MOBILITY, "--use-oracle", "--seed", "-1"]),
        # a size numpy refuses to allocate at once (2.91 EiB of gain tensor);
        # without --use-oracle, as the oracle's size limit comes first
        ("subchannels_per_band: 1000000000000000\n",
         ["evaluate", "--perturbation", "csi", "--values", "1"]),
        # counts whose gain tensor numpy refuses, before any station or user
        # is drawn in a Python loop
        ("n_tbs: 1000000000000000\n",
         ["evaluate", "--perturbation", "csi", "--values", "1"]),
        ("n_fembb: 1000000000000000\n",
         ["evaluate", "--perturbation", "csi", "--values", "1"]),
        # integers no float holds are not finite
        (f"cell_radius_m: {10 ** 400}\n",
         ["evaluate", "--use-oracle", "--perturbation", "csi", "--values", "1"]),
        (f"rf_carrier_hz: {10 ** 400}\n",
         ["train", "--algo", "dqn", "--seed", "1", "--episodes", "5"]),
        # usage errors keep the one-line contract too
        ("", ["train", "--algo", "dqn", "--seed", "1", "--episodes", "2.5"]),
        ("", ["train", "--algo", "dqn", "--seed", "x", "--episodes", "5"]),
        ("", ["sweep", "--algo", "dqn", "--seed", "1", "--values", "2"]),
        # on a scenario the oracle solves, so only the flag can fail
        (TINY_YAML, [*EVALUATE_MOBILITY, "--use-oracle", "--speed", "2"]),
        (TINY_YAML, ["evaluate", "--use-oracle", "--perturbation", "csi",
                     "--values", "2", "--noise-seeds", "24"]),
        ("", ["evaluate", "--use-oracle", "--perturbation", "fog",
              "--values", "2"]),
    ], ids=["zero_subchannels", "zero_minislots", "error_target_above_1",
            "pathloss_below_2", "zero_blocklength", "negative_config_seed",
            "zero_minislots_sweep_value", "repeated_sweep_value", "no_users",
            "sc_all_aerial", "sc_all_aerial_eurllc_only",
            "evaluate_sc_all_aerial", "negative_seed", "repeated_seed",
            "zero_episodes", "oracle_too_many_users",
            "oracle_too_many_subchannels", "optimal_sweep_too_many_users",
            "sc_oracle_too_many_terrestrial_users",
            "evaluate_too_many_actions", "evaluate_swapped_roles",
            "evaluate_oversized_header",
            "evaluate_without_fembb_checkpoint",
            "evaluate_oracle_with_checkpoint", "evaluate_negative_seed",
            "evaluate_unallocatable_size", "evaluate_unallocatable_stations",
            "evaluate_unallocatable_users", "evaluate_radius_beyond_float",
            "train_carrier_beyond_float", "train_fractional_episodes",
            "train_non_int_seed", "sweep_without_param", "evaluate_speed_flag",
            "evaluate_noise_seeds_flag", "evaluate_unknown_perturbation"])
    def test_rejected_before_any_run(self, tmp_path, capsys, yaml_text, argv):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml_text)
        if argv[0] == "evaluate":
            write_shaped_checkpoints(tmp_path, ScenarioConfig.desk_default())
            argv = [arg.format(ckpt=tmp_path) for arg in argv]
        rc = cli.main([*argv, "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()
        if str(10 ** 400) in yaml_text:
            assert "must be finite" in err
        if yaml_text.endswith(": 1000000000000000\n"):
            assert "Unable to allocate" in err
        if "--checkpoint-fembb" in argv:
            assert argv[argv.index("--checkpoint-fembb") + 1] in err

    def test_evaluate_oracle_size_checked_before_drawing(self, tmp_path,
                                                         capsys, monkeypatch):
        # 20 users exceed the oracle's 12: no scenario is drawn for them
        def draw(*args, **kwargs):
            raise AssertionError("the scenario was drawn")

        monkeypatch.setattr(cli, "build_problem", draw)
        path = tmp_path / "cfg.yaml"
        path.write_text("n_fembb: 10\nn_eurllc: 10\n")
        rc = cli.main(["evaluate", "--config", str(path), "--use-oracle",
                       "--perturbation", "csi", "--values", "1",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: instance exceeds search limits: 20 users")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_help_and_version_exit_zero(self, capsys):
        for argv in (["--help"], ["evaluate", "--help"], ["--version"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert (__version__ if argv == ["--version"] else "usage:") in out
            # the CSI draw count and the mobility speed are constants
            assert "--noise-seeds" not in out and "--speed" not in out

    def test_sc_oracle_counts_only_terrestrial_users(self, tmp_path):
        # 16 users, of which sc keeps 6 - round(1.5) + 10 - round(2.5) = 12
        path = tmp_path / "cfg.yaml"
        path.write_text("n_fembb: 6\nn_eurllc: 10\naerial_fraction: 0.25\n"
                        "subchannels_per_band: 1\nminislots_per_subchannel: 1\n")
        rc = cli.main(["oracle", "--config", str(path), "--env-variant", "sc",
                       "--seed", "1", "--out", str(tmp_path / "out")])
        assert rc == 0
        alloc = json.loads(
            (tmp_path / "out/allocations/run0000.json").read_text())
        assert (alloc["n_fembb"], alloc["n_eurllc"]) == (4, 8)

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("no_such_field: 3\n")
        rc = cli.main(["train", "--config", str(bad),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no_such_field" in err

    def test_negative_penalty_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("violation_penalty: -3\nconflict_penalty: -2\n")
        rc = cli.main(["train", "--config", str(bad), "--episodes", "5",
                       "--seed", "1", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "penalty" in err
        assert not (tmp_path / "out").exists()

    def test_diverged_training_exit_code(self, tmp_path, capsys,
                                         monkeypatch):
        def diverge(*args, **kwargs):
            raise FloatingPointError("gradient norm is nan in float32")

        monkeypatch.setattr(cli, "run_experiment", diverge)
        rc = cli.main(["train", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_unallocatable_size_exit_code(self, tmp_path, capsys):
        # the run fails after its output directory exists, as a diverged one;
        # a station count fails before the scenario's loops draw a station
        for field in ("subchannels_per_band", "n_tbs"):
            path = tmp_path / "cfg.yaml"
            path.write_text(f"{field}: 1000000000000000\n")
            rc = cli.main(["train", "--config", str(path), "--algo", "dqn",
                           "--episodes", "5", "--seed", "1",
                           "--out", str(tmp_path / field)])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_node_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        from mbnsim import baselines
        monkeypatch.setattr(baselines, "NODE_BUDGET", 10)
        rc = cli.main(["oracle", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: search exceeded the node budget of 10\n")

    def test_invalid_sweep_param_exit_code(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        rc = cli.main(["sweep", "--config", str(cfg), "--param", "bogus",
                       "--values", "1", "--seed", "1",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("yaml_text, extra", [
        ("cell_radius_m: .nan\n", []),
        ("block_duration_s: .inf\n", []),
        ("n_tbs: 2.5\n", []),
        ("minislots_per_subchannel: true\n", []),
        ("", ["--param", "n_fembb", "--values", "2.7"]),
    ], ids=["nan_float", "inf_float", "fractional_int", "bool_int",
            "fractional_sweep_value"])
    def test_bad_config_value_exit_code(self, tmp_path, capsys, yaml_text,
                                        extra):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml_text)
        command = ["sweep", "--algo", "optimal"] if extra else ["oracle"]
        rc = cli.main([*command, "--config", str(path), "--seed", "1",
                       *extra, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [
        # the CSI draw count and the speed are constants: no value of
        # either flag is taken
        ["--perturbation", "csi", "--values", "2", "--noise-seeds", "0"],
        ["--perturbation", "csi", "--values", "2", "--noise-seeds", "-4"],
        ["--perturbation", "csi", "--values", "nan"],
        ["--perturbation", "csi", "--values", "2", "inf"],
        ["--perturbation", "mobility", "--values", "10", "--speed", "nan"],
        ["--perturbation", "mobility", "--values", "10", "--speed", "-5"],
        ["--perturbation", "mobility", "--values", "10", "--speed", "inf"],
        ["--perturbation", "mobility", "--values", "nan"],
    ], ids=["zero_noise_seeds", "negative_noise_seeds", "nan_csi_value",
            "inf_csi_value", "nan_speed", "negative_speed", "inf_speed",
            "nan_elapsed"])
    def test_bad_evaluate_input_exit_code(self, tmp_path, capsys, extra):
        rc = cli.main(["evaluate", "--config", str(self._write_cfg(tmp_path)),
                       "--use-oracle", *extra, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_checkpoint_without_arrays_exit_code(self, tmp_path, capsys):
        data = checkpoint_dict(QNetwork(4, (8,), 3, np.random.default_rng(0)))
        del data["arrays"]
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(data))
        rc = cli.main(["evaluate", "--config", str(self._write_cfg(tmp_path)),
                       "--checkpoint-fembb", str(ckpt),
                       "--checkpoint-eurllc", str(ckpt),
                       "--perturbation", "mobility", "--values", "0",
                       "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: {ckpt}: checkpoint lacks")


    def test_checkpoint_not_an_object_exit_code(self, tmp_path, capsys):
        ckpt = tmp_path / "list.json"
        ckpt.write_text("[]")
        rc = cli.main(["evaluate", "--config", str(self._write_cfg(tmp_path)),
                       "--checkpoint-fembb", str(ckpt),
                       "--checkpoint-eurllc", str(ckpt),
                       "--perturbation", "mobility", "--values", "0",
                       "--out", str(tmp_path / "eval")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("text", ["{not json", None],
                             ids=["not_json", "missing"])
    def test_unreadable_checkpoint_named(self, tmp_path, capsys, text):
        ckpt = tmp_path / "broken.json"
        if text is not None:
            ckpt.write_text(text)
        rc = cli.main(["evaluate", "--config", str(self._write_cfg(tmp_path)),
                       "--checkpoint-fembb", str(ckpt),
                       "--checkpoint-eurllc", str(ckpt),
                       "--perturbation", "mobility", "--values", "0",
                       "--out", str(tmp_path / "eval")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "eval").exists()

    def test_checkpoint_of_other_stations_rejected(self, tmp_path, capsys):
        # with 3 THz stations the scenario `evaluate --seed 1` draws reaches
        # stations 0 and 1 of 4; a list of the same length, and so the same
        # dims, that names another station is rejected
        path = tmp_path / "scenario.yaml"
        save_scenario_config(ScenarioConfig.desk_default().replace(
            n_fembb=2, n_eurllc=2, subchannels_per_band=3,
            minislots_per_subchannel=2, n_tbs=3), path)
        assert cli.main(["train", "--config", str(path), "--algo", "dqn",
                         "--episodes", "5", "--seed", "1",
                         "--out", str(tmp_path / "train")]) == 0
        ckpt = {role: tmp_path / f"train/checkpoints/run0000_{role}.json"
                for role in ("fembb", "eurllc")}
        data = json.loads(ckpt["eurllc"].read_text())
        assert data["config"]["stations"] == [0, 1]
        evaluate = ["evaluate", "--config", str(path),
                    "--checkpoint-fembb", str(ckpt["fembb"]),
                    "--checkpoint-eurllc", str(ckpt["eurllc"]),
                    "--perturbation", "mobility", "--values", "0"]
        assert cli.main([*evaluate, "--out", str(tmp_path / "ok")]) == 0
        data["config"]["stations"] = [0, 2]
        ckpt["eurllc"].write_text(json.dumps(data))
        assert cli.main([*evaluate, "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt['eurllc']}: ")
        assert "[0, 2]" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "eval").exists()


class TestConfigFile:
    def test_yaml_round_trip(self, tmp_path):
        cfg = ScenarioConfig.desk_default().replace(n_fembb=7, seed=99)
        path = tmp_path / "cfg.yaml"
        save_scenario_config(cfg, path)
        from mbnsim.config import load_scenario_config
        assert load_scenario_config(path) == cfg

    @pytest.mark.parametrize("field", ["violation_penalty",
                                       "conflict_penalty"])
    def test_negative_penalty_rejected(self, field):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig(**{field: -3})
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig.desk_default().replace(**{field: -0.5})
        assert getattr(ScenarioConfig(**{field: 0}), field) == 0

    @pytest.mark.parametrize("field, value", [
        ("subchannels_per_band", 0), ("minislots_per_subchannel", 0),
        ("eurllc_max_error", 2.0), ("rf_pathloss_exponent", 1.0),
        ("blocklength_symbols", 0), ("bits_per_block", 0),
        ("block_duration_s", 0.0), ("fembb_min_rate_bps", 0.0),
        ("rf_total_bandwidth_hz", -1.0), ("seed", -1),
    ])
    def test_built_objects_checked_on_construction(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig(**{field: value})
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig.desk_default().replace(**{field: value})

    def test_scenario_needs_a_user(self):
        with pytest.raises(ConfigError, match="n_fembb \\+ n_eurllc"):
            ScenarioConfig(n_fembb=0, n_eurllc=0)
        with pytest.raises(ConfigError, match="n_fembb \\+ n_eurllc"):
            ScenarioConfig.desk_default().replace(n_fembb=0, n_eurllc=0)
        # one class alone is a valid scenario
        assert ScenarioConfig(n_fembb=0, n_eurllc=1).n_eurllc == 1
        assert ScenarioConfig(n_fembb=1, n_eurllc=0).n_fembb == 1

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("banana: 1\n")
        from mbnsim.config import load_scenario_config
        with pytest.raises(ConfigError, match="banana"):
            load_scenario_config(path)

    def test_harness_never_mutates_config_file(self, tmp_path):
        path = self_path = tmp_path / "cfg.yaml"
        cfg = ScenarioConfig.desk_default().replace(
            n_fembb=2, n_eurllc=2, subchannels_per_band=3,
            minislots_per_subchannel=2)
        save_scenario_config(cfg, path)
        before = path.read_bytes()
        cli.main(["train", "--config", str(path), "--algo", "dqn",
                  "--episodes", "30", "--seed", "1",
                  "--out", str(tmp_path / "out")])
        assert path.read_bytes() == before
