"""Harness: convergence metric, CSV schemas, determinism, robustness, CLI."""

import csv
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest

from mbnsim import cli
from mbnsim.agents import TrainerConfig
from mbnsim.baselines import optimal_allocation
from mbnsim.config import ConfigError, ScenarioConfig, save_scenario_config
from mbnsim.env import JnsaEnv, ScalarizedObjective
from mbnsim.harness import (ExperimentSpec, build_variant_state,
                            convergence_metric, derived_seed, read_runs_csv,
                            robustness_sweep, run_experiment, summarize)
from mbnsim.nets import QNetwork, checkpoint_dict
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

    def test_sweep_param_whitelist(self):
        with pytest.raises(ConfigError, match="sweep_param"):
            tiny_spec(sweep_param="cell_radius_m",
                      sweep_values=(1, 2)).validate()

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
        spec = tiny_spec(algorithm="optimal", episodes=1, eval_episodes=2)
        record = run_experiment(spec)[0]
        # independent recomputation of the eval protocol
        cfg = spec.scenario
        state = build_variant_state(
            generate_scenario(cfg, seed=derived_seed(cfg.seed, 1, 0)), "mbn")
        objective_cfg = ScalarizedObjective.for_state(
            state, weight_rate=cfg.weight_rate,
            violation_penalty=cfg.violation_penalty)
        env = JnsaEnv(state.copy(), objective_cfg,
                      seed=derived_seed(cfg.seed, 1, 1))
        rates = []
        from mbnsim.env import objective_breakdown
        for _ in range(2):
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

    def test_crash_keeps_finished_runs_on_disk(self, tmp_path, monkeypatch):
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
            run_experiment(tiny_spec(seeds=(1, 2)), tmp_path)
        rows = read_runs_csv(tmp_path / "runs.csv")
        assert [(row["run_id"], row["seed"]) for row in rows] == [("run0000", 1)]
        with open(tmp_path / "rewards.csv", newline="") as fh:
            rewards = list(csv.reader(fh))
        assert rewards[0] == ["run_id", "episode", "reward"]
        assert [row[:2] for row in rewards[1:]] == [
            ["run0000", str(e)] for e in range(1, 61)]

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
        csi = robustness_sweep(state, weights, "csi", [1.0],
                               allocation=alloc, noise_seeds=5)
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
        rows = robustness_sweep(state, weights, "csi", [2.0],
                                allocation=alloc, noise_seeds=20)
        assert rows[0]["n"] == 20
        assert rows[0]["fembb_rate_bps_sem"] > 0.0

    def test_argument_validation(self):
        state, weights, alloc = self._frozen_setup()
        with pytest.raises(ValueError):
            robustness_sweep(state, weights, "csi", [1.0])
        with pytest.raises(ValueError):
            robustness_sweep(state, weights, "fog", [1.0], allocation=alloc)
        with pytest.raises(ValueError):
            robustness_sweep(state, weights, "csi", [0.5], allocation=alloc)

    @pytest.mark.parametrize("perturbation, values, kwargs", [
        ("csi", [2.0], {"noise_seeds": True}),
        ("csi", [2.0], {"noise_seeds": 2.0}),
        ("csi", [2.0], {"noise_seeds": 0}),
        ("csi", [2.0, float("nan")], {}),
        ("mobility", [10.0], {"mobility_speed_mps": float("nan")}),
        ("mobility", [10.0], {"mobility_speed_mps": -5.0}),
        ("mobility", [float("inf")], {}),
    ], ids=["bool_noise_seeds", "float_noise_seeds", "zero_noise_seeds",
            "nan_value", "nan_speed", "negative_speed", "inf_value"])
    def test_bad_sweep_input_rejected(self, perturbation, values, kwargs):
        state, weights, alloc = self._frozen_setup()
        with pytest.raises(ValueError):
            robustness_sweep(state, weights, perturbation, values,
                             allocation=alloc, **kwargs)


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
        assert len(allocs) == 1
        json.loads(allocs[0].read_text())

    def test_evaluate_oracle_smoke(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        rc = cli.main(["evaluate", "--config", str(cfg), "--use-oracle",
                       "--perturbation", "csi", "--values", "1", "2",
                       "--noise-seeds", "4", "--out", str(tmp_path / "out")])
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
        assert capsys.readouterr().err.startswith("error: checkpoint lacks")


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
