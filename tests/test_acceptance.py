"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report as it happens. Training-based criteria run the reduced desk-scale
scenario (4 FeMBB + 4 eURLLC users, 2 THz stations, 4 subchannels, 7
mini-slots) with fixed seeds, so every verdict is reproducible bit-for-bit
on one machine.
"""

import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest

from mbnsim.agents import Algorithm, TrainerConfig
from mbnsim.baselines import enumerate_optimal, optimal_allocation
from mbnsim.config import ScenarioConfig
from mbnsim.env import (Allocation, JnsaEnv, ScalarizedObjective, objective,
                        objective_breakdown)
from mbnsim.harness import (ExperimentSpec, derived_seed, greedy_rollout,
                            robustness_sweep, run_experiment, train_policies)
from mbnsim.nets import DuelingQNetwork, QNetwork
from mbnsim.phy import (ChannelParams, noise_power_w, rf_path_gain, sinr,
                        thz_path_gain, thz_subchannel_frequency)
from mbnsim.scenario import (compute_gain_tensor, generate_scenario,
                             make_sc_scenario)
from mbnsim.service import (FrameConfig, QosTargets, channel_dispersion,
                            decoding_error_probability, eurllc_feasible,
                            gaussian_q, punctured_rate, shannon_rate)

pytestmark = pytest.mark.slow

ACCEPT_SEEDS = (1, 2, 3, 4, 5)
ACCEPT_EPISODES = 2000
ACCEPT_TRAINER = TrainerConfig(hidden_sizes=(64, 64), learning_rate=5e-4)
ACCEPT_DECAY_FRACTION = 0.25


def report(num: int, name: str, ok: bool, details: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {num} ({name}): {verdict}  {details}",
          flush=True)


def accept_spec(algorithm: str, env_variant: str = "mbn",
                **overrides) -> ExperimentSpec:
    defaults = dict(
        scenario=ScenarioConfig.desk_default(),
        algorithm=algorithm,
        env_variant=env_variant,
        episodes=ACCEPT_EPISODES,
        seeds=ACCEPT_SEEDS,
        trainer=ACCEPT_TRAINER,
        epsilon_decay_fraction=ACCEPT_DECAY_FRACTION,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


@pytest.fixture(scope="module")
def duel_records():
    return run_experiment(accept_spec("duel_dqn"))


@pytest.fixture(scope="module")
def double_records():
    return run_experiment(accept_spec("double_dqn"))


@pytest.fixture(scope="module")
def dqn_records():
    return run_experiment(accept_spec("dqn"))


@pytest.fixture(scope="module")
def oracle_records():
    return run_experiment(accept_spec("optimal", episodes=1))


@pytest.fixture(scope="module")
def sbn_records():
    return run_experiment(accept_spec("duel_dqn", env_variant="sbn"))


@pytest.fixture(scope="module")
def sc_records():
    return run_experiment(accept_spec("duel_dqn", env_variant="sc"))


# ---------------------------------------------------------------------------
# Criterion 1: formula suite

def test_criterion_1_formula_suite():
    params = ChannelParams()
    cfg = FrameConfig()  # w = 1 MHz
    checks = []

    # propagation (frozen 50-digit evaluations of the closed forms)
    checks.append(abs(rf_path_gain(params, 100.0, 1.0)
                      - 1.2905745254293538e-9) < 1e-21)
    checks.append(rf_path_gain(params, 1.0, 0.0) == 0.0)
    checks.append(abs(rf_path_gain(params, 100.0, 4.0)
                      - 4 * rf_path_gain(params, 100.0, 1.0)) < 1e-22)
    checks.append(abs(thz_path_gain(params, 5.0, 340e9)
                      - 1.9371264721872457e-10) < 1e-22)
    free = ChannelParams(absorption_coeff_per_m=0.0)
    checks.append(abs(thz_path_gain(free, 3.0, 340e9)
                      - 4 * thz_path_gain(free, 6.0, 340e9)) < 1e-22)

    # subchannel map and noise
    checks.append(abs(thz_subchannel_frequency(params, 1) - 335.25e9) < 1e-3)
    checks.append(abs(thz_subchannel_frequency(params, 20) - 344.75e9) < 1e-3)
    freqs = [thz_subchannel_frequency(params, k) for k in range(1, 21)]
    checks.append(abs(np.mean(freqs) - 340e9) < 1e-3)
    checks.append(abs(noise_power_w(params, 1e6) - 3.9810717055349725e-15)
                  < 1e-27)
    checks.append(abs(noise_power_w(params, 2e6)
                      - 2 * noise_power_w(params, 1e6)) < 1e-27)

    # SINR composition
    gain = rf_path_gain(params, 100.0, 1.0)
    checks.append(abs(sinr(10.0, gain, 0.0, noise_power_w(params, 1e6))
                      - 3241776.6392779095) < 1e-4)
    checks.append(sinr(1e-15, 1.0, 0.0, 1e-15) == 1.0)
    checks.append(sinr(10.0, 0.0, 1e-12, 1e-15) == 0.0)

    # service formulas
    checks.append(abs(shannon_rate(1e6, 3.0) - 2e6) < 1e-6)
    checks.append(abs(punctured_rate(1e6, 3.0, 2, 7) - 1428571.4285714286)
                  < 1e-6)
    checks.append(punctured_rate(1e6, 3.0, 7, 7) == 0.0)
    checks.append(channel_dispersion(0.0) == 0.0)
    checks.append(abs(channel_dispersion(1.0) - 0.75) < 1e-15)
    checks.append(abs(channel_dispersion(1e9) - 1.0) < 1e-6)
    checks.append(gaussian_q(0.0) == 0.5)
    q40 = gaussian_q(40.0)
    checks.append(q40 < 1e-300 or q40 == 0.0)
    checks.append(abs(gaussian_q(1.2816) - 0.099991500097675166) < 1e-15)

    # decoding error and the closed-form 0.5 crossing at D*M/(T*w) = 0.84
    gamma_star = 2 ** 0.84 - 1
    checks.append(abs(decoding_error_probability(cfg, gamma_star) - 0.5)
                  < 1e-12)
    eps_hi = decoding_error_probability(cfg, 1e3)
    checks.append(eps_hi < 1e-300 or eps_hi == 0.0)
    checks.append(decoding_error_probability(cfg, 0.9 * gamma_star) > 0.5)
    lo, hi = 1e-6, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if decoding_error_probability(cfg, mid) > 0.5:
            lo = mid
        else:
            hi = mid
    crossing_err = abs(hi - gamma_star)
    checks.append(crossing_err < 1e-9)
    checks.append(not eurllc_feasible(cfg, gamma_star,
                                      QosTargets(eurllc_max_error=1e-5)))
    checks.append(eurllc_feasible(cfg, gamma_star,
                                  QosTargets(eurllc_max_error=0.6)))

    ok = all(checks)
    report(1, "formula suite", ok,
           f"{sum(checks)}/{len(checks)} formula checks, "
           f"eps=0.5 crossing within {crossing_err:.2e} of closed form")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: gradient correctness

def _finite_difference_error(model, seed: int) -> float:
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(5, model.input_dim))
    actions = rng.integers(model.action_count, size=5)
    targets = rng.normal(size=5)

    def loss_at(flat):
        model.flat[...] = flat
        q = model.forward(batch)
        err = q[np.arange(5), actions] - targets
        return float(np.mean(err ** 2))

    cache = []
    q = model.forward(batch, cache)
    err = q[np.arange(5), actions] - targets
    dq = np.zeros_like(q)
    dq[np.arange(5), actions] = 2.0 * err / 5
    analytic = np.concatenate([g.ravel() for g in model.backward(cache, dq)])
    flat = model.flat.copy()
    numeric = np.zeros_like(flat)
    h = 1e-5
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = h
        numeric[i] = (loss_at(flat + bump) - loss_at(flat - bump)) / (2 * h)
    model.flat[...] = flat
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1.0)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_criterion_2_gradient_correctness():
    worst = 0.0
    params_max = 0
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        # float64: a 1e-5 finite-difference step is below float32's
        # resolution of the loss; tests/test_agents.py::TestFloat32 checks
        # the float32 backward against a float64 copy
        plain = QNetwork(6, (10, 10), 5, rng, np.float64)
        dueling = DuelingQNetwork(6, (10, 10), 5, rng, np.float64)
        for model in (plain, dueling):
            params_max = max(params_max,
                             sum(p.size for p in model.params))
            worst = max(worst, _finite_difference_error(model, seed))
    ok = worst < 1e-4 and params_max <= 1000
    report(2, "gradient correctness", ok,
           f"max relative error {worst:.2e} on models of <= {params_max} "
           "parameters (plain and dueling)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: oracle dominance and exactness

def test_criterion_3_oracle_dominance():
    cfg = ScenarioConfig.desk_default().replace(
        n_fembb=2, n_eurllc=2, subchannels_per_band=4,
        minislots_per_subchannel=2)
    # one policy trained on this instance family, reused on every instance
    train_state = generate_scenario(cfg, seed=900)
    weights0 = ScalarizedObjective.for_state(train_state)
    env = JnsaEnv(train_state.copy(), weights0, seed=901)
    train_stations = env.stations
    trainer_f, trainer_u, _ = train_policies(
        env, Algorithm.DUEL_DQN, 600, ACCEPT_TRAINER, seed=902,
        epsilon_decay_fraction=ACCEPT_DECAY_FRACTION)

    rng = np.random.default_rng(903)
    instances = 0
    enum_matches = 0
    dominance_ok = True
    t0 = time.perf_counter()
    for i in range(100):
        state = generate_scenario(cfg, seed=1000 + i)
        weights = ScalarizedObjective.for_state(state)
        _, v_opt = optimal_allocation(state, weights)
        a_en, v_en = enumerate_optimal(state, weights)
        instances += 1
        if v_opt == v_en:
            enum_matches += 1
        # the policy observes and acts over the training state's stations
        env = JnsaEnv(state, weights, seed=2000 + i,
                      refresh_fading_on_reset=False, stations=train_stations)
        episode_values = []
        _, br = greedy_rollout(env, trainer_f.online, trainer_u.online)
        episode_values.append(br.value)
        for _ in range(5):
            env.reset()
            while not env.done:
                env.step(int(rng.integers(
                    env.action_count_for(env.current_agent))))
            episode_values.append(objective(env.state, env.allocation,
                                            weights))
        if any(v > v_en for v in episode_values):
            dominance_ok = False
    elapsed = time.perf_counter() - t0
    ok = enum_matches == instances and dominance_ok and elapsed < 300
    report(3, "oracle dominance", ok,
           f"{enum_matches}/{instances} bit-exact enumeration matches, "
           f"dominance {'held' if dominance_ok else 'VIOLATED'} over trained "
           f"and random episodes, {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: near-optimality of trained DuelDQN

def test_criterion_4_near_optimality(duel_records, oracle_records):
    ratios = []
    for rec, orc in zip(duel_records, oracle_records):
        assert rec.seed == orc.seed
        ratios.append(rec.final_objective / orc.final_objective)
    mean_ratio = float(np.mean(ratios))
    ok = mean_ratio >= 0.90
    report(4, "near-optimality", ok,
           f"DuelDQN/oracle objective ratio {mean_ratio:.3f} over "
           f"{len(ratios)} seeds (per-seed: "
           + ", ".join(f"{r:.3f}" for r in ratios) + ")")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: convergence ordering

def test_criterion_5_convergence_ordering(duel_records, double_records,
                                          dqn_records):
    def mean_conv(records):
        values = [r.episodes_to_95 if r.episodes_to_95 is not None
                  else r.episodes for r in records]
        return float(np.mean(values)), values

    duel, duel_all = mean_conv(duel_records)
    double, double_all = mean_conv(double_records)
    dqn, dqn_all = mean_conv(dqn_records)
    ok = duel <= double and duel <= dqn
    flag = "" if ok else "  [DEVIATION FLAGGED: DuelDQN not fastest]"
    report(5, "convergence ordering", ok,
           f"episodes-to-95% DuelDQN={duel:.1f} {duel_all}, "
           f"DoubleDQN={double:.1f} {double_all}, DQN={dqn:.1f} {dqn_all}"
           + flag)
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: MBN superiority and the single-cell capacity wall

def test_criterion_6_mbn_superiority(duel_records, sbn_records, sc_records):
    mbn = float(np.mean([r.fembb_rate_bps for r in duel_records]))
    sbn = float(np.mean([r.fembb_rate_bps for r in sbn_records]))
    sc = float(np.mean([r.fembb_rate_bps for r in sc_records]))
    ordering_ok = mbn > sbn > sc

    # capacity wall: with 20 subchannels on one station, the unserved-user
    # penalty appears exactly when the FeMBB count exceeds 20
    wall_ok = True
    details = []
    for count in (19, 20, 21, 23):
        cfg = ScenarioConfig.full_default().replace(
            n_fembb=count, n_eurllc=0, aerial_fraction=0.0,
            hotspot_fraction=0.0, n_tbs=0)
        state = make_sc_scenario(generate_scenario(cfg, seed=60 + count))
        state.fading[:] = 1.0
        state.gains, state.reachable = compute_gain_tensor(
            state.channel, state.stations, state.users, state.fading)
        alloc = Allocation(count, 0, state.n_subchannels, state.n_minislots)
        for f in range(count):
            free = [k for k in range(state.n_subchannels)
                    if not (alloc.fembb_k[:f][alloc.fembb_bs[:f] == 0] == k).any()]
            if free:
                best = max(free, key=lambda k: state.gains[f, 0, k])
                alloc.fembb_bs[f], alloc.fembb_k[f] = 0, best
        weights = ScalarizedObjective.for_state(state)
        br = objective_breakdown(state, alloc, weights)
        served = int((alloc.fembb_bs >= 0).sum())
        violations = served - int(br.fembb_ok.sum()) + (count - served)
        expected = max(0, count - 20)
        details.append(f"n={count}: {violations} penalties")
        if violations != expected:
            wall_ok = False

    ok = ordering_ok and wall_ok
    report(6, "MBN superiority", ok,
           f"FeMBB rate MBN={mbn/1e9:.2f} Gbps > SBN={sbn/1e6:.1f} Mbps > "
           f"SC={sc/1e6:.1f} Mbps: {ordering_ok}; capacity wall "
           + ", ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: FeMBB rate vs eURLLC load

def test_criterion_7_eurllc_loading_trend():
    spec = accept_spec(
        "duel_dqn",
        scenario=ScenarioConfig.desk_default().replace(
            n_fembb=3, minislots_per_subchannel=2),
        episodes=1500,
        sweep_param="n_eurllc",
        sweep_values=(2, 4, 6, 8),
    )
    records = run_experiment(spec)
    means, sems = [], []
    for value in spec.sweep_values:
        rates = [r.fembb_rate_bps for r in records if r.sweep_value == value]
        means.append(float(np.mean(rates)))
        sems.append(float(np.std(rates, ddof=1) / math.sqrt(len(rates))))
    inversions = []
    for i in range(len(means) - 1):
        if means[i + 1] > means[i]:
            gap = means[i + 1] - means[i]
            combined = math.hypot(sems[i], sems[i + 1])
            inversions.append((i, gap, combined))
    ok = len(inversions) == 0 or (len(inversions) == 1
                                  and inversions[0][1] <= inversions[0][2])
    pretty = ", ".join(f"{v}:{m/1e9:.3f}±{s/1e9:.3f}G"
                       for v, m, s in zip(spec.sweep_values, means, sems))
    report(7, "eURLLC loading trend", ok,
           f"FeMBB rate vs eURLLC count [{pretty}]; "
           f"{len(inversions)} inversion(s)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: robustness of re-deciding DuelDQN vs the frozen oracle

@pytest.fixture(scope="module")
def robustness_policy():
    cfg = ScenarioConfig.desk_default()
    state = generate_scenario(cfg, seed=derived_seed(cfg.seed, 8, 0))
    weights = ScalarizedObjective.for_state(state)
    env = JnsaEnv(state.copy(), weights, seed=derived_seed(cfg.seed, 8, 1))
    trainer_f, trainer_u, _ = train_policies(
        env, Algorithm.DUEL_DQN, ACCEPT_EPISODES, ACCEPT_TRAINER,
        seed=derived_seed(cfg.seed, 8, 2),
        epsilon_decay_fraction=ACCEPT_DECAY_FRACTION)
    return state, weights, trainer_f.online, trainer_u.online


def _degradation(rows, at_value):
    base = next(r for r in rows if r["value"] == rows[0]["value"])
    last = next(r for r in rows if r["value"] == at_value)
    return (base["fembb_rate_bps_mean"] - last["fembb_rate_bps_mean"]) \
        / base["fembb_rate_bps_mean"]


def test_criterion_8_robustness_ordering(robustness_policy):
    state, weights, fembb_model, eurllc_model = robustness_policy
    deltas = [1.0, 1.5, 2.0, 3.0]
    times = [0.0, 5.0, 10.0, 20.0, 40.0]

    # CSI noise: one scenario state, 24 noise draws per delta
    oracle_alloc, _ = optimal_allocation(state, weights)
    frozen_rows = robustness_sweep(state, weights, "csi", deltas,
                                   allocation=oracle_alloc)
    policy_rows = robustness_sweep(state, weights, "csi", deltas,
                                   fembb_model=fembb_model,
                                   eurllc_model=eurllc_model)
    csi_frozen = _degradation(frozen_rows, 3.0)
    csi_policy = _degradation(policy_rows, 3.0)
    csi_ok = csi_frozen > csi_policy

    # mobility: 20 fresh fading states, deterministic radial retreat
    env = JnsaEnv(state.copy(), weights, seed=8100)
    frozen_deg, policy_deg = [], []
    for _ in range(20):
        env.reset()
        rep_state = env.state.copy()
        alloc, _ = optimal_allocation(rep_state, weights)
        f_rows = robustness_sweep(rep_state, weights, "mobility",
                                  [0.0, times[-1]], allocation=alloc)
        p_rows = robustness_sweep(rep_state, weights, "mobility",
                                  [0.0, times[-1]], fembb_model=fembb_model,
                                  eurllc_model=eurllc_model)
        frozen_deg.append(_degradation(f_rows, times[-1]))
        policy_deg.append(_degradation(p_rows, times[-1]))
    mob_frozen = float(np.mean(frozen_deg))
    mob_policy = float(np.mean(policy_deg))
    mob_ok = mob_frozen > mob_policy

    ok = csi_ok and mob_ok
    report(8, "robustness ordering", ok,
           f"CSI delta=3: frozen degradation {csi_frozen:.3f} vs re-deciding "
           f"{csi_policy:.3f}; mobility t=40s: frozen {mob_frozen:.3f} vs "
           f"re-deciding {mob_policy:.3f} (20 states)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: determinism of the experiment harness

def test_criterion_9_determinism(tmp_path):
    spec = accept_spec(
        "duel_dqn",
        scenario=ScenarioConfig.desk_default().replace(
            n_fembb=2, n_eurllc=2, subchannels_per_band=3,
            minislots_per_subchannel=2),
        episodes=120,
        seeds=(1, 2),
    )
    run_experiment(spec, tmp_path / "a")
    run_experiment(spec, tmp_path / "b")

    def rows_without_wall_clock(path: Path) -> list[str]:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        idx = rows[0].index("wall_clock_s")
        return ["|".join(v for i, v in enumerate(row) if i != idx)
                for row in rows]

    runs_equal = rows_without_wall_clock(tmp_path / "a/runs.csv") == \
        rows_without_wall_clock(tmp_path / "b/runs.csv")
    rewards_equal = (tmp_path / "a/rewards.csv").read_bytes() == \
        (tmp_path / "b/rewards.csv").read_bytes()
    summary_equal = (tmp_path / "a/summary.csv").read_bytes() == \
        (tmp_path / "b/summary.csv").read_bytes()
    ok = runs_equal and rewards_equal and summary_equal
    report(9, "determinism", ok,
           f"runs.csv identical={runs_equal} (wall-clock excluded), "
           f"rewards.csv identical={rewards_equal}, "
           f"summary.csv identical={summary_equal}")
    assert ok
