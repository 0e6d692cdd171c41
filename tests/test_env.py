"""Environment semantics: allocation invariants, objective accounting,
step rewards, host resolution, CSI noise, and mobility."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mbnsim.config import ScenarioConfig
from mbnsim.env import (Allocation, AllocationError, JnsaEnv,
                        ScalarizedObjective, Stations, apply_mobility,
                        objective, objective_breakdown, perturb_csi,
                        reached_stations, resolve_eurllc_host)
from mbnsim.phy import Band, noise_power_w, rf_path_gain
from mbnsim.scenario import (UserClass, _gain_log_bounds, compute_gain_tensor,
                             generate_scenario, make_sbn_scenario,
                             make_sc_scenario, refresh_fading)
from mbnsim.service import (decoding_error_probability, punctured_rate,
                            shannon_rate)


def desk_cfg(**overrides) -> ScenarioConfig:
    return ScenarioConfig.desk_default().replace(**overrides)


def make_state(seed=42, **overrides):
    return generate_scenario(desk_cfg(**overrides), seed=seed)


def single_rbs_state(seed=42, **overrides):
    """RBS-only state with frozen unit fading for hand computations."""
    state = make_state(seed=seed, n_tbs=0, **overrides)
    state.fading[:] = 1.0
    state.gains, state.reachable = compute_gain_tensor(
        state.channel, state.stations, state.users, state.fading)
    state.gain_log_bounds = _gain_log_bounds(state.gains, state.reachable)
    return state


class TestAllocation:
    def test_double_assignment_rejected(self):
        alloc = Allocation(2, 0, 4, 3)
        alloc.fembb_bs[:] = [0, 0]
        alloc.fembb_k[:] = [1, 1]
        with pytest.raises(AllocationError):
            alloc.validate()

    def test_double_puncture_rejected(self):
        alloc = Allocation(0, 2, 4, 3)
        alloc.eurllc_k[:] = [2, 2]
        alloc.eurllc_m[:] = [1, 1]
        alloc.eurllc_host[:] = [0, 0]
        with pytest.raises(AllocationError):
            alloc.validate()

    def test_slot_indices_must_agree(self):
        alloc = Allocation(0, 1, 4, 3)
        alloc.eurllc_k[0] = 1
        alloc.eurllc_host[0] = 0
        with pytest.raises(AllocationError):
            alloc.validate()

    def test_host_must_match_beta(self):
        alloc = Allocation(0, 1, 4, 3)
        alloc.eurllc_host[0] = 2
        with pytest.raises(AllocationError):
            alloc.validate()

    def test_json_round_trip(self):
        # the document the oracle writes, and what a reader gets back
        alloc = Allocation(2, 2, 4, 3)
        alloc.fembb_bs[0], alloc.fembb_k[0] = 1, 3
        alloc.eurllc_k[1], alloc.eurllc_m[1] = 2, 0
        alloc.eurllc_host[1] = 0
        doc = alloc.to_json()
        assert doc == {
            "schema_version": 1, "n_fembb": 2, "n_eurllc": 2,
            "n_subchannels": 4, "n_minislots": 3,
            "fembb": [[1, 3], None], "punctures": [None, [2, 0, 0]]}
        assert json.loads(json.dumps(doc)) == doc

    @pytest.mark.parametrize("fembb, puncture", [
        ((9, 0), None),
        (None, (0, 0, 5)),
    ], ids=["fembb_station_past_n_bs", "puncture_host_past_n_bs"])
    def test_station_past_n_bs_rejected(self, fembb, puncture):
        # the allocation does not know n_bs, so scoring catches the index
        state = make_state(n_fembb=1, n_eurllc=1)
        assert state.n_bs == 3
        alloc = Allocation(1, 1, state.n_subchannels, state.n_minislots)
        if fembb is not None:
            alloc.fembb_bs[0], alloc.fembb_k[0] = fembb
        if puncture is not None:
            alloc.eurllc_k[0], alloc.eurllc_m[0], alloc.eurllc_host[0] = puncture
        alloc.validate()
        with pytest.raises(AllocationError):
            objective_breakdown(state, alloc, ScalarizedObjective.for_state(state))


class TestObjective:
    def test_empty_allocation_is_all_penalties(self):
        state = make_state()
        weights = ScalarizedObjective(rate_scale_bps=1e9,
                                      reliability_scale=4.0)
        alloc = Allocation(4, 4, state.n_subchannels, state.n_minislots)
        value = objective(state, alloc, weights)
        assert value == pytest.approx(-1.0)
        # an unassigned user's share is a float, an assigned user's an
        # np.float64, so the value's type (and repr) follows the allocation
        assert type(value) is float
        alloc.fembb_bs[0], alloc.fembb_k[0] = 0, 0
        assert type(objective(state, alloc, weights)) is np.float64

    def test_two_user_toy_matches_hand_computation(self):
        state = single_rbs_state(n_fembb=1, n_eurllc=1, aerial_fraction=0.0,
                                 hotspot_fraction=0.0)
        weights = ScalarizedObjective(rate_scale_bps=2e7,
                                      reliability_scale=1.0)
        alloc = Allocation(1, 1, state.n_subchannels, state.n_minislots)
        alloc.fembb_bs[0], alloc.fembb_k[0] = 0, 0
        alloc.eurllc_k[0], alloc.eurllc_m[0] = 0, 1
        alloc.eurllc_host[0] = 0

        # independent recomputation from the service-layer formulas
        w_sub = state.channel.rf_subchannel_bandwidth_hz
        noise = noise_power_w(state.channel, w_sub)
        power = state.stations[0].max_power_w / state.n_subchannels
        d_f = np.linalg.norm(state.users[0].position
                             - state.stations[0].position)
        d_u = np.linalg.norm(state.users[1].position
                             - state.stations[0].position)
        gamma_f = power * rf_path_gain(state.channel, d_f, 1.0) / noise
        gamma_u = power * rf_path_gain(state.channel, d_u, 1.0) / noise
        rate = punctured_rate(w_sub, gamma_f, 1, state.n_minislots)
        eps = decoding_error_probability(state.frame_rf, gamma_u)
        expected = 0.5 * rate / 2e7 + 0.5 * (1.0 - eps)

        assert objective(state, alloc, weights) == pytest.approx(
            expected, rel=1e-12)
        br = objective_breakdown(state, alloc, weights)
        assert br.fembb_rates_bps[0] == pytest.approx(rate, rel=1e-12)
        assert br.eurllc_errors[0] == pytest.approx(eps, rel=1e-12, abs=0.0)

    def test_rate_only_weights_equal_normalized_sum_rate(self):
        state = single_rbs_state(n_fembb=2, n_eurllc=0, aerial_fraction=0.0,
                                 hotspot_fraction=0.0)
        weights = ScalarizedObjective(weight_rate=1.0,
                                      rate_scale_bps=1e8,
                                      reliability_scale=1.0)
        alloc = Allocation(2, 0, state.n_subchannels, state.n_minislots)
        alloc.fembb_bs[:] = [0, 0]
        alloc.fembb_k[:] = [0, 1]
        br = objective_breakdown(state, alloc, weights)
        assert br.value == pytest.approx(br.fembb_rates_bps.sum() / 1e8,
                                         rel=1e-12)

    def test_puncturing_free_subchannels_never_moves_rate_term(self):
        state = single_rbs_state(n_fembb=1, n_eurllc=2, aerial_fraction=0.0,
                                 hotspot_fraction=0.0)
        weights = ScalarizedObjective(weight_rate=1.0,
                                      rate_scale_bps=1e8,
                                      reliability_scale=2.0)
        base = Allocation(1, 2, state.n_subchannels, state.n_minislots)
        base.fembb_bs[0], base.fembb_k[0] = 0, 0
        punctured = base.copy()
        punctured.eurllc_k[0], punctured.eurllc_m[0] = 1, 0   # free subchannel 1
        punctured.eurllc_host[0] = 0
        punctured.eurllc_k[1], punctured.eurllc_m[1] = 2, 2   # free subchannel 2
        punctured.eurllc_host[1] = 0
        assert objective(state, punctured, weights) == objective(
            state, base, weights)

    def test_invalid_allocation_raises(self):
        state = make_state()
        weights = ScalarizedObjective.for_state(state)
        alloc = Allocation(4, 4, state.n_subchannels, state.n_minislots)
        alloc.fembb_bs[:2] = [0, 0]
        alloc.fembb_k[:2] = [0, 0]
        with pytest.raises(AllocationError):
            objective(state, alloc, weights)

    def test_qos_relaxed_never_lowers_objective(self):
        state = single_rbs_state(n_fembb=2, n_eurllc=0, aerial_fraction=0.0,
                                 hotspot_fraction=0.0)
        weights = ScalarizedObjective(rate_scale_bps=1e8,
                                      reliability_scale=1.0)
        alloc = Allocation(2, 0, state.n_subchannels, state.n_minislots)
        alloc.fembb_bs[0], alloc.fembb_k[0] = 0, 0  # second user starved
        enforced = objective(state, alloc, weights)
        state.fembb_qos_enforced = False
        relaxed = objective(state, alloc, weights)
        assert relaxed >= enforced


class TestScalarizedObjective:
    def test_weights_must_sum_to_one(self):
        for weight_rate in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                ScalarizedObjective(weight_rate=weight_rate)
        with pytest.raises(ValueError):
            ScalarizedObjective(rate_scale_bps=0.0)

    @pytest.mark.parametrize("penalty", [-1.0, -1e-12, float("nan")])
    def test_negative_violation_penalty_rejected(self, penalty):
        with pytest.raises(ValueError, match="violation_penalty"):
            ScalarizedObjective(violation_penalty=penalty)
        with pytest.raises(ValueError, match="violation_penalty"):
            ScalarizedObjective.for_state(make_state(),
                                          violation_penalty=penalty)
        ScalarizedObjective(violation_penalty=0.0)

    def test_for_state_scales(self):
        state = make_state()
        cfg = ScalarizedObjective.for_state(state, weight_rate=0.3)
        assert cfg.weight_rate == 0.3
        assert cfg.weight_reliability == 0.7
        assert cfg.reliability_scale == 4.0
        assert cfg.rate_scale_bps > 0


class TestHostResolution:
    def test_prefers_occupied_subchannel_host(self):
        state = make_state(seed=17)  # has hotspot users in TBS coverage
        hot = next(i for i in state.eurllc_users
                   if state.reachable[i, 1:].any())
        tbs = 1 + int(np.argmax(state.reachable[hot, 1:]))
        occupied = np.zeros((state.n_bs, state.n_subchannels), dtype=bool)
        k = 0
        assert state.gains[hot, tbs, k] > state.gains[hot, 0, k]
        # free subchannel: best-gain reachable station wins
        assert resolve_eurllc_host(state, occupied, hot, k) == tbs
        # RF station hosts a FeMBB assignment on k: it must host the puncture
        occupied[0, k] = True
        assert resolve_eurllc_host(state, occupied, hot, k) == 0

    def test_unreachable_tbs_never_hosts(self):
        state = make_state(seed=17)
        far = next(i for i in state.eurllc_users
                   if not state.reachable[i, 1:].any())
        occupied = np.zeros((state.n_bs, state.n_subchannels), dtype=bool)
        occupied[1, 2] = True  # occupied, but out of reach
        assert resolve_eurllc_host(state, occupied, far, 2) == 0


class TestEnvStep:
    def test_order_fembb_first(self):
        env = JnsaEnv(make_state(), seed=3)
        env.reset()
        classes = []
        while not env.done:
            classes.append(env.user_class(env.current_agent))
            env.step(0)
        assert classes == [UserClass.FEMBB] * 4 + [UserClass.EURLLC] * 4

    @pytest.mark.parametrize("penalty", [-1.0, math.nan, math.inf, -math.inf])
    def test_conflict_penalty_must_be_finite_nonnegative(self, penalty):
        with pytest.raises(ValueError, match="conflict_penalty"):
            JnsaEnv(make_state(), conflict_penalty=penalty)

    def test_out_of_range_action_raises(self):
        env = JnsaEnv(make_state(), seed=3)
        env.reset()
        with pytest.raises(IndexError):
            env.step(env.fembb_action_count)

    def test_accepted_step_reward_is_marginal_objective(self):
        env = JnsaEnv(make_state(), seed=3)
        env.reset()
        user = env.current_agent
        j = 0
        k = 2
        before = objective(env.state, env.allocation.copy(),
                           env.objective_cfg)
        _, reward, _ = env.step(j * env.state.n_subchannels + k)
        after = objective(env.state, env.allocation, env.objective_cfg)
        assert reward == pytest.approx(after - before, rel=1e-12)
        f = env.state.fembb_users.index(user)
        assert env.allocation.fembb_bs[f] == j
        assert reward > 0
        # first commit: no interference, no punctures, so the reward is the
        # served user's normalized rate plus the removed unserved penalty,
        # recomputed here straight from the service formulas
        state = env.state
        w_sub = state.channel.rf_subchannel_bandwidth_hz
        p_sub = state.stations[0].max_power_w / state.n_subchannels
        gamma = (p_sub * state.gains[user, 0, k]
                 / noise_power_w(state.channel, w_sub))
        cfg = env.objective_cfg
        expected = cfg.weight_rate * (
            shannon_rate(w_sub, gamma) / cfg.rate_scale_bps
            + cfg.violation_penalty / len(env.fembb_ids))
        assert reward == pytest.approx(expected, rel=1e-12)

    def test_occupied_subchannel_rejected_with_penalty(self):
        env = JnsaEnv(make_state(), conflict_penalty=1.0, seed=3)
        env.reset()
        env.step(2)  # first agent takes (bs 0, k 2)
        alloc_before = env.allocation.copy()
        obj_before = env.breakdown.value
        _, reward, _ = env.step(2)  # second agent collides
        assert reward == -1.0
        assert env.breakdown.value == obj_before
        assert np.array_equal(env.allocation.fembb_bs, alloc_before.fembb_bs)

    def test_unreachable_tbs_rejected(self):
        state = make_state(seed=17)
        env = JnsaEnv(state, seed=3)
        env.reset()
        far = next(u for u in state.fembb_users
                   if not state.reachable[u, 1:].any())
        while env.current_agent != far:
            env.step(0)  # burn turns on action 0
        _, reward, _ = env.step(1 * state.n_subchannels + 0)
        assert reward == -env.conflict_penalty

    def test_eurllc_below_threshold_rejected(self):
        from mbnsim.service import eurllc_feasible
        state = single_rbs_state(n_fembb=0, n_eurllc=2, aerial_fraction=0.0,
                                 hotspot_fraction=0.0)
        state.fading[:] = 1e-15  # starve the SINR
        state.gains, state.reachable = compute_gain_tensor(
            state.channel, state.stations, state.users, state.fading)
        env = JnsaEnv(state, seed=3, refresh_fading_on_reset=False)
        env.reset()
        user = env.current_agent
        p_sub = state.stations[0].max_power_w / state.n_subchannels
        gamma = (p_sub * state.gains[user, 0, 0] / noise_power_w(
            state.channel, state.channel.rf_subchannel_bandwidth_hz))
        assert not eurllc_feasible(state.frame_rf, gamma, state.qos)
        _, reward, _ = env.step(0)
        assert reward == -env.conflict_penalty
        assert (env.allocation.eurllc_k == -1).all()

    def test_taken_eurllc_slot_rejected_with_penalty(self):
        state = single_rbs_state(n_fembb=0, n_eurllc=2, aerial_fraction=0.0,
                                 hotspot_fraction=0.0)
        env = JnsaEnv(state, conflict_penalty=1.7, seed=3,
                      refresh_fading_on_reset=False)
        env.reset()
        _, reward, _ = env.step(0)  # first agent takes (k 0, m 0)
        assert reward > 0
        alloc_before = env.allocation.copy()
        obj_before = env.breakdown.value
        _, reward, done = env.step(0)  # second agent collides on the slot
        assert done
        assert reward == -1.7
        assert env.conflict_penalty_total == 1.7
        assert env.breakdown.value == obj_before
        assert env.allocation.canonical_key() == alloc_before.canonical_key()

    @pytest.mark.parametrize("enforced", [True, False])
    def test_below_target_fembb_step_follows_qos_enforcement(self, enforced):
        state = single_rbs_state(n_fembb=2, n_eurllc=0, aerial_fraction=0.0,
                                 hotspot_fraction=0.0)
        state.fading[:] = 1e-15  # starve the rate
        state.gains, state.reachable = compute_gain_tensor(
            state.channel, state.stations, state.users, state.fading)
        state.fembb_qos_enforced = enforced
        env = JnsaEnv(state, seed=3, refresh_fading_on_reset=False)
        env.reset()
        f = state.fembb_users.index(env.current_agent)
        before = env.breakdown.value
        _, reward, _ = env.step(0)  # (bs 0, subchannel 0)
        rate = objective_breakdown(state, env.allocation,
                                   env.objective_cfg).fembb_rates_bps[f]
        if enforced:
            assert reward == -env.conflict_penalty
            assert (env.allocation.fembb_bs == -1).all()
        else:
            assert 0 < rate < state.qos.fembb_min_rate_bps
            assert env.allocation.fembb_bs[f] == 0
            assert reward == env.breakdown.value - before

    def test_done_after_all_agents(self):
        env = JnsaEnv(make_state(), seed=5)
        env.reset()
        done = False
        steps = 0
        while not done:
            _, _, done = env.step(0)
            steps += 1
        assert steps == 8
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_telescoping_reward_sum(self):
        env = JnsaEnv(make_state(), conflict_penalty=1.3, seed=7)
        rng = np.random.default_rng(0)
        for _ in range(5):
            env.reset()
            initial = env.breakdown.value
            total = 0.0
            done = False
            while not done:
                n = env.action_count_for(env.current_agent)
                _, r, done = env.step(int(rng.integers(n)))
                total += r
            final = env.breakdown.value
            assert total == pytest.approx(
                final - initial - env.conflict_penalty_total, abs=1e-9)
            env.allocation.validate()

    def test_invariants_after_random_episodes(self):
        env = JnsaEnv(make_state(seed=77), seed=11)
        rng = np.random.default_rng(1)
        for _ in range(10):
            env.reset()
            while not env.done:
                n = env.action_count_for(env.current_agent)
                env.step(int(rng.integers(n)))
                env.allocation.validate()  # holds after every step
            # committed eURLLC users are feasible by construction
            br = objective_breakdown(env.state, env.allocation,
                                     env.objective_cfg)
            served = env.allocation.eurllc_k >= 0
            assert br.eurllc_ok[served].all()

    def test_observation_bounds_and_dims(self):
        env = JnsaEnv(make_state(), seed=13)
        obs = env.reset()
        assert obs.shape == (env.fembb_obs_dim,)
        while not env.done:
            user = env.current_agent
            obs = env.observe(user)
            expected = (env.fembb_obs_dim
                        if env.user_class(user) is UserClass.FEMBB
                        else env.eurllc_obs_dim)
            assert obs.shape == (expected,)
            assert (obs >= 0).all() and (obs <= 1).all()
            env.step(0)

    def test_eurllc_observation_marks_punctured_slots(self):
        env = JnsaEnv(make_state(seed=77), seed=11)
        rng = np.random.default_rng(2)
        c, m = env.state.n_subchannels, env.state.n_minislots
        for _ in range(5):
            env.reset()
            while not env.done:
                user = env.current_agent
                if env.user_class(user) is UserClass.EURLLC:
                    alloc = env.allocation
                    expected = np.zeros((c, m))
                    for q in range(alloc.n_eurllc):
                        if alloc.eurllc_slot(q) is not None:
                            expected[alloc.eurllc_slot(q)] = 1.0
                    assert np.array_equal(env.observe(user)[-c * m:],
                                          expected.ravel())
                env.step(int(rng.integers(env.action_count_for(user))))

    def test_empty_scenario_reset_is_done(self):
        # a scenario needs a user, but the single-cell transform drops the
        # aerial ones, so it leaves none of an all-aerial scenario
        state = make_sc_scenario(make_state(n_fembb=1, n_eurllc=1,
                                            aerial_fraction=1.0))
        assert state.n_users == 0
        env = JnsaEnv(state, seed=1)
        env.reset()
        assert env.done


class TestStationList:
    """Observations and FeMBB actions range over the RF station and the
    stations some user reaches; a caller may pass another list."""

    @pytest.mark.parametrize("transform", [
        lambda s: s, make_sbn_scenario, make_sc_scenario],
        ids=["mbn_reaching_all", "sbn", "sc"])
    def test_full_reach_keeps_every_station_and_the_dims(self, transform):
        state = transform(make_state(seed=42))
        assert state.reachable.any(axis=0).all()
        env = JnsaEnv(state)
        c, m = state.n_subchannels, state.n_minislots
        assert np.array_equal(env.stations, np.arange(state.n_bs))
        assert env.fembb_action_count == state.n_bs * c
        assert env.fembb_obs_dim == 2 + 2 * state.n_bs * c
        assert env.eurllc_obs_dim == 2 + 2 * state.n_bs * c + c * m

    def test_unreached_station_is_dropped(self):
        # desk seed 41 reaches the RF station and station 2, not station 1
        state = make_state(seed=41)
        assert np.array_equal(reached_stations(state), [0, 2])
        assert not state.reachable[:, 1].any()
        env = JnsaEnv(state)
        c = state.n_subchannels
        assert np.array_equal(env.stations, [0, 2])
        assert env.fembb_action_count == 2 * c
        assert env.fembb_obs_dim == 2 + 2 * 2 * c

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dropped_station_plays_like_the_full_list(self, seed):
        state = make_state(seed=41)
        n_bs, c = state.n_bs, state.n_subchannels
        short = JnsaEnv(state.copy(), seed=seed)
        full = JnsaEnv(state.copy(), seed=seed, stations=np.arange(n_bs))
        # the full observation's gain and occupancy columns of the kept
        # stations, then its puncture bits
        kept = np.zeros((2, n_bs, c), dtype=bool)
        kept[:, short.stations] = True
        columns = np.concatenate([[True, True], kept.ravel(),
                                  np.ones(c * state.n_minislots, dtype=bool)])
        rng = np.random.default_rng(seed)
        for _ in range(3):
            obs = short.reset()
            full_obs = full.reset()
            while not short.done:
                user = short.current_agent
                assert full.current_agent == user
                assert np.array_equal(obs, full_obs[columns[:len(full_obs)]])
                action = int(rng.integers(short.action_count_for(user)))
                mapped = action
                if short.user_class(user) is UserClass.FEMBB:
                    j, k = divmod(action, c)
                    mapped = int(short.stations[j]) * c + k
                obs, reward, done = short.step(action)
                full_obs, full_reward, full_done = full.step(mapped)
                assert (reward, done) == (full_reward, full_done)
            assert (short.allocation.canonical_key()
                    == full.allocation.canonical_key())
            _assert_same_breakdown(short.breakdown, full.breakdown)

    @pytest.mark.parametrize("stations", [
        [1, 2], [0, 0, 2], [0, 2, 1], [0, 3], [], [[0, 1]], [0.0, 1.0],
        [True, False], [0, -1]],
        ids=["no_rf", "repeated", "decreasing", "past_n_bs", "empty",
             "nested", "floats", "bools", "negative"])
    def test_bad_station_list_rejected(self, stations):
        with pytest.raises(ValueError, match="stations"):
            JnsaEnv(make_state(seed=42), stations=stations)


def _with_qos(transform, enforced):
    def variant(state):
        state = transform(state)
        state.fembb_qos_enforced = enforced
        return state
    return variant


# every network variant, with the FeMBB rate target enforced and dropped
SCORING_VARIANTS = {
    "mbn": _with_qos(lambda s: s, True),
    "mbn_noqos": _with_qos(lambda s: s, False),
    "sbn": _with_qos(make_sbn_scenario, True),
    "sbn_noqos": _with_qos(make_sbn_scenario, False),
    "sc": make_sc_scenario,
    "sc_noqos": lambda s: make_sc_scenario(s, qos_enforced=False),
}


def _breakdown_arrays(br):
    return [br.fembb_rates_bps, br.fembb_ok, br.eurllc_errors, br.eurllc_ok]


def _assert_same_breakdown(got, want):
    # the type too: a float and an np.float64 of equal value repr differently
    assert got.value == want.value and type(got.value) is type(want.value)
    assert all(np.array_equal(a, b) for a, b in
               zip(_breakdown_arrays(got), _breakdown_arrays(want)))
    assert got.fembb_terms == want.fembb_terms
    assert got.eurllc_terms == want.eurllc_terms


class TestIncrementalScoring:
    """The env scores a step from its kept grids and the committed
    breakdown; `objective_breakdown` from scratch is the reference."""

    def test_stations_match_hand_computed_constants(self):
        cfg = desk_cfg(n_tbs=3)
        state = generate_scenario(cfg, seed=42)
        stations = Stations(state)
        channel, c = state.channel, cfg.subchannels_per_band
        noise_rf = noise_power_w(channel, cfg.rf_total_bandwidth_hz / c)
        noise_thz = noise_power_w(channel, cfg.thz_total_bandwidth_hz / c)
        assert stations.band == [Band.RF] + [Band.THZ] * 3
        assert stations.power == ([cfg.rbs_power_w / c]
                                  + [cfg.tbs_power_w / c] * 3)
        assert stations.noise == [noise_rf] + [noise_thz] * 3
        assert stations.frame == [state.frame_rf] + [state.frame_thz] * 3
        user, k = 0, 1
        for j in range(state.n_bs):
            want = (stations.power[j] * state.gains[user, j, k]
                    / stations.noise[j])
            assert stations.free_gamma(user, j, k) == want
        # a table reads the gains when called, so a fading refresh shows
        before = stations.free_gamma(user, 0, k)
        refresh_fading(state, np.random.default_rng(0))
        after = stations.free_gamma(user, 0, k)
        assert after != before and after == (
            stations.power[0] * state.gains[user, 0, k] / noise_rf)

    @settings(deadline=None)
    @given(variant=st.sampled_from(sorted(SCORING_VARIANTS)),
           n_fembb=st.integers(0, 6), n_eurllc=st.integers(0, 6),
           n_tbs=st.integers(0, 3), subchannels=st.sampled_from([1, 2, 4]),
           hotspots=st.booleans(), seed=st.integers(0, 10_000),
           data=st.data())
    def test_step_matches_reference_bit_for_bit(self, variant, n_fembb,
                                                n_eurllc, n_tbs, subchannels,
                                                hotspots, seed, data):
        # few subchannels crowd links onto shared ones, and hotspot users
        # put THz stations to work: interference, punctures of occupied and
        # of free subchannels, and slot conflicts all occur
        assume(n_fembb + n_eurllc > 0)   # a scenario without users is invalid
        placement = (dict(aerial_fraction=0.0, hotspot_fraction=1.0)
                     if hotspots else {})
        state = SCORING_VARIANTS[variant](make_state(
            seed=seed, n_fembb=n_fembb, n_eurllc=n_eurllc, n_tbs=n_tbs,
            subchannels_per_band=subchannels, **placement))
        env = JnsaEnv(state, seed=seed)
        n_bs = state.n_bs
        for _ in range(2):
            env.reset()
            _assert_same_breakdown(env.breakdown, objective_breakdown(
                env.state, env.allocation, env.objective_cfg))
            while not env.done:
                alloc, br = env.allocation, env.breakdown
                grids = env._occupied, env._punct
                kept = ([a.copy() for a in _breakdown_arrays(br)],
                        [g.copy() for g in grids], alloc.copy())
                penalties = env.conflict_penalty_total
                env.step(data.draw(st.integers(
                    0, env.action_count_for(env.current_agent) - 1)))
                # the committed breakdown is replaced, never mutated
                assert all(np.array_equal(a, b) for a, b in
                           zip(_breakdown_arrays(br), kept[0]))
                if env.conflict_penalty_total > penalties:  # rejected
                    assert env.breakdown is br and env.allocation is alloc
                    assert env._occupied is grids[0]
                    assert env._punct is grids[1]
                    assert all(np.array_equal(g, h)
                               for g, h in zip(grids, kept[1]))
                    assert alloc.canonical_key() == kept[2].canonical_key()
                _assert_same_breakdown(env.breakdown, objective_breakdown(
                    env.state, env.allocation, env.objective_cfg))
                assert np.array_equal(env._occupied,
                                      env.allocation.occupied(n_bs))
                assert np.array_equal(env._punct,
                                      env.allocation.puncture_counts(n_bs))


class TestPerturbCsi:
    def test_identity_at_one(self):
        state = make_state()
        out = perturb_csi(state, 1.0, seed=5)
        assert np.array_equal(out.gains, state.gains)

    def test_deterministic_per_seed(self):
        state = make_state()
        a = perturb_csi(state, 2.0, seed=5)
        b = perturb_csi(state, 2.0, seed=5)
        c = perturb_csi(state, 2.0, seed=6)
        assert np.array_equal(a.gains, b.gains)
        assert not np.array_equal(a.gains, c.gains)

    def test_delta_below_one_rejected(self):
        for delta in (0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                perturb_csi(make_state(), delta, seed=1)

    def test_original_untouched_and_nonnegative(self):
        state = make_state()
        before = state.gains.copy()
        out = perturb_csi(state, 3.0, seed=9)
        assert np.array_equal(state.gains, before)
        assert (out.gains >= 0).all()

    def test_noise_moments_at_delta_two(self):
        # oracle: with gains ~ 1e-9, h' - sqrt(2) h = |w| up to O(h), where
        # |w| is Rayleigh with E|w|^2 = 1 and Var|w| = 1 - pi/4
        state = make_state(n_fembb=120, n_eurllc=120, subchannels_per_band=6,
                           seed=3)
        out = perturb_csi(state, 2.0, seed=11)
        residual = (out.gains - math.sqrt(2.0) * state.gains).ravel()
        assert residual.mean() ** 2 + residual.var() == pytest.approx(
            1.0, abs=0.05)  # second moment
        assert residual.var() == pytest.approx(1.0 - math.pi / 4, abs=0.03)


class TestMobility:
    def _served_state(self, seed=42):
        """A state, an allocation serving each user by its first reachable
        THz station (else the RF station 0), and each user's station."""
        state = make_state(seed=seed)
        serving = np.zeros(state.n_users, dtype=int)
        for i in range(state.n_users):
            if state.reachable[i, 1:].any():
                serving[i] = 1 + int(np.argmax(state.reachable[i, 1:]))
        alloc = Allocation(len(state.fembb_users), len(state.eurllc_users),
                           state.n_subchannels, state.n_minislots,
                           fembb_bs=serving[state.fembb_users],
                           eurllc_host=serving[state.eurllc_users])
        return state, alloc, serving

    def test_serving_from_allocation(self):
        # hand-computed: 10 s at 2 m/s moves each user 20 m straight away
        # from its station, in the plane both share
        state = make_state()
        state.stations[0].position = np.array([0.0, 0.0, 1.5])
        state.stations[1].position = np.array([10.0, 0.0, 1.5])
        state.stations[2].position = np.array([0.0, 30.0, 1.5])
        fembb, eurllc = state.fembb_users, state.eurllc_users
        state.users[fembb[0]].position = np.array([13.0, 4.0, 1.5])
        state.users[fembb[1]].position = np.array([0.0, -8.0, 1.5])
        state.users[eurllc[0]].position = np.array([0.0, 36.0, 1.5])
        alloc = Allocation(len(fembb), len(eurllc), state.n_subchannels,
                           state.n_minislots)
        alloc.fembb_bs[0], alloc.fembb_k[0] = 1, 0  # THz station 1
        alloc.eurllc_k[0], alloc.eurllc_m[0] = 1, 0
        alloc.eurllc_host[0] = 2                    # THz station 2
        # FeMBB user 1 is unserved: it moves away from the RF station 0
        out = apply_mobility(state, alloc, 10.0)
        assert out.users[fembb[0]].position.tolist() == [25.0, 20.0, 1.5]
        assert out.users[fembb[1]].position.tolist() == [0.0, -28.0, 1.5]
        assert out.users[eurllc[0]].position.tolist() == [0.0, 56.0, 1.5]
        gains, reachable = compute_gain_tensor(
            out.channel, out.stations, out.users, state.fading)
        assert np.array_equal(out.gains, gains)
        assert np.array_equal(out.reachable, reachable)

    def test_requires_serving(self):
        # the allocation must hold the state's FeMBB and eURLLC user counts
        state, alloc, _ = self._served_state()
        for n_fembb, n_eurllc in ((alloc.n_fembb + 1, alloc.n_eurllc),
                                  (alloc.n_fembb, alloc.n_eurllc - 1)):
            wrong = Allocation(n_fembb, n_eurllc, state.n_subchannels,
                               state.n_minislots)
            for elapsed in (0.0, 10.0):
                with pytest.raises(ValueError, match="the allocation holds"):
                    apply_mobility(state, wrong, elapsed)

    @pytest.mark.parametrize("elapsed", [float("nan"), float("inf"), -1.0],
                             ids=["nan_elapsed", "inf_elapsed",
                                  "negative_elapsed"])
    def test_bad_elapsed_rejected(self, elapsed):
        with pytest.raises(ValueError):
            apply_mobility(*self._served_state()[:2], elapsed)

    def test_zero_elapsed_is_identity(self):
        state, alloc, _ = self._served_state()
        out = apply_mobility(state, alloc, 0.0)
        assert np.array_equal(out.gains, state.gains)
        for a, b in zip(out.users, state.users):
            assert np.array_equal(a.position, b.position)

    def test_distance_grows_exactly(self):
        state, alloc, serving = self._served_state()
        out = apply_mobility(state, alloc, 10.0)
        for i in range(state.n_users):
            anchor = state.stations[serving[i]].position
            d0 = np.linalg.norm(state.users[i].position - anchor)
            d1 = np.linalg.norm(out.users[i].position - anchor)
            assert d1 - d0 == pytest.approx(20.0, abs=1e-9)

    def test_serving_gain_strictly_decreases(self):
        state, alloc, serving = self._served_state()
        out = apply_mobility(state, alloc, 5.0)
        for i in range(state.n_users):
            j = serving[i]
            for k in range(state.n_subchannels):
                assert out.gains[i, j, k] < state.gains[i, j, k]

    def test_longer_moves_leave_tbs_coverage(self):
        state, alloc, _ = self._served_state(seed=17)
        out = apply_mobility(state, alloc, 40.0)
        assert not out.reachable[:, 1:].any()
