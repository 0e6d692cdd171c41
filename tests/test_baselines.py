"""Exact-search baselines: cross-checks, dominance, transforms."""

import itertools

import numpy as np
import pytest

from mbnsim.baselines import (InstanceSizeError, SearchLimits,
                              enumerate_optimal, make_sbn_scenario,
                              make_sc_scenario, optimal_allocation)
from mbnsim.config import ScenarioConfig
from mbnsim.env import (Allocation, JnsaEnv, ScalarizedObjective, objective,
                        objective_breakdown)
from mbnsim.scenario import (UserKind, compute_gain_tensor,
                             generate_scenario)


def tiny_cfg(trial: int) -> ScenarioConfig:
    return ScenarioConfig.desk_default().replace(
        n_tbs=trial % 3,
        n_fembb=1 + trial % 2,
        n_eurllc=2 - trial % 2,
        subchannels_per_band=2 + trial % 3,
        minislots_per_subchannel=1 + trial % 2,
        aerial_fraction=0.5 if trial % 4 == 0 else 0.0,
        hotspot_fraction=1.0 if trial % 3 else 0.0,
    )


def desk_state(seed=42, **overrides):
    return generate_scenario(ScenarioConfig.desk_default().replace(**overrides),
                             seed=seed)


class TestOracleCrossCheck:
    def test_matches_enumeration_bit_exactly(self):
        # QoS enforced and relaxed, each at the extreme and middle weights;
        # links here carry ~4e7-2e8 bit/s, so a 1e8 bit/s FeMBB target is
        # missed by some users and relaxing it changes the optimum
        for trial, target in itertools.product(range(25), (1e6, 1e8)):
            state = generate_scenario(
                tiny_cfg(trial).replace(fembb_min_rate_bps=target),
                seed=500 + trial)
            relaxed = make_sc_scenario(state, qos_enforced=False)
            for s, weight_rate in itertools.product((state, relaxed),
                                                    (0.0, 0.5, 1.0)):
                weights = ScalarizedObjective.for_state(s, weight_rate)
                a_bb, v_bb = optimal_allocation(s, weights)
                a_en, v_en = enumerate_optimal(s, weights)
                assert v_bb == v_en
                assert a_bb.canonical_key() == a_en.canonical_key()

    def test_single_user_picks_best_subchannel(self):
        state = desk_state(n_tbs=0, n_fembb=1, n_eurllc=0,
                           subchannels_per_band=2, aerial_fraction=0.0,
                           hotspot_fraction=0.0)
        # make subchannel quality unambiguous through the fading draws
        state.fading[0] = [0.2, 2.0]
        state.gains, state.reachable = compute_gain_tensor(
            state.channel, state.topology, state.users, state.fading)
        alloc, _ = optimal_allocation(state, ScalarizedObjective.for_state(state))
        assert alloc.fembb_bs[0] == 0
        assert alloc.fembb_k[0] == 1

    def test_zero_users_is_empty_and_zero(self):
        state = desk_state(n_fembb=0, n_eurllc=0)
        alloc, value = optimal_allocation(state,
                                          ScalarizedObjective.for_state(state))
        assert value == 0.0
        assert (alloc.eurllc_k == -1).all()
        assert (alloc.fembb_bs == -1).all()


class TestOracleDominance:
    def test_dominates_random_play(self):
        state = desk_state(n_fembb=2, n_eurllc=2, subchannels_per_band=3,
                           minislots_per_subchannel=2)
        weights = ScalarizedObjective.for_state(state)
        _, best = optimal_allocation(state, weights)
        env = JnsaEnv(state, weights, seed=5, refresh_fading_on_reset=False)
        rng = np.random.default_rng(0)
        for _ in range(40):
            env.reset()
            while not env.done:
                env.step(int(rng.integers(
                    env.action_count_for(env.current_agent))))
            assert objective(env.state, env.allocation, weights) <= best + 1e-12

    def test_value_invariant_to_user_relabeling(self):
        state = desk_state(n_fembb=3, n_eurllc=2, subchannels_per_band=3)
        weights = ScalarizedObjective.for_state(state)
        _, base_value = optimal_allocation(state, weights)
        perm = [2, 0, 1, 4, 3]  # shuffle within each class block
        shuffled = state.copy()
        shuffled.users = [state.users[i] for i in perm]
        shuffled.gains = state.gains[perm].copy()
        shuffled.fading = state.fading[perm].copy()
        shuffled.reachable = state.reachable[perm].copy()
        _, value = optimal_allocation(shuffled, weights)
        assert value == pytest.approx(base_value, rel=1e-12)

    def test_value_invariant_to_subchannel_relabeling(self):
        state = desk_state(n_fembb=2, n_eurllc=2, subchannels_per_band=3,
                           minislots_per_subchannel=2)
        weights = ScalarizedObjective.for_state(state)
        _, base_value = optimal_allocation(state, weights)
        perm = [2, 0, 1]
        shuffled = state.copy()
        shuffled.gains = state.gains[:, :, perm].copy()
        shuffled.fading = state.fading[:, perm].copy()
        _, value = optimal_allocation(shuffled, weights)
        assert value == pytest.approx(base_value, rel=1e-12)


class TestSizeGuards:
    def test_too_many_users(self):
        state = desk_state(n_fembb=10, n_eurllc=10)
        with pytest.raises(InstanceSizeError, match="search space"):
            optimal_allocation(state, ScalarizedObjective.for_state(state),
                               SearchLimits(max_users=12))

    def test_too_many_subchannels(self):
        state = desk_state(subchannels_per_band=12)
        with pytest.raises(InstanceSizeError):
            optimal_allocation(state, ScalarizedObjective.for_state(state),
                               SearchLimits(max_subchannels=10))

    def test_enumeration_guard(self):
        state = desk_state(n_fembb=4, n_eurllc=4, subchannels_per_band=8,
                           minislots_per_subchannel=7)
        with pytest.raises(InstanceSizeError):
            enumerate_optimal(state, ScalarizedObjective.for_state(state),
                              max_combinations=1000)

    def test_desk_instance_solves_fast(self):
        import time
        state = desk_state()
        t0 = time.perf_counter()
        optimal_allocation(state, ScalarizedObjective.for_state(state))
        assert time.perf_counter() - t0 < 5.0

    def test_oracle_on_json_snapshot_round_trip(self):
        # the baselines accept the env's JSON state snapshot wholesale
        import json
        from mbnsim.scenario import state_from_json, state_to_json
        state = desk_state(n_fembb=2, n_eurllc=2, subchannels_per_band=3,
                           minislots_per_subchannel=2)
        weights = ScalarizedObjective.for_state(state)
        direct_alloc, direct_value = optimal_allocation(state, weights)
        revived = state_from_json(json.loads(json.dumps(state_to_json(state))))
        alloc, value = optimal_allocation(revived, weights)
        assert value == direct_value
        assert alloc.canonical_key() == direct_alloc.canonical_key()
        # and the chosen allocation round-trips through its JSON shape
        again = Allocation.from_json(json.loads(json.dumps(alloc.to_json())))
        assert again.canonical_key() == alloc.canonical_key()


class TestSbnTransform:
    def test_single_station_remains(self):
        sbn = make_sbn_scenario(desk_state())
        assert sbn.n_bs == 1
        assert sbn.topology.tbs_list == []
        assert sbn.gains.shape[1] == 1

    def test_thz_candidates_vanish(self):
        state = desk_state(seed=17)
        hot = next(i for i in range(state.n_users)
                   if state.reachable[i, 1:].any())
        sbn = make_sbn_scenario(state)
        assert sbn.reachable[hot].tolist() == [True]

    def test_users_and_positions_kept(self):
        state = desk_state()
        sbn = make_sbn_scenario(state)
        assert len(sbn.users) == len(state.users)
        for a, b in zip(sbn.users, state.users):
            assert np.array_equal(a.position, b.position)

    def test_optimal_never_beats_mbn(self):
        state = desk_state(n_fembb=2, n_eurllc=2, subchannels_per_band=3,
                           minislots_per_subchannel=2, seed=17)
        weights = ScalarizedObjective.for_state(state)
        _, v_mbn = optimal_allocation(state, weights)
        _, v_sbn = optimal_allocation(make_sbn_scenario(state), weights)
        assert v_sbn <= v_mbn + 1e-12

    def test_sbn_allocations_feasible_in_mbn(self):
        state = desk_state(n_fembb=2, n_eurllc=2, subchannels_per_band=3,
                           minislots_per_subchannel=2, seed=23)
        weights = ScalarizedObjective.for_state(state)
        sbn = make_sbn_scenario(state)
        alloc, _ = optimal_allocation(sbn, weights)
        alloc.validate()
        assert (alloc.fembb_bs <= 0).all()  # only the RF station
        # the same assignment is a valid allocation of the original state
        objective(state, alloc, weights)


class TestScTransform:
    def test_terrestrial_only(self):
        state = desk_state()
        sc = make_sc_scenario(state)
        assert all(u.kind is UserKind.TERRESTRIAL for u in sc.users)
        assert sc.n_bs == 1
        assert len(sc.users) == 6  # one aerial removed per class

    def test_qos_flag_controls_penalty(self):
        state = desk_state(n_tbs=0, n_fembb=2, n_eurllc=0,
                           aerial_fraction=0.0, hotspot_fraction=0.0)
        weights = ScalarizedObjective(rate_scale_bps=1e9,
                                      reliability_scale=1.0)
        enforced = make_sc_scenario(state, qos_enforced=True)
        relaxed = make_sc_scenario(state, qos_enforced=False)
        starved = Allocation(2, 0, state.n_subchannels, state.n_minislots)
        starved.fembb_bs[0], starved.fembb_k[0] = 0, 0
        assert objective(relaxed, starved, weights) >= objective(
            enforced, starved, weights)

    def test_relaxed_counts_substandard_rates(self):
        state = desk_state(n_tbs=0, n_fembb=1, n_eurllc=0,
                           aerial_fraction=0.0, hotspot_fraction=0.0)
        state.fading[:] = 1e-9  # rate collapses below the target
        state.gains, state.reachable = compute_gain_tensor(
            state.channel, state.topology, state.users, state.fading)
        weights = ScalarizedObjective(rate_scale_bps=1e9,
                                      reliability_scale=1.0)
        alloc = Allocation(1, 0, state.n_subchannels, state.n_minislots)
        alloc.fembb_bs[0], alloc.fembb_k[0] = 0, 0
        enforced = make_sc_scenario(state, qos_enforced=True)
        relaxed = make_sc_scenario(state, qos_enforced=False)
        br_enforced = objective_breakdown(enforced, alloc, weights)
        br_relaxed = objective_breakdown(relaxed, alloc, weights)
        assert not br_enforced.fembb_ok[0]
        assert br_enforced.value < 0  # penalty
        assert br_relaxed.value >= 0  # tiny but non-penalized rate term
