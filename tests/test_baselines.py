"""Exact-search baselines: cross-checks, dominance, transforms."""

import itertools

import numpy as np
import pytest

from mbnsim.baselines import (InstanceSizeError, enumerate_optimal,
                              optimal_allocation)
from mbnsim.config import ScenarioConfig
from mbnsim.env import (Allocation, JnsaEnv, ScalarizedObjective, objective,
                        objective_breakdown)
from mbnsim.scenario import (UserKind, compute_gain_tensor,
                             generate_scenario, make_sbn_scenario,
                             make_sc_scenario)


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

    def test_matches_enumeration_on_ties(self):
        # every user at one point with unit fading: users of a class are
        # interchangeable and the two subchannels equal, so many complete
        # allocations tie and the smaller canonical key must win in both
        for n_fembb, n_eurllc, offset_m, target in itertools.product(
                (1, 2, 3), (1, 2), (1.0, 10.0), (1e6, 1e8)):
            state = generate_scenario(ScenarioConfig.desk_default().replace(
                n_tbs=1, n_fembb=n_fembb, n_eurllc=n_eurllc,
                subchannels_per_band=2, minislots_per_subchannel=2,
                fembb_min_rate_bps=target), seed=7)
            # 1 m from the THz station is inside its 5 m coverage, 10 m not
            point = state.stations[1].position + [offset_m, 0.0, 0.0]
            for user in state.users:
                user.position = point.copy()
            state.fading[:] = 1.0
            state.gains, state.reachable = compute_gain_tensor(
                state.channel, state.stations, state.users, state.fading)
            relaxed = state.copy()
            relaxed.fembb_qos_enforced = False
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
            state.channel, state.stations, state.users, state.fading)
        alloc, _ = optimal_allocation(state, ScalarizedObjective.for_state(state))
        assert alloc.fembb_bs[0] == 0
        assert alloc.fembb_k[0] == 1

    def test_zero_users_is_empty_and_zero(self):
        # the single-cell transform keeps no user of an all-aerial scenario
        state = make_sc_scenario(desk_state(n_fembb=1, n_eurllc=1,
                                            aerial_fraction=1.0))
        assert state.n_users == 0
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
        with pytest.raises(InstanceSizeError, match="search limits"):
            optimal_allocation(state, ScalarizedObjective.for_state(state))

    def test_too_many_subchannels(self):
        state = desk_state(subchannels_per_band=12)
        with pytest.raises(InstanceSizeError):
            optimal_allocation(state, ScalarizedObjective.for_state(state))

    def test_enumeration_guard(self):
        state = desk_state(n_fembb=4, n_eurllc=4, subchannels_per_band=8,
                           minislots_per_subchannel=7)
        with pytest.raises(InstanceSizeError):
            enumerate_optimal(state, ScalarizedObjective.for_state(state),
                              max_combinations=1000)

    @pytest.mark.parametrize("n_fembb", [4, 0])
    def test_node_budget(self, monkeypatch, n_fembb):
        # without FeMBB users every node past the root is an eURLLC one
        import mbnsim.baselines as baselines
        monkeypatch.setattr(baselines, "NODE_BUDGET", 10)
        state = desk_state(n_fembb=n_fembb)
        with pytest.raises(InstanceSizeError,
                           match="search exceeded the node budget of 10$"):
            optimal_allocation(state, ScalarizedObjective.for_state(state))

    def test_desk_instance_solves_fast(self):
        import time
        state = desk_state()
        t0 = time.perf_counter()
        optimal_allocation(state, ScalarizedObjective.for_state(state))
        assert time.perf_counter() - t0 < 5.0

    def test_oracle_on_json_snapshot_round_trip(self):
        # a scenario is kept as its config and seed; the oracle solves the
        # state drawn again from that JSON record exactly as the original
        import json
        cfg = ScenarioConfig.desk_default().replace(
            n_fembb=2, n_eurllc=2, subchannels_per_band=3,
            minislots_per_subchannel=2)
        state = generate_scenario(cfg, seed=42)
        weights = ScalarizedObjective.for_state(state)
        direct_alloc, direct_value = optimal_allocation(state, weights)
        record = json.loads(json.dumps({"scenario": cfg.to_dict(),
                                        "seed": 42}))
        revived = generate_scenario(ScenarioConfig(**record["scenario"]),
                                    seed=record["seed"])
        alloc, value = optimal_allocation(revived, weights)
        assert value == direct_value
        assert alloc.canonical_key() == direct_alloc.canonical_key()
        # and the chosen allocation's document survives JSON text
        doc = alloc.to_json()
        assert json.loads(json.dumps(doc)) == doc


class TestSbnTransform:
    def test_single_station_remains(self):
        sbn = make_sbn_scenario(desk_state())
        assert sbn.n_bs == 1
        assert len(sbn.stations) == 1
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
            state.channel, state.stations, state.users, state.fading)
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
