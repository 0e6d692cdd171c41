"""Scenario generation, determinism, and JSON snapshot round-trips."""

import json

import numpy as np
import pytest

from mbnsim.config import ScenarioConfig
from mbnsim.phy import Band
from mbnsim.scenario import (AERIAL_HEIGHT_M, TERRESTRIAL_HEIGHT_M, UserClass,
                             UserKind, compute_gain_tensor, generate_scenario,
                             make_sbn_scenario, make_sc_scenario,
                             refresh_fading, state_from_json, state_to_json)


def desk_cfg(**overrides) -> ScenarioConfig:
    return ScenarioConfig.desk_default().replace(**overrides)


class TestGeneration:
    def test_same_seed_bit_identical(self):
        a = generate_scenario(desk_cfg(), seed=42)
        b = generate_scenario(desk_cfg(), seed=42)
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.fading, b.fading)
        for ua, ub in zip(a.users, b.users):
            assert np.array_equal(ua.position, ub.position)
        for ta, tb in zip(a.topology.stations, b.topology.stations):
            assert np.array_equal(ta.position, tb.position)

    def test_different_seed_differs(self):
        a = generate_scenario(desk_cfg(), seed=1)
        b = generate_scenario(desk_cfg(), seed=2)
        assert not np.array_equal(a.gains, b.gains)

    def test_full_default_counts(self):
        state = generate_scenario(ScenarioConfig.full_default(), seed=7)
        assert state.n_users == 20
        assert len(state.fembb_users) == 10
        assert len(state.eurllc_users) == 10
        assert state.n_bs == 21
        assert state.n_subchannels == 20
        assert state.n_minislots == 7

    def test_empty_fembb_is_valid(self):
        state = generate_scenario(desk_cfg(n_fembb=0), seed=3)
        assert state.fembb_users == []
        assert len(state.eurllc_users) == 4

    def test_rbs_at_center(self):
        state = generate_scenario(desk_cfg(), seed=5)
        assert np.allclose(state.topology.stations[0].position[:2], 0.0)
        assert state.topology.stations[0].band is Band.RF

    def test_everything_inside_disc(self):
        cfg = desk_cfg(n_tbs=8, n_fembb=12, n_eurllc=12)
        state = generate_scenario(cfg, seed=11)
        for u in state.users:
            assert np.hypot(u.position[0], u.position[1]) <= cfg.cell_radius_m + 1e-9
        for t in state.topology.stations[1:]:
            assert np.hypot(t.position[0], t.position[1]) <= cfg.cell_radius_m + 1e-9
            assert t.coverage_radius_m == cfg.tbs_coverage_m
            assert t.band is Band.THZ

    def test_heights_by_kind(self):
        state = generate_scenario(desk_cfg(), seed=9)
        for u in state.users:
            expected = (AERIAL_HEIGHT_M if u.kind is UserKind.AERIAL
                        else TERRESTRIAL_HEIGHT_M)
            assert u.position[2] == expected

    def test_deterministic_class_splits(self):
        # 4 users per class at aerial_fraction 0.25: exactly 1 aerial each
        state = generate_scenario(desk_cfg(), seed=13)
        for cls in (UserClass.FEMBB, UserClass.EURLLC):
            kinds = [u.kind for u in state.users if u.user_class is cls]
            assert kinds.count(UserKind.AERIAL) == 1

    def test_hotspot_users_reach_a_tbs(self):
        # hotspot_fraction 0.5 of 3 terrestrial users -> 2 in TBS coverage
        state = generate_scenario(desk_cfg(), seed=17)
        for cls_ids in (state.fembb_users, state.eurllc_users):
            in_coverage = sum(bool(state.reachable[i, 1:].any())
                              for i in cls_ids)
            assert in_coverage == 2

    def test_rbs_always_reachable(self):
        state = generate_scenario(desk_cfg(), seed=19)
        assert state.reachable[:, 0].all()

    def test_aerial_never_in_tbs_coverage(self):
        state = generate_scenario(desk_cfg(n_tbs=10, aerial_fraction=1.0),
                                  seed=23)
        assert not state.reachable[:, 1:].any()

    def test_gain_tensor_shape_and_sign(self):
        state = generate_scenario(desk_cfg(), seed=29)
        assert state.gains.shape == (8, 3, 4)
        assert (state.gains >= 0).all()
        assert np.isfinite(state.gains).all()


class TestFadingRefresh:
    def test_refresh_changes_rf_only(self):
        state = generate_scenario(desk_cfg(), seed=31)
        thz_before = state.gains[:, 1:, :].copy()
        rf_before = state.gains[:, 0, :].copy()
        refresh_fading(state, np.random.default_rng(0))
        assert np.array_equal(state.gains[:, 1:, :], thz_before)
        assert not np.array_equal(state.gains[:, 0, :], rf_before)

    def test_refresh_matches_gain_tensor(self):
        # both paths must compute RF gains the same way, bit for bit
        state = generate_scenario(desk_cfg(), seed=33)
        refresh_fading(state, np.random.default_rng(1))
        gains, _ = compute_gain_tensor(state.channel, state.topology,
                                       state.users, state.fading)
        assert np.array_equal(gains, state.gains)

    def test_unit_mean_exponential(self):
        state = generate_scenario(desk_cfg(n_fembb=200, n_eurllc=200,
                                           subchannels_per_band=8), seed=37)
        draws = state.fading.ravel()
        assert draws.mean() == pytest.approx(1.0, abs=0.05)
        assert draws.var() == pytest.approx(1.0, abs=0.15)


class TestJsonSnapshot:
    def test_round_trip_exact(self):
        state = generate_scenario(desk_cfg(), seed=41)
        state.serving_bs = np.array([0, 1, 2, 0, 1, 2, 0, 0])
        data = json.loads(json.dumps(state_to_json(state)))
        back = state_from_json(data)
        assert np.array_equal(back.gains, state.gains)
        assert np.array_equal(back.fading, state.fading)
        assert np.array_equal(back.reachable, state.reachable)
        assert np.array_equal(back.serving_bs, state.serving_bs)
        assert back.gain_log_bounds == state.gain_log_bounds
        assert back.qos == state.qos
        assert back.channel == state.channel
        assert back.frame_rf == state.frame_rf
        assert back.frame_thz == state.frame_thz
        assert [u.position.tolist() for u in back.users] == \
            [u.position.tolist() for u in state.users]

    def test_topology_layout_is_rbs_then_tbs_list(self):
        state = generate_scenario(desk_cfg(), seed=41)
        topo = state_to_json(state)["topology"]
        assert set(topo) == {"cell_radius_m", "rbs", "tbs_list"}
        assert topo["rbs"]["band"] == Band.RF.value
        assert [t["band"] for t in topo["tbs_list"]] == [Band.THZ.value] * 2

    def test_round_trip_keeps_station_order(self):
        state = generate_scenario(desk_cfg(n_tbs=5), seed=41)
        back = state_from_json(json.loads(json.dumps(state_to_json(state))))
        assert [(s.position.tolist(), s.band, s.max_power_w,
                 s.coverage_radius_m) for s in back.topology.stations] == \
            [(s.position.tolist(), s.band, s.max_power_w, s.coverage_radius_m)
             for s in state.topology.stations]

    @pytest.mark.parametrize("cfg", [desk_cfg(), desk_cfg(n_tbs=0),
                                     desk_cfg(n_fembb=0, n_eurllc=0)],
                             ids=["desk", "rf_only", "no_users"])
    def test_round_trip_is_byte_identical(self, cfg):
        text = json.dumps(state_to_json(generate_scenario(cfg, seed=41)))
        back = state_from_json(json.loads(text))
        assert back.gains.shape == (back.n_users, back.n_bs,
                                    back.n_subchannels)
        assert json.dumps(state_to_json(back)) == text

    def test_thz_rbs_rejected(self):
        data = state_to_json(generate_scenario(desk_cfg(), seed=41))
        topo = data["topology"]
        topo["rbs"], topo["tbs_list"][0] = topo["tbs_list"][0], topo["rbs"]
        with pytest.raises(ValueError, match="rbs must be an RF station"):
            state_from_json(data)

    def test_rf_station_in_tbs_list_rejected(self):
        data = state_to_json(generate_scenario(desk_cfg(), seed=41))
        data["topology"]["tbs_list"][1] = data["topology"]["rbs"]
        with pytest.raises(ValueError, match="THz station"):
            state_from_json(data)

    def test_station_count_must_match_gains(self):
        data = state_to_json(generate_scenario(desk_cfg(), seed=41))
        data["topology"]["tbs_list"] = []  # gains still hold 3 stations
        with pytest.raises(ValueError, match="gains has shape"):
            state_from_json(data)

    @pytest.mark.parametrize("key, cut", [
        ("gains", lambda a: a[:-1]),                      # one user short
        ("gains", lambda a: [[row[:-1] for row in u] for u in a]),
        ("reachable", lambda a: [row[:-1] for row in a]),  # one station short
        ("fading", lambda a: [row + [1.0] for row in a]),  # extra subchannel
    ], ids=["gains_users", "gains_subchannels", "reachable_stations",
            "fading_subchannels"])
    def test_array_shape_mismatch_rejected(self, key, cut):
        data = state_to_json(generate_scenario(desk_cfg(), seed=41))
        data[key] = cut(data[key])
        with pytest.raises(ValueError, match=f"{key} has shape"):
            state_from_json(data)

    def test_unknown_schema_rejected(self):
        state = generate_scenario(desk_cfg(), seed=43)
        data = state_to_json(state)
        data["schema_version"] = 99
        with pytest.raises(ValueError):
            state_from_json(data)

    def test_copy_is_deep_enough(self):
        state = generate_scenario(desk_cfg(), seed=47)
        clone = state.copy()
        clone.gains[0, 0, 0] = 123.0
        clone.users[0].position[0] = 999.0
        assert state.gains[0, 0, 0] != 123.0
        assert state.users[0].position[0] != 999.0


class TestAblationTransforms:
    @pytest.mark.parametrize("transform", [
        make_sbn_scenario, make_sc_scenario,
        lambda s: make_sc_scenario(s, qos_enforced=False)],
        ids=["sbn", "sc", "sc_noqos"])
    def test_keeps_station_zero_only(self, transform):
        state = generate_scenario(desk_cfg(), seed=53)
        new = transform(state)
        assert new.n_bs == 1 and len(new.topology.stations) == 1
        assert new.topology.stations[0].band is Band.RF
        assert np.array_equal(new.topology.stations[0].position,
                              state.topology.stations[0].position)
        assert new.gains.shape[1] == new.reachable.shape[1] == 1

    @pytest.mark.parametrize("transform", [make_sbn_scenario,
                                           make_sc_scenario],
                             ids=["sbn", "sc"])
    def test_source_state_unchanged(self, transform):
        state = generate_scenario(desk_cfg(), seed=53)
        before = state_to_json(state)
        stations, users = state.topology.stations, state.users
        transform(state)
        assert state.topology.stations is stations and state.users is users
        assert len(stations) == 3
        assert state_to_json(state) == before
