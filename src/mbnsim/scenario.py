"""Scenario generation: base stations, users, link gains.

A scenario is frozen geometry (one RF base station at the cell center plus
scattered small-coverage THz base stations, users drawn in the disc) with a
precomputed gain tensor of shape (n_users, n_bs, n_subchannels). Station 0
is always the RF station, so the single-band (SBN) and single-cell (SC)
ablations keep station 0 only. RF links carry unit-mean exponential
small-scale fading per (user, subchannel), redrawn per episode and fixed
within it; THz links are deterministic.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import ScenarioConfig
from .phy import (Band, ChannelParams, rf_path_gain, thz_path_gain,
                  thz_subchannel_frequency)
from .service import FrameConfig, QosTargets

TERRESTRIAL_HEIGHT_M = 1.5
AERIAL_HEIGHT_M = 50.0
BS_HEIGHT_M = 1.5  # matches the terrestrial user plane
MIN_LINK_DISTANCE_M = 1e-3


class UserClass(Enum):
    FEMBB = "fembb"
    EURLLC = "eurllc"


class UserKind(Enum):
    TERRESTRIAL = "terrestrial"
    AERIAL = "aerial"


@dataclass
class BaseStation:
    position: np.ndarray  # (3,) meters
    max_power_w: float
    band: Band
    coverage_radius_m: float | None = None  # None: covers the whole cell


@dataclass
class UserProfile:
    user_class: UserClass
    kind: UserKind
    position: np.ndarray  # (3,) meters


@dataclass
class NetworkState:
    """Ground truth the environment and the baselines operate on."""

    channel: ChannelParams
    stations: list[BaseStation]  # the RF station first, then the THz stations
    users: list[UserProfile]
    qos: QosTargets
    frame_rf: FrameConfig
    frame_thz: FrameConfig
    gains: np.ndarray         # (n_users, n_bs, C) linear power gains
    fading: np.ndarray        # (n_users, C) RF small-scale draws
    reachable: np.ndarray     # (n_users, n_bs) bool
    gain_log_bounds: tuple[float, float]  # log10 normalization range, frozen
    fembb_qos_enforced: bool = True

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_bs(self) -> int:
        return len(self.stations)

    @property
    def n_subchannels(self) -> int:
        return self.channel.subchannels_per_band

    @property
    def n_minislots(self) -> int:
        return self.frame_rf.minislots_per_subchannel

    @property
    def fembb_users(self) -> list[int]:
        return [i for i, u in enumerate(self.users)
                if u.user_class is UserClass.FEMBB]

    @property
    def eurllc_users(self) -> list[int]:
        return [i for i, u in enumerate(self.users)
                if u.user_class is UserClass.EURLLC]

    def copy(self) -> "NetworkState":
        new = copy.copy(self)
        new.stations = copy.deepcopy(self.stations)
        new.users = [copy.copy(u) for u in self.users]
        for u in new.users:
            u.position = u.position.copy()
        new.gains = self.gains.copy()
        new.fading = self.fading.copy()
        new.reachable = self.reachable.copy()
        return new


def _uniform_disc(rng: np.random.Generator, radius: float,
                  center_xy=(0.0, 0.0)) -> tuple[float, float]:
    r = radius * math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return center_xy[0] + r * math.cos(theta), center_xy[1] + r * math.sin(theta)


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    return max(float(np.linalg.norm(a - b)), MIN_LINK_DISTANCE_M)


def _rf_link_gains(channel: ChannelParams, distance_m: float,
                   fading_row: np.ndarray) -> list[float]:
    """RF gains of one link on every subchannel, one fading draw each."""
    return [rf_path_gain(channel, distance_m, x) for x in fading_row.tolist()]


def compute_gain_tensor(channel: ChannelParams, stations: list[BaseStation],
                        users: list[UserProfile],
                        fading: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recompute (gains, reachable) from geometry and the given RF fading."""
    c = channel.subchannels_per_band
    gains = np.zeros((len(users), len(stations), c))
    reachable = np.zeros((len(users), len(stations)), dtype=bool)
    thz_freqs = [thz_subchannel_frequency(channel, k + 1) for k in range(c)]
    for i, user in enumerate(users):
        for j, bs in enumerate(stations):
            d = _distance(user.position, bs.position)
            if bs.band is Band.RF:
                gains[i, j] = _rf_link_gains(channel, d, fading[i])
            else:
                gains[i, j] = [thz_path_gain(channel, d, f) for f in thz_freqs]
            cov = bs.coverage_radius_m
            reachable[i, j] = cov is None or d <= cov
    return gains, reachable


def _gain_log_bounds(gains: np.ndarray, reachable: np.ndarray) -> tuple[float, float]:
    mask = reachable[:, :, None] & (gains > 0)
    if not mask.any():
        return (-120.0, 0.0)
    logs = np.log10(gains[mask])
    lo, hi = float(logs.min()), float(logs.max())
    if hi - lo < 1e-9:
        hi = lo + 1.0
    return lo, hi


def generate_scenario(cfg: ScenarioConfig,
                      seed: int | None = None) -> NetworkState:
    """Draw a scenario: TBS positions, user positions, link gains.

    Users split per class into aerial and terrestrial by a deterministic
    rounded count; a rounded share of the terrestrial users is placed inside
    the coverage disc of a random TBS (hotspot placement), the rest uniformly
    in the cell. Bit-identical regeneration for a fixed (cfg, seed).
    """
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    channel = cfg.channel_params()

    stations = [BaseStation(position=np.array([0.0, 0.0, BS_HEIGHT_M]),
                            max_power_w=cfg.rbs_power_w, band=Band.RF)]
    for _ in range(cfg.n_tbs):
        x, y = _uniform_disc(rng, cfg.cell_radius_m)
        stations.append(BaseStation(position=np.array([x, y, BS_HEIGHT_M]),
                                    max_power_w=cfg.tbs_power_w,
                                    band=Band.THZ,
                                    coverage_radius_m=cfg.tbs_coverage_m))

    users: list[UserProfile] = []
    for user_class, count in ((UserClass.FEMBB, cfg.n_fembb),
                              (UserClass.EURLLC, cfg.n_eurllc)):
        n_aerial = cfg.aerial_count(count)
        n_terr = count - n_aerial
        n_hot = int(round(cfg.hotspot_fraction * n_terr)) if cfg.n_tbs else 0
        for idx in range(count):
            if idx < n_aerial:
                kind, height = UserKind.AERIAL, AERIAL_HEIGHT_M
                x, y = _uniform_disc(rng, cfg.cell_radius_m)
            elif idx < n_aerial + n_hot:
                kind, height = UserKind.TERRESTRIAL, TERRESTRIAL_HEIGHT_M
                tbs = stations[1 + int(rng.integers(cfg.n_tbs))]
                x, y = _uniform_disc(rng, cfg.tbs_coverage_m,
                                     (tbs.position[0], tbs.position[1]))
            else:
                kind, height = UserKind.TERRESTRIAL, TERRESTRIAL_HEIGHT_M
                x, y = _uniform_disc(rng, cfg.cell_radius_m)
            users.append(UserProfile(user_class=user_class, kind=kind,
                                     position=np.array([x, y, height])))

    c = channel.subchannels_per_band
    fading = rng.exponential(1.0, size=(len(users), c))
    gains, reachable = compute_gain_tensor(channel, stations, users, fading)
    return NetworkState(
        channel=channel,
        stations=stations,
        users=users,
        qos=cfg.qos_targets(),
        frame_rf=cfg.frame_for_bandwidth(channel.rf_subchannel_bandwidth_hz),
        frame_thz=cfg.frame_for_bandwidth(channel.thz_subchannel_bandwidth_hz),
        gains=gains,
        fading=fading,
        reachable=reachable,
        gain_log_bounds=_gain_log_bounds(gains, reachable),
    )


def refresh_fading(state: NetworkState, rng: np.random.Generator) -> None:
    """Redraw RF small-scale fading in place and refresh the RF gain column."""
    state.fading = rng.exponential(1.0, size=state.fading.shape)
    for i, user in enumerate(state.users):
        d = _distance(user.position, state.stations[0].position)
        state.gains[i, 0] = _rf_link_gains(state.channel, d, state.fading[i])


# ---------------------------------------------------------------------------
# Ablation scenarios: station 0 (the RF station) alone

def make_sbn_scenario(state: NetworkState) -> NetworkState:
    """Single-band network: same users, THz stations removed."""
    new = state.copy()
    new.stations = new.stations[:1]
    new.gains = new.gains[:, :1, :].copy()
    new.reachable = new.reachable[:, :1].copy()
    new.gain_log_bounds = _gain_log_bounds(new.gains, new.reachable)
    return new


def make_sc_scenario(state: NetworkState,
                     qos_enforced: bool = True) -> NetworkState:
    """Single-cell network: one RF station serving terrestrial users only.
    With qos_enforced=False the FeMBB minimum-rate constraint (and its
    penalty) is dropped from the objective."""
    new = make_sbn_scenario(state)
    keep = [i for i, u in enumerate(new.users)
            if u.kind is UserKind.TERRESTRIAL]
    new.users = [new.users[i] for i in keep]
    new.gains = new.gains[keep].copy()
    new.fading = new.fading[keep].copy()
    new.reachable = new.reachable[keep].copy()
    new.gain_log_bounds = _gain_log_bounds(new.gains, new.reachable)
    new.fembb_qos_enforced = qos_enforced
    return new
