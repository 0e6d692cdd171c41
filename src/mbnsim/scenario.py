"""Topology and scenario generation: base stations, users, link gains.

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
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .config import ScenarioConfig
from .phy import (Band, ChannelParams, noise_power_w, rf_path_gain,
                  thz_path_gain, thz_subchannel_frequency)
from .service import FrameConfig, QosTargets

TERRESTRIAL_HEIGHT_M = 1.5
AERIAL_HEIGHT_M = 50.0
BS_HEIGHT_M = 1.5  # matches the terrestrial user plane
MIN_LINK_DISTANCE_M = 1e-3

STATE_SCHEMA_VERSION = 1


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
class Topology:
    cell_radius_m: float
    stations: list[BaseStation]  # the RF station first, then the THz stations


@dataclass
class UserProfile:
    id: int
    user_class: UserClass
    kind: UserKind
    position: np.ndarray  # (3,) meters
    velocity_mps: float = 0.0


@dataclass
class NetworkState:
    """Ground truth the environment and the baselines operate on."""

    channel: ChannelParams
    topology: Topology
    users: list[UserProfile]
    qos: QosTargets
    frame_rf: FrameConfig
    frame_thz: FrameConfig
    gains: np.ndarray         # (n_users, n_bs, C) linear power gains
    fading: np.ndarray        # (n_users, C) RF small-scale draws
    reachable: np.ndarray     # (n_users, n_bs) bool
    gain_log_bounds: tuple[float, float]  # log10 normalization range, frozen
    fembb_qos_enforced: bool = True
    serving_bs: np.ndarray | None = None  # (n_users,) int, -1 = unserved
    seed: int = 0

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_bs(self) -> int:
        return len(self.topology.stations)

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

    def band_of(self, j: int) -> Band:
        return self.topology.stations[j].band

    def frame_for(self, j: int) -> FrameConfig:
        return self.frame_rf if self.band_of(j) is Band.RF else self.frame_thz

    def subchannel_power_w(self, j: int) -> float:
        # transmit power split evenly across the band's subchannels
        return self.topology.stations[j].max_power_w / self.n_subchannels

    def noise_w(self, j: int) -> float:
        return noise_power_w(self.channel,
                             self.frame_for(j).subchannel_bandwidth_hz)

    def copy(self) -> "NetworkState":
        new = copy.copy(self)
        new.topology = copy.deepcopy(self.topology)
        new.users = [copy.copy(u) for u in self.users]
        for u in new.users:
            u.position = u.position.copy()
        new.gains = self.gains.copy()
        new.fading = self.fading.copy()
        new.reachable = self.reachable.copy()
        if self.serving_bs is not None:
            new.serving_bs = self.serving_bs.copy()
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


def compute_gain_tensor(channel: ChannelParams, topology: Topology,
                        users: list[UserProfile],
                        fading: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recompute (gains, reachable) from geometry and the given RF fading."""
    stations = topology.stations
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
    seed = cfg.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    channel = cfg.channel_params()

    stations = [BaseStation(position=np.array([0.0, 0.0, BS_HEIGHT_M]),
                            max_power_w=cfg.rbs_power_w, band=Band.RF)]
    for _ in range(cfg.n_tbs):
        x, y = _uniform_disc(rng, cfg.cell_radius_m)
        stations.append(BaseStation(position=np.array([x, y, BS_HEIGHT_M]),
                                    max_power_w=cfg.tbs_power_w,
                                    band=Band.THZ,
                                    coverage_radius_m=cfg.tbs_coverage_m))
    topology = Topology(cell_radius_m=cfg.cell_radius_m, stations=stations)

    users: list[UserProfile] = []
    uid = 0
    for user_class, count in ((UserClass.FEMBB, cfg.n_fembb),
                              (UserClass.EURLLC, cfg.n_eurllc)):
        n_aerial = int(round(cfg.aerial_fraction * count))
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
            users.append(UserProfile(id=uid, user_class=user_class, kind=kind,
                                     position=np.array([x, y, height])))
            uid += 1

    c = channel.subchannels_per_band
    fading = rng.exponential(1.0, size=(len(users), c))
    gains, reachable = compute_gain_tensor(channel, topology, users, fading)
    state = NetworkState(
        channel=channel,
        topology=topology,
        users=users,
        qos=cfg.qos_targets(),
        frame_rf=cfg.frame_for_bandwidth(channel.rf_subchannel_bandwidth_hz),
        frame_thz=cfg.frame_for_bandwidth(channel.thz_subchannel_bandwidth_hz),
        gains=gains,
        fading=fading,
        reachable=reachable,
        gain_log_bounds=(0.0, 1.0),
        seed=seed,
    )
    state.gain_log_bounds = _gain_log_bounds(gains, reachable)
    return state


def refresh_fading(state: NetworkState, rng: np.random.Generator) -> None:
    """Redraw RF small-scale fading in place and refresh the RF gain column."""
    state.fading = rng.exponential(1.0, size=state.fading.shape)
    for i, user in enumerate(state.users):
        d = _distance(user.position, state.topology.stations[0].position)
        state.gains[i, 0] = _rf_link_gains(state.channel, d, state.fading[i])


# ---------------------------------------------------------------------------
# Ablation scenarios: station 0 (the RF station) alone

def make_sbn_scenario(state: NetworkState) -> NetworkState:
    """Single-band network: same users, THz stations removed."""
    new = state.copy()
    new.topology.stations = new.topology.stations[:1]
    new.gains = new.gains[:, :1, :].copy()
    new.reachable = new.reachable[:, :1].copy()
    new.gain_log_bounds = _gain_log_bounds(new.gains, new.reachable)
    new.serving_bs = None
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


# ---------------------------------------------------------------------------
# JSON snapshot (schema documented in README)

def state_to_json(state: NetworkState) -> dict:
    def bs_dict(bs: BaseStation) -> dict:
        return {"position": [float(v) for v in bs.position],
                "max_power_w": bs.max_power_w,
                "band": bs.band.value,
                "coverage_radius_m": bs.coverage_radius_m}

    frame = asdict(state.frame_rf)
    del frame["subchannel_bandwidth_hz"]  # derived from the channel on load
    rbs, *tbs_list = state.topology.stations
    return {
        "schema_version": STATE_SCHEMA_VERSION,
        "seed": state.seed,
        "channel": asdict(state.channel),
        "frame": frame,
        "qos": asdict(state.qos),
        "topology": {
            "cell_radius_m": state.topology.cell_radius_m,
            "rbs": bs_dict(rbs),
            "tbs_list": [bs_dict(b) for b in tbs_list],
        },
        "users": [{"id": u.id, "user_class": u.user_class.value,
                   "kind": u.kind.value,
                   "position": [float(v) for v in u.position],
                   "velocity_mps": u.velocity_mps} for u in state.users],
        "gains": state.gains.tolist(),
        "fading": state.fading.tolist(),
        "reachable": state.reachable.tolist(),
        "gain_log_bounds": list(state.gain_log_bounds),
        "fembb_qos_enforced": state.fembb_qos_enforced,
        "serving_bs": (None if state.serving_bs is None
                       else [int(v) for v in state.serving_bs]),
    }


def _snapshot_array(data: dict, key: str, dtype, shape: tuple) -> np.ndarray:
    """One array of a snapshot, which must have `shape`. An empty JSON list
    carries no shape, so it takes `shape` when that holds no entries."""
    arr = np.array(data[key], dtype=dtype)
    if arr.size == 0 == math.prod(shape):
        arr = arr.reshape(shape)
    if arr.shape != shape:
        raise ValueError(f"{key} has shape {arr.shape}, but the snapshot's "
                         f"user, station and subchannel counts give {shape}")
    return arr


def state_from_json(data: dict) -> NetworkState:
    """Load a snapshot; raises ValueError when its stations are not the RF
    station then THz stations, or an array disagrees with the counts."""
    if data.get("schema_version") != STATE_SCHEMA_VERSION:
        raise ValueError(f"unsupported state schema: {data.get('schema_version')}")

    def bs_from(d: dict) -> BaseStation:
        return BaseStation(position=np.array(d["position"], dtype=float),
                           max_power_w=d["max_power_w"],
                           band=Band(d["band"]),
                           coverage_radius_m=d["coverage_radius_m"])

    channel = ChannelParams(**data["channel"])
    topo = data["topology"]
    rbs, *tbs_list = [bs_from(d) for d in [topo["rbs"], *topo["tbs_list"]]]
    if rbs.band is not Band.RF:
        raise ValueError(f"topology.rbs must be an RF station, not "
                         f"{rbs.band.value}")
    if any(bs.band is not Band.THZ for bs in tbs_list):
        raise ValueError("every topology.tbs_list entry must be a THz station")
    topology = Topology(cell_radius_m=topo["cell_radius_m"],
                        stations=[rbs, *tbs_list])
    users = [UserProfile(id=d["id"], user_class=UserClass(d["user_class"]),
                         kind=UserKind(d["kind"]),
                         position=np.array(d["position"], dtype=float),
                         velocity_mps=d["velocity_mps"])
             for d in data["users"]]
    n_users, n_bs = len(users), len(topology.stations)
    c = channel.subchannels_per_band
    frame = data["frame"]
    serving = data.get("serving_bs")
    return NetworkState(
        channel=channel,
        topology=topology,
        users=users,
        qos=QosTargets(**data["qos"]),
        frame_rf=FrameConfig(subchannel_bandwidth_hz=channel.rf_subchannel_bandwidth_hz,
                             **frame),
        frame_thz=FrameConfig(subchannel_bandwidth_hz=channel.thz_subchannel_bandwidth_hz,
                              **frame),
        gains=_snapshot_array(data, "gains", float, (n_users, n_bs, c)),
        fading=_snapshot_array(data, "fading", float, (n_users, c)),
        reachable=_snapshot_array(data, "reachable", bool, (n_users, n_bs)),
        gain_log_bounds=tuple(data["gain_log_bounds"]),
        fembb_qos_enforced=data["fembb_qos_enforced"],
        serving_bs=None if serving is None else np.array(serving, dtype=int),
        seed=data["seed"],
    )
