"""Scenario configuration: a flat key-value schema loadable from YAML.

Every field of :class:`ScenarioConfig` is a valid key in the configuration
file; unknown keys are rejected. Example file::

    cell_radius_m: 500.0
    n_tbs: 20
    n_fembb: 10
    n_eurllc: 10
    seed: 1
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

from .phy import ChannelParams
from .service import FrameConfig, QosTargets


class ConfigError(ValueError):
    """Invalid configuration content; the message names the offending field."""


def require_positive(name: str, value, integral: bool = False) -> None:
    """ConfigError unless `value` is a positive finite number (an integer
    when `integral`); bools are rejected although Python counts them."""
    kind = numbers.Integral if integral else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not math.isfinite(value) or value <= 0):
        what = "integer" if integral else "finite number"
        raise ConfigError(f"{name} must be a positive {what}, got {value!r}")


@dataclass
class ScenarioConfig:
    # topology
    cell_radius_m: float = 500.0
    n_tbs: int = 20
    rbs_power_w: float = 10.0
    tbs_power_w: float = 1.0
    tbs_coverage_m: float = 5.0
    # users
    n_fembb: int = 10
    n_eurllc: int = 10
    aerial_fraction: float = 0.2
    hotspot_fraction: float = 0.5
    # channel
    rf_carrier_hz: float = 2.1e9
    thz_center_hz: float = 340e9
    rf_pathloss_exponent: float = 2.5
    absorption_coeff_per_m: float = 0.0033
    rf_total_bandwidth_hz: float = 20e6
    thz_total_bandwidth_hz: float = 10e9
    subchannels_per_band: int = 20
    noise_density_dbm_per_hz: float = -174.0
    # frame structure
    blocklength_symbols: int = 100
    bits_per_block: int = 60
    block_duration_s: float = 0.5e-3
    minislots_per_subchannel: int = 7
    # QoS targets
    fembb_min_rate_bps: float = 1e6
    eurllc_max_error: float = 1e-5
    # scalarization
    weight_rate: float = 0.5
    violation_penalty: float = 1.0
    conflict_penalty: float = 1.0
    # reproducibility
    seed: int = 1

    def __post_init__(self):
        for name, is_int in _FIELD_IS_INT.items():
            value = getattr(self, name)
            # exact-type fast paths: a config is rebuilt for every scenario
            kind = type(value)
            if kind is int and abs(value) <= sys.float_info.max:
                continue
            if kind is not float and (isinstance(value, bool) or
                                      not isinstance(value, numbers.Real)):
                raise ConfigError(f"field {name} must be numeric, got {value!r}")
            # an int left here is beyond float range: math.isfinite would overflow
            if kind is int or not math.isfinite(value):
                raise ConfigError(f"field {name} must be finite, got {value!r}")
            if is_int:
                if value != int(value):
                    raise ConfigError(
                        f"field {name} must be an integer, got {value!r}")
                setattr(self, name, int(value))
        if min(self.n_tbs, self.n_fembb, self.n_eurllc, self.seed) < 0:
            raise ConfigError("n_tbs/n_fembb/n_eurllc/seed must be >= 0")
        if self.n_fembb + self.n_eurllc < 1:
            raise ConfigError("n_fembb + n_eurllc must be >= 1: a scenario "
                              "needs a user")
        if not 0.0 <= self.aerial_fraction <= 1.0:
            raise ConfigError("aerial_fraction must lie in [0, 1]")
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ConfigError("hotspot_fraction must lie in [0, 1]")
        if self.cell_radius_m <= 0 or self.tbs_coverage_m <= 0:
            raise ConfigError("cell_radius_m and tbs_coverage_m must be > 0")
        if self.rbs_power_w <= 0 or self.tbs_power_w <= 0:
            raise ConfigError("base-station powers must be > 0")
        if not 0.0 <= self.weight_rate <= 1.0:
            raise ConfigError("weight_rate must lie in [0, 1]")
        if self.violation_penalty < 0 or self.conflict_penalty < 0:
            raise ConfigError("violation_penalty and conflict_penalty must be >= 0")
        # range checks of the objects a run builds only once it starts
        try:
            channel = self.channel_params()
            self.frame_for_bandwidth(channel.rf_subchannel_bandwidth_hz)
            self.frame_for_bandwidth(channel.thz_subchannel_bandwidth_hz)
            self.qos_targets()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def _build(self, cls, **extra):
        """A `cls` filled from the config fields of the same name + `extra`."""
        return cls(**{name: getattr(self, name) for name in _SHARED[cls]},
                   **extra)

    def channel_params(self) -> ChannelParams:
        return self._build(ChannelParams)

    def frame_for_bandwidth(self, subchannel_bandwidth_hz: float) -> FrameConfig:
        return self._build(FrameConfig,
                           subchannel_bandwidth_hz=subchannel_bandwidth_hz)

    def qos_targets(self) -> QosTargets:
        return self._build(QosTargets)

    def aerial_count(self, count: int) -> int:
        """How many of one class's `count` users are aerial."""
        return int(round(self.aerial_fraction * count))

    def replace(self, **overrides) -> "ScenarioConfig":
        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ConfigError(f"unknown config field: {sorted(unknown)[0]}")
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def full_default(cls) -> "ScenarioConfig":
        """Full-size default: 20 TBSs, 10+10 users, 20 subchannels."""
        return cls()

    @classmethod
    def desk_default(cls) -> "ScenarioConfig":
        """Reduced scenario for fast training and exact-search baselines."""
        return cls(
            n_tbs=2,
            n_fembb=4,
            n_eurllc=4,
            aerial_fraction=0.25,
            hotspot_fraction=0.5,
            subchannels_per_band=4,
        )


# field name -> whether the field holds a count or seed (an int)
_FIELD_IS_INT = {f.name: isinstance(f.default, int)
                 for f in dataclasses.fields(ScenarioConfig)}
# built class -> the names of its fields that are config fields too
_SHARED = {cls: [f.name for f in dataclasses.fields(cls)
                 if f.name in _FIELD_IS_INT]
           for cls in (ChannelParams, FrameConfig, QosTargets)}


def load_scenario_config(path: str | Path) -> ScenarioConfig:
    """Parse a flat YAML mapping into a ScenarioConfig; never mutates the file."""
    text = Path(path).read_text()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"unparsable config file {path}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a flat key-value mapping")
    for key in data:
        if key not in _FIELD_IS_INT:
            raise ConfigError(f"unknown config field: {key}")
    return ScenarioConfig(**data)


def save_scenario_config(cfg: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(cfg.to_dict(), sort_keys=True))
