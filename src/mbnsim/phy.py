"""Physical-layer math: propagation, subchannel frequency mapping, noise, SINR.

All functions are pure and stateless. Gains are linear power ratios,
powers are watts, frequencies and bandwidths are Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

SPEED_OF_LIGHT_MPS = 299_792_458.0


class Band(Enum):
    RF = "rf"
    THZ = "thz"


@dataclass(frozen=True)
class ChannelParams:
    """Per-band propagation parameters.

    Defaults: 2.1 GHz RF carrier with path-loss exponent 2.5, 340 GHz THz
    center with a flat molecular absorption coefficient of 0.0033 1/m,
    20 MHz / 10 GHz total bandwidth split into 20 subchannels per band,
    thermal noise density -174 dBm/Hz.
    """

    rf_carrier_hz: float = 2.1e9
    thz_center_hz: float = 340e9
    rf_pathloss_exponent: float = 2.5
    absorption_coeff_per_m: float = 0.0033
    rf_total_bandwidth_hz: float = 20e6
    thz_total_bandwidth_hz: float = 10e9
    subchannels_per_band: int = 20
    noise_density_dbm_per_hz: float = -174.0

    def __post_init__(self):
        for name in ("rf_carrier_hz", "thz_center_hz",
                     "rf_total_bandwidth_hz", "thz_total_bandwidth_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.rf_pathloss_exponent < 2:
            raise ValueError("rf_pathloss_exponent must be >= 2")
        if self.absorption_coeff_per_m < 0:
            raise ValueError("absorption_coeff_per_m must be >= 0")
        if self.subchannels_per_band < 1:
            raise ValueError("subchannels_per_band must be >= 1")

    @property
    def rf_subchannel_bandwidth_hz(self) -> float:
        return self.rf_total_bandwidth_hz / self.subchannels_per_band

    @property
    def thz_subchannel_bandwidth_hz(self) -> float:
        return self.thz_total_bandwidth_hz / self.subchannels_per_band


def rf_path_gain(params: ChannelParams, distance_m: float,
                 fading_draw: float) -> float:
    """RF gain (c / 4 pi f_RF)^2 * x * d^-alpha with small-scale power x."""
    if distance_m <= 0:
        raise ValueError("distance must be strictly positive")
    if fading_draw < 0:
        raise ValueError("fading draw must be >= 0")
    amp = (SPEED_OF_LIGHT_MPS / (4.0 * math.pi * params.rf_carrier_hz)) ** 2
    return amp * fading_draw * distance_m ** (-params.rf_pathloss_exponent)


def thz_path_gain(params: ChannelParams, distance_m: float,
                  subchannel_freq_hz: float) -> float:
    """THz gain (c / 4 pi f)^2 * d^-2 * exp(-a d) with molecular absorption."""
    if distance_m <= 0:
        raise ValueError("distance must be strictly positive")
    if subchannel_freq_hz <= 0:
        raise ValueError("frequency must be strictly positive")
    amp = (SPEED_OF_LIGHT_MPS / (4.0 * math.pi * subchannel_freq_hz)) ** 2
    return amp * distance_m ** -2 * math.exp(
        -params.absorption_coeff_per_m * distance_m)


def thz_subchannel_frequency(params: ChannelParams, k: int) -> float:
    """Center frequency of THz subchannel k (1-based), spaced W/C about f_c."""
    c = params.subchannels_per_band
    if not 1 <= k <= c:
        raise IndexError(f"subchannel index {k} outside 1..{c}")
    step = params.thz_total_bandwidth_hz / c
    return params.thz_center_hz + step * (k - 1 - (c - 1) / 2.0)


def noise_power_w(params: ChannelParams, bandwidth_hz: float) -> float:
    """Thermal noise power over a bandwidth from the dBm/Hz density."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be strictly positive")
    dbm = params.noise_density_dbm_per_hz + 10.0 * math.log10(bandwidth_hz)
    return 10.0 ** (dbm / 10.0) * 1e-3


def sinr(signal_power_w: float, gain: float,
         interference_w: float, noise_w: float) -> float:
    """Received SINR: P * h / (I + N) with a linear power gain h."""
    g = float(gain)
    if signal_power_w < 0 or g < 0 or interference_w < 0:
        raise ValueError("powers and gain must be >= 0")
    if noise_w <= 0:
        raise ValueError("noise must be strictly positive")
    return signal_power_w * g / (interference_w + noise_w)
