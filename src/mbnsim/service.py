"""Rate and reliability models for the two service classes.

FeMBB throughput follows the Shannon formula with a puncturing loss
proportional to the fraction of stolen mini-slots. eURLLC reliability uses
the finite-blocklength decoding error probability

    eps = Q( sqrt(L_B / V) * (log2(1 + gamma) - D*M / (T*w)) ),

with channel dispersion V = 1 - (1 + gamma)^-2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class FrameConfig:
    """Finite-blocklength and frame-structure parameters of one subchannel."""

    blocklength_symbols: int = 100
    bits_per_block: int = 60
    block_duration_s: float = 0.5e-3
    minislots_per_subchannel: int = 7
    subchannel_bandwidth_hz: float = 1e6

    def __post_init__(self):
        if self.blocklength_symbols <= 0 or self.bits_per_block <= 0:
            raise ValueError("blocklength_symbols and bits_per_block must be positive")
        if self.minislots_per_subchannel <= 0:
            raise ValueError("minislots_per_subchannel must be positive")
        if self.block_duration_s <= 0 or self.subchannel_bandwidth_hz <= 0:
            raise ValueError("block_duration_s and subchannel_bandwidth_hz must be positive")


@dataclass(frozen=True)
class QosTargets:
    """Per-class QoS: FeMBB minimum rate, eURLLC maximum decoding error."""

    fembb_min_rate_bps: float = 1e6
    eurllc_max_error: float = 1e-5

    def __post_init__(self):
        if self.fembb_min_rate_bps <= 0:
            raise ValueError("fembb_min_rate_bps must be positive")
        if not 0 < self.eurllc_max_error < 1:
            raise ValueError("eurllc_max_error must lie in (0, 1)")


def shannon_rate(bandwidth_hz: float, gamma: float) -> float:
    """Capacity-formula rate w * log2(1 + gamma) in bit/s."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be strictly positive")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    return bandwidth_hz * math.log2(1.0 + gamma)


def punctured_rate(bandwidth_hz: float, gamma: float,
                   punctured_minislots: int, minislots: int) -> float:
    """FeMBB rate after losing `punctured_minislots` of `minislots` slots.

    The count refers to mini-slots punctured on this user's own subchannel,
    so the loss fraction is capped at 1 and the rate is never negative.
    """
    if minislots <= 0:
        raise ValueError("minislots must be positive")
    if not 0 <= punctured_minislots <= minislots:
        raise ValueError(
            f"punctured mini-slots {punctured_minislots} outside 0..{minislots}")
    full = shannon_rate(bandwidth_hz, gamma)
    return full * (minislots - punctured_minislots) / minislots


def channel_dispersion(gamma: float) -> float:
    """Dispersion V = 1 - (1 + gamma)^-2, in [0, 1)."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    return 1.0 - (1.0 + gamma) ** -2


def gaussian_q(x: float) -> float:
    """Standard-normal tail Q(x) = erfc(x / sqrt(2)) / 2.

    erfc keeps the tail accurate down to ~1e-300; beyond that the result
    underflows to exactly 0.
    """
    return 0.5 * math.erfc(x / _SQRT2)


def decoding_error_probability(cfg: FrameConfig, gamma: float) -> float:
    """Finite-blocklength decoding error probability for one eURLLC block."""
    if gamma <= 0:
        raise ValueError("gamma must be strictly positive (zero dispersion)")
    v = channel_dispersion(gamma)
    threshold = (cfg.bits_per_block * cfg.minislots_per_subchannel
                 / (cfg.block_duration_s * cfg.subchannel_bandwidth_hz))
    arg = math.sqrt(cfg.blocklength_symbols / v) * (math.log2(1.0 + gamma)
                                                    - threshold)
    return gaussian_q(arg)


def eurllc_feasible(cfg: FrameConfig, gamma: float,
                    targets: QosTargets) -> bool:
    """True iff the decoding error probability meets the eURLLC target."""
    return decoding_error_probability(cfg, gamma) <= targets.eurllc_max_error
