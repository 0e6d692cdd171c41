"""Propagation, subchannel frequency, noise, and SINR checks.

Expected values marked "frozen" were computed with a 50-digit mpmath
evaluation of the same closed-form expressions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbnsim.phy import (SPEED_OF_LIGHT_MPS, ChannelParams, noise_power_w,
                        rf_path_gain, sinr, thz_path_gain,
                        thz_subchannel_frequency)

PARAMS = ChannelParams()


class TestChannelParams:
    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            ChannelParams(rf_carrier_hz=0.0)
        with pytest.raises(ValueError):
            ChannelParams(rf_pathloss_exponent=1.5)
        with pytest.raises(ValueError):
            ChannelParams(absorption_coeff_per_m=-0.1)
        with pytest.raises(ValueError):
            ChannelParams(subchannels_per_band=0)

    def test_subchannel_bandwidths(self):
        assert PARAMS.rf_subchannel_bandwidth_hz == 1e6
        assert PARAMS.thz_subchannel_bandwidth_hz == 500e6


class TestRfPathGain:
    def test_reference_distance(self):
        # frozen: (c / 4 pi f)^2 * 100^-2.5 at f = 2.1 GHz
        gain = rf_path_gain(PARAMS, 100.0, 1.0)
        assert gain == pytest.approx(1.2905745254293538e-9, rel=1e-12)
        assert 10 * math.log10(gain) == pytest.approx(-88.89, abs=0.01)

    def test_zero_fading_annihilates(self):
        assert rf_path_gain(PARAMS, 1.0, 0.0) == 0.0

    def test_linear_in_fading(self):
        base = rf_path_gain(PARAMS, 100.0, 1.0)
        assert rf_path_gain(PARAMS, 100.0, 4.0) == pytest.approx(
            4.0 * base, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rf_path_gain(PARAMS, 0.0, 1.0)
        with pytest.raises(ValueError):
            rf_path_gain(PARAMS, -5.0, 1.0)
        with pytest.raises(ValueError):
            rf_path_gain(PARAMS, 10.0, -1.0)


class TestThzPathGain:
    def test_reference_distance(self):
        # frozen: (c / 4 pi f)^2 * 5^-2 * exp(-0.0033 * 5) at f = 340 GHz
        gain = thz_path_gain(PARAMS, 5.0, 340e9)
        assert gain == pytest.approx(1.9371264721872457e-10, rel=1e-12)
        assert 10 * math.log10(gain) == pytest.approx(-97.13, abs=0.01)

    def test_zero_absorption_is_free_space(self):
        params = ChannelParams(absorption_coeff_per_m=0.0)
        d, f = 7.0, 340e9
        expected = (SPEED_OF_LIGHT_MPS / (4 * math.pi * f)) ** 2 / d ** 2
        assert thz_path_gain(params, d, f) == pytest.approx(
            expected, rel=1e-15)

    def test_inverse_square_without_absorption(self):
        params = ChannelParams(absorption_coeff_per_m=0.0)
        g1 = thz_path_gain(params, 3.0, 340e9)
        g2 = thz_path_gain(params, 6.0, 340e9)
        assert g1 == pytest.approx(4.0 * g2, rel=1e-12)

    def test_absorption_never_amplifies(self):
        for d in (0.5, 2.0, 10.0, 80.0):
            free = thz_path_gain(ChannelParams(absorption_coeff_per_m=0.0),
                                 d, 340e9)
            assert thz_path_gain(PARAMS, d, 340e9) <= free

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            thz_path_gain(PARAMS, 0.0, 340e9)
        with pytest.raises(ValueError):
            thz_path_gain(PARAMS, 5.0, 0.0)


class TestSubchannelFrequency:
    def test_edges(self):
        assert thz_subchannel_frequency(PARAMS, 1) == pytest.approx(
            335.25e9, rel=1e-12)
        assert thz_subchannel_frequency(PARAMS, 20) == pytest.approx(
            344.75e9, rel=1e-12)

    def test_mean_is_center(self):
        freqs = [thz_subchannel_frequency(PARAMS, k) for k in range(1, 21)]
        assert np.mean(freqs) == pytest.approx(340e9, rel=1e-12)

    def test_uniform_spacing(self):
        freqs = [thz_subchannel_frequency(PARAMS, k) for k in range(1, 21)]
        steps = np.diff(freqs)
        assert np.allclose(steps, PARAMS.thz_total_bandwidth_hz / 20, rtol=0,
                           atol=1e-3)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            thz_subchannel_frequency(PARAMS, 0)
        with pytest.raises(IndexError):
            thz_subchannel_frequency(PARAMS, 21)


class TestNoisePower:
    def test_megahertz(self):
        # frozen: -114 dBm over 1 MHz
        assert noise_power_w(PARAMS, 1e6) == pytest.approx(
            3.9810717055349725e-15, rel=1e-12)

    def test_unit_bandwidth_is_density(self):
        assert noise_power_w(PARAMS, 1.0) == pytest.approx(
            10 ** (-17.4) * 1e-3 * 1e3, rel=1e-12)

    def test_linearity(self):
        assert noise_power_w(PARAMS, 2e6) == pytest.approx(
            2 * noise_power_w(PARAMS, 1e6), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            noise_power_w(PARAMS, 0.0)


class TestSinr:
    def test_unit_ratio(self):
        noise = 3.5e-15
        assert sinr(noise, 1.0, 0.0, noise) == pytest.approx(1.0)

    def test_zero_gain(self):
        assert sinr(10.0, 0.0, 1e-12, 1e-15) == 0.0

    def test_reference_budget(self):
        # frozen: 10 W through the 100 m RF gain over 1 MHz noise
        gain = rf_path_gain(PARAMS, 100.0, 1.0)
        value = sinr(10.0, gain, 0.0, noise_power_w(PARAMS, 1e6))
        assert value == pytest.approx(3241776.6392779095, rel=1e-12)

    def test_zero_noise_guard(self):
        with pytest.raises(ValueError):
            sinr(1.0, 1.0, 0.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(d1=st.floats(0.1, 1e4), scale=st.floats(1.01, 100.0),
       x=st.floats(1e-6, 50.0))
def test_rf_gain_decreasing_in_distance(d1, scale, x):
    g_near = rf_path_gain(PARAMS, d1, x)
    g_far = rf_path_gain(PARAMS, d1 * scale, x)
    assert g_far < g_near or x == 0


@settings(max_examples=200, deadline=None)
@given(d1=st.floats(0.1, 1e3), scale=st.floats(1.01, 50.0),
       f=st.floats(1e11, 1e13))
def test_thz_gain_decreasing_in_distance_and_frequency(d1, scale, f):
    near = thz_path_gain(PARAMS, d1, f)
    far = thz_path_gain(PARAMS, d1 * scale, f)
    higher_f = thz_path_gain(PARAMS, d1, f * scale)
    assert far < near
    assert higher_f < near


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0, 100), g=st.floats(0, 1e-6), i=st.floats(0, 1e-9),
       n=st.floats(1e-18, 1e-9))
def test_sinr_monotonicity_and_finiteness(p, g, i, n):
    base = sinr(p, g, i, n)
    assert math.isfinite(base) and base >= 0
    assert sinr(p * 2 + 1e-9, g, i, n) >= base
    assert sinr(p, g, i + 1e-12, n) <= base
    assert sinr(p, g, i, n * 2) <= base


@settings(max_examples=100, deadline=None)
@given(d=st.floats(0.1, 1e4), x=st.floats(0.0, 100.0), f=st.floats(1e11, 1e13))
def test_all_gains_finite_nonnegative(d, x, f):
    assert math.isfinite(rf_path_gain(PARAMS, d, x))
    assert rf_path_gain(PARAMS, d, x) >= 0
    assert math.isfinite(thz_path_gain(PARAMS, d, f))
    assert thz_path_gain(PARAMS, d, f) >= 0
