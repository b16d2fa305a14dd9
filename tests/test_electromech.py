"""Displacement model tests: static law, filter fidelity, and symmetry."""

import math

import numpy as np
import pytest
from scipy.signal import cont2discrete, lfilter

from hvsim.analysis import MeasureError, measure_slew
from hvsim.electromech import (
    DAMPING_RATIO,
    NATURAL_FREQUENCY,
    REFERENCE_VOLTAGE,
    displacement_response,
    displacement_sweep,
)
from hvsim.waveform import Waveform


def wave(samples, step):
    return Waveform(0.0, step, np.asarray(samples, dtype=float))


def rise_time_10_90(v):
    """10-90% rise time of the first edge crossing both thresholds (seconds)."""
    return 0.8 * float(v.samples.max() - v.samples.min()) / measure_slew(v)


class TestDisplacementResponse:
    def test_zero_in_zero_out(self):
        x = displacement_response(wave(np.zeros(5000), 1e-4))
        assert np.all(x.samples == 0.0)

    def test_static_gain_at_reference(self):
        t = np.arange(0, 0.3, 1e-4)
        x = displacement_response(wave(np.full(t.size, 1800.0), 1e-4))
        assert x.samples[-1] == pytest.approx(1.0, abs=1e-6)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(-2000, 2000, 4000)
        pos = displacement_response(wave(v, 1e-4))
        neg = displacement_response(wave(-v, 1e-4))
        assert np.array_equal(pos.samples, neg.samples)

    def test_static_response_monotone_in_magnitude(self):
        levels = [200.0, 600.0, 1200.0, 1800.0, 2400.0]
        finals = []
        for level in levels:
            t = np.arange(0, 0.3, 1e-4)
            x = displacement_response(wave(np.full(t.size, level), 1e-4))
            finals.append(x.samples[-1])
        assert all(a < b for a, b in zip(finals, finals[1:]))

    def test_fast_drive_attenuated_40db(self):
        # sine at 10x the natural frequency; the squared drive lands at 20x
        f = 10 * NATURAL_FREQUENCY
        step = 1e-5
        t = np.arange(0, 0.5, step)
        v = 1800.0 * np.sin(2 * np.pi * f * t)
        x = displacement_response(wave(v, step))
        tail = x.samples[t.size // 2 :]
        ac = (tail.max() - tail.min()) / 2.0
        quasi_static_ac = 0.5  # AC amplitude of (v/vref)^2 for a full-scale sine
        assert 20 * math.log10(quasi_static_ac / ac) >= 40.0

    def test_step_response_matches_continuous(self):
        # discrete filter vs the exact underdamped second-order step response
        # at step = 1/(100 fn): within 1%
        fn, zeta = NATURAL_FREQUENCY, DAMPING_RATIO
        step = 1.0 / (100.0 * fn)
        t = np.arange(0, 0.25, step)
        v = np.full(t.size, 1800.0)
        x = displacement_response(wave(v, step)).samples
        wn = 2 * math.pi * fn
        wd = wn * math.sqrt(1 - zeta**2)
        exact = 1.0 - np.exp(-zeta * wn * t) * (
            np.cos(wd * t) + zeta / math.sqrt(1 - zeta**2) * np.sin(wd * t)
        )
        assert np.max(np.abs(x - exact)) < 0.01

    def test_coarse_step_rejected(self):
        too_coarse = 1.0 / (10.0 * NATURAL_FREQUENCY)
        with pytest.raises(MeasureError, match="too coarse"):
            displacement_response(wave(np.zeros(100), too_coarse))


def scipy_zoh_reference(v, step):
    """The same low-pass discretized and run by scipy: ``cont2discrete`` with
    ``method="zoh"``, then ``lfilter`` from rest."""
    wn = 2 * math.pi * NATURAL_FREQUENCY
    den = [1.0, 2 * DAMPING_RATIO * wn, wn * wn]
    bz, az, _ = cont2discrete(([wn * wn], den), dt=step, method="zoh")
    return lfilter(np.squeeze(bz), np.squeeze(az), (v / REFERENCE_VOLTAGE) ** 2)


def fidelity_drive(kind, n, step):
    t = np.arange(n) * step
    if kind == "step":
        return np.where(t > 0, 1800.0, 0.0)
    if kind == "random":
        return np.random.default_rng(13).uniform(-2000, 2000, n)
    return 1800.0 * np.clip(4.0 * np.sin(2 * np.pi * 6.0 * t), -1.0, 1.0)


class TestFilterFidelity:
    """The closed-form blocked filter against scipy's zero-order-hold filter.

    The bound covers scipy's own rounding: at a 1 us step its transfer-function
    coefficients are differences of numbers near 1, and its step response sits
    about 5e-10 from the exact one, where the closed form sits about 2e-15.
    """

    @pytest.mark.parametrize("kind", ["step", "random", "square"])
    @pytest.mark.parametrize("step, n", [
        (1e-6, 100_001),
        (2e-5, 25_001),
        (1e-4, 5_001),
        (1.0 / (20.0 * NATURAL_FREQUENCY), 801),
    ], ids=["1us", "20us", "100us", "max-step"])
    def test_matches_scipy_zoh(self, kind, step, n):
        v = fidelity_drive(kind, n, step)
        x = displacement_response(wave(v, step)).samples
        ref = scipy_zoh_reference(v, step)
        assert x.shape == ref.shape
        assert np.max(np.abs(x - ref)) <= 1e-9 * np.max(np.abs(ref))
        if v[0] == 0.0:
            assert x[0] == 0.0 and x[1] == 0.0


class TestRiseTime:
    def test_exponential_rise_time(self):
        tau = 1e-3
        t = np.arange(0, 10 * tau, 1e-6)
        v = 1000.0 * (1 - np.exp(-t / tau))
        rt = rise_time_10_90(wave(v, 1e-6))
        assert rt == pytest.approx(tau * math.log(9.0), rel=0.01)

    def test_converter_charges_slower_at_6hz(self):
        # the supply comparison at 6 Hz: the converter's internal resistance
        # stretches the load's 10-90% voltage rise well past the bench value
        from hvsim.electromech import _fig8_scenario
        from hvsim.presets import CONVERTER, bench_matched_to_converter
        from hvsim.runner import run_scenario

        conv = CONVERTER
        bench = bench_matched_to_converter()
        rt = {}
        for name, supply in (("converter", conv), ("bench", bench)):
            run = run_scenario(_fig8_scenario(supply, 6.0))
            v = run.voltage("load_m")
            rt[name] = rise_time_10_90(v.slice_time(v.stop - 1.0 / 6.0, v.stop))
        assert rt["converter"] > 2.0 * rt["bench"]


class TestDisplacementSweep:
    def test_too_fast_frequency_is_nan_and_reported(self):
        study = displacement_sweep("bench", [2.0, 5000.0])
        assert study.keys == (2.0, 5000.0)
        amp, failed = study.values
        assert math.isfinite(amp) and amp > 0
        assert failed is None
        assert [key for key, _ in study.failures()] == [5000.0]
        assert "driver delays reorder events" in study.errors[1]
