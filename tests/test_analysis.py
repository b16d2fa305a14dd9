"""Metric extraction and study orchestration tests."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hvsim import analysis
from hvsim.analysis import (
    MEDIAN_OFF_RESISTANCE,
    OFFSET_SPAN,
    MeasureError,
    MismatchModel,
    frequency_sweep,
    measure_amplitude,
    measure_slew,
    monte_carlo,
    voltage_shares,
    write_table,
)
from hvsim.presets import mc_template
from hvsim.runner import run_scenario
from hvsim.waveform import Waveform

from conftest import par, study_values


def wave(samples, step=1e-6):
    return Waveform(0.0, step, np.asarray(samples, dtype=float))


def blocking_side_drops(run):
    """High-side device shares at the end of the final blocking plateau."""
    metrics = voltage_shares(*(run.rows(node) for node in "ABOC"))
    return metrics.shares[:2]


class TestMeasureAmplitude:
    def test_ideal_square_wave(self):
        t = np.arange(0, 0.1, 1e-5)
        v = np.where((t * 100.0) % 1.0 < 0.5, 1800.0, 0.0)
        assert measure_amplitude(wave(v, 1e-5), 5, 0.01) == 1800.0

    def test_exponential_settling(self):
        # tau much shorter than the period: final-period max ~ 1800 within 0.1%
        tau, period = 1e-3, 0.1
        t = np.arange(0, 3 * period, 1e-4)
        v = 1800.0 * (1 - np.exp(-t / tau))
        amp = measure_amplitude(wave(v, 1e-4), 2, period)
        assert abs(amp - 1800.0) / 1800.0 < 1e-3

    def test_constant_zero(self):
        assert measure_amplitude(wave(np.zeros(1000)), 0, 1e-4) == 0.0

    def test_bipolar_mode(self):
        t = np.arange(0, 0.02 + 1e-5, 1e-5)
        v = 500.0 * np.sign(np.sin(2 * np.pi * 100 * t) + 1e-12)
        assert measure_amplitude(wave(v, 1e-5), 1, 0.01, mode="bipolar") == pytest.approx(500.0)

    def test_too_short_rejected(self):
        with pytest.raises(MeasureError, match="spans"):
            measure_amplitude(wave(np.zeros(100)), 5, 1.0)


class TestMeasureSlew:
    def test_pure_ramp_exact(self):
        # interior 10-90% of a ramp preserves the slope: 1800 V / 200 us
        for step in (1e-6, 2.5e-7, 1e-7):
            n = int(200e-6 / step) + 1
            t = np.arange(n) * step
            v = np.clip(1800.0 * t / 200e-6, 0.0, 1800.0)
            got = measure_slew(wave(v, step))
            assert abs(got - 9.0e6) / 9.0e6 < 1e-9

    def test_exponential_rise(self):
        # t10->t90 of an exponential is tau*ln(9): 0.8*1800/(ln9 * 1ms)
        tau = 1e-3
        t = np.arange(0, 25 * tau, 1e-6)
        v = 1800.0 * (1 - np.exp(-t / tau))
        expected = 0.8 * 1800.0 / (math.log(9.0) * tau)
        got = measure_slew(wave(v))
        assert got == pytest.approx(expected, rel=1e-4)
        assert expected == pytest.approx(0.655e6, rel=1e-2)

    def test_constant_waveform_rejected(self):
        with pytest.raises(MeasureError, match="no"):
            measure_slew(wave(np.full(100, 42.0)))

    def test_first_qualifying_edge_wins(self):
        # a stall below the high threshold disqualifies the first bump
        v = np.concatenate([
            np.linspace(0, 800, 50),       # partial rise (crosses 10%, not 90%)
            np.linspace(800, 0, 50),       # back down
            np.linspace(0, 1800, 100),     # full edge
            np.full(100, 1800.0),
        ])
        got = measure_slew(wave(v, 1e-6))
        assert got == pytest.approx(0.8 * 1800.0 / (80e-6), rel=0.05)


class TestVoltageShares:
    def test_equal_drops(self):
        n = 1000
        v_a = np.full(n, 1600.0)
        v_b, v_o, v_c = np.full(n, 1200.0), np.full(n, 800.0), np.full(n, 400.0)
        metrics = voltage_shares(v_a, v_b, v_o, v_c)
        assert metrics.shares == pytest.approx((0.25, 0.25, 0.25, 0.25))
        assert metrics.max_device_drop == pytest.approx(400.0)
        assert sum(metrics.shares) == pytest.approx(1.0, abs=1e-9)

    def test_fig2_one_device_dominates(self, preset_runs):
        run = preset_runs("fig2")
        d1, d2 = blocking_side_drops(run)
        assert d1 / (d1 + d2) >= 0.9 * (1 - 1e-9)

    def test_fig3_even_split(self, preset_runs):
        run = preset_runs("fig3")
        d1, d2 = blocking_side_drops(run)
        side = d1 + d2
        assert abs(d1 / side - 0.5) < 0.02
        assert abs(d2 / side - 0.5) < 0.02

    def test_shares_undefined_below_one_volt(self):
        n = 100
        tiny = [np.full(n, x) for x in (0.5, 0.4, 0.3, 0.1)]
        metrics = voltage_shares(*tiny)
        assert metrics.shares is None


@pytest.fixture(scope="module")
def mini_table():
    return study_values(frequency_sweep([2.0, 100.0], ["10n", "dea"]))


def test_write_table_pinned_text(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, ["none", "nan", "int", "text", "f64"], [
        (None, float("nan"), 7, "ok", np.float64(0.1)),
        (2.5, -0.0, 0, "failed: diverged", np.float64(1e-300)),
    ])
    assert path.read_bytes() == (
        b"none,nan,int,text,f64\n"
        b"nan,nan,7,ok,0.1\n"
        b"2.5,-0.0,0,failed: diverged,1e-300\n"
    )


class TestFrequencySweep:

    def test_two_hz_matches_divider_oracle(self, mini_table):
        # quasi-static value of the supply divider: EMF * Rb/(Rint+Rb)
        oracle = 4500.0 * 3.6e6 / (3e6 + 3.6e6)
        amp = mini_table[(2.0, "10n")].amplitude
        assert abs(amp - oracle) / oracle < 0.02

    def test_amplitude_drops_with_frequency(self, mini_table):
        for load in ("10n", "dea"):
            assert mini_table[(100.0, load)].amplitude <= mini_table[(2.0, load)].amplitude

    def test_dea_below_ceramic_at_100hz(self, mini_table):
        assert mini_table[(100.0, "dea")].amplitude < mini_table[(100.0, "10n")].amplitude

    def test_metrics_populated(self, mini_table):
        m = mini_table[(2.0, "10n")]
        assert m.peak_source_current > 0
        assert m.peak_source_power > 0
        assert m.max_device_drop > 0

    def test_empty_grid_rejected(self):
        with pytest.raises(MeasureError, match="empty"):
            frequency_sweep([], ["10n"])
        with pytest.raises(MeasureError, match="empty"):
            frequency_sweep([2.0], [])

    def test_driver_schedule_error_fails_only_its_cell(self):
        # a 5 kHz command is shorter than the converter-fed stack's driver delays
        table = frequency_sweep([100.0, 5000.0], ["10n"])
        assert table.keys == ((100.0, "10n"), (5000.0, "10n"))
        assert table.values[0].amplitude > 0
        assert table.values[1] is None
        assert "command period too short for driver (on=" in table.errors[1]


def drops(study):
    """Maximum device drops of the successful Monte-Carlo trials."""
    return np.array([d for d in study.values if d is not None])


class TestMonteCarlo:
    def test_degenerate_distribution(self, monkeypatch):
        monkeypatch.setattr(analysis, "OFFSET_SPAN", 0.0)
        build = mc_template("fig3")
        model = MismatchModel(sigma=0.0, trials=5, seed=3)
        d = drops(monte_carlo(build, model))
        assert len(d) == 5
        assert np.all(d == d[0])
        assert d.min() == np.median(d) == d.max()

    def test_negative_seed_rejected(self):
        with pytest.raises(MeasureError, match="seed must be >= 0"):
            MismatchModel(seed=-1)

    def test_seed_reproducibility(self):
        build = mc_template("fig3")
        model = MismatchModel(sigma=1.0, trials=8, seed=42)
        a = monte_carlo(build, model)
        b = monte_carlo(build, model)
        assert np.array_equal(drops(a), drops(b))
        assert [seed for _, seed in a.keys] == [seed for _, seed in b.keys]

    def test_balanced_stack_keeps_margin(self):
        # at the fig3 operating point every drop is bounded by the input,
        # comfortably under the 900 V per-device rating
        build = mc_template("fig3")
        model = MismatchModel(sigma=1.0, trials=60, seed=11)
        d = drops(monte_carlo(build, model))
        assert len(d) == 60
        assert np.percentile(d, 99) < 900.0

    def test_unbalanced_stack_exceeds_margin_at_design_voltage(self):
        # without balancers at the 1.8 kV design point, the leakage lottery
        # routinely puts a single device beyond its 900 V rating
        build = mc_template("fig2_hv")
        model = MismatchModel(sigma=1.0, trials=60, seed=11)
        d = drops(monte_carlo(build, model))
        assert np.percentile(d, 99) > 900.0

    def test_max_drop_matches_explicit_recomputation(self):
        # a trial reads the run-length probe rows of its run; the value must
        # be the one the four dense sample traces give, bit for bit
        build = mc_template("fig3")
        model = MismatchModel(sigma=1.0, trials=6, seed=5)
        result = monte_carlo(build, model)
        children = np.random.SeedSequence(model.seed).spawn(model.trials)
        for max_drop, error, child in zip(result.values, result.errors, children):
            rng = np.random.Generator(np.random.PCG64(child))
            offs = MEDIAN_OFF_RESISTANCE * np.exp(model.sigma * rng.standard_normal(4))
            offsets = rng.uniform(-OFFSET_SPAN, OFFSET_SPAN, 4)
            run = run_scenario(build(list(offs), list(offsets)))
            dense = [run.voltage(n).samples for n in "ABOC"]
            assert len(dense[0]) == run.n_samples
            metrics = voltage_shares(*dense)
            assert error is None
            assert np.float64(max_drop).tobytes() == np.float64(
                metrics.max_device_drop
            ).tobytes()

    def test_trial_allocates_far_less_than_a_dense_solution(self):
        # a dense fig3 trial solution is 40,001 samples x 6 unknowns x 8 B,
        # about 1.9 MB; the run-length rows of a trial stay far below that
        build = mc_template("fig3")
        model = MismatchModel(sigma=1.0, trials=1, seed=17)
        monte_carlo(build, model)  # warm-up: first-call imports and caches
        tracemalloc.start()
        try:
            study = monte_carlo(build, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert study.errors == (None,)
        assert peak < 0.25e6, f"one trial peaked at {peak / 1e6:.2f} MB"

    def test_driver_schedule_error_fails_the_trial(self):
        fig3 = mc_template("fig3")

        def fast_build(off_resistances, offsets):
            # a 10 kHz command is shorter than the stack's driver delays
            scenario = fig3(off_resistances, offsets)
            controls = {k: replace(c, frequency=10e3) for k, c in scenario.circuit.controls}
            circuit = replace(scenario.circuit, controls=tuple(controls.items()))
            return replace(scenario, circuit=circuit)

        result = monte_carlo(fast_build, MismatchModel(trials=2, seed=1))
        assert result.values == (None, None)
        for error in result.errors:
            assert error.startswith("driver delays reorder events")
