"""Device model tests: driver timing, supplies and loads."""

import numpy as np
import pytest

from hvsim.circuit import CircuitError, ControlSignal, Resistor, ScheduleError, Switch
from hvsim.devices import (
    BenchSupplyParams,
    ConverterParams,
    DeaLoadParams,
    expand_bench_supply,
    expand_converter,
    expand_dea_load,
    series_rc_load,
)
from hvsim.circuit import Circuit
from hvsim.engine import IntegrationSettings, dc_operating_point, run_transient
from hvsim.presets import load_fragment

from conftest import par


def driver(turn_on_delay=0.4e-3, turn_off_delay=0.1e-3, delay_offset=0.0, invert=False):
    """A switch carrying the given driver timing."""
    return Switch("S1", "A", "0", "g", invert=invert, turn_on_delay=turn_on_delay,
                  turn_off_delay=turn_off_delay, delay_offset=delay_offset)


def converter(**params):
    """Converter supply fragment."""
    return expand_converter(ConverterParams(**params))


def dea_dc_resistance(params):
    """DC resistance of the actuator equivalent: series plus leakage branch."""
    return params.series_resistance + params.parallel_resistance


class TestDriverSchedule:
    """``Switch.events``: the driver delays applied to a control's edges."""

    def test_rising_edge_default_delay(self):
        # rising command at t=0 -> ON event 0.4 ms later
        ctrl = ControlSignal(frequency=10.0)
        events = driver().events(ctrl.edges(0.06), 0.06)
        assert events[0] == (pytest.approx(0.4e-3), True)

    def test_zero_delay_matches_command(self):
        ctrl = ControlSignal(frequency=50.0)
        events = driver(0.0, 0.0).events(ctrl.edges(0.05), 0.05)
        assert events == ctrl.edges(0.05)

    def test_one_khz_valid_ten_khz_rejected(self):
        switch = driver()
        ok = switch.events(ControlSignal(frequency=1000.0).edges(5e-3), 5e-3)
        assert len(ok) > 0
        with pytest.raises(ScheduleError, match="too short"):
            switch.events(ControlSignal(frequency=10000.0).edges(5e-3), 5e-3)

    def test_events_strictly_increase_and_alternate(self):
        ctrl = ControlSignal(frequency=200.0, duty=0.3)
        events = driver(0.2e-3, 0.05e-3, 10e-6).events(ctrl.edges(0.05), 0.05)
        times = [t for t, _ in events]
        states = [s for _, s in events]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert all(a != b for a, b in zip(states, states[1:]))

    def test_offset_shifts_events(self):
        ctrl = ControlSignal(frequency=10.0)
        base = driver().events(ctrl.edges(0.2), 0.2)
        nudged = driver(delay_offset=50e-6).events(ctrl.edges(0.2), 0.2)
        for (t0, s0), (t1, s1) in zip(base, nudged):
            assert s0 == s1
            assert t1 - t0 == pytest.approx(50e-6)

    def test_invert_swaps_delays(self):
        ctrl = ControlSignal(frequency=10.0)
        inv = driver(invert=True).events(ctrl.edges(0.2), 0.2)
        # command rises at 0 -> inverted device FALLS, so off-delay applies
        assert inv[0] == (pytest.approx(0.1e-3), False)


def supply_circuit(fragment):
    comps = fragment.instantiate("P", "0", "sup")
    comps.append(Resistor("Rload", "P", "0", 1e12))
    return Circuit.build(comps)


class TestConverter:
    def test_open_circuit_settles_to_4500(self):
        c = supply_circuit(converter())
        v = dc_operating_point(c)
        loaded = 4500.0 * 1e12 / (1e12 + 3e6)  # 1 TOhm measurement divider
        assert v["P"] == pytest.approx(loaded, rel=1e-9)
        assert v["P"] == pytest.approx(4500.0, rel=1e-5)

    def test_matched_load_halves_voltage(self):
        comps = converter().instantiate("P", "0", "sup")
        comps.append(Resistor("Rload", "P", "0", 3e6))
        v = dc_operating_point(Circuit.build(comps))
        assert v["P"] == pytest.approx(2250.0, rel=1e-9)

    def test_short_circuit_current(self):
        comps = converter().instantiate("P", "0", "sup")
        comps.append(Resistor("Rshort", "P", "0", 1e-3))
        v = dc_operating_point(Circuit.build(comps))
        i_short = v["P"] / 1e-3
        assert i_short == pytest.approx(1.5e-3, rel=1e-6)

    def test_open_circuit_step_response(self):
        # un-precharged output rises with tau = R_int * C_par
        params = ConverterParams(precharged=False)
        tau = params.internal_resistance * params.parallel_capacitance
        c = supply_circuit(converter(precharged=False))
        res = run_transient(c, IntegrationSettings(step=tau / 1000, stop=3 * tau), {})
        w = res.voltage("P")
        t = w.times()
        exact = 4500.0 * (1.0 - np.exp(-t / tau))
        # the 1 TOhm measurement load shifts the ideal answer by ~3e-6 relative
        assert np.max(np.abs(w.samples - exact)) / 4500.0 < 1e-4

    def test_precharged_output_starts_settled(self):
        c = supply_circuit(converter())
        res = run_transient(c, IntegrationSettings(step=1e-5, stop=1e-3), {})
        assert res.voltage("P").samples[0] == pytest.approx(4500.0, rel=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(CircuitError, match="rint= must be > 0"):
            ConverterParams(internal_resistance=0.0)


class TestBenchSupply:
    def test_slew_limited_ramp(self):
        params = BenchSupplyParams(voltage=800.0)
        c = supply_circuit(expand_bench_supply(params))
        res = run_transient(c, IntegrationSettings(step=1e-7, stop=60e-6), {})
        w = res.voltage("P")
        t_knee = 800.0 / params.slew_limit  # 22.857 us
        k_before = w.index_at(t_knee) - 2
        k_after = w.index_at(t_knee) + 2
        slope = (w.samples[k_before] - w.samples[k_before - 1]) / 1e-7
        assert slope == pytest.approx(params.slew_limit, rel=0.02)
        assert w.samples[k_after] == pytest.approx(800.0, rel=1e-6)
        assert w.samples[-1] == pytest.approx(800.0, rel=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(CircuitError):
            BenchSupplyParams(voltage=-5.0)


class TestDeratedCapacitance:
    def test_reference_point(self):
        # 10 nF, 2e-4/V, 1800 V -> 6.4 nF
        _, capacitor = load_fragment("10n").instantiate("P", "0", "load")
        assert capacitor.capacitance == pytest.approx(6.4e-9)


class TestDeaLoad:
    def test_dc_resistance(self):
        assert dea_dc_resistance(DeaLoadParams()) == pytest.approx(6.66e6)

    def test_mimic_load_structural_equality(self):
        # without its parallel branch the actuator model is the series-RC
        # mimic load, component for component
        dea = expand_dea_load(DeaLoadParams(capacitance=10e-9, series_resistance=100e3))
        assert dea.parts[:2] == series_rc_load(100e3, 10e-9).parts

    def test_steady_state_divider(self):
        comps = [
            # stiff source: the long-run cap voltage is set by Rs/Rp alone
            *expand_dea_load(DeaLoadParams()).instantiate("A", "0", "load"),
        ]
        from hvsim.circuit import VoltageSource

        comps.append(VoltageSource("V1", "A", "0", 1800.0))
        v = dc_operating_point(Circuit.build(comps))
        expected = 1800.0 * 6.6e6 / 6.66e6
        assert v["load_m"] == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(1783.78, abs=0.01)

    def test_parameter_validation(self):
        with pytest.raises(CircuitError):
            DeaLoadParams(capacitance=-1e-9)
        with pytest.raises(CircuitError):
            DeaLoadParams(parallel_resistance=0.0)
