"""Engine tests: DC solutions, transient oracles, and conservation laws."""

import dataclasses
import itertools
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from hvsim import engine
from hvsim.circuit import (
    MAX_GRID_POINTS,
    Capacitor,
    Circuit,
    CircuitError,
    ControlSignal,
    Resistor,
    ScheduleError,
    Switch,
    VoltageSource,
)
from hvsim.analysis import MismatchModel, frequency_sweep, monte_carlo, voltage_shares
from hvsim.cli import apply_override
from hvsim.engine import (
    IntegrationSettings,
    SimulationError,
    dc_operating_point,
    run_transient,
)
from hvsim.presets import PRESET_NAMES, load_preset, mc_template
from hvsim.waveform import Waveform, write_csv

from conftest import driver_timelines, par, stamp_checksum


def simple_circuit(*components, controls=None):
    return Circuit.build(list(components), controls or {})


#: a capacitive circuit whose gated 1e308 V source overflows its 1e-10 ohm
#: load while it is on (control ``h``: from 5 ms to 10 ms, 15 ms to 20 ms, ...)
GATED_OVERFLOW = [VoltageSource("V1", "a", "0", 1e308, control="h"),
                  Resistor("R1", "a", "0", 1e-10), Resistor("R2", "a", "b", 1.0),
                  Capacitor("C1", "b", "0", 1e-9)]


class TestDcOperatingPoint:
    def test_symmetric_divider(self):
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 800.0),
            Resistor("R1", "A", "M", 1e6),
            Resistor("R2", "M", "0", 1e6),
        )
        v = dc_operating_point(c)
        assert v["M"] == pytest.approx(400.0, rel=1e-12)

    def test_off_stack_divider(self):
        # 900 MOhm over 100 MOhm across 800 V -> 720 V / 80 V
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 800.0),
            Resistor("R1", "A", "M", 900e6),
            Resistor("R2", "M", "0", 100e6),
        )
        v = dc_operating_point(c)
        assert 800.0 - v["M"] == pytest.approx(720.0, rel=1e-9)
        assert v["M"] == pytest.approx(80.0, rel=1e-9)

    def test_balanced_stack_divider(self):
        # balancers dominate the 9:1 leakage mismatch: ~406.3 V / ~393.7 V
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 800.0),
            Resistor("R1", "A", "M", 900e6),
            Resistor("Rb1", "A", "M", 3.6e6),
            Resistor("R2", "M", "0", 100e6),
            Resistor("Rb2", "M", "0", 3.6e6),
        )
        v = dc_operating_point(c)
        rh1, rh2 = par(3.6e6, 900e6), par(3.6e6, 100e6)
        expected_top = 800.0 * rh1 / (rh1 + rh2)
        assert 800.0 - v["M"] == pytest.approx(expected_top, rel=1e-9)
        assert expected_top == pytest.approx(406.28, abs=0.01)
        # each within 2% of the even 400 V split
        assert abs(expected_top - 400.0) / 400.0 < 0.02
        assert abs((800.0 - expected_top) - 400.0) / 400.0 < 0.02

    def test_t0_command_states(self):
        # a 0 Hz control commands high for good: the switch conducts, and
        # blocks when inverted; a source gated by a control that starts low
        # (phase pi) gives 0 V
        def divider(invert):
            return simple_circuit(
                VoltageSource("V1", "A", "0", 100.0),
                Switch("S1", "A", "M", control="g", ron=1.0, roff=1e9, invert=invert),
                Resistor("R1", "M", "0", 1.0),
                controls={"g": ControlSignal(frequency=0.0)},
            )

        assert dc_operating_point(divider(False))["M"] == pytest.approx(50.0, rel=1e-12)
        assert dc_operating_point(divider(True))["M"] == pytest.approx(
            100.0 / (1e9 + 1.0), rel=1e-9)
        gated = simple_circuit(
            VoltageSource("V1", "A", "0", 100.0, control="g"),
            Resistor("R1", "A", "0", 1e3),
            controls={"g": ControlSignal(frequency=100.0, phase=math.pi)},
        )
        assert dc_operating_point(gated)["A"] == 0.0

    def test_floating_node_rejected(self):
        with pytest.raises(CircuitError, match="float"):
            simple_circuit(
                VoltageSource("V1", "A", "0", 100.0),
                Resistor("R1", "A", "0", 1e3),
                Capacitor("C1", "B", "0", 1e-9),  # B reachable only through C1
            )


class TestStampChecksum:
    def base(self):
        return simple_circuit(
            VoltageSource("V1", "A", "0", 800.0),
            Resistor("R1", "A", "M", 3.6e6),
            Resistor("R2", "M", "0", 3.6e6),
        )

    def test_deterministic(self):
        assert stamp_checksum(self.base()) == stamp_checksum(self.base())

    def test_value_change_alters_digest(self):
        changed = self.base().with_replaced("R1", resistance=1.8e6)
        assert stamp_checksum(changed) != stamp_checksum(self.base())

    def test_empty_circuit_constant(self):
        empty = Circuit.build([])
        assert stamp_checksum(empty) == stamp_checksum(Circuit.build([]))
        assert len(stamp_checksum(empty)) == 64


class TestTransient:
    def test_rc_step_matches_closed_form(self):
        # series 100 kOhm / 10 nF driven to 1800 V; step = tau/1000
        tau = 100e3 * 10e-9
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 1800.0),
            Resistor("R1", "A", "L", 100e3),
            Capacitor("C1", "L", "0", 10e-9),
        )
        res = run_transient(c, IntegrationSettings(step=tau / 1000, stop=5e-3), {})
        w = res.voltage("L")
        t = w.times()
        exact = 1800.0 * (1.0 - np.exp(-t / tau))
        assert np.max(np.abs(w.samples - exact)) / 1800.0 < 1e-4
        # value at t = 5 ms is 1800*(1-e^-5) = 1787.87 V
        assert w.samples[w.index_at(5e-3)] == pytest.approx(1787.8717, abs=0.01)

    def test_precharged_decay_is_monotone(self):
        c = simple_circuit(
            Resistor("R1", "L", "0", 10e3),
            Capacitor("C1", "L", "0", 100e-9, initial_voltage=500.0),
        )
        res = run_transient(c, IntegrationSettings(step=1e-5, stop=20e-3), {})
        v = res.voltage("L").samples
        assert v[0] == pytest.approx(500.0, rel=1e-9)
        assert np.all(np.diff(v) <= 1e-9)
        assert v[-1] < 1.0

    def test_determinism_bitwise(self):
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 100.0, slew=1e6),
            Resistor("R1", "A", "L", 10e3),
            Capacitor("C1", "L", "0", 33e-9),
            Switch("S1", "L", "0", control="g", ron=2.0, roff=1e8,
                   turn_on_delay=0.0, turn_off_delay=0.0),
            controls={"g": ControlSignal(frequency=500.0)},
        )
        tl = {"S1": (True, [(1e-3, False), (1.5e-3, True)])}
        settings = IntegrationSettings(step=1e-6, stop=3e-3)
        a = run_transient(c, settings, tl)
        b = run_transient(c, settings, tl)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.cap_i, b.cap_i)

    def test_charge_conservation(self):
        # trapezoidal companion: integral of i equals C * dV essentially exactly
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 1000.0),
            Resistor("R1", "A", "L", 50e3),
            Capacitor("C1", "L", "0", 22e-9),
        )
        res = run_transient(c, IntegrationSettings(step=2e-6, stop=4e-3), {})
        i = res.cap_current("C1").samples
        v = res.voltage("L").samples
        q = np.trapezoid(i, dx=2e-6)
        expected = 22e-9 * (v[-1] - v[0])
        assert abs(q - expected) / abs(expected) < 1e-3

    def test_kirchhoff_consistency(self):
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 800.0),
            Resistor("R1", "A", "M", 1e5),
            Resistor("R2", "M", "0", 2e5),
            Resistor("R3", "M", "L", 3e5),
            Capacitor("C1", "L", "0", 5e-9),
        )
        res = run_transient(c, IntegrationSettings(step=1e-7, stop=1e-4), {})
        v_a = res.voltage("A").samples
        v_m = res.voltage("M").samples
        v_l = res.voltage("L").samples
        i_r1 = (v_a - v_m) / 1e5
        i_r2 = v_m / 2e5
        i_r3 = (v_m - v_l) / 3e5
        i_c = res.cap_current("C1").samples
        residual_m = i_r1 - i_r2 - i_r3
        residual_l = i_r3 - i_c
        largest = np.max(np.abs(np.stack([i_r1, i_r2, i_r3, i_c])), axis=0)
        assert np.all(np.abs(residual_m) < 1e-9 * np.maximum(largest, 1e-30))
        assert np.all(np.abs(residual_l) < 1e-9 * np.maximum(largest, 1e-30))

    def test_divergence_reports_time(self):
        # a switch with reversed timeline list is fine; use a nonfinite source
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 100.0),
            Resistor("R1", "A", "0", 1e3),
        )
        bad = c.with_replaced("V1", voltage=float("nan"))
        with pytest.raises(SimulationError, match="t="):
            run_transient(bad, IntegrationSettings(step=1e-6, stop=1e-5), {})

    @pytest.mark.parametrize("components, controls, step, stop, when", [
        # the t=0 row of a capacitor-free run is solved like every later row
        ([VoltageSource("V1", "a", "0", 1e308), Resistor("R1", "a", "0", 1e-10)],
         {}, 1e-6, 1e-3, "0.0"),
        # a constant-drive row: the 1e308 V source steps on at 5 ms into the
        # switch that stays closed to 5.1 ms, so a solve after t=0 overflows
        ([VoltageSource("V1", "a", "0", 1e308, control="h"),
          Resistor("R1", "a", "b", 1e-10), Switch("S1", "b", "0", control="g")],
         {"g": ControlSignal(frequency=100.0),
          "h": ControlSignal(frequency=100.0, phase=math.pi)}, 1e-4, 0.03, "0.0051"),
        # a capacitor-free ramp over 1000 steps: the source current
        # overflows near its 600th step; the time is the ramp's end
        ([VoltageSource("V1", "a", "0", 1e300, slew=1e303),
          Resistor("R1", "a", "0", 3.34e-9)], {}, 1e-6, 2e-3, "0.001"),
    ], ids=["t0-row", "constant-row", "ramp-block"])
    def test_divergence_after_start_reports_segment_end(self, components, controls,
                                                        step, stop, when):
        c = simple_circuit(*components, controls=controls)
        settings = IntegrationSettings(step=step, stop=stop)
        with pytest.raises(SimulationError, match=f"^solution diverged at t={when}$"):
            with np.errstate(all="ignore"):
                run_transient(c, settings)

    @pytest.mark.parametrize("components, timelines, step, stop, when", [
        # a 1000-step ramp, one stretch of four blocks: the source current
        # overflows at its 601st step, in the third block; the held segment
        # after it ends non-finite too
        ([VoltageSource("V1", "a", "0", 1e300, slew=1e303), Resistor("R1", "a", "0", 3.34e-9),
          Resistor("R2", "a", "b", 1.0), Capacitor("C1", "b", "0", 1e-9)],
         {}, 1e-6, 2e-3, "0.001"),
        # the 1e308 V source is off up to 5 ms, a finite segment end, then
        # on up to 10 ms: every segment end from there on is non-finite
        (GATED_OVERFLOW, None, 1e-4, 0.03, "0.01"),
        # the same, with two 1e-308 ohm switches that close at 12 ms: that
        # topology does not factor, after the segment that diverged first
        (GATED_OVERFLOW + [Switch(f"S{i}", "b", "0", control="g", ron=1e-308) for i in (1, 2)],
         {"S1": (False, [(0.012, True)]), "S2": (False, [(0.012, True)])}, 1e-4, 0.03, "0.01"),
    ], ids=["ramp-later-block", "after-finite-segment", "before-singular-topology"])
    def test_capacitive_divergence_reports_first_non_finite_segment_end(
            self, components, timelines, step, stop, when):
        controls = {"g": ControlSignal(frequency=100.0),
                    "h": ControlSignal(frequency=100.0, phase=math.pi)}
        c = simple_circuit(*components, controls=controls)
        settings = IntegrationSettings(step=step, stop=stop)
        with pytest.raises(SimulationError, match=f"^solution diverged at t={when}$"):
            with np.errstate(all="ignore"):
                run_transient(c, settings, timelines)

    def test_gated_source_follows_control(self):
        # control-driven source: EMF is `voltage` while the control is high
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 120.0, control="g"),
            Resistor("R1", "A", "M", 1e4),
            Resistor("R2", "M", "0", 1e4),
            controls={"g": ControlSignal(frequency=100.0)},
        )
        res = run_transient(c, IntegrationSettings(step=1e-5, stop=0.02), {})
        v = res.voltage("M")
        assert v.samples[v.index_at(2e-3)] == pytest.approx(60.0, rel=1e-9)
        assert v.samples[v.index_at(7e-3)] == pytest.approx(0.0, abs=1e-9)
        assert v.samples[v.index_at(12e-3)] == pytest.approx(60.0, rel=1e-9)

    def test_gated_edge_inside_first_half_step_folds_into_start(self):
        # a command edge at t < h/2 snaps to grid index 0: the source starts
        # at its post-edge value instead of holding the stale level
        h = 1e-5
        ctrl = ControlSignal(frequency=100.0, phase=2 * np.pi * (0.25 * h) * 100.0)
        assert ctrl.state_at(0.0) is False  # pre-edge command is low
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 50.0, control="g"),
            Resistor("R1", "A", "0", 1e4),
            controls={"g": ctrl},
        )
        res = run_transient(c, IntegrationSettings(step=h, stop=1e-3), {})
        v = res.voltage("A")
        assert v.samples[0] == pytest.approx(50.0)
        assert v.samples[v.index_at(2e-4)] == pytest.approx(50.0)

    def test_gated_slewed_source_ramps_between_levels(self):
        # slew-limited gated source ramps at the declared rate on each edge
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 100.0, slew=1e5, control="g"),
            Resistor("R1", "A", "0", 1e6),
            controls={"g": ControlSignal(frequency=100.0)},
        )
        res = run_transient(c, IntegrationSettings(step=1e-6, stop=0.01), {})
        v = res.voltage("A")
        # 100 V at 1e5 V/s takes 1 ms: half-way through the ramp at 0.5 ms
        assert v.samples[v.index_at(0.5e-3)] == pytest.approx(50.0, rel=1e-6)
        assert v.samples[v.index_at(2e-3)] == pytest.approx(100.0, rel=1e-9)
        # falling command at 5 ms ramps back down
        assert v.samples[v.index_at(5.5e-3)] == pytest.approx(50.0, rel=1e-6)
        assert v.samples[v.index_at(7e-3)] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("capacitor", [False, True])
    def test_event_log_order(self, capacitor):
        circuit = simple_circuit(
            VoltageSource("V1", "A", "0", 10.0, control="g"),
            Resistor("R1", "A", "B", 1e3),
            Switch("S1", "B", "0", control="s"),
            Switch("S2", "A", "B", control="s"),
            *([Capacitor("C1", "B", "0", 1e-9)] if capacitor else []),
            controls={"g": ControlSignal(frequency=1e3), "s": ControlSignal(frequency=1.0)},
        )
        # g steps V1 at grid indices 50, 100, 150 and 200 (the last one)
        timelines = {"S1": (False, [(5e-4, True), (1e-3, True), (2e-3, False)]),
                     "S2": (True, [(5e-4, False)])}
        settings = IntegrationSettings(1e-5, 2e-3)
        res = run_transient(circuit, settings, timelines)
        h = settings.step
        # per index: each switch that changes, in circuit order, then the
        # source edge; S1's repeated on command at index 100 changes nothing
        assert res.events == [(50 * h, "S1"), (50 * h, "S2"), (50 * h, "source"),
                              (100 * h, "source"), (150 * h, "source"),
                              (200 * h, "S1"), (200 * h, "source")]
        assert res.events == reference_transient(circuit, settings, timelines)[3]

    def test_missing_switch_timeline(self):
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 10.0),
            Switch("S1", "A", "0", control="g"),
            controls={"g": ControlSignal(frequency=1.0)},
        )
        with pytest.raises(SimulationError, match="S1"):
            run_transient(c, IntegrationSettings(step=1e-6, stop=1e-5), {})

    def test_non_finite_stop_rejected(self):
        # an infinite stop would schedule control edges forever
        with pytest.raises(CircuitError, match="stop time must be finite"):
            IntegrationSettings(1e-3, math.inf)

    def test_grid_beyond_limit_rejected(self):
        limit = MAX_GRID_POINTS
        assert IntegrationSettings(1.0, limit - 1.0).n_steps + 1 == limit
        for step, stop in ((1.0, float(limit)), (1e-300, 1e-3), (1e-300, 1e300)):
            with pytest.raises(CircuitError, match="points"):
                IntegrationSettings(step, stop)

    def test_events_snapped_to_one_grid_index_raise(self):
        # an on/off pulse of 4 us on a 10 us grid would vanish without trace
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 10.0),
            Resistor("R1", "A", "B", 1e3),
            Switch("S1", "B", "0", control="g"),
            controls={"g": ControlSignal(frequency=1.0)},
        )
        timelines = {"S1": (False, [(3.0e-5, True), (3.4e-5, False)])}
        with pytest.raises(ScheduleError, match=r"'S1'.*t=3e-05 and t=3.4e-05"):
            run_transient(c, IntegrationSettings(step=1e-5, stop=1e-4), timelines)
        # on a 1 us grid the pulse keeps its own samples
        res = run_transient(c, IntegrationSettings(step=1e-6, stop=1e-4), timelines)
        v = res.voltage("B").samples
        assert v[32] < 0.1 and v[29] > 9.9 and v[36] > 9.9
        # events at or before t=0 still fold into the initial state
        folded = {"S1": (False, [(-2e-6, True), (1e-6, False), (2e-4, True)])}
        res = run_transient(c, IntegrationSettings(step=1e-5, stop=1e-4), folded)
        assert res.voltage("B").samples[0] > 9.9

    def test_gated_source_edges_snapped_to_one_grid_index_raise(self):
        # a 10 us high pulse every 10 ms on a 100 us grid: rise and fall snap
        # together and the source would never turn on
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 10.0, control="g"),
            Resistor("R1", "A", "B", 1e3),
            Capacitor("C1", "B", "0", 1e-6),
            controls={"g": ControlSignal(frequency=100.0, duty=0.001, phase=math.pi)},
        )
        with pytest.raises(ScheduleError, match=r"source 'V1': events at t=0.005 and "
                                                r"t=0.00501 snap to one grid index"):
            run_transient(c, IntegrationSettings(step=1e-4, stop=5e-2), {})
        # on a 1 us grid the pulse keeps its own samples
        res = run_transient(c, IntegrationSettings(step=1e-6, stop=2e-2), {})
        assert res.voltage("A").samples.max() == 10.0

    def test_control_faster_than_grid_raises_before_listing_edges(self, monkeypatch):
        def listed(self, stop):
            raise AssertionError("an edge list was built")

        monkeypatch.setattr(ControlSignal, "edges", listed)
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 10.0, control="g"),
            Resistor("R1", "A", "0", 1e3),
            controls={"g": ControlSignal(frequency=1e20)},
        )
        with pytest.raises(ScheduleError, match="control 'g': f=1e\\+20 Hz commands"):
            run_transient(c, IntegrationSettings(step=1e-6, stop=1e-3), {})

    def test_switch_control_checks_edge_count_before_listing_edges(self, monkeypatch):
        def listed(self, stop):
            raise AssertionError("an edge list was built")

        monkeypatch.setattr(ControlSignal, "edges", listed)
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 10.0),
            Switch("S1", "A", "B", control="g"),
            Resistor("R1", "B", "0", 1e3),
            controls={"g": ControlSignal(frequency=1e20)},
        )
        with pytest.raises(ScheduleError, match="control 'g': f=1e\\+20 Hz commands"):
            run_transient(c, IntegrationSettings(step=1e-6, stop=1e-3))


class TestFaultPrecedence:
    """Which fault a circuit with two of them reports: the structural check
    first, then each switch in circuit order (its edge count, driver order
    and snapping), then the gated sources, then the capacitor companions."""

    SETTINGS = IntegrationSettings(step=1e-4, stop=0.02)
    CONTROLS = {"g": ControlSignal(frequency=100.0, duty=0.001),  # a 10 us pulse
                "h": ControlSignal(frequency=1000.0)}
    SNAPS = "switch 'S1': events at t=0.01 and t=0.01001 snap to one grid index"
    REORDERS = "driver delays reorder events at t=0.0006: command period too short"

    def bridge(self, first, second):
        """S1's pulse snaps to one index; S2's 0.6 ms turn-on outlasts its
        0.5 ms command."""
        parts = {"S1": Switch("S1", "B", "0", control="g", turn_on_delay=0.0,
                              turn_off_delay=0.0),
                 "S2": Switch("S2", "A", "B", control="h", turn_on_delay=0.6e-3,
                              turn_off_delay=0.0)}
        return simple_circuit(VoltageSource("V1", "A", "0", 10.0),
                              Resistor("R1", "A", "B", 1e3), parts[first], parts[second],
                              controls=self.CONTROLS)

    @pytest.mark.parametrize("order, message", [
        (("S1", "S2"), SNAPS), (("S2", "S1"), REORDERS)], ids=["snap-first", "reorder-first"])
    def test_each_switch_in_circuit_order(self, order, message):
        with pytest.raises(ScheduleError, match=f"^{re.escape(message)}"):
            run_transient(self.bridge(*order), self.SETTINGS)

    @pytest.mark.parametrize("control, message", [
        (ControlSignal(frequency=100.0, duty=0.001),
         "source 'V1': events at t=0.01 and t=0.01001 snap to one grid index"),
        (ControlSignal(frequency=1e20), "control 'g': f=1e+20 Hz commands more edges"),
    ], ids=["snapped-edges", "edge-count"])
    def test_gated_source_before_capacitor_companion(self, control, message):
        c = simple_circuit(VoltageSource("V1", "A", "0", 10.0, control="g"),
                           Resistor("R1", "A", "B", 1e3), Capacitor("C1", "B", "0", 1e305),
                           controls={"g": control})
        with pytest.raises(ScheduleError, match=f"^{re.escape(message)}"):
            run_transient(c, self.SETTINGS)
        with pytest.raises(CircuitError, match="^C1: companion conductance 2C/h"):
            run_transient(c.with_replaced("V1", control=None), self.SETTINGS)

    def test_structure_before_switch_schedule(self):
        c = self.bridge("S1", "S2")
        with pytest.raises(CircuitError, match="^S1: undefined control 'nope'$"):
            run_transient(c.with_replaced("S1", control="nope"), self.SETTINGS)
        with pytest.raises(CircuitError, match="^node 'X' has no DC path to ground"):
            run_transient(c.with_replaced("R1", pos="X", neg="Y"), self.SETTINGS)


class TestLongRun:
    def test_long_run_starts_with_the_short_run(self):
        """fig3 at a 20 Hz drive, with ``stop`` x1 and x40: the long run walks
        12,796 events and its first samples equal the short run's bit for bit."""
        scenario = apply_override(load_preset("fig3"), "ctrl.g.f", "20")
        short = run_transient(scenario.circuit, scenario.settings)
        longer = scenario.with_settings(stop=40 * scenario.settings.stop)
        long = run_transient(longer.circuit, longer.settings)
        assert (len(short.events), len(long.events)) == (316, 12_796)
        assert long.n_samples == 40 * (short.n_samples - 1) + 1
        for node in "ABOC":
            head = long.voltage(node).samples[: short.n_samples]
            assert np.array_equal(head, short.voltage(node).samples), node


def random_rc_circuit(rng):
    """Random connected passive RC network with pre-charged capacitors."""
    n_nodes = int(rng.integers(2, 6))
    labels = [f"n{i}" for i in range(n_nodes)]
    comps = []
    # spanning chain of resistors guarantees a DC path to ground
    prev = "0"
    for i, lab in enumerate(labels):
        comps.append(Resistor(f"Rs{i}", prev, lab, float(rng.uniform(1e3, 1e6))))
        prev = lab
    n_extra = int(rng.integers(0, 4))
    all_nodes = ["0"] + labels
    for i in range(n_extra):
        a, b = rng.choice(len(all_nodes), size=2, replace=False)
        comps.append(
            Resistor(f"Rx{i}", all_nodes[a], all_nodes[b], float(rng.uniform(1e3, 1e6)))
        )
    # keep the capacitor subgraph acyclic: a capacitor-only loop with
    # mismatched pre-charges has no consistent t=0 state (engine rejects it)
    parent = {n: n for n in all_nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    n_caps = int(rng.integers(1, 4))
    for i in range(n_caps):
        a, b = rng.choice(len(all_nodes), size=2, replace=False)
        ra, rb = find(all_nodes[a]), find(all_nodes[b])
        if ra == rb:
            continue
        parent[ra] = rb
        comps.append(
            Capacitor(
                f"Cc{i}",
                all_nodes[a],
                all_nodes[b],
                float(rng.uniform(1e-10, 1e-7)),
                initial_voltage=float(rng.uniform(-100.0, 100.0)),
            )
        )
    return Circuit.build(comps)


class TestPassivity:
    def test_stored_energy_never_increases(self):
        # sourceless networks with arbitrary pre-charges must only dissipate
        rng = np.random.default_rng(1234)
        for trial in range(100):
            circuit = random_rc_circuit(rng)
            caps = [c for c in circuit.components if isinstance(c, Capacitor)]
            res = run_transient(
                circuit, IntegrationSettings(step=1e-6, stop=2e-4), {}
            )
            energy = np.zeros(res.n_samples)
            for cap in caps:
                v = res.voltage(cap.pos).samples - res.voltage(cap.neg).samples
                energy += 0.5 * cap.capacitance * v * v
            increases = np.diff(energy)
            assert np.all(increases <= 1e-12 * max(energy[0], 1e-30) + 1e-18), (
                f"trial {trial}: energy grew"
            )


def reference_transient(circuit, settings, timelines):
    """Per-step reference: one ``lu_solve`` per step, both companion matrices
    refactored at every segment.  Same grid snapping, slew knees and damping
    schedule as :func:`run_transient`; returns ``(x, cap_i, segment lengths,
    event log)``, the log built as the walk reaches each event index."""
    low = engine._lower(circuit)
    h, n_steps = settings.step, settings.n_steps
    n, m, nc = low.n_nodes, len(low.sources), len(low.caps)
    controls = circuit.control_map
    states, sw_events = [], {}
    for si, sw in enumerate(low.switches):
        initial, events = timelines[sw.name]
        state = bool(initial)
        for t_e, new_state in events:
            idx = engine._snap(t_e, h)
            if idx <= 0:
                state = bool(new_state)
            elif idx <= n_steps:
                sw_events.setdefault(idx, []).append((si, bool(new_state)))
        states.append(state)
    src_events = {
        engine._snap(t_e, h)
        for src in low.sources if src.control is not None
        for t_e, _ in controls[src.control].edges(settings.stop)
    }
    src_events = {idx for idx in src_events if 0 < idx <= n_steps}
    boundaries = sorted(set(sw_events) | src_events | {n_steps})

    def target(src, t):
        on = src.control is None or controls[src.control].state_at(t)
        return src.voltage if on else 0.0

    emf = np.array([0.0 if s.slew is not None else target(s, 0.5 * h) for s in low.sources])
    x_hist = np.zeros((n_steps + 1, n + m))
    ic_hist = np.zeros((n_steps + 1, nc))
    x_hist[0], ic_hist[0], determinate = engine._initial_solve(low, states, emf)
    inc = np.zeros((n + m, nc))
    for j, (p, q) in enumerate(map(low.rows, low.caps)):
        if p >= 0:
            inc[p, j] = 1.0
        if q >= 0:
            inc[q, j] = -1.0
    cap_c = np.array([cap.capacitance for cap in low.caps])
    vc = np.array([cap.initial_voltage for cap in low.caps])
    ic = ic_hist[0].copy()
    pending = 0 if determinate else settings.damping_steps
    idx0 = 0
    lengths, log = [], []
    while idx0 < n_steps:
        seg_end = next(b for b in boundaries if b > idx0)
        tgt = np.array([target(s, idx0 * h + 0.5 * h) for s in low.sources])
        knees = {}
        for j, src in enumerate(low.sources):
            if src.slew is None or emf[j] == tgt[j]:
                emf[j] = tgt[j]
            else:
                duration = abs(tgt[j] - emf[j]) / src.slew
                knees[j] = idx0 + max(1, int(np.ceil(duration / h - 1e-9)))
        seg_end = min([seg_end, *knees.values()])
        slope = np.zeros(m)
        for j, k_end in knees.items():
            if k_end <= seg_end:
                slope[j] = (tgt[j] - emf[j]) / ((k_end - idx0) * h)
            else:
                slope[j] = np.copysign(low.sources[j].slew, tgt[j] - emf[j])
        solvers = {}
        for damped, g in ((False, 2.0 * cap_c / h), (True, cap_c / h)):
            A = engine._base_matrix(low, states)
            A[:, :] += inc @ np.diag(g) @ inc.T
            solvers[damped] = (engine._factor(A, low), g)
        damp = min(pending, seg_end - idx0) if nc else 0
        for k in range(idx0 + 1, seg_end + 1):
            lu, g = solvers[k - idx0 <= damp]
            hist = g * vc if k - idx0 <= damp else g * vc + ic
            b = inc @ hist
            b[n:] += (emf - slope * idx0 * h) + slope * (k * h)
            x_hist[k] = lu_solve(lu, b)
            vc = x_hist[k] @ inc
            ic = ic_hist[k] = g * vc - hist
        lengths.append(seg_end - idx0)
        pending = max(0, pending - (seg_end - idx0))
        emf = emf + slope * ((seg_end - idx0) * h)
        close = np.abs(emf - tgt) < 1e-9 * np.maximum(1.0, np.abs(tgt))
        np.copyto(emf, tgt, where=(slope != 0.0) & close)
        idx0 = seg_end
        changed = False
        for si, new_state in sw_events.get(idx0, []):
            if states[si] != new_state:
                log.append((idx0 * h, low.switches[si].name))
                changed = True
            states[si] = new_state
        if idx0 in src_events:
            log.append((idx0 * h, "source"))
        if changed or idx0 in src_events:
            pending = settings.damping_steps
    return x_hist, ic_hist, lengths, log


def random_switched_circuit(rng):
    """Random RC network with switches, a gated slewed source and a slewed
    supply; returns the circuit, grid settings and switch timelines."""
    h = 1e-6
    stop = float(rng.integers(1500, 3000)) * h
    n_nodes = int(rng.integers(2, 5))
    labels = [f"n{i}" for i in range(n_nodes)]
    all_nodes = ["0"] + labels
    comps = [
        VoltageSource("Vg", "S", "0", float(rng.uniform(50.0, 500.0)),
                      slew=float(rng.choice([1e6, 1e7, 1e8])), control="g"),
        Resistor("Rg", "S", labels[0], float(rng.uniform(1e2, 1e4))),
        VoltageSource("Vs", "P", "0", float(rng.uniform(-200.0, 200.0)),
                      slew=float(rng.uniform(1e6, 1e7))),
        Resistor("Rp", "P", labels[-1], float(rng.uniform(1e3, 1e5))),
    ]
    prev = "0"
    for i, lab in enumerate(labels):
        comps.append(Resistor(f"Rs{i}", prev, lab, float(rng.uniform(1e3, 1e6))))
        prev = lab
    for i in range(int(rng.integers(1, 3))):
        a, b = rng.choice(len(all_nodes), size=2, replace=False)
        comps.append(Switch(f"S{i}", all_nodes[a], all_nodes[b], control="s",
                            ron=float(rng.uniform(1.0, 100.0)),
                            roff=float(rng.uniform(1e7, 1e9))))
    # acyclic capacitor subgraph on the internal nodes (see random_rc_circuit)
    for i, lab in enumerate(labels):
        other = all_nodes[int(rng.integers(0, i + 1))]
        comps.append(Capacitor(f"C{i}", lab, other, float(rng.uniform(1e-10, 1e-8)),
                               initial_voltage=float(rng.uniform(-50.0, 50.0))))
    circuit = Circuit.build(comps, {
        "g": ControlSignal(frequency=float(rng.uniform(300.0, 600.0)),
                           phase=float(rng.uniform(0.0, 6.0))),
        "s": ControlSignal(frequency=1.0),
    })
    timelines = {}
    for comp in circuit.components:
        if isinstance(comp, Switch):
            times = np.sort(rng.uniform(0.0, stop, size=int(rng.integers(1, 5))))
            state = bool(rng.integers(0, 2))
            events = [(float(t), bool(i % 2) ^ state) for i, t in enumerate(times)]
            timelines[comp.name] = (not state, events)
    settings = IntegrationSettings(step=h, stop=stop,
                                   damping_steps=int(rng.integers(0, 4)))
    return circuit, settings, timelines


class TestBlockedPropagator:
    def test_matches_per_step_reference(self):
        rng = np.random.default_rng(2024)
        longest = 0
        for trial in range(12):
            circuit, settings, timelines = random_switched_circuit(rng)
            res = run_transient(circuit, settings, timelines)
            x_ref, ic_ref, lengths, ref_events = reference_transient(circuit, settings, timelines)
            for got, ref in ((res.x, x_ref), (res.cap_i, ic_ref)):
                scale = np.max(np.abs(ref), axis=0)
                err = np.max(np.abs(got - ref), axis=0)
                assert np.all(err <= 1e-9 * scale), f"trial {trial}: {err / scale}"
            assert res.events == ref_events, f"trial {trial}"
            longest = max(longest, max(lengths))
        # at least one stretch spans several propagator blocks
        assert longest > engine._BLOCK

    def test_capacitor_loops_match_per_step_reference(self, monkeypatch):
        """Draws with a parallel twin of one capacitor at its pre-charge: the
        t=0 split is indeterminate, so both codes damp the start."""
        determinate = []
        initial_solve = engine._initial_solve

        def recording(*args):
            out = initial_solve(*args)
            determinate.append(out[2])
            return out

        monkeypatch.setattr(engine, "_initial_solve", recording)
        rng = np.random.default_rng(4242)
        damped = 0
        for trial in range(8):
            circuit, settings, timelines = random_switched_circuit(rng)
            caps = [c for c in circuit.components if isinstance(c, Capacitor)]
            cap = caps[int(rng.integers(0, len(caps)))]
            twin = Capacitor("Ctwin", cap.pos, cap.neg, float(rng.uniform(1e-10, 1e-8)),
                             initial_voltage=cap.initial_voltage)
            circuit = Circuit.build([*circuit.components, twin], circuit.control_map)
            damped += settings.damping_steps > 0
            res = run_transient(circuit, settings, timelines)
            x_ref, ic_ref, _, _ = reference_transient(circuit, settings, timelines)
            for got, ref in ((res.x, x_ref), (res.cap_i, ic_ref)):
                scale = np.max(np.abs(ref), axis=0)
                err = np.max(np.abs(got - ref), axis=0)
                assert np.all(err <= 1e-9 * scale), f"trial {trial}: {err / scale}"
        assert determinate == [False] * 16 and damped == 5

    def test_one_factorization_per_topology(self, monkeypatch):
        factored = []
        real = engine.lu_factor

        def counting_lu_factor(a):
            factored.append(np.array(a).tobytes())
            return real(a)

        monkeypatch.setattr(engine, "lu_factor", counting_lu_factor)
        scenario = load_preset("fig4b")
        run = run_transient(scenario.circuit, scenario.settings)
        assert len(set(factored)) == len(factored)
        assert len(factored) < len(run.events)


def random_ungated_circuit(rng, slewed):
    """A :func:`random_switched_circuit` draw with no gated source: ``Vg``
    holds its voltage from t=0, and the supply ``Vs`` does too or, with
    ``slewed``, ramps to its voltage and reaches it 10-60% into the run."""
    circuit, settings, timelines = random_switched_circuit(rng)
    supply = circuit.component("Vs").voltage
    slew = abs(supply) / (float(rng.uniform(0.1, 0.6)) * settings.stop) if slewed else None
    circuit = circuit.with_replaced("Vg", control=None, slew=None)
    return circuit.with_replaced("Vs", slew=slew), settings, timelines


class TestSettledSources:
    """With no gated source, a segment is planned only while a source is off
    its voltage (compared by bytes); the others run unplanned to their
    boundary at zero slope."""

    @staticmethod
    def _planned(monkeypatch):
        """The start index of every segment ``_plan_segment`` plans."""
        starts = []
        plan = engine._plan_segment

        def recording(low, controls, emf, idx0, boundary, h):
            starts.append(idx0)
            return plan(low, controls, emf, idx0, boundary, h)

        monkeypatch.setattr(engine, "_plan_segment", recording)
        return starts

    @pytest.mark.parametrize("slewed", [False, True])
    def test_matches_per_step_reference(self, monkeypatch, slewed):
        planned = self._planned(monkeypatch)
        rng = np.random.default_rng(1818 + slewed)
        for trial in range(6):
            circuit, settings, timelines = random_ungated_circuit(rng, slewed)
            planned.clear()
            res = run_transient(circuit, settings, timelines)
            x_ref, ic_ref, lengths, ref_events = reference_transient(circuit, settings, timelines)
            for got, ref in ((res.x, x_ref), (res.cap_i, ic_ref)):
                scale = np.max(np.abs(ref), axis=0)
                err = np.max(np.abs(got - ref), axis=0)
                assert np.all(err <= 1e-9 * scale), f"trial {trial}: {err / scale}"
            assert res.events == ref_events, f"trial {trial}"
            if slewed:  # the ramp's segments, and none after it ends
                assert planned and max(planned) < 0.6 * settings.n_steps + 1
                assert len(planned) < len(lengths)
            else:
                assert planned == []

    def test_fig7_sweep_cell_plans_no_segment(self, monkeypatch):
        planned = self._planned(monkeypatch)
        study = frequency_sweep([200.0], ["dea"])
        assert study.errors == (None,) and planned == []

    def test_fig3_trial_plans_its_start_up_ramp_only(self, monkeypatch):
        planned = self._planned(monkeypatch)
        study = monte_carlo(mc_template("fig3"), MismatchModel(trials=1))
        assert study.errors == (None,)
        # the one-step ramp lands on the target's bytes; the ~14 later
        # segments (one per switching event) are unplanned
        assert planned == [0]

    def test_slewed_negative_zero_source_plans_its_first_segment(self, monkeypatch):
        planned = self._planned(monkeypatch)
        circuit = simple_circuit(
            VoltageSource("V1", "A", "0", -0.0, slew=1e6),
            Resistor("R1", "A", "B", 1e3),
            Capacitor("C1", "B", "0", 1e-9),
            Switch("S1", "B", "0", control="s"),
            controls={"s": ControlSignal(frequency=1.0)},
        )
        timelines = {"S1": (False, [(5e-5, True)])}
        res = run_transient(circuit, IntegrationSettings(1e-6, 1e-4), timelines)
        # the EMF starts at +0.0, equal in value to -0.0 but not in bytes:
        # the plan copies the target's sign, and the segment after the
        # switch event runs unplanned
        assert len(res.events) == 1 and planned == [0]


class TestResistiveReuse:
    """A capacitor-free run factors each topology once, the t=0 system
    included, and solves each (topology, EMF) pair once."""

    @staticmethod
    def _fig3_topologies(monkeypatch, name, record):
        """Run the fig3 preset with ``engine.<name>`` recording its calls;
        returns the calls and the number of distinct switch-state tuples the
        run passes through (at t=0 and after each event time before stop)."""
        calls = []
        real = getattr(engine, name)

        def recording(*args):
            calls.append(record(*args))
            return real(*args)

        monkeypatch.setattr(engine, name, recording)
        scenario = load_preset("fig3")
        stop = scenario.settings.stop
        run = run_transient(scenario.circuit, scenario.settings)
        states = {n: initial for n, (initial, _) in
                  driver_timelines(scenario.circuit, scenario.settings).items()}
        seen = {tuple(states.values())}
        for t, group in itertools.groupby(run.events, key=lambda e: e[0]):
            for _, switch in group:
                states[switch] = not states[switch]
            if t < stop:
                seen.add(tuple(states.values()))
        return calls, len(seen)

    def test_each_topology_factored_once(self, monkeypatch):
        factored, topologies = self._fig3_topologies(
            monkeypatch, "dgetrf", lambda a: np.array(a).tobytes())
        assert len(set(factored)) == len(factored) == topologies

    def test_each_topology_emf_pair_solved_once(self, monkeypatch):
        solved, topologies = self._fig3_topologies(
            monkeypatch, "lu_solve", lambda lu, b: (lu[0].tobytes(), np.asarray(b).tobytes()))
        assert len(set(solved)) == len(solved)
        # the supply holds one EMF after its one-step ramp, and that ramp's
        # one row is the held row: one row per topology, plus the t=0 row
        assert len(solved) == topologies + 1

    def test_fig3_trial_looks_up_each_held_row(self, monkeypatch):
        rows, factored = [], []
        row, factor = engine._Operators.row, engine.lu_factor

        def recording_row(op, emf, t):
            rows.append(t)
            return row(op, emf, t)

        def recording_factor(a):
            factored.append(np.array(a).tobytes())
            return factor(a)

        monkeypatch.setattr(engine._Operators, "row", recording_row)
        monkeypatch.setattr(engine, "lu_factor", recording_factor)
        build = mc_template("fig3")
        rng = np.random.default_rng(31)
        for _ in range(4):
            rows.clear()
            factored.clear()
            offs = (3e8 * np.exp(rng.standard_normal(4))).tolist()
            trial = build(offs, rng.uniform(-5e-5, 5e-5, 4).tolist())
            run = run_transient(trial.circuit, trial.settings)
            # the t=0 row and the start-up ramp's row, then one row per
            # topology (each factored once), made at its first held stretch:
            # every later stretch of a topology is a lookup
            assert len(set(factored)) == len(factored)
            assert len(rows) == len(factored) + 2 < len(run.x)

    def test_long_ramp_keeps_its_last_row_only(self, monkeypatch):
        kept = {}  # each capacitor-free topology, by id
        row = engine._Operators.row

        def recording(op, emf, t):
            kept[id(op)] = op
            return row(op, emf, t)

        monkeypatch.setattr(engine._Operators, "row", recording)
        circuit = simple_circuit(
            VoltageSource("V1", "A", "0", 1000.0, slew=1e6),
            Resistor("R1", "A", "0", 1e3),
        )
        res = run_transient(circuit, IntegrationSettings(1e-6, 2e-3), {})
        # the t=0 row, 1,000 ramp steps and the held row, whose EMF is the
        # last ramp step's: only the t=0 row and that one are kept
        assert len(res.x) == 1002 and res.voltage("A").samples[-1] == 1000.0
        assert [len(op.rows) for op in kept.values()] == [2]

    def test_gated_ramp_rows_solved_once(self, monkeypatch):
        solved = []
        real = engine.lu_solve

        def recording(lu, b):
            solved.append(np.asarray(b).tobytes())
            return real(lu, b)

        monkeypatch.setattr(engine, "lu_solve", recording)
        circuit = simple_circuit(
            VoltageSource("V1", "A", "0", 100.0, slew=1e6, control="g"),
            Resistor("R1", "A", "0", 1e3),
            controls={"g": ControlSignal(frequency=1e3)},
        )
        res = run_transient(circuit, IntegrationSettings(1e-6, 1e-2), {})
        # ten periods, each ramping 0 -> 100 V and back in 1 V steps: a gated
        # ramp's rows recur every period, and each is solved once
        assert res.voltage("A").samples.max() == 100.0
        assert len(solved) == len(set(solved)) == 101


class TestEmfAdvance:
    @np.errstate(over="ignore", invalid="ignore")
    def test_matches_the_array_form_bit_for_bit(self):
        # the EMF advance works on Python floats; the array form it replaced
        # is the reference, on drawn EMFs, targets and slopes (zero, -0.0,
        # non-finite, and ramps that land just short of or past the target)
        rng = np.random.default_rng(35)
        for _ in range(500):
            m = int(rng.integers(1, 5))
            steps, h = int(rng.integers(1, 2000)), float(rng.choice([1e-7, 5e-5, 0.37]))
            emf = rng.choice([0.0, -0.0, 1.0, -800.0], m) * rng.uniform(0.5, 2.0, m)
            target = rng.choice([0.0, -0.0, 800.0, -1e-12, 1.8e3], m)
            slope = (target - emf) / (steps * h) * (1.0 + rng.choice([0.0, 1e-12, -1e-10, 0.5], m))
            slope[rng.random(m) < 0.2] = rng.choice([0.0, -0.0, math.inf, math.nan])
            ref = emf + slope * (steps * h)
            near = np.abs(ref - target) < 1e-9 * np.maximum(1.0, np.abs(target))
            np.copyto(ref, target, where=(slope != 0.0) & near)
            assert engine._advance(emf, target, slope, steps, h).tobytes() == ref.tobytes()


#: a child process's check of the power table under the OpenBLAS kernel it
#: runs: its kernel line, then ``n j`` for each size whose power ``F^j`` is not
#: bit for bit the 2-D product ``F^(j-k) @ F^k`` (``k`` the largest power of
#: two below ``j``) that the doubling names
POWERS_CHILD = """
import sys
sys.path[:0] = sys.argv[1:]
import numpy as np
from blas_kernel import describe
from hvsim.engine import _BLOCK, _powers
print(describe())
rng = np.random.default_rng(38)
for n in range(3, 12):
    F = rng.standard_normal((n, n)) / np.sqrt(n)
    table, powers = _powers(F, _BLOCK), [np.eye(n), F]
    for j in range(2, _BLOCK + 1):
        k = 1 << (j - 1).bit_length() - 1
        powers.append(powers[j - k] @ powers[k])
    bad = [j for j, power in enumerate(powers) if table[j].tobytes() != power.tobytes()]
    if bad:
        print(n, bad[0])
"""


class TestPowerTable:
    @pytest.mark.skipif(platform.machine() != "x86_64", reason="x86-64 kernel names")
    @pytest.mark.parametrize("kernel", ["Katmai", "Nehalem"])
    def test_each_power_is_its_own_2d_product_under_other_kernels(self, kernel):
        # the stacked doubling must run one gemm per power: one taller product
        # of the stacked rows rounds by the kernel's row blocking, which this
        # host's kernel may not show (Katmai and Nehalem do at sizes 5-11)
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
        lines = subprocess.run(
            [sys.executable, "-c", POWERS_CHILD, str(root / "src"), str(root / "tools")],
            env=env, capture_output=True, text=True, check=True).stdout.splitlines()
        if lines[0] != f"blas kernels: numpy {kernel}, scipy {kernel}":
            pytest.skip(f"the child ran {lines[0]}")
        assert lines[1:] == []

    def test_short_table_is_a_prefix_of_the_full_one(self):
        rng = np.random.default_rng(16)
        for n in (3, 17):
            F = rng.standard_normal((n, n)) / math.sqrt(n)
            full = engine._powers(F, engine._BLOCK).view(np.uint64)
            for count in range(1, engine._BLOCK):
                short = engine._powers(F, count).view(np.uint64)
                assert np.array_equal(short, full[: count + 1]), (n, count)
            # grown in powers of two, resuming where each call stopped
            grown = engine._powers(F, 1)
            while len(grown) <= engine._BLOCK:
                grown = engine._powers(F, 2 * (len(grown) - 1), grown)
            assert np.array_equal(grown.view(np.uint64), full)

    @staticmethod
    def _recorded_counts(monkeypatch):
        counts = []
        powers = engine._powers

        def recording_powers(F, count, P=None):
            counts.append(count)
            return powers(F, count, P)

        monkeypatch.setattr(engine, "_powers", recording_powers)
        return counts

    @pytest.mark.parametrize("overrides", [(), (("comp.Vsup_emf.slew", "2e5"),)],
                             ids=["fig3", "fig3-40-step-ramp"])
    def test_capacitor_free_run_builds_no_power_table(self, monkeypatch, overrides):
        counts = self._recorded_counts(monkeypatch)
        monkeypatch.setattr(engine._Operators, "step_powers", None)  # a call raises
        scenario = load_preset("fig3")
        for key, value in overrides:
            scenario = apply_override(scenario, key, value)
        run = run_transient(scenario.circuit, scenario.settings)
        assert run.starts is not None and counts == []

    def test_one_step_topologies_build_no_power_past_the_first(self, monkeypatch):
        tables = {}  # the table length of each capacitive topology, by id
        step_powers = engine._Operators.step_powers

        def recording(self, walk, length):
            tables[id(self)] = len(P := step_powers(self, walk, length))
            return P

        monkeypatch.setattr(engine._Operators, "step_powers", recording)
        scenario = load_preset("fig8")
        run_transient(scenario.circuit, scenario.settings)
        # four of fig8's topologies hold for one trapezoidal step: F^0, F^1
        assert list(tables.values()).count(2) == 4

    def test_long_stretch_tops_out_at_block(self, monkeypatch):
        counts = self._recorded_counts(monkeypatch)
        circuit = simple_circuit(
            VoltageSource("V1", "A", "0", 10.0),
            Resistor("R1", "A", "B", 1e3),
            Capacitor("C1", "B", "0", 1e-6),
        )
        run_transient(circuit, IntegrationSettings(1e-5, 0.05), {})
        assert max(counts) == engine._BLOCK


class TestBatchedRows:
    """A trapezoidal stretch takes its output rows in one product per batch
    of ``_BLOCK``-row blocks, not one per block: on one BLAS thread a gemm's
    rows do not depend on how many rows it has, so a batch holds as many
    blocks as keep its product's multiply-adds within ``_ONE_THREAD``.  A
    one-row product is a gemv, whose bits may differ, so a one-row block
    stays a product of its own."""

    @staticmethod
    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    def test_one_product_equals_the_per_block_products(self):
        rng = np.random.default_rng(36)
        B = engine._BLOCK
        rows_max = engine._ONE_THREAD // B  # the batch of the smallest product
        Z_all = rng.standard_normal((rows_max, 23)) * np.exp(rng.uniform(-30, 30, (rows_max, 1)))
        k_all = rng.standard_normal((20, 20))
        inc_all = rng.integers(-1, 2, (20, 7)).astype(float)
        for K, N in itertools.product(range(1, 21), repeat=2):
            # as in the engine: the first K columns of the state rows, the
            # transposed response and the capacitor incidence
            k_tr, inc = k_all[:N, :K], inc_all[:N, : min(N, 7)]
            batch = max(1, engine._ONE_THREAD // (B * k_tr.size)) * B
            # a whole batch, and a last one of whole blocks and an odd tail
            for rows in (batch, batch - B + 2 * int(rng.integers(1, B // 2)) + 1):
                Z = Z_all[:rows, : K + 3]
                X = Z[:, :K] @ k_tr.T
                blocks = [Z[i : i + B, :K] @ k_tr.T for i in range(0, rows, B)]
                assert np.array_equal(self.bits(X), self.bits(np.concatenate(blocks))), (K, N, rows)
                per_block = np.concatenate([block @ inc for block in blocks])
                assert np.array_equal(self.bits(X @ inc), self.bits(per_block)), (K, N, rows)

    @pytest.mark.parametrize("batches, blocks, tail", [
        (0, 2, 1), (0, 2, 2), (0, 2, 3), (0, 2, 129), (0, 2, 256),
        (1, 0, 0), (1, 0, 1), (1, 1, 1), (2, 3, 255)])
    def test_run_matches_the_per_block_run_bit_for_bit(self, monkeypatch, batches, blocks, tail):
        circuit = simple_circuit(
            VoltageSource("V1", "in", "0", 100.0), Resistor("R1", "in", "n1", 1e3),
            Capacitor("C1", "n1", "0", 1e-8), Resistor("R2", "n1", "n2", 2e3),
            Capacitor("C2", "n2", "0", 2e-8, initial_voltage=-5.0),
            Resistor("R3", "n2", "n3", 5e3), Capacitor("C3", "n3", "n1", 5e-9),
            Resistor("R4", "n3", "0", 1e4),
        )
        # one trapezoidal stretch of whole batches, whole blocks and the tail
        # (five unknowns, three capacitors and a source: 51 blocks a batch)
        batch = engine._ONE_THREAD // (engine._BLOCK * 5 * 4) * engine._BLOCK
        steps = batches * batch + blocks * engine._BLOCK + tail
        settings = IntegrationSettings(1e-6, steps * 1e-6)
        batched = run_transient(circuit, settings, {})
        monkeypatch.setattr(engine, "_ONE_THREAD", 0)  # one product per block
        blocked = run_transient(circuit, settings, {})
        for got, ref in ((batched.x, blocked.x), (batched.cap_i, blocked.cap_i)):
            assert np.array_equal(self.bits(got), self.bits(ref))


class TestValidateOnce:
    def test_replaced_invalid_circuit_still_rejected(self):
        base = simple_circuit(
            VoltageSource("V1", "A", "0", 10.0),
            Resistor("R1", "A", "B", 1e3),
            Resistor("R2", "B", "0", 1e3),
        )
        with pytest.raises(CircuitError, match="R2: resistance must be > 0, got -1.0"):
            base.with_replaced("R2", resistance=-1.0)
        bad = base.with_replaced("R2", pos="X", neg="Y")
        message = "node 'X' has no DC path to ground"
        for _ in range(2):  # a failed check is not remembered as a pass
            with pytest.raises(CircuitError, match=message):
                run_transient(bad, IntegrationSettings(1e-3, 1e-2), {})
            with pytest.raises(CircuitError, match=message):
                dc_operating_point(bad)

    def test_valid_circuit_checks_components_once(self, monkeypatch):
        # the structural check runs once per structure: value-only copies share its pass
        checked = []
        check = Circuit._check_dc_connectivity

        def counting_check(circuit):
            checked.append(len(circuit.components))
            check(circuit)

        monkeypatch.setattr(Circuit, "_check_dc_connectivity", counting_check)
        circuit = simple_circuit(
            VoltageSource("V1", "A", "0", 10.0),
            Resistor("R1", "A", "0", 1e3),
        )
        for _ in range(2):
            run_transient(circuit, IntegrationSettings(1e-3, 1e-2), {})
        dc_operating_point(circuit)
        dc_operating_point(circuit.with_replaced("R1", resistance=2e3))
        assert checked == [2]


def random_resistive_circuit(rng):
    """Random capacitor-free switched network fed by a constant source, a
    gated (sometimes slewed) source and a slewed supply whose ramps span up
    to thousands of steps; returns the circuit, grid settings and switch
    timelines."""
    h = 1e-6
    stop = float(rng.integers(1500, 3000)) * h
    n_nodes = int(rng.integers(2, 5))
    labels = [f"n{i}" for i in range(n_nodes)]
    all_nodes = ["0"] + labels
    gate_slew = [None, 1e6, 1e8][int(rng.integers(0, 3))]
    comps = [
        VoltageSource("Vk", "K", "0", float(rng.uniform(-300.0, 300.0))),
        Resistor("Rk", "K", labels[int(rng.integers(0, n_nodes))], float(rng.uniform(1e2, 1e5))),
        VoltageSource("Vg", "S", "0", float(rng.uniform(50.0, 500.0)),
                      slew=gate_slew, control="g"),
        Resistor("Rg", "S", labels[0], float(rng.uniform(1e2, 1e4))),
        VoltageSource("Vs", "P", "0", float(rng.uniform(-400.0, 400.0)),
                      slew=float(rng.uniform(5e4, 5e6))),
        Resistor("Rp", "P", labels[-1], float(rng.uniform(1e3, 1e5))),
    ]
    prev = "0"
    for i, lab in enumerate(labels):
        comps.append(Resistor(f"Rs{i}", prev, lab, float(rng.uniform(1e3, 1e6))))
        prev = lab
    for i in range(int(rng.integers(1, 4))):
        a, b = rng.choice(len(all_nodes), size=2, replace=False)
        comps.append(Switch(f"S{i}", all_nodes[a], all_nodes[b], control="s",
                            ron=float(rng.uniform(1.0, 100.0)),
                            roff=float(rng.uniform(1e7, 1e9))))
    circuit = Circuit.build(comps, {
        "g": ControlSignal(frequency=float(rng.uniform(300.0, 600.0)),
                           phase=float(rng.uniform(0.0, 6.0))),
        "s": ControlSignal(frequency=1.0),
    })
    timelines = {}
    for comp in circuit.components:
        if isinstance(comp, Switch):
            times = np.sort(rng.uniform(0.0, stop, size=int(rng.integers(1, 6))))
            state = bool(rng.integers(0, 2))
            events = [(float(t), bool(i % 2) ^ state) for i, t in enumerate(times)]
            timelines[comp.name] = (not state, events)
    return circuit, IntegrationSettings(step=h, stop=stop), timelines


class TestRunLength:
    def test_matches_per_step_reference(self):
        rng = np.random.default_rng(808)
        ramp_rows = 0
        for trial in range(16):
            circuit, settings, timelines = random_resistive_circuit(rng)
            res = run_transient(circuit, settings, timelines)
            x_ref, _, _, ref_events = reference_transient(circuit, settings, timelines)
            assert res.events == ref_events, f"trial {trial}"
            assert res.starts is not None and len(res.x) < res.n_samples
            assert (res.n_samples, res.x.shape[1]) == x_ref.shape
            # rows one step apart are source-ramp steps
            ramp_rows = max(ramp_rows, int(np.sum(np.diff(res.starts) == 1)))
            scale = np.max(np.abs(x_ref), axis=0)
            n = len(res.labels)

            def close(wave, ref, ref_scale):
                assert len(wave) == res.n_samples
                err = np.max(np.abs(wave.samples - ref))
                assert err <= 1e-9 * ref_scale, f"trial {trial}: {err / ref_scale}"

            for label, i in res.index.items():
                close(res.voltage(label), x_ref[:, i], scale[i])
            a, b = res.index[res.labels[0]], res.index[res.labels[-1]]
            close(res.pair_voltage(res.labels[0], res.labels[-1]),
                  x_ref[:, a] - x_ref[:, b], max(scale[a], scale[b]))
            for j, name in enumerate(res.source_names):
                close(res.source_current(name), -x_ref[:, n + j], scale[n + j])

            # shares read one value per row: bit-identical to the dense samples
            for nodes in (res.labels[:4], ["P", "S", "K", "n0"]):
                rows = [res.rows(node) for node in nodes]
                dense = [res.voltage(node).samples for node in nodes]
                assert voltage_shares(*rows) == voltage_shares(*dense)
        # some ramp stored a row per step for more than 256 steps
        assert ramp_rows > 256

    def test_expands_and_writes_like_dense(self, tmp_path):
        circuit, settings, timelines = random_resistive_circuit(np.random.default_rng(5))
        res = run_transient(circuit, settings, timelines)
        assert len(res.x) < res.n_samples
        runs = np.diff(res.starts, append=res.n_samples)
        columns = {node: res.voltage(node) for node in res.labels}
        for node, wave in columns.items():
            assert len(wave) == res.n_samples and wave.stop == settings.n_steps * settings.step
            assert wave.samples.tobytes() == np.repeat(res.rows(node), runs).tobytes()
        dense = {node: Waveform(0.0, res.step, w.samples.copy()) for node, w in columns.items()}
        write_csv(tmp_path / "runs.csv", columns)
        write_csv(tmp_path / "dense.csv", dense)
        assert (tmp_path / "runs.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()


class TestEdgesListedOnce:
    """``run_transient`` lists a control's edges once, and only where they are
    read: by a switch's driver schedule or by a gated source."""

    @pytest.fixture
    def edge_calls(self, monkeypatch):
        calls = []
        real = ControlSignal.edges

        def counted(ctrl, stop):
            calls.append(ctrl)
            return real(ctrl, stop)

        monkeypatch.setattr(ControlSignal, "edges", counted)
        return calls

    def test_gated_source_only(self, edge_calls):
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 10.0, control="g"),
            Resistor("R1", "A", "B", 1e3),
            Capacitor("C1", "B", "0", 1e-6),
            controls={"g": ControlSignal(frequency=100.0, duty=0.02)},
        )
        run_transient(c, IntegrationSettings(step=1e-4, stop=5e-2))
        assert len(edge_calls) == 1

    def test_fig3(self, edge_calls):
        scenario = load_preset("fig3")
        run_transient(scenario.circuit, scenario.settings)
        assert len(edge_calls) == 1


class TestLapackWrappers:
    def test_bits_match_scipy(self):
        rng = np.random.default_rng(7)
        for size in range(1, 13):
            for _ in range(4):
                A = rng.standard_normal((size, size)) * 10.0 ** rng.uniform(-6, 6, size)
                b = rng.standard_normal((size, 2))[:, 0]  # strided, as a matrix column
                lu, piv = engine.lu_factor(A)
                ref_lu, ref_piv = lu_factor(A)
                assert lu.tobytes() == ref_lu.tobytes()
                assert np.array_equal(piv, ref_piv)
                x = engine.lu_solve((lu, piv), b)
                assert x.tobytes() == lu_solve((ref_lu, ref_piv), b).tobytes()

    def test_fallback_without_flapack_file(self, monkeypatch):
        from scipy.linalg import lapack

        monkeypatch.setattr(engine, "_flapack_file", lambda: None)
        monkeypatch.delitem(sys.modules, engine._FLAPACK, raising=False)
        getrf, getrs = engine._bind_lapack()
        assert (getrf, getrs) == (lapack.dgetrf, lapack.dgetrs)
        monkeypatch.setattr(engine, "dgetrf", getrf)
        monkeypatch.setattr(engine, "dgetrs", getrs)
        self.test_bits_match_scipy()

    def test_singular_stamp_names_node(self):
        low = engine._lower(simple_circuit(
            VoltageSource("V1", "A", "0", 10.0),
            Resistor("R1", "A", "B", 1e3),
            Resistor("R2", "B", "0", 1e3),
        ))
        A = engine._base_matrix(low, [])
        b = low.index["B"]
        A[b, :] = A[:, b] = 0.0  # node B stamped with no conductance at all
        with pytest.raises(
            SimulationError, match="singular system while factoring \\(check node 'B'\\)"
        ):
            engine._factor(A, low)

    def test_parallel_sources_name_source(self):
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 10.0),
            VoltageSource("V2", "A", "0", 10.0),
            Resistor("R1", "A", "0", 1e3),
        )
        with pytest.raises(SimulationError, match="source 'V2'"):
            dc_operating_point(c)

    @pytest.mark.parametrize("v2", [10.0, 5.0], ids=["equal", "conflicting"])
    def test_parallel_sources_in_a_transient_name_source(self, v2):
        # with no capacitor there is no loop current to excuse a singular
        # t=0 system: the transient names the source as the DC solve does
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 10.0),
            VoltageSource("V2", "A", "0", v2),
            Resistor("R1", "A", "0", 1e3),
        )
        with pytest.raises(SimulationError,
                           match="^singular system while factoring \\(check source 'V2'\\)$"):
            run_transient(c, IntegrationSettings(1e-6, 1e-3), {})

    def test_empty_system(self):
        assert dc_operating_point(Circuit.build([])) == {"0": 0.0}

    def test_empty_transient(self):
        # LAPACK rejects a 0 x 0 matrix, so the t=0 solve must not factor one
        res = run_transient(Circuit.build([]), IntegrationSettings(1e-3, 1e-2), {})
        assert res.n_samples == 11 and res.x.shape[1] == 0


class TestSharedLowering:
    """A circuit derived with its structure unchanged takes the lowering kept
    in the shared memo, and its resistor stamps only while its resistors are
    the same parts."""

    @staticmethod
    def rebuilt(scenario, name, **changes):
        comps = [dataclasses.replace(c, **changes) if c.name == name else c
                 for c in scenario.circuit.components]
        return dataclasses.replace(
            scenario, circuit=Circuit.build(comps, scenario.circuit.control_map))

    @pytest.mark.parametrize("name, changes", [
        ("Rb2", {"resistance": 1.2e6}),
        ("Sq3", {"roff": 2e8}),
        ("Vsup_emf", {"voltage": 500.0}),
    ], ids=["resistor", "switch", "source"])
    def test_derived_run_matches_a_fresh_circuit(self, name, changes):
        base = load_preset("fig3")
        first = run_transient(base.circuit, base.settings)  # keeps the lowering in the memo
        part = dataclasses.replace(base.circuit.component(name), **changes)
        derived = dataclasses.replace(base, circuit=base.circuit.with_parts({name: part}))
        assert derived.circuit.memo is base.circuit.memo
        rebuilt = self.rebuilt(base, name, **changes)
        got = run_transient(derived.circuit, derived.settings)
        ref = run_transient(rebuilt.circuit, rebuilt.settings)
        assert got.x.tobytes() == ref.x.tobytes()
        assert run_transient(base.circuit, base.settings).x.tobytes() == first.x.tobytes()


class TestStampOrder:
    """``_base_matrix`` sums each entry in one fixed order: the resistors
    (with the source rows and columns), then the switches, then the
    capacitor companions, each kind in circuit order.  The bits of every
    factorization, and so of every CSV, depend on that order."""

    @staticmethod
    def reference(low, stamps):
        """numpy scalar stamps of ``stamps`` after the resistors."""
        n = low.n_nodes
        A = np.zeros((low.size, low.size))
        for j, src in enumerate(low.sources):
            for row, sign in zip(low.rows(src), (1.0, -1.0)):
                if row >= 0:
                    A[row, n + j] += sign
                    A[n + j, row] += sign
        for comp, g in [(r, 1.0 / r.resistance) for r in low.resistors] + stamps:
            p, q = low.rows(comp)
            for i, k, sign in ((p, p, 1.0), (q, q, 1.0), (p, q, -1.0), (q, p, -1.0)):
                if i >= 0 and k >= 0:
                    A[i, k] += sign * g
        return A

    def test_resistors_then_switches_then_capacitors(self):
        scenario = load_preset("fig4b")  # snubber capacitors across the switches
        low = engine._lower(scenario.circuit)
        states = [True, False, False, True]
        g_sw = [(sw, 1.0 / sw.ron if on else 1.0 / sw.roff)
                for sw, on in zip(low.switches, states)]
        g_cap = [2.0 * c.capacitance / 1e-7 for c in low.caps]
        got = engine._base_matrix(low, states, g_cap)
        caps = list(zip(low.caps, g_cap))
        assert got.tobytes() == self.reference(low, g_sw + caps).tobytes()
        # the order shows in the bits: capacitors before switches differ
        assert got.tobytes() != self.reference(low, caps + g_sw).tobytes()

    def test_trial_stamps_its_own_switches(self):
        # a Monte-Carlo trial shares the nominal's memo, lowering included;
        # its matrices take the conductances of its own switches, whichever
        # circuit was lowered first
        build = mc_template("fig3")
        nominal = build([300e6] * 4, [0.0] * 4)
        trial = build([1.1e8, 2.3e8, 4.7e8, 9.1e8], [1e-5, -2e-5, 3e-5, 0.0])
        assert trial.circuit.memo is nominal.circuit.memo
        states = [True, False, False, True]
        got = {}
        for name, scenario in (("nominal", nominal), ("trial", trial), ("again", nominal)):
            low = engine._lower(scenario.circuit)
            assert not low.caps and low.switches == [
                c for c in scenario.circuit.components if isinstance(c, Switch)]
            got[name] = engine._base_matrix(low, states).tobytes()
            g_sw = [(sw, 1.0 / sw.ron if on else 1.0 / sw.roff)
                    for sw, on in zip(low.switches, states)]
            assert got[name] == self.reference(low, g_sw).tobytes()
        assert got["trial"] != got["nominal"] == got["again"]


class TestWarmEqualsCold:
    """Every cache is keyed by all its value depends on: a circuit run with
    warm caches (the memo shared along a chain of :meth:`Circuit.with_parts`
    edits, after earlier runs at other grids) gives the bits of the same
    circuit built cold, with an empty memo."""

    @staticmethod
    def edits(circuit, rng):
        """A seeded chain of derived circuits: one value edit per part kind
        (R, C, switch ``ron``/``roff``, source voltage, source slew) in a
        random order, and, with capacitors, one capacitor moved to the node
        below the first switch."""
        def pick(kind):
            parts = [c for c in circuit.components if isinstance(c, kind)]
            return parts[int(rng.integers(len(parts)))] if parts else None

        def scale():
            return float(rng.uniform(0.5, 2.0))

        steps = [
            lambda: (r := pick(Resistor)) and dataclasses.replace(
                r, resistance=r.resistance * scale()),
            lambda: (c := pick(Capacitor)) and dataclasses.replace(
                c, capacitance=c.capacitance * scale()),
            lambda: (s := pick(Switch)) and dataclasses.replace(
                s, ron=s.ron * scale(), roff=s.roff * scale()),
            lambda: (v := pick(VoltageSource)) and dataclasses.replace(
                v, voltage=v.voltage * scale()),
            lambda: (v := pick(VoltageSource)) and dataclasses.replace(
                v, slew=(v.slew or 35e6) * scale()),
        ]
        caps = [c.name for c in circuit.components if isinstance(c, Capacitor)]
        if caps:  # a node change: the derived circuit must not share the memo
            below = next(c.neg for c in circuit.components if isinstance(c, Switch))
            steps.append(lambda: dataclasses.replace(circuit.component(caps[-1]), pos=below))
        for i in rng.permutation(len(steps)):
            part = steps[i]()
            if part:
                circuit = circuit.with_parts({part.name: part})
                yield circuit

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_edit_chain(self, name):
        scenario = load_preset(name)
        rng = np.random.default_rng([18, PRESET_NAMES.index(name)])
        f = max(ctrl.frequency for _, ctrl in scenario.circuit.controls)
        stop = min(scenario.settings.stop, 2.5 / f)  # a few command periods
        # the short grid first, so that an edge list kept for its stop is
        # there when the long grid asks for its own
        grids = [dataclasses.replace(scenario.settings, step=stop / 500, stop=0.6 * stop),
                 dataclasses.replace(scenario.settings, step=stop / 600, stop=stop)]
        circuit = scenario.circuit
        for edit, derived in enumerate(itertools.chain([circuit], self.edits(circuit, rng))):
            for settings in grids:
                cold = Circuit.build(derived.components, dict(derived.controls))
                warm, ref = run_transient(derived, settings), run_transient(cold, settings)
                for attr in ("x", "cap_i", "starts"):
                    got, want = getattr(warm, attr), getattr(ref, attr)
                    assert np.array_equal(got, want), (edit, settings, attr)
                assert warm.events == ref.events, (edit, settings)

    def test_power_table_grown_in_steps_equals_one_built_at_once(self):
        rng = np.random.default_rng(1818)
        for _ in range(12):
            n = int(rng.integers(1, 9))
            F = rng.standard_normal((n, n)) / math.sqrt(n)
            P = engine._powers(F, 1)
            for length in np.sort(rng.integers(1, engine._BLOCK + 1, size=4)):
                if len(P) <= length:  # grown as _Operators.step_powers grows it
                    P = engine._powers(F, 1 << (int(length) - 1).bit_length(), P)
                    once = engine._powers(F, len(P) - 1)
                    assert np.array_equal(P.view(np.uint64), once.view(np.uint64)), (n, length)
