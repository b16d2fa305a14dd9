"""Bridge builder tests: labeling, complementarity, and sharing invariants."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hvsim.circuit import CircuitError, ControlSignal, Switch
from hvsim.devices import BenchSupplyParams, expand_bench_supply
from hvsim.cli import shoot_through_seconds
from hvsim.engine import IntegrationSettings, run_transient
from hvsim.presets import bridge_scenario, dual_channel_with_phase, load_preset

from conftest import driver_timelines, stamp_checksum


def bridge(**kw):
    args = dict(
        supply=expand_bench_supply(BenchSupplyParams(voltage=800.0)),
        load=None,
        control=ControlSignal(frequency=1.0),
        step=1e-4,
        stop=2.0,
        probes=(),
    )
    args.update(kw)
    return bridge_scenario(**args).circuit


class TestBuildHalfBridge:
    def test_node_labels_present(self):
        c = bridge()
        labels = c.node_labels()
        for need in ("A", "B", "O", "C"):
            assert need in labels

    def test_side_assignment(self):
        c = bridge()
        switches = [comp for comp in c.components if isinstance(comp, Switch)]
        high = [s for s in switches if not s.invert]
        low = [s for s in switches if s.invert]
        assert {(s.pos, s.neg) for s in high} == {("A", "B"), ("B", "O")}
        assert {(s.pos, s.neg) for s in low} == {("O", "C"), ("C", "0")}

    def test_sequence_length_mismatch_rejected(self):
        with pytest.raises(CircuitError, match="need 4 driver offsets, got 2"):
            bridge(driver_offsets=(0.0, 0.0))

    @pytest.mark.parametrize("kw, device", [
        ({"balancing": 0.0}, "Rb1"),
        ({"snubber": -220e-12}, "Csn1"),
    ], ids=["balancing", "snubber"])
    def test_non_positive_balancing_or_snubber_names_device(self, kw, device):
        with pytest.raises(CircuitError, match=f"^{device}: "):
            bridge(**kw)

    def test_preset_digests_are_distinct_and_stable(self):
        # the variants differ exactly by their balancing/snubber population
        fig2 = stamp_checksum(load_preset("fig2").circuit)
        fig3 = stamp_checksum(load_preset("fig3").circuit)
        fig4b = stamp_checksum(load_preset("fig4b").circuit)
        assert fig2 != fig3 != fig4b
        assert fig3 == stamp_checksum(load_preset("fig3").circuit)

    def test_balancer_swap_changes_digest(self):
        a = bridge(balancing=3.6e6)
        b = bridge(balancing=1.8e6)
        assert stamp_checksum(a) != stamp_checksum(b)

    def test_commanded_complementarity(self):
        # natural break-before-make: the sides are never commanded on together
        c = bridge(control=ControlSignal(frequency=50.0))
        timelines = driver_timelines(c, IntegrationSettings(step=1e-4, stop=0.1))
        assert shoot_through_seconds(c, timelines, 0.1) == 0.0

    @pytest.mark.parametrize("stop", [0.0, -1.0, float("nan")])
    def test_stop_not_positive_rejected(self, stop):
        # the switch events take their stop from the run's settings, which
        # reject it; a NaN stop must end there, not in an endless edge scan
        with pytest.raises(CircuitError, match="stop time must be"):
            run_transient(bridge(), IntegrationSettings(step=1e-4, stop=stop))

    def test_drops_sum_to_stack_voltage_exactly(self, preset_runs):
        run = preset_runs("fig3")
        v_a = run.voltage("A").samples
        drops = (
            (v_a - run.voltage("B").samples)
            + (run.voltage("B").samples - run.voltage("O").samples)
            + (run.voltage("O").samples - run.voltage("C").samples)
            + run.voltage("C").samples
        )
        assert np.array_equal(drops, drops)  # finite
        assert np.max(np.abs(drops - v_a)) < 1e-9 * max(1.0, np.max(np.abs(v_a)))

    def test_identical_devices_share_equally(self):
        c = bridge(driver_offsets=(0.0, 0.0, 0.0, 0.0))
        c = c.with_parts({comp.name: replace(comp, roff=500e6)
                          for comp in c.components if isinstance(comp, Switch)})
        run = run_transient(c, IntegrationSettings(step=1e-4, stop=2.0))
        k = run.voltage("A").index_at(0.85)  # high side blocking, settled
        v_a = run.voltage("A").samples[k]
        v_b = run.voltage("B").samples[k]
        v_o = run.voltage("O").samples[k]
        d1, d2 = v_a - v_b, v_b - v_o
        assert abs(d1 - d2) / max(abs(d1), 1e-30) < 1e-9


class TestBuildDualChannel:
    def make(self, phase2):
        return dual_channel_with_phase(phase2).circuit

    def test_zero_phase_outputs_identical(self):
        c = self.make(0.0)
        run = run_transient(c, IntegrationSettings(step=1e-6, stop=0.02))
        o1, o2 = run.voltage("O1").samples, run.voltage("O2").samples
        scale = np.max(np.abs(o1))
        assert np.max(np.abs(o1 - o2)) < 1e-12 * scale

    def test_pi_phase_offsets_edges_half_period(self):
        c = self.make(math.pi)
        tl = driver_timelines(c, IntegrationSettings(step=1e-6, stop=0.02))
        t1 = [t for t, s in tl["Sch1q1"][1] if s]
        t2 = [t for t, s in tl["Sch2q1"][1] if s]
        assert t2[0] - t1[0] == pytest.approx(5e-3)

    def test_half_pi_phase_offset_at_100hz(self):
        c = self.make(math.pi / 2)
        tl = driver_timelines(c, IntegrationSettings(step=1e-6, stop=0.02))
        t1 = [t for t, s in tl["Sch1q1"][1] if s]
        t2 = [t for t, s in tl["Sch2q1"][1] if s]
        assert (t2[0] - t1[0]) % 10e-3 == pytest.approx(2.5e-3)

    def test_shared_supply_is_single(self):
        c = self.make(0.0)
        converters = [comp for comp in c.components if comp.name == "Csup_cpar"]
        assert len(converters) == 1


def midpoint_scan_shoot_through(circuit, timelines, stop):
    """Reference: for every interval between adjacent boundary points,
    rescan each switch's events from the start to find its state at the
    interval midpoint."""

    def state_fn(name):
        initial, events = timelines[name]

        def at(t):
            s = initial
            for te, se in events:
                if te <= t:
                    s = se
                else:
                    break
            return s

        return at

    groups = {}
    for comp in circuit.components:
        if isinstance(comp, Switch):
            groups.setdefault(comp.control, {True: [], False: []})[comp.invert].append(comp.name)
    total = 0.0
    for sides in groups.values():
        if not sides[True] or not sides[False]:
            continue
        boundaries = {0.0, stop}
        for name in sides[True] + sides[False]:
            boundaries.update(t for t, _ in timelines[name][1] if t < stop)
        pts = sorted(boundaries)
        fns_hi = [state_fn(n) for n in sides[False]]
        fns_lo = [state_fn(n) for n in sides[True]]
        for t0, t1 in zip(pts, pts[1:]):
            tm = 0.5 * (t0 + t1)
            if any(f(tm) for f in fns_hi) and any(f(tm) for f in fns_lo):
                total += t1 - t0
    return total


class TestShootThrough:
    def random_timelines(self, rng, circuit, stop):
        """Sorted random event times in [-0.05, 1.05] * stop, some of them
        shared between switches, with random states."""
        shared = np.sort(rng.uniform(-0.05 * stop, 1.05 * stop, 6))
        out = {}
        for comp in circuit.components:
            if not isinstance(comp, Switch):
                continue
            n = int(rng.integers(0, 30))
            times = np.unique(np.concatenate(
                [rng.uniform(-0.05 * stop, 1.05 * stop, n), rng.choice(shared, 2)]
            ))
            states = rng.integers(0, 2, times.size).astype(bool)
            out[comp.name] = (bool(rng.integers(0, 2)),
                              [(float(t), bool(s)) for t, s in zip(times, states)])
        return out

    def test_matches_midpoint_scan(self):
        rng = np.random.default_rng(20261018)
        circuits = (bridge(), TestBuildDualChannel().make(math.pi / 2))
        nonzero = 0
        for trial in range(200):
            circuit = circuits[trial % 2]
            stop = float(rng.uniform(0.01, 2.0))
            timelines = self.random_timelines(rng, circuit, stop)
            got = shoot_through_seconds(circuit, timelines, stop)
            assert got == midpoint_scan_shoot_through(circuit, timelines, stop)
            nonzero += got > 0
        assert nonzero > 100

    def test_preset_overlap_matches_midpoint_scan(self):
        # a low-side turn-off slower than the high-side turn-on overlaps
        scenario = load_preset("fig3")
        circuit = scenario.circuit.with_replaced("Sq4", turn_off_delay=0.6e-3)
        timelines = driver_timelines(circuit, scenario.settings)
        got = shoot_through_seconds(circuit, timelines, scenario.settings.stop)
        assert got > 0
        assert got == midpoint_scan_shoot_through(circuit, timelines, scenario.settings.stop)
