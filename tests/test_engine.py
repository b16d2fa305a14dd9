"""Engine tests: DC solutions, transient oracles, and conservation laws."""

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from hvsim import engine
from hvsim.circuit import (
    Capacitor,
    Circuit,
    CircuitError,
    ControlSignal,
    Resistor,
    Switch,
    VoltageSource,
    stamp_checksum,
)
from hvsim.engine import (
    IntegrationSettings,
    SimulationError,
    dc_operating_point,
    run_transient,
)
from hvsim.presets import load_preset
from hvsim.runner import run_scenario

from conftest import par


def simple_circuit(*components, controls=None):
    return Circuit.build(list(components), controls or {})


class TestDcOperatingPoint:
    def test_symmetric_divider(self):
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 800.0),
            Resistor("R1", "A", "M", 1e6),
            Resistor("R2", "M", "0", 1e6),
        )
        v = dc_operating_point(c, {})
        assert v["M"] == pytest.approx(400.0, rel=1e-12)

    def test_off_stack_divider(self):
        # 900 MOhm over 100 MOhm across 800 V -> 720 V / 80 V
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 800.0),
            Resistor("R1", "A", "M", 900e6),
            Resistor("R2", "M", "0", 100e6),
        )
        v = dc_operating_point(c, {})
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
        v = dc_operating_point(c, {})
        rh1, rh2 = par(3.6e6, 900e6), par(3.6e6, 100e6)
        expected_top = 800.0 * rh1 / (rh1 + rh2)
        assert 800.0 - v["M"] == pytest.approx(expected_top, rel=1e-9)
        assert expected_top == pytest.approx(406.28, abs=0.01)
        # each within 2% of the even 400 V split
        assert abs(expected_top - 400.0) / 400.0 < 0.02
        assert abs((800.0 - expected_top) - 400.0) / 400.0 < 0.02

    def test_switch_states_honored(self):
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 100.0),
            Switch("S1", "A", "M", control="g", ron=1.0, roff=1e9),
            Resistor("R1", "M", "0", 1.0),
            controls={"g": ControlSignal(frequency=1.0)},
        )
        on = dc_operating_point(c, {"S1": True})
        off = dc_operating_point(c, {"S1": False})
        assert on["M"] == pytest.approx(50.0, rel=1e-12)
        assert off["M"] == pytest.approx(100.0 / (1e9 + 1.0), rel=1e-9)

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

    def test_missing_switch_timeline(self):
        c = simple_circuit(
            VoltageSource("V1", "A", "0", 10.0),
            Switch("S1", "A", "0", control="g"),
            controls={"g": ControlSignal(frequency=1.0)},
        )
        with pytest.raises(SimulationError, match="S1"):
            run_transient(c, IntegrationSettings(step=1e-6, stop=1e-5), {})


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
    schedule as :func:`run_transient`; returns ``(x, cap_i, segment lengths)``."""
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
    x_hist[0], ic_hist[0], indeterminate = engine._initial_solve(low, states, emf)
    inc = np.zeros((n + m, nc))
    for j, cap in enumerate(low.caps):
        if cap.p >= 0:
            inc[cap.p, j] = 1.0
        if cap.n >= 0:
            inc[cap.n, j] = -1.0
    cap_c = np.array([cap.c for cap in low.caps])
    vc = np.array([cap.ic for cap in low.caps])
    ic = ic_hist[0].copy()
    pending = settings.damping_steps if indeterminate else 0
    idx0 = 0
    lengths = []
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
            changed |= states[si] != new_state
            states[si] = new_state
        if changed or idx0 in src_events:
            pending = settings.damping_steps
    return x_hist, ic_hist, lengths


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
            x_ref, ic_ref, lengths = reference_transient(circuit, settings, timelines)
            for got, ref in ((res.x, x_ref), (res.cap_i, ic_ref)):
                scale = np.max(np.abs(ref), axis=0)
                err = np.max(np.abs(got - ref), axis=0)
                assert np.all(err <= 1e-9 * scale), f"trial {trial}: {err / scale}"
            longest = max(longest, max(lengths))
        # at least one stretch spans several propagator blocks
        assert longest > engine._BLOCK

    def test_one_factorization_per_topology(self, monkeypatch):
        factored = []

        def counting_lu_factor(a, *args, **kwargs):
            factored.append(np.array(a).tobytes())
            return lu_factor(a, *args, **kwargs)

        monkeypatch.setattr(engine, "lu_factor", counting_lu_factor)
        run = run_scenario(load_preset("fig4b"))
        # the first call is the t=0 consistent-state solve
        per_topology = factored[1:]
        assert len(set(per_topology)) == len(per_topology)
        assert len(per_topology) < len(run.raw.events)
