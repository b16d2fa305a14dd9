"""Circuit model tests: controls, component invariants, validation."""

import dataclasses
import math

import pytest

from hvsim.circuit import (
    Circuit,
    CircuitError,
    ControlSignal,
    Resistor,
    Switch,
)
from hvsim.presets import load_fragment


class TestControlSignal:
    def test_square_phase_zero(self):
        s = ControlSignal(frequency=100.0)
        assert s.state_at(0.0) is True
        assert s.state_at(5.1e-3) is False
        assert s.state_at(10.1e-3) is True

    def test_phase_pi_starts_low(self):
        s = ControlSignal(frequency=100.0, phase=math.pi)
        assert s.state_at(0.0) is False
        assert s.state_at(6e-3) is True

    def test_edges_alternate_and_match_states(self):
        s = ControlSignal(frequency=50.0, duty=0.3, phase=1.0)
        edges = s.edges(0.1)
        assert edges, "expected edges within five periods"
        for (t0, s0), (t1, s1) in zip(edges, edges[1:]):
            assert t0 < t1
            assert s0 != s1
        for t, state in edges:
            assert s.state_at(t + 1e-9) is state

    def test_zero_frequency_constant(self):
        s = ControlSignal(frequency=0.0)
        assert s.edges(10.0) == []
        assert s.state_at(0.0) is s.state_at(123.0)

    @pytest.mark.parametrize("kw", [dict(frequency=1.0, phase=math.inf),
                                    dict(frequency=1.0, phase=math.nan),
                                    dict(frequency=math.inf),
                                    dict(frequency=math.nan)])
    def test_non_finite_frequency_or_phase_rejected(self, kw):
        # edges() of such a signal never reaches its stop time
        with pytest.raises(CircuitError, match="must be finite"):
            ControlSignal(**kw)

    def test_duty_bounds(self):
        with pytest.raises(CircuitError):
            ControlSignal(frequency=1.0, duty=0.0)
        with pytest.raises(CircuitError):
            ControlSignal(frequency=1.0, duty=1.0)


class TestComponentInvariants:
    def test_resistor_positive(self):
        with pytest.raises(CircuitError):
            Circuit.build([Resistor("R1", "a", "0", 0.0)])

    def test_switch_on_below_off(self):
        with pytest.raises(CircuitError, match="below off"):
            Circuit.build(
                [Switch("S1", "a", "0", control="g", ron=10.0, roff=5.0)],
                {"g": ControlSignal(frequency=1.0)},
            )

    def test_undefined_control_rejected(self):
        with pytest.raises(CircuitError, match="undefined control"):
            Circuit.build([Switch("S1", "a", "0", control="g")])

    def test_duplicate_names_rejected(self):
        with pytest.raises(CircuitError, match="duplicate"):
            Circuit.build(
                [Resistor("R1", "a", "0", 1.0), Resistor("R1", "b", "0", 2.0)]
            )

    def test_derated_capacitor_effective_value(self):
        # the load is derated where it is built; the circuit keeps that value
        cap = load_fragment("10n").components[1]
        c = Circuit.build(
            [Resistor("R1", "a", "0", 1.0), dataclasses.replace(cap, pos="a", neg="0")]
        )
        assert c.component("C_c").capacitance == pytest.approx(6.4e-9)

    def test_ground_aliases_unify(self):
        c = Circuit.build(
            [Resistor("R1", "a", "GND", 1.0), Resistor("R2", "a", "0", 1.0)]
        )
        assert c.node_labels() == ["a"]
