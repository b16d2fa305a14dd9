"""Circuit model tests: controls, component invariants, validation."""

import dataclasses
import math
import re

import pytest

from hvsim.circuit import (
    Capacitor,
    Circuit,
    CircuitError,
    ControlSignal,
    IntegrationSettings,
    Resistor,
    Switch,
    VoltageSource,
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
    @pytest.mark.parametrize("make, message", [
        (lambda: Resistor("R1", "a", "0", 0.0), "R1: resistance must be > 0, got 0.0"),
        (lambda: Resistor("R1", "a", "0", 1e-320),
         "R1: conductance of resistance 1e-320 overflows"),
        (lambda: Capacitor("C1", "a", "0", -1e-9), "C1: capacitance must be > 0, got -1e-09"),
        (lambda: Switch("S1", "a", "0", control="g", roff=-1.0),
         "S1: switch resistances must be > 0"),
        (lambda: Switch("S1", "a", "0", control="g", ron=1e-320),
         "S1: conductance of on-resistance 1e-320 overflows"),
        (lambda: Switch("S1", "a", "0", control="g", ron=10.0, roff=5.0),
         "S1: on-resistance 10.0 must be below off-resistance 5.0"),
        (lambda: Switch("S1", "a", "0", control="g", turn_off_delay=-1e-3),
         "S1: driver delays must be >= 0"),
        (lambda: Switch("S1", "a", "0", control="g", turn_on_delay=math.nan),
         "S1: turn_on_delay must be finite, got nan"),
        (lambda: Switch("S1", "a", "0", control="g", turn_off_delay=math.inf),
         "S1: turn_off_delay must be finite, got inf"),
        (lambda: Switch("S1", "a", "0", control="g", delay_offset=-math.inf),
         "S1: delay_offset must be finite, got -inf"),
        (lambda: VoltageSource("V1", "a", "0", 1.0, slew=0.0), "V1: slew limit must be > 0"),
    ], ids=["r-zero", "r-overflow", "c-negative", "s-negative", "s-overflow", "s-on-above-off",
            "s-delay", "s-ton-nan", "s-toff-inf", "s-offset-inf", "v-slew"])
    def test_component_checks_its_fields_when_made(self, make, message):
        with pytest.raises(CircuitError, match=f"^{re.escape(message)}$"):
            make()

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
        cap = load_fragment("10n").instantiate("a", "0", "")[1]
        c = Circuit.build(
            [Resistor("R1", "a", "0", 1.0), dataclasses.replace(cap, pos="a", neg="0")]
        )
        assert c.component("C_c").capacitance == pytest.approx(6.4e-9)

    def test_ground_aliases_unify(self):
        c = Circuit.build(
            [Resistor("R1", "a", "GND", 1.0), Resistor("R2", "a", "0", 1.0)]
        )
        assert c.node_labels() == ["a"]


class TestWithParts:
    """A copy with some parts replaced: it shares the memo, and with it a
    passed structural check, unless a new part changes its kind, name, nodes
    or control."""

    @staticmethod
    def nominal():
        return Circuit.build(
            [Resistor("R1", "A", "0", 1e3), Switch("S1", "A", "B", control="g"),
             Resistor("R2", "B", "0", 1e3)],
            {"g": ControlSignal(frequency=1.0)},
        )

    def test_value_change_keeps_the_structure(self):
        c = self.nominal()
        s1 = dataclasses.replace(c.component("S1"), roff=5e8)
        d = c.with_parts({"S1": s1})
        assert d.component("S1") is s1 and d.memo is c.memo and "checked" in d.memo
        d.validate()
        assert d == Circuit.build([c.components[0], s1, c.components[2]], c.control_map)

    def test_bad_value_is_checked(self):
        # the part checks itself when it is made, before any copy exists
        c = self.nominal()
        with pytest.raises(CircuitError, match="^S1: on-resistance 5.0 must be below"):
            dataclasses.replace(c.component("S1"), roff=1.0)
        with pytest.raises(CircuitError, match="^S1: on-resistance 5.0 must be below"):
            c.with_replaced("S1", roff=1.0)

    @pytest.mark.parametrize("changes, message", [
        ({"pos": "X", "neg": "Y"}, "node 'X' has no DC path to ground"),
        ({"control": "h"}, "S1: undefined control 'h'"),
        ({"name": "R1"}, "duplicate component name 'R1'"),
    ], ids=["floating-node", "renamed-control", "duplicate-name"])
    def test_structural_change_is_checked_in_full(self, changes, message):
        c = self.nominal()
        d = c.with_parts({"S1": dataclasses.replace(c.component("S1"), **changes)})
        assert d.memo is not c.memo and not d.memo
        with pytest.raises(CircuitError, match=message):
            d.validate()

    def test_kind_change_is_checked_in_full(self):
        c = self.nominal()
        d = c.with_parts({"S1": Resistor("S1", "A", "B", 1e3)})
        assert d.memo is not c.memo and not d.memo
        d.validate()
        assert "checked" in d.memo and "checked" in c.memo

    def test_copy_of_a_failing_circuit_is_checked_in_full(self):
        # the copy shares the memo of a circuit that failed: no pass is kept
        # there, so the copy's own check runs, and fails as the structure does
        bad = Circuit((Switch("S1", "A", "0", control="g"), Resistor("R1", "B", "C", 1e3)),
                      (("g", ControlSignal(frequency=1.0)),))
        good = dataclasses.replace(bad.components[0], roff=5e8)
        d = bad.with_parts({"S1": good})
        for circuit in (bad, d, bad):
            with pytest.raises(CircuitError, match="node 'B' has no DC path"):
                circuit.validate()
        assert d.components[0] is good and "checked" not in d.memo

    def test_unknown_name_raises_key_error(self):
        with pytest.raises(KeyError):
            self.nominal().with_parts({"S9": Resistor("S9", "A", "0", 1.0)})

    def test_swapped_controls_get_their_own_edges(self):
        c, grid = self.nominal(), IntegrationSettings(step=1e-3, stop=2.0)  # 2001 points
        assert list(c.control_edges("g", grid)) == c.control_map["g"].edges(2.0)
        fast = dataclasses.replace(c, controls=(("g", ControlSignal(frequency=10.0)),))
        assert list(fast.control_edges("g", grid)) == ControlSignal(frequency=10.0).edges(2.0)
        assert list(c.control_edges("g", grid)) == c.control_map["g"].edges(2.0)
