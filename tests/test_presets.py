"""Preset contract tests: each named scenario carries its declared values."""

import math

import pytest

from hvsim.circuit import (
    Capacitor,
    ConverterSource,
    Probe,
    Resistor,
    Switch,
    VoltageSource,
)
from hvsim.analysis import _sweep_scenario
from hvsim.electromech import _fig8_scenario
from hvsim.presets import (
    CONVERTER,
    PRESET_NAMES,
    PresetError,
    bench_matched_to_converter,
    converter_bridge,
    load_fragment,
    load_preset,
)


def components_of(name, cls):
    return [c for c in load_preset(name).circuit.components if isinstance(c, cls)]


def bench_voltage(name):
    (emf,) = [c for c in components_of(name, VoltageSource) if c.name.endswith("_emf")]
    return emf.voltage


def control_frequency(name):
    scenario = load_preset(name)
    controls = scenario.circuit.control_map
    assert len(controls) >= 1
    return next(iter(controls.values())).frequency


def balancer_values(name):
    return sorted(
        {c.resistance for c in components_of(name, Resistor) if c.name.startswith("Rb")}
    )


class TestPresetParameters:
    def test_fig2_fig3(self):
        for name in ("fig2", "fig3"):
            assert bench_voltage(name) == 800.0
            assert control_frequency(name) == 1.0
        assert balancer_values("fig2") == []
        assert balancer_values("fig3") == [3.6e6]

    def test_fig4_variants(self):
        for name in ("fig4a", "fig4b"):
            assert bench_voltage(name) == 1800.0
            assert control_frequency(name) == 1000.0
            assert balancer_values(name) == [3.6e6]
            assert len(components_of(name, Probe)) == 3
        snubbers = components_of("fig4b", Capacitor)
        assert {c.capacitance for c in snubbers if c.name.startswith("Csn")} == {220e-12}
        assert not [
            c for c in components_of("fig4a", Capacitor) if c.name.startswith("Csn")
        ]

    def test_fig4_offsets(self):
        offsets = {s.name: s.delay_offset for s in components_of("fig4a", Switch)}
        assert offsets == {"Sq1": 0.0, "Sq2": 50e-6, "Sq3": 0.0, "Sq4": 50e-6}

    def test_fig5(self):
        assert bench_voltage("fig5") == 1800.0
        assert control_frequency("fig5") == 100.0
        load_r = [c for c in components_of("fig5", Resistor) if c.name == "Rload_rs"]
        load_c = [c for c in components_of("fig5", Capacitor) if c.name == "Cload_c"]
        assert load_r[0].resistance == 100e3
        assert load_c[0].capacitance == 10e-9

    def test_fig6_variants(self):
        for name, balancer in (("fig6b", 3.6e6), ("fig6c", 1.8e6)):
            (sup,) = components_of(name, ConverterSource)
            assert sup.open_circuit_voltage == 4500.0
            assert sup.internal_resistance == 3e6
            assert sup.parallel_capacitance == 3e-9
            assert control_frequency(name) == 100.0
            assert balancer_values(name) == [balancer]
            names = {c.name for c in load_preset(name).circuit.components}
            assert {"Rload_rs", "Cload_c", "Rload_rp"} <= names

    def test_fig7c_dual(self):
        scenario = load_preset("fig7c")
        controls = scenario.circuit.control_map
        assert controls["g1"].phase == 0.0
        assert controls["g2"].phase == math.pi
        assert len(components_of("fig7c", ConverterSource)) == 1
        switch_names = {s.name for s in components_of("fig7c", Switch)}
        assert {"Sch1q1", "Sch2q4"} <= switch_names

    def test_slew_preset(self):
        assert bench_voltage("slew") == 1800.0
        ctrl = next(iter(load_preset("slew").circuit.control_map.values()))
        assert ctrl.phase == math.pi  # output starts low
        assert load_preset("slew").settings.step == 10e-9
        offsets = {s.delay_offset for s in components_of("slew", Switch)}
        assert offsets == {0.0}

    def test_all_presets_valid_and_named(self):
        for name in PRESET_NAMES:
            scenario = load_preset(name)
            scenario.circuit.validate()

    def test_unknown_preset_lists_names(self):
        with pytest.raises(PresetError, match="fig3"):
            load_preset("nope")


class TestConverterBridge:
    """figs 6-8 and the fig7/fig8 studies run one circuit: converter_bridge."""

    def test_fig7_preset_is_the_100hz_10n_sweep_cell(self):
        assert load_preset("fig7").circuit == _sweep_scenario(100.0, "10n").circuit

    def test_fig8_preset_is_the_6hz_converter_cell(self):
        assert load_preset("fig8").circuit == _fig8_scenario(CONVERTER, 6.0).circuit

    def test_fig6_presets(self):
        dea = load_fragment("dea")
        assert load_preset("fig6c").circuit == converter_bridge(100.0, dea)
        assert load_preset("fig6b").circuit == converter_bridge(100.0, dea, balancing=3.6e6)

    def test_matched_bench_setting(self):
        # the converter's DC output into the DEA load, recorded from the
        # hand-built circuit this builder replaced
        (emf,) = [c for c in bench_matched_to_converter().components
                  if isinstance(c, VoltageSource)]
        assert repr(emf.voltage) == "1963.300463194647"
