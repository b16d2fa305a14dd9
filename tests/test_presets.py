"""Preset contract tests: each named scenario carries its declared values."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hvsim.circuit import (
    Capacitor,
    Circuit,
    CircuitError,
    ControlSignal,
    Resistor,
    Scenario,
    Switch,
    VoltageSource,
)
from hvsim import analysis, electromech
from hvsim.analysis import (
    MeasureError,
    MismatchModel,
    frequency_sweep,
    monte_carlo,
    settle_periods_for,
    sweep_step_for,
)
from hvsim.electromech import bench_matched_to_converter, displacement_sweep
from hvsim.engine import run_transient
from hvsim.netlist import format_value, parse_value, print_scenario
from hvsim.presets import (
    FIG7_FREQUENCIES,
    PRESET_NAMES,
    PresetError,
    CONVERTER,
    bridge_scenario,
    _distribution,
    load_fragment,
    load_preset,
    mc_template,
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
            probe_caps = [c for c in components_of(name, Capacitor) if c.name.endswith("_cin")]
            assert [c.name for c in probe_caps] == ["CscopeB_cin", "CscopeO_cin", "CscopeC_cin"]
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
            circuit = load_preset(name).circuit
            assert circuit.component("Vsup_emf").voltage == 4500.0
            assert circuit.component("Rsup_rint").resistance == 3e6
            assert circuit.component("Csup_cpar").capacitance == 3e-9
            assert control_frequency(name) == 100.0
            assert balancer_values(name) == [balancer]
            names = {c.name for c in load_preset(name).circuit.components}
            assert {"Rload_rs", "Cload_c", "Rload_rp"} <= names

    def test_fig7c_dual(self):
        scenario = load_preset("fig7c")
        controls = scenario.circuit.control_map
        assert controls["g1"].phase == 0.0
        assert controls["g2"].phase == math.pi
        assert [c.name for c in components_of("fig7c", Capacitor)
                if c.name.endswith("_cpar")] == ["Csup_cpar"]
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


class TestLoadFragment:
    @pytest.mark.parametrize("descriptor, capacitance", [
        ("10n", 6.399999999999999e-09),
        ("20n", 1.2799999999999999e-08),
        ("50n", 3.1999999999999995e-08),
    ], ids=["10n", "20n", "50n"])
    def test_ceramic_loads_derated_at_set_voltage(self, descriptor, capacitance):
        # c0 * (1 - 2e-4/V * 1.8 kV), bit for bit, and printable without loss
        resistor, capacitor = load_fragment(descriptor).instantiate("O", "0", "load")
        assert resistor.resistance == 100e3
        assert repr(capacitor.capacitance) == repr(capacitance)
        assert parse_value(format_value(capacitor.capacitance)) == capacitance


def study_cells(monkeypatch, module, study, *args):
    """The scenarios ``study`` builds for its cells, in key order, each taken
    as its cell starts to run its circuit and grid; no cell runs."""
    built, taken = {}, []
    build = module.converter_scenario

    def building(*args, **kwargs):
        scenario = build(*args, **kwargs)
        built[id(scenario.circuit)] = scenario
        return scenario

    def take(circuit, settings, timelines=None):
        scenario = built[id(circuit)]
        assert scenario.settings is settings and timelines is None
        taken.append(scenario)
        raise MeasureError("not run")

    monkeypatch.setattr(module, "converter_scenario", building)
    monkeypatch.setattr(module, "run_transient", take)
    study(*args)
    return taken


class TestConverterBridge:
    """figs 6-8 and the fig7/fig8 studies run one circuit: converter_scenario."""

    def test_fig7_preset_is_the_100hz_10n_sweep_cell(self, monkeypatch):
        (cell,) = study_cells(monkeypatch, analysis, frequency_sweep, [100.0], ["10n"])
        preset = load_preset("fig7")
        assert (preset.circuit, preset.settings) == (cell.circuit, cell.settings)
        assert (preset.probes, cell.probes) == (("A", "O"), ("A", "B", "O", "C"))

    def test_fig8_preset_is_the_6hz_converter_cell(self, monkeypatch):
        (cell,) = study_cells(monkeypatch, electromech, displacement_sweep, "converter", [6.0])
        preset = load_preset("fig8")
        assert preset.circuit == cell.circuit
        assert preset.settings.step == cell.settings.step
        assert (preset.probes, cell.probes) == (("A", "O"), ("A", "O", "load_m"))

    def test_preset_grids_follow_the_study_rules(self):
        # bit for bit: the stop is a whole number of periods times 1/f
        fig7 = load_preset("fig7").settings
        assert fig7.step == sweep_step_for(100.0)
        assert fig7.stop == (settle_periods_for(100.0) + 1) * (1.0 / 100.0)
        fig8 = load_preset("fig8").settings
        assert (fig8.step, fig8.stop) == (sweep_step_for(6.0), 3 * (1.0 / 6.0))
        for name in ("fig6b", "fig6c"):
            settings = load_preset(name).settings
            assert (settings.step, settings.stop) == (1e-6, 0.11)
            assert load_preset(name).probes == ("A", "O")

    def test_study_cells_run_whole_periods(self, monkeypatch):
        # at 5, 10 and 1000 Hz, (settle + 1) / f differs from the product in
        # its last bit, so a rewritten stop changes those cells' grids
        freqs = list(FIG7_FREQUENCIES)
        sweep = study_cells(monkeypatch, analysis, frequency_sweep, freqs, ["10n"])
        fig8 = study_cells(monkeypatch, electromech, displacement_sweep, "bench", freqs)
        assert len(sweep) == len(fig8) == len(freqs)
        for f, cell, fig8_cell in zip(freqs, sweep, fig8):
            assert cell.settings.step == fig8_cell.settings.step == sweep_step_for(f)
            assert cell.settings.stop == (settle_periods_for(f) + 1) * (1.0 / f)
            assert fig8_cell.settings.stop == 2 * (1.0 / f)

    def test_fig6_presets(self):
        dea, control = load_fragment("dea"), ControlSignal(frequency=100.0)
        for name, balancing in (("fig6c", 1.8e6), ("fig6b", 3.6e6)):
            assert load_preset(name) == bridge_scenario(CONVERTER, dea, control, 1e-6, 0.11,
                                                        ("A", "O"), balancing=balancing)

    def test_matched_bench_setting(self):
        # the converter's DC output into the DEA load, recorded from the
        # hand-built circuit this builder replaced
        (emf,) = [c for c in bench_matched_to_converter().instantiate("A", "0", "sup")
                  if isinstance(c, VoltageSource)]
        assert repr(emf.voltage) == "1963.300463194647"


#: (balancing, supply voltage) of each Monte-Carlo template
MC_TABLE = {"fig2": (None, 800.0), "fig3": (3.6e6, 800.0),
            "fig2_hv": (None, 1800.0), "fig3_hv": (3.6e6, 1800.0)}


def trial_from_scratch(name, offs, offsets):
    """The trial scenario built and checked in full, with no template: the
    distribution preset with the four sampled switches put in its parts."""
    balancing, voltage = MC_TABLE[name]
    nominal = _distribution(balancing, voltage=voltage, step=50e-6)
    comps, k = [], 0
    for comp in nominal.circuit.components:
        if isinstance(comp, Switch):
            comp = replace(comp, roff=offs[k], delay_offset=offsets[k])
            k += 1
        comps.append(comp)
    circuit = Circuit.build(comps, nominal.circuit.control_map)
    return Scenario(circuit, nominal.settings, nominal.probes)


def draws(seed):
    rng = np.random.default_rng(seed)
    return list(3e8 * np.exp(rng.standard_normal(4))), list(rng.uniform(-5e-5, 5e-5, 4))


class TestMonteCarloTemplate:
    @pytest.mark.parametrize("name", sorted(MC_TABLE))
    def test_trial_equals_the_scenario_built_from_scratch(self, name):
        build = mc_template(name)
        memo = build(*draws(0)).circuit.memo  # the nominal's, with its passed check
        assert "checked" in memo
        for seed in range(3):
            offs, offsets = draws(seed)
            trial, scratch = build(offs, offsets), trial_from_scratch(name, offs, offsets)
            assert trial == scratch
            assert print_scenario(trial) == print_scenario(scratch)
            assert trial.circuit.memo is memo and scratch.circuit.memo is not memo
            got = run_transient(trial.circuit, trial.settings)
            ref = run_transient(scratch.circuit, scratch.settings)
            assert got.x.tobytes() == ref.x.tobytes() and got.events == ref.events

    def test_trial_skips_the_structural_checks(self, monkeypatch):
        build = mc_template("fig3")

        def no_structural_check(self):
            raise AssertionError("DC connectivity checked again")

        monkeypatch.setattr(Circuit, "_check_dc_connectivity", no_structural_check)
        build(*draws(1)).circuit.validate()

    def test_off_resistance_below_on_resistance_rejected(self):
        build = mc_template("fig3")
        offs, offsets = draws(2)
        with pytest.raises(CircuitError, match="^Sq2: on-resistance 5.0 must be below "
                                               "off-resistance 4.0$"):
            build([offs[0], 4.0, offs[2], offs[3]], offsets)
        assert build(offs, offsets) == trial_from_scratch("fig3", offs, offsets)

    def test_bad_draw_fails_its_trial_alone(self):
        build = mc_template("fig3")
        calls = []

        def second_trial_bad(offs, offsets):
            calls.append(None)
            if len(calls) == 2:
                offs = [offs[0], 4.0, offs[2], offs[3]]
            return build(offs, offsets)

        model = MismatchModel(trials=3, seed=2)
        clean, study = monte_carlo(build, model), monte_carlo(second_trial_bad, model)
        assert study.errors == (None, "sampled circuit rejected: Sq2: on-resistance 5.0 "
                                      "must be below off-resistance 4.0", None)
        assert study.values[::2] == clean.values[::2]

    @pytest.mark.parametrize("offs, offsets, message", [
        ((1e9, 1e9), (0.0,) * 4, "need 4 off-resistances, got 2"),
        ((1e9,) * 4, (0.0,) * 3, "need 4 driver offsets, got 3"),
    ], ids=["off-resistances", "offsets"])
    def test_sequence_length_mismatch_rejected(self, offs, offsets, message):
        with pytest.raises(CircuitError, match=message):
            mc_template("fig3")(offs, offsets)

    def test_template_built_on_first_call(self, monkeypatch):
        import hvsim.presets as presets

        built = []
        monkeypatch.setattr(presets, "_distribution",
                            lambda *a, **kw: built.append(a) or _distribution(*a, **kw))
        build = mc_template("fig3")
        assert len(built) == 1
        build(*draws(0))
        build(*draws(1))
        assert len(built) == 1
