"""Netlist language tests: grammar, diagnostics, round trips, value notation."""

import math
from dataclasses import MISSING, replace
from functools import partial

import numpy as np
import pytest

from hvsim.circuit import (
    Capacitor,
    Circuit,
    ControlSignal,
    Resistor,
    Scenario,
    Switch,
    VoltageSource,
    params,
)
from hvsim import cli
from hvsim.cli import apply_override
from hvsim.devices import (
    BenchSupplyParams,
    ConverterParams,
    DeaLoadParams,
    ProbeParams,
    expand_bench_supply,
    expand_converter,
    expand_dea_load,
    expand_probe,
)
from hvsim.engine import IntegrationSettings
from hvsim.netlist import (
    NetlistError,
    format_value,
    parse,
    parse_value,
    print_scenario,
)
from hvsim import analysis
from hvsim.electromech import bench_matched_to_converter
from hvsim.presets import (
    PRESET_NAMES,
    converter_scenario,
    dual_channel_with_phase,
    load_fragment,
    load_preset,
    mc_template,
)

MINIMAL_TAIL = "\n.tran 1u 1m\n.end\n"


def parse_ok(body: str) -> Scenario:
    return parse(body + MINIMAL_TAIL, origin="test.ckt")


class TestGrammar:
    def test_resistor_with_mega_suffix(self):
        s = parse_ok("R1 1 0 3.6M")
        (comp,) = s.circuit.components
        assert isinstance(comp, Resistor)
        assert comp.resistance == 3.6e6
        assert (comp.pos, comp.neg) == ("1", "0")

    def test_capacitor_picofarad(self):
        s = parse_ok("R1 2 0 1k\nR2 3 0 1k\nC1 2 3 220p")
        cap = s.circuit.component("C1")
        assert isinstance(cap, Capacitor)
        assert cap.capacitance == 2.2e-10

    def test_case_sensitive_suffixes(self):
        # m is milli and M is mega; the distinction is load-bearing here
        s = parse_ok("R1 1 0 3m\nR2 1 0 3M")
        assert s.circuit.component("R1").resistance == 3e-3
        assert s.circuit.component("R2").resistance == 3e6

    def test_gnd_alias(self):
        s = parse_ok("R1 A GND 1k")
        assert s.circuit.component("R1").neg == "0"

    def test_comments_and_crlf(self):
        text = "# header\r\nR1 1 0 1k # trailing\r\n.tran 1u 1m\r\n.probe 1\r\n.end\r\n"
        s = parse(text)
        assert s.circuit.component("R1").resistance == 1e3
        assert s.probes == ("1",)

    def test_switch_and_control(self):
        s = parse_ok(
            "V1 A 0 800\nSsw A B ctrl=g ron=5 roff=1G inv=1\nR1 B 0 1k\n"
            ".ctrl g square f=100 duty=0.25 phase=1.5"
        )
        sw = s.circuit.component("Ssw")
        assert isinstance(sw, Switch)
        assert sw.roff == 1e9 and sw.invert
        ctrl = s.circuit.control_map["g"]
        assert (ctrl.frequency, ctrl.duty, ctrl.phase) == (100.0, 0.25, 1.5)

    def test_fragment_expansion(self):
        s = parse_ok("Xsup A 0 bench v=800\nXload A 0 dea c=49n rs=60k rp=6.6M")
        names = {c.name for c in s.circuit.components}
        assert {"Vsup_emf", "Rsup_rout", "Rload_rs", "Cload_c", "Rload_rp"} <= names

    def test_converter_and_probe_expand(self):
        s = parse_ok("Xsup A 0 converter voc=4.5k rint=3M cpar=3n\nXp A 0 probe rin=100M cin=5.5p")
        assert [(type(c).__name__, c.name, c.pos, c.neg) for c in s.circuit.components] == [
            ("Capacitor", "Csup_cpar", "A", "0"),
            ("Resistor", "Rsup_rint", "sup_e", "A"),
            ("VoltageSource", "Vsup_emf", "sup_e", "0"),
            ("Resistor", "Rp_rin", "A", "0"),
            ("Capacitor", "Cp_cin", "A", "0"),
        ]
        assert s.circuit.component("Csup_cpar").initial_voltage == 4500.0  # pre=1 by default
        assert s.circuit.component("Rp_rin").resistance == 100e6

    def test_cold_start_converter(self):
        s = parse_ok("Xsup A 0 converter pre=0")
        assert s.circuit.component("Csup_cpar").initial_voltage == 0.0
        # defaults fill in
        assert s.circuit.component("Vsup_emf").voltage == 4500.0
        assert s.circuit.component("Rsup_rint").resistance == 3e6
        assert s.circuit.component("Csup_cpar").capacitance == 3e-9

    def test_full_parameter_round_trip(self):
        text = (
            "Vsrc A 0 1.8k slew=35M\n"
            "Cld A L 10n ic=12\n"
            "Rld L 0 330k\n"
            "Ssw A L ctrl=g ron=2.5 roff=200M ton=300u toff=80u offset=-20u inv=1\n"
            ".ctrl g square f=250 duty=0.3 phase=1.2\n"
            ".tran 2u 8m damp=3\n"
            ".probe A L\n"
            ".end\n"
        )
        s = parse(text)
        cap = s.circuit.component("Cld")
        assert (cap.capacitance, cap.initial_voltage) == (1e-8, 12.0)
        sw = s.circuit.component("Ssw")
        assert (sw.ron, sw.roff, sw.invert) == (2.5, 2e8, True)
        assert (sw.turn_on_delay, sw.turn_off_delay, sw.delay_offset) == (3e-4, 8e-5, -2e-5)
        assert s.settings.damping_steps == 3
        assert s.probes == (("A", "L"),)
        again = parse(print_scenario(s))
        assert again.circuit == s.circuit
        assert again.settings == s.settings
        assert again.probes == s.probes

    def test_plain_exponent_notation(self):
        s = parse_ok("R1 1 0 1e3\nR2 1 0 2.5E-2")
        assert s.circuit.component("R1").resistance == 1e3
        assert s.circuit.component("R2").resistance == 2.5e-2

    def test_suffix_rejected_on_exponent_form(self):
        with pytest.raises(NetlistError, match="malformed value"):
            parse("R1 1 0 1e3k" + MINIMAL_TAIL)


class TestDiagnostics:
    def test_undefined_control_names_reference(self):
        with pytest.raises(NetlistError) as err:
            parse("S1 1 2 ctrl=g ron=5 roff=1G" + MINIMAL_TAIL, origin="bad.ckt")
        assert "undefined control 'g'" in str(err.value)
        assert err.value.line == 1
        assert err.value.column > 1

    def test_syntax_error_carries_line_and_column(self):
        text = "R1 1 0 1k\nR2 1 0 2k\nR3 1 0 zzz\n.tran 1u 1m\n.end\n"
        with pytest.raises(NetlistError) as err:
            parse(text, origin="file.ckt")
        assert err.value.origin == "file.ckt"
        assert err.value.line == 3
        assert err.value.column == 8
        assert "file.ckt:3:8" in str(err.value)

    def test_non_finite_control_frequency_names_value(self):
        text = "V1 A 0 10\nS1 A 0 ctrl=g\n.ctrl g square f=1e309\n.tran 1u 1m\n.end\n"
        with pytest.raises(NetlistError) as err:
            parse(text, origin="inf.ckt")
        assert (err.value.line, err.value.column) == (3, 18)  # the value after "f="
        assert "not finite" in str(err.value)

    def test_duplicate_component(self):
        with pytest.raises(NetlistError, match="duplicate component"):
            parse("R1 1 0 1k\nR1 2 0 1k" + MINIMAL_TAIL)

    def test_unknown_statement(self):
        with pytest.raises(NetlistError, match="unknown statement"):
            parse("W1 1 0 1k" + MINIMAL_TAIL)

    def test_unknown_parameter(self):
        with pytest.raises(NetlistError, match="unknown parameter"):
            parse("C1 1 0 1n frob=2" + MINIMAL_TAIL)

    @pytest.mark.parametrize("key", ["derate", "vrated", "vbias"])
    def test_capacitor_has_no_derating_keys(self, key):
        with pytest.raises(NetlistError, match="unknown parameter"):
            parse(f"C1 1 0 10n {key}=1" + MINIMAL_TAIL)

    def test_probe_unknown_node(self):
        with pytest.raises(NetlistError, match="undefined node 'Q'"):
            parse("R1 1 0 1k\n.tran 1u 1m\n.probe Q\n.end\n")

    def test_missing_tran(self):
        with pytest.raises(NetlistError, match="missing .tran"):
            parse("R1 1 0 1k\n.end\n")

    def test_missing_end(self):
        with pytest.raises(NetlistError, match="missing .end"):
            parse("R1 1 0 1k\n.tran 1u 1m\n")

    def test_duplicate_tran(self):
        with pytest.raises(NetlistError, match="duplicate .tran"):
            parse("R1 1 0 1k\n.tran 1u 1m\n.tran 1u 2m\n.end\n")

    def test_fractional_invert_flag_rejected(self):
        text = ".ctrl g square f=1k\nR1 1 0 1k\nS1 1 0 ctrl=g inv=0.5" + MINIMAL_TAIL
        with pytest.raises(NetlistError, match="inv= must be 0 or 1") as err:
            parse(text, origin="f.ckt")
        assert (err.value.line, err.value.column) == (3, 19)

    def test_precharge_flag_above_one_rejected(self):
        text = "X1 1 0 converter pre=2\nR1 1 0 1k" + MINIMAL_TAIL
        with pytest.raises(NetlistError, match="pre= must be 0 or 1") as err:
            parse(text, origin="f.ckt")
        assert (err.value.line, err.value.column) == (1, 22)

    def test_fractional_damping_rejected(self):
        text = "R1 1 0 1k\n.tran 1u 1m damp=2.5\n.end\n"
        with pytest.raises(NetlistError, match="damp= must be a non-negative integer") as err:
            parse(text, origin="f.ckt")
        assert (err.value.line, err.value.column) == (2, 18)

    def test_integral_flags_accepted(self):
        text = (
            ".ctrl g square f=1k\nX1 1 0 converter pre=0\nR1 1 0 1k\n"
            "S1 1 0 ctrl=g inv=1\n.tran 1u 1m damp=1k\n.end\n"
        )
        scenario = parse(text, origin="f.ckt")
        assert scenario.circuit.component("S1").invert is True
        assert scenario.circuit.component("C1_cpar").initial_voltage == 0.0
        assert scenario.settings.damping_steps == 1000

    def test_floating_node_reported(self):
        with pytest.raises(NetlistError, match="no DC path"):
            parse("V1 A 0 10\nR1 A 0 1k\nC1 B 0 1n\n.tran 1u 1m\n.end\n")


#: (netlist text, line, column, message) of each diagnostic the parser gives
DIAGNOSTICS = [
    ("R1 A 0 1k\n.tran 1u 1m\n.end\nR2 A 0 1k\n", 4, 1, "statement after .end"),
    ("R1 A 0 1k\nC1 A 0 1n ic=1 ic=2\n.tran 1u 1m\n.end\n", 2, 16,
     "duplicate parameter 'ic'"),
    ("R1 A 0 1k\nC1 A 0 1n 5\n.tran 1u 1m\n.end\n", 2, 11, "expected key=value, got '5'"),
    ("R1 A 0 1k\nX1 A 0\n.tran 1u 1m\n.end\n", 2, 1, "X statement needs a kind word"),
    ("X1 A 0 foo\n", 1, 8, "unknown fragment kind 'foo' (converter, probe, bench, dea)"),
    ("R1 A 0 1k\n.foo\n", 2, 1, "unknown directive '.foo'"),
    ("R1 A-1 0 1k\n", 1, 4, "malformed node label 'A-1'"),
    ("R A 0 1k\n", 1, 1, "component 'R' needs a name"),
    ("R1 A\n", 1, 1, "component needs two node arguments"),
    ("R1 A 0 1k 2k\n", 1, 1, "resistor takes exactly one value"),
    ("C1 A 0\n", 1, 1, "capacitor needs a value"),
    ("S1 A 0 ron=1\n", 1, 1, "switch needs a ctrl= reference"),
    ("V1 A 0\n", 1, 1, "source needs a value"),
    ("X1 A 0 bench\n", 1, 1, "bench supply needs v="),
    ("X1 A 0 bench v=1k rout=0\n", 1, 1, "rout= must be > 0"),
    (".ctrl g sine f=1\n", 1, 1, ".ctrl needs: <name> square f=<Hz> ..."),
    (".ctrl g square duty=0.3\n", 1, 1, ".ctrl needs f=<Hz>"),
    (".ctrl g square f=1\n.ctrl g square f=2\n", 2, 7, "duplicate control 'g'"),
    ("R1 A 0 1k\n.tran 1u\n", 2, 1, ".tran needs <step> <stop>"),
    ("R1 A 0 1k\n.probe\n", 2, 1, ".probe takes one node or a node pair"),
    ("R1 A 0 1k\n.tran 1u 1m\n.end now\n", 3, 6, "unexpected tokens after .end"),
    # a bad value is reported at its own statement, the .tran's and the parts'
    ("V1 A 0 10\nR1 A B 1k\nR2 B 0 1k\n.tran 0 1m\n.probe B\n.end\n", 4, 1,
     "integration step must be > 0, got 0.0"),
    ("V1 A 0 10\nR1 A B 0\nR2 B 0 1k\n.tran 1u 1m\n.probe B\n.end\n", 2, 1,
     "R1: resistance must be > 0, got 0.0"),
    ("V1 A 0 10\nR1 A B 1k\n  C1 B 0 -1n\n.tran 1u 1m\n.end\n", 3, 3,
     "C1: capacitance must be > 0, got -1e-09"),
    (".ctrl g square f=1\nR1 A 0 1k\nS1 A 0 ctrl=g roff=1\n.tran 1u 1m\n.end\n", 3, 1,
     "S1: on-resistance 5.0 must be below off-resistance 1.0"),
    ("V1 A 0 10 slew=0\nR1 A 0 1k\n.tran 1u 1m\n.end\n", 1, 1,
     "V1: slew limit must be > 0"),
    # a fragment's part is checked as the fragment is instantiated, under its
    # name in the circuit; a subnormal value passes the X schema's > 0 check
    ("Xsup A 0 bench v=1k rout=1e-320\nR1 A 0 1k\n.tran 1u 1m\n.end\n", 1, 1,
     "Rsup_rout: conductance of resistance 1e-320 overflows"),
    ("Xsup A 0 converter rint=1e-320\nR1 A 0 1k\n.tran 1u 1m\n.end\n", 1, 1,
     "Rsup_rint: conductance of resistance 1e-320 overflows"),
    ("V1 A 0 10\nXp A 0 probe rin=1e-320\n.tran 1u 1m\n.end\n", 2, 1,
     "Rp_rin: conductance of resistance 1e-320 overflows"),
    ("V1 A 0 10\nXload A 0 dea rs=1e-320\n.tran 1u 1m\n.end\n", 2, 1,
     "Rload_rs: conductance of resistance 1e-320 overflows"),
    ("V1 A 0 10\nXload A 0 dea rp=1e-320\n.tran 1u 1m\n.end\n", 2, 1,
     "Rload_rp: conductance of resistance 1e-320 overflows"),
    # whole-file faults: a missing .end at the last statement, the rest at .end
    ("V1 A 0 10\nR1 A 0 1k\n.tran 1u 1m\n.probe A\n", 4, 1, "missing .end"),
    ("V1 A 0 10\nR1 A 0 1k\n.tran 1u 1m\n.probe A\n# done\n\n", 4, 1, "missing .end"),
    ("", 1, 1, "missing .end"),
    ("V1 A 0 10\nR1 A 0 1k\n.probe A\n.end\n", 4, 1, "missing .tran directive"),
    ("V1 A 0 10\nR1 A 0 1k\nC1 B 0 1n\n.tran 1u 1m\n.probe A\n.end\n", 6, 1,
     "node 'B' has no DC path to ground (floating subcircuit)"),
    ("V1 A 0 10\nR1 A 0 1k\nC1 B 0 1n\n.tran 1u 1m\n  .end\n# trailer\n", 5, 3,
     "node 'B' has no DC path to ground (floating subcircuit)"),
]


class TestDiagnosticTable:
    @pytest.mark.parametrize("text, line, column, message", DIAGNOSTICS,
                             ids=[d[3] for d in DIAGNOSTICS])
    def test_exit_2_at_the_statement(self, tmp_path, capsys, text, line, column, message):
        path = tmp_path / "t.ckt"
        path.write_text(text)
        assert cli.main(["run", "--netlist", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:{line}:{column}: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.ckt"]


class TestValueNotation:
    def test_suffix_table(self):
        assert parse_value("1p") == 1e-12
        assert parse_value("1n") == 1e-9
        assert parse_value("1u") == 1e-6
        assert parse_value("1m") == 1e-3
        assert parse_value("1k") == 1e3
        assert parse_value("1M") == 1e6
        assert parse_value("1G") == 1e9

    @pytest.mark.parametrize("text", ["1e309", "-1e309", "1" + "0" * 400 + "G"],
                             ids=["exponent", "negative", "suffix"])
    def test_literal_beyond_float_range_rejected(self, text):
        with pytest.raises(ValueError, match="not finite"):
            parse_value(text)
        with pytest.raises(ValueError, match="not finite"):
            parse_value(text + "Hz", allow_unit=True)

    def test_no_meg_form(self):
        with pytest.raises(ValueError):
            parse_value("3meg")

    def test_unit_tails_only_when_allowed(self):
        assert parse_value("0.5us", allow_unit=True) == 0.5e-6
        assert parse_value("35MV", allow_unit=True) == 35e6
        assert parse_value("2Hz", allow_unit=True) == 2.0
        with pytest.raises(ValueError):
            parse_value("0.5us")

    def test_canonical_examples(self):
        assert format_value(3600000.0) == "3.6M"
        assert format_value(2.2e-10) == "220p"
        pi_text = format_value(math.pi)
        digits = sum(ch.isdigit() for ch in pi_text)
        assert digits >= 12
        assert parse_value(pi_text) == math.pi

    def test_round_trip_exact_on_random_values(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            v = float(rng.uniform(-1, 1) * 10.0 ** rng.integers(-13, 11))
            if v == 0.0:
                continue
            assert parse_value(format_value(v)) == v


def random_netlist(rng) -> str:
    n_nodes = int(rng.integers(2, 6))
    nodes = ["0"] + [f"n{i}" for i in range(n_nodes)]
    lines = []
    n_ctrl = int(rng.integers(0, 2))
    for c in range(n_ctrl):
        lines.append(
            f".ctrl g{c} square f={format_value(float(rng.uniform(1, 1e3)))} "
            f"duty={format_value(float(rng.uniform(0.1, 0.9)))} "
            f"phase={format_value(float(rng.uniform(0, 6.28)))}"
        )
    prev = "0"
    for i, node in enumerate(nodes[1:]):
        lines.append(f"Rchain{i} {prev} {node} {format_value(float(rng.uniform(1, 1e7)))}")
        prev = node
    for i in range(int(rng.integers(0, 4))):
        a, b = rng.choice(nodes, size=2, replace=False)
        kind = rng.integers(0, 4)
        val = float(rng.uniform(1e-12, 1e-6))
        if kind == 0:
            lines.append(f"Cc{i} {a} {b} {format_value(val)}")
        elif kind == 1:
            lines.append(f"Rr{i} {a} {b} {format_value(float(rng.uniform(1, 1e9)))}")
        elif kind == 2 and n_ctrl:
            lines.append(
                f"Ss{i} {a} {b} ctrl=g{int(rng.integers(0, n_ctrl))} "
                f"ron={format_value(float(rng.uniform(0.1, 10)))} "
                f"roff={format_value(float(rng.uniform(1e6, 1e9)))}"
            )
        else:
            lines.append(f"Vv{i} {a} {b} {format_value(float(rng.uniform(1, 4e3)))}")
    lines.append(f".tran {format_value(float(rng.uniform(1e-8, 1e-5)))} 1m")
    probe = nodes[int(rng.integers(1, len(nodes)))]
    lines.append(f".probe {probe}")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def study_scenarios():
    """Builders of the scenarios the studies make: sweep cells, fig8
    displacement cells on both supplies, seeded Monte-Carlo draws and fig7c
    phases."""
    for f in (2.0, 30.0, 1000.0):
        step = analysis.sweep_step_for(f)
        for load in ("10n", "20n", "50n", "dea"):
            yield pytest.param(partial(converter_scenario, f, load,
                                       analysis.settle_periods_for(f) + 1, step,
                                       ("A", "B", "O", "C")),
                               id=f"sweep-{load}-{f:g}Hz")
        fig8 = partial(converter_scenario, f, "dea", 2, step, ("A", "O", "load_m"))
        yield pytest.param(fig8, id=f"fig8-converter-{f:g}Hz")
        yield pytest.param(lambda fig8=fig8: fig8(supply=bench_matched_to_converter()),
                           id=f"fig8-bench-{f:g}Hz")
    for name in ("fig2", "fig3", "fig2_hv", "fig3_hv"):
        rng = np.random.default_rng(19)
        for i in range(20):
            offs = analysis.MEDIAN_OFF_RESISTANCE * np.exp(rng.standard_normal(4))
            offsets = rng.uniform(-analysis.OFFSET_SPAN, analysis.OFFSET_SPAN, 4)
            yield pytest.param(partial(mc_template(name), list(offs), list(offsets)),
                               id=f"mc-{name}-{i}")
    for phase in (0.0, math.pi / 4, 2 * math.pi / 3):
        yield pytest.param(partial(dual_channel_with_phase, phase), id=f"fig7c-phase{phase:g}")


class TestRoundTrip:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_round_trip(self, name):
        scenario = load_preset(name)
        text = print_scenario(scenario)
        reparsed = parse(text)
        assert reparsed.circuit == scenario.circuit
        assert reparsed.settings == scenario.settings
        assert reparsed.probes == scenario.probes
        # parse o print o parse is a fixed point
        assert print_scenario(reparsed) == text

    @pytest.mark.parametrize("build", study_scenarios())
    def test_study_scenarios_round_trip(self, build):
        scenario = build()
        assert parse(print_scenario(scenario)) == scenario

    def test_generated_corpus_round_trips(self):
        rng = np.random.default_rng(20240817)
        checked = 0
        for _ in range(1000):
            text = random_netlist(rng)
            try:
                scenario = parse(text, origin="gen.ckt")
            except NetlistError:
                continue  # generator may produce floating nodes; skip those
            reparsed = parse(print_scenario(scenario), origin="gen.ckt")
            assert reparsed.circuit == scenario.circuit
            assert reparsed.settings == scenario.settings
            assert reparsed.probes == scenario.probes
            checked += 1
        assert checked >= 800  # the corpus must be mostly valid


def off_default(cls):
    """Every keyed field of ``cls`` at a value off its default, distinct per
    field; control-name fields name control ``g2``."""
    values = {}
    for i, p in enumerate(params(cls)):
        if p.type is bool:
            values[p.name] = not p.default
        elif p.type is int:
            values[p.name] = p.default + 3
        elif p.type is str:
            values[p.name] = "g2"
        elif p.default in (MISSING, None, 0.0, math.inf):
            values[p.name] = (i + 3) * 1e-4
        else:
            values[p.name] = 0.75 * p.default
    return values


#: every printable component kind, named with its statement letter
COMPONENT_KINDS = {"R1": Resistor, "C1": Capacitor, "S1": Switch, "V1": VoltageSource}


def schema_scenario() -> Scenario:
    """One statement of every printable kind, every keyed field off its default."""
    comps = [cls(name, "A", "0", **off_default(cls)) for name, cls in COMPONENT_KINDS.items()]
    controls = {"g": ControlSignal(frequency=1.0), "g2": ControlSignal(**off_default(ControlSignal))}
    return Scenario(
        Circuit.build(comps, controls),
        IntegrationSettings(**off_default(IntegrationSettings)),
        probes=("A",),
    )


def _set_paths():
    scenario = schema_scenario()
    paths = [f"comp.{c.name}.{p.key}" for c in scenario.circuit.components for p in params(type(c))]
    paths += [f"ctrl.g2.{p.key}" for p in params(ControlSignal)]
    paths += [f"tran.{p.key}" for p in params(IntegrationSettings)]
    return paths


def _other_value(p, value):
    """A valid value for ``p`` that differs from ``value``, and its text."""
    if p.type is bool:
        return not value, "1" if not value else "0"
    if p.type is int:
        return value + 1, str(value + 1)
    if p.type is str:
        return "g", "g"
    return 1.25 * value, format_value(1.25 * value)


def _target(scenario, kind, name):
    """The component, control or settings a ``--set`` path addresses."""
    if kind == "comp":
        return scenario.circuit.component(name)
    if kind == "ctrl":
        return scenario.circuit.control_map[name]
    return scenario.settings


class TestSchema:
    def test_every_statement_kind_round_trips_off_default(self):
        scenario = schema_scenario()
        text = print_scenario(scenario)
        for cls in (*COMPONENT_KINDS.values(), ControlSignal, IntegrationSettings):
            for p in params(cls):
                if not p.positional:
                    assert f" {p.key}=" in text, (cls.__name__, p.key)
        reparsed = parse(text)
        assert reparsed == scenario
        assert print_scenario(reparsed) == text
        for comp in reparsed.circuit.components:
            for p in params(type(comp)):
                if p.type is bool:
                    assert type(getattr(comp, p.name)) is bool

    @pytest.mark.parametrize("cls, expand, word", [
        (BenchSupplyParams, expand_bench_supply, "bench"),
        (DeaLoadParams, expand_dea_load, "dea"),
        (ConverterParams, expand_converter, "converter"),
        (ProbeParams, expand_probe, "probe"),
    ], ids=["bench", "dea", "converter", "probe"])
    def test_fragment_statements_read_every_key(self, cls, expand, word):
        values = off_default(cls)
        keys = " ".join(f"{p.key}={format_value(values[p.name])}" for p in params(cls))
        scenario = parse_ok(f"Xf A 0 {word} {keys}\nR1 A 0 1k")
        expected = expand(cls(**values)).instantiate("A", "0", "f")
        assert list(scenario.circuit.components[:-1]) == expected

    def test_bare_dea_statement_is_the_dea_load(self):
        scenario = parse_ok("Xload O 0 dea\nV1 O 0 1")
        assert list(scenario.circuit.components[:-1]) == load_fragment("dea").instantiate(
            "O", "0", "load"
        )

    @pytest.mark.parametrize("path", _set_paths())
    def test_set_changes_exactly_that_field(self, path):
        scenario = schema_scenario()
        kind, *names, key = path.split(".")
        name = names[0] if names else None
        target = _target(scenario, kind, name)
        (p,) = [p for p in params(type(target)) if p.key == key]
        value, text = _other_value(p, getattr(target, p.name))
        changed = apply_override(scenario, path, text)
        if kind == "comp":
            expected = replace(
                scenario, circuit=scenario.circuit.with_replaced(name, **{p.name: value})
            )
        elif kind == "ctrl":
            controls = dict(scenario.circuit.controls, g2=replace(target, **{p.name: value}))
            expected = replace(
                scenario, circuit=replace(scenario.circuit, controls=tuple(controls.items()))
            )
        else:
            expected = scenario.with_settings(**{p.name: value})
        assert changed == expected
        assert type(getattr(_target(changed, kind, name), p.name)) is type(value)
