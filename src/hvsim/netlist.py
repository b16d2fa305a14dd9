"""Netlist/scenario language: parsing, canonical printing, value notation.

Grammar (one statement per line, ``#`` starts a comment):

    R<name> <n+> <n-> <value>
    C<name> <n+> <n-> <value> [ic=] [derate=] [vrated=] [vbias=]
    S<name> <n+> <n-> ctrl=<name> [ron=] [roff=] [ton=] [toff=] [offset=] [inv=]
    V<name> <n+> <n-> <value> [slew=] [ctrl=]
    X<name> <n+> <n-> converter|probe|bench|dea [key=value ...]
    .ctrl <name> square f=<Hz> [duty=] [phase=]
    .tran <step> <stop> [damp=]
    .probe <node> [<node>]
    .end

Engineering suffixes are case-sensitive: p n u m k M G (m is milli, M is
mega; there is no ``meg`` form).  Node labels are alphanumeric identifiers;
``0`` and ``GND`` both name the ground reference.  ``X`` statements for the
bench supply and actuator load expand to primitives at parse time, so printed
netlists show the expansion; converter and probe stay composite.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Dict, List, Optional, Sequence, Tuple

from .circuit import (
    Capacitor,
    Circuit,
    CircuitError,
    Component,
    ControlSignal,
    ConverterSource,
    Probe,
    Resistor,
    Switch,
    VoltageSource,
    is_ground,
)
from .devices import BenchSupplyParams, DeaLoadParams, expand_bench_supply, expand_dea_load
from .engine import IntegrationSettings
from .scenario import ProbeSpec, Scenario


class NetlistError(ValueError):
    """Parse failure with its origin, line, and column."""

    def __init__(self, origin: str, line: int, column: int, message: str):
        self.origin = origin
        self.line = line
        self.column = column
        super().__init__(f"{origin}:{line}:{column}: {message}")


_SUFFIX_EXP = {"p": -12, "n": -9, "u": -6, "m": -3, "k": 3, "M": 6, "G": 9}
_EXP_SUFFIX = {v: k for k, v in _SUFFIX_EXP.items()}

_PLAIN_RE = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")
_SUFFIX_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+))([pnumkMG])$")
_UNIT_TAIL_RE = re.compile(r"(s|S|V|A|F|W|Hz|hz|rad|Ohm|ohm)$")
_NODE_RE = re.compile(r"^[A-Za-z0-9_]+$")


def parse_value(token: str, allow_unit: bool = False) -> float:
    """Engineering-notation value: plain float or ``<number><suffix>``.

    With ``allow_unit`` a trailing unit word (s, V, F, Hz...) after the
    suffix is stripped first; netlists themselves stay strict.
    """
    text = token
    if allow_unit:
        stripped = _UNIT_TAIL_RE.sub("", text, count=1)
        if stripped and (
            _PLAIN_RE.match(stripped) or _SUFFIX_RE.match(stripped)
        ):
            text = stripped
    if _PLAIN_RE.match(text):
        return float(text)
    m = _SUFFIX_RE.match(text)
    if m:
        # textual exponent splice keeps the decimal literal exact
        return float(f"{m.group(1)}e{_SUFFIX_EXP[m.group(2)]}")
    raise ValueError(f"malformed value {token!r}")


def format_value(v: float) -> str:
    """Canonical engineering form: ``3600000.0`` prints as ``3.6M``.

    Values in [0.1, 1000) print without a suffix.  The digits come from the
    shortest round-trip decimal of ``v``, so ``parse_value(format_value(v))``
    returns ``v`` exactly.
    """
    v = float(v)
    if v == 0.0:
        return "0"
    if not math.isfinite(v):
        raise ValueError(f"cannot format non-finite value {v}")
    d = Decimal(repr(v))
    adj = d.adjusted()
    if -1 <= adj <= 2:
        return format(d.normalize(), "f")
    k = 3 * (adj // 3)
    if k in _EXP_SUFFIX and -12 <= k <= 9:
        mantissa = format(d.scaleb(-k).normalize(), "f")
        return mantissa + _EXP_SUFFIX[k]
    return repr(v)


@dataclass
class _Tok:
    text: str
    column: int


def _tokenize(line: str) -> List[_Tok]:
    code = line.split("#", 1)[0]
    return [_Tok(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", code)]


class _Parser:
    def __init__(self, text: str, origin: str):
        self.origin = origin
        self.lines = text.replace("\r\n", "\n").split("\n")
        self.components: List[Component] = []
        self.component_lines: Dict[str, int] = {}
        self.controls: Dict[str, ControlSignal] = {}
        self.tran: Optional[IntegrationSettings] = None
        self.probes: List[ProbeSpec] = []
        self.ended = False
        # (line, column, kind, reference) checked once declarations are complete
        self.deferred: List[Tuple[int, int, str, str]] = []

    def fail(self, line_no: int, column: int, message: str) -> "NetlistError":
        return NetlistError(self.origin, line_no, column, message)

    def value(self, line_no: int, tok: _Tok) -> float:
        try:
            return parse_value(tok.text)
        except ValueError:
            raise self.fail(line_no, tok.column, f"malformed value {tok.text!r}") from None

    def node(self, line_no: int, tok: _Tok) -> str:
        if not _NODE_RE.match(tok.text):
            raise self.fail(line_no, tok.column, f"malformed node label {tok.text!r}")
        return "0" if is_ground(tok.text) else tok.text

    def keyvals(
        self, line_no: int, toks: Sequence[_Tok], allowed: Sequence[str]
    ) -> Dict[str, Tuple[float, _Tok]]:
        out: Dict[str, Tuple[float, _Tok]] = {}
        for tok in toks:
            if "=" not in tok.text:
                raise self.fail(line_no, tok.column, f"expected key=value, got {tok.text!r}")
            key, raw = tok.text.split("=", 1)
            if key not in allowed:
                raise self.fail(
                    line_no, tok.column, f"unknown parameter {key!r} (allowed: {', '.join(allowed)})"
                )
            if key in out:
                raise self.fail(line_no, tok.column, f"duplicate parameter {key!r}")
            if key == "ctrl":
                out[key] = (raw, tok)  # type: ignore[assignment]
            else:
                vtok = _Tok(raw, tok.column + len(key) + 1)
                out[key] = (self.value(line_no, vtok), vtok)
        return out

    def flag(
        self, line_no: int, kv: Dict[str, Tuple[float, _Tok]], key: str, default: bool
    ) -> bool:
        if key not in kv:
            return default
        value, tok = kv[key]
        if value not in (0.0, 1.0):
            raise self.fail(line_no, tok.column, f"{key}= must be 0 or 1, got {tok.text!r}")
        return value == 1.0

    def count(
        self, line_no: int, kv: Dict[str, Tuple[float, _Tok]], key: str, default: int
    ) -> int:
        if key not in kv:
            return default
        value, tok = kv[key]
        if not (value >= 0 and value.is_integer()):
            raise self.fail(
                line_no, tok.column, f"{key}= must be a non-negative integer, got {tok.text!r}"
            )
        return int(value)

    def add_component(self, line_no: int, column: int, comp: Component) -> None:
        if comp.name in self.component_lines:
            first = self.component_lines[comp.name]
            raise self.fail(
                line_no, column, f"duplicate component name {comp.name!r} (first declared on line {first})"
            )
        self.component_lines[comp.name] = line_no
        self.components.append(comp)

    def parse(self) -> Scenario:
        for line_no, line in enumerate(self.lines, start=1):
            toks = _tokenize(line)
            if not toks:
                continue
            if self.ended:
                raise self.fail(line_no, toks[0].column, "statement after .end")
            head = toks[0]
            try:
                if head.text.startswith("."):
                    self.directive(line_no, toks)
                elif head.text[0] in "RCSVX":
                    self.component(line_no, toks)
                else:
                    raise self.fail(
                        line_no, head.column, f"unknown statement {head.text!r}"
                    )
            except CircuitError as exc:
                raise self.fail(line_no, head.column, str(exc)) from None
        if not self.ended:
            raise self.fail(len(self.lines), 1, "missing .end")
        return self.finish()

    def component(self, line_no: int, toks: List[_Tok]) -> None:
        head = toks[0]
        if len(head.text) < 2:
            raise self.fail(line_no, head.column, f"component {head.text!r} needs a name")
        if len(toks) < 3:
            raise self.fail(line_no, head.column, "component needs two node arguments")
        name = head.text
        pos = self.node(line_no, toks[1])
        neg = self.node(line_no, toks[2])
        rest = toks[3:]
        kind = head.text[0]

        if kind == "R":
            if len(rest) != 1:
                raise self.fail(line_no, head.column, "resistor takes exactly one value")
            self.add_component(line_no, head.column, Resistor(name, pos, neg, self.value(line_no, rest[0])))
        elif kind == "C":
            if not rest:
                raise self.fail(line_no, head.column, "capacitor needs a value")
            value = self.value(line_no, rest[0])
            kv = self.keyvals(line_no, rest[1:], ["ic", "derate", "vrated", "vbias"])
            self.add_component(
                line_no,
                head.column,
                Capacitor(
                    name,
                    pos,
                    neg,
                    value,
                    initial_voltage=kv.get("ic", (0.0, None))[0],
                    derating=kv.get("derate", (0.0, None))[0],
                    rated_voltage=kv.get("vrated", (math.inf, None))[0],
                    bias_voltage=kv.get("vbias", (0.0, None))[0],
                ),
            )
        elif kind == "S":
            kv = self.keyvals(line_no, rest, ["ctrl", "ron", "roff", "ton", "toff", "offset", "inv"])
            if "ctrl" not in kv:
                raise self.fail(line_no, head.column, "switch needs a ctrl= reference")
            ctrl_name, ctrl_tok = kv["ctrl"]
            self.deferred.append((line_no, ctrl_tok.column, "control", ctrl_name))
            self.add_component(
                line_no,
                head.column,
                Switch(
                    name,
                    pos,
                    neg,
                    control=ctrl_name,
                    ron=kv.get("ron", (5.0, None))[0],
                    roff=kv.get("roff", (1e9, None))[0],
                    invert=self.flag(line_no, kv, "inv", False),
                    turn_on_delay=kv.get("ton", (0.4e-3, None))[0],
                    turn_off_delay=kv.get("toff", (0.1e-3, None))[0],
                    delay_offset=kv.get("offset", (0.0, None))[0],
                ),
            )
        elif kind == "V":
            if not rest:
                raise self.fail(line_no, head.column, "source needs a value")
            value = self.value(line_no, rest[0])
            kv = self.keyvals(line_no, rest[1:], ["slew", "ctrl"])
            control = None
            if "ctrl" in kv:
                control, ctrl_tok = kv["ctrl"]
                self.deferred.append((line_no, ctrl_tok.column, "control", control))
            self.add_component(
                line_no,
                head.column,
                VoltageSource(
                    name, pos, neg, value,
                    slew=kv.get("slew", (None, None))[0],
                    control=control,
                ),
            )
        else:  # X
            if not rest:
                raise self.fail(line_no, head.column, "X statement needs a kind word")
            xkind = rest[0].text
            kv_toks = rest[1:]
            prefix = name[1:]
            if xkind == "converter":
                kv = self.keyvals(line_no, kv_toks, ["voc", "rint", "cpar", "pre"])
                self.add_component(
                    line_no,
                    head.column,
                    ConverterSource(
                        name, pos, neg,
                        open_circuit_voltage=kv.get("voc", (4500.0, None))[0],
                        internal_resistance=kv.get("rint", (3e6, None))[0],
                        parallel_capacitance=kv.get("cpar", (3e-9, None))[0],
                        precharged=self.flag(line_no, kv, "pre", True),
                    ),
                )
            elif xkind == "probe":
                kv = self.keyvals(line_no, kv_toks, ["rin", "cin"])
                self.add_component(
                    line_no,
                    head.column,
                    Probe(
                        name, pos, neg,
                        input_resistance=kv.get("rin", (100e6, None))[0],
                        input_capacitance=kv.get("cin", (5.5e-12, None))[0],
                    ),
                )
            elif xkind == "bench":
                kv = self.keyvals(line_no, kv_toks, ["v", "rout", "slew"])
                if "v" not in kv:
                    raise self.fail(line_no, head.column, "bench supply needs v=")
                params = BenchSupplyParams(
                    voltage=kv["v"][0],
                    output_resistance=kv.get("rout", (1e3, None))[0],
                    slew_limit=kv.get("slew", (35e6, None))[0],
                )
                for comp in expand_bench_supply(params).instantiate(pos, neg, prefix):
                    self.add_component(line_no, head.column, comp)
            elif xkind == "dea":
                kv = self.keyvals(line_no, kv_toks, ["c", "rs", "rp"])
                params = DeaLoadParams(
                    capacitance=kv.get("c", (49e-9, None))[0],
                    series_resistance=kv.get("rs", (60e3, None))[0],
                    parallel_resistance=kv.get("rp", (None, None))[0],
                )
                for comp in expand_dea_load(params).instantiate(pos, neg, prefix):
                    self.add_component(line_no, head.column, comp)
            else:
                raise self.fail(
                    line_no, rest[0].column,
                    f"unknown fragment kind {xkind!r} (converter, probe, bench, dea)",
                )

    def directive(self, line_no: int, toks: List[_Tok]) -> None:
        head = toks[0]
        if head.text == ".ctrl":
            if len(toks) < 3 or toks[2].text != "square":
                raise self.fail(line_no, head.column, ".ctrl needs: <name> square f=<Hz> ...")
            cname = toks[1].text
            if cname in self.controls:
                raise self.fail(line_no, toks[1].column, f"duplicate control {cname!r}")
            kv = self.keyvals(line_no, toks[3:], ["f", "duty", "phase"])
            if "f" not in kv:
                raise self.fail(line_no, head.column, ".ctrl needs f=<Hz>")
            self.controls[cname] = ControlSignal(
                frequency=kv["f"][0],
                duty=kv.get("duty", (0.5, None))[0],
                phase=kv.get("phase", (0.0, None))[0],
            )
        elif head.text == ".tran":
            if self.tran is not None:
                raise self.fail(line_no, head.column, "duplicate .tran directive")
            if len(toks) < 3:
                raise self.fail(line_no, head.column, ".tran needs <step> <stop>")
            kv = self.keyvals(line_no, toks[3:], ["damp"])
            self.tran = IntegrationSettings(
                step=self.value(line_no, toks[1]),
                stop=self.value(line_no, toks[2]),
                damping_steps=self.count(line_no, kv, "damp", 2),
            )
        elif head.text == ".probe":
            if len(toks) not in (2, 3):
                raise self.fail(line_no, head.column, ".probe takes one node or a node pair")
            nodes = [self.node(line_no, t) for t in toks[1:]]
            for t in toks[1:]:
                self.deferred.append((line_no, t.column, "node", self.node(line_no, t)))
            self.probes.append(nodes[0] if len(nodes) == 1 else (nodes[0], nodes[1]))
        elif head.text == ".end":
            if len(toks) != 1:
                raise self.fail(line_no, toks[1].column, "unexpected tokens after .end")
            self.ended = True
        else:
            raise self.fail(line_no, head.column, f"unknown directive {head.text!r}")

    def finish(self) -> Scenario:
        known_nodes = set()
        for comp in self.components:
            known_nodes.update((comp.pos, comp.neg))
        for line_no, column, kind, ref in self.deferred:
            if kind == "control" and ref not in self.controls:
                raise self.fail(line_no, column, f"undefined control {ref!r}")
            if kind == "node" and not is_ground(ref) and ref not in known_nodes:
                raise self.fail(line_no, column, f"undefined node {ref!r}")
        if self.tran is None:
            raise self.fail(len(self.lines), 1, "missing .tran directive")
        try:
            circuit = Circuit.build(self.components, self.controls)
        except CircuitError as exc:
            raise self.fail(len(self.lines), 1, str(exc)) from None
        return Scenario(
            circuit=circuit,
            settings=self.tran,
            probes=tuple(self.probes),
            origin=self.origin,
        )


def parse(text: str, origin: str = "<string>") -> Scenario:
    """Parse netlist text into a :class:`Scenario`.

    Raises :class:`NetlistError` carrying origin, line, and column for any
    syntax error, undefined reference, or duplicate name.
    """
    return _Parser(text, origin).parse()


def parse_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read(), origin=str(path))


def _kv(key: str, value: float, default: Optional[float]) -> str:
    if default is not None and value == default:
        return ""
    return f" {key}={format_value(value)}"


def _component_line(comp: Component) -> str:
    base = f"{comp.name} {comp.pos} {comp.neg}"
    if isinstance(comp, Resistor):
        return f"{base} {format_value(comp.resistance)}"
    if isinstance(comp, Capacitor):
        line = f"{base} {format_value(comp.capacitance)}"
        line += _kv("ic", comp.initial_voltage, 0.0)
        line += _kv("derate", comp.derating, 0.0)
        if math.isfinite(comp.rated_voltage):
            line += _kv("vrated", comp.rated_voltage, None)
        line += _kv("vbias", comp.bias_voltage, 0.0)
        return line
    if isinstance(comp, Switch):
        line = f"{base} ctrl={comp.control}"
        line += _kv("ron", comp.ron, 5.0)
        line += _kv("roff", comp.roff, 1e9)
        line += _kv("ton", comp.turn_on_delay, 0.4e-3)
        line += _kv("toff", comp.turn_off_delay, 0.1e-3)
        line += _kv("offset", comp.delay_offset, 0.0)
        if comp.invert:
            line += " inv=1"
        return line
    if isinstance(comp, VoltageSource):
        line = f"{base} {format_value(comp.voltage)}"
        if comp.slew is not None:
            line += f" slew={format_value(comp.slew)}"
        if comp.control is not None:
            line += f" ctrl={comp.control}"
        return line
    if isinstance(comp, ConverterSource):
        line = (
            f"{base} converter voc={format_value(comp.open_circuit_voltage)}"
            f" rint={format_value(comp.internal_resistance)}"
            f" cpar={format_value(comp.parallel_capacitance)}"
        )
        if not comp.precharged:
            line += " pre=0"
        return line
    if isinstance(comp, Probe):
        return (
            f"{base} probe rin={format_value(comp.input_resistance)}"
            f" cin={format_value(comp.input_capacitance)}"
        )
    raise CircuitError(f"cannot print component {comp!r}")


def print_scenario(scenario: Scenario) -> str:
    """Canonical netlist text; ``parse(print_scenario(s))`` equals ``s``."""
    lines = [_component_line(comp) for comp in scenario.circuit.components]
    for name, ctrl in scenario.circuit.controls:
        line = f".ctrl {name} square f={format_value(ctrl.frequency)}"
        line += _kv("duty", ctrl.duty, 0.5)
        line += _kv("phase", ctrl.phase, 0.0)
        lines.append(line)
    settings = scenario.settings
    tran = f".tran {format_value(settings.step)} {format_value(settings.stop)}"
    if settings.damping_steps != 2:
        tran += f" damp={format_value(settings.damping_steps)}"
    lines.append(tran)
    for probe in scenario.probes:
        if isinstance(probe, str):
            lines.append(f".probe {probe}")
        else:
            lines.append(f".probe {probe[0]} {probe[1]}")
    lines.append(".end")
    return "\n".join(lines) + "\n"
