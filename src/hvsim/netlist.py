"""Netlist/scenario language: parsing, canonical printing, value notation.

Grammar (one statement per line, ``#`` starts a comment):

    R<name> <n+> <n-> <value>
    C<name> <n+> <n-> <value> [ic=]
    S<name> <n+> <n-> ctrl=<name> [ron=] [roff=] [ton=] [toff=] [offset=] [inv=]
    V<name> <n+> <n-> <value> [slew=] [ctrl=]
    X<name> <n+> <n-> converter|probe|bench|dea [key=value ...]
    .ctrl <name> square f=<Hz> [duty=] [phase=]
    .tran <step> <stop> [damp=]
    .probe <node> [<node>]
    .end

Engineering suffixes are case-sensitive: p n u m k M G (m is milli, M is
mega; there is no ``meg`` form).  Node labels are alphanumeric identifiers;
``0`` and ``GND`` both name the ground reference.  Every ``X`` statement
expands to R, C and V primitives at parse time (the fragments of
:mod:`hvsim.devices`), so printed netlists show the expansion.

Keys, positions and defaults come from the parameter dataclasses
(:func:`hvsim.circuit.params`) of the R/C/S/V components and of the ``X``
kinds' ``*Params`` schemas.  An omitted key takes the field default, and the
printer omits every key whose value equals it.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass
from decimal import Decimal
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .circuit import (
    Capacitor,
    Circuit,
    CircuitError,
    Component,
    ControlSignal,
    IntegrationSettings,
    Param,
    ProbeSpec,
    Resistor,
    Scenario,
    Switch,
    VoltageSource,
    is_ground,
    params,
)
from .devices import (BenchSupplyParams, ConverterParams, DeaLoadParams, ProbeParams,
                      expand_bench_supply, expand_converter, expand_dea_load, expand_probe)

#: component statement letter -> (class, message when its value or a required key is missing)
_COMPONENTS = {
    "R": (Resistor, "resistor takes exactly one value"),
    "C": (Capacitor, "capacitor needs a value"),
    "S": (Switch, "switch needs a ctrl= reference"),
    "V": (VoltageSource, "source needs a value"),
}
#: ``X`` kind word -> (key schema, missing message, expansion into primitives)
_FRAGMENTS = {
    "converter": (ConverterParams, None, expand_converter),
    "probe": (ProbeParams, None, expand_probe),
    "bench": (BenchSupplyParams, "bench supply needs v=", expand_bench_supply),
    "dea": (DeaLoadParams, None, expand_dea_load),
}


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
    """Engineering-notation value: plain float or ``<number><suffix>``; a
    literal beyond the float range is rejected.

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
        value = float(text)
    else:
        m = _SUFFIX_RE.match(text)
        if not m:
            raise ValueError(f"malformed value {token!r}")
        # textual exponent splice keeps the decimal literal exact
        value = float(f"{m.group(1)}e{_SUFFIX_EXP[m.group(2)]}")
    if not math.isfinite(value):
        raise ValueError(f"value {token!r} is not finite")
    return value


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


def parse_param(p: Param, text: str, allow_unit: bool = False) -> Any:
    """Value of parameter ``p`` from its text, by the field's type: a float,
    a 0/1 flag, a non-negative integer, or a control name kept as written.

    Raises ``ValueError`` with the diagnostic.
    """
    if p.type is str:
        return text
    value = parse_value(text, allow_unit)
    if p.type is bool:
        if value not in (0.0, 1.0):
            raise ValueError(f"{p.key}= must be 0 or 1, got {text!r}")
        return value == 1.0
    if p.type is int:
        if not (value >= 0 and value.is_integer()):
            raise ValueError(f"{p.key}= must be a non-negative integer, got {text!r}")
        return int(value)
    return value


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
        self.end: Optional[Tuple[int, int]] = None  # line and column of .end
        # (line, column, kind, reference) checked once declarations are complete
        self.deferred: List[Tuple[int, int, str, str]] = []

    def fail(self, line_no: int, column: int, message: str) -> "NetlistError":
        return NetlistError(self.origin, line_no, column, message)

    def node(self, line_no: int, tok: _Tok) -> str:
        if not _NODE_RE.match(tok.text):
            raise self.fail(line_no, tok.column, f"malformed node label {tok.text!r}")
        return "0" if is_ground(tok.text) else tok.text

    def convert(self, line_no: int, p: Param, tok: _Tok) -> Any:
        try:
            return parse_param(p, tok.text)
        except ValueError as exc:
            raise self.fail(line_no, tok.column, str(exc)) from None

    def fields(
        self, line_no: int, head: _Tok, cls: type, toks: Sequence[_Tok], missing: Optional[str]
    ) -> Dict[str, Any]:
        """Field values of ``cls`` from its positional then key=value tokens."""
        schema = params(cls)
        positional = [p for p in schema if p.positional]
        keyed = {p.key: p for p in schema if not p.positional}
        if len(toks) < len(positional) or (not keyed and len(toks) > len(positional)):
            raise self.fail(line_no, head.column, missing)
        values = {p.name: self.convert(line_no, p, tok) for p, tok in zip(positional, toks)}
        for tok in toks[len(positional):]:
            if "=" not in tok.text:
                raise self.fail(line_no, tok.column, f"expected key=value, got {tok.text!r}")
            key, raw = tok.text.split("=", 1)
            p = keyed.get(key)
            if p is None:
                raise self.fail(
                    line_no, tok.column, f"unknown parameter {key!r} (allowed: {', '.join(keyed)})"
                )
            if p.name in values:
                raise self.fail(line_no, tok.column, f"duplicate parameter {key!r}")
            values[p.name] = self.convert(line_no, p, _Tok(raw, tok.column + len(key) + 1))
            if p.type is str:
                self.deferred.append((line_no, tok.column, "control", raw))
        if any(p.default is MISSING and p.name not in values for p in keyed.values()):
            raise self.fail(line_no, head.column, missing)
        return values

    def add_component(self, line_no: int, column: int, comp: Component) -> None:
        if comp.name in self.component_lines:
            first = self.component_lines[comp.name]
            raise self.fail(
                line_no, column, f"duplicate component name {comp.name!r} (first declared on line {first})"
            )
        self.component_lines[comp.name] = line_no
        self.components.append(comp)

    def parse(self) -> Scenario:
        last = 1  # the last line with a statement
        for line_no, line in enumerate(self.lines, start=1):
            toks = _tokenize(line)
            if not toks:
                continue
            if self.end is not None:
                raise self.fail(line_no, toks[0].column, "statement after .end")
            head, last = toks[0], line_no
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
        if self.end is None:
            raise self.fail(last, 1, "missing .end")
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
        if head.text[0] == "X":
            if not rest:
                raise self.fail(line_no, head.column, "X statement needs a kind word")
            if rest[0].text not in _FRAGMENTS:
                raise self.fail(
                    line_no, rest[0].column,
                    f"unknown fragment kind {rest[0].text!r} ({', '.join(_FRAGMENTS)})",
                )
            cls, missing, expand = _FRAGMENTS[rest[0].text]
            values = self.fields(line_no, head, cls, rest[1:], missing)
            comps = expand(cls(**values)).instantiate(pos, neg, name[1:])
        else:
            cls, missing = _COMPONENTS[head.text[0]]
            comps = [cls(name, pos, neg, **self.fields(line_no, head, cls, rest, missing))]
        for comp in comps:
            self.add_component(line_no, head.column, comp)

    def directive(self, line_no: int, toks: List[_Tok]) -> None:
        head = toks[0]
        if head.text == ".ctrl":
            if len(toks) < 3 or toks[2].text != "square":
                raise self.fail(line_no, head.column, ".ctrl needs: <name> square f=<Hz> ...")
            cname = toks[1].text
            if cname in self.controls:
                raise self.fail(line_no, toks[1].column, f"duplicate control {cname!r}")
            self.controls[cname] = ControlSignal(
                **self.fields(line_no, head, ControlSignal, toks[3:], ".ctrl needs f=<Hz>")
            )
        elif head.text == ".tran":
            if self.tran is not None:
                raise self.fail(line_no, head.column, "duplicate .tran directive")
            self.tran = IntegrationSettings(
                **self.fields(
                    line_no, head, IntegrationSettings, toks[1:], ".tran needs <step> <stop>"
                )
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
            self.end = (line_no, head.column)
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
            raise self.fail(*self.end, "missing .tran directive")
        try:
            circuit = Circuit.build(self.components, self.controls)
        except CircuitError as exc:
            raise self.fail(*self.end, str(exc)) from None
        return Scenario(circuit=circuit, settings=self.tran, probes=tuple(self.probes))


def parse(text: str, origin: str = "<string>") -> Scenario:
    """Parse netlist text into a :class:`Scenario`.

    Raises :class:`NetlistError` carrying origin, line, and column for any
    syntax error, undefined reference, or duplicate name.
    """
    return _Parser(text, origin).parse()


def parse_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse(fh.read(), origin=str(path))


def _fields_text(obj: Any) -> str:
    """Positional values, then ``key=value`` for every field off its default."""
    positional, keyed = [], []
    for p in params(type(obj)):
        value = getattr(obj, p.name)
        if p.positional:
            positional.append(format_value(value))
        elif value != p.default:
            text = value if p.type is str else format_value(value)
            keyed.append(f"{p.key}={text}")
    return " ".join(positional + keyed)


def print_scenario(scenario: Scenario) -> str:
    """Canonical netlist text; ``parse(print_scenario(s))`` equals ``s``."""
    lines = [f"{c.name} {c.pos} {c.neg} {_fields_text(c)}".rstrip()
             for c in scenario.circuit.components]
    for name, ctrl in scenario.circuit.controls:
        lines.append(f".ctrl {name} square {_fields_text(ctrl)}")
    lines.append(f".tran {_fields_text(scenario.settings)}")
    for probe in scenario.probes:
        if isinstance(probe, str):
            lines.append(f".probe {probe}")
        else:
            lines.append(f".probe {probe[0]} {probe[1]}")
    lines.append(".end")
    return "\n".join(lines) + "\n"
