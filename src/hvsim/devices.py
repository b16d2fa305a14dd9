"""Behavioral device models: supplies, probes and loads.

Two-terminal building blocks are expressed as :class:`Fragment` objects whose
components reference the symbolic terminals ``"+"`` and ``"-"``; instantiating
a fragment rebinds those to real node labels and prefixes internal names.
Each ``*Params`` class is the key schema of one netlist ``X`` kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from .circuit import (
    Capacitor,
    CircuitError,
    Component,
    Resistor,
    VoltageSource,
    param,
    params,
)


class _PositiveParams:
    """Base of the ``X`` key schemas, whose every float parameter is > 0."""

    def __post_init__(self) -> None:
        bad = [f"{p.key}=" for p in params(type(self))
               if p.type is float and not getattr(self, p.name) > 0]
        if bad:
            raise CircuitError(f"{', '.join(bad)} must be > 0")


@dataclass(frozen=True)
class BenchSupplyParams(_PositiveParams):
    """Benchtop HV generator equivalent.

    The output resistance and slew limit are calibration parameters (the
    generator itself is not characterized beyond its voltage setting); they
    matter only to startup ramps and fast transients.
    """

    voltage: float = param("v")
    output_resistance: float = param("rout", 1e3)
    slew_limit: float = param("slew", 35e6)  # V/s


@dataclass(frozen=True)
class ConverterParams(_PositiveParams):
    """Miniature DC-HVDC converter equivalent: EMF behind an internal resistor
    with a parallel output capacitor.  ``precharged`` starts the output
    capacitor at the open-circuit voltage (supply settled before the drive
    starts)."""

    open_circuit_voltage: float = param("voc", 4500.0)
    internal_resistance: float = param("rint", 3e6)
    parallel_capacitance: float = param("cpar", 3e-9)
    precharged: bool = param("pre", True)


@dataclass(frozen=True)
class ProbeParams(_PositiveParams):
    """Oscilloscope probe input: resistance in parallel with capacitance."""

    input_resistance: float = param("rin", 100e6)
    input_capacitance: float = param("cin", 5.5e-12)


@dataclass(frozen=True)
class DeaLoadParams(_PositiveParams):
    """Actuator equivalent: series electrode resistance feeding the actuator
    capacitance in parallel with its leakage resistance."""

    capacitance: float = param("c", 49e-9)
    series_resistance: float = param("rs", 60e3)
    parallel_resistance: float = param("rp", 6.6e6)


@dataclass(frozen=True)
class Fragment:
    """Two-terminal subcircuit template over symbolic terminals "+" and "-".

    Each part is ``(kind, name, pos, neg, values)`` and is made only when the
    fragment is instantiated, so a part that fails its own check is named as
    in the circuit.  Part names start with their netlist type letter
    (R/C/S/V); instantiation splices the instance prefix in after it, so
    printed netlists keep the letter-coded statement form.
    """

    parts: Tuple[Tuple[type, str, str, str, Dict[str, Any]], ...]

    def instantiate(self, pos: str, neg: str, prefix: str) -> List[Component]:
        nodes = {"+": pos, "-": neg}
        return [kind(name[0] + prefix + name[1:], nodes.get(p, f"{prefix}_{p}"),
                     nodes.get(n, f"{prefix}_{n}"), **values)
                for kind, name, p, n, values in self.parts]


def expand_bench_supply(params: BenchSupplyParams) -> Fragment:
    """Bench generator fragment: slew-limited EMF behind its output resistance."""
    return Fragment((
        (VoltageSource, "V_emf", "e", "-", {"voltage": params.voltage,
                                            "slew": params.slew_limit}),
        (Resistor, "R_rout", "e", "+", {"resistance": params.output_resistance}),
    ))


def expand_converter(params: ConverterParams) -> Fragment:
    """Converter fragment: EMF behind ``rint``, ``cpar`` across the output.  The
    capacitor comes first, so the output terminals take their matrix rows
    before the EMF node."""
    ic = params.open_circuit_voltage if params.precharged else 0.0
    return Fragment((
        (Capacitor, "C_cpar", "+", "-", {"capacitance": params.parallel_capacitance,
                                         "initial_voltage": ic}),
        (Resistor, "R_rint", "e", "+", {"resistance": params.internal_resistance}),
        (VoltageSource, "V_emf", "e", "-", {"voltage": params.open_circuit_voltage}),
    ))


def expand_probe(params: ProbeParams) -> Fragment:
    """Scope probe fragment: ``rin`` parallel with ``cin``."""
    return Fragment(((Resistor, "R_rin", "+", "-", {"resistance": params.input_resistance}),
                     (Capacitor, "C_cin", "+", "-", {"capacitance": params.input_capacitance})))


def expand_dea_load(params: DeaLoadParams) -> Fragment:
    """Actuator load fragment: R_s in series with [C parallel R_p]."""
    rc = series_rc_load(params.series_resistance, params.capacitance)
    return Fragment(rc.parts + ((Resistor, "R_rp", "m", "-",
                                 {"resistance": params.parallel_resistance}),))


def series_rc_load(resistance: float, capacitance: float) -> Fragment:
    """Series-RC mimic load (the bench stand-in for an actuator): the
    actuator equivalent without its leakage branch."""
    return Fragment(((Resistor, "R_rs", "+", "m", {"resistance": resistance}),
                     (Capacitor, "C_c", "m", "-", {"capacitance": capacitance})))
