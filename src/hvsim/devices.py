"""Behavioral device models: supplies, probes and loads.

Each two-terminal block is one :class:`Block` record: its fields are its
parameters, and :meth:`~Block.parts` lists its R/C/S/V parts over the
symbolic terminals ``"+"`` and ``"-"``; instantiating a block rebinds those
to real node labels and prefixes internal names.  Each ``*Params`` block is
also the key schema of one netlist ``X`` kind.
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

#: one part of a block: ``(kind, name, pos, neg, values)``
Part = Tuple[type, str, str, str, Dict[str, Any]]


class Block:
    """Base of the two-terminal blocks, whose every keyed float parameter is > 0.

    Each of a block's ``parts()`` is made into a component only when the
    block is instantiated, so a part that fails its own check is named as in
    the circuit.  Part names start with their netlist type letter (R/C/S/V);
    instantiation splices the instance prefix in after it, so printed
    netlists keep the letter-coded statement form.
    """

    def __post_init__(self) -> None:
        bad = [f"{p.key}=" for p in params(type(self))
               if p.type is float and not getattr(self, p.name) > 0]
        if bad:
            raise CircuitError(f"{', '.join(bad)} must be > 0")

    def instantiate(self, pos: str, neg: str, prefix: str) -> List[Component]:
        nodes = {"+": pos, "-": neg}
        return [kind(name[0] + prefix + name[1:], nodes.get(p, f"{prefix}_{p}"),
                     nodes.get(n, f"{prefix}_{n}"), **values)
                for kind, name, p, n, values in self.parts()]


@dataclass(frozen=True)
class BenchSupplyParams(Block):
    """Benchtop HV generator equivalent: a slew-limited EMF behind its output
    resistance.

    The output resistance and slew limit are calibration parameters (the
    generator itself is not characterized beyond its voltage setting); they
    matter only to startup ramps and fast transients.
    """

    voltage: float = param("v")
    output_resistance: float = param("rout", 1e3)
    slew_limit: float = param("slew", 35e6)  # V/s

    def parts(self) -> Tuple[Part, ...]:
        return ((VoltageSource, "V_emf", "e", "-", {"voltage": self.voltage,
                                                    "slew": self.slew_limit}),
                (Resistor, "R_rout", "e", "+", {"resistance": self.output_resistance}))


@dataclass(frozen=True)
class ConverterParams(Block):
    """Miniature DC-HVDC converter equivalent: EMF behind an internal resistor
    with a parallel output capacitor.  ``precharged`` starts the output
    capacitor at the open-circuit voltage (supply settled before the drive
    starts)."""

    open_circuit_voltage: float = param("voc", 4500.0)
    internal_resistance: float = param("rint", 3e6)
    parallel_capacitance: float = param("cpar", 3e-9)
    precharged: bool = param("pre", True)

    def parts(self) -> Tuple[Part, ...]:
        # the capacitor comes first, so the output terminals take their
        # matrix rows before the EMF node
        ic = self.open_circuit_voltage if self.precharged else 0.0
        return ((Capacitor, "C_cpar", "+", "-", {"capacitance": self.parallel_capacitance,
                                                 "initial_voltage": ic}),
                (Resistor, "R_rint", "e", "+", {"resistance": self.internal_resistance}),
                (VoltageSource, "V_emf", "e", "-", {"voltage": self.open_circuit_voltage}))


@dataclass(frozen=True)
class ProbeParams(Block):
    """Oscilloscope probe input: resistance in parallel with capacitance."""

    input_resistance: float = param("rin", 100e6)
    input_capacitance: float = param("cin", 5.5e-12)

    def parts(self) -> Tuple[Part, ...]:
        return ((Resistor, "R_rin", "+", "-", {"resistance": self.input_resistance}),
                (Capacitor, "C_cin", "+", "-", {"capacitance": self.input_capacitance}))


@dataclass(frozen=True)
class SeriesRC(Block):
    """Series-RC mimic load (the bench stand-in for an actuator): the
    actuator equivalent without its leakage branch.  It has no netlist key."""

    resistance: float
    capacitance: float

    def parts(self) -> Tuple[Part, ...]:
        return ((Resistor, "R_rs", "+", "m", {"resistance": self.resistance}),
                (Capacitor, "C_c", "m", "-", {"capacitance": self.capacitance}))


@dataclass(frozen=True)
class DeaLoadParams(Block):
    """Actuator equivalent: series electrode resistance feeding the actuator
    capacitance in parallel with its leakage resistance."""

    capacitance: float = param("c", 49e-9)
    series_resistance: float = param("rs", 60e3)
    parallel_resistance: float = param("rp", 6.6e6)

    def parts(self) -> Tuple[Part, ...]:
        return SeriesRC(self.series_resistance, self.capacitance).parts() + (
            (Resistor, "R_rp", "m", "-", {"resistance": self.parallel_resistance}),)
