"""Transient circuit simulator for a series-MOSFET high-voltage half-bridge,
its miniature DC-HVDC converter supply, and actuator-equivalent loads.

The package is organized around a small modified-nodal-analysis engine
(:mod:`hvsim.engine`) fed by an immutable circuit model (:mod:`hvsim.circuit`),
with behavioral device models (:mod:`hvsim.devices`), bridge builders
(:mod:`hvsim.topology`), a netlist language (:mod:`hvsim.netlist`), named
presets (:mod:`hvsim.presets`), measurement/sweep utilities
(:mod:`hvsim.analysis`), an electromechanical displacement model
(:mod:`hvsim.electromech`), and a CLI (:mod:`hvsim.cli`).
"""

from .circuit import (
    Capacitor,
    Circuit,
    CircuitError,
    ControlSignal,
    ConverterSource,
    Probe,
    Resistor,
    Switch,
    VoltageSource,
    stamp_checksum,
)
from .devices import (
    BenchSupplyParams,
    DeaLoadParams,
    Fragment,
    ScheduleError,
    ceramic_load,
    driver_schedule,
    expand_bench_supply,
    expand_dea_load,
    series_rc_load,
)
from .engine import (
    IntegrationSettings,
    SimulationError,
    TransientResult,
    dc_operating_point,
    run_transient,
)
from .netlist import NetlistError, format_value, parse, parse_file, parse_value, print_scenario
from .presets import PRESET_NAMES, PresetError, load_fragment, load_preset
from .runner import RunResult, run_scenario, switch_timelines
from .scenario import Scenario
from .topology import ChannelSpec, StackParams, build_dual_channel, build_half_bridge
from .waveform import Waveform, WaveformError, read_csv, write_csv

__version__ = "0.1.0"

__all__ = [
    "BenchSupplyParams",
    "Capacitor",
    "ChannelSpec",
    "Circuit",
    "CircuitError",
    "ControlSignal",
    "ConverterSource",
    "DeaLoadParams",
    "Fragment",
    "IntegrationSettings",
    "NetlistError",
    "PRESET_NAMES",
    "PresetError",
    "Probe",
    "Resistor",
    "RunResult",
    "Scenario",
    "ScheduleError",
    "SimulationError",
    "StackParams",
    "Switch",
    "TransientResult",
    "VoltageSource",
    "Waveform",
    "WaveformError",
    "build_dual_channel",
    "build_half_bridge",
    "ceramic_load",
    "dc_operating_point",
    "driver_schedule",
    "expand_bench_supply",
    "expand_dea_load",
    "format_value",
    "load_fragment",
    "load_preset",
    "parse",
    "parse_file",
    "parse_value",
    "print_scenario",
    "read_csv",
    "run_scenario",
    "run_transient",
    "series_rc_load",
    "stamp_checksum",
    "switch_timelines",
    "write_csv",
]
