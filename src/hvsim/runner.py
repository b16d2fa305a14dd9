"""Scenario execution: schedules the switch drivers and runs the engine."""

from __future__ import annotations

from typing import Dict, Tuple

from .circuit import Circuit, Switch
from .devices import driver_schedule
from .engine import TransientResult, run_transient
from .scenario import Scenario


def switch_timelines(circuit: Circuit, stop: float) -> Dict[str, Tuple[bool, list]]:
    """Initial state and delayed event schedule for every switch.

    Switches start in the state their control commands at t=0 (delays are
    treated as already elapsed); each commanded edge from t=0 on becomes a
    delayed event.
    """
    controls = circuit.control_map
    out: Dict[str, Tuple[bool, list]] = {}
    for comp in circuit.components:
        if not isinstance(comp, Switch):
            continue
        ctrl = controls[comp.control]
        initial = ctrl.state_at(0.0) ^ comp.invert
        out[comp.name] = (initial, driver_schedule(ctrl, comp, stop))
    return out


def run_scenario(scenario: Scenario) -> TransientResult:
    """Run ``scenario`` over its grid with every switch driver scheduled."""
    timelines = switch_timelines(scenario.circuit, scenario.settings.stop)
    return run_transient(scenario.circuit, scenario.settings, timelines)
