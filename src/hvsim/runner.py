"""Scenario execution: switch-driver schedules, their commanded overlap, engine runs."""

from __future__ import annotations

from typing import Dict, List, Tuple

from .circuit import Circuit, IntegrationSettings, Scenario, Switch
from .devices import driver_schedule
from .engine import TransientResult, run_transient


def switch_timelines(circuit: Circuit, settings: IntegrationSettings) -> Dict[str, Tuple[bool, list]]:
    """Initial state and delayed event schedule for every switch.

    Switches start in their :meth:`~hvsim.circuit.Switch.initial_state`; each
    commanded edge from t=0 on becomes a delayed event.  The edges are listed
    once for each control that a switch reads, and for no other, by
    :meth:`~hvsim.circuit.Circuit.control_edges` over the grid ``settings``,
    which bounds their count by its points first.
    """
    controls = circuit.control_map
    edges: Dict[str, tuple] = {}  # each read control's edges, listed once
    out: Dict[str, Tuple[bool, list]] = {}
    for sw in circuit.components:
        if isinstance(sw, Switch):
            if sw.control not in edges:
                edges[sw.control] = circuit.control_edges(sw.control, settings)
            out[sw.name] = (sw.initial_state(controls[sw.control]),
                            driver_schedule(edges[sw.control], sw, settings.stop))
    return out


def shoot_through_seconds(circuit: Circuit, timelines, stop: float) -> float:
    """Total time any non-inverted switch and any inverted switch sharing a
    control are simultaneously on (commanded overlap across a bridge), from
    the earlier of t=0 and the first event up to ``stop``: one sorted pass
    per control over its switches' ``(t, inverted, on-count change)`` rows."""
    on: Dict[str, Dict[bool, int]] = {}  # switches on, per control and side
    rows: Dict[str, List[Tuple[float, bool, int]]] = {}
    for comp in circuit.components:
        if isinstance(comp, Switch):
            initial, events = timelines[comp.name]
            state = int(initial)
            on.setdefault(comp.control, {True: 0, False: 0})[comp.invert] += state
            changes = rows.setdefault(comp.control, [(0.0, False, 0), (stop, False, 0)])
            for t, new_state in events:
                changes.append((t, comp.invert, int(new_state) - state))
                state = int(new_state)

    total = 0.0
    for control, changes in rows.items():
        changes.sort()
        count, t_prev = on[control], changes[0][0]
        for t, side, delta in changes:
            if t > stop:
                break
            if count[True] and count[False]:
                total += t - t_prev
            count[side] += delta
            t_prev = t
    return total


def run_scenario(scenario: Scenario) -> TransientResult:
    """Run ``scenario`` over its grid with every switch driver scheduled."""
    timelines = switch_timelines(scenario.circuit, scenario.settings)
    return run_transient(scenario.circuit, scenario.settings, timelines)
