"""Scenario execution: switch-driver schedules, their commanded overlap, engine runs."""

from __future__ import annotations

from typing import Dict, List, Tuple

from .circuit import Circuit, Switch
from .devices import driver_schedule
from .engine import TransientResult, run_transient
from .scenario import Scenario


def switch_timelines(circuit: Circuit, stop: float) -> Dict[str, Tuple[bool, list]]:
    """Initial state and delayed event schedule for every switch.

    Switches start in the state their control commands at t=0 (delays are
    treated as already elapsed); each commanded edge from t=0 on becomes a
    delayed event.  Each control's commanded edges are built once.
    """
    controls = circuit.control_map
    edges = {name: ctrl.edges(stop) for name, ctrl in controls.items()}
    out: Dict[str, Tuple[bool, list]] = {}
    for comp in circuit.components:
        if not isinstance(comp, Switch):
            continue
        initial = controls[comp.control].state_at(0.0) ^ comp.invert
        out[comp.name] = (initial, driver_schedule(edges[comp.control], comp, stop))
    return out


def shoot_through_seconds(circuit: Circuit, timelines, stop: float) -> float:
    """Total time any non-inverted switch and any inverted switch sharing a
    control are simultaneously on (commanded overlap across a bridge): one
    pass per control over its switches' time-ordered events, counting each
    interval between adjacent boundaries whose midpoint has both sides on."""
    groups: Dict[str, Dict[bool, List[str]]] = {}
    for comp in circuit.components:
        if isinstance(comp, Switch):
            groups.setdefault(comp.control, {True: [], False: []})[comp.invert].append(
                comp.name
            )

    total = 0.0
    for sides in groups.values():
        if not sides[True] or not sides[False]:
            continue
        on = {True: 0, False: 0}  # switches on, per side
        changes: List[Tuple[float, bool, int]] = []
        boundaries = {0.0, stop}
        for side, names in sides.items():
            for name in names:
                initial, events = timelines[name]
                state = int(initial)
                on[side] += state
                for t, new_state in events:
                    changes.append((t, side, int(new_state) - state))
                    state = int(new_state)
                boundaries.update(t for t, _ in events if t < stop)
        changes.sort()
        pts = sorted(boundaries)
        k = 0
        for t0, t1 in zip(pts, pts[1:]):
            tm = 0.5 * (t0 + t1)
            while k < len(changes) and changes[k][0] <= tm:
                on[changes[k][1]] += changes[k][2]
                k += 1
            if on[True] and on[False]:
                total += t1 - t0
    return total


def run_scenario(scenario: Scenario) -> TransientResult:
    """Run ``scenario`` over its grid with every switch driver scheduled."""
    timelines = switch_timelines(scenario.circuit, scenario.settings.stop)
    return run_transient(scenario.circuit, scenario.settings, timelines)
