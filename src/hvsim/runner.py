"""Scenario execution: schedules switch drivers, runs the engine, and packages
probed waveforms together with supply-port current traces."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from .circuit import Circuit, Switch
from .devices import driver_schedule
from .engine import TransientResult, run_transient
from .scenario import Scenario, probe_label
from .waveform import Waveform


@dataclass
class RunResult:
    """Transient run output keyed the way the analysis layer consumes it."""

    scenario: Scenario
    raw: TransientResult
    shoot_through: float = 0.0  # seconds with both bridge sides commanded on

    @cached_property
    def waveforms(self) -> Dict[str, Waveform]:
        """Probe waveforms by probe label, built on first use."""
        out: Dict[str, Waveform] = {}
        for probe in self.scenario.probes:
            if isinstance(probe, str):
                out[probe_label(probe)] = self.raw.voltage(probe)
            else:
                out[probe_label(probe)] = self.raw.pair_voltage(*probe)
        return out

    def voltage(self, node: str) -> Waveform:
        return self.raw.voltage(node)

    def supply_port_current(self) -> Waveform:
        """Current delivered by the supply fragment ``sup`` into the circuit.

        For the converter this is the current leaving the output node (EMF
        branch minus the output-capacitor charging current); for the bench
        supply it is simply the EMF branch current.
        """
        candidates = ("Xsup__emf", "Vsup_emf")
        emf = next((n for n in candidates if n in self.raw.source_names), None)
        if emf is None:
            raise KeyError("no supply fragment named 'sup' in this circuit")
        delivered = self.raw.source_current(emf)
        if "Xsup__cpar" in self.raw.cap_names:
            delivered = Waveform(
                delivered.start,
                delivered.step,
                delivered.samples - self.raw.cap_current("Xsup__cpar").samples,
            )
        return delivered


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


def _shoot_through_seconds(circuit: Circuit, timelines, stop: float) -> float:
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


def run_scenario(scenario: Scenario) -> RunResult:
    timelines = switch_timelines(scenario.circuit, scenario.settings.stop)
    raw = run_transient(scenario.circuit, scenario.settings, timelines)
    st = _shoot_through_seconds(scenario.circuit, timelines, scenario.settings.stop)
    return RunResult(scenario=scenario, raw=raw, shoot_through=st)
