"""Scenario execution: schedules switch drivers, runs the engine, and packages
probed waveforms together with supply-port current traces."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .circuit import Circuit, Switch
from .devices import DriverSpec, driver_schedule
from .engine import TransientResult, run_transient
from .scenario import Scenario, probe_label
from .waveform import Waveform


@dataclass
class RunResult:
    """Transient run output keyed the way the analysis layer consumes it."""

    scenario: Scenario
    raw: TransientResult
    waveforms: Dict[str, Waveform]
    shoot_through: float = 0.0  # seconds with both bridge sides commanded on

    def voltage(self, node: str) -> Waveform:
        return self.raw.voltage(node)

    def supply_port_current(self, prefix: str = "sup") -> Waveform:
        """Current delivered by the named supply fragment into the circuit.

        For the converter this is the current leaving the output node (EMF
        branch minus the output-capacitor charging current); for the bench
        supply it is simply the EMF branch current.
        """
        candidates = (f"X{prefix}__emf", f"V{prefix}_emf")
        emf = next((n for n in candidates if n in self.raw.source_names), None)
        if emf is None:
            raise KeyError(f"no supply fragment named {prefix!r} in this circuit")
        delivered = self.raw.source_current(emf)
        cpar = f"X{prefix}__cpar"
        if cpar in self.raw.cap_names:
            delivered = Waveform(
                delivered.start,
                delivered.step,
                delivered.samples - self.raw.cap_current(cpar).samples,
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
        driver = DriverSpec(
            turn_on_delay=comp.turn_on_delay,
            turn_off_delay=comp.turn_off_delay,
            delay_offset=comp.delay_offset,
        )
        initial = ctrl.state_at(0.0) ^ comp.invert
        events = driver_schedule(ctrl, driver, stop, invert=comp.invert)
        out[comp.name] = (initial, events)
    return out


def _shoot_through_seconds(circuit: Circuit, timelines, stop: float) -> float:
    """Total time any non-inverted switch and any inverted switch sharing a
    control are simultaneously on (commanded overlap across a bridge)."""

    def state_fn(name: str):
        initial, events = timelines[name]
        times = [t for t, _ in events]
        states = [s for _, s in events]

        def at(t: float) -> bool:
            s = initial
            for te, se in zip(times, states):
                if te <= t:
                    s = se
                else:
                    break
            return s

        return at

    groups: Dict[str, Dict[bool, List[str]]] = {}
    for comp in circuit.components:
        if isinstance(comp, Switch):
            groups.setdefault(comp.control, {True: [], False: []})[comp.invert].append(
                comp.name
            )

    total = 0.0
    for ctrl, sides in groups.items():
        if not sides[True] or not sides[False]:
            continue
        boundaries = {0.0, stop}
        for name in sides[True] + sides[False]:
            boundaries.update(t for t, _ in timelines[name][1] if t < stop)
        pts = sorted(boundaries)
        fns_hi = [state_fn(n) for n in sides[False]]
        fns_lo = [state_fn(n) for n in sides[True]]
        for t0, t1 in zip(pts, pts[1:]):
            tm = 0.5 * (t0 + t1)
            if any(f(tm) for f in fns_hi) and any(f(tm) for f in fns_lo):
                total += t1 - t0
    return total


def run_scenario(scenario: Scenario) -> RunResult:
    timelines = switch_timelines(scenario.circuit, scenario.settings.stop)
    raw = run_transient(scenario.circuit, scenario.settings, timelines)
    waveforms: Dict[str, Waveform] = {}
    for probe in scenario.probes:
        if isinstance(probe, str):
            waveforms[probe_label(probe)] = raw.voltage(probe)
        else:
            waveforms[probe_label(probe)] = raw.pair_voltage(*probe)
    st = _shoot_through_seconds(scenario.circuit, timelines, scenario.settings.stop)
    return RunResult(scenario=scenario, raw=raw, waveforms=waveforms, shoot_through=st)
