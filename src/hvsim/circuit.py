"""Circuit data model: components, control signals, the netlist graph, scenarios.

A :class:`Circuit` is an immutable bag of components plus named square-wave
control signals.  Node references are string labels; ``"0"`` and ``"GND"``
both denote the ground reference.  Components are the four primitives R, C,
S and V; two-terminal blocks (supplies, probes, loads) are built from them by
the fragments of :mod:`hvsim.devices`.  A :class:`Scenario` is one experiment
as a netlist describes it: the circuit, its ``.tran`` grid
(:class:`IntegrationSettings`) and its ``.probe`` requests.

Every netlist/``--set`` parameter is a dataclass field declared with
:func:`param`, which carries its key; the field default is the parameter
default.  The netlist parser, the canonical printer and ``--set`` all read
parameters through :func:`params`.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

GROUND_LABELS = ("0", "GND")


class CircuitError(ValueError):
    """A circuit violates a structural invariant (bad value, floating node...)."""


class ScheduleError(ValueError):
    """The grid or the drivers cannot follow a control's commanded edges:
    driver delays reorder a switch's events, two events snap to one grid
    index, or a control commands more edges than the grid has points."""


def is_ground(label: str) -> bool:
    return label in GROUND_LABELS


def param(key: str, default: Any = MISSING, positional: bool = False) -> Any:
    """Dataclass field with its netlist/``--set`` key.

    A ``positional`` parameter is written as a bare value (a component's
    ``value``, the ``.tran`` step and stop); the rest as ``key=value``.  A
    parameter without a default is required.
    """
    return field(default=default, metadata={"key": key, "positional": positional})


class Param(NamedTuple):
    """One keyed field of a parameter dataclass."""

    key: str
    name: str
    type: type  # float, bool (a 0/1 flag), int (a count) or str (a control name)
    default: Any  # dataclasses.MISSING when required
    positional: bool


@functools.lru_cache(maxsize=None)
def params(cls: type) -> Tuple[Param, ...]:
    """The keyed fields of ``cls`` in declaration order; ``Optional[T]`` has type ``T``."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in fields(cls):
        if "key" in f.metadata:
            hint = hints[f.name]
            args = [a for a in typing.get_args(hint) if a is not type(None)]
            out.append(Param(f.metadata["key"], f.name, args[0] if args else hint,
                             f.default, f.metadata["positional"]))
    return tuple(out)


@dataclass(frozen=True)
class ControlSignal:
    """Square-wave command: high for the first ``duty`` fraction of each period.

    ``phase`` shifts the waveform right by ``phase / (2*pi)`` periods.  A zero
    frequency yields a constant signal (the state at t=0 holds forever).
    """

    frequency: float = param("f")
    duty: float = param("duty", 0.5)
    phase: float = param("phase", 0.0)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.frequency) and math.isfinite(self.phase)):
            raise CircuitError(
                f"control frequency and phase must be finite, got f={self.frequency} "
                f"phase={self.phase}"
            )
        if self.frequency < 0:
            raise CircuitError(f"control frequency must be >= 0, got {self.frequency}")
        if not 0.0 < self.duty < 1.0:
            raise CircuitError(f"control duty must be in (0, 1), got {self.duty}")

    @property
    def phase_periods(self) -> float:
        return (self.phase / (2.0 * math.pi)) % 1.0

    def state_at(self, t: float) -> bool:
        if self.frequency == 0.0:
            x = (-self.phase_periods) % 1.0
        else:
            x = (t * self.frequency - self.phase_periods) % 1.0
        return x < self.duty

    def edges(self, stop: float) -> List[Tuple[float, bool]]:
        """Commanded state changes in [0, stop], as (time, new_state)."""
        if self.frequency == 0.0:
            return []
        period = 1.0 / self.frequency
        out: List[Tuple[float, bool]] = []
        k = -1  # start one period early so a fall from a pre-zero rise is kept
        while True:
            rise = (k + self.phase_periods) * period
            fall = rise + self.duty * period
            if not rise <= stop:  # a NaN stop ends the scan as well
                break
            for t, state in ((rise, True), (fall, False)):
                if 0.0 <= t <= stop:
                    out.append((t, state))
            k += 1
        out.sort(key=lambda e: e[0])
        return out


@dataclass(frozen=True)
class Resistor:
    name: str
    pos: str
    neg: str
    resistance: float = param("value", positional=True)

    def __post_init__(self) -> None:
        if not self.resistance > 0:
            raise CircuitError(f"{self.name}: resistance must be > 0, got {self.resistance}")
        if math.isinf(1.0 / self.resistance):
            raise CircuitError(f"{self.name}: conductance of resistance {self.resistance!r} overflows")


@dataclass(frozen=True)
class Capacitor:
    """Linear capacitor; ``initial_voltage`` is the pre-charge applied when a
    transient starts."""

    name: str
    pos: str
    neg: str
    capacitance: float = param("value", positional=True)
    initial_voltage: float = param("ic", 0.0)

    def __post_init__(self) -> None:
        if not self.capacitance > 0:
            raise CircuitError(f"{self.name}: capacitance must be > 0, got {self.capacitance}")


@dataclass(frozen=True)
class Switch:
    """Voltage-controlled switch with its photovoltaic gate driver folded in.

    The switch follows the named control signal (inverted when ``invert``),
    with rising commands delayed by ``turn_on_delay + delay_offset`` and
    falling commands by ``turn_off_delay + delay_offset``; the offset models
    part-to-part driver mismatch.
    """

    name: str
    pos: str
    neg: str
    control: str = param("ctrl")
    ron: float = param("ron", 5.0)
    roff: float = param("roff", 1e9)
    invert: bool = param("inv", False)
    turn_on_delay: float = param("ton", 0.4e-3)
    turn_off_delay: float = param("toff", 0.1e-3)
    delay_offset: float = param("offset", 0.0)

    def __post_init__(self) -> None:
        if not self.ron > 0 or not self.roff > 0:
            raise CircuitError(f"{self.name}: switch resistances must be > 0")
        if math.isinf(1.0 / self.ron):  # roff > ron: 1/roff is finite then
            raise CircuitError(f"{self.name}: conductance of on-resistance {self.ron!r} overflows")
        if not self.ron < self.roff:
            raise CircuitError(
                f"{self.name}: on-resistance {self.ron} must be below off-resistance {self.roff}"
            )
        for key in ("turn_on_delay", "turn_off_delay", "delay_offset"):
            if not math.isfinite(getattr(self, key)):
                raise CircuitError(f"{self.name}: {key} must be finite, got {getattr(self, key)}")
        if self.turn_on_delay < 0 or self.turn_off_delay < 0:
            raise CircuitError(f"{self.name}: driver delays must be >= 0")

    def initial_state(self, control: ControlSignal) -> bool:
        """State at t=0: ``control``'s command then, inverted when ``invert``
        (the driver delays are taken as already elapsed)."""
        return control.state_at(0.0) ^ self.invert

    def events(self, edges: Sequence[Tuple[float, bool]], stop: float) -> List[Tuple[float, bool]]:
        """``(time, state)`` changes up to ``stop`` from the control's commanded
        ``edges``: an edge that turns the switch on (a rising one, falling when
        ``invert``) lands ``turn_on_delay + delay_offset`` later, the others
        ``turn_off_delay + delay_offset`` later.  Raises
        :class:`ScheduleError` when a delayed event would land at or past the
        event of the next commanded edge (command period too short for the
        driver)."""
        events: List[Tuple[float, bool]] = []
        t_a = None  # the previous event's time
        for t_cmd, state in edges:
            if self.invert:
                state = not state
            delay = self.turn_on_delay if state else self.turn_off_delay
            t_b = t_cmd + delay + self.delay_offset
            if t_a is not None and not t_a < t_b:
                raise ScheduleError(
                    f"driver delays reorder events at t={t_a!r}: command period too "
                    f"short for driver (on={self.turn_on_delay}, off={self.turn_off_delay})"
                )
            if t_b <= stop:
                events.append((t_b, state))
            t_a = t_b
        return events


@dataclass(frozen=True)
class VoltageSource:
    """Ideal voltage source, optionally slew-limited or gated by a control.

    With ``slew`` set, the EMF ramps from 0 toward the target at that rate
    (V/s).  With ``control`` set, the target is ``voltage`` while the control
    is high and 0 while low.
    """

    name: str
    pos: str
    neg: str
    voltage: float = param("value", positional=True)
    slew: Optional[float] = param("slew", None)
    control: Optional[str] = param("ctrl", None)

    def __post_init__(self) -> None:
        if self.slew is not None and not self.slew > 0:
            raise CircuitError(f"{self.name}: slew limit must be > 0")


Component = Union[Resistor, Capacitor, Switch, VoltageSource]


@dataclass(frozen=True)
class Circuit:
    """Immutable component graph plus named control signals.

    Each component checks its own fields when it is made; a circuit checks
    its structure (:meth:`validate`).  ``memo`` keeps what depends on the
    structure alone (a passed check, node labels, part positions, control
    edge lists, the engine's lowering), each worked out once by its reader;
    a copy made by :meth:`with_parts` with the structure unchanged shares it.
    """

    components: Tuple[Component, ...]
    controls: Tuple[Tuple[str, ControlSignal], ...] = ()
    memo: Dict[Any, Any] = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def build(components: Sequence[Component], controls: Optional[Dict[str, ControlSignal]] = None) -> "Circuit":
        circuit = Circuit(
            components=tuple(components),
            controls=tuple((controls or {}).items()),
        )
        circuit.validate()
        return circuit

    @property
    def control_map(self) -> Dict[str, ControlSignal]:
        return dict(self.controls)

    def node_labels(self) -> List[str]:
        """All non-ground node labels in first-appearance order."""
        if "labels" not in self.memo:
            self.memo["labels"] = tuple(dict.fromkeys(
                label for comp in self.components for label in (comp.pos, comp.neg)
                if not is_ground(label)
            ))
        return list(self.memo["labels"])

    def control_edges(self, name: str, settings: "IntegrationSettings") -> Tuple[Tuple[float, bool], ...]:
        """Control ``name``'s :meth:`ControlSignal.edges` over the grid ``settings``,
        kept in ``memo``; one that commands more edges than the grid has points
        raises :class:`ScheduleError` before its list is built (the bound caps it)."""
        ctrl = self.control_map[name]
        stop, points = settings.stop, settings.n_steps + 1
        if 2.0 * ctrl.frequency * stop > points:
            raise ScheduleError(f"control {name!r}: f={ctrl.frequency!r} Hz commands more "
                                f"edges than the {points} grid points")
        key = ("edges", name, stop)
        if key not in self.memo:
            self.memo[key] = tuple(ctrl.edges(stop))
        return self.memo[key]

    def component(self, name: str) -> Component:
        for comp in self.components:
            if comp.name == name:
                return comp
        raise KeyError(name)

    def with_replaced(self, name: str, **changes) -> "Circuit":
        """Copy with one component's fields replaced (see :meth:`with_parts`)."""
        return self.with_parts({name: replace(self.component(name), **changes)})

    def with_parts(self, parts: Mapping[str, Component]) -> "Circuit":
        """Copy with ``parts[name]`` in place of the component ``name``.

        If every new part keeps the kind, name, nodes and control of the one
        it replaces, the copy shares this circuit's ``memo``: its structure,
        and so the outcome of :meth:`validate`, is this circuit's.
        """
        comps = list(self.components)
        where = self.memo.get("where")  # name -> position, structural too
        if where is None:
            where = self.memo["where"] = {comp.name: i for i, comp in enumerate(comps)}
        same = True
        for name, part in parts.items():
            old, comps[where[name]] = comps[where[name]], part
            same = same and type(part) is type(old) and (
                (part.name, part.pos, part.neg, getattr(part, "control", None))
                == (old.name, old.pos, old.neg, getattr(old, "control", None)))
        derived = Circuit(tuple(comps), self.controls)
        if same:
            object.__setattr__(derived, "memo", self.memo)
        return derived

    def validate(self) -> None:
        """Raise :class:`CircuitError` at the first broken structural invariant:
        a duplicate name, an undefined control or a node with no DC path.  A
        pass is kept in ``memo``; a failure is not."""
        if "checked" in self.memo:
            return
        names = set()
        for comp in self.components:
            if comp.name in names:
                raise CircuitError(f"duplicate component name {comp.name!r}")
            names.add(comp.name)

        controls = self.control_map
        for comp in self.components:
            ctrl = getattr(comp, "control", None)
            if ctrl is not None and ctrl not in controls:
                raise CircuitError(f"{comp.name}: undefined control {ctrl!r}")

        self._check_dc_connectivity()
        self.memo["checked"] = True

    def _check_dc_connectivity(self) -> None:
        # union-find over DC-conducting edges; every node must reach ground
        parent: Dict[str, str] = {"0": "0"}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def canon(label: str) -> str:
            return "0" if is_ground(label) else label

        for comp in self.components:
            a, b = canon(comp.pos), canon(comp.neg)
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            if not isinstance(comp, Capacitor):  # every other kind conducts at DC
                parent[find(a)] = find(b)  # union

        ground_root = find("0")
        for label in parent:
            if find(label) != ground_root:
                raise CircuitError(
                    f"node {label!r} has no DC path to ground (floating subcircuit)"
                )


#: Most grid points (``stop / step + 1``) a run may have: 40 times the largest
#: preset (slew, 250,001) and 20 times a 5 kHz fig7 sweep cell (502,001).  A
#: capacitive run stores every point of every unknown, so a larger grid would
#: take gigabytes before it finished.
MAX_GRID_POINTS = 10_000_000


@dataclass(frozen=True)
class IntegrationSettings:
    """Fixed integration grid plus post-event damping depth."""

    step: float = param("step", positional=True)
    stop: float = param("stop", positional=True)
    damping_steps: int = param("damp", 2)

    def __post_init__(self) -> None:
        if not self.step > 0:
            raise CircuitError(f"integration step must be > 0, got {self.step}")
        if not math.isfinite(self.stop):
            raise CircuitError(f"stop time must be finite, got {self.stop}")
        if not self.stop >= self.step:
            raise CircuitError(f"stop time must be >= step, got {self.stop}")
        if not self.stop / self.step + 1 <= MAX_GRID_POINTS:  # inf fails too
            raise CircuitError(
                f"grid of stop/step = {self.stop / self.step:.3g} steps exceeds "
                f"{MAX_GRID_POINTS} points"
            )
        if self.damping_steps < 0:
            raise CircuitError("damping steps must be >= 0")

    @property
    def n_steps(self) -> int:
        return int(round(self.stop / self.step))


#: probe request: a node label, or a (pos, neg) node pair for a differential trace
ProbeSpec = Union[str, Tuple[str, str]]


def probe_label(probe: ProbeSpec) -> str:
    if isinstance(probe, str):
        return f"V_{probe}"
    return f"V_{probe[0]}_{probe[1]}"


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one transient experiment."""

    circuit: Circuit
    settings: IntegrationSettings
    probes: Tuple[ProbeSpec, ...] = ()

    def __post_init__(self) -> None:
        known = set(self.circuit.node_labels())
        for probe in self.probes:
            nodes = (probe,) if isinstance(probe, str) else probe
            for node in nodes:
                if not is_ground(node) and node not in known:
                    raise CircuitError(f"probe references unknown node {node!r}")

    def with_settings(self, **changes) -> "Scenario":
        return replace(self, settings=replace(self.settings, **changes))
