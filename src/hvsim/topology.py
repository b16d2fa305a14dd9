"""Builders for the series-stack half-bridge and its variants.

The single-channel bridge exposes the measurement nodes ``A`` (supply rail),
``B`` (between the high-side devices), ``O`` (output midpoint), ``C`` (between
the low-side devices); the bottom of the stack is ground (point ``D``).
High-side switches follow the control signal directly, low-side switches
follow its complement, so the asymmetric driver delays give natural
break-before-make behavior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .circuit import (
    Capacitor,
    Circuit,
    CircuitError,
    Component,
    ControlSignal,
    Probe,
    Resistor,
    Switch,
)
from .devices import Fragment


@dataclass(frozen=True)
class StackParams:
    """Per-channel series-stack configuration: two devices per side.

    The per-device sequences run top to bottom: high side first, then low
    side.  The 900 MOhm / 100 MOhm default off-resistances model the leakage
    mismatch that skews static sharing (a 9:1 modeling choice, not a measured
    value); the 50 us driver offset on the second device of each side models
    driver mismatch during transitions.  On-resistance and driver delays are
    the :class:`~hvsim.circuit.Switch` defaults.
    """

    balancing_resistance: Optional[float] = 3.6e6
    snubber_capacitance: Optional[float] = None
    off_resistances: Sequence[float] = (900e6, 100e6, 900e6, 100e6)
    driver_offsets: Sequence[float] = (0.0, 50e-6, 0.0, 50e-6)

    def __post_init__(self) -> None:
        if len(self.off_resistances) != 4:
            raise CircuitError(f"need 4 off-resistances, got {len(self.off_resistances)}")
        if len(self.driver_offsets) != 4:
            raise CircuitError(f"need 4 driver offsets, got {len(self.driver_offsets)}")
        if self.balancing_resistance is not None and not self.balancing_resistance > 0:
            raise CircuitError("balancing resistance must be positive or None")
        if self.snubber_capacitance is not None and not self.snubber_capacitance > 0:
            raise CircuitError("snubber capacitance must be positive or None")


@dataclass(frozen=True)
class ChannelSpec:
    """One output channel of a multi-channel configuration."""

    control: ControlSignal
    load: Optional[Fragment]


def _stack_side(
    params: StackParams,
    control_name: str,
    invert: bool,
    nodes: Sequence[str],
    base_index: int,
    prefix: str,
) -> List[Component]:
    comps: List[Component] = []
    for i, (pos, neg) in enumerate(zip(nodes, nodes[1:])):
        di = base_index + i
        comps.append(
            Switch(
                name=f"S{prefix}q{di + 1}",
                pos=pos,
                neg=neg,
                control=control_name,
                roff=params.off_resistances[di],
                invert=invert,
                delay_offset=params.driver_offsets[di],
            )
        )
        if params.balancing_resistance is not None:
            comps.append(
                Resistor(f"R{prefix}b{di + 1}", pos, neg, params.balancing_resistance)
            )
        if params.snubber_capacitance is not None:
            comps.append(
                Capacitor(f"C{prefix}sn{di + 1}", pos, neg, params.snubber_capacitance)
            )
    return comps


def build_half_bridge(
    supply: Fragment,
    stack: StackParams,
    load: Optional[Fragment],
    control: ControlSignal,
    probe_nodes: Sequence[str] = (),
) -> Circuit:
    """Single-channel bridge with labeled nodes A, B, O, C (D is ground).

    ``supply`` feeds A; ``control`` drives every switch under the name ``g``;
    ``probe_nodes`` each get a scope probe ``Xscope<node>``.
    """
    comps: List[Component] = supply.instantiate("A", "0", "sup")

    comps.extend(_stack_side(stack, "g", False, ("A", "B", "O"), 0, ""))
    comps.extend(_stack_side(stack, "g", True, ("O", "C", "0"), 2, ""))

    if load is not None:
        comps.extend(load.instantiate("O", "0", "load"))
    comps.extend(Probe(f"Xscope{node}", node, "0") for node in probe_nodes)

    return Circuit.build(comps, {"g": control})


def build_dual_channel(
    supply: Fragment, channels: Tuple[ChannelSpec, ChannelSpec]
) -> Circuit:
    """Two bridges sharing one supply, each through a 1.8 MOhm-balanced
    stack; per-channel nodes get 1/2 suffixes."""
    stack = StackParams(balancing_resistance=1.8e6)
    comps: List[Component] = supply.instantiate("A", "0", "sup")
    controls: Dict[str, ControlSignal] = {}
    for ch_i, channel in enumerate(channels, start=1):
        tag = str(ch_i)
        ctrl_name = f"g{tag}"
        controls[ctrl_name] = channel.control
        high = ("A", f"B{tag}", f"O{tag}")
        low = (f"O{tag}", f"C{tag}", "0")
        comps.extend(_stack_side(stack, ctrl_name, False, high, 0, f"ch{tag}"))
        comps.extend(_stack_side(stack, ctrl_name, True, low, 2, f"ch{tag}"))
        if channel.load is not None:
            comps.extend(channel.load.instantiate(f"O{tag}", "0", f"load{tag}"))
    return Circuit.build(comps, controls)
