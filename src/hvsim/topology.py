"""Builders for the series-stack half-bridge and its variants.

The single-channel bridge exposes the measurement nodes ``A`` (supply rail),
``B`` (between the high-side devices), ``O`` (output midpoint), ``C`` (between
the low-side devices); the bottom of the stack is ground (point ``D``).
High-side switches follow the control signal directly, low-side switches
follow its complement, so the asymmetric driver delays give natural
break-before-make behavior.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .circuit import (
    Capacitor,
    Circuit,
    CircuitError,
    Component,
    ControlSignal,
    Resistor,
    Switch,
)
from .devices import Fragment, ProbeParams, expand_probe

#: Per-device off-resistances, top to bottom (high side first): the
#: 900 MOhm / 100 MOhm pairs model the leakage mismatch that skews static
#: sharing (a 9:1 modeling choice, not a measured value).
OFF_RESISTANCES = (900e6, 100e6, 900e6, 100e6)
#: Per-device driver offsets: the 50 us offset on the second device of each
#: side models driver mismatch during transitions.
DRIVER_OFFSETS = (0.0, 50e-6, 0.0, 50e-6)


def _stack_devices(
    nodes: Sequence[str],
    control: str,
    prefix: str,
    balancing: Optional[float],
    snubber: Optional[float],
    driver_offsets: Sequence[float],
) -> List[Component]:
    """The four devices of one stack along ``nodes`` (A, B, O, C, 0), with
    the :data:`OFF_RESISTANCES`, each with its balancing resistor and snubber
    when given; the lower two follow the complement of ``control``."""
    comps: List[Component] = []
    for i, (pos, neg) in enumerate(zip(nodes, nodes[1:])):
        comps.append(
            Switch(
                name=f"S{prefix}q{i + 1}",
                pos=pos,
                neg=neg,
                control=control,
                roff=OFF_RESISTANCES[i],
                invert=i >= 2,
                delay_offset=driver_offsets[i],
            )
        )
        if balancing is not None:
            comps.append(Resistor(f"R{prefix}b{i + 1}", pos, neg, balancing))
        if snubber is not None:
            comps.append(Capacitor(f"C{prefix}sn{i + 1}", pos, neg, snubber))
    return comps


def build_half_bridge(
    supply: Fragment,
    load: Optional[Fragment],
    control: ControlSignal,
    *,
    balancing: Optional[float] = 3.6e6,
    snubber: Optional[float] = None,
    driver_offsets: Sequence[float] = DRIVER_OFFSETS,
    probe_nodes: Sequence[str] = (),
) -> Circuit:
    """Single-channel bridge with labeled nodes A, B, O, C (D is ground).

    ``supply`` feeds A; ``control`` drives every switch under the name ``g``.
    Every device gets a ``balancing`` resistor and a ``snubber`` capacitor
    unless that value is None; ``driver_offsets`` gives the four devices top
    to bottom.  ``probe_nodes`` each get a scope probe, the parts
    ``Rscope<node>_rin`` and ``Cscope<node>_cin``.
    """
    if len(driver_offsets) != 4:
        raise CircuitError(f"need 4 driver offsets, got {len(driver_offsets)}")
    comps: List[Component] = supply.instantiate("A", "0", "sup")
    comps.extend(_stack_devices(("A", "B", "O", "C", "0"), "g", "", balancing, snubber,
                                driver_offsets))
    if load is not None:
        comps.extend(load.instantiate("O", "0", "load"))
    for node in probe_nodes:
        comps.extend(expand_probe(ProbeParams()).instantiate(node, "0", f"scope{node}"))
    return Circuit.build(comps, {"g": control})


def build_dual_channel(
    supply: Fragment, controls: Sequence[ControlSignal], load: Fragment
) -> Circuit:
    """Two bridges sharing one supply, each through a 1.8 MOhm-balanced
    stack into its own copy of ``load``; channel ``k`` follows ``controls[k-1]``
    under the name ``g<k>`` and its nodes get the suffix ``k``."""
    comps: List[Component] = supply.instantiate("A", "0", "sup")
    names: Dict[str, ControlSignal] = {}
    for k, control in enumerate(controls, start=1):
        names[f"g{k}"] = control
        nodes = ("A", f"B{k}", f"O{k}", f"C{k}", "0")
        comps.extend(_stack_devices(nodes, f"g{k}", f"ch{k}", 1.8e6, None, DRIVER_OFFSETS))
        comps.extend(load.instantiate(f"O{k}", "0", f"load{k}"))
    return Circuit.build(comps, names)
