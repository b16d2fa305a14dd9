"""Named scenario presets for the bench experiments the simulator reproduces.

Each preset returns a :class:`~hvsim.circuit.Scenario`: every single-channel
one is made by :func:`bridge_scenario`, fig7c's two channels by
:func:`dual_channel_with_phase`.  The single-channel bridge exposes the
measurement nodes ``A`` (supply rail), ``B`` (between the high-side devices),
``O`` (output midpoint), ``C`` (between the low-side devices); the bottom of
the stack is ground (point ``D``).  High-side switches follow the control
signal directly, low-side switches follow its complement, so the asymmetric
driver delays give natural break-before-make behavior.  The
voltage-distribution presets (fig2, fig3) deliberately omit the scope-probe
models so their steady drops match the bare divider arithmetic; the
transient-imbalance and slew presets include probes, whose input capacitance
is the modeled node parasitic.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .circuit import (Capacitor, Circuit, CircuitError, Component, ControlSignal,
                      IntegrationSettings, Resistor, Scenario, Switch)
from .devices import (Block, BenchSupplyParams, ConverterParams, DeaLoadParams, ProbeParams,
                      SeriesRC)


class PresetError(ValueError):
    pass


#: derating calibration of the ceramic load capacitors (per volt of bias)
CERAMIC_DERATING = 2e-4

#: sweep grids matching the published load/frequency studies
FIG7_FREQUENCIES = (2.0, 5.0, 10.0, 30.0, 100.0, 300.0, 1000.0)
FIG7_LOADS = ("10n", "20n", "50n", "dea")
FIG8_FREQUENCIES = (1.0, 2.0, 15.0, 30.0, 60.0, 120.0)
FIG7C_PHASES = (0.0, math.pi / 2, math.pi)

#: the miniature DC-HVDC converter supply at its ConverterParams defaults
CONVERTER = ConverterParams()

#: Per-device off-resistances, top to bottom (high side first): the
#: 900 MOhm / 100 MOhm pairs model the leakage mismatch that skews static
#: sharing (a 9:1 modeling choice, not a measured value).
OFF_RESISTANCES = (900e6, 100e6, 900e6, 100e6)
#: Per-device driver offsets: the 50 us offset on the second device of each
#: side models driver mismatch during transitions.
DRIVER_OFFSETS = (0.0, 50e-6, 0.0, 50e-6)


def load_fragment(descriptor: str) -> Block:
    """Load blocks by CLI descriptor: ``10n``/``20n``/``50n`` are ceramic
    capacitors in series with 100 kOhm, each derated linearly to its value at
    the 1.8 kV set voltage; ``dea`` is the actuator equivalent."""
    key = descriptor.strip()
    if key == "dea":
        return DeaLoadParams()
    if key in ("10n", "20n", "50n"):
        c0 = {"10n": 10e-9, "20n": 20e-9, "50n": 50e-9}[key]
        return SeriesRC(100e3, c0 * (1.0 - CERAMIC_DERATING * 1800.0))
    raise PresetError(f"unknown load descriptor {descriptor!r} (10n, 20n, 50n, dea)")


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


def bridge_scenario(supply: Block, load: Optional[Block], control: ControlSignal,
                    step: float, stop: float, probes: Tuple[str, ...], *,
                    balancing: Optional[float] = 3.6e6, snubber: Optional[float] = None,
                    driver_offsets: Sequence[float] = DRIVER_OFFSETS,
                    probe_nodes: Sequence[str] = ()) -> Scenario:
    """Every single-channel bridge run: ``supply`` feeding A of the series
    stack, driven by ``control`` (every switch reads it under the name ``g``)
    into ``load`` at O, on the grid ``step`` up to ``stop``.

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
        comps.extend(ProbeParams().instantiate(node, "0", f"scope{node}"))
    return Scenario(Circuit.build(comps, {"g": control}),
                    IntegrationSettings(step=step, stop=stop), probes=probes)


def _distribution(
    balancing: Optional[float], voltage: float = 800.0, step: float = 100e-6
) -> Scenario:
    """Static-sharing bench (fig2/fig3 and the nominal of their Monte-Carlo
    trials): the unloaded bench-fed stack at 1 Hz, probed at A, B, O and C."""
    return bridge_scenario(BenchSupplyParams(voltage), None, ControlSignal(frequency=1.0), step,
                           2.0, ("A", "B", "O", "C"), balancing=balancing)


def _fig4(snubber: Optional[float]) -> Scenario:
    return bridge_scenario(BenchSupplyParams(1800.0), None, ControlSignal(frequency=1000.0),
                           1e-6, 11e-3, ("A", "B", "O", "C"), snubber=snubber,
                           probe_nodes=("B", "O", "C"))


def converter_scenario(frequency: float, load: str, periods: int, step: float,
                       probes: Tuple[str, ...], balancing: float = 1.8e6,
                       supply: Block = CONVERTER) -> Scenario:
    """The untethered configuration behind figs 6-8 and their studies (the
    presets, the fig7 sweep cells and the fig8 displacement cells): the
    miniature converter feeding the ``balancing``-balanced stack, driven at
    ``frequency`` into the ``load`` descriptor (:func:`load_fragment`) for
    ``periods`` whole drive periods on the grid ``step``.

    fig6b balances with 3.6 MOhm; the fig8 bench cells swap the converter for
    the matched bench ``supply``.
    """
    return bridge_scenario(supply, load_fragment(load), ControlSignal(frequency=frequency),
                           step, periods * (1.0 / frequency), probes, balancing=balancing)


_BUILDERS: Dict[str, Callable[[], Scenario]] = {
    "fig2": lambda: _distribution(None),
    "fig3": lambda: _distribution(3.6e6),
    "fig4a": lambda: _fig4(None),
    "fig4b": lambda: _fig4(220e-12),
    # nominal board timing: the driver-offset mismatch is the transient-study
    # knob (fig4); with offsets the conduction window shrinks by 50 us and the
    # load capacitor just misses the 99% charge level each half-cycle
    "fig5": lambda: bridge_scenario(BenchSupplyParams(1800.0), SeriesRC(100e3, 10e-9),
                                    ControlSignal(frequency=100.0), 1e-6, 0.11,
                                    ("A", "O", "load_m"), driver_offsets=(0.0, 0.0, 0.0, 0.0)),
    "fig6b": lambda: converter_scenario(100.0, "dea", 11, 1e-6, ("A", "O"), balancing=3.6e6),
    "fig6c": lambda: converter_scenario(100.0, "dea", 11, 1e-6, ("A", "O")),
    "fig7": lambda: converter_scenario(100.0, "10n", 11, 5e-6, ("A", "O")),
    "fig7c": lambda: dual_channel_with_phase(math.pi),
    "fig8": lambda: converter_scenario(6.0, "dea", 3, 20e-6, ("A", "O")),
    # output starts low (phase pi) so the first rising edge is a switching
    # transition, not the generator power-up ramp; driver offsets are zeroed
    # because the calibration isolates the board edge from driver mismatch
    "slew": lambda: bridge_scenario(BenchSupplyParams(1800.0), None,
                                    ControlSignal(frequency=1000.0, phase=math.pi), 10e-9, 2.5e-3,
                                    ("A", "O"), driver_offsets=(0.0, 0.0, 0.0, 0.0),
                                    probe_nodes=("O",)),
}

PRESET_NAMES: Tuple[str, ...] = tuple(sorted(_BUILDERS))


def load_preset(name: str) -> Scenario:
    """Fully parameterized scenario for a published preset name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise PresetError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    return builder()


def mc_template(name: str) -> Callable[[Sequence[float], Sequence[float]], Scenario]:
    """Scenario builder for Monte-Carlo trials: the named distribution preset
    with sampled per-device off-resistances and driver offsets.

    ``fig2``/``fig3`` are at their 800 V setting; ``fig2_hv``/``fig3_hv``
    are the same stacks driven at the 1.8 kV design point.  The nominal
    scenario is built here, once; each trial puts its four sampled switches,
    each made (and so checked) by the :class:`~hvsim.circuit.Switch`
    constructor, in it (:meth:`~hvsim.circuit.Circuit.with_parts`).
    """
    table = {"fig2": (None, 800.0), "fig3": (3.6e6, 800.0),
             "fig2_hv": (None, 1800.0), "fig3_hv": (3.6e6, 1800.0)}
    if name not in table:
        raise PresetError(
            f"no Monte-Carlo template for {name!r}; available: {', '.join(sorted(table))}"
        )
    balancing, voltage = table[name]
    nominal = _distribution(balancing, voltage=voltage, step=50e-6)
    switches = [comp for comp in nominal.circuit.components if isinstance(comp, Switch)]

    def build(off_resistances: Sequence[float], offsets: Sequence[float]) -> Scenario:
        for label, values in (("off-resistances", off_resistances), ("driver offsets", offsets)):
            if len(values) != 4:
                raise CircuitError(f"need 4 {label}, got {len(values)}")
        circuit = nominal.circuit.with_parts({
            sw.name: Switch(sw.name, sw.pos, sw.neg, sw.control, sw.ron, roff, sw.invert,
                            sw.turn_on_delay, sw.turn_off_delay, offset)
            for sw, roff, offset in zip(switches, off_resistances, offsets)
        })
        return Scenario(circuit, nominal.settings, nominal.probes)

    return build


def dual_channel_with_phase(phase: float) -> Scenario:
    """fig7c: one converter feeding two bridges at 100 Hz, each through a
    1.8 MOhm-balanced stack into its own copy of the 100 kOhm + 10 nF mimic
    load, channel 2 shifted by ``phase`` radians; channel ``k`` reads its
    control under the name ``g<k>`` and its nodes get the suffix ``k``."""
    comps: List[Component] = CONVERTER.instantiate("A", "0", "sup")
    controls = {"g1": ControlSignal(frequency=100.0),
                "g2": ControlSignal(frequency=100.0, phase=phase)}
    for k, name in enumerate(controls, start=1):
        nodes = ("A", f"B{k}", f"O{k}", f"C{k}", "0")
        comps.extend(_stack_devices(nodes, name, f"ch{k}", 1.8e6, None, DRIVER_OFFSETS))
        comps.extend(SeriesRC(100e3, 10e-9).instantiate(f"O{k}", "0", f"load{k}"))
    return Scenario(
        Circuit.build(comps, controls),
        IntegrationSettings(step=1e-6, stop=0.02),
        probes=("A", "O1", "O2"),
    )
