"""Named scenario presets for the bench experiments the simulator reproduces.

Each preset parameterizes the half-bridge builders and returns a
:class:`~hvsim.scenario.Scenario`.  The voltage-distribution presets (fig2,
fig3) deliberately omit the scope-probe models so their steady drops match
the bare divider arithmetic; the transient-imbalance and slew presets include
probes, whose input capacitance is the modeled node parasitic.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Dict, Optional, Sequence, Tuple

from .circuit import Circuit, ControlSignal, ConverterSource, Switch
from .devices import (
    BenchSupplyParams,
    DeaLoadParams,
    Fragment,
    expand_bench_supply,
    expand_dea_load,
    series_rc_load,
)
from .engine import IntegrationSettings, dc_operating_point
from .scenario import Scenario
from .topology import build_dual_channel, build_half_bridge


class PresetError(ValueError):
    pass


#: derating calibration for the ceramic load capacitors (per volt, rated V)
CERAMIC_DERATING = 2e-4
CERAMIC_RATED_VOLTAGE = 2000.0

#: sweep grids matching the published load/frequency studies
FIG7_FREQUENCIES = (2.0, 5.0, 10.0, 30.0, 100.0, 300.0, 1000.0)
FIG7_LOADS = ("10n", "20n", "50n", "dea")
FIG8_FREQUENCIES = (1.0, 2.0, 15.0, 30.0, 60.0, 120.0)
FIG7C_PHASES = (0.0, math.pi / 2, math.pi)

#: the miniature DC-HVDC converter supply at its ConverterSource defaults
CONVERTER = Fragment((ConverterSource(name="X", pos="+", neg="-"),))


def load_fragment(descriptor: str) -> Fragment:
    """Load fragments by CLI descriptor: ``10n``/``20n``/``50n`` are ceramic
    capacitors (derated at the 1.8 kV set voltage) in series with 100 kOhm;
    ``dea`` is the actuator equivalent."""
    key = descriptor.strip()
    if key == "dea":
        return expand_dea_load(DeaLoadParams())
    if key in ("10n", "20n", "50n"):
        c0 = {"10n": 10e-9, "20n": 20e-9, "50n": 50e-9}[key]
        resistor, capacitor = series_rc_load(100e3, c0).components
        derated = replace(capacitor, derating=CERAMIC_DERATING,
                          rated_voltage=CERAMIC_RATED_VOLTAGE, bias_voltage=1800.0)
        return Fragment((resistor, derated))
    raise PresetError(f"unknown load descriptor {descriptor!r} (10n, 20n, 50n, dea)")


def _bench(voltage: float) -> Fragment:
    return expand_bench_supply(BenchSupplyParams(voltage=voltage))


def _distribution(
    balancing: Optional[float],
    voltage: float = 800.0,
    step: float = 100e-6,
    **stack,
) -> Scenario:
    """Static-sharing bench (fig2/fig3 and their Monte-Carlo trials): the
    unloaded bench-fed stack at 1 Hz, probed at A, B, O and C."""
    circuit = build_half_bridge(
        _bench(voltage), None, ControlSignal(frequency=1.0), balancing=balancing, **stack
    )
    return Scenario(
        circuit,
        IntegrationSettings(step=step, stop=2.0),
        probes=("A", "B", "O", "C"),
    )


def _fig4(snubber: Optional[float]) -> Scenario:
    circuit = build_half_bridge(
        _bench(1800.0),
        None,
        ControlSignal(frequency=1000.0),
        snubber=snubber,
        probe_nodes=("B", "O", "C"),
    )
    return Scenario(
        circuit,
        IntegrationSettings(step=1e-6, stop=11e-3),
        probes=("A", "B", "O", "C"),
    )


def _fig5() -> Scenario:
    # nominal board timing: the driver-offset mismatch is the transient-study
    # knob (fig4); with offsets the conduction window shrinks by 50 us and the
    # load capacitor just misses the 99% charge level each half-cycle
    circuit = build_half_bridge(
        _bench(1800.0),
        series_rc_load(100e3, 10e-9),
        ControlSignal(frequency=100.0),
        driver_offsets=(0.0, 0.0, 0.0, 0.0),
    )
    return Scenario(
        circuit,
        IntegrationSettings(step=1e-6, stop=0.11),
        probes=("A", "O", "load_m"),
    )


def converter_bridge(
    frequency: float,
    load: Fragment,
    balancing: float = 1.8e6,
    supply: Fragment = CONVERTER,
) -> Circuit:
    """The untethered configuration behind figs 6-8 and their studies: the
    miniature converter feeding the balanced series stack, driven at
    ``frequency`` into ``load``.

    fig6b balances with 3.6 MOhm; the fig8 bench cells swap the converter for
    the matched bench ``supply``.
    """
    return build_half_bridge(
        supply, load, ControlSignal(frequency=frequency), balancing=balancing
    )


def _fig6(balancing: float) -> Scenario:
    return Scenario(
        converter_bridge(100.0, load_fragment("dea"), balancing),
        IntegrationSettings(step=1e-6, stop=0.11),
        probes=("A", "O"),
    )


def _fig7() -> Scenario:
    return Scenario(
        converter_bridge(100.0, load_fragment("10n")),
        IntegrationSettings(step=5e-6, stop=0.11),
        probes=("A", "O"),
    )


def _fig8() -> Scenario:
    return Scenario(
        converter_bridge(6.0, load_fragment("dea")),
        IntegrationSettings(step=20e-6, stop=0.5),
        probes=("A", "O"),
    )


def _slew() -> Scenario:
    # output starts low (phase pi) so the first rising edge is a switching
    # transition, not the generator power-up ramp; driver offsets are zeroed
    # because the calibration isolates the board edge from driver mismatch
    circuit = build_half_bridge(
        _bench(1800.0),
        None,
        ControlSignal(frequency=1000.0, phase=math.pi),
        driver_offsets=(0.0, 0.0, 0.0, 0.0),
        probe_nodes=("O",),
    )
    return Scenario(
        circuit,
        IntegrationSettings(step=10e-9, stop=2.5e-3),
        probes=("A", "O"),
    )


_BUILDERS: Dict[str, Callable[[], Scenario]] = {
    "fig2": lambda: _distribution(None),
    "fig3": lambda: _distribution(3.6e6),
    "fig4a": lambda: _fig4(None),
    "fig4b": lambda: _fig4(220e-12),
    "fig5": _fig5,
    "fig6b": lambda: _fig6(3.6e6),
    "fig6c": lambda: _fig6(1.8e6),
    "fig7": _fig7,
    "fig7c": lambda: dual_channel_with_phase(math.pi),
    "fig8": _fig8,
    "slew": _slew,
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


def bench_matched_to_converter() -> Fragment:
    """Bench supply whose setting equals the converter's DC output into the
    DEA load.

    Used by the displacement comparison so the two supplies agree in the
    quasi-static limit and differ only in dynamics.
    """
    probe_circuit = converter_bridge(0.0, load_fragment("dea"))
    states = {
        comp.name: not comp.invert
        for comp in probe_circuit.components
        if isinstance(comp, Switch)
    }
    return _bench(dc_operating_point(probe_circuit, states)["A"])


def mc_template(
    name: str,
) -> Callable[[Sequence[float], Sequence[float]], Scenario]:
    """Scenario builder for Monte-Carlo trials: the named distribution preset
    rebuilt with sampled per-device off-resistances and driver offsets.

    ``fig2``/``fig3`` rebuild at their 800 V setting; ``fig2_hv``/``fig3_hv``
    are the same stacks driven at the 1.8 kV design point.
    """
    table = {
        "fig2": (None, 800.0),
        "fig3": (3.6e6, 800.0),
        "fig2_hv": (None, 1800.0),
        "fig3_hv": (3.6e6, 1800.0),
    }
    if name not in table:
        raise PresetError(
            f"no Monte-Carlo template for {name!r}; available: {', '.join(sorted(table))}"
        )
    balancing, voltage = table[name]

    def build(off_resistances: Sequence[float], offsets: Sequence[float]) -> Scenario:
        return _distribution(
            balancing,
            voltage=voltage,
            step=50e-6,
            off_resistances=tuple(off_resistances),
            driver_offsets=tuple(offsets),
        )

    return build


def dual_channel_with_phase(phase: float) -> Scenario:
    """fig7c: one converter feeding two bridges at 100 Hz, each into the
    100 kOhm + 10 nF mimic load, channel 2 shifted by ``phase`` radians."""
    controls = (ControlSignal(frequency=100.0), ControlSignal(frequency=100.0, phase=phase))
    circuit = build_dual_channel(CONVERTER, controls, series_rc_load(100e3, 10e-9))
    return Scenario(
        circuit,
        IntegrationSettings(step=1e-6, stop=0.02),
        probes=("A", "O1", "O2"),
    )
