"""Drive voltage to normalized actuator displacement.

The static law is quadratic in voltage (electrostatic pressure), normalized
to 1.0 at the reference voltage; the mechanics are a second-order low-pass.
Both the natural frequency (80 Hz) and damping (0.7) are calibration values:
the model exists to expose supply-dependent dynamics, not to fit a specific
actuator, and its output is dimensionless.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .analysis import Study, measure_amplitude, run_study, sweep_step_for
from .devices import Fragment
from .engine import IntegrationSettings
from .presets import (
    CONVERTER,
    FIG8_FREQUENCIES,
    bench_matched_to_converter,
    converter_bridge,
    load_fragment,
)
from .runner import run_scenario
from .scenario import Scenario
from .waveform import Waveform

#: drive voltage at which the static displacement is 1.0
REFERENCE_VOLTAGE = 1800.0
#: natural frequency (Hz) and damping ratio of the mechanical low-pass
NATURAL_FREQUENCY = 80.0
DAMPING_RATIO = 0.7


class ElectromechError(ValueError):
    pass


def displacement_response(v: Waveform) -> Waveform:
    """Normalized displacement for a drive-voltage waveform.

    ``x = H2(s) * (v / v_ref)^2`` with ``H2`` the unit-DC-gain second-order
    low-pass, discretized zero-order-hold on the waveform grid (exact for
    stepwise inputs at the sample instants).
    """
    # imported here, not at module level: scipy.signal costs about 1 s to
    # import and only the fig8 paths filter a waveform
    from scipy.signal import cont2discrete, lfilter

    max_step = 1.0 / (20.0 * NATURAL_FREQUENCY)
    if v.step > max_step:
        raise ElectromechError(
            f"step {v.step:.3g} s too coarse for a {NATURAL_FREQUENCY:g} Hz "
            f"filter (need <= {max_step:.3g} s)"
        )
    wn = 2.0 * math.pi * NATURAL_FREQUENCY
    num = [wn * wn]
    den = [1.0, 2.0 * DAMPING_RATIO * wn, wn * wn]
    bz, az, _ = cont2discrete((num, den), dt=v.step, method="zoh")
    u = (v.samples / REFERENCE_VOLTAGE) ** 2
    x = lfilter(np.atleast_1d(np.squeeze(bz)), np.atleast_1d(np.squeeze(az)), u)
    return Waveform(v.start, v.step, x)


def _fig8_scenario(supply: Fragment, frequency: float) -> Scenario:
    period = 1.0 / frequency
    return Scenario(
        converter_bridge(frequency, load_fragment("dea"), supply=supply),
        IntegrationSettings(step=sweep_step_for(frequency), stop=2.0 * period),
        probes=("A", "O", "load_m"),
        origin=f"fig8-{frequency:g}Hz",
    )


def displacement_sweep(
    supply: str, frequencies: Sequence[float] = FIG8_FREQUENCIES
) -> Study:
    """Displacement amplitude (half the peak-to-peak swing over the final
    period) per frequency for ``supply`` of ``converter`` or ``bench``.

    The bench setting is matched to the converter's loaded DC output, so the
    two supplies agree in the quasi-static limit and differ only through
    their dynamics.
    """
    if supply not in ("converter", "bench"):
        raise ElectromechError(f"supply must be 'converter' or 'bench', got {supply!r}")
    if any(f <= 0 for f in frequencies):
        raise ElectromechError("frequencies must be positive")
    sup = CONVERTER if supply == "converter" else bench_matched_to_converter()
    # built before the first cell runs, as in analysis.frequency_sweep
    scenarios = {f: _fig8_scenario(sup, f) for f in map(float, frequencies)}

    def cell(f: float) -> float:
        x = displacement_response(run_scenario(scenarios[f]).voltage("load_m"))
        return measure_amplitude(x, 1, 1.0 / f, mode="bipolar")

    return run_study(cell, [float(f) for f in frequencies])
