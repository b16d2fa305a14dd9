"""Drive voltage to normalized actuator displacement.

The static law is quadratic in voltage (electrostatic pressure), normalized
to 1.0 at the reference voltage; the mechanics are a second-order low-pass,
discretized zero-order-hold in closed form and run as a blocked state-space
recursion with numpy alone.  Both the natural frequency (80 Hz) and damping
(0.7) are calibration values: the model exists to expose supply-dependent
dynamics, not to fit a specific actuator, and its output is dimensionless.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analysis import MeasureError, Study, measure_amplitude, run_study, sweep_step_for
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
#: natural frequency (Hz) and damping ratio of the mechanical low-pass; the
#: closed-form discretization in displacement_response needs DAMPING_RATIO < 1
NATURAL_FREQUENCY = 80.0
DAMPING_RATIO = 0.7
#: samples per block of the filter, and blocks per matrix product: 4 x 256 x
#: 256 multiply-adds stay under OpenBLAS's threading threshold, so no worker
#: thread starts and then spins through the rest of the run
_BLOCK = 256
_ROWS = 4


def _transition(t: np.ndarray) -> np.ndarray:
    """``exp(M t)``, one 2 x 2 matrix per time, for the low-pass state
    ``z = (x, dx/dt)`` with ``dz/dt = M z + (0, wn^2) u``."""
    wn = 2.0 * math.pi * NATURAL_FREQUENCY
    sigma = DAMPING_RATIO * wn
    wd = wn * math.sqrt(1.0 - DAMPING_RATIO**2)
    e, c, s = np.exp(-sigma * t), np.cos(wd * t), np.sin(wd * t)
    rows = [[c + sigma / wd * s, s / wd], [-wn * wn / wd * s, c - sigma / wd * s]]
    return e[:, None, None] * np.moveaxis(np.array(rows), -1, 0)


def displacement_response(v: Waveform) -> Waveform:
    """Normalized displacement for a drive-voltage waveform.

    ``x = H2(s) * (v / v_ref)^2`` with ``H2`` the unit-DC-gain second-order
    low-pass, discretized zero-order-hold on the waveform grid (exact for
    stepwise inputs at the sample instants), starting from rest.

    With ``A = exp(M T)`` the unit DC gain gives ``B = (I - A) e1``, so the
    Markov parameters are ``A^k B = A^k e1 - A^(k+1) e1`` (Franklin, Powell
    and Workman, *Digital Control of Dynamic Systems*, ch. 6).  Each block of
    samples is one product with the lower-triangular Toeplitz matrix of
    those parameters plus the free response of the block's start state.
    """
    max_step = 1.0 / (20.0 * NATURAL_FREQUENCY)
    if v.step > max_step:
        raise MeasureError(
            f"step {v.step:.3g} s too coarse for a {NATURAL_FREQUENCY:g} Hz "
            f"filter (need <= {max_step:.3g} s)"
        )
    power = _transition(v.step * np.arange(_BLOCK + 1))  # A^0 .. A^_BLOCK
    markov = power[:-1, :, 0] - power[1:, :, 0]  # A^k B
    # conv[j, i]: output i of a block per unit input j, (A^(i-j-1) B)[0], 0 for i <= j
    pad = np.concatenate([np.zeros(_BLOCK), markov[:-1, 0]])
    conv = np.ascontiguousarray(sliding_window_view(pad, _BLOCK)[::-1])
    free = power[:-1, 0, :].T  # block start state to each output of the block
    gain = markov[::-1]  # input j of a block to the state after it, A^(_BLOCK-1-j) B
    u = (v.samples / REFERENCE_VOLTAGE) ** 2
    padded = np.zeros(-(-u.size // _BLOCK) * _BLOCK)
    padded[: u.size] = u
    blocks = padded.reshape(-1, _BLOCK)
    x = np.empty_like(blocks)
    z = np.zeros(2)  # state at the start of each block, from rest
    for r in range(0, len(blocks), _ROWS):
        ub = blocks[r : r + _ROWS]
        starts = np.empty((len(ub), 2))
        for i, drive in enumerate(ub @ gain):
            starts[i] = z
            z = power[-1] @ z + drive
        x[r : r + _ROWS] = ub @ conv + starts @ free
    return Waveform(v.start, v.step, x.ravel()[: u.size])


def _fig8_scenario(supply: Fragment, frequency: float) -> Scenario:
    period = 1.0 / frequency
    return Scenario(
        converter_bridge(frequency, load_fragment("dea"), supply=supply),
        IntegrationSettings(step=sweep_step_for(frequency), stop=2.0 * period),
        probes=("A", "O", "load_m"),
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
        raise MeasureError(f"supply must be 'converter' or 'bench', got {supply!r}")
    if any(f <= 0 for f in frequencies):
        raise MeasureError("frequencies must be positive")
    sup = CONVERTER if supply == "converter" else bench_matched_to_converter()
    # built before the first cell runs, as in analysis.frequency_sweep
    scenarios = {f: _fig8_scenario(sup, f) for f in map(float, frequencies)}

    def cell(f: float) -> float:
        x = displacement_response(run_scenario(scenarios[f]).voltage("load_m"))
        return measure_amplitude(x, 1, 1.0 / f, mode="bipolar")

    return run_study(cell, [float(f) for f in frequencies])
