"""Drive voltage to normalized actuator displacement, and the fig8 study of it.

The static law is quadratic in voltage (electrostatic pressure), normalized
to 1.0 at the reference voltage; the mechanics are a second-order low-pass,
discretized zero-order-hold in closed form and run as a blocked state-space
recursion with numpy alone.  Both the natural frequency (80 Hz) and damping
(0.7) are calibration values: the model exists to expose supply-dependent
dynamics, not to fit a specific actuator, and its output is dimensionless.
:func:`displacement_sweep` compares the converter with the bench supply
matched to its loaded DC output (:func:`bench_matched_to_converter`).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analysis import (MeasureError, Study, measure_amplitude, run_study, sweep_frequencies,
                       sweep_step_for)
from .devices import BenchSupplyParams, Fragment, expand_bench_supply
from .engine import dc_operating_point, run_transient
from .presets import CONVERTER, FIG8_FREQUENCIES, converter_scenario
from .waveform import Waveform, WaveformError

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


@np.errstate(over="ignore", invalid="ignore")  # the drive and the result are checked finite
def displacement_response(v: Waveform) -> Waveform:
    """Normalized displacement for a drive-voltage waveform.

    ``x = H2(s) * (v / v_ref)^2`` with ``H2`` the unit-DC-gain second-order
    low-pass, discretized zero-order-hold on the waveform grid (exact for
    stepwise inputs at the sample instants), starting from rest.  A drive
    whose normalized square is not finite raises :class:`WaveformError` at
    its first such sample.

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
    if not np.isfinite(u).all():
        t = v.time_at(int(np.flatnonzero(~np.isfinite(u))[0]))
        raise WaveformError(f"normalized drive (v/{REFERENCE_VOLTAGE:g})^2 not finite at t={t!r}")
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


def bench_matched_to_converter() -> Fragment:
    """Bench supply whose setting equals the converter's DC output into the
    DEA load.

    Used by the displacement comparison so the two supplies agree in the
    quasi-static limit and differ only in dynamics.
    """
    # the t=0 switch states, and so the DC point, do not depend on the drive frequency
    bridge = converter_scenario(100.0, "dea", 1, 1e-6, ()).circuit
    return expand_bench_supply(BenchSupplyParams(voltage=dc_operating_point(bridge)["A"]))


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
    freqs = sweep_frequencies(frequencies)
    sup = CONVERTER if supply == "converter" else bench_matched_to_converter()
    # built before the first cell runs, as in analysis.frequency_sweep
    scenarios = {f: converter_scenario(f, "dea", 2, sweep_step_for(f), ("A", "O", "load_m"),
                                       supply=sup) for f in freqs}

    def cell(f: float) -> float:
        run = run_transient(scenarios[f].circuit, scenarios[f].settings)
        x = displacement_response(run.voltage("load_m"))
        return measure_amplitude(x, 1, 1.0 / f, mode="bipolar")

    return run_study(cell, freqs)
