"""Waveform metrics and study orchestration: amplitude, slew rate, per-device
voltage shares, frequency/load sweeps, dual-channel phasing, and seeded
Monte-Carlo mismatch studies.  Every study runs its keyed cells one after
another through :func:`run_study` and is written with :func:`write_table`."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .circuit import CircuitError, Scenario, ScheduleError
from .engine import SimulationError, TransientResult, run_transient
from .presets import FIG7C_PHASES, converter_scenario, dual_channel_with_phase
from .waveform import Waveform, WaveformError


class MeasureError(ValueError):
    """A metric cannot be computed from the given waveform."""


@dataclass
class Metrics:
    """Derived quantities for one run; fields are None when not measured."""

    amplitude: Optional[float] = None
    slew_rate: Optional[float] = None
    shares: Optional[Tuple[float, ...]] = None
    max_device_drop: Optional[float] = None
    peak_source_current: Optional[float] = None
    peak_source_power: Optional[float] = None


def measure_amplitude(
    w: Waveform, settle_periods: int, period: float, mode: str = "unipolar"
) -> float:
    """Amplitude over the final period after ``settle_periods`` have elapsed.

    ``unipolar`` reports the per-period maximum (the plotted quantity for the
    load-sweep studies); ``bipolar`` reports half the peak-to-peak swing.
    """
    if mode not in ("unipolar", "bipolar"):
        raise MeasureError(f"unknown amplitude mode {mode!r}")
    needed = (settle_periods + 1) * period
    span = w.stop - w.start
    if span + 0.5 * w.step < needed:
        raise MeasureError(
            f"waveform spans {span:.6g} s; need {needed:.6g} s "
            f"({settle_periods}+1 periods of {period:.6g} s)"
        )
    final = w.slice_time(w.stop - period, w.stop)
    if mode == "unipolar":
        return float(final.samples.max())
    return float(final.samples.max() - final.samples.min()) / 2.0


def measure_slew(w: Waveform) -> float:
    """10-90 % rise rate of the first edge crossing both thresholds (V/s).

    Thresholds sit at 10 % and 90 % of the full swing; crossing times
    interpolate linearly between samples, so a pure ramp reports its exact
    slope regardless of step size.
    """
    s = w.samples
    lo, hi = float(s.min()), float(s.max())
    swing = hi - lo
    if swing <= 0.0:
        raise MeasureError("waveform has no swing; no qualifying rising edge")
    th_lo, th_hi = lo + 0.1 * swing, lo + 0.9 * swing

    def cross_up(start: int, threshold: float) -> Optional[int]:
        below = s[start:-1] < threshold
        above = s[start + 1 :] >= threshold
        hits = np.flatnonzero(below & above)
        return start + int(hits[0]) if hits.size else None

    i_lo = cross_up(0, th_lo)
    while i_lo is not None:
        i_hi = cross_up(i_lo, th_hi)
        if i_hi is None:
            break
        # qualifying edge: no dip back below the low threshold in between
        if np.all(s[i_lo + 1 : i_hi + 1] >= th_lo) or i_hi == i_lo:
            t_lo = w.time_at(i_lo) + (th_lo - s[i_lo]) / (s[i_lo + 1] - s[i_lo]) * w.step
            t_hi = w.time_at(i_hi) + (th_hi - s[i_hi]) / (s[i_hi + 1] - s[i_hi]) * w.step
            if t_hi <= t_lo:
                raise MeasureError("degenerate edge: thresholds crossed within one sample")
            return 0.8 * swing / (t_hi - t_lo)
        i_lo = cross_up(i_lo + 1, th_lo)
    raise MeasureError("no rising edge crosses both thresholds")


def _drops(a: np.ndarray, b: np.ndarray, o: np.ndarray, c: np.ndarray) -> float:
    """The largest device drop of :func:`voltage_shares`, the three
    differences made one after another in one buffer."""
    d = a - b
    return max(float(d.max()), float(np.subtract(b, o, out=d).max()),
               float(np.subtract(o, c, out=d).max()), float(c.max()))


def voltage_shares(a: np.ndarray, b: np.ndarray, o: np.ndarray, c: np.ndarray) -> Metrics:
    """Stack-share metrics of the device drops ``A-B``, ``B-O``, ``O-C`` and
    ``C-D`` (``D`` is ground), from the node voltages ``a``, ``b``, ``o`` and
    ``c`` indexed alike.

    Drops are differences of the measured node traces; shares are evaluated
    at the last sample of the widest blocking plateau (where the stack
    end-to-end voltage is within 0.1% of its maximum) and so describe the
    steady blocking state.  Shares are reported as fractions of the stack
    end-to-end voltage and are undefined (None) below 1 V.

    The arrays may hold every grid point, or one value per run of a
    run-length result (:meth:`TransientResult.rows`): a run's value holds
    over its whole run, so the maximum, and the value at the last index
    where a condition holds, are the same bit for bit on either form.
    """
    drops = (a - b, b - o, o - c, c)
    total = a
    peak = float(total.max())
    shares: Optional[Tuple[float, ...]] = None
    if peak > 1.0:
        plateau = np.flatnonzero(total >= 0.999 * peak)
        k = int(plateau[-1])
        shares = tuple(float(drop[k] / total[k]) for drop in drops)
    return Metrics(shares=shares, max_device_drop=max(float(drop.max()) for drop in drops))


#: the failures that fail one study cell and leave the others running
CELL_ERRORS = (SimulationError, ScheduleError, MeasureError, WaveformError)


@dataclass(frozen=True)
class Study:
    """Cells of one study, run in key order on one thread: cell ``keys[i]``
    gave ``values[i]``, or failed with reason ``errors[i]`` and has value
    None."""

    keys: Tuple[Any, ...]
    values: Tuple[Any, ...]
    errors: Tuple[Optional[str], ...]

    def failures(self) -> List[Tuple[Any, str]]:
        return [(k, e) for k, e in zip(self.keys, self.errors) if e is not None]


def run_study(cell: Callable[[Any], Any], keys: Sequence[Any]) -> Study:
    """Run ``cell(key)`` for every key, in key order on the calling thread.

    A cell that raises one of :data:`CELL_ERRORS` fails alone.
    """

    def attempt(key):
        try:
            return cell(key), None
        except CELL_ERRORS as exc:
            return None, str(exc)

    keys = tuple(keys)
    outcomes = [attempt(k) for k in keys]
    return Study(keys, tuple(v for v, _ in outcomes), tuple(e for _, e in outcomes))


def write_table(path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Comma-separated table: None is written as ``nan``, text and ints as
    they are, and every other value as ``repr(float(v))``."""

    def fmt(v: Any) -> str:
        if v is None:
            return "nan"
        if isinstance(v, (str, int)):
            return str(v)
        return repr(float(v))

    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(fmt, row)) + "\n")


def settle_periods_for(frequency: float) -> int:
    """Settling length before measurement, in whole periods.

    At least 10 periods and at least 50 ms (the supply's internal RC sets the
    settling scale at high drive frequencies), capped by a 0.5 s budget at low
    frequencies.  Fixed period counts keep runtimes deterministic.
    """
    need = max(10, math.ceil(0.05 * frequency))
    budget = max(1, int(0.5 * frequency))
    return max(1, min(need, budget))


def sweep_step_for(frequency: float) -> float:
    period = 1.0 / frequency
    return min(20e-6, period / 2000.0)


def sweep_frequencies(frequencies: Sequence[float]) -> List[float]:
    """The drive frequencies of a study as floats, each checked positive and
    finite before any cell, or its grid (:func:`sweep_step_for`), is made."""
    freqs = [float(f) for f in frequencies]
    if not all(0 < f < math.inf for f in freqs):  # NaN fails too
        raise MeasureError("frequencies must be positive and finite")
    return freqs


def supply_port_current(run: TransientResult) -> Waveform:
    """Current delivered by the supply fragment ``sup`` into the circuit:
    its EMF branch current, less the charging current of the converter's
    output capacitor ``Csup_cpar`` when there is one."""
    if "Vsup_emf" not in run.source_names:
        raise KeyError("no supply fragment named 'sup' in this circuit")
    delivered = run.source_current("Vsup_emf")  # a new array, not a view of the run
    if "Csup_cpar" in run.cap_names:
        cpar = run.cap_current("Csup_cpar").samples
        delivered = replace(delivered, samples=np.subtract(delivered.samples, cpar,
                                                           out=delivered.samples))
    return delivered


def _supply_peaks(run: TransientResult) -> Metrics:
    """Peak current and power the supply fragment delivers over the run."""
    i_p = supply_port_current(run).samples  # a new array: the power is made in it
    peak_current = float(i_p.max())
    return Metrics(
        peak_source_current=peak_current,
        peak_source_power=float(np.multiply(i_p, run.voltage("A").samples, out=i_p).max()),
    )


def _cell_metrics(run: TransientResult, frequency: float) -> Metrics:
    period = 1.0 / frequency
    v_o = run.voltage("O")  # a read-only view of the stored column
    amplitude = measure_amplitude(v_o, settle_periods_for(frequency), period, mode="unipolar")
    try:
        slew = measure_slew(v_o.slice_time(v_o.stop - period, v_o.stop))
    except MeasureError:
        slew = None
    return replace(_supply_peaks(run), amplitude=amplitude, slew_rate=slew,
                   max_device_drop=_drops(*(run.rows(node) for node in "ABOC")))


def frequency_sweep(frequencies: Sequence[float], loads: Sequence[str]) -> Study:
    """:class:`Metrics` per (frequency, load) cell, converter-fed through the
    1.8 MOhm-balanced stack, frequency major.  Every cell runs to its own
    steady state; its ``shares`` are None (only its maximum drop is kept)."""
    if not frequencies:
        raise MeasureError("empty frequency list")
    if not loads:
        raise MeasureError("empty load list")
    keys = [(f, str(load)) for f in sweep_frequencies(frequencies) for load in loads]
    # every cell's scenario, grid included, is built before the first cell
    # runs, so a grid the engine rejects stops the sweep before any cell runs
    scenarios = {(f, load): converter_scenario(f, load, settle_periods_for(f) + 1,
                                               sweep_step_for(f), ("A", "B", "O", "C"))
                 for f, load in keys}

    def cell(key: Tuple[float, str]) -> Metrics:
        return _cell_metrics(run_transient(scenarios[key].circuit, scenarios[key].settings), key[0])

    return run_study(cell, keys)


def phase_sweep(phases: Sequence[float] = FIG7C_PHASES) -> Study:
    """Peak converter current/power per fig7c channel-phase difference.

    Peaks are taken over the full run including the first switching event,
    where the pre-charged supply state is identical across phases.
    """

    def cell(phase: float) -> Metrics:
        scenario = dual_channel_with_phase(phase)
        return _supply_peaks(run_transient(scenario.circuit, scenario.settings))

    return run_study(cell, [float(p) for p in phases])


#: Most trials a Monte-Carlo study may ask for: its table keeps one row per
#: trial, and 10^6 fig3 trials take minutes.
MAX_TRIALS = 1_000_000


@dataclass(frozen=True)
class MismatchModel:
    """Component-tolerance model for Monte-Carlo stress studies.

    Off-resistances draw from a log-normal (median MEDIAN_OFF_RESISTANCE,
    ``sigma`` of the log); per-device driver offsets draw uniformly from
    +-OFFSET_SPAN.  The generator is numpy's PCG64; trial ``i`` draws from
    ``SeedSequence(seed, spawn_key=(i,))``, child ``i`` of
    ``SeedSequence(seed).spawn``, so any trial subset reproduces bit-exactly
    for a fixed seed.  At most :data:`MAX_TRIALS` trials.
    """

    sigma: float = 1.0
    trials: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.sigma < math.inf:  # NaN fails too
            raise MeasureError(f"sigma must be finite and >= 0, got {self.sigma}")
        for name in ("trials", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise MeasureError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise MeasureError(f"trials must be in [1, {MAX_TRIALS}], got {self.trials}")
        if self.seed < 0:
            raise MeasureError("seed must be >= 0")


#: median off-resistance of the log-normal draw and half-width of the
#: uniform driver-offset draw of every Monte-Carlo trial
MEDIAN_OFF_RESISTANCE = 300e6
OFFSET_SPAN = 50e-6


def monte_carlo(
    build: Callable[[Sequence[float], Sequence[float]], Scenario],
    model: MismatchModel,
) -> Study:
    """Maximum device drop over the full run per (trial, trial seed) cell.

    ``build(off_resistances, offsets)`` constructs the per-trial scenario
    with the four sampled off-resistances/offsets of the stack.
    A draw that is not finite, or that ``build`` rejects (an off-resistance
    at or below the on-resistance), fails its trial alone.
    """
    seeds: List[int] = []  # each trial's key seed, from its one SeedSequence

    def trial(i: int) -> float:
        stream = np.random.SeedSequence(model.seed, spawn_key=(i,))
        seeds.append(int(stream.generate_state(1)[0]))
        rng = np.random.Generator(np.random.PCG64(stream))
        with np.errstate(over="ignore"):  # a wide sigma can overflow: checked below
            offs = MEDIAN_OFF_RESISTANCE * np.exp(model.sigma * rng.standard_normal(4))
        # Python floats: the same values, and cheaper to check, add and stamp
        offs, offsets = offs.tolist(), rng.uniform(-OFFSET_SPAN, OFFSET_SPAN, 4).tolist()
        bad = [v for v in offs if not math.isfinite(v)]
        if bad:
            raise MeasureError(f"sampled off-resistance {bad[0]!r} is not finite")
        try:
            scenario = build(offs, offsets)
        except CircuitError as exc:
            raise MeasureError(f"sampled circuit rejected: {exc}") from None
        run = run_transient(scenario.circuit, scenario.settings)
        return _drops(*(run.rows(node) for node in "ABOC"))

    study = run_study(trial, range(model.trials))
    return Study(tuple(zip(study.keys, seeds)), study.values, study.errors)
