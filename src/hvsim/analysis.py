"""Waveform metrics and study orchestration: amplitude, slew rate, per-device
voltage shares, frequency/load sweeps, dual-channel phasing, and seeded
Monte-Carlo mismatch studies."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .circuit import ControlSignal
from .devices import ScheduleError
from .engine import IntegrationSettings, SimulationError
from .presets import CONVERTER, FIG7C_PHASES, load_fragment
from .runner import RunResult, run_scenario
from .scenario import Scenario
from .topology import StackParams, build_half_bridge
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


def measure_slew(w: Waveform, low_fraction: float = 0.1, high_fraction: float = 0.9) -> float:
    """Rise rate of the first edge crossing both thresholds (V/s).

    Thresholds sit at the given fractions of the full swing; crossing times
    interpolate linearly between samples, so a pure ramp reports its exact
    slope regardless of step size.
    """
    if not 0.0 < low_fraction < high_fraction < 1.0:
        raise MeasureError("thresholds must satisfy 0 < low < high < 1")
    s = w.samples
    lo, hi = float(s.min()), float(s.max())
    swing = hi - lo
    if swing <= 0.0:
        raise MeasureError("waveform has no swing; no qualifying rising edge")
    th_lo = lo + low_fraction * swing
    th_hi = lo + high_fraction * swing

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
            return (high_fraction - low_fraction) * swing / (t_hi - t_lo)
        i_lo = cross_up(i_lo + 1, th_lo)
    raise MeasureError("no rising edge crosses both thresholds")


def voltage_shares(
    v_a: Waveform,
    v_b: Waveform,
    v_o: Waveform,
    v_c: Waveform,
    v_d: Optional[Waveform] = None,
) -> Tuple[Dict[str, Waveform], Metrics]:
    """Per-device drop waveforms and stack-share metrics.

    Drops are differences of the measured node traces; shares are evaluated
    at the last sample of the widest blocking plateau (where the stack
    end-to-end voltage is within 0.1% of its maximum) and so describe the
    steady blocking state.  Shares are reported as fractions of the stack
    end-to-end voltage and are undefined (None) below 1 V.
    """
    if v_d is None:
        v_d = Waveform(v_a.start, v_a.step, np.zeros(len(v_a)))
    for other in (v_b, v_o, v_c, v_d):
        if not v_a.same_grid(other):
            raise MeasureError("share traces must share one sampling grid")
    drops = {
        "V_AB": v_a - v_b,
        "V_BO": v_b - v_o,
        "V_OC": v_o - v_c,
        "V_CD": v_c - v_d,
    }
    total = v_a.samples - v_d.samples
    max_drop = max(float(d.samples.max()) for d in drops.values())
    peak = float(total.max())
    shares: Optional[Tuple[float, ...]] = None
    if peak > 1.0:
        plateau = np.flatnonzero(total >= 0.999 * peak)
        k = int(plateau[-1])
        shares = tuple(float(d.samples[k] / total[k]) for d in drops.values())
    return drops, Metrics(shares=shares, max_device_drop=max_drop)


@dataclass
class SweepCell:
    frequency: float
    load: str
    metrics: Optional[Metrics] = None
    error: Optional[str] = None


@dataclass
class SweepTable:
    frequencies: Tuple[float, ...]
    loads: Tuple[str, ...]
    cells: Dict[Tuple[float, str], SweepCell]

    def amplitude(self, frequency: float, load: str) -> float:
        cell = self.cells[(frequency, load)]
        if cell.metrics is None or cell.metrics.amplitude is None:
            raise MeasureError(f"cell ({frequency}, {load}) failed: {cell.error}")
        return cell.metrics.amplitude

    def to_csv(self, path) -> None:
        def fmt(x: Optional[float]) -> str:
            return "nan" if x is None else repr(float(x))

        with open(path, "w", newline="\n") as fh:
            fh.write("freq_hz,load,amplitude_v,slew_v_per_s,max_drop_v,peak_i_a,peak_p_w\n")
            for f in self.frequencies:
                for load in self.loads:
                    cell = self.cells[(f, load)]
                    m = cell.metrics or Metrics()
                    fh.write(
                        ",".join(
                            [
                                repr(float(f)),
                                load,
                                fmt(m.amplitude),
                                fmt(m.slew_rate),
                                fmt(m.max_device_drop),
                                fmt(m.peak_source_current),
                                fmt(m.peak_source_power),
                            ]
                        )
                        + "\n"
                    )


def settle_periods_for(
    frequency: float,
    cap_seconds: float = 0.5,
    min_periods: int = 10,
    min_seconds: float = 0.05,
) -> int:
    """Settling length before measurement, in whole periods.

    At least 10 periods and at least 50 ms (the supply's internal RC sets the
    settling scale at high drive frequencies), capped by a 0.5 s budget at low
    frequencies.  Fixed period counts keep runtimes deterministic.
    """
    need = max(min_periods, math.ceil(min_seconds * frequency))
    budget = max(1, int(cap_seconds * frequency))
    return max(1, min(need, budget))


def sweep_step_for(frequency: float) -> float:
    period = 1.0 / frequency
    return min(20e-6, period / 2000.0)


def _sweep_scenario(
    frequency: float, load: str, balancing: float, set_voltage: float
) -> Scenario:
    circuit = build_half_bridge(
        CONVERTER,
        StackParams(balancing_resistance=balancing),
        load=load_fragment(load, bias_voltage=set_voltage),
        control=ControlSignal(frequency=frequency),
    )
    settle = settle_periods_for(frequency)
    period = 1.0 / frequency
    return Scenario(
        circuit,
        IntegrationSettings(step=sweep_step_for(frequency), stop=(settle + 1) * period),
        probes=("A", "B", "O", "C"),
        origin=f"sweep-{load}-{frequency:g}Hz",
    )


def _cell_metrics(run: RunResult, frequency: float) -> Metrics:
    period = 1.0 / frequency
    settle = settle_periods_for(frequency)
    v_o = run.voltage("O")
    amplitude = measure_amplitude(v_o, settle, period, mode="unipolar")
    try:
        slew = measure_slew(v_o.slice_time(v_o.stop - period, v_o.stop))
    except MeasureError:
        slew = None
    _, share_metrics = voltage_shares(
        run.voltage("A"), run.voltage("B"), v_o, run.voltage("C")
    )
    i_p = run.supply_port_current("sup")
    v_p = run.voltage("A")
    return Metrics(
        amplitude=amplitude,
        slew_rate=slew,
        shares=share_metrics.shares,
        max_device_drop=share_metrics.max_device_drop,
        peak_source_current=float(i_p.samples.max()),
        peak_source_power=float(np.max(i_p.samples * v_p.samples)),
    )


def frequency_sweep(
    frequencies: Sequence[float],
    loads: Sequence[str],
    balancing: float = 1.8e6,
    set_voltage: float = 1800.0,
    workers: int = 1,
) -> SweepTable:
    """Amplitude/metric grid over frequency x load, converter-fed.

    Every cell runs to its own steady state and is keyed by grid coordinates,
    so results are identical for any worker count.
    """
    if not frequencies:
        raise MeasureError("empty frequency list")
    if not loads:
        raise MeasureError("empty load list")
    if any(f <= 0 for f in frequencies):
        raise MeasureError("frequencies must be positive")

    def run_cell(key: Tuple[float, str]) -> SweepCell:
        f, load = key
        try:
            scenario = _sweep_scenario(f, load, balancing, set_voltage)
            run = run_scenario(scenario)
            return SweepCell(f, load, metrics=_cell_metrics(run, f))
        except (SimulationError, ScheduleError, MeasureError, WaveformError) as exc:
            return SweepCell(f, load, error=str(exc))

    keys = [(float(f), str(load)) for f in frequencies for load in loads]
    cells: Dict[Tuple[float, str], SweepCell]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_cell, keys))
    else:
        results = [run_cell(k) for k in keys]
    cells = {k: cell for k, cell in zip(keys, results)}
    return SweepTable(
        frequencies=tuple(float(f) for f in frequencies),
        loads=tuple(str(l) for l in loads),
        cells=cells,
    )


def phase_sweep(
    make_dual: Callable[[float], Scenario],
    phases: Sequence[float] = FIG7C_PHASES,
) -> Dict[float, Metrics]:
    """Peak converter current/power per channel-phase difference.

    Peaks are taken over the full run including the first switching event,
    where the pre-charged supply state is identical across phases.
    """
    out: Dict[float, Metrics] = {}
    for phase in phases:
        run = run_scenario(make_dual(phase))
        i_p = run.supply_port_current("sup")
        v_p = run.voltage("A")
        out[float(phase)] = Metrics(
            peak_source_current=float(i_p.samples.max()),
            peak_source_power=float(np.max(i_p.samples * v_p.samples)),
        )
    return out


@dataclass(frozen=True)
class MismatchModel:
    """Component-tolerance model for Monte-Carlo stress studies.

    Off-resistances draw from a log-normal (median, sigma of the log);
    per-device driver offsets draw uniformly from +-offset_span.  The
    generator is numpy's PCG64; per-trial streams come from
    ``SeedSequence(seed).spawn``, so any trial subset reproduces bit-exactly
    for a fixed seed.
    """

    median_off_resistance: float = 300e6
    sigma: float = 1.0
    offset_span: float = 50e-6
    trials: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise MeasureError("sigma must be >= 0")
        if self.trials < 1:
            raise MeasureError("trials must be >= 1")


@dataclass
class TrialRecord:
    trial: int
    seed: int
    max_drop: Optional[float]
    status: str


@dataclass
class MonteCarloResult:
    records: List[TrialRecord]

    def drops(self) -> np.ndarray:
        return np.array([r.max_drop for r in self.records if r.max_drop is not None])

    def summary(self) -> Dict[str, float]:
        d = self.drops()
        if d.size == 0:
            raise MeasureError("no successful trials")
        return {
            "min": float(d.min()),
            "median": float(np.median(d)),
            "p99": float(np.percentile(d, 99)),
            "max": float(d.max()),
        }

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("trial,seed,max_drop_v,status\n")
            for r in self.records:
                drop = "nan" if r.max_drop is None else repr(float(r.max_drop))
                fh.write(f"{r.trial},{r.seed},{drop},{r.status}\n")


def monte_carlo(
    build: Callable[[Sequence[float], Sequence[float]], Scenario],
    model: MismatchModel,
    n_devices: int = 4,
    workers: int = 1,
) -> MonteCarloResult:
    """Run ``model.trials`` scenarios with sampled off-resistances/offsets.

    ``build(off_resistances, offsets)`` constructs the per-trial scenario,
    which must probe nodes A, B, O and C.  The summary statistic is the
    maximum device drop over the full run.
    """
    root = np.random.SeedSequence(model.seed)
    children = root.spawn(model.trials)

    def run_trial(i: int) -> TrialRecord:
        rng = np.random.Generator(np.random.PCG64(children[i]))
        offs = model.median_off_resistance * np.exp(
            model.sigma * rng.standard_normal(n_devices)
        )
        offsets = rng.uniform(-model.offset_span, model.offset_span, n_devices)
        trial_seed = int(children[i].generate_state(1)[0])
        try:
            scenario = build(list(offs), list(offsets))
            w = run_scenario(scenario).waveforms
            _, metrics = voltage_shares(w["V_A"], w["V_B"], w["V_O"], w["V_C"])
            return TrialRecord(i, trial_seed, metrics.max_device_drop, "ok")
        except (SimulationError, ScheduleError, WaveformError, MeasureError) as exc:
            return TrialRecord(i, trial_seed, None, f"failed: {exc}")

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_trial, range(model.trials)))
    else:
        records = [run_trial(i) for i in range(model.trials)]
    return MonteCarloResult(records=records)
