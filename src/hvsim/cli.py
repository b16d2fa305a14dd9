"""Command-line front end: run presets or netlists, sweeps, Monte-Carlo.

Exit codes: 0 success, 2 for usage/parse problems (unknown preset, netlist
syntax error, unreadable netlist or output path, bad override), 3 for
numerical failures.  Summaries go to stdout, diagnostics to stderr; outputs
are byte-identical for identical inputs and seeds.  Every study runs its
cells one after another on one thread; ``--workers`` is accepted as an upper
bound on worker threads.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import analysis, electromech, netlist, plotting, presets
from .circuit import CircuitError, ControlSignal, params
from .devices import ScheduleError
from .engine import IntegrationSettings, SimulationError
from .netlist import NetlistError, parse_param, parse_value
from .runner import run_scenario, shoot_through_seconds, switch_timelines
from .scenario import Scenario, probe_label
from .waveform import WaveformError, write_csv

EXIT_USAGE = 2
EXIT_NUMERIC = 3

#: what each sweep kind reads besides --preset and --out
SWEEP_FLAGS = {
    "fig7": ("freqs", "loads", "plot", "workers"),
    "fig7c": ("phases",),
    "fig8": ("freqs", "supply", "plot"),
}


class CliError(Exception):
    pass


def _override(cls: type, what: str, path: str, raw: str) -> Tuple[str, object]:
    """Field name and value that ``--set path=raw`` gives a ``cls`` parameter."""
    key = path.rsplit(".", 1)[1]
    schema = params(cls)
    p = next((p for p in schema if p.key == key), None)
    if p is None:
        raise CliError(
            f"--set: unknown {what} key {key!r} (allowed: {', '.join(p.key for p in schema)})"
        )
    try:
        return p.name, parse_param(p, raw, allow_unit=True)
    except ValueError as exc:
        raise CliError(f"--set {path}: {exc}") from None


def apply_override(scenario: Scenario, path: str, raw: str) -> Scenario:
    """Apply a dotted-path ``--set`` override; unknown paths are hard errors.

    ``tran.<key>``, ``ctrl.<name>.<key>`` and ``comp.<name>.<key>`` take the
    netlist keys of the settings, control or component.
    """
    parts = path.split(".")
    if parts[0] == "tran" and len(parts) == 2:
        name, value = _override(IntegrationSettings, "tran", path, raw)
        return scenario.with_settings(**{name: value})
    if parts[0] == "ctrl" and len(parts) == 3:
        controls = scenario.circuit.control_map
        if parts[1] not in controls:
            raise CliError(f"--set: unknown control {parts[1]!r}")
        name, value = _override(ControlSignal, f"control {parts[1]!r}", path, raw)
        controls[parts[1]] = replace(controls[parts[1]], **{name: value})
        circuit = replace(scenario.circuit, controls=tuple(controls.items()))
        return replace(scenario, circuit=circuit)
    if parts[0] == "comp" and len(parts) == 3:
        try:
            comp = scenario.circuit.component(parts[1])
        except KeyError:
            raise CliError(f"--set: unknown component {parts[1]!r}") from None
        name, value = _override(type(comp), f"component {parts[1]!r}", path, raw)
        if isinstance(value, str) and value not in scenario.circuit.control_map:
            raise CliError(f"--set {path}: unknown control {value!r}")
        circuit = scenario.circuit.with_replaced(parts[1], **{name: value})
        return replace(scenario, circuit=circuit)
    raise CliError(f"--set: unknown path {path!r} (tran.*, ctrl.*, comp.*)")


def _resolve_scenario(args) -> Tuple[Scenario, str]:
    if bool(args.preset) == bool(args.netlist):
        raise CliError("exactly one of --preset or --netlist is required")
    if args.preset:
        scenario, name = presets.load_preset(args.preset), args.preset
    else:
        try:
            scenario = netlist.parse_file(args.netlist)
        except UnicodeDecodeError as exc:  # unlike an OSError's, its message names no file
            raise CliError(f"{args.netlist}: {exc}") from None
        name = Path(args.netlist).stem
    for item in args.set or []:
        if "=" not in item:
            raise CliError(f"--set needs key=value, got {item!r}")
        path, raw = item.split("=", 1)
        try:
            scenario = apply_override(scenario, path, raw)
        except CircuitError as exc:
            raise CliError(f"--set {path}: {exc}") from None
    return scenario, name


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args) -> int:
    scenario, name = _resolve_scenario(args)
    if not scenario.probes:
        raise CliError(f"{name}: no probes requested (add .probe directives)")
    result = run_scenario(scenario)
    out = _out_dir(args)
    columns = {
        probe_label(p): result.voltage(p) if isinstance(p, str) else result.pair_voltage(*p)
        for p in scenario.probes
    }
    tables = {f"{name}.csv": columns}
    if "load_m" in scenario.circuit.node_labels() and name.startswith("fig8"):
        # filtered before any file is written, so a step too coarse for the
        # filter leaves no CSV behind
        v_load = result.voltage("load_m")
        x = electromech.displacement_response(v_load)
        tables[f"{name}_displacement.csv"] = {"v_load": v_load, "x_norm": x}
    written = [out / file for file in tables]
    for path, table in zip(written, tables.values()):
        write_csv(path, table)
    if args.plot:
        svg = out / f"{name}.svg"
        series = {
            label: (w.times(), w.samples) for label, w in columns.items()
        }
        plotting.line_plot(svg, series, "time [s]", "voltage [V]", title=name)
        written.append(svg)
    circuit, stop = scenario.circuit, scenario.settings.stop
    overlap = shoot_through_seconds(circuit, switch_timelines(circuit, stop), stop)
    if overlap > 0:
        print(f"warning: commanded shoot-through for {overlap:.6g} s", file=sys.stderr)
    print(f"wrote {', '.join(str(p) for p in written)}")
    return 0


def _parse_float_list(raw: str, what: str) -> List[float]:
    if not raw.strip():
        raise CliError(f"empty {what} list")
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            raise CliError(f"empty entry in {what} list")
        try:
            out.append(parse_value(tok, allow_unit=True))
        except ValueError:
            raise CliError(f"bad {what} entry {tok!r}") from None
    return out


def _parse_phase(tok: str) -> float:
    tok = tok.strip()
    if "pi" in tok:
        try:
            num, _, den = tok.partition("/")
            lead = num.replace("pi", "").strip("*")
            value = (float(lead) if lead else 1.0) * math.pi
            if den:
                value /= float(den)
        except (ValueError, ZeroDivisionError):
            raise CliError(f"bad phase {tok!r}") from None
        if not math.isfinite(value):
            raise CliError(f"bad phase {tok!r}")
        return value
    try:
        return parse_value(tok, allow_unit=True)
    except ValueError:
        raise CliError(f"bad phase {tok!r}") from None


def _report_failures(study: analysis.Study, label) -> int:
    """Name every failed cell of ``study`` on stderr; return their number."""
    failed = study.failures()
    for key, reason in failed:
        print(f"cell ({label(key)}) failed: {reason}", file=sys.stderr)
    return len(failed)


def _plot_sweep(path: Path, freqs: Sequence[float], curves, ylabel: str, title: str) -> None:
    """Log-frequency plot, one curve per label; a failed cell (None) plots as
    a gap."""
    series = {
        label: (np.array(freqs), np.array(values, dtype=float))
        for label, values in curves.items()
    }
    plotting.line_plot(path, series, "frequency [Hz]", ylabel, log_x=True, title=title)


def cmd_sweep(args) -> int:
    name = args.preset
    if name not in SWEEP_FLAGS:
        raise CliError(f"sweep --preset must be one of {', '.join(SWEEP_FLAGS)}, got {name!r}")
    given = [
        flag for flag in ("freqs", "loads", "phases", "supply", "plot")
        if getattr(args, flag) not in (None, False)
    ]
    if args.workers != 1:
        given.append("workers")
    unread = [flag for flag in given if flag not in SWEEP_FLAGS[name]]
    if unread:
        raise CliError(
            f"sweep --preset {name} does not read --{', --'.join(unread)} "
            f"(it reads --{', --'.join(SWEEP_FLAGS[name])})"
        )
    out = _out_dir(args)
    freqs = (  # fig7c reads no frequencies
        _parse_float_list(args.freqs, "frequency")
        if args.freqs is not None
        else list(presets.FIG8_FREQUENCIES if name == "fig8" else presets.FIG7_FREQUENCIES)
    )

    if name == "fig8":
        supply = args.supply or "both"
        if supply not in ("bench", "converter", "both"):
            raise CliError("--supply must be bench, converter, or both")
        supplies = ("bench", "converter") if supply == "both" else (supply,)
        x = {}
        for s in supplies:
            study = electromech.displacement_sweep(s, freqs)
            _report_failures(study, lambda f: f"{f:g} Hz, {s}")
            x[s] = study.values
        csv_path = out / f"{name}_sweep.csv"
        analysis.write_table(
            csv_path, ["freq_hz"] + [f"x_{s}" for s in supplies], zip(freqs, *x.values())
        )
        if args.plot:
            _plot_sweep(out / f"{name}_sweep.svg", freqs, x,
                        "displacement amplitude [norm]", name)
        print(f"wrote {csv_path}")
        return 0

    if name == "fig7c":
        phases = (
            [_parse_phase(t) for t in args.phases.split(",")]
            if args.phases is not None
            else list(presets.FIG7C_PHASES)
        )
        study = analysis.phase_sweep(phases)
        _report_failures(study, lambda p: f"phase {p:g}")
        csv_path = out / f"{name}_phases.csv"
        metrics = [m or analysis.Metrics() for m in study.values]
        analysis.write_table(csv_path, ["phase_rad", "peak_i_a", "peak_p_w"], [
            (phase, m.peak_source_current, m.peak_source_power)
            for phase, m in zip(study.keys, metrics)
        ])
        print(f"wrote {csv_path}")
        return 0

    loads = (
        [t.strip() for t in args.loads.split(",")]
        if args.loads is not None
        else list(presets.FIG7_LOADS)
    )
    if any(not l for l in loads):
        raise CliError("empty entry in load list")
    for load in loads:
        presets.load_fragment(load)  # validate descriptors up front
    study = analysis.frequency_sweep(freqs, loads)
    metrics = [m or analysis.Metrics() for m in study.values]
    csv_path = out / f"{name}_sweep.csv"
    analysis.write_table(
        csv_path,
        ["freq_hz", "load", "amplitude_v", "slew_v_per_s", "max_drop_v", "peak_i_a", "peak_p_w"],
        [
            (f, load, m.amplitude, m.slew_rate, m.max_device_drop,
             m.peak_source_current, m.peak_source_power)
            for (f, load), m in zip(study.keys, metrics)
        ],
    )
    failed = _report_failures(study, lambda key: f"{key[0]:g} Hz, {key[1]}")
    if args.plot:
        # frequency-major cells: load j of frequency i is cell i*len(loads)+j
        amps = [m.amplitude for m in metrics]
        curves = {load: amps[j::len(loads)] for j, load in enumerate(loads)}
        _plot_sweep(out / f"{name}_sweep.svg", freqs, curves, "amplitude [V]", name)
    print(f"wrote {csv_path} ({len(study.keys)} cells, {failed} failed)")
    return 0


def cmd_montecarlo(args) -> int:
    if not math.isfinite(args.sigma):
        raise CliError("--sigma must be finite")
    if args.sigma < 0:
        raise CliError("--sigma must be >= 0")
    name = args.preset
    if not name:
        raise CliError("montecarlo needs --preset")
    build = presets.mc_template(name)
    model = analysis.MismatchModel(
        sigma=args.sigma, trials=args.trials, seed=args.seed
    )
    study = analysis.monte_carlo(build, model)
    out = _out_dir(args)
    csv_path = out / f"{name}_mc.csv"
    analysis.write_table(csv_path, ["trial", "seed", "max_drop_v", "status"], [
        (trial, seed, drop, "ok" if error is None else f"failed: {error}")
        for (trial, seed), drop, error in zip(study.keys, study.values, study.errors)
    ])
    drops = np.array([d for d in study.values if d is not None])
    if drops.size == 0:
        raise analysis.MeasureError("no successful trials")
    print(
        f"{name}: trials={args.trials} sigma={args.sigma:g} seed={args.seed} "
        f"max_drop min={drops.min():.3f} median={np.median(drops):.3f} "
        f"p99={np.percentile(drops, 99):.3f} max={drops.max():.3f}"
    )
    print(f"wrote {csv_path}")
    return 0


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.lru_cache(maxsize=None)  # one per process: building it costs more than a parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvsim",
        description="Transient simulator for the series-stack HV half-bridge",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--preset", help="preset name (e.g. fig3)")
        p.add_argument("--out", default=".", help="output directory")

    def workers(p):
        # studies run serially; sweep and montecarlo still accept the bound
        p.add_argument("--workers", type=_positive_int, default=1,
                       help="upper bound on worker threads, >= 1; studies run "
                            "on one thread (never changes results)")

    def plot_and_seed(p):
        # run and sweep draw no random numbers: --seed is accepted only at
        # its default, so a seed passed here is never silently ignored
        p.add_argument("--plot", action="store_true", help="also write an SVG plot")
        p.add_argument("--seed", type=int, default=0, choices=[0],
                       help="only montecarlo reads a seed; any value but 0 is an error")

    p_run = sub.add_parser("run", help="run one transient scenario, write waveform CSV")
    common(p_run)
    p_run.add_argument("--netlist", help="netlist file path")
    p_run.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="override, e.g. tran.step=0.5us")
    plot_and_seed(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="frequency/load (fig7), phase (fig7c) or displacement (fig8) sweep"
    )
    common(p_sweep)
    workers(p_sweep)
    plot_and_seed(p_sweep)
    p_sweep.add_argument("--freqs", help="fig7/fig8: comma-separated frequencies in Hz")
    p_sweep.add_argument("--loads", help="fig7: comma-separated loads (10n,20n,50n,dea)")
    p_sweep.add_argument("--phases", help="fig7c: comma-separated phases (0,pi/2,pi)")
    p_sweep.add_argument("--supply", help="fig8: bench, converter, or both")
    p_sweep.set_defaults(func=cmd_sweep)

    p_mc = sub.add_parser("montecarlo", help="component-tolerance Monte-Carlo study")
    common(p_mc)
    workers(p_mc)
    p_mc.add_argument("--seed", type=int, default=0, help="random seed")
    p_mc.add_argument("--trials", type=_positive_int, default=100)
    p_mc.add_argument("--sigma", type=float, default=1.0)
    p_mc.set_defaults(func=cmd_montecarlo)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, OSError, NetlistError, CircuitError, ScheduleError,
            presets.PresetError, analysis.MeasureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SimulationError, WaveformError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
