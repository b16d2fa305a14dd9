"""Command-line front end: run presets or netlists, sweeps, Monte-Carlo.

Exit codes: 0 success, 2 for usage/parse problems (unknown preset, netlist
syntax error, bad override), 3 for numerical failures.  Summaries go to
stdout, diagnostics to stderr; outputs are byte-identical for identical
inputs, seeds, and any worker count.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import analysis, electromech, netlist, plotting, presets
from .circuit import (
    Capacitor,
    CircuitError,
    ConverterSource,
    Probe,
    Resistor,
    Switch,
    VoltageSource,
)
from .engine import SimulationError
from .netlist import NetlistError, parse_value
from .runner import run_scenario
from .scenario import Scenario, probe_label
from .waveform import WaveformError, write_csv

EXIT_USAGE = 2
EXIT_NUMERIC = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


#: CLI-visible parameter names per component type, mapped to dataclass fields
_FIELD_MAP = {
    Resistor: {"value": "resistance"},
    Capacitor: {
        "value": "capacitance",
        "ic": "initial_voltage",
        "derate": "derating",
        "vrated": "rated_voltage",
        "vbias": "bias_voltage",
    },
    Switch: {
        "ron": "ron",
        "roff": "roff",
        "ton": "turn_on_delay",
        "toff": "turn_off_delay",
        "offset": "delay_offset",
    },
    VoltageSource: {"value": "voltage", "slew": "slew"},
    ConverterSource: {
        "voc": "open_circuit_voltage",
        "rint": "internal_resistance",
        "cpar": "parallel_capacitance",
    },
    Probe: {"rin": "input_resistance", "cin": "input_capacitance"},
}


def apply_override(scenario: Scenario, path: str, raw: str) -> Scenario:
    """Apply a dotted-path ``--set`` override; unknown paths are hard errors."""
    try:
        value = parse_value(raw, allow_unit=True)
    except ValueError as exc:
        raise CliError(f"--set {path}: {exc}")
    parts = path.split(".")
    if parts[0] == "tran" and len(parts) == 2:
        if parts[1] == "step":
            return scenario.with_settings(step=value)
        if parts[1] == "stop":
            return scenario.with_settings(stop=value)
        if parts[1] == "damp":
            return scenario.with_settings(damping_steps=int(value))
        raise CliError(f"--set: unknown tran key {parts[1]!r} (step, stop, damp)")
    if parts[0] == "ctrl" and len(parts) == 3:
        name, key = parts[1], parts[2]
        controls = scenario.circuit.control_map
        if name not in controls:
            raise CliError(f"--set: unknown control {name!r}")
        field = {"f": "frequency", "duty": "duty", "phase": "phase"}.get(key)
        if field is None:
            raise CliError(f"--set: unknown control key {key!r} (f, duty, phase)")
        controls[name] = replace(controls[name], **{field: value})
        circuit = replace(scenario.circuit, controls=tuple(controls.items()))
        return replace(scenario, circuit=circuit)
    if parts[0] == "comp" and len(parts) == 3:
        name, key = parts[1], parts[2]
        try:
            comp = scenario.circuit.component(name)
        except KeyError:
            raise CliError(f"--set: unknown component {name!r}") from None
        fields = _FIELD_MAP.get(type(comp), {})
        if key not in fields:
            raise CliError(
                f"--set: component {name!r} has no parameter {key!r} "
                f"(allowed: {', '.join(sorted(fields))})"
            )
        circuit = scenario.circuit.with_replaced(name, **{fields[key]: value})
        return replace(scenario, circuit=circuit)
    raise CliError(f"--set: unknown path {path!r} (tran.*, ctrl.*, comp.*)")


def _resolve_scenario(args) -> Tuple[Scenario, str]:
    if bool(args.preset) == bool(args.netlist):
        raise CliError("exactly one of --preset or --netlist is required")
    if args.preset:
        try:
            scenario = presets.load_preset(args.preset)
        except presets.PresetError as exc:
            raise CliError(str(exc)) from None
        name = args.preset
    else:
        try:
            scenario = netlist.parse_file(args.netlist)
        except FileNotFoundError as exc:
            raise CliError(str(exc)) from None
        except NetlistError as exc:
            raise CliError(str(exc)) from None
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
    columns = {probe_label(p): result.waveforms[probe_label(p)] for p in scenario.probes}
    csv_path = out / f"{name}.csv"
    write_csv(csv_path, columns)
    written = [csv_path]
    if "load_m" in scenario.circuit.node_labels() and name.startswith("fig8"):
        v_load = result.voltage("load_m")
        x = electromech.displacement_response(v_load, electromech.ElectromechParams())
        disp_path = out / f"{name}_displacement.csv"
        write_csv(disp_path, {"v_load": v_load, "x_norm": x})
        written.append(disp_path)
    if args.plot:
        svg = out / f"{name}.svg"
        series = {
            label: (w.times(), w.samples) for label, w in columns.items()
        }
        plotting.line_plot(svg, series, "time [s]", "voltage [V]", title=name)
        written.append(svg)
    if result.shoot_through > 0:
        print(
            f"warning: commanded shoot-through for {result.shoot_through:.6g} s",
            file=sys.stderr,
        )
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
            scale = 1.0
            lead = num.replace("pi", "").strip("*")
            if lead:
                scale = float(lead)
            value = scale * math.pi
            if den:
                value /= float(den)
            return value
        except ValueError:
            raise CliError(f"bad phase {tok!r}") from None
    try:
        return parse_value(tok, allow_unit=True)
    except ValueError:
        raise CliError(f"bad phase {tok!r}") from None


def cmd_sweep(args) -> int:
    out = _out_dir(args)
    name = args.preset or (Path(args.netlist).stem if args.netlist else None)
    if name is None:
        raise CliError("sweep needs --preset")

    if name == "fig8":
        freqs = (
            _parse_float_list(args.freqs, "frequency")
            if args.freqs is not None
            else list(presets.FIG8_FREQUENCIES)
        )
        supply = args.supply or "both"
        if supply not in ("bench", "converter", "both"):
            raise CliError("--supply must be bench, converter, or both")
        supplies = ("bench", "converter") if supply == "both" else (supply,)
        tables = {s: electromech.displacement_sweep(s, freqs) for s in supplies}
        csv_path = out / f"{name}_sweep.csv"
        with open(csv_path, "w", newline="\n") as fh:
            fh.write("freq_hz," + ",".join(f"x_{s}" for s in supplies) + "\n")
            for f in freqs:
                row = [repr(float(f))] + [repr(tables[s][float(f)]) for s in supplies]
                fh.write(",".join(row) + "\n")
        if args.plot:
            series = {
                s: (np.array(freqs), np.array([tables[s][float(f)] for f in freqs]))
                for s in supplies
            }
            plotting.line_plot(
                out / f"{name}_sweep.svg", series, "frequency [Hz]",
                "displacement amplitude [norm]", log_x=True, title=name,
            )
        print(f"wrote {csv_path}")
        return 0

    if name == "fig7c":
        phases = (
            [_parse_phase(t) for t in args.phases.split(",")]
            if args.phases is not None
            else [0.0, math.pi / 2, math.pi]
        )
        if not phases:
            raise CliError("empty phase list")
        table = analysis.phase_sweep(presets.dual_channel_with_phase, phases)
        csv_path = out / f"{name}_phases.csv"
        with open(csv_path, "w", newline="\n") as fh:
            fh.write("phase_rad,peak_i_a,peak_p_w\n")
            for phase in phases:
                m = table[float(phase)]
                fh.write(
                    f"{float(phase)!r},{m.peak_source_current!r},{m.peak_source_power!r}\n"
                )
        print(f"wrote {csv_path}")
        return 0

    freqs = (
        _parse_float_list(args.freqs, "frequency")
        if args.freqs is not None
        else list(presets.FIG7_FREQUENCIES)
    )
    loads = (
        [t.strip() for t in args.loads.split(",")]
        if args.loads is not None
        else list(presets.FIG7_LOADS)
    )
    if any(not l for l in loads):
        raise CliError("empty entry in load list")
    for load in loads:
        presets.load_fragment(load)  # validate descriptors up front
    table = analysis.frequency_sweep(freqs, loads, workers=args.workers)
    csv_path = out / f"{name}_sweep.csv"
    table.to_csv(csv_path)
    failed = [c for c in table.cells.values() if c.error]
    for cell in failed:
        print(f"cell ({cell.frequency:g} Hz, {cell.load}) failed: {cell.error}", file=sys.stderr)
    if args.plot:
        series = {}
        for load in loads:
            amps = [table.cells[(float(f), load)].metrics.amplitude for f in freqs]
            series[load] = (np.array(freqs), np.array(amps, dtype=float))
        plotting.line_plot(
            out / f"{name}_sweep.svg", series, "frequency [Hz]",
            "amplitude [V]", log_x=True, title=name,
        )
    print(f"wrote {csv_path} ({len(freqs) * len(loads)} cells, {len(failed)} failed)")
    return 0


def cmd_montecarlo(args) -> int:
    if args.trials < 1:
        raise CliError("--trials must be >= 1")
    if args.sigma < 0:
        raise CliError("--sigma must be >= 0")
    name = args.preset
    if not name:
        raise CliError("montecarlo needs --preset")
    try:
        build = presets.mc_template(name)
    except presets.PresetError as exc:
        raise CliError(str(exc)) from None
    model = analysis.MismatchModel(
        sigma=args.sigma, trials=args.trials, seed=args.seed
    )
    result = analysis.monte_carlo(build, model, workers=args.workers)
    out = _out_dir(args)
    csv_path = out / f"{name}_mc.csv"
    result.to_csv(csv_path)
    summary = result.summary()
    print(
        f"{name}: trials={args.trials} sigma={args.sigma:g} seed={args.seed} "
        f"max_drop min={summary['min']:.3f} median={summary['median']:.3f} "
        f"p99={summary['p99']:.3f} max={summary['max']:.3f}"
    )
    print(f"wrote {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvsim",
        description="Transient simulator for the series-stack HV half-bridge",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--preset", help="preset name (e.g. fig3)")
        p.add_argument("--netlist", help="netlist file path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="override, e.g. tran.step=0.5us")
        p.add_argument("--plot", action="store_true", help="also write an SVG plot")
        p.add_argument("--workers", type=int, default=1,
                       help="worker threads (never changes results)")
        p.add_argument("--seed", type=int, default=0, help="random seed")

    p_run = sub.add_parser("run", help="run one transient scenario, write waveform CSV")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="frequency/load, phase, or displacement sweep")
    common(p_sweep)
    p_sweep.add_argument("--freqs", help="comma-separated frequencies in Hz")
    p_sweep.add_argument("--loads", help="comma-separated loads (10n,20n,50n,dea)")
    p_sweep.add_argument("--phases", help="comma-separated phases (0,pi/2,pi)")
    p_sweep.add_argument("--supply", help="fig8 only: bench, converter, or both")
    p_sweep.set_defaults(func=cmd_sweep)

    p_mc = sub.add_parser("montecarlo", help="component-tolerance Monte-Carlo study")
    common(p_mc)
    p_mc.add_argument("--trials", type=int, default=100)
    p_mc.add_argument("--sigma", type=float, default=1.0)
    p_mc.set_defaults(func=cmd_montecarlo)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (NetlistError, CircuitError, presets.PresetError, analysis.MeasureError,
            electromech.ElectromechError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SimulationError, WaveformError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
