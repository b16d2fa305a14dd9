"""CLI contract tests: outputs, exit codes, overrides, and determinism."""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from hvsim import analysis, cli, electromech, netlist
from hvsim.circuit import ControlSignal, Switch
from hvsim.cli import main
from hvsim.netlist import print_scenario
from hvsim.presets import load_preset

from conftest import read_csv

BAD_NETLIST = """# deliberately broken on line 7
V1 A 0 800
R1 A B 3.6M
R2 B O 3.6M
R3 O C 3.6M
R4 C 0 3.6M
R5 O 0 3.6X
.tran 1u 1m
.probe O
.end
"""

GOOD_NETLIST = """V1 A 0 1800
R1 A L 100k
C1 L 0 10n
.tran 1u 5m
.probe L
.probe A L
.end
"""


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_preset_writes_expected_columns(self, tmp_path):
        code = run_cli("run", "--preset", "fig3", "--out", str(tmp_path))
        assert code == 0
        columns = read_csv(tmp_path / "fig3.csv")
        assert list(columns) == ["V_A", "V_B", "V_O", "V_C"]

    def test_unknown_preset_exits_2_and_lists(self, tmp_path, capsys):
        code = run_cli("run", "--preset", "nope", "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "fig3" in err and "fig7c" in err

    def test_netlist_error_reports_line_and_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckt"
        bad.write_text(BAD_NETLIST)
        code = run_cli("run", "--netlist", str(bad), "--out", str(tmp_path))
        assert code == 2
        assert ":7:" in capsys.readouterr().err

    def test_netlist_run_and_pair_probe(self, tmp_path):
        good = tmp_path / "rc.ckt"
        good.write_text(GOOD_NETLIST)
        code = run_cli("run", "--netlist", str(good), "--out", str(tmp_path))
        assert code == 0
        columns = read_csv(tmp_path / "rc.csv")
        assert list(columns) == ["V_L", "V_A_L"]
        # the pair column is the drop across the charging resistor
        assert columns["V_A_L"].samples[1] > columns["V_A_L"].samples[-1]

    def test_step_override_reflected_in_grid(self, tmp_path):
        code = run_cli(
            "run", "--preset", "fig5", "--out", str(tmp_path),
            "--set", "tran.step=0.5us", "--set", "tran.stop=2ms",
        )
        assert code == 0
        columns = read_csv(tmp_path / "fig5.csv")
        w = next(iter(columns.values()))
        assert w.step == pytest.approx(0.5e-6)

    def test_unknown_override_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "run", "--preset", "fig3", "--out", str(tmp_path),
            "--set", "tran.frobnicate=1",
        )
        assert code == 2
        assert "unknown" in capsys.readouterr().err

    def test_override_to_undefined_control_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "run", "--preset", "fig3", "--out", str(tmp_path), "--set", "comp.Sq1.ctrl=nosuch"
        )
        assert code == 2
        assert "--set comp.Sq1.ctrl: unknown control 'nosuch'" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ("comp.Rb1.value=-5", "Rb1: resistance must be > 0, got -5.0"),
        ("comp.Sq1.ron=2G", "Sq1: on-resistance 2000000000.0 must be below "
                            "off-resistance 900000000.0"),
    ])
    def test_invalid_component_override_exits_2(self, tmp_path, capsys, override, message):
        # the replaced part checks itself as the flag is applied: the flag is named
        code = run_cli("run", "--preset", "fig3", "--out", str(tmp_path), "--set", override)
        assert code == 2
        path = override.split("=")[0]
        assert capsys.readouterr().err == f"error: --set {path}: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_component_override(self, tmp_path):
        code = run_cli(
            "run", "--preset", "fig3", "--out", str(tmp_path),
            "--set", "comp.Rb1.value=1.8M", "--set", "tran.stop=0.1",
        )
        assert code == 0

    @pytest.mark.parametrize("workers", ["2", "1", "0", "-1"])
    def test_workers_rejected_exits_2(self, tmp_path, capsys, workers):
        # run has no parallel work: --workers is not one of its flags
        code = run_cli("run", "--preset", "fig3", "--out", str(tmp_path), "--workers", workers)
        assert code == 2
        assert f"error: unrecognized arguments: --workers {workers}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_fig8_emits_displacement_csv(self, tmp_path):
        code = run_cli("run", "--preset", "fig8", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "fig8_displacement.csv").read_text().splitlines()
        assert lines[0] == "t,v_load,x_norm"
        assert len(lines) > 1000
        # every cell is a plain float literal (no numpy scalar reprs)
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 3
            for cell in cells:
                float(cell)

    def test_fig8_step_too_coarse_for_filter_writes_nothing(self, tmp_path, capsys):
        code = run_cli(
            "run", "--preset", "fig8", "--out", str(tmp_path), "--set", "tran.step=1m"
        )
        assert code == 2
        assert "too coarse for a 80 Hz filter" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_driver_schedule_error_exits_2(self, tmp_path, capsys):
        # a 10 kHz command is shorter than the 0.4 ms driver turn-on delay
        code = run_cli(
            "run", "--preset", "fig4a", "--out", str(tmp_path), "--set", "ctrl.g.f=10k"
        )
        assert code == 2
        assert "error: driver delays reorder events" in capsys.readouterr().err

    def test_events_snapped_to_one_grid_index_exit_2(self, tmp_path, capsys):
        # on a 0.7 s grid Sq1's turn-off (0.5 s) and turn-on (1.0 s) events
        # snap to one index, which would drop the off pulse between them
        code = run_cli(
            "run", "--preset", "fig3", "--out", str(tmp_path), "--set", "tran.step=0.7"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: switch 'Sq1': events at t=0.5001 and t=1.0004 ")
        assert not (tmp_path / "fig3.csv").exists()

    def test_fractional_damp_override_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "run", "--preset", "fig3", "--out", str(tmp_path), "--set", "tran.damp=2.5"
        )
        assert code == 2
        assert "non-negative integer" in capsys.readouterr().err

    def test_netlist_flag_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "inv.ckt"
        bad.write_text(
            ".ctrl g square f=1k\nV1 A 0 10\nR1 A B 1k\n"
            "S1 B 0 ctrl=g inv=0.5\n.tran 1u 1m\n.probe B\n.end\n"
        )
        code = run_cli("run", "--netlist", str(bad), "--out", str(tmp_path))
        assert code == 2
        assert "inv.ckt:4:19: inv= must be 0 or 1" in capsys.readouterr().err

    def test_plot_is_svg(self, tmp_path):
        code = run_cli(
            "run", "--preset", "fig3", "--out", str(tmp_path),
            "--set", "tran.stop=0.5", "--plot",
        )
        assert code == 0
        svg = (tmp_path / "fig3.svg").read_text()
        assert svg.startswith("<svg")


class TestSweep:
    def test_small_grid_row_count(self, tmp_path):
        code = run_cli(
            "sweep", "--preset", "fig7", "--out", str(tmp_path),
            "--freqs", "30,100", "--loads", "10n,dea",
        )
        assert code == 0
        lines = (tmp_path / "fig7_sweep.csv").read_text().splitlines()
        assert lines[0] == "freq_hz,load,amplitude_v,slew_v_per_s,max_drop_v,peak_i_a,peak_p_w"
        assert len(lines) == 1 + 4

    def test_empty_freqs_exits_2(self, tmp_path):
        code = run_cli(
            "sweep", "--preset", "fig7", "--out", str(tmp_path),
            "--freqs", "", "--loads", "10n",
        )
        assert code == 2

    def test_bad_load_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--preset", "fig7", "--out", str(tmp_path),
            "--freqs", "100", "--loads", "33n",
        )
        assert code == 2
        assert "33n" in capsys.readouterr().err

    def test_driver_schedule_error_fails_one_cell(self, tmp_path, capsys):
        # 5 kHz is too fast for the driver delays; the 100 Hz cell still runs
        code = run_cli(
            "sweep", "--preset", "fig7", "--out", str(tmp_path),
            "--freqs", "100,5000", "--loads", "10n",
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "cell (5000 Hz, 10n) failed: driver delays reorder events" in err
        assert "command period too short for driver (on=" in err
        lines = (tmp_path / "fig7_sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        ok, failed = lines[1].split(","), lines[2].split(",")
        assert ok[:2] == ["100.0", "10n"] and float(ok[2]) > 0
        assert failed == ["5000.0", "10n"] + ["nan"] * 5

    def test_plot_with_failed_cell(self, tmp_path, capsys, monkeypatch):
        def fake_sweep(freqs, loads):
            keys = tuple((float(f), load) for f in freqs for load in loads)
            failed = (100.0, "10n")
            return analysis.Study(
                keys,
                tuple(None if k == failed else analysis.Metrics(amplitude=1700.0 - k[0])
                      for k in keys),
                tuple("diverged" if k == failed else None for k in keys),
            )

        monkeypatch.setattr(analysis, "frequency_sweep", fake_sweep)
        code = run_cli(
            "sweep", "--preset", "fig7", "--out", str(tmp_path),
            "--freqs", "30,100,300", "--loads", "10n", "--plot",
        )
        assert code == 0
        assert "cell (100 Hz, 10n) failed: diverged" in capsys.readouterr().err
        svg = (tmp_path / "fig7_sweep.svg").read_text()
        assert svg.startswith("<svg")
        # the failed middle cell splits the curve in two
        assert svg.count("<polyline") == 2

    def test_fig8_both_supplies(self, tmp_path):
        code = run_cli(
            "sweep", "--preset", "fig8", "--out", str(tmp_path),
            "--freqs", "2,15", "--supply", "both",
        )
        assert code == 0
        lines = (tmp_path / "fig8_sweep.csv").read_text().splitlines()
        assert lines[0] == "freq_hz,x_bench,x_converter"
        assert len(lines) == 3

    def test_fig8_too_fast_frequency_is_a_nan_row(self, tmp_path, capsys):
        # 5 kHz is shorter than the driver delays; the 2 Hz row must survive
        code = run_cli(
            "sweep", "--preset", "fig8", "--out", str(tmp_path),
            "--freqs", "2,5000,15", "--supply", "converter", "--plot",
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "cell (5000 Hz, converter) failed: driver delays reorder events" in err
        lines = (tmp_path / "fig8_sweep.csv").read_text().splitlines()
        assert lines[0] == "freq_hz,x_converter"
        rows = {float(f): float(x) for f, x in (line.split(",") for line in lines[1:])}
        assert list(rows) == [2.0, 5000.0, 15.0]
        assert math.isnan(rows[5000.0])
        assert math.isfinite(rows[2.0]) and math.isfinite(rows[15.0])
        # the failed middle frequency splits the curve in two
        assert (tmp_path / "fig8_sweep.svg").read_text().count("<polyline") == 2

    @pytest.mark.parametrize("argv, failing, reported", [
        (["--preset", "fig8", "--freqs", "2,15", "--supply", "converter"],
         lambda ctrl: ctrl.frequency == 15.0, "cell (15 Hz, converter) failed: diverged"),
        (["--preset", "fig7c", "--phases", "0,pi"],
         lambda ctrl: ctrl.phase == math.pi, f"cell (phase {math.pi:g}) failed: diverged"),
    ], ids=["fig8", "fig7c"])
    def test_simulation_error_fails_one_cell(self, tmp_path, capsys, monkeypatch,
                                             argv, failing, reported):
        # every sweep kind shares fig7's policy: a numerical failure is a nan
        # row named on stderr, and the other cells still run
        from hvsim import electromech
        from hvsim.engine import SimulationError

        real = analysis.run_transient

        def flaky(circuit, settings, timelines=None):
            if any(failing(ctrl) for _, ctrl in circuit.controls):
                raise SimulationError("diverged")
            return real(circuit, settings, timelines)

        monkeypatch.setattr(analysis, "run_transient", flaky)
        monkeypatch.setattr(electromech, "run_transient", flaky)
        code = run_cli("sweep", *argv, "--out", str(tmp_path))
        assert code == 0
        assert reported in capsys.readouterr().err
        (csv_path,) = tmp_path.glob("*.csv")
        first, failed = csv_path.read_text().splitlines()[1:]
        assert all(math.isfinite(float(v)) for v in first.split(","))
        assert all(math.isnan(float(v)) for v in failed.split(",")[1:])

    def test_fig7c_phase_table(self, tmp_path):
        code = run_cli(
            "sweep", "--preset", "fig7c", "--out", str(tmp_path),
            "--phases", "0,pi/2,pi",
        )
        assert code == 0
        lines = (tmp_path / "fig7c_phases.csv").read_text().splitlines()
        assert lines[0] == "phase_rad,peak_i_a,peak_p_w"
        assert len(lines) == 4

    def test_signed_pi_phases_read_as_their_values(self, tmp_path):
        # a list that starts with "-" would be taken for a flag, hence the leading 0
        tables = []
        for sub, phases in (("pi", "0,-pi/2,+pi/2,-pi"),
                            ("num", "0,-1.5707963267948966,1.5707963267948966,-3.141592653589793")):
            out = tmp_path / sub
            assert run_cli("sweep", "--preset", "fig7c", "--out", str(out),
                           "--phases", phases) == 0
            tables.append((out / "fig7c_phases.csv").read_text())
        assert tables[0] == tables[1]
        assert [line.split(",")[0] for line in tables[0].splitlines()[1:]] == [
            "0.0", "-1.5707963267948966", "1.5707963267948966", "-3.141592653589793"]

    @pytest.mark.parametrize("argv", [
        ["--preset", "fig7", "--loads", "5n"],
        ["--preset", "fig7", "--freqs", "abc"],
        ["--preset", "fig8", "--supply", "x"],
    ], ids=["unknown-load", "bad-freqs", "bad-supply"])
    def test_rejected_input_creates_no_out_dir(self, tmp_path, argv):
        out = tmp_path / "new"
        assert run_cli("sweep", *argv, "--out", str(out)) == 2
        assert not out.exists()


    @pytest.mark.parametrize("preset", [["--preset", "nosuch"], ["--preset", "fig3"], []],
                             ids=["nosuch", "fig3", "none"])
    def test_preset_without_sweep_exits_2(self, tmp_path, capsys, preset):
        code = run_cli("sweep", *preset, "--out", str(tmp_path))
        assert code == 2
        assert "sweep --preset must be one of fig7, fig7c, fig8" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["--preset", "fig3", "--set", "tran.step=zzz"],
        ["--netlist", "/nonexistent/x.ckt"],
    ], ids=["set", "netlist"])
    def test_scenario_flags_rejected(self, tmp_path, capsys, argv):
        code = run_cli("sweep", *argv, "--out", str(tmp_path))
        assert code == 2
        assert "error: unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("preset, flag", [
        ("fig7", ["--phases", "0"]),
        ("fig7", ["--supply", "bench"]),
        ("fig8", ["--loads", "10n"]),
        ("fig8", ["--phases", "0"]),
        ("fig8", ["--workers", "2"]),
        ("fig7c", ["--freqs", "100"]),
        ("fig7c", ["--loads", "10n"]),
        ("fig7c", ["--supply", "bench"]),
        ("fig7c", ["--plot"]),
        ("fig7c", ["--workers", "2"]),
    ], ids=lambda x: x if isinstance(x, str) else x[0].lstrip("-"))
    def test_flag_the_sweep_does_not_read_exits_2(self, tmp_path, capsys, preset, flag):
        code = run_cli("sweep", "--preset", preset, "--out", str(tmp_path), *flag)
        assert code == 2
        assert f"sweep --preset {preset} does not read {flag[0]}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_every_unread_flag_named(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--preset", "fig7c", "--out", str(tmp_path),
            "--plot", "--loads", "zzz", "--supply", "nope",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "does not read --loads, --supply, --plot (it reads --phases)" in err
        assert not list(tmp_path.iterdir())

    def test_serial_sweep_accepts_one_worker(self, tmp_path):
        code = run_cli(
            "sweep", "--preset", "fig7c", "--out", str(tmp_path), "--phases", "0", "--workers", "1",
        )
        assert code == 0
        assert len((tmp_path / "fig7c_phases.csv").read_text().splitlines()) == 2


class TestMonteCarlo:
    def test_degenerate_summary(self, tmp_path, capsys):
        code = run_cli(
            "montecarlo", "--preset", "fig3", "--out", str(tmp_path),
            "--trials", "1", "--sigma", "0",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trials=1" in out
        lines = (tmp_path / "fig3_mc.csv").read_text().splitlines()
        assert lines[0] == "trial,seed,max_drop_v,status"
        assert len(lines) == 2

    def test_zero_trials_exits_2(self, tmp_path):
        code = run_cli(
            "montecarlo", "--preset", "fig3", "--out", str(tmp_path), "--trials", "0"
        )
        assert code == 2

    def test_trials_beyond_bound_exit_2_before_any_trial(self, tmp_path, capsys, monkeypatch):
        # the bound keeps a study's key list, and its run time, finite
        def started(*args):
            raise AssertionError("a Monte-Carlo study started")

        monkeypatch.setattr(analysis, "monte_carlo", started)
        code = run_cli("montecarlo", "--preset", "fig3", "--trials", "1000000000",
                       "--out", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: trials must be in [1, 1000000], got 1000000000\n")

    def test_defaults_are_the_model_defaults(self, tmp_path, monkeypatch):
        built = []

        def recorded(build, model):
            built.append(model)
            return analysis.Study(((0, 1),), (1.0,), (None,))

        monkeypatch.setattr(analysis, "monte_carlo", recorded)
        assert run_cli("montecarlo", "--preset", "fig3", "--out", str(tmp_path)) == 0
        assert built == [analysis.MismatchModel()]

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "montecarlo", "--preset", "fig3", "--out", str(tmp_path),
            "--trials", "1", "--seed", "-1",
        )
        assert code == 2
        assert "error: seed must be >= 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", [
        ["--netlist", "/nonexistent.ckt"],
        ["--set", "nosuch.x=1"],
        ["--plot"],
    ], ids=["netlist", "set", "plot"])
    def test_unsupported_flag_exits_2(self, tmp_path, capsys, flag):
        code = run_cli(
            "montecarlo", "--preset", "fig3", "--out", str(tmp_path), "--trials", "1", *flag
        )
        assert code == 2
        assert f"error: unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "fig3_mc.csv").exists()

    @staticmethod
    def trial_rows(out):
        """(max_drop_v, status) per trial row of the fig3 Monte-Carlo CSV."""
        lines = (out / "fig3_mc.csv").read_text().splitlines()[1:]
        return [tuple(line.split(",", 3)[2:]) for line in lines]

    def test_off_resistance_below_on_resistance_fails_its_trial(self, tmp_path, recwarn):
        code = run_cli(
            "montecarlo", "--preset", "fig3", "--out", str(tmp_path),
            "--trials", "20", "--sigma", "10",
        )
        assert code == 0
        rows = self.trial_rows(tmp_path)
        failed = [status for drop, status in rows if status != "ok"]
        assert len(rows) == 20 and 0 < len(failed) < 20
        assert all(drop == "nan" for drop, status in rows if status != "ok")
        for status in failed:
            assert status.startswith("failed: sampled circuit rejected: Sq")
            assert "on-resistance 5.0 must be below off-resistance" in status
        assert not recwarn.list

    def test_non_finite_draw_fails_its_trial(self, tmp_path, capsys, recwarn):
        code = run_cli(
            "montecarlo", "--preset", "fig3", "--out", str(tmp_path),
            "--trials", "20", "--sigma", "1000",
        )
        assert code == 2
        assert "error: no successful trials" in capsys.readouterr().err
        rows = self.trial_rows(tmp_path)
        assert len(rows) == 20
        assert all(drop == "nan" and status.startswith("failed: ") for drop, status in rows)
        assert ("nan", "failed: sampled off-resistance inf is not finite") in rows
        assert not recwarn.list

    def test_same_seed_identical_csv(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = run_cli(
                "montecarlo", "--preset", "fig3", "--out", str(out),
                "--trials", "6", "--sigma", "1", "--seed", "9",
            )
            assert code == 0
        assert (a / "fig3_mc.csv").read_bytes() == (b / "fig3_mc.csv").read_bytes()


class TestSharedFlags:
    @pytest.mark.parametrize("command", [
        ["sweep", "--preset", "fig7", "--freqs", "100", "--loads", "10n"],
        ["montecarlo", "--preset", "fig3", "--trials", "1"],
    ], ids=["sweep", "montecarlo"])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, command, workers):
        code = run_cli(*command, "--out", str(tmp_path), "--workers", workers)
        assert code == 2
        assert f"error: argument --workers: must be >= 1, got {workers}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", [
        ["run", "--preset", "fig3"],
        ["sweep", "--preset", "fig7", "--freqs", "100", "--loads", "10n"],
    ], ids=["run", "sweep"])
    def test_seed_other_than_default_exits_2(self, tmp_path, capsys, command):
        code = run_cli(*command, "--out", str(tmp_path), "--seed", "7")
        assert code == 2
        assert "error: unrecognized arguments: --seed 7" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_default_seed_rejected_on_run(self, tmp_path, capsys):
        # run draws no random numbers, so it has no --seed, not even at 0
        code = run_cli("run", "--preset", "fig3", "--out", str(tmp_path), "--seed", "0")
        assert code == 2
        assert "error: unrecognized arguments: --seed 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_help_says_only_montecarlo_reads_seed(self, capsys, command):
        assert run_cli(command, "--help") == 0
        assert "--seed" not in capsys.readouterr().out
        assert run_cli("montecarlo", "--help") == 0
        assert "--seed" in capsys.readouterr().out


class TestDeterminism:
    def test_run_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(
                "run", "--preset", "fig4b", "--out", str(out), "--set", "tran.stop=3ms"
            ) == 0
        assert (a / "fig4b.csv").read_bytes() == (b / "fig4b.csv").read_bytes()

    def test_sweep_workers_byte_identical(self, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w4"
        for out, workers in ((a, "1"), (b, "4")):
            assert run_cli(
                "sweep", "--preset", "fig7", "--out", str(out),
                "--freqs", "100,300", "--loads", "10n,20n", "--workers", workers,
            ) == 0
        assert (a / "fig7_sweep.csv").read_bytes() == (b / "fig7_sweep.csv").read_bytes()

    def test_mc_workers_byte_identical(self, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w4"
        for out, workers in ((a, "1"), (b, "4")):
            assert run_cli(
                "montecarlo", "--preset", "fig3", "--out", str(out),
                "--trials", "8", "--seed", "4", "--workers", workers,
            ) == 0
        assert (a / "fig3_mc.csv").read_bytes() == (b / "fig3_mc.csv").read_bytes()


def run_fresh(code: str) -> str:
    """stdout of ``python -c code`` in a fresh process importing this ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


class TestImport:
    def test_cli_import_leaves_scipy_signal_unloaded(self):
        # scipy.signal takes about 1 s to import; the fig8 filter is closed-form
        # numpy, so no path needs it (the fig8 paths are checked below)
        code = ("import sys, hvsim.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))")
        assert run_fresh(code) == "[]"

    def test_cli_import_leaves_scipy_linalg_unloaded(self):
        # the engine binds LAPACK from scipy's _flapack file, not through scipy.linalg
        code = ("import sys, hvsim.cli; print(sorted(m for m in sys.modules "
                "if m.startswith(('scipy.linalg', 'scipy._lib'))))")
        assert run_fresh(code) == "[]"

    @pytest.mark.parametrize("argv", [
        ["run", "--preset", "fig8"],
        ["sweep", "--preset", "fig8", "--freqs", "15"],
    ], ids=["run", "sweep"])
    def test_fig8_paths_leave_scipy_unloaded(self, tmp_path, argv):
        # the displacement filter needs neither scipy.signal nor scipy.linalg
        code = ("import sys, hvsim.cli; "
                f"code = hvsim.cli.main({argv + ['--out', str(tmp_path)]!r}); "
                "print(code, sorted(m for m in sys.modules "
                "if m.startswith(('scipy.signal', 'scipy.linalg', 'scipy._lib'))))")
        assert run_fresh(code).splitlines()[-1] == "0 []"

    def test_later_scipy_linalg_import_shares_the_routines(self):
        code = ("import hvsim.cli, scipy.linalg, scipy.linalg.lapack as lapack; "
                "from hvsim import engine; "
                "print(engine.dgetrf is lapack.dgetrf, engine.dgetrs is lapack.dgetrs, "
                "scipy.linalg._flapack.dgetrf is lapack.dgetrf)")
        assert run_fresh(code) == "True True True"

    def test_description_layer_loads_neither_numpy_nor_the_engine(self):
        # a netlist, a preset and their printed form need no numerical code
        code = ("import sys, hvsim.circuit, hvsim.devices; "
                "from hvsim.netlist import parse, print_scenario; "
                "from hvsim.presets import PRESET_NAMES, load_preset; "
                "print(all(parse(print_scenario(load_preset(p))) == load_preset(p) "
                "for p in PRESET_NAMES), sorted(m for m in sys.modules "
                "if m == 'numpy' or m == 'hvsim.engine'))")
        assert run_fresh(code) == "True []"


class TestGridLimit:
    """A grid beyond ``circuit.MAX_GRID_POINTS`` exits 2 before any storage is
    allocated: the run used to grow memory without bound, the sweep ended in
    numpy's ``ValueError`` (exit 1)."""

    @pytest.mark.parametrize("argv", [
        ["run", "--preset", "fig3", "--set", "tran.step=1e-300"],
        ["sweep", "--preset", "fig7", "--freqs", "1e-300"],
    ], ids=["run-step", "sweep-freq"])
    def test_huge_grid_exits_2(self, tmp_path, capsys, argv):
        assert run_cli(*argv, "--out", str(tmp_path)) == 2
        assert "points" in capsys.readouterr().err


class TestScheduleRejections:
    """A control or gated source the grid cannot resolve exits 2."""

    def test_gated_source_pulse_shorter_than_a_step_exits_2(self, tmp_path, capsys):
        # a 10 us pulse on a 100 us grid ran, with V_B at 0.0 V at every sample
        ckt = tmp_path / "pulse.ckt"
        ckt.write_text(".ctrl g square f=100 duty=0.001\nV1 A 0 10 ctrl=g\nR1 A B 1k\n"
                       "C1 B 0 1u\n.tran 100u 50m\n.probe B\n.end\n")
        assert run_cli("run", "--netlist", str(ckt), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: source 'V1': events at t=0.01 and t=0.01001 ")
        assert not (tmp_path / "pulse.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--preset", "fig3", "--set", "ctrl.g.f=1e20"],
        ["run", "--preset", "fig3", "--set", "ctrl.g.f=1e7"],
    ], ids=["1e20", "1e7"])
    def test_control_faster_than_grid_exits_2_before_listing_edges(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        # listing the edges exhausted memory before any check ran
        def listed(self, stop):
            raise AssertionError("an edge list was built")

        monkeypatch.setattr(ControlSignal, "edges", listed)
        assert run_cli(*argv, "--out", str(tmp_path)) == 2
        assert "more edges than the 20001 grid points" in capsys.readouterr().err

    def test_unread_control_is_not_checked(self, tmp_path):
        # no switch or gated source reads h, so its edges are never listed
        ckt = tmp_path / "unread.ckt"
        ckt.write_text(".ctrl h square f=1e20\nV1 A 0 10\nR1 A B 1k\nC1 B 0 1u\n"
                       ".tran 10u 1m\n.probe B\n.end\n")
        assert run_cli("run", "--netlist", str(ckt), "--out", str(tmp_path)) == 0
        assert (tmp_path / "unread.csv").exists()


class TestFarOutTimes:
    """A finite time far outside the preset's scale runs: each of these ended
    in an ``OverflowError`` traceback (exit 1)."""

    def test_driver_event_far_before_start_folds_into_initial_state(self, tmp_path):
        csv = {}
        for offset in ("-1e308", "-1"):
            out = tmp_path / offset
            assert run_cli("run", "--preset", "fig3", "--set", f"comp.Sq1.offset={offset}",
                           "--set", "tran.stop=0.4", "--out", str(out)) == 0
            csv[offset] = (out / "fig3.csv").read_bytes()
        assert csv["-1e308"] == csv["-1"]

    def test_ramp_too_slow_to_count_its_steps_runs_at_its_slew(self, tmp_path):
        assert run_cli("run", "--preset", "fig3", "--set", "comp.Vsup_emf.slew=1e-307",
                       "--out", str(tmp_path)) == 0
        v_a = read_csv(tmp_path / "fig3.csv")["V_A"].samples
        stop = load_preset("fig3").settings.stop
        assert v_a[-1] > 0.0
        assert v_a.max() <= 1e-307 * stop


class TestSweepGridCheckedUpFront:
    """A sweep frequency whose grid exceeds ``circuit.MAX_GRID_POINTS`` exits 2
    before any cell runs; the cells before it used to run first."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--preset", "fig7", "--freqs", "100,1e-300", "--loads", "10n"],
        ["sweep", "--preset", "fig8", "--freqs", "2,1e-300"],
    ], ids=["fig7", "fig8"])
    def test_no_cell_runs(self, tmp_path, capsys, monkeypatch, argv):
        ran = []
        for module in (analysis, electromech):
            monkeypatch.setattr(module, "run_transient", lambda *args: ran.append(args))
        assert run_cli(*argv, "--out", str(tmp_path)) == 2
        assert "points" in capsys.readouterr().err
        assert ran == []
        assert list(tmp_path.iterdir()) == []


class TestSerialStudies:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--preset", "fig7", "--freqs", "100,300", "--loads", "10n,dea"],
        ["montecarlo", "--preset", "fig3", "--trials", "6"],
    ], ids=["sweep-fig7", "montecarlo"])
    def test_cells_run_on_the_calling_thread(self, tmp_path, monkeypatch, argv):
        threads = []
        real = analysis.run_transient

        def recording_run_transient(*args):
            threads.append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(analysis, "run_transient", recording_run_transient)
        assert run_cli(*argv, "--workers", "2", "--out", str(tmp_path)) == 0
        assert len(threads) == (4 if argv[0] == "sweep" else 6)
        assert set(threads) == {threading.get_ident()}


class TestShootThroughOnDemand:
    """The commanded shoot-through time is computed only where it is read:
    studies never compute it, and ``run`` still warns with it."""

    @pytest.mark.parametrize("argv", [
        ["montecarlo", "--preset", "fig3", "--trials", "4"],
        ["sweep", "--preset", "fig7", "--freqs", "200", "--loads", "10n"],
    ], ids=["montecarlo", "sweep-fig7"])
    def test_studies_never_compute_it(self, tmp_path, monkeypatch, argv):
        def computed(*args):
            raise AssertionError("shoot-through computed")

        monkeypatch.setattr(cli, "shoot_through_seconds", computed)
        assert run_cli(*argv, "--out", str(tmp_path)) == 0

    def test_run_schedules_its_drivers_once(self, tmp_path, monkeypatch):
        # the run and the shoot-through count read the same timelines
        calls, real = [], Switch.events

        def counted(switch, *args):
            calls.append(switch.name)
            return real(switch, *args)

        monkeypatch.setattr(Switch, "events", counted)
        argv = ["run", "--preset", "fig3", "--set", "comp.Sq1.toff=2m", "--out", str(tmp_path)]
        assert run_cli(*argv) == 0
        assert sorted(calls) == ["Sq1", "Sq2", "Sq3", "Sq4"]

    def test_run_warns(self, tmp_path, capsys):
        # a 2 ms turn-off delay on the top device overlaps the low side's turn-on
        argv = ["run", "--preset", "fig3", "--set", "comp.Sq1.toff=2m", "--out", str(tmp_path)]
        assert run_cli(*argv) == 0
        assert capsys.readouterr().err == "warning: commanded shoot-through for 0.0032 s\n"


class TestNonFiniteInput:
    """A value beyond the float range, or a malformed phase, exits 2 before any
    simulation starts; reaching the engine, each of these hung, crashed, ran an
    open circuit or ran a phase the user did not write."""

    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("a simulation started")

        for module, name in ((Switch, "events"), (cli, "run_transient"),
                             (analysis, "frequency_sweep"),
                             (analysis, "phase_sweep"), (analysis, "monte_carlo"),
                             (electromech, "displacement_sweep")):
            monkeypatch.setattr(module, name, started)

    @pytest.mark.parametrize("argv, message", [
        (["run", "--preset", "fig3", "--set", "ctrl.g.phase=1e309"], "not finite"),
        (["run", "--preset", "fig3", "--set", "ctrl.g.f=1e309"], "not finite"),
        (["run", "--preset", "fig3", "--set", "tran.stop=1e309"], "not finite"),
        (["run", "--preset", "fig3", "--set", "comp.Rb1.value=1e309"], "not finite"),
        (["sweep", "--preset", "fig7", "--freqs", "1e309", "--loads", "10n"],
         "bad frequency entry"),
        (["sweep", "--preset", "fig8", "--freqs", "2,1e309"], "bad frequency entry"),
        (["sweep", "--preset", "fig7c", "--phases", "pi/0"], "bad phase"),
        (["sweep", "--preset", "fig7c", "--phases", "1e309*pi"], "bad phase"),
        (["sweep", "--preset", "fig7c", "--phases", "0,1e309"], "bad phase"),
        (["sweep", "--preset", "fig7c", "--phases", "2pi3"], "bad phase"),
        (["sweep", "--preset", "fig7c", "--phases", "0,pipi"], "bad phase"),
        (["montecarlo", "--preset", "fig3", "--sigma", "nan"], "sigma must be finite and >= 0"),
        (["montecarlo", "--preset", "fig3", "--sigma", "inf"], "sigma must be finite and >= 0"),
    ], ids=["phase", "frequency", "stop", "resistance", "fig7-freqs", "fig8-freqs",
            "phase-over-zero", "phase-times-pi", "plain-phase", "phase-digits-after-pi",
            "phase-pi-twice", "sigma-nan", "sigma-inf"])
    def test_exits_2_before_simulating(self, tmp_path, capsys, argv, message):
        assert run_cli(*argv, "--out", str(tmp_path)) == 2
        assert message in capsys.readouterr().err


class TestOverflowingConductance:
    """A resistance or on-resistance whose conductance overflows to inf exits 2
    with one error line naming the part.  Reaching the engine, each of these
    ended in a numpy ``LinAlgError`` traceback or hung in the least-squares
    fallback of the t=0 solve, which the fixture makes raise instead."""

    @pytest.fixture(autouse=True)
    def no_least_squares(self, monkeypatch):
        def lstsq(*args, **kwargs):
            raise AssertionError("the t=0 solve fell back to least squares")

        monkeypatch.setattr(np.linalg, "lstsq", lstsq)

    @pytest.mark.parametrize("argv, part", [
        (["--preset", "fig3", "--set", "comp.Sq1.ron=1e-320"], "Sq1"),
        (["--preset", "fig5", "--set", "comp.Rb1.value=1e-320"], "Rb1"),
        (["--preset", "fig3", "--set", "comp.Rsup_rout.value=1e-320"], "Rsup_rout"),
        (None, "R1"),
    ], ids=["switch-ron", "resistor", "bench-rout", "netlist"])
    def test_exits_2_naming_the_part(self, tmp_path, capsys, argv, part):
        if argv is None:
            path = tmp_path / "tiny.ckt"
            path.write_text("V1 A 0 10\nR1 A 0 1e-320\n.tran 1u 1m\n.probe A\n.end\n")
            argv = ["--netlist", str(path)]
        assert run_cli("run", *argv, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{part}: conductance of" in err and "overflows" in err


class TestOverflowingCompanion:
    def test_capacitance_exits_2_naming_the_part_and_step(self, tmp_path, capsys, recwarn):
        # 2C/h of 1e308 F at 1 us overflows: numpy warned and a singular
        # system ended the run with exit 3 before the check
        path = tmp_path / "huge.ckt"
        path.write_text("V1 A 0 10\nR1 A B 1k\nC1 B 0 1e308\n.tran 1u 1m\n.probe B\n.end\n")
        assert run_cli("run", "--netlist", str(path), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err == ("error: C1: companion conductance 2C/h of capacitance 1e+308 "
                       "overflows at step 1e-06\n")
        assert not recwarn.list


class TestFileErrors:
    """A path the CLI cannot read or write exits 2 with one ``error:`` line;
    ``main`` returning, not raising, means no traceback is printed."""

    @staticmethod
    def error_line(capsys) -> str:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("argv", [
        ["run", "--preset", "fig3"],
        ["sweep", "--preset", "fig7", "--freqs", "100", "--loads", "10n"],
        ["montecarlo", "--preset", "fig3", "--trials", "1"],
    ], ids=["run", "sweep", "montecarlo"])
    def test_out_is_a_file_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "taken"
        out.write_text("")
        assert run_cli(*argv, "--out", str(out)) == 2
        err = self.error_line(capsys)
        assert "File exists" in err and str(out) in err

    def test_output_file_is_a_directory_exits_2(self, tmp_path, capsys):
        (tmp_path / "fig3.csv").mkdir()
        assert run_cli("run", "--preset", "fig3", "--out", str(tmp_path)) == 2
        err = self.error_line(capsys)
        assert "Is a directory" in err and str(tmp_path / "fig3.csv") in err

    def test_netlist_is_a_directory_exits_2(self, tmp_path, capsys):
        assert run_cli("run", "--netlist", str(tmp_path), "--out", str(tmp_path)) == 2
        err = self.error_line(capsys)
        assert "Is a directory" in err and str(tmp_path) in err

    def test_netlist_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckt"
        bad.write_bytes(GOOD_NETLIST.encode() + b"\xff\n")
        assert run_cli("run", "--netlist", str(bad), "--out", str(tmp_path)) == 2
        err = self.error_line(capsys)
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")
        assert not list(tmp_path.glob("*.csv"))

    def test_netlist_with_bom_runs_like_plain(self, tmp_path):
        text = print_scenario(load_preset("fig3"))
        plain, bom = tmp_path / "plain", tmp_path / "bom"
        for out, data in ((plain, text.encode()), (bom, b"\xef\xbb\xbf" + text.encode())):
            out.mkdir()
            (out / "fig3.ckt").write_bytes(data)
            assert run_cli("run", "--netlist", str(out / "fig3.ckt"), "--out", str(out)) == 0
        assert netlist.parse_file(bom / "fig3.ckt") == netlist.parse_file(plain / "fig3.ckt")
        assert (bom / "fig3.csv").read_bytes() == (plain / "fig3.csv").read_bytes()


class TestUsageErrorTable:
    """Each usage error the CLI itself raises: exit 2, its one line, no output."""

    @pytest.mark.parametrize("argv, line", [
        (["run", "--preset", "fig3", "--set", "tran.step"],
         "--set needs key=value, got 'tran.step'"),
        (["run", "--preset", "fig3", "--set", "foo.bar=1"],
         "--set: unknown path 'foo.bar' (tran.*, ctrl.*, comp.*)"),
        (["run", "--preset", "fig3", "--set", "tran.frob=1"],
         "--set: unknown tran key 'frob' (allowed: step, stop, damp)"),
        (["run", "--preset", "fig3", "--set", "ctrl.h.f=1"], "--set: unknown control 'h'"),
        (["run", "--preset", "fig3", "--set", "ctrl.g.frob=1"],
         "--set: unknown control 'g' key 'frob' (allowed: f, duty, phase)"),
        (["run", "--preset", "fig3", "--set", "comp.Q9.value=1"],
         "--set: unknown component 'Q9'"),
        (["run", "--preset", "fig3", "--set", "comp.Rb1.frob=1"],
         "--set: unknown component 'Rb1' key 'frob' (allowed: value)"),
        (["run", "--preset", "fig3", "--set", "tran.step=abc"],
         "--set tran.step: malformed value 'abc'"),
        (["run", "--preset", "fig3", "--set", "tran.step=0"],
         "--set tran.step: integration step must be > 0, got 0.0"),
        (["run", "--preset", "fig3", "--set", "ctrl.g.duty=2"],
         "--set ctrl.g.duty: control duty must be in (0, 1), got 2.0"),
        (["run", "--preset", "fig3", "--set", "comp.Sq1.roff=1"],
         "--set comp.Sq1.roff: Sq1: on-resistance 5.0 must be below off-resistance 1.0"),
        # each override is checked as it is applied, so their order matters
        (["run", "--preset", "fig3", "--set", "comp.Sq1.ron=2G", "--set", "comp.Sq1.roff=5G"],
         "--set comp.Sq1.ron: Sq1: on-resistance 2000000000.0 must be below "
         "off-resistance 900000000.0"),
        (["run"], "exactly one of --preset or --netlist is required"),
        (["run", "--preset", "fig3", "--netlist", "fig3.ckt"],
         "exactly one of --preset or --netlist is required"),
        (["run", "--netlist", "{dir}/noprobe.ckt"],
         "noprobe: no probes requested (add .probe directives)"),
        (["montecarlo"], "montecarlo needs --preset"),
        (["sweep", "--preset", "fig7", "--freqs", ""], "empty frequency list"),
        (["sweep", "--preset", "fig7", "--freqs", "100,,200"], "empty entry in frequency list"),
        (["sweep", "--preset", "fig7", "--loads", "10n,,dea"], "empty entry in load list"),
        (["sweep", "--preset", "fig8", "--supply", "moon"],
         "--supply must be bench, converter, or both"),
        (["sweep", "--preset", "fig7", "--freqs", "100,-5"],
         "frequencies must be positive and finite"),
        (["sweep", "--preset", "fig8", "--freqs", "0"], "frequencies must be positive and finite"),
        # an empty --supply is not the absent flag's "both"
        (["sweep", "--preset", "fig8", "--supply", ""],
         "--supply must be bench, converter, or both"),
    ])
    def test_exit_2_with_one_line(self, tmp_path, capsys, argv, line):
        (tmp_path / "noprobe.ckt").write_text("V1 A 0 10\nR1 A 0 1k\n.tran 1u 1m\n.end\n")
        argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not (tmp_path / "out").exists()

    def test_overrides_in_a_valid_order_apply(self, tmp_path):
        assert run_cli("run", "--preset", "fig3", "--out", str(tmp_path), "--set",
                       "comp.Sq1.roff=5G", "--set", "comp.Sq1.ron=2G") == 0


class TestNumericFailure:
    """A numerical failure exits 3 with one ``error:`` line and writes nothing."""

    @pytest.mark.parametrize("text, line", [
        ("V1 A 0 10\nV2 A 0 5\nR1 A 0 1k\n.tran 1u 1m\n.probe A\n.end\n",
         "singular system while factoring (check source 'V2')"),
        ("V1 A 0 10\nR1 A B 1k\nC1 B 0 1n\nC2 B 0 1n ic=5\n.tran 1u 1m\n.probe B\n.end\n",
         "inconsistent capacitor pre-charges at t=0.0 (constraint residual 2.5)"),
    ], ids=["conflicting-sources", "conflicting-precharges"])
    def test_exit_3_with_one_line(self, tmp_path, capsys, text, line):
        path = tmp_path / "num.ckt"
        path.write_text(text)
        assert run_cli("run", "--netlist", str(path), "--out", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not (tmp_path / "out").exists()


class TestCheckedOverflow:
    """An overflow that a finiteness check then fails exits 3 with one
    ``error:`` line and no numpy RuntimeWarning."""

    def test_diverging_run(self, tmp_path, capsys, recwarn):
        argv = ["run", "--preset", "fig5", "--set", "comp.Cload_c.value=1e10",
                "--set", "comp.Cload_c.ic=1e300", "--set", "tran.stop=200u"]
        assert run_cli(*argv, "--out", str(tmp_path)) == 3
        assert capsys.readouterr().err == "error: solution diverged at t=5.2e-05\n"
        assert not recwarn.list

    def test_overflowing_displacement_drive(self, tmp_path, capsys, recwarn):
        # (v/1800)^2 first overflows at 0.56 ms: the error names that sample,
        # not the start of the filter block it falls in
        argv = ["run", "--preset", "fig8", "--set", "comp.Vsup_emf.value=1e160",
                "--set", "tran.stop=1m"]
        assert run_cli(*argv, "--out", str(tmp_path)) == 3
        assert capsys.readouterr().err == (
            "error: normalized drive (v/1800)^2 not finite at t=0.0005600000000000001\n")
        assert not recwarn.list
        assert list(tmp_path.iterdir()) == []


class TestPresetErrorText:
    @pytest.mark.parametrize("argv, line", [
        (["run", "--preset", "nope"],
         "error: unknown preset 'nope'; available: fig2, fig3, fig4a, fig4b, fig5, "
         "fig6b, fig6c, fig7, fig7c, fig8, slew"),
        (["sweep", "--preset", "fig7", "--loads", "5n"],
         "error: unknown load descriptor '5n' (10n, 20n, 50n, dea)"),
        (["montecarlo", "--preset", "fig5"],
         "error: no Monte-Carlo template for 'fig5'; available: fig2, fig2_hv, fig3, fig3_hv"),
    ], ids=["run", "sweep", "montecarlo"])
    def test_printed_without_quotes(self, tmp_path, capsys, argv, line):
        assert run_cli(*argv, "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == line + "\n"
