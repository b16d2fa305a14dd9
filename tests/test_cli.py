"""CLI contract tests: outputs, exit codes, overrides, and determinism."""

import pytest

from hvsim.cli import main
from hvsim.waveform import read_csv

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

    def test_component_override(self, tmp_path):
        code = run_cli(
            "run", "--preset", "fig3", "--out", str(tmp_path),
            "--set", "comp.Rb1.value=1.8M", "--set", "tran.stop=0.1",
        )
        assert code == 0

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

    def test_fig8_both_supplies(self, tmp_path):
        code = run_cli(
            "sweep", "--preset", "fig8", "--out", str(tmp_path),
            "--freqs", "2,15", "--supply", "both",
        )
        assert code == 0
        lines = (tmp_path / "fig8_sweep.csv").read_text().splitlines()
        assert lines[0] == "freq_hz,x_bench,x_converter"
        assert len(lines) == 3

    def test_fig7c_phase_table(self, tmp_path):
        code = run_cli(
            "sweep", "--preset", "fig7c", "--out", str(tmp_path),
            "--phases", "0,pi/2,pi",
        )
        assert code == 0
        lines = (tmp_path / "fig7c_phases.csv").read_text().splitlines()
        assert lines[0] == "phase_rad,peak_i_a,peak_p_w"
        assert len(lines) == 4


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

    def test_same_seed_identical_csv(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = run_cli(
                "montecarlo", "--preset", "fig3", "--out", str(out),
                "--trials", "6", "--sigma", "1", "--seed", "9",
            )
            assert code == 0
        assert (a / "fig3_mc.csv").read_bytes() == (b / "fig3_mc.csv").read_bytes()


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
