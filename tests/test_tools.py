"""Tests of the repository tools on synthetic inputs (no benchmark is run)."""

import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a tool that imports another tool finds it here
    spec.loader.exec_module(module)
    return module


bench_against = _load("bench_against")
blas_kernel = _load("blas_kernel")
sha_corpus = _load("sha_corpus")

SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "steps_per_s", "unit": "steps/s", "better": "higher", "bound": 0.25},
]}

#: ten parent runs of one metric, drifting about 1% from pair to pair
PARENT = [1.000, 1.012, 0.995, 1.004, 1.010, 0.991, 1.007, 0.998, 1.002, 1.009]


def verdicts(parent, change, metric):
    """(gain_shown, worse_than_bound) of ``metric`` for the paired runs."""
    keys = [f"mc_fig3/{m['name']}" for m in SPEC["end_to_end"]]
    runs = {side: [dict.fromkeys(keys, v) for v in values]
            for side, values in (("parent", parent), ("change", change))}
    row = bench_against.summarize(runs, SPEC, ["mc_fig3"])[f"mc_fig3/{metric}"]
    return row["gain_shown"], row["worse_than_bound"]


class TestBenchVerdicts:
    def test_same_code_shows_neither(self):
        # the same values in another order: the null test
        same = PARENT[3:] + PARENT[:3]
        assert verdicts(PARENT, same, "wall_s") == (False, False)
        assert verdicts(PARENT, same, "steps_per_s") == (False, False)

    @pytest.mark.parametrize("metric, factor", [("wall_s", 0.98), ("steps_per_s", 1.02)])
    def test_two_percent_gain_in_every_pair_is_shown(self, metric, factor):
        # a 2% shift is inside the parent's spread of values, but it wins every pair
        assert verdicts(PARENT, [v * factor for v in PARENT], metric) == (True, False)

    def test_gain_that_loses_two_pairs_is_not_shown(self):
        change = [v * 0.95 for v in PARENT]
        change[1] = change[4] = 1.1
        assert verdicts(PARENT, change, "wall_s") == (False, False)

    def test_gain_inside_the_parent_spread_is_not_shown(self):
        # every pair won by a hair: the medians differ by less than the parent's IQR
        assert verdicts(PARENT, [v - 1e-4 for v in PARENT], "wall_s") == (False, False)

    @pytest.mark.parametrize("metric, factor, worse", [
        ("wall_s", 1.30, True), ("wall_s", 1.20, False),
        ("steps_per_s", 0.70, True), ("steps_per_s", 0.80, False),
    ])
    def test_worse_than_bound(self, metric, factor, worse):
        assert verdicts(PARENT, [v * factor for v in PARENT], metric) == (False, worse)


class TestTrajectoryEntry:
    def test_has_the_shape_of_the_trajectory_file(self, tmp_path):
        (tmp_path / "perfbench").mkdir()
        shutil.copy(TOOLS.parent / "perfbench" / "trajectory.py", tmp_path / "perfbench")
        out = tmp_path / ".perfbench_out"
        out.mkdir()
        for workload in ("mc_fig3", "run_presets"):
            for seed, value in enumerate(PARENT, 1000):
                record = {"env": {"python": "3", "workload": workload, "seed": seed, "jobs": []},
                          "metrics": {"wall_s": value, "steps_per_s": 1 / value},
                          "attempted": 6, "failed": 0}
                (out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))
            record["layers"], record["metrics"] = {}, {"engine.steps": 7}
            (out / f"{workload}-seed1000-trace1.json").write_text(json.dumps(record))
        entry = bench_against.trajectory_entry(tmp_path, "change", "ten runs")
        recorded = json.loads((TOOLS.parent / "perfbench" / "trajectory.json").read_text())[0]
        assert set(entry) == set(recorded)
        assert (entry["label"], entry["env"]) == ("change", {"python": "3"})
        for trace in ("end_to_end", "per_layer"):
            assert set(entry[trace]) == {"mc_fig3", "run_presets"}
            seed_row = recorded[trace]["mc_fig3"]
            for rows in entry[trace].values():
                assert set(rows) <= set(seed_row)
                for metric, row in rows.items():
                    if metric != "seeds":
                        assert set(row) == set(seed_row[metric])
        wall = entry["end_to_end"]["run_presets"]["wall_s"]
        assert (wall["median"], wall["n"]) == (statistics.median(PARENT), len(PARENT))


class TestBlasKernel:
    def test_missing_library_or_symbol_reads_unknown(self):
        _, pattern, symbol = blas_kernel.LIBRARIES[0]
        assert blas_kernel.corename("no-such.libs/*.so", symbol) == "unknown"
        assert blas_kernel.corename(pattern, "no_such_corename") == "unknown"

    @pytest.mark.skipif(platform.machine() != "x86_64", reason="x86-64 kernel names")
    def test_reads_the_kernel_each_library_runs(self):
        # every x86-64 host runs Katmai, the oldest kernel, so a child told
        # to take it must name it for both libraries
        env = dict(os.environ, OPENBLAS_CORETYPE="Katmai")
        line = subprocess.run([sys.executable, str(TOOLS / "blas_kernel.py")], env=env,
                              capture_output=True, text=True, check=True).stdout
        assert line == "blas kernels: numpy Katmai, scipy Katmai\n"


def drift(tmp_path, parent, change):
    """``csv_drift`` of two CSVs given as their text."""
    (tmp_path / "parent.csv").write_text(parent)
    (tmp_path / "change.csv").write_text(change)
    return sha_corpus.csv_drift(tmp_path / "parent.csv", tmp_path / "change.csv")


class TestCsvDrift:
    TABLE = "t,v,status\n0.0,1.0,ok\n1.0,2.0,ok\n"

    def test_identical_files_give_nothing(self, tmp_path):
        assert drift(tmp_path, self.TABLE, self.TABLE) == []

    def test_one_ulp_change_gives_its_ratio(self, tmp_path):
        change = self.TABLE.replace("2.0,ok", f"{math.nextafter(2.0, 3.0)!r},ok")
        # one ulp of 2.0 over the column's largest |parent|, 2.0
        assert drift(tmp_path, self.TABLE, change) == ["v: 2.22e-16"]

    def test_all_zero_parent_column_gives_x_over_0(self, tmp_path):
        parent = "t,v\n0.0,0.0\n1.0,0.0\n"
        assert drift(tmp_path, parent, parent.replace("1.0,0.0", "1.0,5e-300")) == ["v: 5e-300/0"]

    def test_non_numeric_cell_is_counted(self, tmp_path):
        change = self.TABLE.replace("1.0,2.0,ok", "1.0,nan,failed: singular")
        assert drift(tmp_path, self.TABLE, change) == [
            "v: 1 non-numeric cells differ", "status: 1 non-numeric cells differ"]

    def test_ratio_and_count_together(self, tmp_path):
        change = self.TABLE.replace("0.0,1.0,ok", "0.0,1.5,ok").replace("1.0,2.0,ok", "1.0,x,ok")
        assert drift(tmp_path, self.TABLE, change) == ["v: 0.25, 1 non-numeric cells differ"]

    @pytest.mark.parametrize("change, line", [
        ("t,w,status\n0.0,1.0,ok\n1.0,2.0,ok\n", "the headers differ"),
        ("t,v,status\n0.0,1.0,ok\n", "the row counts or lengths differ"),
        ("t,v,status\n0.0,1.0,ok\n1.0,2.0\n", "the row counts or lengths differ"),
    ], ids=["header", "row-count", "row-length"])
    def test_shape_mismatch_is_reported(self, tmp_path, change, line):
        assert drift(tmp_path, self.TABLE, change) == [line]


class TestCorpusJobs:
    IDS = [job for job, _, _ in sha_corpus.jobs()]

    def test_ids_and_output_directories_are_unique(self):
        assert len(self.IDS) == 240  # a job lost from the list shows here
        assert len(set(self.IDS)) == len(self.IDS)
        assert len({job.replace(":", "_") for job in self.IDS}) == len(self.IDS)

    def test_every_preset_runs_and_runs_as_a_netlist(self):
        for name in sha_corpus.PRESET_NAMES:
            assert f"run:{name}" in self.IDS
            assert f"run:netlist:{name}" in self.IDS


#: the jobs whose listing lines Tier-1 checks: every preset, run as a preset
#: and from its printed netlist, plus the capacitor-free jobs and the gated RC
#: netlist (every run and Monte-Carlo path of the resistive engine walk), and
#: the default fig7 and fig8 sweeps (the sweep tables and their metrics)
SUBSET = tuple(f"run:{kind}{name}" for kind in ("", "netlist:")
               for name in sha_corpus.PRESET_NAMES) + (
    "run:netlist:fig3-pair", "run:fig3:slow-slew", "run:fig3:many-events",
    "run:netlist:conflicting-sources", "run:netlist:gated",
    "mc:fig3:0", "mc:fig3:1", "mc:fig3:2", "mc:fig3:3", "mc:fig2:w2",
    "sweep:fig7:w1", "sweep:fig8")


class TestCommittedListing:
    def test_listing_names_its_kernels_and_lists_every_job(self):
        assert sha_corpus.listing_kernels(sha_corpus.LISTING).startswith(
            "blas kernels: numpy ")
        listed = {job for job, _ in sha_corpus._listing(sha_corpus.LISTING)}
        assert listed == {job for job, _, _ in sha_corpus.jobs()}

    def test_subset_matches_the_committed_bytes(self, tmp_path):
        kernels = sha_corpus.listing_kernels(sha_corpus.LISTING)
        if kernels != blas_kernel.describe():
            pytest.skip(f"the listing holds for {kernels}; this host runs "
                        f"{blas_kernel.describe()}")
        committed = [line for line in sha_corpus.LISTING.read_text().splitlines()
                     if line.split(" ")[0] in SUBSET]
        assert {line.split(" ")[0] for line in committed} == set(SUBSET)
        assert list(sha_corpus.listing_lines(tmp_path, set(SUBSET))) == committed


class TestTrialSplit:
    def test_five_trials_split_by_layer_and_restore_the_program(self):
        trial_split = _load("trial_split")
        originals = [(module, attr, getattr(module, attr))
                     for _, module, attr in trial_split.WRAPPED]
        out = trial_split.split(trials=5, rounds=1, quiet=1)
        for module, attr, fn in originals:
            assert getattr(module, attr) is fn, f"{attr} left wrapped"
        us = out["us_per_trial"]
        assert set(us) == {"trial_plain", "trial_wrapped", "key", "draws", "build",
                           "run_transient", *trial_split.ENGINE, "walk", "_drops"}
        # the residual layers are differences of nested timers
        assert us["trial_plain"] > 0 and all(value >= 0 for value in us.values())
        calls = out["calls_per_trial"]
        # one run per trial; the t=0 topology and one per later switch state
        assert calls["run_transient"] == calls["build"] == calls["_drops"] == 1.0
        assert calls["factor"] == calls["stamp"] >= 2 and calls["solve"] >= calls["factor"]
        json.dumps(out)


class TestInProcess:
    def test_loads_two_trees_and_restores_sys_modules(self):
        import hvsim.cli  # noqa: F401  (numpy and the rest are loaded before, as in a tool run)

        src = TOOLS.parent / "src"
        before = dict(sys.modules)
        with bench_against.loaded({"parent": src, "change": src}) as packages:
            engines = [sys.modules[f"hvsim_{side}.engine"] for side in bench_against.SIDES]
            assert engines[0] is not engines[1] and engines[0].dgetrf is engines[1].dgetrf
            with bench_against._as_hvsim(packages["change"]):
                from hvsim import engine
                assert engine is engines[1]
            assert sys.modules["hvsim.engine"] is before["hvsim.engine"]
        assert sys.modules == before
