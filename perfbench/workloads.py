"""Workload definitions: the exact ``hvsim`` CLI job list of each workload.

A workload is prepared once per process (``prepare``), which writes its input
files and fixes its step count, and then yields the same job list for every
pass (``jobs``).  Each job is one ``hvsim.cli.main(argv)`` call.  Jobs run
serially: a closed loop with one client.

Every job is kept short, a fifth to a third of a second on the 2-vCPU VM
where the benchmark was built, about as long as the reference kernel
(refkernel.py).  That host's speed drifts by up to ~50% on a scale of a
fraction of a second to minutes.  Short jobs repeat ten times or more in a
run, interleaved with the kernel, so that the 10th percentile of their
repeats and of the kernel's sample the same stretches of the run; a job of
several seconds ran once or twice per run.

Why these three workloads:

- ``run_presets``: six ``hvsim run --netlist`` calls whose time goes to the
  engine step loop and to ``write_csv``.  A step-loop or CSV gain must show
  here.  Each preset is cut to at most ``RUN_MAX_STEPS`` grid steps; the
  jobs span 130 (fig4b) to 12.5k (slew, no switching event) steps per
  segment, 1-7 capacitors and 6-11 unknowns.
- ``sweep_fig7``: converter-fed fig7 sweep cells, one ``hvsim sweep`` call per
  (frequency, load) cell.  Every cell from 25 Hz to 200 Hz runs 11 periods of
  2000 steps and switches every ~260 steps, as the 1 kHz cells do over 51
  periods; that exposes the per-segment set-up cost (one LU factorization per
  event).  A 2 Hz cell (50k steps, ~4k steps per segment) and a 1 kHz cell
  (102k steps) are too long to repeat often in a run; run_presets covers
  long segments.  The traced run also runs the whole grid as one call at
  ``--workers 1`` and at ``--workers 2``, which covers the ``analysis``
  thread pool.
- ``mc_fig3``: a Monte-Carlo study of a purely resistive circuit, so the step
  loop never runs and per-trial fixed cost dominates.  It is the bypass
  workload for step-loop, CSV and pool changes, and the only one that reads
  the benchmark seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Tuple

RUN_PRESETS = ("slew", "fig5", "fig6b", "fig4b", "fig7c", "fig8")
#: each run_presets netlist stops after at most this many grid steps
RUN_MAX_STEPS = 12_500
SWEEP_FREQS = (30.0, 200.0)
SWEEP_LOADS = ("10n", "dea")
POOL_WORKERS = 2  # the traced whole-grid pass of sweep_fig7
MC_PRESET = "fig3"
MC_CHUNKS = 6  # montecarlo calls per pass
MC_TRIALS = 50  # trials per call
MC_SIGMA = 1.0
#: benchmark seeds map onto this many Monte-Carlo seeds, each of which has a
#: recorded reference (see reference.json)
MC_SEEDS = 32

NAMES = ("run_presets", "sweep_fig7", "mc_fig3")

#: (job id, CLI argv, output paths relative to the pass directory)
Job = Tuple[str, List[str], List[str]]


@dataclass
class Prepared:
    """Inputs of one workload, made during set-up."""

    name: str
    seed: int
    netlists: Dict[str, str] = field(default_factory=dict)  # preset -> path
    steps: int = 0  # total IntegrationSettings.n_steps over one pass

    def jobs(self, out: Path) -> List[Job]:
        if self.name == "run_presets":
            return [
                (f"run:{p}", ["run", "--netlist", self.netlists[p], "--out", str(out)],
                 [f"{p}.csv"] + (["fig8_displacement.csv"] if p == "fig8" else []))
                for p in RUN_PRESETS
            ]
        if self.name == "sweep_fig7":
            return [
                (f"sweep:{f:g}:{load}", _sweep_argv([f], [load], 1, out / f"{f:g}-{load}"),
                 [f"{f:g}-{load}/fig7_sweep.csv"])
                for f in SWEEP_FREQS for load in SWEEP_LOADS
            ]
        base = mc_seed(self.seed) * MC_CHUNKS
        return [
            (f"montecarlo:{MC_PRESET}:{base + k}",
             ["montecarlo", "--preset", MC_PRESET, "--trials", str(MC_TRIALS),
              "--sigma", f"{MC_SIGMA:g}", "--seed", str(base + k),
              "--workers", "1", "--out", str(out / f"mc{k}")],
             [f"mc{k}/{MC_PRESET}_mc.csv"])
            for k in range(MC_CHUNKS)
        ]

    def grid_jobs(self, out: Path, workers: int) -> List[Job]:
        """sweep_fig7 only: the whole grid as one call."""
        return [("sweep:grid", _sweep_argv(SWEEP_FREQS, SWEEP_LOADS, workers, out / "grid"),
                 ["grid/fig7_sweep.csv"])]


def _sweep_argv(freqs, loads, workers: int, out: Path) -> List[str]:
    return ["sweep", "--preset", "fig7", "--freqs", ",".join(f"{f:g}" for f in freqs),
            "--loads", ",".join(loads), "--workers", str(workers), "--out", str(out)]


def mc_seed(seed: int) -> int:
    return seed % MC_SEEDS


def prepare(name: str, seed: int, workdir: Path) -> Prepared:
    """Write the workload's input files under ``workdir`` and count its steps.

    Imports ``hvsim`` lazily so that the caller can time the import.
    """
    from hvsim import analysis, netlist, presets
    from hvsim.engine import IntegrationSettings

    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; available: {', '.join(NAMES)}")
    prep = Prepared(name, seed)
    if name == "run_presets":
        nl_dir = workdir / "netlists"
        nl_dir.mkdir(parents=True, exist_ok=True)
        for p in RUN_PRESETS:
            scenario = presets.load_preset(p)
            settings = scenario.settings
            if settings.n_steps > RUN_MAX_STEPS:
                settings = replace(settings, stop=RUN_MAX_STEPS * settings.step)
                scenario = replace(scenario, settings=settings)
            path = nl_dir / f"{p}.ckt"
            path.write_text(netlist.print_scenario(scenario), encoding="utf-8")
            prep.netlists[p] = str(path)
            prep.steps += settings.n_steps
    elif name == "sweep_fig7":
        for f in SWEEP_FREQS:
            settle = analysis.settle_periods_for(f)
            settings = IntegrationSettings(
                step=analysis.sweep_step_for(f), stop=(settle + 1) * (1.0 / f)
            )
            prep.steps += settings.n_steps * len(SWEEP_LOADS)
    else:
        scenario = presets.mc_template(MC_PRESET)([300e6] * 4, [0.0] * 4)
        prep.steps = scenario.settings.n_steps * MC_TRIALS * MC_CHUNKS
    return prep
