"""Paired benchmark of a git revision against the working tree.

Usage::

    python tools/bench_against.py REV WORK_DIR [--pairs N] [--seconds S]
                                  [--seed0 K] [--workload W]
    python tools/bench_against.py --in-process REV WORK_DIR [--pairs N]
                                  [--seed0 K] [--workload W]

The perf twin of ``tools/sha_corpus.py --against``.  It exports ``src/`` of
the git revision ``REV`` (with ``git archive``) into ``WORK_DIR/parent`` and
copies the working tree's ``src/`` into ``WORK_DIR/change``; each tree gets a
copy of the working tree's ``perfbench/`` and ``BENCHMARK.json``, so both run
the same benchmark (``perfbench/run.py`` imports ``hvsim`` from the ``src/``
next to it).  ``WORK_DIR`` must be new or empty.  Nothing under the
repository's ``perfbench/`` is written.

Pair ``i`` runs ``perfbench/run.py --workload W --seed K+i --seconds S
--trace 0`` on both trees, parent first for even ``i`` and change first for
odd ``i``.  Then one ``--trace 1`` run per tree (seed ``K``) records the
per-layer counters.  ``WORK_DIR/bench.json`` gets, for each workload and
end-to-end metric of ``BENCHMARK.json``: both sides' values, medians and
quartiles, the change/parent ratio of the medians, the pairs the change
won, the metric's bound and two verdicts.  ``gain_shown`` holds when the
change won at least 9 of every 10 pairs and its median is better than the
parent's by more than the parent's interquartile range; ``worse_than_bound``
holds when its median is worse than the parent's by more than the bound, a
fraction of the parent's median.  The null test, ``REV=HEAD`` on a clean
tree, should give neither.  It also records the host, the Python, numpy
and scipy versions, and the OpenBLAS kernel each of numpy and scipy runs
(``tools/blas_kernel.py``).  A summary table goes to stdout, followed by the
change side's runs as a ``perfbench/trajectory.json`` entry (JSON, also kept
in ``bench.json``), which ``perfbench/trajectory.py`` of the change tree
summarizes from that tree's ``.perfbench_out/`` records.  Exits 1 when a run fails or an
output check fails.

``--in-process`` times the same workloads with both trees loaded in one
process instead, which takes the host's drift between two processes, and
perfbench's normalisation of it, out of the comparison.  It exports ``REV``'s
``src/`` into ``WORK_DIR/parent`` and copies the working tree's into
``WORK_DIR/change``, then imports each tree's ``hvsim`` under its own package
name (``hvsim_parent``, ``hvsim_change``; ``src/`` imports itself by relative
imports only).  Each side prepares its inputs with the working tree's
``perfbench/workloads.py`` (seed ``K``) and runs one untimed pass.  Then each
of ``N`` rounds (default 40) runs every workload's in-process body, its job
list of ``hvsim.cli.main`` calls, once per side, in an order drawn at random
(seeded by ``K``).  ``WORK_DIR/bench.json`` gets an ``in_process`` section:
per workload both sides' times, the median of the per-round change/parent
ratios, its 95% bootstrap interval (2,000 resamples of the rounds) and the
rounds the change won.  Start-up is not in it: that stays a fresh-process
measurement of the paired run.  ``REV=HEAD`` on a clean tree (the null run)
should give an interval that holds 1.

The rule for a speed claim: the in-process interval of the claimed workload
lies below 1, and no end-to-end metric of the paired run is
``worse_than_bound``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def _prepare(rev: str, work: Path) -> dict:
    """The two trees under ``work``, by side name."""
    trees = {side: work / side for side in SIDES}
    for tree in trees.values():
        tree.mkdir(parents=True)
        shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
    shutil.copytree(ROOT / "src", trees["change"] / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return trees


@contextlib.contextmanager
def loaded(srcs: dict):
    """``{side: package}``: each side's ``hvsim`` package, from the ``src``
    directory ``srcs[side]``, imported as ``hvsim_<side>`` with its ``cli``
    (which imports every module a workload runs).  On exit every module the
    trees added to ``sys.modules`` is taken out again."""
    before = set(sys.modules)
    try:
        packages = {}
        for side, src in srcs.items():
            name = f"hvsim_{side}"
            spec = importlib.util.spec_from_file_location(
                name, src / "hvsim" / "__init__.py",
                submodule_search_locations=[str(src / "hvsim")])
            packages[side] = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(packages[side])
            importlib.import_module(f"{name}.cli")
        yield packages
    finally:
        for name in set(sys.modules) - before:
            if name.split(".")[0] in {f"hvsim_{side}" for side in srcs}:
                del sys.modules[name]


@contextlib.contextmanager
def _as_hvsim(package):
    """``package`` and its modules importable as ``hvsim``, for the inputs
    that ``perfbench/workloads.py`` makes with ``import hvsim``."""
    prefix = package.__name__
    aliases = {"hvsim" + name[len(prefix):]: module for name, module in list(sys.modules.items())
               if name.split(".")[0] == prefix}
    saved = {name: sys.modules.get(name) for name in aliases}
    sys.modules.update(aliases)
    try:
        yield
    finally:
        for name, module in saved.items():
            if module is None:
                del sys.modules[name]
            else:
                sys.modules[name] = module


def _body(cli, jobs) -> float:
    """Seconds to run ``jobs`` through ``cli.main``; a job that does not exit
    0 stops the tool."""
    gc.collect()
    start = time.perf_counter()
    for job_id, argv, _ in jobs:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            sys.exit(f"{cli.__name__}: job {job_id} exited {code}")
    return time.perf_counter() - start


def ratio_interval(parent: list, change: list, resamples: int = 2000, seed: int = 0) -> dict:
    """Median of the per-round ``change / parent`` ratios, its 95% bootstrap
    interval and the rounds the change won (took less time)."""
    ratios = [c / p for p, c in zip(parent, change)]
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(resamples))
    return {"ratio_median": statistics.median(ratios),
            "ratio_ci95": [medians[int(0.025 * resamples)], medians[int(0.975 * resamples) - 1]],
            "change_wins": sum(r < 1.0 for r in ratios), "rounds": len(ratios)}


def in_process(trees: dict, workloads: list, rounds: int, seed: int) -> dict:
    """Per workload: both sides' body times over ``rounds`` rounds, each
    round's order drawn at random, and :func:`ratio_interval`."""
    name = "_perfbench_workloads"  # registered while its dataclass is made
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
    bench = sys.modules[name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(bench)
    finally:
        del sys.modules[name]
    rng = random.Random(seed)
    times = {w: {side: [] for side in SIDES} for w in workloads}
    with loaded({side: trees[side] / "src" for side in SIDES}) as packages:
        bodies = {}
        for side in SIDES:
            cli = sys.modules[f"{packages[side].__name__}.cli"]
            for w in workloads:
                work = trees[side] / "in_process" / w
                with _as_hvsim(packages[side]):
                    prep = bench.prepare(w, seed, work)
                jobs = prep.jobs(work / "out")
                _body(cli, jobs)  # warm-up
                bodies[side, w] = cli, jobs
        for i in range(rounds):
            order = [(side, w) for side in SIDES for w in workloads]
            rng.shuffle(order)
            for side, w in order:
                times[w][side].append(_body(*bodies[side, w]))
            print(f"round {i + 1}/{rounds} done", file=sys.stderr)
    return {w: {**{side: _spread(t[side]) for side in SIDES},
                **ratio_interval(t["parent"], t["change"], seed=seed)}
            for w, t in times.items()}


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` call: its last stdout line, a JSON object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"{tree.name}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def _keyed(metrics: dict, workload: str) -> dict:
    """``{"workload/metric": value}``; a one-workload run has bare names."""
    return {(k if "/" in k else f"{workload}/{k}"): v["value"] for k, v in metrics.items()}


def _spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def summarize(runs: dict, spec: dict, workloads) -> dict:
    """Per ``workload/metric`` of the end-to-end metrics: both sides' spread,
    the ratio of medians, pair wins, the bound and the two verdicts."""
    out = {}
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = f"{workload}/{metric['name']}"
            parent = [r[key] for r in runs["parent"]]
            change = [r[key] for r in runs["change"]]
            sign = 1.0 if metric["better"] == "lower" else -1.0  # > 0: the change is better
            wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
            p, c = _spread(parent), _spread(change)
            gain = sign * (p["median"] - c["median"])
            out[key] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": p,
                "change": c,
                "ratio": c["median"] / p["median"] if p["median"] else None,
                "change_wins": wins,
                "pairs": len(parent),
                "gain_shown": 10 * wins >= 9 * len(parent) and gain > p["q3"] - p["q1"],
                "worse_than_bound": -gain > metric["bound"] * abs(p["median"]),
            }
    return out


def trajectory_entry(tree: Path, label: str, note: str) -> dict:
    """The perfbench records of ``tree`` as a ``perfbench/trajectory.json`` entry,
    summarized by that tree's own ``perfbench/trajectory.py``."""
    spec = importlib.util.spec_from_file_location("trajectory", tree / "perfbench" / "trajectory.py")
    trajectory = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trajectory)
    records = [json.loads(p.read_text())
               for p in sorted((tree / ".perfbench_out").glob("*-trace[01].json"))]
    summary, env = trajectory.summarize(records)
    return {"label": label, "note": note, "env": env, **summary}


def _env() -> dict:
    import numpy
    import scipy
    from blas_kernel import kernels  # next to this script

    return {"host": platform.platform(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_kernels": kernels()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="git revision whose src/ is the parent side")
    ap.add_argument("work", type=Path, help="new or empty working directory")
    ap.add_argument("--pairs", type=int, help="pairs, or rounds with --in-process "
                    "(default 10, or 40)")
    ap.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--seed0", type=int, default=1000, help="seed of the first pair")
    ap.add_argument("--workload", default="all")
    ap.add_argument("--in-process", action="store_true",
                    help="time both trees in one process, in randomised order")
    args = ap.parse_args(argv)
    if args.pairs is None:
        args.pairs = 40 if args.in_process else 10
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    work = args.work.resolve()
    if work.exists() and any(work.iterdir()):
        ap.error(f"{work} is not empty")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else [args.workload])
    trees = _prepare(args.rev, work)
    rev_commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.rev],
                                capture_output=True, text=True).stdout.strip()
    if args.in_process:
        report = {"rev": args.rev, "rev_commit": rev_commit, "rounds": args.pairs,
                  "seed": args.seed0, "order": "random per round", "env": _env(),
                  "in_process": in_process(trees, workloads, args.pairs, args.seed0)}
        (work / "bench.json").write_text(json.dumps(report, indent=1) + "\n")
        print(f"{'workload':12s} {'parent s':>10s} {'change s':>10s} {'ratio':>7s} "
              f"{'95% interval':>15s} {'wins':>6s}")
        for w, row in report["in_process"].items():
            lo, hi = row["ratio_ci95"]
            print(f"{w:12s} {row['parent']['median']:10.5f} {row['change']['median']:10.5f} "
                  f"{row['ratio_median']:7.3f} {lo:7.3f}-{hi:<7.3f} "
                  f"{row['change_wins']:>3d}/{row['rounds']:<3d}")
        print(f"wrote {work / 'bench.json'}")
        return 0

    runs = {side: [] for side in SIDES}
    failed = []
    for i in range(args.pairs):
        seed = args.seed0 + i
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = _run(trees[side], args.workload, seed, seconds, 0)
            runs[side].append(_keyed(result["metrics"], args.workload))
            if not result["correct"]:
                failed.append(f"{side} seed {seed}: {result['failed']} failed operations")
        print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
    traced = {}
    for side in SIDES:
        result = _run(trees[side], args.workload, args.seed0, seconds, 1)
        traced[side] = _keyed(result["metrics"], args.workload)
        if not result["correct"]:
            failed.append(f"{side} traced: {result['failed']} failed operations")

    seeds = range(args.seed0, args.seed0 + args.pairs)
    report = {
        "rev": args.rev,
        "rev_commit": rev_commit,
        "pairs": args.pairs,
        "seeds": [seeds[0], seeds[-1]],
        "seconds": seconds,
        "order": "parent first in even pairs, change first in odd pairs",
        "env": _env(),
        "end_to_end": summarize(runs, spec, workloads),
        "traced": traced,
        "failed": failed,
        "trajectory_entry": trajectory_entry(
            trees["change"], f"working tree on {rev_commit[:12]}",
            f"tools/bench_against.py {args.rev}: {args.pairs} --trace 0 runs (seeds "
            f"{seeds[0]}-{seeds[-1]}, {seconds:g} s) and one --trace 1 run of the working "
            f"tree, paired with {args.rev}"),
    }
    (work / "bench.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"{'workload/metric':28s} {'parent':>11s} {'change':>11s} {'ratio':>7s} "
          f"{'wins':>6s} {'bound':>6s}  gain shown / worse than bound")
    for key, row in report["end_to_end"].items():
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(f"{key:28s} {row['parent']['median']:11.5g} {row['change']['median']:11.5g} "
              f"{ratio:>7s} {row['change_wins']:>3d}/{row['pairs']:<2d} "
              f"{row['bound']:6.2f}  {row['gain_shown']} / {row['worse_than_bound']}")
    print(json.dumps(report["trajectory_entry"], indent=1))
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"wrote {work / 'bench.json'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
