"""hvsim benchmark: end-to-end CLI workloads and a traced per-module split.

Usage, from the repository root:

    python3 perfbench/run.py --workload run_presets --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh child process (child.py) that calls
``hvsim.cli.main`` in-process, one job after another.  Set-up is measured in
that child and in ``SETUP_SAMPLES - 1`` more set-up-only children; the median
is reported.  Outputs are checked against reference.json (check.py).  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics of BENCHMARK.json with
``--trace 0`` and its per-layer metrics with ``--trace 1``.  End-to-end
times are host times scaled to the reference host speed that the reference
kernel (refkernel.py) measures in the same run; per-layer times are host
times.  The exit code is 0 only if every operation succeeded and every
output matched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
#: every child must end by then, so that a run exits within 180 s
DEADLINE_S = 170

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import workloads  # noqa: E402

class BenchError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


def _child(workload: str, seed: int, workdir: Path, result: Path, deadline: float,
           *extra: str) -> dict:
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), "--result", str(result), *extra]
    with open(workdir / "stdout.log", "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: did not finish within {DEADLINE_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(result.read_text())


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _references(name: str, seed: int) -> dict:
    table = json.loads((HERE / "reference.json").read_text())[name]
    if name == "mc_fig3":
        return table[str(workloads.mc_seed(seed))]
    return table


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _check_pass(p: dict, refs: dict, tally: Tally, same_as: dict = None) -> None:
    """Count one pass's jobs, sweep cells and trials, and check its outputs.

    With ``same_as`` (an earlier checked pass), a file byte-identical to that
    pass's copy counts as checked; any other file is compared with the
    reference.
    """
    out = Path(p["dir"])
    for job in p["jobs"]:
        where = f"{p['tag']}:{job['job']}"
        errors = [] if job["code"] == 0 else [f"exit code {job['code']}"]
        for name in job["outputs"]:
            path = out / name
            for ok in check.operation_status(path):
                tally.add(ok, f"{where}: {name}: failed sweep cell or trial")
            if same_as is None or not _same(path, Path(same_as["dir"]) / name):
                errors += check.compare(refs[name], path)
        tally.add(not errors, f"{where}: " + "; ".join(errors))


def _same(a: Path, b: Path) -> bool:
    return a.is_file() and b.is_file() and _sha(a) == _sha(b)


def _identical(a: dict, b: dict, tally: Tally) -> None:
    """Determinism: every output of pass ``b`` is byte-identical to ``a``'s."""
    for job in a["jobs"]:
        for name in job["outputs"]:
            tally.add(_same(Path(a["dir"]) / name, Path(b["dir"]) / name),
                      f"{b['tag']}: {name} differs from {a['tag']}")


def run_workload(name: str, seed: int, seconds: float, trace: int):
    """Run one workload; return (metrics, tally, record)."""
    if not (ROOT / "src" / "hvsim" / "__init__.py").is_file():
        raise BenchError(f"no hvsim sources under {ROOT / 'src'}")
    if name not in workloads.NAMES:
        raise BenchError(f"unknown workload {name!r}; available: {', '.join(workloads.NAMES)}")
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    try:
        setups = [
            _child(name, seed, workdir / f"setup{i}", workdir / f"setup{i}.json", deadline,
                   "--setup-only")["setup_s"]
            for i in range(SETUP_SAMPLES - 1)
        ]
        spans_path = OUT / f"{name}-seed{seed}-spans.json"
        extra = ["--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            extra += ["--spans", str(spans_path)]
        record = _child(name, seed, workdir / "main", workdir / "main.json", deadline, *extra)
        setups.append(record["setup_s"])
        refs = _references(name, seed)
        tally = Tally()
        passes = record["passes"]
        _check_pass(passes[0], refs, tally)
        if trace == 0:
            for p in passes[1:]:
                _check_pass(p, refs, tally, same_as=passes[0])
            # one pass at the reference host speed (see refkernel.py)
            wall = record["host_wall_s"] / record["slowdown"]
            metrics = {
                "wall_s": wall,
                "steps_per_s": record["steps"] / wall,
                "peak_rss_mb": record["peak_rss_mb"],
                "setup_s": statistics.median(setups),
            }
        else:
            # untraced, traced, and for the sweep the whole grid at
            # --workers 1 and --workers 2: each pair must agree byte for byte
            untraced, traced = passes[0], passes[1]
            for a, b in zip(passes[::2], passes[1::2]):
                if a is not untraced:
                    _check_pass(a, refs, tally)
                _check_pass(b, refs, tally, same_as=a)
                _identical(a, b, tally)
            metrics = dict(record["layers"])
            metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
            metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced["wall_s"]
            tally.add(metrics["engine.steps"] == record["steps"],
                      f"traced engine.steps {metrics['engine.steps']} != "
                      f"{record['steps']} steps counted from the inputs")
            worst = max((abs(r["error_s"]) for r in record["roots"]), default=0.0)
            tally.add(worst < 1e-9, f"root span identity off by {worst} s")
        record["setup_samples"] = setups
        record["metrics"] = metrics
        record["attempted"], record["failed"] = tally.attempted, tally.failed
        record["errors"] = tally.errors
        (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
        return metrics, tally, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    out = {}
    try:
        for name in names:
            metrics, tally, record = run_workload(name, args.seed, seconds, args.trace)
            attempted += tally.attempted
            failed += tally.failed
            print(f"{name} env {json.dumps(record['env'])}")
            for m in wanted:
                if m["name"] not in metrics:
                    raise BenchError(f"{name}: metric {m['name']!r} was not measured")
                value = metrics[m["name"]]
                print(f"{name:12s} {m['name']:40s} {value:14.6g} {m['unit']}")
                key = m["name"] if len(names) == 1 else f"{name}/{m['name']}"
                out[key] = {"value": value, "unit": m["unit"]}
            if "slowdown" in record:
                print(f"{name:12s} {'host_wall_s, slowdown':40s} "
                      f"{record['host_wall_s']:14.6g} s, {record['slowdown']:.4g}")
            print(f"{name:12s} {'failed_frac':40s} {tally.failed / tally.attempted:14.6g} "
                  f"ratio ({tally.failed} of {tally.attempted} operations)")
            for err in tally.errors:
                print(f"FAILED {name}: {err}", file=sys.stderr)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
