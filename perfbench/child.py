"""Fresh-process worker for one workload; started by run.py, not by hand.

Times its own set-up (``import hvsim.cli`` plus preparing the inputs), then
either stops (``--setup-only``) or runs the workload's job list through
in-process ``hvsim.cli.main`` calls and writes a JSON record to ``--result``.

Untraced (``--trace 0``): the first pass runs every job; later passes run
each job only if its fastest time so far still fits before ``--seconds``
have passed since the first pass began, and stop when none fits.  After
each pass the reference kernel (refkernel.py) runs once, under the same
rule.  The record holds the sum over jobs of the 10th percentile of each
job's repeats and the run's slowdown (see refkernel.py).  Traced
(``--trace 1``): one untraced pass and one traced pass; for the sweep, then
the whole grid as one call at ``--workers 1`` and, traced on its own, at
``--workers 2``.  Every pass writes into its own directory.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _run_pass(cli, job_list, workdir: Path, tag: str, tracer=None, fits=None) -> dict:
    """Run ``job_list(out)`` once; with ``fits``, skip each job for which
    ``fits(job_id)`` is false."""
    out = workdir / tag
    out.mkdir(parents=True)
    jobs = []
    cpu0 = process_time()
    start = perf_counter()
    for job_id, argv, outputs in job_list(out):
        if fits is not None and not fits(job_id):
            continue
        if tracer is not None:
            tracer.job = f"{tag}:{job_id}"
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark error
            traceback.print_exc()
            code = -1
        jobs.append({"job": job_id, "argv": argv, "outputs": outputs, "code": code,
                     "s": perf_counter() - t0})
    return {"tag": tag, "dir": str(out), "wall_s": perf_counter() - start,
            "cpu_s": process_time() - cpu0, "jobs": jobs}


def low_decile(values) -> float:
    """10th percentile, inclusive method; the value itself for one sample."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def peak_rss_mb() -> float:
    """Peak resident set of this process since it started, in MiB.

    Linux carries ``ru_maxrss`` over ``execve`` from the forked parent, so a
    large parent would show through; ``VmHWM`` belongs to this address space
    alone.  ``ru_maxrss`` is the fallback where ``/proc`` is missing.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(prep) -> dict:
    """Machine, library and input facts recorded beside every result."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hvsim").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": prep.name,
        "seed": prep.seed,
        "jobs": [argv for _id, argv, _out in prep.jobs(Path("<out>"))],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    t0 = perf_counter()
    import hvsim.cli

    prep = workloads.prepare(args.workload, args.seed, args.workdir)
    setup_s = perf_counter() - t0
    if not Path(hvsim.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"hvsim imported from {hvsim.__file__}, not from {ROOT / 'src'}")
    record = {"setup_s": setup_s, "steps": prep.steps}
    if not args.setup_only:
        cli = hvsim.cli
        passes = []
        if args.trace == 0:
            import refkernel

            end = perf_counter() + args.seconds
            repeats = {}  # job id -> its times in this run
            kernel_s = []

            def fits(job_id):
                return perf_counter() + min(repeats[job_id]) <= end

            for n in itertools.count():
                p = _run_pass(cli, prep.jobs, args.workdir, f"pass{n}",
                              fits=fits if passes else None)
                if p["jobs"]:
                    passes.append(p)
                for job in p["jobs"]:
                    repeats.setdefault(job["job"], []).append(job["s"])
                if not kernel_s or perf_counter() + min(kernel_s) <= end:
                    t0 = perf_counter()
                    refkernel.kernel()
                    kernel_s.append(perf_counter() - t0)
                elif not p["jobs"]:
                    break
            record["host_wall_s"] = sum(low_decile(v) for v in repeats.values())
            record["kernel_s"] = kernel_s
            record["slowdown"] = low_decile(kernel_s) / refkernel.REFERENCE_S
        else:
            import spans

            passes.append(_run_pass(cli, prep.jobs, args.workdir, "untraced"))
            tracer = spans.Tracer()
            tracer.install()
            try:
                passes.append(_run_pass(cli, prep.jobs, args.workdir, "traced", tracer))
            finally:
                tracer.remove()
            pool_stats = None
            if args.workload == "sweep_fig7":
                passes.append(_run_pass(cli, lambda out: prep.grid_jobs(out, 1),
                                        args.workdir, "workers1"))
                pool = spans.Tracer()
                pool.install()
                try:
                    passes.append(_run_pass(
                        cli, lambda out: prep.grid_jobs(out, workloads.POOL_WORKERS),
                        args.workdir, "workers2", pool))
                finally:
                    pool.remove()
                pool_stats = pool.stats()
            record["layers"] = spans.layer_metrics(
                tracer.stats(), pool_stats, workloads.POOL_WORKERS)
            record["roots"] = tracer.root_check()
            if args.spans is not None:
                tracer.dump(args.spans)
        record["passes"] = passes
        record["peak_rss_mb"] = peak_rss_mb()
        record["env"] = environment(prep)
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
