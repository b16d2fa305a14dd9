"""Record reference.json: the output digests the benchmark checks against.

Run once, from the repository root, on the commit whose outputs are the
reference (the commit that added the benchmark):

    python3 perfbench/record_reference.py

It runs every job of every workload once (the sweep's whole-grid job too,
and the Monte-Carlo jobs once per Monte-Carlo seed), and digests each output
with check.digest.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import workloads  # noqa: E402
from hvsim import cli  # noqa: E402


def _digests(job_list, workdir: Path) -> dict:
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    digests = {}
    for job_id, argv, outputs in job_list(out):
        if cli.main(argv) != 0:
            raise SystemExit(f"{job_id} failed")
        for name in outputs:
            digests[name] = check.digest(out / name)
    return digests


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        workdir = Path(tmp)
        reference["run_presets"] = _digests(
            workloads.prepare("run_presets", 0, workdir).jobs, workdir)
        sweep = workloads.prepare("sweep_fig7", 0, workdir)
        reference["sweep_fig7"] = {
            **_digests(sweep.jobs, workdir),
            **_digests(lambda out: sweep.grid_jobs(out, 1), workdir),
        }
        reference["mc_fig3"] = {
            str(s): _digests(workloads.prepare("mc_fig3", s, workdir).jobs, workdir)
            for s in range(workloads.MC_SEEDS)
        }
    (HERE / "reference.json").write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
