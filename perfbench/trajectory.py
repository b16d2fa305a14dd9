"""Summarize benchmark results into a trajectory entry.

run.py keeps one record per (workload, seed, trace) in ``.perfbench_out/``.
This script takes the median and quartiles (``statistics.quantiles``, n=4)
of every metric over those records, per workload, and prints them; with
``--append LABEL`` it also appends them to trajectory.json as a new entry.

    python3 perfbench/trajectory.py
    python3 perfbench/trajectory.py --append seed
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"


def summarize(records):
    """{trace: {workload: {metric: {median, q1, q3, spread, n}}}} plus env."""
    values = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    seeds = defaultdict(lambda: defaultdict(list))
    env = None
    for rec in records:
        name, trace = rec["env"]["workload"], "per_layer" if "layers" in rec else "end_to_end"
        seeds[trace][name].append(rec["env"]["seed"])
        env = env or {k: v for k, v in rec["env"].items() if k not in ("workload", "seed", "jobs")}
        for metric, value in rec["metrics"].items():
            values[trace][name][metric].append(value)
        values[trace][name]["failed_frac"].append(rec["failed"] / rec["attempted"])
    out = {}
    for trace, by_name in values.items():
        out[trace] = {}
        for name, metrics in by_name.items():
            rows = {"seeds": sorted(seeds[trace][name])}
            for metric, vals in metrics.items():
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
                rows[metric] = {"median": med, "q1": q1, "q3": q3, "n": len(vals),
                                "spread": (q3 - q1) / abs(med) if med else 0.0}
            out[trace][name] = rows
    return out, env


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--append", metavar="LABEL", help="append to trajectory.json")
    ap.add_argument("--note", default="", help="free text stored with the entry")
    args = ap.parse_args()
    records = [json.loads(p.read_text()) for p in sorted(OUT.glob("*-trace[01].json"))]
    if not records:
        print(f"no records in {OUT}", file=sys.stderr)
        return 2
    summary, env = summarize(records)
    for trace, by_name in sorted(summary.items()):
        for name, rows in sorted(by_name.items()):
            print(f"{trace} {name} seeds={rows['seeds']}")
            for metric, row in rows.items():
                if metric != "seeds":
                    print(f"  {metric:40s} median {row['median']:<12.6g} q1 {row['q1']:<12.6g}"
                          f" q3 {row['q3']:<12.6g} spread {row['spread']:.4f} n={row['n']}")
    if args.append:
        path = HERE / "trajectory.json"
        entries = json.loads(path.read_text()) if path.exists() else []
        entries.append({"label": args.append, "note": args.note, "env": env, **summary})
        path.write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
