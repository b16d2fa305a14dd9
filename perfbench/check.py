"""Output check: compact references of the CSVs a workload writes.

A reference holds, per waveform CSV, the header, the row count, per-column
min/max and about 200 evenly spaced rows; per sweep CSV, every value; per
Monte-Carlo CSV, the status and trial-seed totals, min/max/median/sum of the
drops and every 10th drop.  Values are compared within ``RTOL`` of their
column's scale, so a numerically equivalent solver passes without being byte
identical.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List

import numpy as np

#: relative tolerance: of the column's largest magnitude for waveforms, of
#: the value itself for sweep and Monte-Carlo numbers
RTOL = 1e-6
WAVE_ROWS = 200
MC_EVERY = 10


def _read_rows(path: Path) -> List[List[str]]:
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh]


def digest(path: Path) -> Dict:
    """Reference digest of one output CSV, by the kind its header shows."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
    if header.startswith("trial,"):
        rows = _read_rows(path)[1:]
        drops = np.array([float(r[2]) for r in rows])
        return {
            "kind": "mc", "header": header, "rows": len(rows),
            "ok": sum(r[3] == "ok" for r in rows),
            "seed_sum": sum(int(r[1]) for r in rows),
            "min": float(np.min(drops)), "max": float(np.max(drops)),
            "median": float(np.median(drops)), "sum": float(np.sum(drops)),
            "every": MC_EVERY, "sampled": drops[::MC_EVERY].tolist(),
        }
    if header.startswith("freq_hz,load"):
        return {"kind": "table", "header": header, "rows": _read_rows(path)[1:]}
    with open(path) as fh:
        fh.readline()
        # the fig8 displacement CSV writes numpy scalar reprs under numpy 2
        text = fh.read().replace("np.float64(", "").replace(")", "")
    data = np.loadtxt(text.splitlines(), delimiter=",", ndmin=2)
    idx = np.unique(np.linspace(0, len(data) - 1, WAVE_ROWS).round().astype(int))
    return {
        "kind": "wave", "header": header, "rows": len(data),
        "min": data.min(axis=0).tolist(), "max": data.max(axis=0).tolist(),
        "idx": idx.tolist(), "sampled": data[idx].tolist(),
    }


def operation_status(path: Path) -> List[bool]:
    """One flag per sweep cell or Monte-Carlo trial in the CSV: True if it
    succeeded.  Empty for waveform CSVs and missing files."""
    if not path.is_file():
        return []
    rows = _read_rows(path)
    if rows[0][0] == "trial":
        return [r[3] == "ok" for r in rows[1:]]
    if rows[0][:2] == ["freq_hz", "load"]:
        return [r[2] != "nan" for r in rows[1:]]
    return []


def _close(a: float, b: float, scale: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * scale


def _cell(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    return _close(x, y, max(abs(x), abs(y)))


def compare(ref: Dict, path: Path) -> List[str]:
    """Mismatches of the CSV at ``path`` against its reference digest."""
    if not path.is_file():
        return [f"{path.name}: missing"]
    got = digest(path)
    name = path.name
    if got["kind"] != ref["kind"] or got["header"] != ref["header"]:
        return [f"{name}: header {got['header']!r} != {ref['header']!r}"]
    errors: List[str] = []
    if ref["kind"] == "table":
        if len(got["rows"]) != len(ref["rows"]):
            return [f"{name}: {len(got['rows'])} rows != {len(ref['rows'])}"]
        for i, (r, g) in enumerate(zip(ref["rows"], got["rows"])):
            bad = [j for j, (x, y) in enumerate(zip(r, g)) if not _cell(x, y)]
            if bad or len(r) != len(g):
                errors.append(f"{name}: row {i} {g} != {r}")
        return errors
    if got["rows"] != ref["rows"]:
        return [f"{name}: {got['rows']} rows != {ref['rows']}"]
    if ref["kind"] == "mc":
        for key in ("ok", "seed_sum"):
            if got[key] != ref[key]:
                errors.append(f"{name}: {key} {got[key]} != {ref[key]}")
        scale = max(abs(ref["min"]), abs(ref["max"]))
        for key in ("min", "max", "median"):
            if not _close(got[key], ref[key], scale):
                errors.append(f"{name}: {key} {got[key]!r} != {ref[key]!r}")
        if not _close(got["sum"], ref["sum"], abs(ref["sum"])):
            errors.append(f"{name}: sum {got['sum']!r} != {ref['sum']!r}")
        for k, (x, y) in enumerate(zip(got["sampled"], ref["sampled"])):
            if not _close(x, y, scale):
                errors.append(f"{name}: trial {k * ref['every']} drop {x!r} != {y!r}")
        return errors
    scales = [max(abs(lo), abs(hi), 1e-300) for lo, hi in zip(ref["min"], ref["max"])]
    for key in ("min", "max"):
        for j, (x, y) in enumerate(zip(got[key], ref[key])):
            if not _close(x, y, scales[j]):
                errors.append(f"{name}: column {j} {key} {x!r} != {y!r}")
    for i, g, r in zip(ref["idx"], got["sampled"], ref["sampled"]):
        bad = [j for j, (x, y) in enumerate(zip(g, r)) if not _close(x, y, scales[j])]
        if bad:
            errors.append(f"{name}: row {i} columns {bad}: {g} != {r}")
    return errors
