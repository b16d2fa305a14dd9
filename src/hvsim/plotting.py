"""Minimal self-contained SVG line plots (no renderer dependency)."""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Tuple

import numpy as np

from .waveform import WaveformError

_W, _H = 720, 420
_ML, _MR, _MT, _MB = 70, 20, 20, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _axis(lo: float, hi: float, pad: float = 0.0) -> Tuple[float, float]:
    """The drawn range of values from ``lo`` to ``hi``, each end moved out by
    ``pad`` of the span.  A span under 1024 ulps of the larger end (a flat
    line, or one a few floats wide) is first widened upward to 1.0 or those
    1024 ulps, whichever is more, so that the ticks are distinct floats."""
    narrow = 1024 * math.ulp(max(abs(lo), abs(hi)))
    if hi - lo < narrow:
        hi = lo + max(1.0, narrow)
    d = pad * (hi - lo)
    if not math.isfinite(hi + d - (lo - d)):
        raise WaveformError(f"cannot plot values from {lo!r} to {hi!r}: their span overflows")
    return lo - d, hi + d


def _ticks(lo: float, hi: float, n: int = 6) -> List[float]:
    """Ticks at a 1, 2 or 5 times power-of-ten step from ``lo`` to ``hi``,
    each rounded to 1e-9 of the step's power of ten, which clears the sums'
    rounding error at any scale."""
    raw = (hi - lo) / max(n - 1, 1)
    exp = math.floor(math.log10(raw))
    mag = 10 ** exp
    step = next(mult * mag for mult in (1, 2, 5, 10) if raw <= mult * mag)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * abs(step):
        out.append(round(t, 9 - exp))
        t += step
    return out


def _fmt(x: float) -> str:
    if x == 0:
        return "0"
    if abs(x) >= 1e4 or abs(x) < 1e-3:
        return f"{x:.2g}"
    return f"{x:g}"


def line_plot(
    path,
    series: Dict[str, Tuple[np.ndarray, np.ndarray]],
    xlabel: str,
    ylabel: str,
    log_x: bool = False,
    title: str = "",
) -> None:
    """Write one SVG with the named (x, y) series."""
    xs = np.concatenate([np.asarray(x, dtype=float) for x, _ in series.values()])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, y in series.values()])
    if log_x:
        if np.any(xs <= 0):
            raise ValueError("log-x plot requires positive x values")
        xs = np.log10(xs)
    x_lo, x_hi = _axis(float(xs.min()), float(xs.max()))
    ys = ys[np.isfinite(ys)]  # nan marks a missing point
    y_lo, y_hi = (float(ys.min()), float(ys.max())) if ys.size else (0.0, 1.0)
    y_lo, y_hi = _axis(y_lo, y_hi, pad=0.05)

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{_W / 2}" y="14" text-anchor="middle">{title}</text>')

    if log_x:
        lo_d, hi_d = math.floor(x_lo), math.ceil(x_hi)
        x_ticks = [d for d in range(int(lo_d), int(hi_d) + 1) if x_lo - 1e-9 <= d <= x_hi + 1e-9]
        x_tick_labels = [_fmt(10.0 ** d) for d in x_ticks]
    else:
        x_ticks = _ticks(x_lo, x_hi)
        x_tick_labels = [_fmt(t) for t in x_ticks]
    for t, label in zip(x_ticks, x_tick_labels):
        x = px(t)
        parts.append(f'<line x1="{x:.1f}" y1="{_MT}" x2="{x:.1f}" y2="{_H - _MB}" stroke="#ddd"/>')
        parts.append(f'<text x="{x:.1f}" y="{_H - _MB + 16}" text-anchor="middle">{label}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W - _MR}" y2="{y:.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{_ML - 6}" y="{y + 4:.1f}" text-anchor="end">{_fmt(t)}</text>')
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="black"/>'
    )

    for i, (name, (x_arr, y_arr)) in enumerate(series.items()):
        x_arr = np.asarray(x_arr, dtype=float)
        if log_x:
            x_arr = np.log10(x_arr)
        color = _COLORS[i % len(_COLORS)]
        # a missing point leaves a gap: one polyline per run of finite points
        pts = (
            f"{px(x):.2f},{py(y):.2f}" if math.isfinite(y) else ""
            for x, y in zip(x_arr, np.asarray(y_arr, dtype=float))
        )
        for finite, run in itertools.groupby(pts, key=bool):
            if finite:
                parts.append(
                    f'<polyline points="{" ".join(run)}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5"/>'
                )
        parts.append(
            f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 16 * i}" text-anchor="end" '
            f'fill="{color}">{name}</text>'
        )

    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 10}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">{ylabel}</text>'
    )
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
