"""Uniformly sampled waveforms and their CSV serialization."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np


class WaveformError(ValueError):
    """Raised for malformed or incompatible waveforms."""


@dataclass(frozen=True)
class Waveform:
    """A uniformly sampled signal: value ``samples[k]`` at ``start + k*step``.

    Stored dense, or run-length when ``starts`` is given: ``values[i]`` holds
    from grid index ``starts[i]`` up to the next start, the last run up to
    ``size``.  ``samples`` is always dense; a run-length waveform expands on
    first use.  A constant stretch of a resistive transient run is one run.
    """

    start: float
    step: float
    values: np.ndarray
    starts: Optional[np.ndarray] = None
    size: Optional[int] = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if not self.step > 0:
            raise WaveformError(f"step must be > 0, got {self.step}")
        if values.ndim != 1 or values.size == 0:
            raise WaveformError("samples must be a non-empty 1-D sequence")
        if self.starts is None:
            if self.size not in (None, values.size):
                raise WaveformError(f"{values.size} samples for size {self.size}")
            object.__setattr__(self, "size", values.size)
        else:
            starts = np.asarray(self.starts)
            object.__setattr__(self, "starts", starts)
            if (
                starts.shape != values.shape
                or starts[0] != 0
                or np.any(np.diff(starts) <= 0)
                or self.size is None
                or starts[-1] >= self.size
            ):
                raise WaveformError(
                    "run starts must rise from 0 below the size, one per value"
                )
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            if self.starts is not None:
                bad = int(self.starts[bad])
            raise WaveformError(f"non-finite sample at t={self.time_at(bad)!r}")

    @cached_property
    def samples(self) -> np.ndarray:
        if self.starts is None:
            return self.values
        return np.repeat(self.values, np.diff(self.starts, append=self.size))

    def __len__(self) -> int:
        return int(self.size)

    def time_at(self, index: int) -> float:
        return self.start + index * self.step

    def times(self) -> np.ndarray:
        return self.start + self.step * np.arange(len(self))

    @property
    def stop(self) -> float:
        return self.time_at(len(self) - 1)

    def index_at(self, t: float) -> int:
        """Grid index nearest to time t (clamped to the waveform extent)."""
        k = int(round((t - self.start) / self.step))
        return min(max(k, 0), len(self) - 1)

    def slice_time(self, t0: float, t1: float) -> "Waveform":
        i0, i1 = self.index_at(t0), self.index_at(t1)
        if i1 <= i0:
            raise WaveformError(f"empty slice [{t0}, {t1}]")
        return Waveform(self.time_at(i0), self.step, self.samples[i0 : i1 + 1])

    def same_grid(self, other: "Waveform") -> bool:
        return (
            self.start == other.start
            and self.step == other.step
            and len(self) == len(other)
        )


def run_values(*waves: Waveform) -> Tuple[np.ndarray, ...]:
    """Values of waveforms on one grid, indexed alike: the run values when
    all of them share one set of runs, else the dense samples.

    Each run value is the value of every sample in its run, so a maximum, or
    the value at the last index where a condition holds, is the same bit for
    bit on either form.
    """
    if not all(waves[0].same_grid(w) for w in waves[1:]):
        raise WaveformError("waveform grids do not match")
    starts = waves[0].starts
    if starts is not None and all(
        w.starts is not None and np.array_equal(w.starts, starts) for w in waves[1:]
    ):
        return tuple(w.values for w in waves)
    return tuple(w.samples for w in waves)


#: rows formatted per block, which bounds the temporary lists of long CSVs
_CSV_BLOCK = 4096


def write_csv(path, columns: Dict[str, Waveform]) -> None:
    """Write waveforms sharing one grid as ``t,<name>...`` rows (SI units, LF)."""
    if not columns:
        raise WaveformError("no waveforms to write")
    waves = list(columns.values())
    first = waves[0]
    for w in waves[1:]:
        if not first.same_grid(w):
            raise WaveformError("CSV columns must share one sampling grid")
    data = [first.times()] + [w.samples for w in waves]
    with open(path, "w", newline="\n") as fh:
        fh.write("t," + ",".join(columns) + "\n")
        for i in range(0, len(first), _CSV_BLOCK):
            # repr() is the shortest round-trip form, which keeps CSVs byte-stable
            cells = [map(repr, col[i : i + _CSV_BLOCK].tolist()) for col in data]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")

