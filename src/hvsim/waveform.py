"""Uniformly sampled waveforms and their CSV serialization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np


class WaveformError(ValueError):
    """Raised for malformed or incompatible waveforms."""


@dataclass(frozen=True)
class Waveform:
    """A uniformly sampled signal: value ``samples[k]`` at ``start + k*step``."""

    start: float
    step: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if not self.step > 0:
            raise WaveformError(f"step must be > 0, got {self.step}")
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise WaveformError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(self.samples)):
            bad = int(np.flatnonzero(~np.isfinite(self.samples))[0])
            raise WaveformError(f"non-finite sample at t={self.time_at(bad)!r}")

    def __len__(self) -> int:
        return self.samples.size

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

