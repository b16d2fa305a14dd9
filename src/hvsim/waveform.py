"""Uniformly sampled waveforms and their CSV serialization.

Every waveform CSV cell is ``repr`` of its float, the shortest decimal that
reads back to the same double.  ``write_csv`` writes those bytes from numpy, a
block of rows at a time: ``_shortest_digits`` finds each cell's digits with
fixed-width arithmetic (the idea of Adams, "Ryu: fast float-to-string
conversion", PLDI 2018, in place of the arbitrary-precision search of Gay,
AT&T NAM 90-10, 1990, that ``repr`` runs), and ``_csv_rows`` lays them out as
``repr`` does.  Zeros, non-finite values and magnitudes outside about
[1e-6, 1e17) are written by ``repr`` itself.
"""

from __future__ import annotations

import functools
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


#: rows formatted per block, which bounds the block's temporary arrays
_CSV_BLOCK = 1024

_P10 = np.array([float(10**s) for s in range(23)])  # exact doubles up to s = 22
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
_P10_HI = _SPLIT * _P10 - (_SPLIT * _P10 - _P10)  # 10**s == _P10_HI + _P10_LO,
_P10_LO = _P10 - _P10_HI  # each half with at most 26 significant bits
_U52, _ONE = np.uint64(52), np.uint64(1)
_EXP, _MANT = np.uint64(0x7FF << 52), np.uint64((1 << 52) - 1)


def _two_sum(a, b):
    """``(s, t)`` with ``s = fl(a + b)`` and ``s + t == a + b`` exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _floor_sum(x1, x2, open_):
    """``floor(x1 + x2)`` of the exact sum, less one where the sum is an integer
    and ``open_`` is 5e-324 (an open bound; ``x2 < 5e-324`` reads ``x2 <= 0``)."""
    f = np.floor(x1)
    return f - ((x1 == f) & (x2 < open_))


def _shortest_digits(a):
    """``(D, e, ok)``: ``repr(a)`` reads ``D * 10**(e - 16)``, where ``ok``.

    ``a`` is non-negative; ``D`` has 17 digits, trailing zeros included.  With
    ``s = 16 - e``, ``N = a * 10**s`` lies in [1e16, 1e17) and is ``hi + lo``
    exactly (Dekker, Numer. Math. 18, 1971).  The reals that read back as ``a``
    scale to an interval around ``N`` of width at most 23, closed iff ``a``'s
    mantissa is even (reading rounds half to even).  ``repr`` takes the integer
    in it with the most trailing zeros; of several, the one nearest ``N``, ties
    to even.  ``ok`` is False below about 1e-6 (``s > 22``, where ``10**s`` is
    inexact) and from 1e17 on.  ``D`` never reaches 1e17: that needs ``a`` to be
    the double nearest ``10**(e + 1)`` and below it, and for ``e + 1`` in [-5, 17]
    each such double is ``10**(e + 1)`` or above it.
    """
    ok = (a >= 1e-7) & (a < 1e17)  # also False for nan; [1e-7, 1e-6) fails below
    a = np.where(ok, a, 1.0)
    bits = a.view(np.uint64)
    # floor(log10(a)) is floor(e2 * log10(2)) or one more; s starts at the larger
    s = 16 - ((((bits >> _U52).view(np.int64) - 1023) * 78913) >> 18)
    np.minimum(s, 22, out=s)
    s -= a * _P10[s] >= 1e17
    hi = a * _P10[s]
    ok &= hi >= 1e16
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    ph, pl = _P10_HI[s], _P10_LO[s]
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    # half the gaps to the neighbouring doubles, scaled: exact, as 10**s = 2**s * 5**s
    mant = bits & _MANT
    up = ((bits & _EXP) - (_U52 << _U52)).view(np.float64) * 0.5 * _P10[s]
    dn = np.where(mant == 0, 0.5 * up, up)  # a power of two: the gap below halves
    open_ = (mant & _ONE).view(np.float64)  # 5e-324 for an odd mantissa, else 0.0
    # integer bounds, relative to the multiple of 100 at or below hi
    hi_i = hi.astype(np.int64)
    r100 = hi_i % 100
    r = r100.astype(np.float64)
    hib = _floor_sum(*_two_sum(lo, up), open_) + r
    lob = r - _floor_sum(*_two_sum(-lo, dn), open_)
    # a multiple of 100 in the interval is the only one (width <= 23)
    m100 = np.where(lob > 0, 100.0, 0.0)
    has100 = (lob <= m100) & (m100 <= hib)
    # else the multiple of 10 nearest N, ties to even (for the integers in
    # [-20, 120] that lob and hib can be, x * 0.1 floors and ceils as x / 10)
    c10 = np.ceil(lob * 0.1) * 10
    top10 = np.floor(hib * 0.1) * 10
    t = c10 + 5 - r  # N == c10 + 5 where lo == t
    m10 = np.minimum(c10 + 10.0 * (lo > t) + 10.0 * (lo > t + 10), top10)
    tie = np.flatnonzero((lo == t) | (lo == t + 10))
    if tie.size:
        m10[tie] = np.minimum(m10[tie] + 10 * (m10[tie] % 20 == 10), top10[tie])
    # else the integer nearest N, ties to even (hi is even)
    m1 = np.minimum(np.maximum(r + np.rint(lo), lob), hib)
    rel = np.where(has100, m100, np.where(c10 <= hib, m10, m1))
    return hi_i + (rel - r).astype(np.int64), 16 - s, ok


@functools.cache
def _layout():
    """Tables of ``_csv_rows``, built on first use.

    Per cell code ``(e + 6) * 17 + nd - 1`` (exponent ``e`` in [-6, 16], ``nd``
    significant digits): each digit's offset, the length, the offset of the
    ``.`` and whether ``repr`` uses the ``e±XX`` form.  A digit past ``nd`` is a
    trailing zero and goes to the separator's offset, which is written last.
    Then the ``e±XX`` suffixes, and the digits of 0000..9999 with the count of
    them through the last nonzero one.
    """
    e = np.arange(-6, 17)[:, None]
    nd = np.arange(1, 18)
    k = np.arange(17)[:, None, None]
    sci = (e <= -5) | (e >= 16)
    small = (e < 0) & ~sci  # 0.000ddd
    length = np.where(sci, nd + (nd > 1) + 4,
                      np.where(small, 1 - e + nd, e + 2 + np.maximum(nd - e - 1, 1)))
    dot = np.where(sci, np.where(nd > 1, 1, length), np.where(small, 1, e + 1))
    at = np.where(sci, k + (k > 0), np.where(small, 1 - e + k, k + (k > e)))
    pos = np.where(k < nd, at, length).reshape(17, -1)
    suffix = np.frombuffer("".join(f"e{e:+03d}" for e in range(-6, 17)).encode(), np.uint8)
    digits4 = np.indices((10,) * 4, np.uint8).reshape(4, -1) + np.uint8(48)
    sig4 = (np.arange(1, 5)[:, None] * (digits4 > 48)).max(axis=0)
    sci = np.broadcast_to(sci, length.shape)
    return pos, length.ravel(), dot.ravel(), sci.ravel(), suffix.reshape(23, 4), digits4, sig4


def _csv_rows(block: np.ndarray) -> bytes:
    """The CSV rows of a 2-D float block, each cell as ``repr`` writes it."""
    pos, lengths, dots, scis, suffixes, digits4, sig4 = _layout()
    cells = block.ravel()
    n = cells.size
    D, e, fast = _shortest_digits(np.abs(cells))
    top = D // 100_000_000
    bot = (D - top * 100_000_000).astype(np.float64)
    top = top.astype(np.float64)
    g0 = np.floor(top / 1e8)
    g1 = np.floor(top / 1e4)
    g2 = (top - g1 * 1e4).astype(np.intp)
    g1 = (g1 - g0 * 1e4).astype(np.intp)
    g3 = np.floor(bot / 1e4)
    g4 = (bot - g3 * 1e4).astype(np.intp)
    g3 = g3.astype(np.intp)
    digits = np.empty((17, n), np.uint8)  # digit-major
    digits[0] = g0 + 48
    for i, g in enumerate((g1, g2, g3, g4)):
        digits[1 + 4 * i : 5 + 4 * i] = digits4.take(g, axis=1)
    nd = np.where(g4 > 0, 13 + sig4[g4], np.where(g3 > 0, 9 + sig4[g3],
                  np.where(g2 > 0, 5 + sig4[g2], 1 + sig4[g1])))
    code = (e + 6) * 17 + nd - 1
    neg = np.signbit(cells)
    length = lengths[code] + neg
    slow = np.flatnonzero(~fast)
    reprs = [repr(v).encode() for v in cells[slow].tolist()]
    length[slow] = [len(r) for r in reprs]
    ends = np.cumsum(length + 1)
    total = int(ends[-1])
    starts = ends - length - 1
    body = starts + neg
    body[slow] = total  # a repr cell's numpy bytes go past the end, into
    buf = np.full(total + 24, ord("0"), np.uint8)  # 24 bytes, more than a cell
    for k in range(17):
        buf[body + pos[k].take(code)] = digits[k]
    buf[starts[neg & fast]] = ord("-")
    buf[body + dots[code]] = ord(".")
    sci = np.flatnonzero(scis[code] & fast)
    if sci.size:
        buf[(body[sci] + lengths[code[sci]] - 4)[:, None] + np.arange(4)] = suffixes[e[sci] + 6]
    buf[ends - 1] = ord(",")
    buf[ends[block.shape[1] - 1 :: block.shape[1]] - 1] = ord("\n")
    out = memoryview(buf)
    for i, r in zip(starts[slow].tolist(), reprs):
        out[i : i + len(r)] = r
    return out[:total].tobytes()


def write_csv(path, columns: Dict[str, Waveform]) -> None:
    """Write waveforms sharing one grid as ``t,<name>...`` rows (SI units, LF).

    Each cell is ``repr`` of the float, so ``float`` reads the samples back
    exactly; ``_csv_rows`` writes those bytes, ``_CSV_BLOCK`` rows at a time.
    """
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
            block = np.stack([col[i : i + _CSV_BLOCK] for col in data], axis=1)
            fh.write(_csv_rows(block).decode("ascii"))
