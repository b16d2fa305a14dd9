"""Waveform CSV tests: byte-exact output against a row-wise reference."""

import numpy as np
import pytest

from hvsim import waveform
from hvsim.waveform import Waveform, WaveformError, write_csv

from conftest import read_csv

#: rows per formatted block in write_csv; the lengths below cross its edges
B = waveform._CSV_BLOCK

EDGE_VALUES = [
    0.0, -0.0, 1e16, 9999999999999998.0, 1e-05, 0.0001, 5e-324, 1800.0,
    -1800.0, -1e-05, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 0.1, -2.5e-09,
]


def reference_csv(columns) -> bytes:
    """The CSV as one ``repr(float(x))`` row at a time builds it."""
    names = list(columns)
    first = columns[names[0]]
    times = first.times()
    lines = ["t," + ",".join(names)]
    for k in range(len(first)):
        row = [repr(float(times[k]))] + [repr(float(columns[n].samples[k])) for n in names]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode()


def make_columns(n: int, start: float = 0.0, step: float = 1e-8, seed: int = 0):
    rng = np.random.default_rng(seed)
    edges = np.resize(np.array(EDGE_VALUES), n)
    scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 6, n)
    return {
        "V_O": Waveform(start, step, edges),
        "V_B_C": Waveform(start, step, scaled),
        "I_src": Waveform(start, step, rng.permutation(edges)),
    }


class TestWriteCsv:
    @pytest.mark.parametrize("n", [1, 4 * B - 1, 4 * B, 4 * B + 1, 8 * B + 3])
    def test_bytes_match_row_wise_reference(self, tmp_path, n):
        columns = make_columns(n)
        path = tmp_path / "w.csv"
        write_csv(path, columns)
        assert path.read_bytes() == reference_csv(columns)

    def test_offset_grid_times(self, tmp_path):
        # a start and step whose sums are not exact decimals
        columns = make_columns(B + 7, start=-3e-4, step=1.0 / 3.0e7, seed=1)
        path = tmp_path / "w.csv"
        write_csv(path, columns)
        assert path.read_bytes() == reference_csv(columns)

    def test_single_column_and_header(self, tmp_path):
        path = tmp_path / "w.csv"
        write_csv(path, {"x": Waveform(0.0, 0.5, [1.0, -0.0])})
        assert path.read_bytes() == b"t,x\n0.0,1.0\n0.5,-0.0\n"

    def test_read_csv_round_trip_is_exact(self, tmp_path):
        columns = make_columns(2 * B + 3)
        path = tmp_path / "w.csv"
        write_csv(path, columns)
        back = read_csv(path)
        assert list(back) == list(columns)
        for name, w in columns.items():
            assert back[name].same_grid(w)
            assert back[name].samples.tobytes() == w.samples.tobytes()

    def test_mismatched_grid_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        columns = {
            "a": Waveform(0.0, 1e-6, np.zeros(5)),
            "b": Waveform(0.0, 1e-6, np.zeros(6)),
        }
        with pytest.raises(WaveformError, match="share one sampling grid"):
            write_csv(path, columns)
        assert not path.exists()

    def test_empty_mapping_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        with pytest.raises(WaveformError, match="no waveforms"):
            write_csv(path, {})
        assert not path.exists()


def repr_rows(cells, width: int) -> bytes:
    """Rows of ``width`` cells, each ``repr(float(x))``: the reference bytes."""
    rows = np.asarray(cells, dtype=float).reshape(-1, width).tolist()
    return "".join(",".join(map(repr, row)) + "\n" for row in rows).encode()


def half_way_ties(rng, per_s: int, j: int):
    """Doubles ``x = m * 2**-(s + j)``, ``m`` odd, with ``N = x * 10**s`` in
    [1e16, 1e17): for ``j = 1`` N is a half-integer, a tie for the last digit;
    for ``j = 0`` (and ``s >= 1``) an odd multiple of 5, a tie for the one before."""
    out = []
    for s in range(23):
        lo, hi = max(2**j * 10**16 // 5**s, 1), min(2**j * 10**17 // 5**s, 2**53)
        if lo < hi:
            m = rng.integers(lo, hi, per_s) | 1
            out.append(np.ldexp(m.astype(float), -s - j))
    return np.concatenate(out)


def interval_ends(rng, per_case: int):
    """Doubles next to a short integer ``V`` that is the midpoint of two doubles:
    ``V`` reads back as the one with the even mantissa, so ``repr`` of that one
    is ``V``'s digits (a closed end) and of the other is not (an open end)."""
    out = []
    for t, v in ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)):
        d = rng.integers(-(-(2**53) // 5**t), 2**54 // 5**t, per_case) | 1
        V = d * (2**v * 10**t)  # 54 significant bits: a midpoint
        V = V[V < 10**17]
        half = 2 ** (np.floor(np.log2(V.astype(float))).astype(np.int64) - 53)
        out += [(V - half).astype(float), (V + half).astype(float)]
    return np.concatenate(out)


class TestCsvCells:
    """``_csv_rows`` against ``repr``, cell by cell, on both of its paths."""

    def check(self, cells, width=4):
        cells = np.asarray(cells, dtype=float)
        cells = cells[: cells.size // width * width]
        got = waveform._csv_rows(cells.reshape(-1, width))
        assert got == repr_rows(cells, width)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20290)
        bits = rng.integers(0, 2**64, 60_000, dtype=np.uint64)
        every = bits.view(float)
        every = every[np.isfinite(every)]  # mostly outside the numpy range: repr
        lo, hi = np.array([1e-7, 1e17]).view(np.uint64)
        inside = rng.integers(lo, hi, 60_000, dtype=np.uint64).view(float)
        _, _, fast = waveform._shortest_digits(np.abs(np.concatenate([every, inside])))
        assert 0.01 < fast.mean() < 0.99  # both paths ran
        self.check(every)
        self.check(inside)
        self.check(-inside)

    def test_half_way_ties(self):
        rng = np.random.default_rng(20291)
        for j in (1, 0):
            x = half_way_ties(rng, 1000, j)
            self.check(np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf)]))

    def test_open_and_closed_interval_ends(self):
        self.check(interval_ends(np.random.default_rng(20292), 2000))

    def test_powers_of_two_and_their_neighbours(self):
        p = np.ldexp(1.0, np.arange(-1074, 1024))
        self.check(np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf), -p]), 3)

    def test_range_edges(self):
        edges = np.array([float(f"1e{k}") for k in range(-8, 19)])
        edges = np.concatenate([edges, [9999999999999998.0, 99999999999999990.0]])
        x = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
        self.check(np.concatenate([x, -x]), 1)

    def test_repr_cells_mixed_into_one_block(self):
        rng = np.random.default_rng(20293)
        odd = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, -1e300]
        cells = rng.standard_normal(4096) * 10.0 ** rng.integers(-5, 6, 4096)
        cells[rng.choice(4096, 400, replace=False)] = np.resize(odd, 400)
        self.check(cells, 4)
        self.check(cells, 1)

    def test_non_finite_cells_read_as_repr(self):
        # Waveform rejects these, but the formatter must still write no garbage
        cells = np.array([[np.nan, np.inf, -np.inf, 1.5], [-2.5e-06, np.nan, 3e16, -np.inf]])
        assert waveform._csv_rows(cells) == b"nan,inf,-inf,1.5\n-2.5e-06,nan,3e+16,-inf\n"

    @pytest.mark.parametrize("block", [1, 7, 1000, 5000])
    def test_block_length_leaves_the_bytes_alone(self, tmp_path, monkeypatch, block):
        columns = make_columns(2 * B + 3, start=-3e-4, step=1.0 / 3.0e7, seed=2)
        monkeypatch.setattr(waveform, "_CSV_BLOCK", block)
        path = tmp_path / "w.csv"
        write_csv(path, columns)
        assert path.read_bytes() == reference_csv(columns)


class TestWaveform:
    def test_non_finite_sample_names_its_time(self):
        with pytest.raises(WaveformError, match="t=0.002"):
            Waveform(0.0, 1e-3, [1.0, 1.0, np.nan, np.nan])
