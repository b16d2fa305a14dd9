"""Waveform CSV tests: byte-exact output against a row-wise reference."""

import numpy as np
import pytest

from hvsim.waveform import Waveform, WaveformError, write_csv

from conftest import read_csv

#: rows per formatted block in write_csv; the lengths below cross its edges
B = 4096

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
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
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


class TestWaveform:
    def test_non_finite_sample_names_its_time(self):
        with pytest.raises(WaveformError, match="t=0.002"):
            Waveform(0.0, 1e-3, [1.0, 1.0, np.nan, np.nan])
