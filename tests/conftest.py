"""Shared fixtures: preset runs are expensive, so they are session-scoped."""

import hashlib

import numpy as np
import pytest

from hvsim.circuit import Switch
from hvsim.engine import run_transient
from hvsim.presets import load_preset
from hvsim.waveform import Waveform, WaveformError


def par(*resistances):
    """Parallel resistance (test-side oracle helper)."""
    return 1.0 / sum(1.0 / r for r in resistances)


def driver_timelines(circuit, settings):
    """Each switch's ``(initial state, driver-delayed events)`` over the grid
    ``settings``, as ``hvsim run`` hands them to the engine."""
    controls = circuit.control_map
    return {sw.name: (sw.initial_state(controls[sw.control]),
                      sw.events(circuit.control_edges(sw.control, settings), settings.stop))
            for sw in circuit.components if isinstance(sw, Switch)}


def study_values(study):
    """{key: value} of an ``analysis.Study`` whose every cell succeeded."""
    assert not study.failures(), study.failures()
    return dict(zip(study.keys, study.values))


def stamp_checksum(circuit):
    """sha256 of every component's fields and every control signal: equal
    circuits hash equally, and any change of topology or value shows."""
    lines = [
        " ".join([type(comp).__name__]
                 + [f"{key}={value!r}" for key, value in sorted(vars(comp).items())])
        for comp in circuit.components
    ]
    lines += [
        f"ctrl {name} square f={ctrl.frequency!r} duty={ctrl.duty!r} phase={ctrl.phase!r}"
        for name, ctrl in circuit.controls
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def read_csv(path):
    """``{name: Waveform}`` of a CSV that ``waveform.write_csv`` wrote."""
    with open(path, "r") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if header[0] != "t" or len(header) < 2:
        raise WaveformError(f"{path}: not a waveform CSV")
    data = np.array([[float(v) for v in row] for row in rows])
    t = data[:, 0]
    step = t[1] - t[0] if len(t) > 1 else 1.0
    return {
        name: Waveform(t[0], step, data[:, j + 1]) for j, name in enumerate(header[1:])
    }


@pytest.fixture(scope="session")
def preset_runs():
    cache = {}

    def get(name):
        if name not in cache:
            scenario = load_preset(name)
            cache[name] = run_transient(scenario.circuit, scenario.settings)
        return cache[name]

    return get
