"""Reference kernel: how fast the host runs during a benchmark run.

The VM the benchmark was built on shares its cores with other tenants.  Its
speed drifts by up to ~50% for spells that can outlast a whole run, and it
slows every job of a run alike.  No statistic of host time alone removes a
spell that covers the whole run, so each run also times this kernel, a
fixed copy of the shape of hvsim's transient step loop (small numpy updates
and one ``scipy.linalg.lu_solve`` per step).  It is benchmark code: a change
to hvsim does not change it.  ``run.py`` divides host times by
``kernel time / REFERENCE_S``, which gives seconds at the speed the
reference host had when the kernel took ``REFERENCE_S``.  Both the jobs and
the kernel are taken at the 10th percentile of their repeats in the run,
which favours the run's quieter stretches without resting on one extreme
repeat.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lu_factor, lu_solve

STEPS = 16_000
#: the kernel's 10th-percentile time in a quiet run on the 2-vCPU VM where
#: the benchmark was built
REFERENCE_S = 0.24

_rng = np.random.default_rng(0)
_LU = lu_factor(_rng.standard_normal((8, 8)) + 8.0 * np.eye(8))
_B = _rng.standard_normal(8)
_CAP_P = np.array([0, 2, 4, 6])
_CAP_N = np.array([1, 3, 5, 8])


def kernel(steps: int = STEPS) -> np.ndarray:
    """Run ``steps`` solves of an 8-unknown system with 4 capacitor-style
    history updates; return the solution history."""
    b = np.zeros(9)
    vc = np.zeros(4)
    out = np.empty((steps, 8))
    for k in range(steps):
        b[:-1] = _B
        b[-1] = 0.0
        hist = 0.5 * vc
        np.add.at(b, _CAP_P, hist)
        np.subtract.at(b, _CAP_N, hist)
        x = lu_solve(_LU, b[:-1], check_finite=False)
        out[k] = x
        x_pad = np.append(x, 0.0)
        vc = x_pad[_CAP_P] - x_pad[_CAP_N]
    return out
