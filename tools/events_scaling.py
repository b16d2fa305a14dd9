"""Wall time per switching event of long fig3 runs.

Usage::

    python tools/events_scaling.py > timings.json

fig3 is driven at 20 Hz (``--set ctrl.g.f=20``) with its ``stop`` multiplied
by 1, 10, 40 and 160, which gives 316 to 51,196 switching events.  Each
multiple is timed over whole ``run_transient`` calls (switch scheduling
included), repeated more often for the short runs, after one untimed
x1 run.  One JSON object is printed: per multiple, the event count, the
number of grid points and every call's wall time in seconds.  ``hvsim`` is
imported from the ``src`` directory next to this script, so copying the
script into another checkout times that checkout.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hvsim.cli import apply_override  # noqa: E402
from hvsim.engine import run_transient  # noqa: E402
from hvsim.presets import load_preset  # noqa: E402

#: stop multiple -> timed calls per process
REPEATS = {1: 20, 10: 5, 40: 2, 160: 1}


def main() -> None:
    base = apply_override(load_preset("fig3"), "ctrl.g.f", "20")
    run_transient(base.circuit, base.settings)  # untimed: imports and first-call set-up
    out = {}
    for mult, repeats in REPEATS.items():
        scenario = base.with_settings(stop=mult * base.settings.stop)
        wall = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = run_transient(scenario.circuit, scenario.settings)
            wall.append(time.perf_counter() - t0)
        out[str(mult)] = {
            "events": len(result.events),
            "grid_points": result.n_samples,
            "wall_s": wall,
        }
    json.dump(out, sys.stdout)
    print()


if __name__ == "__main__":
    main()
