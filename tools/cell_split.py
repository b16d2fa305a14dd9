"""In-process per-layer split of fig7 sweep cells.

Usage::

    python tools/cell_split.py > split.json

Each of 40 rounds runs each cell, the 30 Hz/10n and 200 Hz/dea cells of
``hvsim sweep --preset fig7`` (``analysis.frequency_sweep``'s scenario,
``run_transient`` and ``_cell_metrics``), twice: once as it is, for the
plain cost of the cell, and once with each layer timed.  Functions are
timed by replacing module and class attributes for the timed run and
restoring them after it: ``engine._schedule`` (schedule),
``engine._base_matrix`` (stamp), ``engine._factor`` (factor),
``engine._Operators.response`` (response), ``engine._Operators.step_powers``
(power table) and ``analysis._cell_metrics`` (metrics).  Three layers are
statements of ``engine._propagate``, timed in a copy of it compiled with a
timer around each (see ``STATEMENTS``): the backward-Euler loop (damped
steps), the loop that fills a batch of trapezoidal states from the power
table (trapezoidal states) and the output rows and capacitor currents of a
batch (stretch outputs).  Each layer counts its own time, less that of the
timed layers inside it; the rest of ``_propagate`` is ``segment`` and the
rest of ``run_transient`` (lowering, the t=0 solve, the allocation of the
result and the boundary loop) is ``walk``.  Topology set-up is the sum of
stamp, factor, response and power table.

One JSON object is printed: per cell and layer, the mean over the 8 quietest
rounds (the rounds with the least plain wall time of that cell) of its
microseconds per cell, and each timed layer's calls per cell.  A timed cell
has about 650 timed calls and statements and runs about 1.4 times as long as
a plain one: each timer's cost falls partly in its own layer and partly in
the one that holds it.  ``hvsim`` is imported from the ``src`` directory next
to this script, so copying the script into another checkout measures that
checkout, as long as ``STATEMENTS`` names statements of its ``_propagate``.
"""

from __future__ import annotations

import ast
import inspect
import json
import sys
import textwrap
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hvsim import analysis, engine  # noqa: E402
from hvsim.presets import converter_scenario  # noqa: E402

CELLS = ((30.0, "10n"), (200.0, "dea"))

#: (layer, owner, attribute) of every function timed by replacing it
WRAPPED = (
    ("run_transient", engine, "run_transient"),
    ("schedule", engine, "_schedule"),
    ("stamp", engine, "_base_matrix"),
    ("factor", engine, "_factor"),
    ("response", engine._Operators, "response"),
    ("power_table", engine._Operators, "step_powers"),
    ("metrics", analysis, "_cell_metrics"),
)
#: (layer, the start of the first line of each ``_propagate`` statement it times)
STATEMENTS = (
    ("damped_steps", ("for k in range(idx0 + 1",)),
    ("trapezoidal_states", ("for i in range(0, rows, _BLOCK)",)),
    ("stretch_outputs", ("X = x_out[k", "V = X @ inc", "cur = np.multiply", "cur -= ",
                         "vc = V[0] if rows == 1")),
)
SET_UP = ("stamp", "factor", "response", "power_table")


class Timers:
    """Time per layer, less the time of the timed layers inside it."""

    def __init__(self) -> None:
        self.spent = dict.fromkeys((name for name, _, _ in WRAPPED), 0.0)
        self.spent.update(dict.fromkeys((*(name for name, _ in STATEMENTS), "segment"), 0.0))
        self.calls = dict.fromkeys(self.spent, 0)
        self.inner = [0.0]  # per open layer, the time of the layers inside it

    def enter(self) -> float:
        self.inner.append(0.0)
        return time.perf_counter()

    def leave(self, layer: str, t0: float) -> None:
        elapsed = time.perf_counter() - t0
        self.spent[layer] += elapsed - self.inner.pop()
        self.inner[-1] += elapsed
        self.calls[layer] += 1

    def wrap(self, fn, layer: str):
        def wrapper(*args, **kwargs):
            t0 = self.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(layer, t0)

        return wrapper


class _Timed(ast.NodeTransformer):
    """Puts a timer around each run of consecutive statements of one layer."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.found = {start: 0 for _, starts in STATEMENTS for start in starts}

    def layer(self, node):
        first = ast.get_source_segment(self.source, node).splitlines()[0]
        for layer, starts in STATEMENTS:
            for start in starts:
                if first.startswith(start):
                    self.found[start] += 1
                    return layer
        return None

    def generic_visit(self, node):
        super().generic_visit(node)
        for name in ("body", "orelse"):
            body = getattr(node, name, None)
            if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
                setattr(node, name, self.timed(body))
        return node

    def timed(self, body):
        out, i = [], 0
        while i < len(body):
            layer = self.layer(body[i])
            j = i + 1
            while layer is not None and j < len(body) and self.layer(body[j]) == layer:
                j += 1
            if layer is None:
                out.append(body[i])
            else:
                out.append(ast.parse("__t0 = __timers.enter()").body[0])
                out.extend(body[i:j])
                out.append(ast.parse(f"__timers.leave({layer!r}, __t0)").body[0])
            i = j
        return out


def timed_propagate(timers: Timers):
    """A copy of ``engine._propagate`` with the ``STATEMENTS`` timed."""
    source = textwrap.dedent(inspect.getsource(engine._propagate))
    timed = _Timed(source)
    tree = timed.visit(ast.parse(source))
    missing = [start for start, n in timed.found.items() if not n]
    if missing:
        sys.exit(f"no statement of engine._propagate starts with {missing}")
    namespace = dict(vars(engine), __timers=timers)
    exec(compile(ast.fix_missing_locations(tree), engine.__file__, "exec"), namespace)
    return timers.wrap(namespace["_propagate"], "segment")


def _cell(scenario, frequency: float) -> None:
    analysis._cell_metrics(engine.run_transient(scenario.circuit, scenario.settings), frequency)


def _round(scenario, frequency: float) -> dict:
    """One plain and one timed run of the cell: seconds and calls per layer."""
    t0 = time.perf_counter()
    _cell(scenario, frequency)
    plain = time.perf_counter() - t0

    timers = Timers()
    saved = [(owner, attr, getattr(owner, attr)) for _, owner, attr in WRAPPED]
    saved.append((engine, "_propagate", engine._propagate))
    try:
        for layer, owner, attr in WRAPPED:
            setattr(owner, attr, timers.wrap(getattr(owner, attr), layer))
        engine._propagate = timed_propagate(timers)
        t0 = time.perf_counter()
        _cell(scenario, frequency)
        total = time.perf_counter() - t0
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    spent, calls = dict(timers.spent), dict(timers.calls)
    spent["walk"], calls["walk"] = spent.pop("run_transient"), calls.pop("run_transient")
    spent["topology_set_up"] = sum(spent[layer] for layer in SET_UP)
    spent["cell_plain"], spent["cell_timed"] = plain, total
    return {"plain": plain, "spent": spent, "calls": calls}


def split(rounds: int = 40, quiet: int = 8) -> dict:
    """The per-layer split of each cell over ``rounds`` rounds, from the
    ``quiet`` rounds of least plain wall time."""
    out = {}
    order = ("cell_plain", "cell_timed", "schedule", "topology_set_up", *SET_UP,
             "damped_steps", "trapezoidal_states", "stretch_outputs", "segment", "walk",
             "metrics")
    for frequency, load in CELLS:
        scenario = converter_scenario(frequency, load, analysis.settle_periods_for(frequency) + 1,
                                      analysis.sweep_step_for(frequency), ("A", "B", "O", "C"))
        _cell(scenario, frequency)  # untimed: first-call set-up
        kept = sorted((_round(scenario, frequency) for _ in range(rounds)),
                      key=lambda r: r["plain"])[: max(1, min(quiet, rounds))]
        out[f"{frequency:g} Hz/{load}"] = {
            "us_per_cell": {layer: round(1e6 * sum(r["spent"][layer] for r in kept) / len(kept), 1)
                            for layer in order},
            "calls_per_cell": kept[0]["calls"],
        }
    return {"how": (f"fig7 sweep cells in process; mean of the {quiet} quietest of "
                    f"{rounds} rounds, per cell"), "cells": out}


def main() -> None:
    json.dump(split(), sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
