"""In-process per-layer split of a fig3 Monte-Carlo trial.

Usage::

    python tools/trial_split.py > split.json

Each of 40 rounds runs ``analysis.monte_carlo(mc_template("fig3"),
MismatchModel(trials=50))`` (seed 0, the CLI's ``--sigma`` default) twice:
once as it is, for the plain cost of a trial, and once with each layer
wrapped by a ``perf_counter`` timer that also counts its calls.  The wrapped
layers are module attributes, replaced for the wrapped run and restored
after it: ``monte_carlo``'s trial loop (``analysis.run_study``), the trial's
``build``, ``analysis.run_transient`` and, inside it, ``engine._lower``,
``engine._schedule`` (the switches' driver events, snapped to the grid, and
the switching sequence), ``engine._base_matrix``
(stamp), ``engine._factor`` (factor), ``engine.lu_solve`` (solve) and
``engine._package``, and ``analysis._drops``.  Three layers are what is
left of their parent: the key (``monte_carlo`` less its trial loop: the
list of trial keys, where it is made before the trials), the draws (the
trial loop less build, ``run_transient`` and ``_drops``: the trial's
generator and draws, and its key where the trial makes it) and the walk
(``run_transient`` less its wrapped layers).

One JSON object is printed: per layer, the mean over the 8 quietest rounds
(the rounds with the least plain wall time) of its microseconds per trial,
and each wrapped layer's calls per trial.  A timer adds a fraction
of a microsecond per wrapped call to its parent layers.  ``hvsim`` is
imported from the ``src`` directory next to this script, so copying the
script into another checkout measures that checkout.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hvsim import analysis, engine  # noqa: E402
from hvsim.presets import mc_template  # noqa: E402

#: (layer, module, attribute) of every wrapped layer
WRAPPED = (
    ("trial_loop", analysis, "run_study"),
    ("run_transient", analysis, "run_transient"),
    ("_lower", engine, "_lower"),
    ("_schedule", engine, "_schedule"),
    ("stamp", engine, "_base_matrix"),
    ("factor", engine, "_factor"),
    ("solve", engine, "lu_solve"),
    ("_package", engine, "_package"),
    ("_drops", analysis, "_drops"),
)
#: the layers timed inside ``run_transient``; the walk is the rest of it
ENGINE = ("_lower", "_schedule", "stamp", "factor", "solve", "_package")


def _timed(fn, layer: str, spent: dict, calls: dict):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[layer] += time.perf_counter() - t0
            calls[layer] += 1

    return wrapper


def _round(build, model) -> dict:
    """One plain and one wrapped run of the study: seconds and calls per layer."""
    t0 = time.perf_counter()
    analysis.monte_carlo(build, model)
    plain = time.perf_counter() - t0

    layers = [layer for layer, _, _ in WRAPPED] + ["build"]
    spent, calls = dict.fromkeys(layers, 0.0), dict.fromkeys(layers, 0)
    saved = [(module, attr, getattr(module, attr)) for _, module, attr in WRAPPED]
    try:
        for layer, module, attr in WRAPPED:
            setattr(module, attr, _timed(getattr(module, attr), layer, spent, calls))
        t0 = time.perf_counter()
        analysis.monte_carlo(_timed(build, "build", spent, calls), model)
        total = time.perf_counter() - t0
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
    spent["key"] = total - spent["trial_loop"]
    spent["draws"] = (spent["trial_loop"] - spent["build"] - spent["run_transient"]
                      - spent["_drops"])
    spent["walk"] = spent["run_transient"] - sum(spent[layer] for layer in ENGINE)
    spent["trial_plain"] = plain
    spent["trial_wrapped"] = total
    return {"plain": plain, "spent": spent, "calls": calls}


def split(trials: int = 50, rounds: int = 40, quiet: int = 8) -> dict:
    """The per-layer split over ``rounds`` rounds of ``trials`` trials each,
    from the ``quiet`` rounds of least plain wall time."""
    build = mc_template("fig3")
    model = analysis.MismatchModel(trials=trials)
    analysis.monte_carlo(build, model)  # untimed: first-call set-up
    kept = sorted((_round(build, model) for _ in range(rounds)), key=lambda r: r["plain"])
    kept = kept[: max(1, min(quiet, rounds))]
    order = ("trial_plain", "trial_wrapped", "key", "draws", "build", "run_transient",
             *ENGINE, "walk", "_drops")
    us = {layer: round(1e6 * sum(r["spent"][layer] for r in kept) / (len(kept) * trials), 2)
          for layer in order}
    per_trial = {layer: round(n / trials, 2) for layer, n in kept[0]["calls"].items()
                 if layer != "trial_loop"}
    return {
        "how": (f"monte_carlo(mc_template('fig3'), MismatchModel(trials={trials})) in "
                f"process; mean of the {len(kept)} quietest of {rounds} rounds, per trial"),
        "us_per_trial": us,
        "calls_per_trial": per_trial,
    }


def main() -> None:
    json.dump(split(), sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
