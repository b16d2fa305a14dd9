"""Traced pass: wrap the public functions of each ``hvsim`` module in spans.

Wrappers are installed from outside the program.  Each target name is
replaced in every ``hvsim.*`` namespace that binds the same object (for
example ``run_scenario`` in ``runner``, ``analysis``, ``cli`` and
``electromech``), and ``remove`` puts every original back.  A target that a
later version of the program no longer has is skipped and reports 0 calls.

A span records name, start, end, parent span and job id.  Spans stay in
memory until ``dump``.  A span opened in a pool thread with nothing open on
that thread takes as parent the innermost span open on the installing
thread, so sweep cells hang under ``analysis.frequency_sweep``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Tuple

_MARK = "__perfbench_wrapped__"

# (home module, attribute); "Class.method" patches the class attribute
SPAN_TARGETS = (
    ("hvsim.cli", "main"),
    ("hvsim.engine", "run_transient"),
    ("hvsim.waveform", "write_csv"),
    ("hvsim.analysis", "frequency_sweep"),
    ("hvsim.analysis", "monte_carlo"),
    ("hvsim.analysis", "voltage_shares"),
    ("hvsim.analysis", "measure_amplitude"),
    ("hvsim.analysis", "measure_slew"),
    ("hvsim.runner", "run_scenario"),
    ("hvsim.runner", "switch_timelines"),
    ("hvsim.presets", "load_preset"),
    ("hvsim.presets", "load_fragment"),
    ("hvsim.topology", "build_half_bridge"),
    ("hvsim.topology", "build_dual_channel"),
    ("hvsim.circuit", "Circuit.validate"),
    ("hvsim.devices", "driver_schedule"),
    ("hvsim.netlist", "parse_file"),
    ("hvsim.electromech", "displacement_response"),
)
# counted only: these run per step or per event, where a span costs too much
COUNT_TARGETS = (
    ("hvsim.engine", "lu_factor"),
    ("hvsim.engine", "lu_solve"),
    ("hvsim.engine", "TransientResult.voltage"),
)


def _metric_name(home: str, attr: str) -> str:
    return f"{home.split('.', 1)[1]}.{attr}"


def _hvsim_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "hvsim" or n.startswith("hvsim."))]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, Optional[int], Optional[str], int]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.sums: Dict[str, float] = defaultdict(float)
        self.unknowns_max = 0
        self.job: Optional[str] = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent, self.job, threading.get_ident()))
            if on_result is not None:
                with self._lock:
                    on_result(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- per-target result hooks -----------------------------------------

    def _on_transient(self, args, kwargs, result) -> None:
        settings = kwargs.get("settings", args[1] if len(args) > 1 else None)
        self.sums["engine.steps"] += settings.n_steps
        self.sums["engine.events"] += len(result.events)
        self.unknowns_max = max(self.unknowns_max, result.x.shape[1])

    def _on_write_csv(self, args, kwargs, result) -> None:
        self.sums["waveform.csv_bytes"] += os.path.getsize(kwargs.get("path", args[0]))

    def _on_parse_file(self, args, kwargs, result) -> None:
        self.sums["netlist.bytes"] += os.path.getsize(kwargs.get("path", args[0]))

    def _on_driver_schedule(self, args, kwargs, result) -> None:
        self.sums["devices.driver_schedule.events"] += len(result)

    # -- install / remove -------------------------------------------------

    def _patch(self, home: str, attr: str, make) -> None:
        module = sys.modules.get(home)
        if module is None:
            return
        if "." in attr:
            cls_name, meth = attr.split(".", 1)
            cls = getattr(module, cls_name, None)
            original = None if cls is None else cls.__dict__.get(meth)
            if original is None:
                return
            self._patches.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = make(original)
        for mod in _hvsim_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        """Wrap every target.  Call from the thread that runs the jobs."""
        hooks = {
            "engine.run_transient": self._on_transient,
            "waveform.write_csv": self._on_write_csv,
            "netlist.parse_file": self._on_parse_file,
            "devices.driver_schedule": self._on_driver_schedule,
        }
        self._local.stack = self._main_stack
        for home, attr in SPAN_TARGETS:
            name = _metric_name(home, attr)
            self._patch(home, attr,
                        lambda fn, name=name: self._span(name, fn, hooks.get(name)))
        for home, attr in COUNT_TARGETS:
            name = _metric_name(home, attr)
            self._patch(home, attr, lambda fn, name=name: self._counter(name, fn))

        def wrap_template(fn):
            @functools.wraps(fn)
            def mc_template(*args, **kwargs):
                return self._span("presets.mc_build", fn(*args, **kwargs))

            setattr(mc_template, _MARK, True)
            return mc_template

        self._patch("hvsim.presets", "mc_template", wrap_template)

    def remove(self) -> None:
        """Restore every original and check that no wrapper is left."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        leftovers = []
        for mod in _hvsim_modules():
            for key, value in vars(mod).items():
                if getattr(value, _MARK, False):
                    leftovers.append(f"{mod.__name__}.{key}")
                elif isinstance(value, type):
                    leftovers += [f"{mod.__name__}.{key}.{k}" for k, v in vars(value).items()
                                  if getattr(v, _MARK, False)]
        if leftovers:
            raise RuntimeError(f"tracing wrappers left installed: {leftovers}")

    # -- results ----------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the part of it that child spans cover."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _sid, _name, t0, t1, parent, _job, _thread in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        return {
            sid: (t1 - t0) - _covered(children.get(sid, []), t0, t1)
            for sid, _name, t0, t1, _parent, _job, _thread in self.spans
        }

    def stats(self) -> Dict[str, float]:
        """Calls, inclusive and self seconds per span name, plus counters."""
        out: Dict[str, float] = defaultdict(float)
        for home, attr in SPAN_TARGETS + (("hvsim.presets", "mc_build"),):
            name = _metric_name(home, attr)
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for home, attr in COUNT_TARGETS:
            out[f"{_metric_name(home, attr)}.calls"] = self.counts.get(
                _metric_name(home, attr), 0)
        self_s = self.self_times()
        sweeps = {sid for sid, name, *_ in self.spans if name == "analysis.frequency_sweep"}
        out["analysis.cell_busy_s"] = 0.0
        for sid, name, t0, t1, parent, _job, _thread in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += t1 - t0
            out[f"{name}.self_s"] += self_s[sid]
            if name == "runner.run_scenario" and parent in sweeps:
                out["analysis.cell_busy_s"] += t1 - t0
        for key in ("engine.steps", "engine.events", "waveform.csv_bytes",
                    "netlist.bytes", "devices.driver_schedule.events"):
            out[key] = self.sums.get(key, 0)
        out["engine.unknowns_max"] = self.unknowns_max
        return out

    def root_check(self) -> List[Dict[str, float]]:
        """Per root span (one per job): inclusive time, the summed time of its
        direct children, its self time, and how far the first is from the sum
        of the other two.  Root children run one after another, so the error
        is rounding only."""
        self_s = self.self_times()
        child_s: Dict[int, float] = defaultdict(float)
        for _sid, _name, t0, t1, parent, _job, _thread in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        return [
            {"job": job, "root": name, "s": t1 - t0, "children_s": child_s[sid],
             "self_s": self_s[sid], "error_s": (t1 - t0) - child_s[sid] - self_s[sid]}
            for sid, name, t0, t1, parent, job, _thread in self.spans
            if parent is None
        ]

    def dump(self, path) -> None:
        fields = ("id", "name", "start", "end", "parent", "job", "thread")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans,
                       "counts": dict(self.counts), "roots": self.root_check()}, fh)


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(stats: Dict[str, float], pool_stats: Optional[Dict[str, float]],
                  pool_workers: int) -> Dict[str, float]:
    """Derived per-layer ratios on top of ``Tracer.stats``.  ``pool_stats``
    come from a separate traced pass on the thread pool, if there was one."""
    out = dict(stats)
    steps = stats["engine.steps"]
    out["engine.us_per_step"] = 1e6 * stats["engine.run_transient.s"] / steps if steps else 0.0
    csv_s = stats["waveform.write_csv.s"]
    out["waveform.csv_mb_per_s"] = stats["waveform.csv_bytes"] / 1e6 / csv_s if csv_s else 0.0
    out["analysis.pool_util"] = 0.0
    if pool_stats and pool_stats["analysis.frequency_sweep.s"]:
        out["analysis.pool_util"] = pool_stats["analysis.cell_busy_s"] / (
            pool_stats["analysis.frequency_sweep.s"] * pool_workers)
    return out
