"""Modified nodal analysis: DC operating point and fixed-step transient runs.

Unknowns are the non-ground node voltages plus one branch current per voltage
source.  Capacitors integrate with trapezoidal companion models; after every
switching event a configurable number of backward-Euler steps damp the
trapezoidal ringing that switch discontinuities excite.  The system matrix is
dense (node counts here stay small).

Between events the circuit is linear time-invariant, so each run factors the
matrix once per distinct (switch states, damped) pair and reuses it at every
later event with the same topology.  With capacitors, a trapezoidal stretch is
a linear recurrence in the companion-history currents and the source EMFs (the
per-topology state-space form of piecewise-linear switched-circuit
simulators): its state advances a block of steps at a time from powers of its
one-step map, tabulated as far as the longest block needs, and its output rows
are one product per stretch (per as many blocks as BLAS runs on one thread).

:func:`run_transient` has four phases, each a function: schedule
(:func:`_schedule`), segment plan (:func:`_plan_segment`), propagate
(:func:`_propagate`, or :func:`_propagate_free` without capacitors) and
package (:func:`_package`).  Each propagate phase is one forward walk over the
sorted boundaries that takes the topology of each and runs the segments before
it; a segment is planned only while a source is gated or off its target.  Once
every EMF holds its voltage, a segment runs to its boundary at a drive built
once, and a capacitor-free one is its topology's held row: one dict lookup.  A
run with capacitors checks its segment ends finite in one pass after the walk.

A run with capacitors is stored dense; a capacitor-free one has no state and
is stored run-length, one solved row per constant stretch and per ramp step.

:func:`lu_factor` and :func:`lu_solve` call LAPACK ``dgetrf``/``dgetrs``
directly, the routines behind scipy's wrappers of the same names, so the bits
match and the per-call wrapper cost is gone.  The two routines are bound from
scipy's compiled ``scipy/linalg/_flapack`` extension, loaded by file path:
importing ``scipy.linalg`` to reach them would run the whole package (and,
through ``scipy._lib``, ``numpy.f2py``, ``numpy.ma`` and ``numpy.testing``),
which took more than half of the start-up of every CLI call.  Where that file
is not found they come from ``scipy.linalg.lapack``.  A later ``import
scipy.linalg`` gets the same extension module and the same routine objects.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .circuit import (
    Capacitor,
    Circuit,
    CircuitError,
    Component,
    IntegrationSettings,
    Resistor,
    ScheduleError,
    Switch,
    VoltageSource,
    is_ground,
)
from .waveform import Waveform


class SimulationError(RuntimeError):
    """Numerical failure: singular system or diverging solution."""


_FLAPACK = "scipy.linalg._flapack"


def _flapack_file() -> Optional[str]:
    """Path of scipy's compiled LAPACK wrappers, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(spec.submodule_search_locations[0], "linalg", "_flapack" + suffix)
        if os.path.isfile(path):
            return path
    return None


def _bind_lapack():
    """``(dgetrf, dgetrs)`` from scipy's ``_flapack`` extension module."""
    module = sys.modules.get(_FLAPACK)
    if module is None:
        path = _flapack_file()
        if path is None:
            from scipy.linalg.lapack import dgetrf, dgetrs

            return dgetrf, dgetrs
        spec = importlib.util.spec_from_file_location(_FLAPACK, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # loading registered the module; without the entry, a later ``import
        # scipy.linalg`` loads it again (the same module, from the extension
        # cache) and also sets it as the package attribute ``_flapack``
        sys.modules.pop(_FLAPACK, None)
    return module.dgetrf, module.dgetrs


dgetrf, dgetrs = _bind_lapack()


#: (initial_state, [(time, state), ...]) for one switch
SwitchTimeline = Tuple[bool, Sequence[Tuple[float, bool]]]


@dataclass
class _Lowered:
    labels: List[str]
    index: Dict[str, int]  # non-ground label -> row; ground labels are never stored
    switches: List[Switch]
    caps: List[Capacitor]
    sources: List[VoltageSource]
    resistors: List[Resistor]
    # the stamps of ``resistors`` and the source rows/columns that every
    # topology shares, as one row-major list, and the ``(adds, subs)`` entries
    # of it that each switch, then each capacitor, stamps, in part order
    resistive: List[float] = field(default_factory=list)
    slots: List[Tuple[List[int], List[int]]] = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def size(self) -> int:
        return self.n_nodes + len(self.sources)

    def rows(self, comp: Component) -> Tuple[int, int]:
        """Matrix rows of ``comp``'s + and - nodes, -1 for ground."""
        return self.index.get(comp.pos, -1), self.index.get(comp.neg, -1)


def _lower(circuit: Circuit) -> _Lowered:
    """Check the circuit, map node labels to matrix rows, sort the parts by
    kind and stamp the resistors and source branches.  The lowering is kept
    in ``circuit.memo``, so a circuit that shares the memo (one derived by
    :meth:`~hvsim.circuit.Circuit.with_parts`) takes its labels, rows, slots
    and, while its resistors are the same parts, its stamps."""
    circuit.validate()
    kinds = {Switch: [], Capacitor: [], VoltageSource: [], Resistor: []}  # _Lowered's order
    for comp in circuit.components:
        kinds[type(comp)].append(comp)
    low = circuit.memo.get("lowering")
    if low is not None and all(map(operator.is_, kinds[Resistor], low.resistors)):
        return _Lowered(low.labels, low.index, *kinds.values(), low.resistive, low.slots)
    labels = circuit.node_labels()
    low = _Lowered(labels, {label: i for i, label in enumerate(labels)}, *kinds.values())
    size, n = low.size, low.n_nodes
    # the diagonal entries add, the others subtract
    slots = [([k * size + k for k in (p, q) if k >= 0],
              [p * size + q, q * size + p] if p >= 0 and q >= 0 else [])
             for p, q in map(low.rows, (*low.resistors, *low.switches, *low.caps))]
    low.slots = slots[len(low.resistors):]
    # source branch rows/columns; the conductances fill only the node block
    R = np.zeros((size, size))
    R[:n, n:] = _incidence(low, n, low.sources)
    R[n:, :n] = R[:n, n:].T
    low.resistive = A = R.ravel().tolist()
    for (adds, subs), res in zip(slots, low.resistors):  # stamped once, not once per topology
        g = 1.0 / res.resistance
        for k in adds:
            A[k] += g
        for k in subs:
            A[k] -= g
    circuit.memo["lowering"] = low
    return low


def _incidence(low: _Lowered, n_rows: int, branches) -> np.ndarray:
    """One column per branch: +1 at its + node row, -1 at its - node row."""
    inc = np.zeros((n_rows, len(branches)))
    for j, br in enumerate(branches):
        p, n = low.rows(br)
        if p >= 0:
            inc[p, j] += 1.0
        if n >= 0:
            inc[n, j] -= 1.0
    return inc


def _base_matrix(
    low: _Lowered, sw_states: Sequence[bool], cap_g: Sequence[float] = ()
) -> np.ndarray:
    """The system matrix of one topology, summed in a fixed order: the
    resistive stamps, then each switch, then each capacitor's companion
    conductance in ``cap_g``, at the lowering's slots.  Stamped in a Python
    list (the same IEEE sums as numpy's) and converted once."""
    A, size = low.resistive.copy(), low.size
    g = [1.0 / sw.ron if on else 1.0 / sw.roff for sw, on in zip(low.switches, sw_states)]
    g.extend(cap_g)
    for (adds, subs), g_k in zip(low.slots, g):
        for k in adds:
            A[k] += g_k
        for k in subs:
            A[k] -= g_k
    return np.fromiter(A, float, size * size).reshape(size, size)


def lu_factor(A: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """LU factors and 0-based pivots of ``A``: the LAPACK ``dgetrf`` call
    behind ``scipy.linalg.lu_factor``, without its per-call wrapper checks."""
    if A.size == 0:  # LAPACK rejects an empty matrix
        return A.copy(), np.zeros(0, dtype=np.int32)
    lu, piv, _ = dgetrf(A)  # a zero pivot is left in ``lu`` for the caller to find
    return lu, piv


def lu_solve(lu_and_piv: Tuple[np.ndarray, np.ndarray], b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` from :func:`lu_factor` output (LAPACK ``dgetrs``)."""
    if b.size == 0:
        return b.copy()
    return dgetrs(*lu_and_piv, b)[0]


def _clean(pivots: List[float]) -> bool:
    """No zero pivot (``dgetrf``'s ``info > 0``) and none that is not finite."""
    return 0.0 not in pivots and all(map(math.isfinite, pivots))


def _factor(A: np.ndarray, low: _Lowered):
    """LU factors of ``A``; a zero or non-finite pivot raises
    :class:`SimulationError` naming the first such pivot's row."""
    lu = lu_factor(A)
    pivots = lu[0].diagonal().tolist()
    if _clean(pivots):
        return lu
    k = next(k for k, p in enumerate(pivots) if not _clean([p]))
    if k < low.n_nodes:
        culprit = f"node {low.labels[k]!r}"
    else:
        culprit = f"source {low.sources[k - low.n_nodes].name!r}"
    raise SimulationError(f"singular system while factoring (check {culprit})")


#: Steps per block of a trapezoidal stretch; a power table grows on demand up
#: to F^0..F^_BLOCK.
_BLOCK = 256
#: The most multiply-adds (m*n*k) of one output product of a stretch: the most
#: OpenBLAS's gemm runs on one thread, where a row's bits do not depend on the
#: row count (split among threads, a share's edge columns may round otherwise).
_ONE_THREAD = 1 << 18


def _powers(F: np.ndarray, count: int, P: Optional[np.ndarray] = None) -> np.ndarray:
    """``F^0 .. F^count`` stacked, by repeated doubling: ``F^j = F^(j-k) @ F^k``
    with ``k`` the largest power of two below ``j``.  Given ``P``, a table of
    ``F^0 .. F^k`` from an earlier call with ``k`` a power of two, the doubling
    resumes at ``k``: a table grown in steps has the bits of one built at once."""
    if P is None:
        P = np.stack([np.eye(F.shape[0]), F])
    out = np.empty((count + 1,) + F.shape)
    k = len(P) - 1  # out[0..k] are filled
    out[: k + 1] = P
    while k < count:
        span = min(k, count - k)
        out[k + 1 : k + 1 + span] = out[1 : 1 + span] @ out[k]
        k += span
    return out


@dataclass
class _Operators:
    """One factored topology and the operators derived from it on first use.

    ``N`` is the capacitor incidence (+1 at the + node row, -1 at the - node
    row) and ``S`` selects the source rows, so a step solves
    ``A x = N hist + S emf``.  The table of powers of the one-step map grows
    to the longest block asked for, in powers of two up to ``_BLOCK``: a
    topology that holds for one trapezoidal step needs ``F^0`` and ``F^1``
    only.  A capacitor-free topology keeps the rows that can recur instead.
    """

    lu: Tuple[np.ndarray, np.ndarray]
    g: Optional[np.ndarray] = None  # each capacitor's companion; None without capacitors
    k: Optional[np.ndarray] = None  # A^-1 [N S]
    powers: Optional[np.ndarray] = None  # F^0 .. F^(2^i), 2^i <= _BLOCK
    rows: Dict[bytes, np.ndarray] = field(default_factory=dict)  # capacitor-free x by EMF bytes

    def solve(self, emf: np.ndarray, t: float) -> np.ndarray:
        """The capacitor-free solution ``A^-1 S emf``; one that is not finite
        raises :class:`SimulationError` naming ``t``."""
        b = np.zeros(len(self.lu[0]))
        b[len(b) - len(emf):] = emf
        x = lu_solve(self.lu, b)
        if not all(map(math.isfinite, x.tolist())):
            raise SimulationError(f"solution diverged at t={t!r}")
        return x

    def row(self, emf: np.ndarray, t: float) -> np.ndarray:
        """:meth:`solve`, kept per EMF vector's bytes (so -0.0 and 0.0 stay apart)."""
        key = emf.tobytes()
        x = self.rows.get(key)
        if x is None:
            x = self.rows[key] = self.solve(emf, t)
        return x

    def response(self, inc: np.ndarray, m: int) -> np.ndarray:
        """``A^-1 [N S]``, so that ``x = A^-1 [N S] [hist; emf]``."""
        if self.k is None:
            size = inc.shape[0]
            cols = np.hstack([inc, np.eye(size)[:, size - m :]])
            # one column per solve: OpenBLAS threads a multi-column getrs,
            # and its idle workers then spin through the rest of the run
            self.k = np.column_stack([lu_solve(self.lu, col) for col in cols.T])
        return self.k

    def step_powers(self, inc: np.ndarray, m: int, length: int) -> np.ndarray:
        """Powers ``F^0 .. F^length`` at least (``length <= _BLOCK``) of the
        trapezoidal one-step map ``F`` of ``z = [hist; emf; emf step]``.

        ``hist' = 2G Nᵀx - hist`` with ``x = A^-1 [N S] [hist; emf]``, and the
        EMF advances by its per-step increment.
        """
        if self.powers is None:
            nc = inc.shape[1]
            F = np.eye(nc + 2 * m)
            F[:nc, : nc + m] = 2.0 * self.g[:, None] * (inc.T @ self.response(inc, m))
            F[:nc, :nc] -= np.eye(nc)
            F[nc : nc + m, nc + m :] = np.eye(m)
            self.powers = _powers(F, 1)
        if len(self.powers) <= length:  # grow to the next power of two
            count = 1 << (length - 1).bit_length()
            self.powers = _powers(self.powers[1], count, self.powers)
        return self.powers


def _targets(low: _Lowered, controls, t: float) -> np.ndarray:
    """Each source's commanded EMF at time ``t`` (gated sources by their control)."""
    on = [src.control is None or controls[src.control].state_at(t) for src in low.sources]
    return np.array([src.voltage if o else 0.0 for src, o in zip(low.sources, on)], dtype=float)


def dc_operating_point(circuit: Circuit) -> Dict[str, float]:
    """Resistive steady-state node voltages at the t=0 command states.

    Capacitors are open circuits (converter output capacitance included);
    slew limits are ignored and each switch and gated source takes its t=0
    command state (:meth:`~hvsim.circuit.Switch.initial_state`).
    """
    low = _lower(circuit)
    controls = circuit.control_map
    states = [sw.initial_state(controls[sw.control]) for sw in low.switches]
    x = _Operators(_factor(_base_matrix(low, states), low)).solve(_targets(low, controls, 0.0), 0.0)
    out = {label: float(x[i]) for label, i in low.index.items()}
    out["0"] = 0.0
    return out


@dataclass
class TransientResult:
    """Transient solution: every unknown at the ``n_samples`` grid points.

    With ``starts`` None the storage is dense: row ``k`` of ``x`` and
    ``cap_i`` is grid point ``k``, stored column-major, so each trace is one
    contiguous block, which :meth:`voltage` and :meth:`cap_current` hand out
    as a read-only view.  A capacitor-free run is stored run-length: row ``i``
    holds from grid index ``starts[i]`` up to the next start (the last row up
    to ``n_samples``), one row per constant stretch and one per step of a
    source ramp, and the :class:`Waveform` accessors expand the rows to every
    grid point.  :meth:`rows` returns a column as stored."""

    step: float
    labels: List[str]
    index: Dict[str, int]
    source_names: List[str]
    cap_names: List[str]
    x: np.ndarray  # (rows, n_nodes + n_sources)
    cap_i: np.ndarray  # (rows, n_caps), current into the + terminal
    n_samples: int
    starts: Optional[np.ndarray] = None  # grid index of each row; None: dense
    events: List[Tuple[float, str]] = field(default_factory=list)

    def _wave(self, column: np.ndarray) -> Waveform:
        if self.starts is not None:
            column = np.repeat(column, np.diff(self.starts, append=self.n_samples))
        column.flags.writeable = False  # a dense result's column is a view of it
        return Waveform(0.0, self.step, column)

    def rows(self, label: str) -> np.ndarray:
        """Node ``label``'s column of ``x`` as stored (a view; zeros for
        ground): its value at every grid point of a dense result, or one
        value per run of a run-length one."""
        if is_ground(label):
            return np.zeros(self.x.shape[0])
        if label not in self.index:
            raise KeyError(f"unknown node {label!r}")
        return self.x[:, self.index[label]]

    def voltage(self, label: str) -> Waveform:
        return self._wave(self.rows(label))

    def pair_voltage(self, pos: str, neg: str) -> Waveform:
        return self._wave(self.rows(pos) - self.rows(neg))

    def source_current(self, name: str) -> Waveform:
        """Current delivered from the source's + terminal into the circuit."""
        j = self.source_names.index(name)
        return self._wave(-self.x[:, len(self.labels) + j])

    def cap_current(self, name: str) -> Waveform:
        j = self.cap_names.index(name)
        return self._wave(self.cap_i[:, j])


def _snap(t: float, h: float) -> int:
    return int(round(t / h))


def _snap_events(kind: str, name: str, events, h: float, n_steps: int):
    """Yield ``(grid index, state)`` of each ``(time, state)`` event of the
    ``kind`` part ``name`` up to index ``n_steps``; an event at t <= 0 takes
    index 0 unscaled, so one far before t=0 cannot overflow.  Two events that
    snap to one index after t=0 raise :class:`~hvsim.circuit.ScheduleError`:
    the pulse between them would be lost."""
    times: Dict[int, float] = {}  # grid index after t=0 -> event time
    for t_e, state in events:
        idx = _snap(t_e, h) if t_e > 0 else 0
        if idx in times:
            raise ScheduleError(
                f"{kind} {name!r}: events at t={times[idx]!r} and t={t_e!r} snap to one "
                f"grid index (step {h!r}); the pulse between them would be lost"
            )
        if idx <= n_steps:
            if idx > 0:
                times[idx] = t_e
            yield idx, state


def _initial_solve(
    low: _Lowered, sw_states: Sequence[bool], emf0: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Consistent t=0 state of a run with capacitors, each held at its
    initial voltage.

    Returns the initial unknown vector, the capacitor branch currents, and
    whether the branch-current split was determinate.
    """
    n, m, c = low.n_nodes, len(low.sources), len(low.caps)
    size = n + m + c
    A = np.zeros((size, size))
    A[: n + m, : n + m] = _base_matrix(low, sw_states)
    A[:n, n + m :] = _incidence(low, n, low.caps)
    A[n + m :, :n] = A[:n, n + m :].T
    b = np.concatenate([np.zeros(n), emf0, [cap.initial_voltage for cap in low.caps]])
    lu = lu_factor(A)
    determinate = _clean(lu[0].diagonal().tolist())  # the pivot check of _factor
    if determinate:
        x = lu_solve(lu, b)
    else:
        # capacitor loops make the t=0 branch-current split indeterminate;
        # take the minimum-norm solution (the damped first steps erase any
        # loop-current ambiguity) and reject truly inconsistent pre-charges
        x, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
        residual = float(np.max(np.abs(A @ x - b)))
        scale = float(np.max(np.abs(b))) + 1.0
        if residual > 1e-6 * scale:
            raise SimulationError(
                "inconsistent capacitor pre-charges at t=0.0 "
                f"(constraint residual {residual:.3g})"
            )
    if not np.all(np.isfinite(x)):
        raise SimulationError("non-finite initial solution at t=0.0")
    return x[: n + m], x[n + m :], determinate


def _schedule(low: _Lowered, circuit: Circuit, settings: IntegrationSettings, timelines):
    """Schedule phase: each switch's initial state and events (from
    :meth:`~hvsim.circuit.Switch.initial_state` and
    :meth:`~hvsim.circuit.Switch.events` over its control's
    :meth:`~hvsim.circuit.Circuit.control_edges`, listed once per control, or
    from ``timelines`` when given) and the gated-source command edges,
    snapped to the grid as they are read; then the switching sequence.
    Returns the switch states at t=0; per segment boundary (every event index
    and the last grid index, sorted) the switch states after it and whether
    it logs an event (a logged boundary restarts damping); and the event log,
    per boundary ``(t, switch name)`` for each switch that changes, then
    ``(t, "source")``."""
    h, n_steps = settings.step, settings.n_steps
    controls = circuit.control_map
    edges: Dict[str, tuple] = {}  # each read control's edges, listed once
    sw_states: List[bool] = []
    sw_events: Dict[int, List[Tuple[int, bool]]] = {}
    for si, sw in enumerate(low.switches):
        if timelines is None:
            if sw.control not in edges:
                edges[sw.control] = circuit.control_edges(sw.control, settings)
            state = sw.initial_state(controls[sw.control])
            events = sw.events(edges[sw.control], settings.stop)
        elif sw.name in timelines:
            state, events = timelines[sw.name]
        else:
            raise SimulationError(f"no timeline given for switch {sw.name!r}")
        state = bool(state)
        for idx, new_state in _snap_events("switch", sw.name, events, h, n_steps):
            if idx <= 0:
                state = bool(new_state)
            else:
                sw_events.setdefault(idx, []).append((si, bool(new_state)))
        sw_states.append(state)

    # gated-source command edges are events too (value steps excite caps)
    src_events = {
        idx
        for src in low.sources if src.control is not None
        for idx, _ in _snap_events("source", src.name, circuit.control_edges(
            src.control, settings), h, n_steps)
        if idx > 0
    }
    initial = tuple(sw_states)
    sequence, log = [], []
    for idx in sorted(sw_events.keys() | src_events | {n_steps}):
        logged = len(log)
        for si, new_state in sw_events.get(idx, ()):
            if sw_states[si] != new_state:
                sw_states[si] = new_state
                log.append((idx * h, low.switches[si].name))
        if idx in src_events:
            log.append((idx * h, "source"))
        sequence.append((idx, tuple(sw_states), len(log) > logged))
    return initial, sequence, log


def _plan_segment(low: _Lowered, controls, emf: np.ndarray, idx0: int, boundary: int, h: float):
    """Segment plan phase: the EMF trajectory from grid index ``idx0``,
    constant or a slew-limited ramp.  Returns the segment end (``boundary``,
    or the first ramp knee before it), the source targets and the per-source
    slope; a source that does not ramp is set to its target in ``emf``."""
    # targets are sampled half a step in, past any snapped command edge
    target = _targets(low, controls, idx0 * h + 0.5 * h)
    ramp_end: Dict[int, int] = {}  # slewing source -> grid index its ramp ends at
    for j, src in enumerate(low.sources):
        if src.slew is None or emf[j] == target[j]:
            emf[j] = target[j]
        else:
            duration = abs(float(target[j] - emf[j])) / src.slew  # a float: inf, no warning
            steps = duration / h - 1e-9
            # a ramp that ends past the boundary (inf steps too) keeps its slew
            # slope, so only its end after the boundary matters
            ramp_end[j] = (idx0 + max(1, int(math.ceil(steps)))
                           if steps <= boundary - idx0 else boundary + 1)
    seg_end = min([boundary, *ramp_end.values()])
    slope = np.zeros(len(low.sources))
    for j, k_end in ramp_end.items():
        if k_end <= seg_end:
            # ramp ends inside this segment: hit the target exactly
            slope[j] = (target[j] - emf[j]) / ((k_end - idx0) * h)
        else:
            slope[j] = math.copysign(low.sources[j].slew, target[j] - emf[j])
    return seg_end, target, slope


def _advance(emf: np.ndarray, target: np.ndarray, slope: np.ndarray, steps: int, h: float):
    """EMF advance: ``emf`` after ``steps`` steps at ``slope``, each ramping
    source that lands within 1e-9 (relative) of its target set to it."""
    out = []
    for e, s, t in zip(emf.tolist(), slope.tolist(), target.tolist()):  # numpy's IEEE sums
        e += s * (steps * h)
        out.append(t if s != 0.0 and abs(e - t) < 1e-9 * max(1.0, abs(t)) else e)
    return np.array(out)


def _topology(low: _Lowered, topologies, states, damped: bool = False, g=None) -> _Operators:
    """The :class:`_Operators` of switch states ``states`` and capacitor
    companions ``g`` (backward Euler when ``damped``), factored on first use."""
    op = topologies.get((states, damped))
    if op is None:
        A = _base_matrix(low, states, () if g is None else g.tolist())
        op = topologies[states, damped] = _Operators(_factor(A, low), g)
    return op


def _propagate(trap, be, inc, out, vc, ic, emf, d_emf, drive, ramp, idx0, seg_end, damp):
    """Propagate phase of a run with capacitors: advance from grid index
    ``idx0`` to ``seg_end``, the first ``damp`` steps backward Euler through
    ``be``, the rest trapezoidal through ``trap``, the EMF at step ``k`` being
    ``emf + (k - idx0) * d_emf`` (``drive`` at every step unless ``ramp``).
    A trapezoidal stretch fills its states a block at a time from the power
    table, then its rows of the dense ``(x, cap_i)`` arrays ``out`` in one
    product per batch of blocks.  Returns the capacitor voltages and currents
    at ``seg_end``; the caller checks the segment ends finite after the walk."""
    nc, m = inc.shape[1], len(emf)
    if damp:
        k_be = be.response(inc, m)
        rhs = np.concatenate([vc, drive])  # [hist; emf], rewritten in place per step
        hist = rhs[:nc]
        for k in range(idx0 + 1, idx0 + 1 + damp):
            np.multiply(be.g, vc, out=hist)
            if ramp:
                np.add(emf, (k - idx0) * d_emf, out=rhs[nc:])
            out[0][k] = x = k_be @ rhs
            vc = x @ inc
            ic = np.subtract(be.g * vc, hist, out=out[1][k])
    k = idx0 + 1 + damp
    if k <= seg_end:
        P = trap.step_powers(inc, m, min(_BLOCK, seg_end + 1 - k))
        k_tr = trap.response(inc, m)
        drive = emf + (k - idx0) * d_emf if ramp else drive  # d_emf is +0.0 if not ramp
        z = np.concatenate([trap.g * vc + ic, drive, d_emf])
        batch = max(1, _ONE_THREAD // (_BLOCK * k_tr.size)) * _BLOCK  # rows per product
        Z = np.empty((min(batch, seg_end + 1 - k), z.size))  # row i: [hist; emf; emf step]
        while k <= seg_end:
            rows = min(batch, seg_end + 1 - k)
            if rows > _BLOCK and rows % _BLOCK == 1:  # a one-row block is a product of its own
                rows -= 1
            for i in range(0, rows, _BLOCK):
                L = min(_BLOCK, rows - i)
                np.matmul(P[:L].reshape(-1, z.size), z, out=Z[i : i + L].reshape(-1))
                if k + i + L <= seg_end:  # the last advance would never be read
                    z = P[L] @ z
            X = out[0][k : k + rows] = Z[:rows, : nc + m] @ k_tr.T
            np.subtract(trap.g * (X @ inc), Z[:rows, :nc], out=out[1][k : k + rows])
            k += rows
        vc = X[-1] @ inc  # x at seg_end as a contiguous row: same BLAS path, same bits
        ic = out[1][seg_end]
    return vc, ic


def _check_finite(x: np.ndarray, ends: List[int], h: float) -> None:
    """Raise :class:`SimulationError` for the first segment end whose row is not finite."""
    finite = np.isfinite(x[ends]).all(axis=1)
    if not finite.all():
        raise SimulationError(f"solution diverged at t={ends[int(finite.argmin())] * h!r}")


def _propagate_free(low, controls, sequence, states, emf, settled, h):
    """Propagate phase of a run without capacitors: the rows of the walk over
    ``sequence`` (one per constant stretch and per ramp step) and the grid
    index where each starts.  ``still`` is worked out after each planned
    segment, the only place an EMF moves; while it holds, a stretch up to a
    boundary is its topology's held row."""
    topologies: Dict[Tuple[Tuple[bool, ...], bool], _Operators] = {}
    held: Dict[Tuple[bool, ...], np.ndarray] = {}  # each topology's row at the held EMFs
    rows, starts = [_topology(low, topologies, states).row(emf, 0.0)], [0]
    still, idx0 = emf.tobytes() == settled, 0
    for boundary, after, _ in sequence:
        while not still and idx0 < boundary:  # one segment per ramp knee before the boundary
            seg_end, target, slope = _plan_segment(low, controls, emf, idx0, boundary, h)
            steps, moving = seg_end - idx0, np.count_nonzero(slope)
            op, t = _topology(low, topologies, states), seg_end * h
            if moving and steps > 1:  # an ungated source ramps once: no inner row recurs
                inner = op.solve if any(s and src.control is None for s, src in zip(
                    slope.tolist(), low.sources)) else op.row
                rows.extend(inner(emf + i * (slope * h), t) for i in range(1, steps))
            rows.append(op.row(emf + steps * (slope * h) if moving else emf, t))
            starts.extend(range(idx0 + 1, seg_end + 1 if moving else idx0 + 2))
            if moving:  # else every source holds its target
                emf = _advance(emf, target, slope, steps, h)
            still, idx0 = emf.tobytes() == settled, seg_end
        if idx0 < boundary:  # one held row up to the boundary
            row = held.get(states)
            if row is None:
                row = held[states] = _topology(low, topologies, states).row(emf, boundary * h)
            rows.append(row)
            starts.append(idx0 + 1)
        idx0, states = boundary, after
    return rows, starts


def _package(low, settings, out, events) -> TransientResult:
    """Package phase: the result of a run."""
    if low.caps:
        (x, cap_i), starts = out, None
    else:
        x, starts = np.array(out[0]), np.array(out[1])
        cap_i = np.zeros((len(x), 0))
    return TransientResult(
        step=settings.step, labels=list(low.labels), index=dict(low.index),
        source_names=[s.name for s in low.sources], cap_names=[c.name for c in low.caps],
        x=x, cap_i=cap_i, n_samples=settings.n_steps + 1, starts=starts, events=events)


@np.errstate(over="ignore", invalid="ignore")  # every solution is checked finite
def run_transient(circuit: Circuit, settings: IntegrationSettings,
                  timelines: Optional[Mapping[str, SwitchTimeline]] = None) -> TransientResult:
    """Integrate the circuit over [0, stop] on a fixed grid.

    Each switch starts in its :meth:`~hvsim.circuit.Switch.initial_state` and
    changes at its driver-delayed :meth:`~hvsim.circuit.Switch.events`, unless
    ``timelines`` gives every switch its initial state and state changes.
    Change times are snapped to the grid, and two changes of one switch, or
    two command edges of one gated source, that snap to one grid index after
    t=0 raise :class:`~hvsim.circuit.ScheduleError` (the pulse between them
    would be lost), as does a control that a switch or a gated source reads
    and that commands more edges than the grid has points (checked by
    :meth:`~hvsim.circuit.Circuit.control_edges` on ``settings``; an unread
    control is not).
    Gated sources and slew-limit ramp knees introduce additional segment
    boundaries.  Every sample of every unknown is retained in the result:
    dense when the circuit has capacitors, run-length when it has none (see
    :class:`TransientResult`).  The module docstring names the four phases.
    """
    low = _lower(circuit)
    h, nc = settings.step, len(low.caps)
    states, sequence, events = _schedule(low, circuit, settings, timelines)
    for cap in low.caps:  # before any factorization: 2C/h is the larger companion
        if math.isinf(2.0 * float(cap.capacitance) / float(h)):
            raise CircuitError(f"{cap.name}: companion conductance 2C/h of capacitance "
                               f"{cap.capacitance!r} overflows at step {h!r}")
    controls = circuit.control_map

    # sample half a step in so a command edge snapped to index 0 (i.e.
    # landing within the first half-step) folds into the initial value,
    # matching the switch-event convention
    slewed = [src.slew is not None for src in low.sources]
    emf = np.where(slewed, 0.0, _targets(low, controls, 0.5 * h))
    # with no gated source, no source moves once each EMF holds its voltage, and
    # a segment runs unplanned to its boundary (bytes: a slewed -0.0 still plans)
    settled = (np.array([s.voltage for s in low.sources], dtype=float).tobytes()
               if all(s.control is None for s in low.sources) else None)
    if not nc:  # no state: each row holds from its start index up to the next one
        return _package(low, settings, _propagate_free(
            low, controls, sequence, states, emf, settled, h), events)

    topologies: Dict[Tuple[Tuple[bool, ...], bool], _Operators] = {}
    cap_c = np.array([cap.capacitance for cap in low.caps])
    g_trap, g_be = 2.0 * cap_c / h, cap_c / h
    vc = np.array([cap.initial_voltage for cap in low.caps])
    inc = _incidence(low, low.size, low.caps)
    x0, ic, determinate = _initial_solve(low, states, emf)
    # column-major, so each unknown's trace is contiguous
    out = tuple(np.zeros((rows, settings.n_steps + 1)).T for rows in (low.size, nc))
    out[0][0], out[1][0] = x0, ic
    # damped start only when loop currents were indeterminate at t=0; a
    # clean start keeps the trapezoidal charge identity exact from the first step
    pending_damp = 0 if determinate else settings.damping_steps
    zero, idx0, held = np.zeros(len(low.sources)), 0, None
    ends: List[int] = []  # every segment end, checked finite after the walk
    for boundary, after, restart in sequence:
        if idx0 < boundary:  # the operators of the segments up to the boundary
            try:
                trap = _topology(low, topologies, states, False, g_trap)
                be = _topology(low, topologies, states, True, g_be) if pending_damp else None
            except SimulationError:  # unless a segment before it diverged first
                _check_finite(out[0], ends, h)
                raise
        while idx0 < boundary:  # one segment per ramp knee before the boundary
            if held is None and emf.tobytes() == settled:  # no EMF moves from here on
                held = zero, emf + zero, 0  # d_emf, drive, ramp of every later segment
            if held is None:
                seg_end, target, slope = _plan_segment(low, controls, emf, idx0, boundary, h)
                d_emf = slope * h
                drive, ramp = emf + d_emf, np.count_nonzero(slope)
            else:
                seg_end, (d_emf, drive, ramp) = boundary, held
            steps = seg_end - idx0
            damp = min(pending_damp, steps)
            vc, ic = _propagate(trap, be, inc, out, vc, ic, emf, d_emf, drive, ramp,
                                idx0, seg_end, damp)
            ends.append(seg_end)
            pending_damp = max(0, pending_damp - steps)
            if ramp:  # else every source holds its target
                emf = _advance(emf, target, slope, steps, h)
            idx0 = seg_end
        states = after
        if restart:  # a switch changed or a source stepped
            pending_damp = settings.damping_steps
    _check_finite(out[0], ends, h)
    return _package(low, settings, out, events)
