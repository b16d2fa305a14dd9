"""Modified nodal analysis: DC operating point and fixed-step transient runs.

Unknowns are the non-ground node voltages plus one branch current per voltage
source.  Capacitors integrate with trapezoidal companion models; after every
switching event a configurable number of backward-Euler steps damp the
trapezoidal ringing that switch discontinuities excite.  The system matrix is
dense (node counts here stay small).

Between events the circuit is linear time-invariant, so each run factors the
matrix once per distinct (switch states, damped) pair and reuses it at every
later event with the same topology.  A trapezoidal stretch is a linear
recurrence in the companion-history currents and the source EMFs; it is
advanced a block of steps at a time from precomputed powers of its one-step
map, so no per-step solve remains (the per-topology state-space form of
piecewise-linear switched-circuit simulators).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .circuit import (
    Capacitor,
    Circuit,
    CircuitError,
    ConverterSource,
    Probe,
    Resistor,
    Switch,
    VoltageSource,
    is_ground,
)
from .waveform import Waveform


class SimulationError(RuntimeError):
    """Numerical failure: singular system or diverging solution."""


@dataclass(frozen=True)
class IntegrationSettings:
    """Fixed integration grid plus post-event damping depth."""

    step: float
    stop: float
    damping_steps: int = 2

    def __post_init__(self) -> None:
        if not self.step > 0:
            raise CircuitError(f"integration step must be > 0, got {self.step}")
        if not self.stop >= self.step:
            raise CircuitError(f"stop time must be >= step, got {self.stop}")
        if self.damping_steps < 0:
            raise CircuitError("damping steps must be >= 0")

    @property
    def n_steps(self) -> int:
        return int(round(self.stop / self.step))


#: (initial_state, [(time, state), ...]) for one switch
SwitchTimeline = Tuple[bool, Sequence[Tuple[float, bool]]]


@dataclass
class _ResEl:
    p: int
    n: int
    g: float


@dataclass
class _SwitchEl:
    p: int
    n: int
    g_on: float
    g_off: float
    name: str


@dataclass
class _CapEl:
    p: int
    n: int
    c: float
    ic: float
    name: str


@dataclass
class _SourceEl:
    p: int
    n: int
    name: str
    voltage: float
    slew: Optional[float]
    control: Optional[str]


@dataclass
class _Lowered:
    labels: List[str]
    index: Dict[str, int]  # label -> row; ground labels -> -1
    resistors: List[_ResEl]
    switches: List[_SwitchEl]
    caps: List[_CapEl]
    sources: List[_SourceEl]

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def size(self) -> int:
        return self.n_nodes + len(self.sources)


def _lower(circuit: Circuit) -> _Lowered:
    """Flatten composites and map node labels to matrix rows."""
    labels: List[str] = []
    index: Dict[str, int] = {}

    def row(label: str) -> int:
        if is_ground(label):
            return -1
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    low = _Lowered(labels, index, [], [], [], [])
    for comp in circuit.components:
        p, n = row(comp.pos), row(comp.neg)
        if isinstance(comp, Resistor):
            low.resistors.append(_ResEl(p, n, 1.0 / comp.resistance))
        elif isinstance(comp, Capacitor):
            low.caps.append(
                _CapEl(p, n, comp.effective_capacitance(), comp.initial_voltage, comp.name)
            )
        elif isinstance(comp, Switch):
            low.switches.append(
                _SwitchEl(p, n, 1.0 / comp.ron, 1.0 / comp.roff, comp.name)
            )
        elif isinstance(comp, VoltageSource):
            low.sources.append(
                _SourceEl(p, n, comp.name, comp.voltage, comp.slew, comp.control)
            )
        elif isinstance(comp, ConverterSource):
            e = row(f"{comp.name}__e")
            low.sources.append(
                _SourceEl(e, n, f"{comp.name}__emf", comp.open_circuit_voltage, None, None)
            )
            low.resistors.append(_ResEl(e, p, 1.0 / comp.internal_resistance))
            low.caps.append(
                _CapEl(
                    p,
                    n,
                    comp.parallel_capacitance,
                    comp.open_circuit_voltage if comp.precharged else 0.0,
                    f"{comp.name}__cpar",
                )
            )
        elif isinstance(comp, Probe):
            low.resistors.append(_ResEl(p, n, 1.0 / comp.input_resistance))
            low.caps.append(_CapEl(p, n, comp.input_capacitance, 0.0, f"{comp.name}__cin"))
        else:  # pragma: no cover - Component union is closed
            raise CircuitError(f"cannot lower component {comp!r}")
    return low


def _stamp_conductance(A: np.ndarray, p: int, n: int, g: float) -> None:
    if p >= 0:
        A[p, p] += g
    if n >= 0:
        A[n, n] += g
    if p >= 0 and n >= 0:
        A[p, n] -= g
        A[n, p] -= g


def _base_matrix(low: _Lowered, sw_states: Sequence[bool]) -> np.ndarray:
    size = low.size
    A = np.zeros((size, size))
    for r in low.resistors:
        _stamp_conductance(A, r.p, r.n, r.g)
    for sw, on in zip(low.switches, sw_states):
        _stamp_conductance(A, sw.p, sw.n, sw.g_on if on else sw.g_off)
    for j, src in enumerate(low.sources):
        k = low.n_nodes + j
        if src.p >= 0:
            A[src.p, k] += 1.0
            A[k, src.p] += 1.0
        if src.n >= 0:
            A[src.n, k] -= 1.0
            A[k, src.n] -= 1.0
    return A


def _factor(A: np.ndarray, low: _Lowered):
    lu = lu_factor(A, check_finite=False)
    diag = np.abs(np.diag(lu[0]))
    if diag.size and (not np.all(np.isfinite(diag)) or diag.min() == 0.0):
        k = int(np.argmin(np.where(np.isfinite(diag), diag, 0.0)))
        if k < low.n_nodes:
            culprit = f"node {low.labels[k]!r}"
        else:
            culprit = f"source {low.sources[k - low.n_nodes].name!r}"
        raise SimulationError(f"singular system while factoring (check {culprit})")
    return lu


#: Steps per block of a trapezoidal stretch; the power table holds F^0..F^_BLOCK.
_BLOCK = 256


def _powers(F: np.ndarray, count: int) -> np.ndarray:
    """``F^0 .. F^count`` stacked, built by repeated doubling."""
    P = np.empty((count + 1,) + F.shape)
    P[0] = np.eye(F.shape[0])
    P[1] = F
    k = 1  # P[0..k] are filled
    while k < count:
        span = min(k, count - k)
        P[k + 1 : k + 1 + span] = P[1 : 1 + span] @ P[k]
        k += span
    return P


@dataclass
class _Operators:
    """One factored topology and the operators derived from it on first use.

    ``N`` is the capacitor incidence (+1 at the + node row, -1 at the - node
    row) and ``S`` selects the source rows, so a step solves
    ``A x = N hist + S emf``.
    """

    lu: Tuple[np.ndarray, np.ndarray]
    g: np.ndarray  # companion conductance of each capacitor
    k: Optional[np.ndarray] = None  # A^-1 [N S]
    powers: Optional[np.ndarray] = None

    def response(self, inc: np.ndarray, m: int) -> np.ndarray:
        """``A^-1 [N S]``, so that ``x = A^-1 [N S] [hist; emf]``."""
        if self.k is None:
            size = inc.shape[0]
            cols = np.hstack([inc, np.eye(size)[:, size - m :]])
            # one column per solve: OpenBLAS threads a multi-column getrs,
            # and its idle workers then spin through the rest of the run
            self.k = np.column_stack(
                [lu_solve(self.lu, col, check_finite=False) for col in cols.T]
            )
        return self.k

    def step_powers(self, inc: np.ndarray, m: int) -> np.ndarray:
        """Powers of the trapezoidal one-step map ``F`` of ``z = [hist; emf; emf step]``.

        ``hist' = 2G Nᵀx - hist`` with ``x = A^-1 [N S] [hist; emf]``, and the
        EMF advances by its per-step increment.
        """
        if self.powers is None:
            nc = inc.shape[1]
            F = np.eye(nc + 2 * m)
            F[:nc, : nc + m] = 2.0 * self.g[:, None] * (inc.T @ self.response(inc, m))
            F[:nc, :nc] -= np.eye(nc)
            F[nc : nc + m, nc + m :] = np.eye(m)
            self.powers = _powers(F, _BLOCK)
        return self.powers


def dc_operating_point(
    circuit: Circuit, switch_states: Mapping[str, bool]
) -> Dict[str, float]:
    """Resistive steady-state node voltages with the given switch states.

    Capacitors are open circuits (converter output capacitance included);
    slew limits are ignored and gated sources take their t=0 command state.
    """
    circuit.validate()
    low = _lower(circuit)
    for sw in low.switches:
        if sw.name not in switch_states:
            raise SimulationError(f"no switch state given for {sw.name!r}")
    states = [bool(switch_states[sw.name]) for sw in low.switches]
    A = _base_matrix(low, states)
    b = np.zeros(low.size)
    controls = circuit.control_map
    for j, src in enumerate(low.sources):
        target = src.voltage
        if src.control is not None:
            target = src.voltage if controls[src.control].state_at(0.0) else 0.0
        b[low.n_nodes + j] = target
    lu = _factor(A, low)
    x = lu_solve(lu, b, check_finite=False)
    if not np.all(np.isfinite(x)):
        raise SimulationError("non-finite DC solution")
    out = {label: float(x[i]) for label, i in low.index.items()}
    out["0"] = 0.0
    return out


@dataclass
class TransientResult:
    """Dense transient solution: every unknown at every grid point."""

    step: float
    labels: List[str]
    index: Dict[str, int]
    source_names: List[str]
    cap_names: List[str]
    x: np.ndarray  # (n_samples, n_nodes + n_sources)
    cap_i: np.ndarray  # (n_samples, n_caps), current into the + terminal
    events: List[Tuple[float, str]] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    def _node_column(self, label: str) -> np.ndarray:
        if is_ground(label):
            return np.zeros(self.n_samples)
        if label not in self.index:
            raise KeyError(f"unknown node {label!r}")
        return self.x[:, self.index[label]]

    def voltage(self, label: str) -> Waveform:
        return Waveform(0.0, self.step, self._node_column(label).copy())

    def pair_voltage(self, pos: str, neg: str) -> Waveform:
        return Waveform(
            0.0, self.step, self._node_column(pos) - self._node_column(neg)
        )

    def source_current(self, name: str) -> Waveform:
        """Current delivered from the source's + terminal into the circuit."""
        j = self.source_names.index(name)
        return Waveform(0.0, self.step, -self.x[:, len(self.labels) + j])

    def cap_current(self, name: str) -> Waveform:
        j = self.cap_names.index(name)
        return Waveform(0.0, self.step, self.cap_i[:, j].copy())


def _snap(t: float, h: float) -> int:
    return int(round(t / h))


def _initial_solve(
    low: _Lowered, sw_states: Sequence[bool], emf0: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Consistent t=0 state with capacitors held at their initial voltages.

    Returns the initial unknown vector, the capacitor branch currents, and
    whether the current split was indeterminate (capacitor loops).
    """
    n, m, c = low.n_nodes, len(low.sources), len(low.caps)
    size = n + m + c
    A = np.zeros((size, size))
    A[: n + m, : n + m] = _base_matrix(low, sw_states)
    for j, cap in enumerate(low.caps):
        k = n + m + j
        if cap.p >= 0:
            A[cap.p, k] += 1.0
            A[k, cap.p] += 1.0
        if cap.n >= 0:
            A[cap.n, k] -= 1.0
            A[k, cap.n] -= 1.0
    b = np.zeros(size)
    for j in range(m):
        b[n + j] = emf0[j]
    for j, cap in enumerate(low.caps):
        b[n + m + j] = cap.ic
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu = lu_factor(A, check_finite=False)
    diag = np.abs(np.diag(lu[0]))
    indeterminate = False
    if diag.size and np.all(np.isfinite(diag)) and diag.min() > 0.0:
        x = lu_solve(lu, b, check_finite=False)
    else:
        # capacitor loops make the t=0 branch-current split indeterminate;
        # take the minimum-norm solution (the damped first steps erase any
        # loop-current ambiguity) and reject truly inconsistent pre-charges
        indeterminate = True
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
    return x[: n + m], x[n + m :], indeterminate


def run_transient(
    circuit: Circuit,
    settings: IntegrationSettings,
    switch_timelines: Mapping[str, SwitchTimeline],
) -> TransientResult:
    """Integrate the circuit over [0, stop] on a fixed grid.

    ``switch_timelines`` gives each switch its initial state and scheduled
    state changes; change times are snapped to the grid.  Gated sources and
    slew-limit ramp knees introduce additional segment boundaries.  Every
    sample of every unknown is retained in the result.
    """
    circuit.validate()
    low = _lower(circuit)
    h = settings.step
    n_steps = settings.n_steps
    n, m, nc = low.n_nodes, len(low.sources), len(low.caps)
    controls = circuit.control_map

    # per-switch state arrays keyed by grid index
    timeline_by_name = dict(switch_timelines)
    sw_states: List[bool] = []
    sw_events: Dict[int, List[Tuple[int, bool]]] = {}
    for si, sw in enumerate(low.switches):
        if sw.name not in timeline_by_name:
            raise SimulationError(f"no timeline given for switch {sw.name!r}")
        initial, events = timeline_by_name[sw.name]
        state = bool(initial)
        for t_e, new_state in events:
            idx = _snap(t_e, h)
            if idx <= 0:
                state = bool(new_state)
            elif idx <= n_steps:
                sw_events.setdefault(idx, []).append((si, bool(new_state)))
        sw_states.append(state)

    # gated-source command edges are events too (value steps excite caps)
    src_events: Dict[int, bool] = {}
    for src in low.sources:
        if src.control is None:
            continue
        for t_e, _state in controls[src.control].edges(settings.stop):
            idx = _snap(t_e, h)
            if 0 < idx <= n_steps:
                src_events[idx] = True

    boundaries = sorted(set(sw_events) | set(src_events) | {n_steps})

    # source EMF values at the current segment start
    emf = np.zeros(m)
    target = np.zeros(m)

    def src_target(j: int, t: float) -> float:
        src = low.sources[j]
        if src.control is None:
            return src.voltage
        return src.voltage if controls[src.control].state_at(t) else 0.0

    for j, src in enumerate(low.sources):
        # sample half a step in so a command edge snapped to index 0 (i.e.
        # landing within the first half-step) folds into the initial value,
        # matching the switch-event convention
        target[j] = src_target(j, 0.5 * h)
        emf[j] = 0.0 if src.slew is not None else target[j]

    x_hist = np.zeros((n_steps + 1, n + m))
    cap_i_hist = np.zeros((n_steps + 1, nc))
    events_log: List[Tuple[float, str]] = []

    x0, ic0, indeterminate = _initial_solve(low, sw_states, emf)
    x_hist[0] = x0
    cap_i_hist[0] = ic0

    cap_p = np.array([cap.p for cap in low.caps], dtype=int)
    cap_n = np.array([cap.n for cap in low.caps], dtype=int)
    cap_c = np.array([cap.c for cap in low.caps])
    vc = np.array([cap.ic for cap in low.caps])
    ic = ic0.copy()
    src_rows = n + np.arange(m)
    inc = np.zeros((n + m, nc))
    for j, cap in enumerate(low.caps):
        if cap.p >= 0:
            inc[cap.p, j] = 1.0
        if cap.n >= 0:
            inc[cap.n, j] = -1.0

    g_tr = 2.0 * cap_c / h if nc else np.zeros(0)
    g_be = cap_c / h if nc else np.zeros(0)

    topologies: Dict[Tuple[Tuple[bool, ...], bool], _Operators] = {}

    def operators(damped: bool) -> _Operators:
        key = (tuple(sw_states), damped)
        if key not in topologies:
            g = g_be if damped else g_tr
            A = _base_matrix(low, sw_states)
            for j in range(nc):
                _stamp_conductance(A, cap_p[j], cap_n[j], g[j])
            topologies[key] = _Operators(_factor(A, low), g)
        return topologies[key]

    idx0 = 0
    # damped start only when loop currents were indeterminate at t=0; a clean
    # start keeps the trapezoidal charge identity exact from the first step
    pending_damp = settings.damping_steps if indeterminate else 0
    while idx0 < n_steps:
        # next boundary from switch/source events
        next_boundary = next(bb for bb in boundaries if bb > idx0)

        # EMF trajectory for this segment: constant or a slew-limited ramp.
        # Targets are sampled half a step in, past any snapped command edge.
        seg_t0 = idx0 * h
        slope = np.zeros(m)
        knee_idx = next_boundary
        for j, src in enumerate(low.sources):
            tgt = src_target(j, seg_t0 + 0.5 * h)
            target[j] = tgt
            if src.slew is None or emf[j] == tgt:
                emf[j] = tgt
                continue
            duration = abs(tgt - emf[j]) / src.slew
            k_end = idx0 + max(1, int(math.ceil(duration / h - 1e-9)))
            knee_idx = min(knee_idx, k_end)
        seg_end = min(next_boundary, knee_idx)
        for j, src in enumerate(low.sources):
            if src.slew is not None and emf[j] != target[j]:
                duration = abs(target[j] - emf[j]) / src.slew
                k_end = idx0 + max(1, int(math.ceil(duration / h - 1e-9)))
                if k_end <= seg_end:
                    # ramp ends inside this segment: hit the target exactly
                    slope[j] = (target[j] - emf[j]) / ((k_end - idx0) * h)
                else:
                    slope[j] = math.copysign(src.slew, target[j] - emf[j])

        nsteps_seg = seg_end - idx0
        has_ramp = bool(np.any(slope != 0.0))

        trap = operators(False)
        damp_here = min(pending_damp, nsteps_seg) if nc else 0

        if nc == 0 and not has_ramp:
            # purely resistive, constant drive: the segment is one solve
            b_const = np.zeros(n + m)
            b_const[src_rows] = emf
            x = lu_solve(trap.lu, b_const, check_finite=False)
            x_hist[idx0 + 1 : seg_end + 1] = x
        else:
            # the EMF at step k is emf + (k - idx0) * d_emf
            d_emf = slope * h
            if damp_here:
                be = operators(True)
                k_be = be.response(inc, m)
                for k in range(idx0 + 1, idx0 + 1 + damp_here):
                    hist = be.g * vc
                    x = k_be @ np.concatenate([hist, emf + (k - idx0) * d_emf])
                    x_hist[k] = x
                    vc = x @ inc
                    ic = be.g * vc - hist
                    cap_i_hist[k] = ic
            k = idx0 + 1 + damp_here
            if k <= seg_end:
                P = trap.step_powers(inc, m)
                k_tr = trap.response(inc, m)
                z = np.concatenate([trap.g * vc + ic, emf + (k - idx0) * d_emf, d_emf])
                while k <= seg_end:
                    # row i of Z is the state [hist; emf; emf step] before step k + i
                    L = min(_BLOCK, seg_end + 1 - k)
                    Z = (P[:L].reshape(-1, z.size) @ z).reshape(L, z.size)
                    X = Z[:, : nc + m] @ k_tr.T
                    x_hist[k : k + L] = X
                    cap_i_hist[k : k + L] = trap.g * (X @ inc) - Z[:, :nc]
                    z = P[L] @ z
                    k += L
                vc = x_hist[seg_end] @ inc
                ic = cap_i_hist[seg_end]

        if not np.all(np.isfinite(x_hist[seg_end])):
            raise SimulationError(f"solution diverged at t={seg_end * h!r}")

        pending_damp = max(0, pending_damp - nsteps_seg)
        emf = emf + slope * (nsteps_seg * h)
        np.copyto(emf, target, where=(slope != 0.0) & (np.abs(emf - target) < 1e-9 * np.maximum(1.0, np.abs(target))))
        idx0 = seg_end

        if idx0 in sw_events:
            changed = False
            for si, new_state in sw_events[idx0]:
                if sw_states[si] != new_state:
                    sw_states[si] = new_state
                    changed = True
                    events_log.append((idx0 * h, low.switches[si].name))
            if changed:
                pending_damp = settings.damping_steps
        if idx0 in src_events:
            events_log.append((idx0 * h, "source"))
            pending_damp = settings.damping_steps

    return TransientResult(
        step=h,
        labels=low.labels,
        index=dict(low.index),
        source_names=[s.name for s in low.sources],
        cap_names=[c.name for c in low.caps],
        x=x_hist,
        cap_i=cap_i_hist,
        events=events_log,
    )
