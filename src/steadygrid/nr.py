"""Inner Newton-Raphson loop with variable, voltage and Q limiting.

Each call takes one parameter set already bound to the companion layout
(``solve()`` lays the layout out once; a parameter set is bound when a
Newton call first needs it, and a continuation step's bind reuses what its
step left unchanged).
Each pass of the one loop assembles the system at the current iterate and
measures the true nonlinear residual (``A x_k - b`` is exact for companion
stamps). A converged iterate returns before any factorization; otherwise
the pass solves for the raw next iterate and then applies the safeguards:

* voltage limiting caps every ``V_R``/``V_I`` step at ``DV_MAX`` (0.1 pu) and
  clamps the result into ``[V_MIN, V_MAX]`` (-2 to 2 pu);
* variable limiting damps only the PV-source voltage derivatives through the
  factor ``zeta``, which shrinks on large raw steps, down to ``ZETA_MIN``,
  and recovers after two consecutive monotone improvements;
* Q limiting caps the change of the source current implied by the reactive
  power step of every free Q-slot lane (pinned lanes keep their pin): a
  constant-P source's current moves by ``-j dQ v / |v|^2`` whatever P is, so
  the capped Q follows in closed form, in one array pass over the lanes.
  Under the default infinite cap (``di_max = inf``) it can limit nothing, so
  the pass skips it and every Q takes the raw solve.

A variable counts as limited when its step was capped or its result
clamped (:func:`apply_voltage_limiting` counts these), or when Q limiting
moved its Q.

The last iterate of the ``max_iter`` budget is measured in one more pass,
at the current ``zeta``. Convergence is declared on the maximum nonlinear
current mismatch over all non-slack KCL rows together with every
control-constraint residual; :func:`check_convergence` splits that same
measurement into its two parts.

The safeguards are fixed: the damping constants (``ZETA_INIT``,
``ZETA_MIN``, ``ZETA_SHRINK``, ``ZETA_GROWTH``, ``LARGE_STEP``), the step
cap ``DV_MAX`` and the clamp (``V_MIN``, ``V_MAX``). Of the limiting, only
the Q cap ``di_max`` is an option.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .indexing import StateVector
from .linsys import SingularityError, SparseSystem
from .network import PHASE_OFFSETS
from .stamps import BoundCompanion, Companion, GenModes, ZeroVoltageIterate, assemble_system

__all__ = [
    "NrOptions",
    "NrTraceRow",
    "apply_voltage_limiting",
    "update_zeta",
    "apply_q_limiting",
    "check_convergence",
    "run_newton",
]


# the generator damping of update_zeta; every call starts at ZETA_INIT
ZETA_INIT = 1.0
ZETA_MIN = 0.05
ZETA_SHRINK = 0.5
ZETA_GROWTH = 2.0
LARGE_STEP = 0.5

# the cap of every V_R/V_I step and the clamp of its result, pu
DV_MAX = 0.1
V_MIN = -2.0
V_MAX = 2.0


@dataclass
class NrOptions:
    """Tolerance, iteration budget and Q-limiting cap."""

    tol: float = 1e-6
    max_iter: int = 100
    di_max: float = math.inf  # Q-limiting current cap per step

    def __post_init__(self):
        if not 0 < self.tol < math.inf:  # also rejects nan
            raise ValueError("tol must be finite and positive")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 0:
            raise ValueError("max_iter must be an integer >= 0")
        if not self.di_max > 0:  # also rejects nan
            raise ValueError("di_max must be positive")


@dataclass
class NrTraceRow:
    iteration: int
    residual: float
    max_dv: float  # raw Newton step, before limiting
    zeta: float
    limited: int  # variables whose step was capped, clamped or Q limited


# ---------------------------------------------------------------------------
# Limiting primitives


def apply_voltage_limiting(v_k: np.ndarray, dv: np.ndarray) -> tuple[np.ndarray, int]:
    """Componentwise capped and clamped voltage update, and the number of
    components whose step was capped or whose result was clamped."""
    a = np.abs(dv)
    reach = v_k + np.sign(dv) * np.minimum(a, DV_MAX)
    limited = np.count_nonzero((a > DV_MAX) | (reach < V_MIN) | (reach > V_MAX))
    # np.clip without its wrapper: the bound goes first, so a value equal to
    # a bound keeps its own bits (its sign, for a zero bound), as np.clip does
    return np.minimum(V_MAX, np.maximum(V_MIN, reach)), int(limited)


def update_zeta(trace: list[NrTraceRow], zeta: float) -> float:
    """Damping heuristic driven by the raw step-size history."""
    if not trace:
        return zeta
    if trace[-1].max_dv > LARGE_STEP:
        return max(zeta * ZETA_SHRINK, ZETA_MIN)
    if (
        len(trace) >= 3
        and trace[-1].max_dv < trace[-2].max_dv < trace[-3].max_dv
    ):
        return min(zeta * ZETA_GROWTH, 1.0)
    return zeta


def apply_q_limiting(
    q_k: np.ndarray, q_raw: np.ndarray, v: np.ndarray, di_max: float
) -> np.ndarray:
    """Each lane's Q after its step ``q_raw - q_k`` at the complex voltage
    ``v`` moves the source current by at most ``di_max`` per component.

    The current moves by ``(dQ Im v, -dQ Re v) / |v|^2``; a lane within the
    cap keeps ``q_raw``, and a capped lane takes ``q_k`` plus the Q of the
    capped change. Arrays over lanes, none at zero voltage: an iterate with
    a generator lane at zero never reaches a pass's factorization
    (:func:`run_newton` re-initializes that node first).
    """
    dq = q_raw - q_k
    d = v.real * v.real + v.imag * v.imag
    di = dq * (np.array([v.imag, -v.real]) / d)  # the current change, (re, im) rows
    a = np.abs(di)
    # fmin, like min(a, di_max), ignores a NaN cap
    c = np.copysign(np.fmin(a, di_max), di)
    return np.where((a <= di_max).all(axis=0), q_raw, q_k + c[0] * v.imag - c[1] * v.real)


# ---------------------------------------------------------------------------
# Residual evaluation


def _max_abs(f: np.ndarray, mask: np.ndarray) -> float:
    """Largest ``|f|`` over the selected rows, 0 when none is selected."""
    return float(np.abs(f[mask]).max()) if mask.any() else 0.0


def check_convergence(
    layout: Companion, system: SparseSystem, state: StateVector
) -> tuple[float, float]:
    """``(max_kcl, max_constraint)``: the residual ``A x - b`` of the
    assembly in ``system`` at ``state``, split into the non-slack KCL rows
    and the auxiliary (constraint) rows of ``layout``.

    Called on the ``system`` that :func:`run_newton` last assembled and the
    ``state`` it returned, this is the measurement that pass compared with
    ``tol``: its maximum is that residual, bit for bit. It stamps nothing,
    so the residual is the one taken at the pass's damping ``zeta`` (1 unless
    limiting shrank it), not re-measured undamped.
    """
    nv = layout.index.nv
    f = system.residual(state.x)
    return _max_abs(f[:nv], layout.kcl_mask[:nv]), _max_abs(f[nv:], layout.kcl_mask[nv:])


# ---------------------------------------------------------------------------
# The Newton loop


def _reinit_voltage(state: StateVector, bus: int, ph: int) -> None:
    index = state.index
    state.v[ph, index.bus_index[bus]] = np.exp(1j * PHASE_OFFSETS[index.domain][ph])


def run_newton(
    bound: BoundCompanion,
    state: StateVector,
    options: NrOptions,
    modes: GenModes,
    system: SparseSystem,
    trace: list[NrTraceRow],
):
    """Iterate to convergence. Returns ``(state, converged, iterations,
    residual)``, where ``residual`` was measured at the returned iterate.

    Each pass assembles the system at the iterate (re-initializing one
    zero-voltage node per attempt) and measures ``max |A x - b|`` over the
    KCL rows. An iterate within ``tol`` returns at once, before any
    factorization; otherwise the pass factors, applies voltage and then Q
    limiting and appends one trace row. The pass after ``max_iter`` steps
    only measures, at the current ``zeta``. A system that cannot be solved
    (:class:`SingularityError`) ends the call as an exhausted budget does:
    unconverged, at that pass's iterate and residual, with one iteration per
    trace row appended.

    ``trace`` accumulates one row per step taken; ``system`` may be shared
    across calls to reuse the assembly pattern. On return it holds the
    assembly ``residual`` was measured on, which :func:`check_convergence`
    splits.
    """
    c = bound.layout
    base = len(trace)
    nv = c.index.nv
    kcl = np.flatnonzero(c.kcl_mask)
    # one node re-initialized per attempt; each generator or ZIP lane needs
    # at most one, so an arbitrary start (all zeros included) gets through
    reinits = c.lane_v.size
    zeta = ZETA_INIT
    current = state.copy()
    for k in range(options.max_iter + 1):
        for attempt in range(reinits + 1):
            try:
                data, rhs = assemble_system(bound, current, zeta, modes)
                break
            except ZeroVoltageIterate as zvi:
                if attempt == reinits:
                    raise
                _reinit_voltage(current, zvi.bus, zvi.phase)
        system.assemble(c.pattern, data, rhs)
        f = system.residual(current.x)
        residual = float(np.abs(f[kcl]).max()) if kcl.size else 0.0
        if residual < options.tol:
            return current, True, k, residual
        if k == options.max_iter:
            break

        try:
            x_raw = system.factor_solve()
        except SingularityError:
            return current, False, k, residual
        v_k = current.x[:nv]
        dv = x_raw[:nv] - v_k
        max_dv = float(np.abs(dv).max()) if nv else 0.0
        # auxiliary slack currents and Q slots take the raw solve, a new array
        new = StateVector(x_raw, current.index)
        new.x[:nv], limited = apply_voltage_limiting(v_k, dv)
        # Q limiting on the free Q-slot lanes; an infinite cap limits nothing
        if options.di_max != math.inf and not modes.pinned.all():
            free = ~modes.pinned
            qi = c.index.q_rows[free]
            v = current.x[:nv].view(complex)[c.lane_v[c.slot_lanes[free]]]
            q_raw = x_raw[qi]
            q_lim = apply_q_limiting(current.x[qi], q_raw, v, options.di_max)
            limited += int(np.count_nonzero(q_lim != q_raw))
            new.x[qi] = q_lim

        trace.append(NrTraceRow(k, residual, max_dv, zeta, limited))
        current = new
        # update_zeta reads at most the last three rows of this call
        zeta = update_zeta(trace[max(base, len(trace) - 3):], zeta)
    return current, False, options.max_iter, residual
