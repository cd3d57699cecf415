"""Inner Newton-Raphson loop with variable, voltage and Q limiting.

Each call takes one parameter set already bound to the companion layout
(``solve()`` lays the layout out once and binds each parameter set once).
Each pass of the one loop assembles the system at the current iterate and
measures the true nonlinear residual (``A x_k - b`` is exact for companion
stamps). A converged iterate returns before any factorization; otherwise
the pass solves for the raw next iterate and then applies the safeguards:

* voltage limiting caps every ``V_R``/``V_I`` step at ``dv_max`` and clamps
  the result into ``[v_min, v_max]``;
* variable limiting damps only the PV-source voltage derivatives through the
  factor ``zeta``, which shrinks on large raw steps and recovers after two
  consecutive monotone improvements;
* Q limiting caps the change of the source current implied by the reactive
  power step of every free Q-slot lane (pinned lanes keep their pin) and
  maps the capped current back to Q, in one array pass over the lanes. Under
  the default infinite cap (``di_max = inf``) it can limit nothing, so the
  pass skips it and every Q takes the raw solve.

A variable counts as limited when its step was capped or its result
clamped, or when Q limiting moved its Q.

The last iterate of the ``max_iter`` budget is measured in one more pass,
at the current ``zeta``. Convergence is declared on the maximum nonlinear
current mismatch over all non-slack KCL rows together with every
control-constraint residual; :func:`check_convergence` splits that same
measurement into its two parts.

The damping constants (``ZETA_INIT``, ``ZETA_SHRINK``, ``ZETA_GROWTH``,
``LARGE_STEP``) are fixed; only the floor ``zeta_min`` is an option.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .indexing import StateVector
from .linsys import SparseSystem
from .network import PHASE_OFFSETS
from .stamps import (
    BoundCompanion,
    Companion,
    GenModes,
    ZeroVoltageIterate,
    assemble_system,
    invert_pv_current,
    pv_current,
)

__all__ = [
    "NrOptions",
    "NrTraceRow",
    "apply_voltage_limiting",
    "update_zeta",
    "apply_q_limiting",
    "check_convergence",
    "run_newton",
    "trace_to_csv",
]


# the generator damping of update_zeta; every call starts at ZETA_INIT
ZETA_INIT = 1.0
ZETA_SHRINK = 0.5
ZETA_GROWTH = 2.0
LARGE_STEP = 0.5


@dataclass
class NrOptions:
    """Tolerances, iteration budget and limiting bounds."""

    tol: float = 1e-6
    max_iter: int = 100
    dv_max: float = 0.1
    v_min: float = -2.0
    v_max: float = 2.0
    zeta_min: float = 0.05
    di_max: float = math.inf  # Q-limiting current cap per step

    def __post_init__(self):
        if not (0.0 < self.zeta_min <= ZETA_INIT):
            raise ValueError("need 0 < zeta_min <= 1")
        if not self.dv_max > 0:
            raise ValueError("dv_max must be positive")
        if not self.v_min < self.v_max:
            raise ValueError("v_min must be below v_max")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
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


def trace_to_csv(trace: list[NrTraceRow]) -> str:
    lines = ["iteration,residual,max_dv,zeta,limited"]
    for row in trace:
        lines.append(
            f"{row.iteration},{row.residual!r},{row.max_dv!r},{row.zeta!r},{row.limited}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Limiting primitives


def apply_voltage_limiting(v_k: np.ndarray, dv: np.ndarray, options: NrOptions) -> np.ndarray:
    """Componentwise capped and clamped voltage update."""
    step = np.sign(dv) * np.minimum(np.abs(dv), options.dv_max)
    # np.clip without its wrapper: the bound goes first, so a value equal to
    # a bound keeps its own bits (its sign, for a zero bound), as np.clip does
    return np.minimum(options.v_max, np.maximum(options.v_min, v_k + step))


def update_zeta(trace: list[NrTraceRow], zeta: float, options: NrOptions) -> float:
    """Damping heuristic driven by the raw step-size history."""
    if not trace:
        return zeta
    if trace[-1].max_dv > LARGE_STEP:
        return max(zeta * ZETA_SHRINK, options.zeta_min)
    if (
        len(trace) >= 3
        and trace[-1].max_dv < trace[-2].max_dv < trace[-3].max_dv
    ):
        return min(zeta * ZETA_GROWTH, 1.0)
    return zeta


def apply_q_limiting(
    p: np.ndarray, q_k: np.ndarray, q_raw: np.ndarray, vr: np.ndarray, vi: np.ndarray,
    di_max: float,
) -> np.ndarray:
    """Cap the source-current change implied by each lane's Q step, invert
    back to Q. Arrays over lanes; a lane at zero voltage or within the cap
    keeps its raw Q."""
    live = (vr != 0.0) | (vi != 0.0)
    if not live.all():
        vr = np.where(live, vr, 1.0)  # a unit voltage keeps the dead lanes finite
    ir_k, ii_k = pv_current(p, q_k, vr, vi)
    ir_n, ii_n = pv_current(p, q_raw, vr, vi)
    d_ir = ir_n - ir_k
    d_ii = ii_n - ii_k
    a_ir, a_ii = np.abs(d_ir), np.abs(d_ii)
    within = (a_ir <= di_max) & (a_ii <= di_max)
    # fmin, like min(a, di_max), ignores a NaN cap
    ir_lim = ir_k + np.copysign(np.fmin(a_ir, di_max), d_ir)
    ii_lim = ii_k + np.copysign(np.fmin(a_ii, di_max), d_ii)
    _, q_lim = invert_pv_current(ir_lim, ii_lim, vr, vi)
    return np.where(live & ~within, q_lim, q_raw)


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
    nv = 2 * layout.index.nbus * layout.index.nphase
    f = system.matrix @ state.x - system.rhs
    return _max_abs(f[:nv], layout.kcl_mask[:nv]), _max_abs(f[nv:], layout.kcl_mask[nv:])


# ---------------------------------------------------------------------------
# The Newton loop


def _reinit_voltage(state: StateVector, bus: int, ph: int) -> None:
    index = state.index
    v = np.exp(1j * PHASE_OFFSETS[index.domain][ph])
    state.set_voltage(index.bus_index[bus], ph, v)


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
    only measures, at the current ``zeta``. Raises :class:`SingularityError`
    when the system at an unconverged iterate cannot be solved.

    ``trace`` accumulates one row per step taken; ``system`` may be shared
    across calls to reuse the assembly pattern. On return it holds the
    assembly ``residual`` was measured on, which :func:`check_convergence`
    splits.
    """
    c = bound.layout
    base = len(trace)
    nv = 2 * c.index.nbus * c.index.nphase
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
        f = system.matrix @ current.x - rhs
        residual = float(np.abs(f[kcl]).max()) if kcl.size else 0.0
        if residual < options.tol:
            return current, True, k, residual
        if k == options.max_iter:
            break

        x_raw = system.factor_solve()
        v_k = current.x[:nv]
        dv = x_raw[:nv] - v_k
        abs_dv = np.abs(dv)
        max_dv = float(abs_dv.max()) if nv else 0.0
        # auxiliary slack currents and Q slots take the raw solve
        new = StateVector(x_raw.copy(), current.index)
        new.x[:nv] = apply_voltage_limiting(v_k, dv, options)
        # the limiter's decisions, not the round-off of v_k + (x_raw - v_k)
        reach = v_k + dv
        limited = int(np.count_nonzero(
            (abs_dv > options.dv_max) | (reach < options.v_min) | (reach > options.v_max)
        ))
        # Q limiting on the free Q-slot lanes; an infinite cap limits nothing
        if options.di_max != math.inf and not modes.pinned.all():
            free = ~modes.pinned
            lanes, qi = c.slot_lanes[free], c.q_idx[free]
            v = current.x[:nv].view(complex)[c.lane_v[lanes]]
            q_raw = x_raw[qi]
            q_lim = apply_q_limiting(
                bound.gen_p[lanes], current.x[qi], q_raw, v.real, v.imag, options.di_max
            )
            limited += int(np.count_nonzero(q_lim != q_raw))
            new.x[qi] = q_lim

        trace.append(NrTraceRow(k, residual, max_dv, zeta, limited))
        current = new
        # update_zeta reads at most the last three rows of this call
        zeta = update_zeta(trace[max(base, len(trace) - 3):], zeta, options)
    return current, False, options.max_iter, residual
