"""Inner Newton-Raphson loop with variable, voltage and Q limiting.

Each iteration stamps the companion system at the current iterate, measures
the true nonlinear residual (``A x_k - b`` is exact for companion stamps),
solves for the raw next iterate and then applies the safeguards:

* voltage limiting caps every ``V_R``/``V_I`` step at ``dv_max`` and clamps
  the result into ``[v_min, v_max]``;
* variable limiting damps only the PV-source voltage derivatives through the
  factor ``zeta``, which shrinks on large raw steps and recovers after two
  consecutive monotone improvements;
* Q limiting caps the change of the source current implied by a reactive
  power step and maps the capped current back to Q.

Convergence is declared on the maximum nonlinear current mismatch over all
non-slack KCL rows together with every control-constraint residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .indexing import IndexMap, StateVector
from .linsys import SparseSystem
from .network import Network, PHASE_OFFSETS
from .stamps import (
    Companion,
    DeviceParams,
    GenModes,
    GEN_PINNED,
    ZeroVoltageIterate,
    assemble_system,
    build_companion,
    effective_params,
    invert_pv_current,
    pv_current,
)

__all__ = [
    "NrOptions",
    "NrTraceRow",
    "ResidualReport",
    "apply_voltage_limiting",
    "update_zeta",
    "apply_q_limiting",
    "check_convergence",
    "run_newton",
    "trace_to_csv",
]


@dataclass
class NrOptions:
    """Tolerances, iteration budget and limiting constants."""

    tol: float = 1e-6
    max_iter: int = 100
    dv_max: float = 0.1
    v_min: float = -2.0
    v_max: float = 2.0
    zeta_init: float = 1.0
    zeta_min: float = 0.05
    zeta_shrink: float = 0.5
    zeta_growth: float = 2.0
    large_step: float = 0.5
    di_max: float = math.inf  # Q-limiting current cap per step

    def __post_init__(self):
        if not (0.0 < self.zeta_min <= self.zeta_init <= 1.0):
            raise ValueError("need 0 < zeta_min <= zeta_init <= 1")
        if not self.dv_max > 0:
            raise ValueError("dv_max must be positive")
        if not self.v_min < self.v_max:
            raise ValueError("v_min must be below v_max")


@dataclass
class NrTraceRow:
    iteration: int
    residual: float
    max_dv: float  # raw Newton step, before limiting
    zeta: float
    limited: int  # number of clamped variables this step


@dataclass
class ResidualReport:
    converged: bool
    residual: float
    max_kcl: float
    max_constraint: float


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
    return np.clip(v_k + step, options.v_min, options.v_max)


def update_zeta(trace: list[NrTraceRow], zeta: float, options: NrOptions) -> float:
    """Damping heuristic driven by the raw step-size history."""
    if not trace:
        return zeta
    if trace[-1].max_dv > options.large_step:
        return max(zeta * options.zeta_shrink, options.zeta_min)
    if (
        len(trace) >= 3
        and trace[-1].max_dv < trace[-2].max_dv < trace[-3].max_dv
    ):
        return min(zeta * options.zeta_growth, 1.0)
    return zeta


def apply_q_limiting(
    p: float, q_k: float, q_raw: float, vr: float, vi: float, di_max: float
) -> float:
    """Cap the source-current change implied by a Q step, invert back to Q."""
    if vr == 0.0 and vi == 0.0:
        return q_raw
    ir_k, ii_k = pv_current(p, q_k, vr, vi)
    ir_n, ii_n = pv_current(p, q_raw, vr, vi)
    d_ir = ir_n - ir_k
    d_ii = ii_n - ii_k
    if abs(d_ir) <= di_max and abs(d_ii) <= di_max:
        return q_raw
    ir_lim = ir_k + math.copysign(min(abs(d_ir), di_max), d_ir)
    ii_lim = ii_k + math.copysign(min(abs(d_ii), di_max), d_ii)
    _, q_lim = invert_pv_current(ir_lim, ii_lim, vr, vi)
    return q_lim


# ---------------------------------------------------------------------------
# Residual evaluation


def _kcl_mask(index: IndexMap) -> np.ndarray:
    """Rows whose residual counts for convergence: everything except the
    KCL rows of slack buses (their mismatch is absorbed by the source)."""
    mask = np.ones(index.dim, dtype=bool)
    vr, vi = index.voltage_indices()
    slack = list(index.slack_positions)
    mask[vr[:, slack]] = False
    mask[vi[:, slack]] = False
    return mask


def _constraint_mask(index: IndexMap) -> np.ndarray:
    mask = np.zeros(index.dim, dtype=bool)
    mask[2 * index.nbus * index.nphase :] = True
    return mask


def residual_vector(
    companion: Companion,
    state: StateVector,
    modes: GenModes | None = None,
    system: SparseSystem | None = None,
) -> np.ndarray:
    """Exact nonlinear residual F(x) via the companion identity A x - b."""
    parts = assemble_system(companion, state, 1.0, modes)
    if system is None:
        system = SparseSystem(companion.index.dim)
    system.assemble(*parts)
    return system.matrix @ state.x - system.rhs


def check_convergence(
    network: Network,
    state: StateVector,
    tol: float,
    modes: GenModes | None = None,
    params: DeviceParams | None = None,
) -> ResidualReport:
    """Nonlinear mismatch test on the (untransformed) network equations."""
    index = state.index
    if params is None:
        params = effective_params(network)
    f = residual_vector(build_companion(network, params, index), state, modes)
    kcl = _kcl_mask(index) & ~_constraint_mask(index)
    con = _constraint_mask(index)
    max_kcl = float(np.max(np.abs(f[kcl]))) if kcl.any() else 0.0
    max_con = float(np.max(np.abs(f[con]))) if con.any() else 0.0
    res = max(max_kcl, max_con)
    return ResidualReport(res < tol, res, max_kcl, max_con)


# ---------------------------------------------------------------------------
# The Newton loop


def _reinit_voltage(state: StateVector, network: Network, bus: int, ph: int) -> None:
    offsets = PHASE_OFFSETS[network.domain]
    pos = network.bus_index[bus]
    v = np.exp(1j * offsets[ph])
    state.set_voltage(pos, ph, v)


def nr_iterate(
    companion: Companion,
    mask: np.ndarray,
    state: StateVector,
    options: NrOptions,
    zeta: float,
    modes: GenModes,
    system: SparseSystem,
    iteration: int,
):
    """One stamp-assemble-solve-limit cycle; ``mask`` selects the KCL rows
    whose mismatch counts.

    Returns ``(next_state, trace_row, residual_before_step)``. Raises
    :class:`SingularityError` when the linearized system cannot be solved.
    """
    index = companion.index
    for attempt in range(4):
        try:
            parts = assemble_system(companion, state, zeta, modes)
            break
        except ZeroVoltageIterate as zvi:
            if attempt == 3:
                raise
            _reinit_voltage(state, companion.network, zvi.bus, zvi.phase)
    system.assemble(*parts)
    f = system.matrix @ state.x - system.rhs
    residual = float(np.max(np.abs(f[mask]))) if mask.any() else 0.0

    x_raw = system.factor_solve()
    dx = x_raw - state.x

    nv = 2 * index.nbus * index.nphase
    dv = dx[:nv]
    max_dv = float(np.max(np.abs(dv))) if nv else 0.0

    new = state.copy()
    limited = 0
    v_new = apply_voltage_limiting(state.x[:nv], dv, options)
    limited += int(np.count_nonzero(np.abs(v_new - x_raw[:nv]) > 0.0))
    new.x[:nv] = v_new
    # auxiliary slack currents take the raw solve
    new.x[nv:] = x_raw[nv:]
    # Q limiting on free generator slots
    c = companion
    pinned = modes.mode.ravel()[c.slot_lanes] == GEN_PINNED
    for lane, qi, pin in zip(c.slot_lanes, c.q_idx, pinned):
        if pin:
            continue
        v = c.gen_v[lane]
        q_lim = apply_q_limiting(
            float(c.gen_p[lane]), state.x[qi], x_raw[qi], state.x[v], state.x[v + 1],
            options.di_max,
        )
        if q_lim != x_raw[qi]:
            limited += 1
        new.x[qi] = q_lim

    row = NrTraceRow(iteration, residual, max_dv, zeta, limited)
    return new, row, residual


def run_newton(
    network: Network,
    params: DeviceParams,
    index: IndexMap,
    state: StateVector,
    options: NrOptions,
    modes: GenModes | None = None,
    system: SparseSystem | None = None,
    trace: list[NrTraceRow] | None = None,
):
    """Iterate to convergence. Returns ``(state, converged, iterations)``.

    ``trace`` (when given) accumulates one row per iteration actually taken;
    ``system`` may be shared across calls to reuse the assembly pattern.
    """
    if modes is None:
        modes = GenModes.initial(network)
    if system is None:
        system = SparseSystem(index.dim)
    own_trace: list[NrTraceRow] = [] if trace is None else trace
    base = len(own_trace)
    zeta = options.zeta_init
    current = state.copy()
    companion = build_companion(network, params, index)
    mask = _kcl_mask(index)
    for k in range(options.max_iter):
        new, row, residual = nr_iterate(
            companion, mask, current, options, zeta, modes, system, k
        )
        if residual < options.tol:
            return current, True, k
        own_trace.append(row)
        current = new
        zeta = update_zeta(own_trace[base:], zeta, options)
    # the final iterate may have just crossed the tolerance
    f = residual_vector(companion, current, modes, system)
    residual = float(np.max(np.abs(f[mask]))) if mask.any() else 0.0
    return current, residual < options.tol, options.max_iter
