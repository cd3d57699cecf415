"""Continuation drivers: series-shorting ("Tx stepping") and power stepping.

Both embed a factor into the device parameters so that the first sub-problem
is trivial and the last is the original network, then walk the factor with an
adaptive step, warm-starting every sub-problem from the previous solution.

* Tx stepping multiplies every series admittance by ``(1 + lambda*gamma)``
  (three-phase: self terms only), relaxes taps to 1 and shifts to 0 at
  ``lambda = 1``, open-circuits shunts and charging by ``(1 - lambda)`` and
  closes a virtual short between every remote-control pair. The shorted
  system holds all voltages near the sources, which is why the final solution
  lands on the high-voltage branch.
* Power stepping scales generation and the non-impedance load parts by
  ``beta = 1 - lambda``, so the first sub-problem has (almost) linear network
  constraints.

The factor moves from 1 to 0; a failed sub-problem halves the step until the
minimum step underflows, which reports divergence with the last good factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indexing import IndexMap, StateVector
from .linsys import SingularityError, SparseSystem
from .network import BusKind, Network, PHASE_OFFSETS
from .nr import NrOptions, NrTraceRow, run_newton
from .stamps import DeviceParams, GenModes, effective_params

__all__ = [
    "HomotopySchedule",
    "HomotopyResult",
    "tx_transform",
    "power_transform",
    "anchored_state",
    "run_homotopy",
    "lambda_trace_to_csv",
]


@dataclass
class HomotopySchedule:
    """Step-control constants for the continuation walk."""

    d_lambda: float = 0.1
    min_step: float = 1e-4
    backtrack: float = 0.5
    growth: float = 2.0
    max_step: float = 0.5
    gamma: float = 1e4


@dataclass
class HomotopyResult:
    converged: bool
    state: StateVector | None
    steps: int
    inner_iterations: int
    accepted: list
    last_good_lambda: float
    nr_trace: list


def tx_transform(
    network: Network,
    lam: float,
    gamma: float,
    base: DeviceParams | None = None,
) -> DeviceParams:
    """Series-shorted parameter set at continuation factor ``lam``.

    ``lam = 0`` reproduces ``base`` exactly (bit for bit), the virtual
    shorts' admittance included: it is zero there.
    """
    if base is None:
        base = effective_params(network)
    scale = 1.0 + lam * gamma
    open_factor = 1.0 - lam
    nph = network.nphase

    def scale_series(y):
        if nph == 1:
            return y * scale
        out = np.array(y)
        idx = np.arange(nph)
        out[idx, idx] = out[idx, idx] * scale
        return out

    return DeviceParams(
        branch_y=[scale_series(y) for y in base.branch_y],
        branch_bf=[b * open_factor for b in base.branch_bf],
        branch_bt=[b * open_factor for b in base.branch_bt],
        xfmr_y=[scale_series(y) for y in base.xfmr_y],
        xfmr_tap=[t + lam * (1.0 - t) for t in base.xfmr_tap],
        xfmr_shift=[s * open_factor for s in base.xfmr_shift],
        shunt_y=[y * open_factor for y in base.shunt_y],
        gen_p=base.gen_p,
        gen_q=base.gen_q,
        zip_y=base.zip_y,
        zip_i=base.zip_i,
        zip_s=base.zip_s,
        big_alpha=base.big_alpha,
        big_y=base.big_y,
        short_y=lam * gamma * (1.0 - 1.0j),
    )


def power_transform(
    network: Network,
    beta: float,
    base: DeviceParams | None = None,
) -> DeviceParams:
    """Generation/load scaled by ``beta``; impedance parts untouched.

    ``beta = 1`` reproduces ``base`` exactly. Fixed generator reactive power
    scales with the real power so that ``beta = 0`` leaves no constant-power
    constraint anywhere.
    """
    if base is None:
        base = effective_params(network)
    return DeviceParams(
        branch_y=base.branch_y,
        branch_bf=base.branch_bf,
        branch_bt=base.branch_bt,
        xfmr_y=base.xfmr_y,
        xfmr_tap=base.xfmr_tap,
        xfmr_shift=base.xfmr_shift,
        shunt_y=base.shunt_y,
        gen_p=[p * beta for p in base.gen_p],
        gen_q=[None if q is None else q * beta for q in base.gen_q],
        zip_y=base.zip_y,
        zip_i=[i * beta for i in base.zip_i],
        zip_s=[s * beta for s in base.zip_s],
        big_alpha=[a * beta for a in base.big_alpha],
        big_y=base.big_y,
        short_y=base.short_y,
    )


def anchored_state(network: Network, index: IndexMap) -> StateVector:
    """Every bus at its island's slack voltage (balanced offsets), Q slots 0.

    The first sub-problem's solution sits in a small ball around these values,
    so this start makes it trivially reachable.
    """
    x = np.zeros(index.dim)
    offsets = PHASE_OFFSETS[network.domain]
    island_slack = {}
    for pos, bus in enumerate(network.buses):
        if bus.kind == BusKind.SLACK:
            island_slack[network.islands[pos]] = bus
    for pos in range(network.nbus):
        slack = island_slack.get(network.islands[pos])
        vmag = slack.v_set if slack is not None else 1.0
        vang = slack.angle if slack is not None else 0.0
        for ph in range(index.nphase):
            v = vmag * np.exp(1j * (vang + offsets[ph]))
            x[index.vr(pos, ph)] = v.real
            x[index.vi(pos, ph)] = v.imag
    return StateVector(x, index)


def run_homotopy(
    network: Network,
    method: str,
    options: NrOptions,
    schedule: HomotopySchedule | None = None,
    index: IndexMap | None = None,
    modes: GenModes | None = None,
    base: DeviceParams | None = None,
    system: SparseSystem | None = None,
    nr_trace: list[NrTraceRow] | None = None,
) -> HomotopyResult:
    """Walk the continuation factor from the trivial to the original problem."""
    if method not in ("tx", "power"):
        raise ValueError(f"unknown homotopy method {method!r}")
    if schedule is None:
        schedule = HomotopySchedule()
    if index is None:
        index = IndexMap(network)
    if modes is None:
        modes = GenModes.initial(network)
    if base is None:
        base = effective_params(network)
    if system is None:
        system = SparseSystem(index.dim)
    trace = [] if nr_trace is None else nr_trace

    def params_at(lam: float) -> DeviceParams:
        if method == "tx":
            return tx_transform(network, lam, schedule.gamma, base)
        return power_transform(network, 1.0 - lam, base)

    lam = 1.0
    step = schedule.d_lambda
    accepted: list = []  # (lambda, nr_iterations, residual)
    total_iters = 0

    state = anchored_state(network, index)
    try:
        state, ok, iters = run_newton(
            network, params_at(1.0), index, state, options, modes, system, trace
        )
    except SingularityError:
        ok, iters = False, 0
    total_iters += iters
    if not ok:
        return HomotopyResult(False, None, 0, total_iters, [], 1.0, trace)
    accepted.append((1.0, iters, trace[-1].residual if trace else 0.0))

    def next_lambda(lam, step):
        # snap float dust to the exact endpoint so the final sub-problem is
        # the untransformed network, bit for bit
        out = lam - step
        return 0.0 if out < schedule.min_step else out

    first_try_successes = 0
    while lam > 0.0:
        lam_next = next_lambda(lam, step)
        first_try = True
        while True:
            try:
                cand, ok, iters = run_newton(
                    network, params_at(lam_next), index, state, options, modes, system, trace
                )
            except SingularityError:
                ok, iters = False, 0
            total_iters += iters
            if ok:
                break
            first_try = False
            first_try_successes = 0
            step *= schedule.backtrack
            if step < schedule.min_step:
                return HomotopyResult(
                    False, state, len(accepted), total_iters, accepted, lam, trace
                )
            lam_next = next_lambda(lam, step)
        state = cand
        lam = lam_next
        accepted.append((lam_next, iters, trace[-1].residual if trace else 0.0))
        if first_try:
            first_try_successes += 1
            if first_try_successes >= 2:
                step = min(step * schedule.growth, schedule.max_step)
                first_try_successes = 0

    return HomotopyResult(True, state, len(accepted), total_iters, accepted, 0.0, trace)


def lambda_trace_to_csv(accepted: list) -> str:
    lines = ["lambda,nr_iterations,residual"]
    for lam, iters, res in accepted:
        lines.append(f"{lam!r},{iters},{res!r}")
    return "\n".join(lines) + "\n"
