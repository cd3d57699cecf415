"""Continuation drivers: series-shorting ("Tx stepping") and power stepping.

Both embed a factor into the device parameters so that the first sub-problem
is trivial and the last is the original network, then walk the factor with an
adaptive step, warm-starting every sub-problem from the previous solution.

* Tx stepping multiplies every series admittance by ``(1 + lambda*GAMMA)``
  (the block diagonal only, a 1x1 block in positive sequence), relaxes taps
  to 1 and shifts to 0 at ``lambda = 1``, open-circuits shunts and charging
  by ``(1 - lambda)`` and closes a virtual short between every remote-control
  pair. The shorted system holds all voltages near the sources, which is why
  the final solution lands on the high-voltage branch.
* Power stepping scales generation and the non-impedance load parts by
  ``beta = 1 - lambda``, so the first sub-problem has (almost) linear network
  constraints.

Both transforms are array operations on :class:`DeviceParams` that share
every array they leave unchanged with their base. Only values move, so every
sub-problem binds to the one companion layout of the solve, and each bind
takes what its step left unchanged from the bind before it: a Tx step the
lane parameters and the constant rhs, a power step the linear CSC data.

The factor moves from 1 to 0 with fixed step control: the first step is
``D_LAMBDA``; a failed sub-problem multiplies the step by ``BACKTRACK`` until
it drops below ``MIN_STEP``, which reports divergence with the last good
factor; two consecutive first-try successes multiply it by ``GROWTH``, up to
``MAX_STEP``. These constants and the Tx-stepping scale ``GAMMA`` (1e4) are
fixed; none is an option.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .indexing import IndexMap, StateVector, polar_state
from .linsys import SparseSystem
from .network import BusKind, Network
from .nr import NrOptions, NrTraceRow, run_newton
from .stamps import Companion, DeviceParams, GenModes

__all__ = [
    "HomotopyResult",
    "tx_transform",
    "power_transform",
    "anchored_state",
    "run_homotopy",
    "LAMBDA_TRACE_FIELDS",
]


# step control of the continuation walk (see the module docstring)
D_LAMBDA = 0.1
MIN_STEP = 1e-4
BACKTRACK = 0.5
GROWTH = 2.0
MAX_STEP = 0.5

# the series scale of Tx stepping: tx_transform's gamma in every walk
GAMMA = 1e4

# the fields of each step in HomotopyResult.accepted: its factor, the Newton
# iterations it took and the residual of the iterate it accepted
LAMBDA_TRACE_FIELDS = ("lambda", "nr_iterations", "residual")


@dataclass
class HomotopyResult:
    converged: bool
    state: StateVector | None
    accepted: list
    last_good_lambda: float


def tx_transform(base: DeviceParams, lam: float, gamma: float) -> DeviceParams:
    """Series-shorted parameter set at continuation factor ``lam``.

    ``lam = 0`` reproduces ``base`` exactly (bit for bit), the virtual
    shorts' admittance included: it is zero there.
    """
    scale = 1.0 + lam * gamma
    open_factor = 1.0 - lam
    branch_y, xfmr_y = base.branch_y.copy(), base.xfmr_y.copy()
    d = np.arange(base.branch_y.shape[-1])  # the phases
    branch_y[:, d, d] *= scale
    xfmr_y[:, d, d] *= scale
    return replace(
        base,
        branch_y=branch_y,
        branch_bf=base.branch_bf * open_factor,
        branch_bt=base.branch_bt * open_factor,
        xfmr_y=xfmr_y,
        xfmr_tap=base.xfmr_tap + lam * (1.0 - base.xfmr_tap),
        xfmr_shift=base.xfmr_shift * open_factor,
        shunt_y=base.shunt_y * open_factor,
        short_y=lam * gamma * (1.0 - 1.0j),
    )


def power_transform(base: DeviceParams, beta: float) -> DeviceParams:
    """Generation/load scaled by ``beta``; impedance parts untouched.

    ``beta = 1`` reproduces ``base`` exactly. Fixed generator reactive power
    scales with the real power so that ``beta = 0`` leaves no constant-power
    constraint anywhere.
    """
    return replace(
        base,
        gen_p=base.gen_p * beta,
        gen_q=base.gen_q * beta,
        zip_i=base.zip_i * beta,
        zip_s=base.zip_s * beta,
        big_alpha=base.big_alpha * beta,
    )


def anchored_state(network: Network, index: IndexMap) -> StateVector:
    """Every bus at its island's slack voltage (balanced offsets), Q slots 0.

    The first sub-problem's solution sits in a small ball around these values,
    so this start makes it trivially reachable.
    """
    slack = {network.islands[k]: b for k, b in enumerate(network.buses) if b.kind == BusKind.SLACK}
    buses = [slack.get(island) for island in network.islands]
    vmag = np.array([1.0 if b is None else b.v_set for b in buses], dtype=float)
    vang = np.array([0.0 if b is None else b.angle for b in buses], dtype=float)
    return polar_state(index, vmag, vang)


def run_homotopy(
    layout: Companion,
    base: DeviceParams,
    start: StateVector,
    method: str,
    options: NrOptions,
    modes: GenModes,
    system: SparseSystem,
    nr_trace: list[NrTraceRow],
) -> HomotopyResult:
    """Walk the continuation factor from the trivial to the original problem
    of ``base`` (``method`` is ``tx``, at the scale ``GAMMA``, or ``power``),
    starting the first sub-problem from ``start`` (``solve`` passes
    :func:`anchored_state`); every sub-problem binds its parameter set to
    ``layout``, reusing from the last bind the part its transform shares
    with it (:meth:`Companion.bind`), and appends its iterations to
    ``nr_trace``."""

    def params_at(lam: float) -> DeviceParams:
        if method == "tx":
            return tx_transform(base, lam, GAMMA)
        return power_transform(base, 1.0 - lam)

    bound = None

    def newton_at(lam: float, state: StateVector):
        nonlocal bound
        bound = layout.bind(params_at(lam), bound)
        return run_newton(bound, state, options, modes, system, nr_trace)

    lam = 1.0
    step = D_LAMBDA
    accepted: list = []  # rows of LAMBDA_TRACE_FIELDS

    state, ok, iters, residual = newton_at(1.0, start)
    if not ok:
        return HomotopyResult(False, None, [], 1.0)
    accepted.append((1.0, iters, residual))

    def next_lambda(lam, step):
        # snap float dust to the exact endpoint so the final sub-problem is
        # the untransformed network, bit for bit
        out = lam - step
        return 0.0 if out < MIN_STEP else out

    first_try_successes = 0
    while lam > 0.0:
        lam_next = next_lambda(lam, step)
        first_try = True
        while True:
            cand, ok, iters, residual = newton_at(lam_next, state)
            if ok:
                break
            first_try = False
            first_try_successes = 0
            step *= BACKTRACK
            if step < MIN_STEP:
                return HomotopyResult(False, state, accepted, lam)
            lam_next = next_lambda(lam, step)
        state = cand
        lam = lam_next
        accepted.append((lam_next, iters, residual))
        if first_try:
            first_try_successes += 1
            if first_try_successes >= 2:
                step = min(step * GROWTH, MAX_STEP)
                first_try_successes = 0

    return HomotopyResult(True, state, accepted, 0.0)
