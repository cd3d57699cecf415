"""Independent dense power-mismatch solver, used to cross-check solutions.

This is the classical polar formulation: power mismatch equations solved by
dense Newton-Raphson for voltage magnitudes and angles. It shares no code
with the stamping path (complex bus-admittance matrix, polar unknowns,
power-based Jacobian), which is exactly what makes it useful as an oracle.

The solver is positive sequence only and leaves remote voltage control out
of its scope; the admittance builder covers both phase domains and is what
``validate_solution`` checks candidate solutions against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import BusKind, Connection, Network, PhaseDomain

__all__ = ["DenseSolution", "build_ybus", "dense_reference_solve"]


@dataclass
class DenseSolution:
    converged: bool
    vm: np.ndarray
    va: np.ndarray  # radians
    iterations: int
    gen_q: dict  # generator id -> Q (pu) for voltage-controlling machines
    max_mismatch: float


def build_ybus(network: Network) -> np.ndarray:
    """Dense complex admittance matrix over (bus, phase) nodes.

    Nodes are phase-major: node ``ph * nbus + pos``, so the positive-sequence
    matrix is the plain bus admittance matrix. Only switchable shunts engage
    their ``blocks_on`` susceptance blocks.
    """
    n = network.nbus
    nph = network.nphase
    ph = np.arange(nph)
    y = np.zeros((nph * n, nph * n), dtype=complex)

    def pos(buses):
        return np.array([network.bus_index[b] for b in buses], dtype=int)

    def diag(values):
        return np.asarray(values)[..., None] * np.eye(nph)

    def add(rows, cols, blocks):
        # blocks[d, k, pr, pc] couples node (pr, rows[d, k]) to node (pc, cols[d, k]);
        # np.add.at accumulates in index order, device by device
        r = ph[:, None] * n + rows[..., None, None]
        c = ph * n + cols[..., None, None]
        np.add.at(y, (r, c), blocks)

    brs = network.branches
    if brs:
        f, t = pos(b.from_bus for b in brs), pos(b.to_bus for b in brs)
        ys = np.array([b.y_series for b in brs], dtype=complex)
        charge_f = diag(1j * np.array([b.b_from for b in brs]))
        charge_t = diag(1j * np.array([b.b_to for b in brs]))
        add(np.stack([f, f, t, t, f, t], axis=1), np.stack([f, t, t, f, f, t], axis=1),
            np.stack([ys, -ys, ys, -ys, charge_f, charge_t], axis=1))
    txs = network.transformers
    if txs:
        f, t = pos(tx.from_bus for tx in txs), pos(tx.to_bus for tx in txs)
        ys = np.array([tx.y_series for tx in txs], dtype=complex)
        nr = np.array([tx.tap * np.exp(1j * tx.shift) for tx in txs])
        add(np.stack([f, f, t, t], axis=1), np.stack([f, t, f, t], axis=1),
            np.stack([ys / (np.conj(nr)[:, :, None] * nr[:, None, :]),
                      -(ys / np.conj(nr)[:, :, None]), -(ys / nr[:, None, :]), ys], axis=1))
    if network.shunts:
        shunt_y = []
        for sh in network.shunts:
            b = sh.b
            if sh.switchable and sh.block_b is not None:
                b = b + sh.blocks_on * sh.block_b
            shunt_y.append(sh.g + 1j * b)
        k = pos(sh.bus for sh in network.shunts)[:, None]
        add(k, k, diag(shunt_y)[:, None])
    return y


def _load_power(network: Network, vm: np.ndarray, va: np.ndarray):
    """Complex load drawn per bus plus its dVm / dVa derivatives."""
    n = network.nbus
    s = np.zeros(n, dtype=complex)
    ds_dvm = np.zeros(n, dtype=complex)
    ds_dva = np.zeros(n, dtype=complex)
    v = vm * np.exp(1j * va)
    for ld in network.zip_loads:
        if ld.connection != Connection.WYE:
            raise ValueError("delta loads are three-phase only")
        k = network.bus_index[ld.bus]
        y = complex(ld.y[0])
        ic = complex(ld.i[0])
        sp = complex(ld.s[0])
        s[k] += vm[k] ** 2 * np.conj(y) + vm[k] * ic + sp
        ds_dvm[k] += 2.0 * vm[k] * np.conj(y) + ic
    for ld in network.big_loads:
        k = network.bus_index[ld.bus]
        a = complex(ld.alpha[0])
        y = complex(ld.y[0])
        s[k] += v[k] * np.conj(a) + vm[k] ** 2 * np.conj(y)
        ds_dvm[k] += (v[k] / vm[k]) * np.conj(a) + 2.0 * vm[k] * np.conj(y)
        ds_dva[k] += 1j * v[k] * np.conj(a)
    return s, ds_dvm, ds_dva


def dense_reference_solve(
    network: Network,
    q_pins: dict | None = None,
    v0: tuple | None = None,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> DenseSolution:
    """Solve the power-mismatch equations by dense Newton-Raphson.

    ``q_pins`` maps generator id -> fixed Q (pu); pinned machines stop
    regulating and their bus drops to PQ. ``v0`` optionally warm-starts
    ``(vm, va)``.
    """
    if network.domain != PhaseDomain.POSITIVE_SEQUENCE:
        raise ValueError("dense reference handles positive sequence only")
    q_pins = q_pins or {}
    n = network.nbus
    ybus = build_ybus(network)

    slack = [network.bus_index[b.id] for b in network.buses if b.kind == BusKind.SLACK]
    if not slack:
        raise ValueError("network has no slack bus")

    vc_by_bus: dict[int, list] = {}
    s_fixed = np.zeros(n, dtype=complex)
    for g in network.generators:
        k = network.bus_index[g.bus]
        if g.controls_voltage and g.id not in q_pins:
            if g.remote_bus is not None and g.remote_bus != g.bus:
                raise ValueError("remote voltage control unsupported by the dense reference")
            vc_by_bus.setdefault(k, []).append(g)
            s_fixed[k] += float(g.p[0])
        else:
            q = q_pins.get(g.id)
            if q is None:
                q = float(g.q[0])
            s_fixed[k] += float(g.p[0]) + 1j * q
    for k, gens in vc_by_bus.items():
        if len(gens) > 1:
            raise ValueError("multiple regulating generators on one bus unsupported")

    pv = sorted(k for k in vc_by_bus if k not in slack)
    pq = sorted(set(range(n)) - set(pv) - set(slack))
    pvpq = pv + pq

    vm = np.ones(n)
    va = np.zeros(n)
    for k in slack:
        vm[k] = network.buses[k].v_set
        va[k] = network.buses[k].angle
    for k in pv:
        vm[k] = network.bus(network.buses[k].id).v_set
    if v0 is not None:
        vm0, va0 = v0
        free = np.ones(n, dtype=bool)
        free[slack] = False
        vm_free = free.copy()
        vm_free[pv] = False
        vm[vm_free] = np.asarray(vm0)[vm_free]
        va[free] = np.asarray(va0)[free]

    converged = False
    it = 0
    mis = math.inf
    for it in range(1, max_iter + 1):
        v = vm * np.exp(1j * va)
        ibus = ybus @ v
        s_calc = v * np.conj(ibus)
        s_load, dsl_dvm, dsl_dva = _load_power(network, vm, va)
        f = s_fixed - s_load - s_calc  # complex mismatch per bus

        g = np.concatenate([f[pvpq].real, f[pq].imag])
        mis = float(np.max(np.abs(g))) if g.size else 0.0
        if mis < tol:
            converged = True
            break

        diag_v = np.diag(v)
        diag_i = np.diag(ibus)
        diag_vn = np.diag(v / vm)
        ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
        ds_dvm = diag_vn @ np.conj(diag_i) + diag_v @ np.conj(ybus @ diag_vn)
        # total derivative of the mismatch f = s_fixed - s_load - s_calc
        df_dva = -(ds_dva + np.diag(dsl_dva))
        df_dvm = -(ds_dvm + np.diag(dsl_dvm))

        j11 = df_dva[np.ix_(pvpq, pvpq)].real
        j12 = df_dvm[np.ix_(pvpq, pq)].real
        j21 = df_dva[np.ix_(pq, pvpq)].imag
        j22 = df_dvm[np.ix_(pq, pq)].imag
        jac = np.block([[j11, j12], [j21, j22]])
        try:
            dx = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            break
        va[pvpq] += dx[: len(pvpq)]
        vm[pq] += dx[len(pvpq) :]
        if np.any(vm <= 0) or not np.all(np.isfinite(vm)):
            break

    gen_q: dict = {}
    v = vm * np.exp(1j * va)
    s_calc = v * np.conj(ybus @ v)
    s_load, _, _ = _load_power(network, vm, va)
    for k, gens in vc_by_bus.items():
        q_other = sum(
            float(g.q[0]) if g.q is not None else q_pins.get(g.id, 0.0)
            for g in network.generators
            if network.bus_index[g.bus] == k and g not in gens
        )
        gen_q[gens[0].id] = float((s_calc[k] + s_load[k]).imag) - q_other
    return DenseSolution(converged, vm, va, it, gen_q, mis)
