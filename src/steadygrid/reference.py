"""The independent oracle path: the dense admittance matrix, the current
every device injects, the mismatch check of a candidate solution, and a
dense power-mismatch Newton, in both phase domains.

It reads only the network model and shares no code with the stamping path,
which is what makes it an oracle. :func:`build_ybus` writes the complex
bus-admittance matrix over phase-major (phase, bus) nodes, and
:func:`device_injections` the complex current every source and load injects
at given node voltages: the one device model, in current form, one scalar
loop per device. :func:`validate_solution` measures a candidate state
against both. :func:`dense_reference_solve` solves the power mismatch
``v conj(inj - Y v)`` for polar node voltages by dense Newton-Raphson. The
network part of its Jacobian is analytic. The device part is a grouped
central difference (the column grouping of Curtis, Powell and Reid, 1974):
every device is local to its bus, so one perturbation of a phase's angle or
magnitude at every bus at once gives each bus's block of those columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import PHASE_OFFSETS, Connection, Network, PhaseDomain

__all__ = [
    "DenseSolution",
    "MismatchReport",
    "build_ybus",
    "dense_reference_solve",
    "device_injections",
    "validate_solution",
]

FD_STEP = 1e-7  # central-difference step of the device Jacobian, in rad and pu


@dataclass
class DenseSolution:
    converged: bool
    vm: np.ndarray  # (nphase, nbus)
    va: np.ndarray  # (nphase, nbus), radians
    iterations: int
    gen_q: dict  # generator id -> per-phase Q (pu) of each machine with lanes
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


def device_injections(network: Network, v: np.ndarray, gen_q) -> np.ndarray:
    """Net complex current injected by sources minus loads, per (phase, bus),
    at the node voltages ``v`` (nphase, nbus); ``gen_q`` holds each
    generator's per-phase reactive output, in generator order."""
    n = network.nbus
    nph = network.nphase
    inj = np.zeros((nph, n), dtype=complex)
    for gen, q in zip(network.generators, gen_q):
        k = network.bus_index[gen.bus]
        for ph in range(nph):
            s = complex(float(gen.p[ph]), float(q[ph]))
            inj[ph, k] += np.conj(s / v[ph, k])
    for ld in network.zip_loads:
        k = network.bus_index[ld.bus]
        if ld.connection == Connection.WYE:
            for ph in range(nph):
                u = v[ph, k]
                inj[ph, k] -= _zip_complex_current(ld.y[ph], ld.i[ph], ld.s[ph], u)
        else:
            for d, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
                u = v[a, k] - v[b, k]
                i_d = _zip_complex_current(ld.y[d], ld.i[d], ld.s[d], u)
                inj[a, k] -= i_d
                inj[b, k] += i_d
    for ld in network.big_loads:
        k = network.bus_index[ld.bus]
        for ph in range(nph):
            inj[ph, k] -= complex(ld.alpha[ph]) + complex(ld.y[ph]) * v[ph, k]
    return inj


def _zip_complex_current(y, ic, s, u: complex) -> complex:
    y = complex(y)
    ic = complex(ic)
    s = complex(s)
    i = y * u
    if s != 0:
        i += np.conj(s) * u / (abs(u) ** 2)
    if ic != 0:
        i += np.conj(ic) * u / abs(u)
    return i


@dataclass
class MismatchReport:
    domain: PhaseDomain
    max_p: float = 0.0
    max_q: float = 0.0
    max_i: float = 0.0
    per_bus: np.ndarray | None = None  # max mismatch magnitude per bus

    @property
    def max(self) -> float:
        """The largest part, NaN when any part is NaN (Python's ``max``
        drops a NaN that is not its first argument)."""
        parts = (self.max_p, self.max_q, self.max_i)
        return math.nan if any(map(math.isnan, parts)) else max(parts)


def validate_solution(network: Network, state) -> MismatchReport:
    """Mismatch of the candidate solution against the admittance-matrix
    network equations, coded independently of the stamping path; it reads
    only ``state.v_complex()`` and ``state.gen_q()``.

    Positive sequence reports power mismatches, three phase current
    mismatches; slack buses are excluded (their injection is free).
    """
    n = network.nbus
    nph = network.nphase
    v = state.v_complex()
    i_net = (build_ybus(network) @ v.reshape(-1)).reshape(nph, n)  # phase-major nodes
    inj = device_injections(network, v, state.gen_q())
    slack_pos = {network.bus_index[b.id] for b in network.slack_buses()}
    keep = np.array([k not in slack_pos for k in range(n)])

    if network.domain == PhaseDomain.POSITIVE_SEQUENCE:
        ds = v[0] * np.conj(inj[0]) - v[0] * np.conj(i_net[0])
        max_p = float(np.max(np.abs(ds.real[keep]))) if keep.any() else 0.0
        max_q = float(np.max(np.abs(ds.imag[keep]))) if keep.any() else 0.0
        return MismatchReport(network.domain, max_p=max_p, max_q=max_q, per_bus=np.abs(ds))

    per_bus = np.max(np.abs(inj - i_net), axis=0)
    max_i = float(np.max(per_bus[keep])) if keep.any() else 0.0
    return MismatchReport(network.domain, max_i=max_i, per_bus=per_bus)


def dense_reference_solve(
    network: Network,
    q_pins: dict | None = None,
    v0: tuple | None = None,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> DenseSolution:
    """Solve the power-mismatch equations by dense Newton-Raphson.

    The unknowns are the angle and magnitude of every non-slack (phase, bus)
    node, then the reactive power of each lane: a (machine, phase) pair of a
    regulating machine that ``q_pins`` does not pin and whose target is not
    a slack bus, in generator order. The equations are the real and
    imaginary parts of ``v conj(inj - Y v)`` at every non-slack node, then
    ``|V_target| - v_set`` per lane. The start is flat at the balanced phase
    offsets, with the slack nodes at their source voltage and each lane's
    target at its set-point; ``v0 = (vm, va)``, each reshaped to (nphase,
    nbus), replaces the flat part. Each lane's Q starts at the value that
    balances its machine bus's reactive power at the start voltages (the
    first lane of a bus takes it all, any other starts at 0), so a start at
    a solution converges at its first measurement.

    ``q_pins`` maps generator id -> fixed Q (pu), a scalar or per phase; a
    pinned machine stops regulating. A regulating machine whose target is a
    slack bus injects no Q (its support is part of the slack injection).
    Raises ``ValueError`` for a network without a slack bus, for two free
    machines regulating one bus, and for a free machine on a slack bus that
    regulates another bus, whose Q would enter only the slack bus's excluded
    mismatch.
    """
    q_pins = q_pins or {}
    n, nph = network.nbus, network.nphase
    idx = network.bus_index
    gens = network.generators
    slack_buses = network.slack_buses()
    if not slack_buses:
        raise ValueError("network has no slack bus")
    slack = [idx[b.id] for b in slack_buses]
    slack_ids = {b.id for b in slack_buses}
    lanes = [k for k, g in enumerate(gens)
             if g.controls_voltage and g.id not in q_pins and g.target_bus() not in slack_ids]
    targets = [idx[gens[k].target_bus()] for k in lanes]
    if len(set(targets)) < len(targets):
        raise ValueError("two free machines regulate one bus")
    if any(gens[k].bus in slack_ids for k in lanes):
        raise ValueError("a free machine on a slack bus regulates another bus")

    # Q per (generator, phase): the pin, else the fixed output, else 0; the
    # lanes' rows are set from the unknowns on every iteration
    machine_q = np.zeros((len(gens), nph))
    for k, g in enumerate(gens):
        if g.id in q_pins:
            machine_q[k] = q_pins[g.id]
        elif g.q is not None:
            machine_q[k] = g.q

    # phase-major nodes ph * n + pos; ``at`` numbers the non-slack ones
    node = np.arange(nph * n).reshape(nph, n)
    fi = np.delete(node, slack, axis=1).ravel()
    nf = fi.size
    at = np.full(nph * n, -1)
    at[fi] = np.arange(nf)
    # each lane's machine-bus and target nodes, lanes machine by machine
    lane_bus = node[:, [idx[gens[k].bus] for k in lanes]].T.ravel()
    lane_target = node[:, targets].T.ravel()
    v_set = np.array([network.buses[t].v_set for t in targets], dtype=float)
    lane = np.arange(lane_bus.size)

    offsets = PHASE_OFFSETS[network.domain][:, None]
    vm, va = np.ones((nph, n)), np.repeat(offsets, n, axis=1)
    if v0 is not None:
        vm, va = (np.array(a, dtype=float).reshape(nph, n) for a in v0)
    vm[:, slack] = [b.v_set for b in slack_buses]
    va[:, slack] = offsets + [b.angle for b in slack_buses]
    vm[:, targets] = v_set
    polar = np.stack([va, vm]).reshape(2, -1)  # angle and magnitude per node

    ybus = build_ybus(network)

    def device_power(polar):
        v = polar[1] * np.exp(1j * polar[0])
        return v * np.conj(device_injections(network, v.reshape(nph, n), machine_q).ravel())

    # minus each machine bus's reactive mismatch with its lanes at 0, which
    # ``machine_q`` holds for them until the loop sets them
    v = polar[1] * np.exp(1j * polar[0])
    q_bus = -(device_power(polar) - v * np.conj(ybus @ v)).imag
    q_lane = np.zeros(lane.size)
    first = np.unique(lane_bus, return_index=True)[1]
    q_lane[first] = q_bus[lane_bus[first]]

    converged = False
    it = 0
    mis = math.inf
    for it in range(1, max_iter + 1):
        machine_q[lanes] = q_lane.reshape(-1, nph)
        v = polar[1] * np.exp(1j * polar[0])
        ibus = ybus @ v
        f = device_power(polar) - v * np.conj(ibus)
        g = np.concatenate([f.real[fi], f.imag[fi], polar[1, lane_target] - v_set.repeat(nph)])
        mis = float(np.max(np.abs(g))) if g.size else 0.0
        if mis < tol:
            converged = True
            break

        # network part, analytic: minus d(v conj(Y v)) by angle and magnitude
        vn = v / polar[1]
        df_dva = -1j * v[:, None] * np.conj(np.diag(ibus) - ybus * v)
        df_dvm = -(np.diag(vn * np.conj(ibus)) + v[:, None] * np.conj(ybus * vn))
        # device part: one central difference per (component, phase) over
        # every bus at once fills each bus's nph x nph block
        for c, df in enumerate((df_dva, df_dvm)):
            for ph in range(nph):
                step = np.zeros_like(polar)
                step[c, node[ph]] = FD_STEP
                ds = (device_power(polar + step) - device_power(polar - step)) / (2 * FD_STEP)
                df[node, node[ph]] += ds.reshape(nph, n)

        df_dx = np.concatenate([df_dva[np.ix_(fi, fi)], df_dvm[np.ix_(fi, fi)]], axis=1)
        jac = np.zeros((g.size, g.size))
        jac[:nf, : 2 * nf] = df_dx.real
        jac[nf : 2 * nf, : 2 * nf] = df_dx.imag
        # a lane's Q enters its machine bus's reactive mismatch with
        # coefficient 1, and its row is 1 on its target's magnitude
        jac[nf + at[lane_bus], 2 * nf + lane] = 1.0
        jac[2 * nf + lane, nf + at[lane_target]] = 1.0
        try:
            dx = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            break
        polar[:, fi] += dx[: 2 * nf].reshape(2, nf)
        q_lane += dx[2 * nf :]
        if np.any(polar[1] <= 0) or not np.all(np.isfinite(polar[1])):
            break

    va, vm = polar.reshape(2, nph, n)
    gen_q = {gens[k].id: q for k, q in zip(lanes, q_lane.reshape(-1, nph))}
    return DenseSolution(converged, vm, va, it, gen_q, mis)
