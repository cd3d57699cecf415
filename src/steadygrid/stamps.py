"""Per-device linearization of the nodal equations.

Every device contributes a :class:`Stamp`: sparse matrix triplets plus
right-hand-side entries of the companion system ``A x = b`` whose solution is
the *next* iterate ``x^{k+1}``. For a nonlinear device current ``I(v)`` the
stamp encodes the first-order expansion around the current iterate, so

    A(x_k) x_k - b(x_k)  ==  F(x_k)

is exactly the nonlinear KCL/constraint residual; linear devices contribute
to ``A`` only (plus constant sources to ``b``) and are iterate-independent.

Sign conventions: each KCL row sums currents *leaving* the node, so passive
and load currents enter with ``+`` and source injections with ``-``.
Generator and constant-power/current load currents are injections/draws
``conj(S)/conj(V) = conj(S) V / |V|^2`` split into real and imaginary parts.
All Jacobian entries here are derived by hand and are checked against central
finite differences by the test suite before anything else trusts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .indexing import IndexMap, StateVector
from .network import Connection, Network, PHASE_OFFSETS

__all__ = [
    "Stamp",
    "ZeroVoltageIterate",
    "GenModes",
    "GEN_VC",
    "GEN_PINNED",
    "GEN_FIXED",
    "DeviceParams",
    "effective_params",
    "stamp_branch",
    "stamp_transformer",
    "stamp_slack",
    "stamp_pv_generator",
    "stamp_voltage_control",
    "stamp_q_pin",
    "stamp_zip_load",
    "stamp_big_load",
    "stamp_shunt",
    "assemble_system",
]

DELTA_PAIRS = ((0, 1), (1, 2), (2, 0))


class ZeroVoltageIterate(Exception):
    """A nonlinear stamp was asked to linearize at |V| = 0.

    The linearization is singular there; callers re-initialize the offending
    node and retry.
    """

    def __init__(self, device: str, bus: int, phase: int):
        super().__init__(f"{device}: zero voltage iterate at bus {bus} phase {phase}")
        self.device = device
        self.bus = bus
        self.phase = phase


@dataclass
class Stamp:
    """Jacobian triplets and RHS entries contributed by one device."""

    rows: list = field(default_factory=list)
    cols: list = field(default_factory=list)
    vals: list = field(default_factory=list)
    rhs_rows: list = field(default_factory=list)
    rhs_vals: list = field(default_factory=list)

    def add(self, row: int, col: int, val: float) -> None:
        self.rows.append(row)
        self.cols.append(col)
        self.vals.append(val)

    def add_rhs(self, row: int, val: float) -> None:
        self.rhs_rows.append(row)
        self.rhs_vals.append(val)

    def add_complex_y(self, row_r, row_i, col_r, col_i, y: complex) -> None:
        """Current-out contribution y * V at (row block, col block)."""
        g, b = y.real, y.imag
        self.add(row_r, col_r, g)
        self.add(row_r, col_i, -b)
        self.add(row_i, col_r, b)
        self.add(row_i, col_i, g)


# ---------------------------------------------------------------------------
# Generator control modes (solver working state, never stored on the Network)

GEN_VC = 0  # voltage controlling, Q is a free unknown
GEN_PINNED = 1  # Q pinned at a limit, bus behaves as PQ
GEN_FIXED = 2  # constant-Q machine (no Q slot exists)


@dataclass
class GenModes:
    """Per-generator, per-phase control mode plus pinned Q values."""

    mode: np.ndarray  # (ngen, nphase) int8
    q_pin: np.ndarray  # (ngen, nphase) float

    @classmethod
    def initial(cls, network: Network) -> "GenModes":
        ng = len(network.generators)
        nph = network.nphase
        mode = np.full((ng, nph), GEN_VC, dtype=np.int8)
        for k, g in enumerate(network.generators):
            if not g.controls_voltage:
                mode[k, :] = GEN_FIXED
        return cls(mode=mode, q_pin=np.zeros((ng, nph)))

    def copy(self) -> "GenModes":
        return GenModes(self.mode.copy(), self.q_pin.copy())


# ---------------------------------------------------------------------------
# Effective (possibly homotopy-transformed) device parameters


@dataclass
class DeviceParams:
    """Snapshot of the numeric parameters the stamps consume.

    Continuation methods produce transformed copies of this structure; the
    identity snapshot reproduces the Network exactly. ``shorts`` holds
    ``(from_bus, to_bus, y)`` virtual paths that only exist mid-continuation.
    """

    branch_y: list
    branch_bf: list
    branch_bt: list
    xfmr_y: list
    xfmr_tap: list
    xfmr_shift: list
    shunt_y: list
    gen_p: list
    gen_q: list  # fixed per-phase Q or None per generator
    zip_y: list
    zip_i: list
    zip_s: list
    big_alpha: list
    big_y: list
    shorts: list = field(default_factory=list)


def effective_params(network: Network) -> DeviceParams:
    """Identity parameter snapshot of the network as operated.

    Only switchable shunts engage their ``blocks_on`` susceptance blocks.
    """
    shunt_y = []
    for sh in network.shunts:
        engaged = sh.switchable and sh.block_b is not None
        b = sh.b + (sh.blocks_on * sh.block_b if engaged else 0.0)
        shunt_y.append(sh.g + 1j * b)
    return DeviceParams(
        branch_y=[br.y_series for br in network.branches],
        branch_bf=[br.b_from for br in network.branches],
        branch_bt=[br.b_to for br in network.branches],
        xfmr_y=[tx.y_series for tx in network.transformers],
        xfmr_tap=[tx.tap for tx in network.transformers],
        xfmr_shift=[tx.shift for tx in network.transformers],
        shunt_y=shunt_y,
        gen_p=[g.p for g in network.generators],
        gen_q=[g.q for g in network.generators],
        zip_y=[ld.y for ld in network.zip_loads],
        zip_i=[ld.i for ld in network.zip_loads],
        zip_s=[ld.s for ld in network.zip_loads],
        big_alpha=[ld.alpha for ld in network.big_loads],
        big_y=[ld.y for ld in network.big_loads],
        shorts=[],
    )


# ---------------------------------------------------------------------------
# Exact device currents and their hand-derived partials


def pv_current(p: float, q: float, vr: float, vi: float):
    """Injection current of a constant-P source, Q given."""
    d = vr * vr + vi * vi
    ir = (p * vr + q * vi) / d
    ii = (p * vi - q * vr) / d
    return ir, ii


def pv_current_jac(p: float, q: float, vr: float, vi: float):
    """Currents plus partials w.r.t. (vr, vi, q)."""
    d = vr * vr + vi * vi
    nr = p * vr + q * vi
    ni = p * vi - q * vr
    ir = nr / d
    ii = ni / d
    d2 = d * d
    dir_dvr = (p * d - nr * 2.0 * vr) / d2
    dir_dvi = (q * d - nr * 2.0 * vi) / d2
    dii_dvr = (-q * d - ni * 2.0 * vr) / d2
    dii_dvi = (p * d - ni * 2.0 * vi) / d2
    dir_dq = vi / d
    dii_dq = -vr / d
    return ir, ii, dir_dvr, dir_dvi, dii_dvr, dii_dvi, dir_dq, dii_dq


def zip_current(y: complex, ic: complex, s: complex, ur: float, ui: float):
    """Load current drawn by one ZIP device (or one delta branch)."""
    ir = y.real * ur - y.imag * ui
    ii = y.real * ui + y.imag * ur
    d = ur * ur + ui * ui
    if s != 0:
        ir += (s.real * ur + s.imag * ui) / d
        ii += (s.real * ui - s.imag * ur) / d
    if ic != 0:
        mag = abs(ic)
        ang = math.atan2(ui, ur) - math.atan2(ic.imag, ic.real)
        ir += mag * math.cos(ang)
        ii += mag * math.sin(ang)
    return ir, ii


def zip_current_jac(y: complex, ic: complex, s: complex, ur: float, ui: float):
    """Currents plus the 2x2 Jacobian w.r.t. the device voltage (ur, ui)."""
    ir = y.real * ur - y.imag * ui
    ii = y.real * ui + y.imag * ur
    dir_dur, dir_dui = y.real, -y.imag
    dii_dur, dii_dui = y.imag, y.real
    d = ur * ur + ui * ui
    d2 = d * d
    if s != 0:
        nr = s.real * ur + s.imag * ui
        ni = s.real * ui - s.imag * ur
        ir += nr / d
        ii += ni / d
        dir_dur += (s.real * d - nr * 2.0 * ur) / d2
        dir_dui += (s.imag * d - nr * 2.0 * ui) / d2
        dii_dur += (-s.imag * d - ni * 2.0 * ur) / d2
        dii_dui += (s.real * d - ni * 2.0 * ui) / d2
    if ic != 0:
        mag = abs(ic)
        ang = math.atan2(ui, ur) - math.atan2(ic.imag, ic.real)
        c, sn = math.cos(ang), math.sin(ang)
        ir += mag * c
        ii += mag * sn
        # d(angle)/dur = -ui/d, d(angle)/dui = ur/d
        dir_dur += mag * sn * ui / d
        dir_dui += -mag * sn * ur / d
        dii_dur += -mag * c * ui / d
        dii_dui += mag * c * ur / d
    return ir, ii, dir_dur, dir_dui, dii_dur, dii_dui


def invert_pv_current(ir: float, ii: float, vr: float, vi: float):
    """Recover (P, Q) from an injection current at a given voltage."""
    p = ir * vr + ii * vi
    q = ir * vi - ii * vr
    return p, q


# ---------------------------------------------------------------------------
# Stamps


def stamp_branch(
    network: Network,
    index: IndexMap,
    from_bus: int,
    to_bus: int,
    y_series: np.ndarray,
    b_from=None,
    b_to=None,
) -> Stamp:
    """Linear series element (line or virtual-short path); Jacobian only."""
    st = Stamp()
    i = network.bus_index[from_bus]
    l = network.bus_index[to_bus]
    nph = index.nphase
    y = np.atleast_2d(y_series)
    for pr in range(nph):
        ri_r, ri_i = index.vr(i, pr), index.vi(i, pr)
        rl_r, rl_i = index.vr(l, pr), index.vi(l, pr)
        for pc in range(nph):
            yv = complex(y[pr, pc])
            ci_r, ci_i = index.vr(i, pc), index.vi(i, pc)
            cl_r, cl_i = index.vr(l, pc), index.vi(l, pc)
            # current out of i: y (V_i - V_l); out of l: y (V_l - V_i)
            st.add_complex_y(ri_r, ri_i, ci_r, ci_i, yv)
            st.add_complex_y(ri_r, ri_i, cl_r, cl_i, -yv)
            st.add_complex_y(rl_r, rl_i, cl_r, cl_i, yv)
            st.add_complex_y(rl_r, rl_i, ci_r, ci_i, -yv)
        if b_from is not None and b_from[pr] != 0.0:
            st.add_complex_y(ri_r, ri_i, ri_r, ri_i, 1j * float(b_from[pr]))
        if b_to is not None and b_to[pr] != 0.0:
            st.add_complex_y(rl_r, rl_i, rl_r, rl_i, 1j * float(b_to[pr]))
    return st


def stamp_transformer(
    network: Network,
    index: IndexMap,
    from_bus: int,
    to_bus: int,
    y_series: np.ndarray,
    tap: np.ndarray,
    shift: np.ndarray,
) -> Stamp:
    """Two-port tap changer / phase shifter stamp.

    The complex ratio n = tap * exp(j shift) sits on the from side, so the
    two-port admittance blocks are N^-* Y N^-1, -N^-* Y, -Y N^-1 and Y.
    Reduces to :func:`stamp_branch` at tap 1, shift 0.
    """
    if np.any(np.asarray(tap) <= 0):
        raise ValueError(f"transformer {from_bus}-{to_bus}: tap must be positive, got {tap}")
    st = Stamp()
    i = network.bus_index[from_bus]
    l = network.bus_index[to_bus]
    nph = index.nphase
    y = np.atleast_2d(y_series)
    n = np.asarray(tap) * np.exp(1j * np.asarray(shift))
    for pr in range(nph):
        ri_r, ri_i = index.vr(i, pr), index.vi(i, pr)
        rl_r, rl_i = index.vr(l, pr), index.vi(l, pr)
        for pc in range(nph):
            yv = complex(y[pr, pc])
            if yv == 0 and pr != pc:
                continue
            ci_r, ci_i = index.vr(i, pc), index.vi(i, pc)
            cl_r, cl_i = index.vr(l, pc), index.vi(l, pc)
            st.add_complex_y(ri_r, ri_i, ci_r, ci_i, yv / (np.conj(n[pr]) * n[pc]))
            st.add_complex_y(ri_r, ri_i, cl_r, cl_i, -yv / np.conj(n[pr]))
            st.add_complex_y(rl_r, rl_i, ci_r, ci_i, -yv / n[pc])
            st.add_complex_y(rl_r, rl_i, cl_r, cl_i, yv)
    return st


def stamp_slack(network: Network, index: IndexMap, bus_pos: int) -> Stamp:
    """Ideal voltage source rows; injection current is an auxiliary unknown."""
    st = Stamp()
    bus = network.buses[bus_pos]
    offsets = PHASE_OFFSETS[network.domain]
    for ph in range(index.nphase):
        vset = bus.v_set * np.exp(1j * (bus.angle + offsets[ph]))
        r_r, r_i = index.vr(bus_pos, ph), index.vi(bus_pos, ph)
        c_ir, c_ii = index.slack_ir(bus_pos, ph), index.slack_ii(bus_pos, ph)
        # KCL: injected current leaves through the network
        st.add(r_r, c_ir, -1.0)
        st.add(r_i, c_ii, -1.0)
        # constraint rows pin the node voltage
        st.add(c_ir, r_r, 1.0)
        st.add_rhs(c_ir, vset.real)
        st.add(c_ii, r_i, 1.0)
        st.add_rhs(c_ii, vset.imag)
    return st


def stamp_pv_generator(
    network: Network,
    index: IndexMap,
    gen_pos: int,
    state: StateVector,
    zeta: float,
    p_eff: np.ndarray,
    q_fixed: np.ndarray | None,
) -> Stamp:
    """First-order stamp of the constant-power source.

    Voltage-derivative entries are scaled by the damping factor ``zeta``; the
    dI/dQ column (when Q is a free unknown) is left unscaled. ``q_fixed``
    of None means Q comes from the state slot.
    """
    st = Stamp()
    gen = network.generators[gen_pos]
    bus_pos = network.bus_index[gen.bus]
    has_slot = index.has_q_slot(gen_pos)
    for ph in range(index.nphase):
        vr = state.x[index.vr(bus_pos, ph)]
        vi = state.x[index.vi(bus_pos, ph)]
        if vr == 0.0 and vi == 0.0:
            raise ZeroVoltageIterate(f"gen {gen.id}", gen.bus, ph)
        p = float(p_eff[ph])
        q = float(q_fixed[ph]) if q_fixed is not None else state.q_gen(gen_pos, ph)
        ir, ii, dir_dvr, dir_dvi, dii_dvr, dii_dvi, dir_dq, dii_dq = pv_current_jac(p, q, vr, vi)
        r_r, r_i = index.vr(bus_pos, ph), index.vi(bus_pos, ph)
        c_r, c_i = r_r, r_i
        # injections enter KCL with a minus sign
        st.add(r_r, c_r, -zeta * dir_dvr)
        st.add(r_r, c_i, -zeta * dir_dvi)
        st.add(r_i, c_r, -zeta * dii_dvr)
        st.add(r_i, c_i, -zeta * dii_dvi)
        rhs_r = ir - zeta * (dir_dvr * vr + dir_dvi * vi)
        rhs_i = ii - zeta * (dii_dvr * vr + dii_dvi * vi)
        if has_slot and q_fixed is None:
            c_q = index.q_gen(gen_pos, ph)
            st.add(r_r, c_q, -dir_dq)
            st.add(r_i, c_q, -dii_dq)
            rhs_r -= dir_dq * q
            rhs_i -= dii_dq * q
        st.add_rhs(r_r, rhs_r)
        st.add_rhs(r_i, rhs_i)
    return st


def stamp_voltage_control(
    network: Network,
    index: IndexMap,
    gen_pos: int,
    state: StateVector,
) -> Stamp:
    """Linearized magnitude constraint rows tying Q to the regulated bus."""
    st = Stamp()
    gen = network.generators[gen_pos]
    target = gen.target_bus()
    w = network.bus_index[target]
    vset = network.bus(target).v_set
    for ph in range(index.nphase):
        vr = state.x[index.vr(w, ph)]
        vi = state.x[index.vi(w, ph)]
        row = index.q_gen(gen_pos, ph)
        st.add(row, index.vr(w, ph), -2.0 * vr)
        st.add(row, index.vi(w, ph), -2.0 * vi)
        st.add_rhs(row, -(vset * vset + vr * vr + vi * vi))
    return st


def stamp_q_pin(index: IndexMap, gen_pos: int, ph: int, q_value: float) -> Stamp:
    """Replacement constraint row while a generator sits at a Q limit."""
    st = Stamp()
    row = index.q_gen(gen_pos, ph)
    st.add(row, row, 1.0)
    st.add_rhs(row, q_value)
    return st


def stamp_zip_load(
    network: Network,
    index: IndexMap,
    load_pos: int,
    state: StateVector,
    y_eff: np.ndarray,
    i_eff: np.ndarray,
    s_eff: np.ndarray,
) -> Stamp:
    """ZIP load stamp; wye on node voltage, delta across phase pairs."""
    st = Stamp()
    load = network.zip_loads[load_pos]
    bus_pos = network.bus_index[load.bus]
    if load.connection == Connection.WYE:
        terminals = [((bus_pos, ph), None, ph) for ph in range(index.nphase)]
    else:
        terminals = [((bus_pos, a), (bus_pos, b), d) for d, (a, b) in enumerate(DELTA_PAIRS)]

    for (pos_a, ph_a), neg, dev_ph in terminals:
        y = complex(y_eff[dev_ph])
        ic = complex(i_eff[dev_ph])
        s = complex(s_eff[dev_ph])
        if y == 0 and ic == 0 and s == 0:
            continue
        a_r, a_i = index.vr(pos_a, ph_a), index.vi(pos_a, ph_a)
        ur = state.x[a_r]
        ui = state.x[a_i]
        cols = [(a_r, a_i, 1.0)]
        if neg is not None:
            pos_b, ph_b = neg
            b_r, b_i = index.vr(pos_b, ph_b), index.vi(pos_b, ph_b)
            ur -= state.x[b_r]
            ui -= state.x[b_i]
            cols.append((b_r, b_i, -1.0))
        if (s != 0 or ic != 0) and ur == 0.0 and ui == 0.0:
            raise ZeroVoltageIterate(f"zip {load.id}", load.bus, dev_ph)
        ir, ii, dir_dur, dir_dui, dii_dur, dii_dui = zip_current_jac(y, ic, s, ur, ui)
        rows = [(a_r, a_i, 1.0)] + ([(b_r, b_i, -1.0)] if neg is not None else [])
        nonlinear = s != 0 or ic != 0  # pure impedance needs no RHS
        rhs_r = dir_dur * ur + dir_dui * ui - ir
        rhs_i = dii_dur * ur + dii_dui * ui - ii
        for row_r, row_i, rsign in rows:
            for col_r, col_i, csign in cols:
                sgn = rsign * csign
                st.add(row_r, col_r, sgn * dir_dur)
                st.add(row_r, col_i, sgn * dir_dui)
                st.add(row_i, col_r, sgn * dii_dur)
                st.add(row_i, col_i, sgn * dii_dui)
            if nonlinear:
                st.add_rhs(row_r, rsign * rhs_r)
                st.add_rhs(row_i, rsign * rhs_i)
    return st


def stamp_big_load(
    network: Network,
    index: IndexMap,
    load_pos: int,
    alpha_eff: np.ndarray,
    y_eff: np.ndarray,
) -> Stamp:
    """Linear load: admittance into the matrix, base current into the RHS."""
    st = Stamp()
    load = network.big_loads[load_pos]
    bus_pos = network.bus_index[load.bus]
    for ph in range(index.nphase):
        a = complex(alpha_eff[ph])
        y = complex(y_eff[ph])
        if a == 0 and y == 0:
            continue
        r_r, r_i = index.vr(bus_pos, ph), index.vi(bus_pos, ph)
        if y != 0:
            st.add_complex_y(r_r, r_i, r_r, r_i, y)
        if a != 0:
            st.add_rhs(r_r, -a.real)
            st.add_rhs(r_i, -a.imag)
    return st


def stamp_shunt(network: Network, index: IndexMap, bus: int, y_eff: np.ndarray) -> Stamp:
    """Fixed admittance to ground per phase."""
    st = Stamp()
    bus_pos = network.bus_index[bus]
    for ph in range(index.nphase):
        y = complex(y_eff[ph])
        if y == 0:
            continue
        r_r, r_i = index.vr(bus_pos, ph), index.vi(bus_pos, ph)
        st.add_complex_y(r_r, r_i, r_r, r_i, y)
    return st


# ---------------------------------------------------------------------------
# Whole-system assembly


def assemble_system(
    network: Network,
    params: DeviceParams,
    index: IndexMap,
    state: StateVector,
    zeta: float = 1.0,
    modes: GenModes | None = None,
):
    """Stamp every device; returns (rows, cols, vals, rhs_rows, rhs_vals).

    One call produces the Jacobian and RHS of the companion system at the
    given iterate. The emitted sparsity pattern depends only on the network
    and the presence of virtual-short paths, never on iterate values, so
    repeated assemblies reuse the factorization symbolics downstream.
    """
    if modes is None:
        modes = GenModes.initial(network)
    stamps: list[Stamp] = []

    for k, br in enumerate(network.branches):
        stamps.append(
            stamp_branch(
                network, index, br.from_bus, br.to_bus,
                params.branch_y[k], params.branch_bf[k], params.branch_bt[k],
            )
        )
    for k, tx in enumerate(network.transformers):
        stamps.append(
            stamp_transformer(
                network, index, tx.from_bus, tx.to_bus,
                params.xfmr_y[k], params.xfmr_tap[k], params.xfmr_shift[k],
            )
        )
    for k, sh in enumerate(network.shunts):
        stamps.append(stamp_shunt(network, index, sh.bus, params.shunt_y[k]))
    for o_bus, w_bus, y in params.shorts:
        nph = index.nphase
        ymat = np.zeros((nph, nph), dtype=complex)
        np.fill_diagonal(ymat, y)
        stamps.append(stamp_branch(network, index, o_bus, w_bus, ymat))
    for pos in index.slack_positions:
        stamps.append(stamp_slack(network, index, pos))
    for k, gen in enumerate(network.generators):
        if not index.has_q_slot(k):
            q_fix = params.gen_q[k]
            if q_fix is None:
                # regulating machine on a slack bus: reactive support comes
                # from the source, the machine contributes its real power
                q_fix = np.zeros(index.nphase)
            stamps.append(
                stamp_pv_generator(network, index, k, state, zeta, params.gen_p[k], q_fix)
            )
            continue
        # Free or pinned Q both keep the dI/dQ coupling; the pinned phases
        # simply swap their constraint row for an identity pin.
        stamps.append(
            stamp_pv_generator(network, index, k, state, zeta, params.gen_p[k], None)
        )
        vc_stamp = stamp_voltage_control(network, index, k, state)
        for ph in range(index.nphase):
            if modes.mode[k, ph] == GEN_PINNED:
                stamps.append(stamp_q_pin(index, k, ph, modes.q_pin[k, ph]))
            else:
                row = index.q_gen(k, ph)
                part = Stamp()
                for r, c, v in zip(vc_stamp.rows, vc_stamp.cols, vc_stamp.vals):
                    if r == row:
                        part.add(r, c, v)
                for r, v in zip(vc_stamp.rhs_rows, vc_stamp.rhs_vals):
                    if r == row:
                        part.add_rhs(r, v)
                stamps.append(part)
    for k in range(len(network.zip_loads)):
        stamps.append(
            stamp_zip_load(network, index, k, state, params.zip_y[k], params.zip_i[k], params.zip_s[k])
        )
    for k in range(len(network.big_loads)):
        stamps.append(stamp_big_load(network, index, k, params.big_alpha[k], params.big_y[k]))

    rows = np.array([r for st in stamps for r in st.rows], dtype=np.int64)
    cols = np.array([c for st in stamps for c in st.cols], dtype=np.int64)
    vals = np.array([v for st in stamps for v in st.vals], dtype=float)
    rhs_rows = np.array([r for st in stamps for r in st.rhs_rows], dtype=np.int64)
    rhs_vals = np.array([v for st in stamps for v in st.rhs_vals], dtype=float)
    return rows, cols, vals, rhs_rows, rhs_vals
