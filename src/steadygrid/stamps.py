"""Linearization of the nodal equations: the companion system.

The companion system ``A x = b`` has the *next* iterate ``x^{k+1}`` as its
solution. For a nonlinear device current ``I(v)`` it holds the first-order
expansion around the current iterate, so

    A(x_k) x_k - b(x_k)  ==  F(x_k)

is exactly the nonlinear KCL/constraint residual. It is made in three steps:

* :func:`build_companion` **lays it out** once per solve from device
  endpoints, connections and the :class:`IndexMap`: the whole fixed pattern
  as CSC with the slot of every value, the node array of every device
  family, the generator and ZIP lanes, the Q-slot rows and the KCL mask.
  Zero-valued shunts, loads, charging and virtual shorts (one per
  remote-control pair, open outside Tx stepping) keep their explicit zeros,
  and every Q-slot row keeps its diagonal and both regulated-voltage columns
  whether the generator is free or pinned;
* :meth:`Companion.bind` **binds** one parameter set (:class:`DeviceParams`,
  stacked arrays): the linear part (branches and charging, transformers
  with ``n = tap * exp(j shift)`` on the from side, virtual shorts, shunts,
  BIG loads, wye and delta ZIP impedance, slack rows) reduced into CSC data,
  the constant rhs and the lane parameters. Continuation steps, taps and
  shunt blocks change only this step;
* :func:`assemble_system` computes the nonlinear values at the iterate,
  elementwise over the lanes, with :func:`pv_current_jac` and
  :func:`zip_current_jac` (generators per (generator, phase) and the
  constant-current and -power parts of ZIP loads per (load, terminal)), and
  adds them to a copy of the bound data at their slots.

Sign conventions: each KCL row sums currents *leaving* the node, so passive
and load currents enter with ``+`` and source injections with ``-``.
Generator and constant-power/current load currents are injections/draws
``conj(S)/conj(V) = conj(S) V / |V|^2`` split into real and imaginary parts.
All Jacobian entries here are derived by hand and are checked against central
finite differences by the test suite before anything else trusts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .indexing import IndexMap, StateVector
from .linsys import CscPattern, compress_pattern
from .network import Connection, Network, PHASE_OFFSETS

__all__ = [
    "ZeroVoltageIterate",
    "GenModes",
    "GEN_VC",
    "GEN_PINNED",
    "GEN_FIXED",
    "DeviceParams",
    "effective_params",
    "build_virtual_shorts",
    "Companion",
    "BoundCompanion",
    "build_companion",
    "assemble_system",
]


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
        ng, nph = len(network.generators), network.nphase
        mode = np.full((ng, nph), GEN_VC, dtype=np.int8)
        mode[[not g.controls_voltage for g in network.generators]] = GEN_FIXED
        return cls(mode=mode, q_pin=np.zeros((ng, nph)))


# ---------------------------------------------------------------------------
# Effective (possibly homotopy-transformed) device parameters


@dataclass(frozen=True)
class DeviceParams:
    """Snapshot of the numeric parameters the stamps consume, stacked per
    device family in network order.

    Series admittances (``branch_y``, ``xfmr_y``) are ``(ndevice, nph, nph)``
    complex arrays; every other field is ``(ndevice, nph)``. ``gen_q`` is the
    fixed reactive power, 0 for voltage-controlling machines (their Q-slot
    lanes read the state instead). ``short_y`` is the admittance every
    virtual short carries; it is zero outside Tx stepping.

    Every array is read-only: continuation transforms share the arrays they
    leave unchanged with their base, so an in-place edit must fail.
    """

    branch_y: np.ndarray
    branch_bf: np.ndarray
    branch_bt: np.ndarray
    xfmr_y: np.ndarray
    xfmr_tap: np.ndarray
    xfmr_shift: np.ndarray
    shunt_y: np.ndarray
    gen_p: np.ndarray
    gen_q: np.ndarray
    zip_y: np.ndarray
    zip_i: np.ndarray
    zip_s: np.ndarray
    big_alpha: np.ndarray
    big_y: np.ndarray
    short_y: complex = 0j

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


def effective_params(network: Network) -> DeviceParams:
    """Identity parameter snapshot of the network as operated.

    Only switchable shunts engage their ``blocks_on`` susceptance blocks.
    """
    nph = network.nphase

    def stack(values, dtype=complex, *tail):
        # the empty leading block keeps an empty family's shape
        return np.concatenate([np.zeros((0, *tail)), *values], dtype=dtype).reshape(-1, nph, *tail)

    shunt_y = []
    for sh in network.shunts:
        engaged = sh.switchable and sh.block_b is not None
        b = sh.b + (sh.blocks_on * sh.block_b if engaged else 0.0)
        shunt_y.append(sh.g + 1j * b)
    return DeviceParams(
        branch_y=stack([br.y_series for br in network.branches], complex, nph),
        branch_bf=stack([br.b_from for br in network.branches], float),
        branch_bt=stack([br.b_to for br in network.branches], float),
        xfmr_y=stack([tx.y_series for tx in network.transformers], complex, nph),
        xfmr_tap=stack([tx.tap for tx in network.transformers], float),
        xfmr_shift=stack([tx.shift for tx in network.transformers], float),
        shunt_y=stack(shunt_y),
        gen_p=stack([g.p for g in network.generators], float),
        gen_q=stack([np.zeros(nph) if g.q is None else g.q for g in network.generators], float),
        zip_y=stack([ld.y for ld in network.zip_loads]),
        zip_i=stack([ld.i for ld in network.zip_loads]),
        zip_s=stack([ld.s for ld in network.zip_loads]),
        big_alpha=stack([ld.alpha for ld in network.big_loads]),
        big_y=stack([ld.y for ld in network.big_loads]),
    )


def build_virtual_shorts(network: Network) -> list[tuple[int, int]]:
    """``(o_bus, w_bus)`` per distinct remote-control pair (controller, target);
    continuation ties each pair with a lambda-scaled low-impedance path."""
    pairs = [
        (g.bus, g.remote_bus) for g in network.generators
        if g.controls_voltage and g.remote_bus is not None and g.remote_bus != g.bus
    ]
    return list(dict.fromkeys(pairs))


# ---------------------------------------------------------------------------
# Exact device currents and their hand-derived partials (elementwise)


def pv_current(p: float, q: float, vr: float, vi: float):
    """Injection current of a constant-P source, Q given."""
    d = vr * vr + vi * vi
    ir = (p * vr + q * vi) / d
    ii = (p * vi - q * vr) / d
    return ir, ii


def pv_current_jac(p, q, vr, vi):
    """Currents plus partials w.r.t. (vr, vi, q); scalars or arrays."""
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


def zip_current_jac(y, ic, s, ur, ui):
    """Currents plus the 2x2 Jacobian w.r.t. the device voltage (ur, ui).

    Elementwise over scalars or arrays. A zero ``s`` or ``ic`` contributes
    exactly nothing, so only lanes with a nonzero one need ``u != 0``.
    """
    y = np.asarray(y, dtype=complex)
    ic = np.asarray(ic, dtype=complex)
    s = np.asarray(s, dtype=complex)
    ir = y.real * ur - y.imag * ui
    ii = y.real * ui + y.imag * ur
    dir_dur, dir_dui = y.real, -y.imag
    dii_dur, dii_dui = y.imag, y.real
    d = ur * ur + ui * ui
    # constant power: divisions guarded where the part is absent
    ds = np.where(s != 0, d, 1.0)
    ds2 = ds * ds
    nr = s.real * ur + s.imag * ui
    ni = s.real * ui - s.imag * ur
    ir = ir + nr / ds
    ii = ii + ni / ds
    dir_dur = dir_dur + (s.real * ds - nr * 2.0 * ur) / ds2
    dir_dui = dir_dui + (s.imag * ds - nr * 2.0 * ui) / ds2
    dii_dur = dii_dur + (-s.imag * ds - ni * 2.0 * ur) / ds2
    dii_dui = dii_dui + (s.real * ds - ni * 2.0 * ui) / ds2
    # constant current magnitude at the load's own angle offset
    dc = np.where(ic != 0, d, 1.0)
    mag = np.abs(ic)
    ang = np.arctan2(ui, ur) - np.arctan2(ic.imag, ic.real)
    c, sn = np.cos(ang), np.sin(ang)
    ir = ir + mag * c
    ii = ii + mag * sn
    # d(angle)/dur = -ui/d, d(angle)/dui = ur/d
    dir_dur = dir_dur + mag * sn * ui / dc
    dir_dui = dir_dui + -mag * sn * ur / dc
    dii_dur = dii_dur + -mag * c * ui / dc
    dii_dui = dii_dui + mag * c * ur / dc
    return ir, ii, dir_dur, dir_dui, dii_dur, dii_dui


def invert_pv_current(ir: float, ii: float, vr: float, vi: float):
    """Recover (P, Q) from an injection current at a given voltage."""
    p = ir * vr + ii * vi
    q = ir * vi - ii * vr
    return p, q


# ---------------------------------------------------------------------------
# The companion system: laid out once per network, bound per parameter set


def _blocks(rows: np.ndarray, cols: np.ndarray):
    """Pattern of one real 2x2 block per (``V_R`` row, ``V_R`` col) pair,
    entry-major: all (R, R) entries, then (R, I), (I, R), (I, I)."""
    return (
        np.concatenate([rows, rows, rows + 1, rows + 1]),
        np.concatenate([cols, cols + 1, cols, cols + 1]),
    )


@dataclass(frozen=True)
class Companion:
    """The layout of a network's companion system, before any parameter set.

    It depends only on device endpoints, connections and the
    :class:`IndexMap`, so one layout serves every parameter set of a solve:
    continuation steps, taps and shunt blocks change values, never the layout.
    ``pattern`` is the whole fixed CSC pattern; ``linear_slots`` and
    ``nonlinear_slots`` are the slots of the values :meth:`bind` and
    :func:`assemble_system` emit, in emission order. Lanes are (generator,
    phase) and (ZIP load, terminal) in device order; indices are ``V_R``
    positions (``V_I`` follows each).
    """

    network: Network
    index: IndexMap
    pattern: CscPattern
    linear_slots: np.ndarray
    nonlinear_slots: np.ndarray
    n_short: int  # (virtual short, phase) lanes
    zip_delta: np.ndarray  # per ZIP load: delta connected
    big_v: np.ndarray  # node per BIG-load lane
    slack_vals: np.ndarray  # linear values of the slack rows
    slack_rhs: np.ndarray  # constant rhs of the slack set-points
    nonlinear_rhs_rows: np.ndarray
    gen_v: np.ndarray  # bus node per generator lane
    slot_lanes: np.ndarray  # generator lanes (k * nph + ph) with a Q slot, in slot order
    q_idx: np.ndarray  # Q unknown (and its constraint row) per slot lane
    vc_v: np.ndarray  # regulated node per slot lane
    vc_set: np.ndarray  # regulated magnitude per slot lane
    zip_a: np.ndarray  # + node per ZIP lane (the node itself for wye)
    zip_b: np.ndarray  # - node per delta lane
    delta_lanes: np.ndarray
    kcl_mask: np.ndarray  # rows whose mismatch counts: all but slack KCL rows

    def bind(self, params: DeviceParams) -> "BoundCompanion":
        """Reduce the linear part of ``params`` into CSC data over the
        pattern and take its lane parameters.

        Raises ``ValueError`` on a non-positive transformer tap.
        """
        tap = params.xfmr_tap
        bad = np.flatnonzero(np.any(tap <= 0, axis=1))
        if bad.size:
            tx = self.network.transformers[bad[0]]
            raise ValueError(
                f"transformer {tx.from_bus}-{tx.to_bus}: tap must be positive, "
                f"got {tap[bad[0]]}"
            )
        # complex admittance per laid-out triplet group, in layout order;
        # transformers stamp N^-* Y N^-1, -N^-* Y, -Y N^-1 and Y
        n = tap * np.exp(1j * params.xfmr_shift)
        n_row, n_col = n[:, :, None], n[:, None, :]
        yb, yt = params.branch_y, params.xfmr_y
        short = np.full(self.n_short, params.short_y)
        yz = params.zip_y
        yd = yz[self.zip_delta]
        groups = (
            yb, -yb, yb, -yb, 1j * params.branch_bf, 1j * params.branch_bt,
            yt / (np.conj(n_row) * n_col), -yt / np.conj(n_row), -yt / n_col, yt,
            params.shunt_y, params.big_y,
            short, -short, short, -short,
            yz, -yd, yd, -yd,
        )
        y = np.concatenate([g.ravel() for g in groups]).astype(complex)
        g, b = y.real, y.imag
        rhs = self.slack_rhs.copy()
        alpha = params.big_alpha.ravel()
        np.add.at(rhs, self.big_v, -alpha.real)
        np.add.at(rhs, self.big_v + 1, -alpha.imag)
        zip_i, zip_s = params.zip_i.ravel(), params.zip_s.ravel()
        data = np.bincount(
            self.linear_slots,
            weights=np.concatenate([g, -b, b, g, self.slack_vals]),
            minlength=self.pattern.indices.size,
        )
        data.setflags(write=False)
        return BoundCompanion(
            layout=self,
            linear_data=data,
            linear_rhs=rhs,
            gen_p=params.gen_p.ravel(),
            gen_q=params.gen_q.ravel(),
            zip_i=zip_i,
            zip_s=zip_s,
            zip_active=(zip_i != 0) | (zip_s != 0),
        )


@dataclass(frozen=True)
class BoundCompanion:
    """One parameter set's linear part as CSC data over the layout's pattern
    (read-only), its constant rhs and its lane parameters."""

    layout: Companion
    linear_data: np.ndarray
    linear_rhs: np.ndarray
    gen_p: np.ndarray  # per generator lane
    gen_q: np.ndarray  # fixed Q per lane; Q-slot lanes read the state
    zip_i: np.ndarray  # per ZIP lane
    zip_s: np.ndarray
    zip_active: np.ndarray  # lanes with a constant-current or -power part


def build_companion(network: Network, index: IndexMap) -> Companion:
    """Lay out the fixed pattern and the nonlinear lanes of ``network``."""
    nph = index.nphase
    vr, _ = index.voltage_indices()
    bus_pos = network.bus_index

    def nodes(buses) -> np.ndarray:
        """``V_R`` index per (device, phase), shape (ndevice, nph)."""
        return vr[:, [bus_pos[b] for b in buses]].T.reshape(-1, nph)

    def coupled(f, t):
        """Row and column grids of the nph x nph block between node sets."""
        return f[:, :, None], t[:, None, :]

    # the linear groups, in the order Companion.bind emits their admittances;
    # branches: y between the ends, charging to ground at each end
    brs = network.branches
    f, t = nodes([br.from_bus for br in brs]), nodes([br.to_bus for br in brs])
    grids = [coupled(f, f), coupled(f, t), coupled(t, t), coupled(t, f), (f, f), (t, t)]
    txs = network.transformers
    f, t = nodes([tx.from_bus for tx in txs]), nodes([tx.to_bus for tx in txs])
    grids += [coupled(f, f), coupled(f, t), coupled(t, f), coupled(t, t)]
    # shunts and BIG-load admittances to ground
    g = nodes([sh.bus for sh in network.shunts])
    bl = nodes([ld.bus for ld in network.big_loads])
    grids += [(g, g), (bl, bl)]
    # virtual shorts: y per phase between each controller and its target
    pairs = build_virtual_shorts(network)
    o, w = nodes([p[0] for p in pairs]), nodes([p[1] for p in pairs])
    grids += [(o, o), (o, w), (w, w), (w, o)]
    # ZIP impedance: wye to ground; delta terminal d spans phases d and d+1
    zl = network.zip_loads
    za = nodes([ld.bus for ld in zl])
    delta = np.array([ld.connection == Connection.DELTA for ld in zl], dtype=bool)
    zd = za[delta]
    zb = np.roll(zd, -1, axis=1)
    grids += [(za, za), (zd, zb), (zb, zb), (zb, zd)]
    parts = [np.broadcast_arrays(r, c) for r, c in grids]
    rows, cols = _blocks(
        np.concatenate([r.ravel() for r, _ in parts]),
        np.concatenate([c.ravel() for _, c in parts]),
    )

    # slack rows: the source current leaves through the network, the
    # constraint rows pin the node voltage
    slack = list(index.slack_positions)
    sv = vr[:, slack].T.ravel()
    si = np.array([index.slack_ir(p, ph) for p in slack for ph in range(nph)], dtype=np.intp)
    rows = np.concatenate([rows, sv, sv + 1, si, si + 1])
    cols = np.concatenate([cols, si, si + 1, sv, sv + 1])
    n_linear = rows.size
    ones = np.ones(sv.size)
    slack_rhs = np.zeros(index.dim)
    buses = [network.buses[p] for p in slack]
    v_set = np.array([b.v_set for b in buses], dtype=float)[:, None]
    angle = np.array([b.angle for b in buses], dtype=float)[:, None]
    vset = (v_set * np.exp(1j * (angle + PHASE_OFFSETS[network.domain]))).ravel()
    slack_rhs[si] = vset.real
    slack_rhs[si + 1] = vset.imag
    kcl_mask = np.ones(index.dim, dtype=bool)  # the source absorbs slack KCL mismatch
    kcl_mask[sv] = False
    kcl_mask[sv + 1] = False

    # generator lanes; Q-slot lanes also carry the dI/dQ column and the
    # constraint row (diagonal plus both regulated-voltage columns)
    gens = network.generators
    gen_v = nodes([gen.bus for gen in gens]).ravel()
    vc_gens = np.array(index.vc_gen_positions, dtype=np.intp)
    slot_lanes = (vc_gens[:, None] * nph + np.arange(nph)).ravel()
    q_idx = np.array(
        [index.q_gen(k, ph) for k in index.vc_gen_positions for ph in range(nph)], dtype=np.intp
    )
    targets = [gens[k].target_bus() for k in index.vc_gen_positions]
    vc_v = nodes(targets).ravel()
    vc_set = np.repeat(np.array([network.bus(b).v_set for b in targets], dtype=float), nph)
    gv = gen_v[slot_lanes]
    za, zd, zb = za.ravel(), zd.ravel(), zb.ravel()
    nl_rows, nl_cols = zip(
        _blocks(gen_v, gen_v),
        (np.concatenate([gv, gv + 1]), np.concatenate([q_idx, q_idx])),
        (np.concatenate([q_idx, q_idx, q_idx]), np.concatenate([q_idx, vc_v, vc_v + 1])),
        _blocks(za, za),
        _blocks(zd, zb),
        _blocks(zb, zd),
        _blocks(zb, zb),
    )
    pattern, slots = compress_pattern(
        index.dim, np.concatenate([rows, *nl_rows]), np.concatenate([cols, *nl_cols])
    )
    return Companion(
        network=network,
        index=index,
        pattern=pattern,
        linear_slots=slots[:n_linear],
        nonlinear_slots=slots[n_linear:],
        n_short=o.size,
        zip_delta=delta,
        big_v=bl.ravel(),
        slack_vals=np.concatenate([-ones, -ones, ones, ones]),
        slack_rhs=slack_rhs,
        nonlinear_rhs_rows=np.concatenate([gen_v, gen_v + 1, q_idx, za, za + 1, zb, zb + 1]),
        gen_v=gen_v,
        slot_lanes=slot_lanes,
        q_idx=q_idx,
        vc_v=vc_v,
        vc_set=vc_set,
        zip_a=za,
        zip_b=zb,
        delta_lanes=np.flatnonzero(np.repeat(delta, nph)),
        kcl_mask=kcl_mask,
    )


def _check_nonzero(bound: BoundCompanion, vr, vi, ur, ui) -> None:
    """Raise :class:`ZeroVoltageIterate` for the first generator lane, then
    the first active ZIP lane, sitting at zero voltage."""
    net = bound.layout.network
    nph = bound.layout.index.nphase
    hit = np.flatnonzero((vr == 0.0) & (vi == 0.0))
    if hit.size:
        k, ph = divmod(int(hit[0]), nph)
        gen = net.generators[k]
        raise ZeroVoltageIterate(f"gen {gen.id}", gen.bus, ph)
    hit = np.flatnonzero(bound.zip_active & (ur == 0.0) & (ui == 0.0))
    if hit.size:
        k, ph = divmod(int(hit[0]), nph)
        load = net.zip_loads[k]
        raise ZeroVoltageIterate(f"zip {load.id}", load.bus, ph)


def assemble_system(
    bound: BoundCompanion,
    state: StateVector,
    zeta: float = 1.0,
    modes: GenModes | None = None,
):
    """Companion system at the iterate; returns ``(data, rhs)``: the CSC data
    over ``bound.layout.pattern`` and the dense right-hand side.

    The bound linear data is copied and the nonlinear values are added at
    their slots in layout order, so every slot sums its values in the same
    order on every call. Generator voltage derivatives are scaled by the damping
    factor ``zeta``; the dI/dQ column is left unscaled. Pinned Q-slot rows
    become identity pins at ``modes.q_pin``.
    """
    c = bound.layout
    if modes is None:
        modes = GenModes.initial(c.network)
    x = state.x
    vr, vi = x[c.gen_v], x[c.gen_v + 1]
    ur, ui = x[c.zip_a], x[c.zip_a + 1]
    ur[c.delta_lanes] -= x[c.zip_b]
    ui[c.delta_lanes] -= x[c.zip_b + 1]
    _check_nonzero(bound, vr, vi, ur, ui)

    # generators: injections enter KCL with a minus sign
    slot = c.slot_lanes
    q = bound.gen_q.copy()
    q[slot] = x[c.q_idx]
    ir, ii, dir_dvr, dir_dvi, dii_dvr, dii_dvi, dir_dq, dii_dq = pv_current_jac(
        bound.gen_p, q, vr, vi
    )
    gen_r = ir - zeta * (dir_dvr * vr + dir_dvi * vi)
    gen_i = ii - zeta * (dii_dvr * vr + dii_dvi * vi)
    gen_r[slot] -= dir_dq[slot] * q[slot]
    gen_i[slot] -= dii_dq[slot] * q[slot]

    # Q-slot rows: |V_w|^2 = vset^2 linearized, or the pin while at a limit
    pinned = modes.mode.ravel()[slot] == GEN_PINNED
    wr, wi = x[c.vc_v], x[c.vc_v + 1]
    vc_rhs = np.where(
        pinned, modes.q_pin.ravel()[slot], -(c.vc_set * c.vc_set + wr * wr + wi * wi)
    )

    # ZIP constant-current and constant-power parts; delta terminals stamp
    # +J on the + node and -J on the - node
    zr, zi, dzr_dur, dzr_dui, dzi_dur, dzi_dui = zip_current_jac(
        0.0, bound.zip_i, bound.zip_s, ur, ui
    )
    zip_r = dzr_dur * ur + dzr_dui * ui - zr
    zip_im = dzi_dur * ur + dzi_dui * ui - zi
    jac = np.stack([dzr_dur, dzr_dui, dzi_dur, dzi_dui])
    dl = c.delta_lanes
    jd = jac[:, dl].ravel()

    vals = np.concatenate([
        -zeta * dir_dvr, -zeta * dir_dvi, -zeta * dii_dvr, -zeta * dii_dvi,
        -dir_dq[slot], -dii_dq[slot],
        pinned.astype(float), np.where(pinned, 0.0, -2.0 * wr), np.where(pinned, 0.0, -2.0 * wi),
        jac.ravel(), -jd, -jd, jd,
    ])
    data = bound.linear_data.copy()
    # lanes share slots (a generator and a load on one bus, neighbouring
    # delta terminals): add in layout order, never pre-reduced
    np.add.at(data, c.nonlinear_slots, vals)
    nl_rhs = np.concatenate([gen_r, gen_i, vc_rhs, zip_r, zip_im, -zip_r[dl], -zip_im[dl]])
    rhs = np.bincount(c.nonlinear_rhs_rows, weights=nl_rhs, minlength=c.index.dim)
    return data, rhs + bound.linear_rhs
