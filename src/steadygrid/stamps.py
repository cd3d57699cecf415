"""Linearization of the nodal equations: the companion system.

The companion system ``A x = b`` has the *next* iterate ``x^{k+1}`` as its
solution. For a nonlinear device current ``I(v)`` it holds the first-order
expansion around the current iterate, so

    A(x_k) x_k - b(x_k)  ==  F(x_k)

is exactly the nonlinear KCL/constraint residual. It is built in two parts:

* the **linear part** depends only on the parameter set: branches and their
  charging, transformers (``n = tap * exp(j shift)`` on the from side),
  virtual shorts, shunts, BIG loads, the impedance part of ZIP loads (wye to
  ground, delta between two phase nodes) and the slack rows. One vectorised
  primitive turns their complex admittance blocks into real triplets.
  :func:`build_companion` makes it once per parameter set;
* the **nonlinear part** holds generators per (generator, phase) and the
  constant-current and constant-power parts of ZIP loads per (load,
  terminal). :func:`assemble_system` only computes their values at the
  iterate, elementwise over arrays, with :func:`pv_current_jac` and
  :func:`zip_current_jac`.

The pattern depends only on the network: zero-valued shunts, loads,
charging and virtual shorts (one per remote-control pair, open outside Tx
stepping) emit explicit zeros, and every Q-slot row emits its diagonal and
both regulated-voltage columns whether the generator is free or pinned at a
limit. Assemblies at any iterate, generator mode or parameter values
therefore share (rows, cols).

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
    identity snapshot reproduces the Network exactly. ``short_y`` is the
    admittance every virtual short carries; it is zero outside Tx stepping.
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
    short_y: complex = 0j


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
    )


def build_virtual_shorts(network: Network) -> list[tuple[int, int]]:
    """``(o_bus, w_bus)`` per distinct remote-control pair (controller, target);
    continuation ties each pair with a lambda-scaled low-impedance path."""
    pairs = []
    for g in network.generators:
        if g.controls_voltage and g.remote_bus is not None and g.remote_bus != g.bus:
            if (g.bus, g.remote_bus) not in pairs:
                pairs.append((g.bus, g.remote_bus))
    return pairs


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
# The companion system of one parameter set


def _blocks(rows: np.ndarray, cols: np.ndarray):
    """Pattern of one real 2x2 block per (``V_R`` row, ``V_R`` col) pair,
    entry-major: all (R, R) entries, then (R, I), (I, R), (I, I)."""
    return (
        np.concatenate([rows, rows, rows + 1, rows + 1]),
        np.concatenate([cols, cols + 1, cols, cols + 1]),
    )


def _add_complex_y(blocks):
    """Real triplets of the currents ``y V[col]`` leaving node ``row``.

    ``blocks`` holds ``(rows, cols, y)`` groups of ``V_R`` indices and complex
    admittances, each group broadcast to one shape.
    """
    parts = [np.broadcast_arrays(r, c, y) for r, c, y in blocks]
    rows = np.concatenate([r.ravel() for r, _, _ in parts])
    cols = np.concatenate([c.ravel() for _, c, _ in parts])
    y = np.concatenate([y.ravel() for _, _, y in parts]).astype(complex)
    g, b = y.real, y.imag
    return (*_blocks(rows, cols), np.concatenate([g, -b, b, g]))


def _stack(values, shape, dtype=complex) -> np.ndarray:
    """Per-device parameter arrays as one (ndevice, *shape) array."""
    return np.array(values, dtype=dtype).reshape((-1, *shape))


@dataclass(frozen=True)
class Companion:
    """The companion system of one parameter set, before any iterate.

    ``rows``/``cols`` is the whole fixed pattern: the linear triplets first
    (values ``linear_vals``, constant right-hand side ``linear_rhs``), then
    the nonlinear slots in the order :func:`assemble_system` fills them.
    Lanes are (generator, phase) and (ZIP load, terminal) in device order;
    indices are ``V_R`` positions (``V_I`` follows each).
    """

    network: Network
    index: IndexMap
    rows: np.ndarray
    cols: np.ndarray
    linear_vals: np.ndarray
    linear_rhs: np.ndarray
    nonlinear_rhs_rows: np.ndarray
    gen_v: np.ndarray  # bus node per generator lane
    gen_p: np.ndarray
    gen_q: np.ndarray  # fixed Q per lane; Q-slot lanes read the state
    slot_lanes: np.ndarray  # generator lanes (k * nph + ph) with a Q slot, in slot order
    q_idx: np.ndarray  # Q unknown (and its constraint row) per slot lane
    vc_v: np.ndarray  # regulated node per slot lane
    vc_set: np.ndarray  # regulated magnitude per slot lane
    zip_a: np.ndarray  # + node per ZIP lane (the node itself for wye)
    zip_b: np.ndarray  # - node per delta lane
    delta_lanes: np.ndarray
    zip_i: np.ndarray
    zip_s: np.ndarray
    zip_active: np.ndarray  # lanes with a constant-current or -power part


def build_companion(network: Network, params: DeviceParams, index: IndexMap) -> Companion:
    """Stamp the linear part and lay out the nonlinear lanes.

    Raises ``ValueError`` on a non-positive transformer tap.
    """
    nph = index.nphase
    vr, _ = index.voltage_indices()
    bus_pos = network.bus_index

    def nodes(buses) -> np.ndarray:
        """``V_R`` index per (device, phase), shape (ndevice, nph)."""
        return vr[:, [bus_pos[b] for b in buses]].T.reshape(-1, nph)

    def coupled(f, t):
        """Row and column grids of the nph x nph block between node sets."""
        return f[:, :, None], t[:, None, :]

    blocks = []
    # branches: y between the ends, charging to ground at each end
    brs = network.branches
    f, t = nodes([br.from_bus for br in brs]), nodes([br.to_bus for br in brs])
    y = _stack(params.branch_y, (nph, nph))
    blocks += [
        (*coupled(f, f), y), (*coupled(f, t), -y), (*coupled(t, t), y), (*coupled(t, f), -y)
    ]
    blocks += [
        (f, f, 1j * _stack(params.branch_bf, (nph,), float)),
        (t, t, 1j * _stack(params.branch_bt, (nph,), float)),
    ]
    # transformers: blocks N^-* Y N^-1, -N^-* Y, -Y N^-1 and Y
    txs = network.transformers
    tap = _stack(params.xfmr_tap, (nph,), float)
    bad = np.flatnonzero(np.any(tap <= 0, axis=1))
    if bad.size:
        tx = txs[bad[0]]
        raise ValueError(
            f"transformer {tx.from_bus}-{tx.to_bus}: tap must be positive, "
            f"got {params.xfmr_tap[bad[0]]}"
        )
    n = tap * np.exp(1j * _stack(params.xfmr_shift, (nph,), float))
    n_row, n_col = n[:, :, None], n[:, None, :]
    f, t = nodes([tx.from_bus for tx in txs]), nodes([tx.to_bus for tx in txs])
    y = _stack(params.xfmr_y, (nph, nph))
    blocks += [
        (*coupled(f, f), y / (np.conj(n_row) * n_col)),
        (*coupled(f, t), -y / np.conj(n_row)),
        (*coupled(t, f), -y / n_col),
        (*coupled(t, t), y),
    ]
    # shunts and BIG-load admittances to ground
    g = nodes([sh.bus for sh in network.shunts])
    blocks.append((g, g, _stack(params.shunt_y, (nph,))))
    bl = nodes([ld.bus for ld in network.big_loads])
    blocks.append((bl, bl, _stack(params.big_y, (nph,))))
    # virtual shorts: y per phase between each controller and its target
    pairs = build_virtual_shorts(network)
    o, w = nodes([p[0] for p in pairs]), nodes([p[1] for p in pairs])
    y = params.short_y
    blocks += [(o, o, y), (o, w, -y), (w, w, y), (w, o, -y)]
    # ZIP impedance: wye to ground; delta terminal d spans phases d and d+1
    zl = network.zip_loads
    za = nodes([ld.bus for ld in zl])
    delta = np.array([ld.connection == Connection.DELTA for ld in zl], dtype=bool)
    zd = za[delta]
    zb = np.roll(zd, -1, axis=1)
    y = _stack(params.zip_y, (nph,))
    yd = y[delta]
    blocks += [(za, za, y), (zd, zb, -yd), (zb, zb, yd), (zb, zd, -yd)]
    rows, cols, vals = _add_complex_y(blocks)

    # slack rows: the source current leaves through the network, the
    # constraint rows pin the node voltage
    slack = list(index.slack_positions)
    sv = vr[:, slack].T.ravel()
    si = np.array([index.slack_ir(p, ph) for p in slack for ph in range(nph)], dtype=np.intp)
    rows = np.concatenate([rows, sv, sv + 1, si, si + 1])
    cols = np.concatenate([cols, si, si + 1, sv, sv + 1])
    ones = np.ones(sv.size)
    linear_vals = np.concatenate([vals, -ones, -ones, ones, ones])
    linear_rhs = np.zeros(index.dim)
    buses = [network.buses[p] for p in slack]
    v_set = np.array([b.v_set for b in buses], dtype=float)[:, None]
    angle = np.array([b.angle for b in buses], dtype=float)[:, None]
    vset = (v_set * np.exp(1j * (angle + PHASE_OFFSETS[network.domain]))).ravel()
    linear_rhs[si] = vset.real
    linear_rhs[si + 1] = vset.imag
    alpha = _stack(params.big_alpha, (nph,)).ravel()
    np.add.at(linear_rhs, bl.ravel(), -alpha.real)
    np.add.at(linear_rhs, bl.ravel() + 1, -alpha.imag)

    # generator lanes; Q-slot lanes also carry the dI/dQ column and the
    # constraint row (diagonal plus both regulated-voltage columns)
    gens = network.generators
    gen_v = nodes([gen.bus for gen in gens]).ravel()
    vc_gens = np.array(index.vc_gen_positions, dtype=np.intp)
    fixed = [
        np.zeros(nph) if q is None or index.has_q_slot(k) else q
        for k, q in enumerate(params.gen_q)
    ]
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
    zip_i = _stack(params.zip_i, (nph,)).ravel()
    zip_s = _stack(params.zip_s, (nph,)).ravel()
    return Companion(
        network=network,
        index=index,
        rows=np.concatenate([rows, *nl_rows]),
        cols=np.concatenate([cols, *nl_cols]),
        linear_vals=linear_vals,
        linear_rhs=linear_rhs,
        nonlinear_rhs_rows=np.concatenate([gen_v, gen_v + 1, q_idx, za, za + 1, zb, zb + 1]),
        gen_v=gen_v,
        gen_p=_stack(params.gen_p, (nph,), float).ravel(),
        gen_q=_stack(fixed, (nph,), float).ravel(),
        slot_lanes=slot_lanes,
        q_idx=q_idx,
        vc_v=vc_v,
        vc_set=vc_set,
        zip_a=za,
        zip_b=zb,
        delta_lanes=np.flatnonzero(np.repeat(delta, nph)),
        zip_i=zip_i,
        zip_s=zip_s,
        zip_active=(zip_i != 0) | (zip_s != 0),
    )


def _check_nonzero(companion: Companion, vr, vi, ur, ui) -> None:
    """Raise :class:`ZeroVoltageIterate` for the first generator lane, then
    the first active ZIP lane, sitting at zero voltage."""
    net = companion.network
    nph = companion.index.nphase
    hit = np.flatnonzero((vr == 0.0) & (vi == 0.0))
    if hit.size:
        k, ph = divmod(int(hit[0]), nph)
        gen = net.generators[k]
        raise ZeroVoltageIterate(f"gen {gen.id}", gen.bus, ph)
    hit = np.flatnonzero(companion.zip_active & (ur == 0.0) & (ui == 0.0))
    if hit.size:
        k, ph = divmod(int(hit[0]), nph)
        load = net.zip_loads[k]
        raise ZeroVoltageIterate(f"zip {load.id}", load.bus, ph)


def assemble_system(
    companion: Companion,
    state: StateVector,
    zeta: float = 1.0,
    modes: GenModes | None = None,
):
    """Companion system at the iterate; returns ``(rows, cols, vals, rhs)``.

    ``rows``/``cols`` are the companion's fixed pattern (the same arrays on
    every call), ``vals`` their values and ``rhs`` the dense right-hand side.

    The linear part is copied as built; the nonlinear values fill their fixed
    slots. Generator voltage derivatives are scaled by the damping factor
    ``zeta``; the dI/dQ column is left unscaled. Pinned Q-slot rows become
    identity pins at ``modes.q_pin``.
    """
    c = companion
    if modes is None:
        modes = GenModes.initial(c.network)
    x = state.x
    vr, vi = x[c.gen_v], x[c.gen_v + 1]
    ur, ui = x[c.zip_a], x[c.zip_a + 1]
    ur[c.delta_lanes] -= x[c.zip_b]
    ui[c.delta_lanes] -= x[c.zip_b + 1]
    _check_nonzero(c, vr, vi, ur, ui)

    # generators: injections enter KCL with a minus sign
    slot = c.slot_lanes
    q = c.gen_q.copy()
    q[slot] = x[c.q_idx]
    ir, ii, dir_dvr, dir_dvi, dii_dvr, dii_dvi, dir_dq, dii_dq = pv_current_jac(c.gen_p, q, vr, vi)
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
    zr, zi, dzr_dur, dzr_dui, dzi_dur, dzi_dui = zip_current_jac(0.0, c.zip_i, c.zip_s, ur, ui)
    zip_r = dzr_dur * ur + dzr_dui * ui - zr
    zip_im = dzi_dur * ur + dzi_dui * ui - zi
    jac = np.stack([dzr_dur, dzr_dui, dzi_dur, dzi_dui])
    dl = c.delta_lanes
    jd = jac[:, dl].ravel()

    vals = np.concatenate([
        c.linear_vals,
        -zeta * dir_dvr, -zeta * dir_dvi, -zeta * dii_dvr, -zeta * dii_dvi,
        -dir_dq[slot], -dii_dq[slot],
        pinned.astype(float), np.where(pinned, 0.0, -2.0 * wr), np.where(pinned, 0.0, -2.0 * wi),
        jac.ravel(), -jd, -jd, jd,
    ])
    nl_rhs = np.concatenate([gen_r, gen_i, vc_rhs, zip_r, zip_im, -zip_r[dl], -zip_im[dl]])
    rhs = np.bincount(c.nonlinear_rhs_rows, weights=nl_rhs, minlength=c.index.dim) + c.linear_rhs
    return c.rows, c.cols, vals, rhs
