"""Linearization of the nodal equations: the companion system.

The companion system ``A x = b`` has the *next* iterate ``x^{k+1}`` as its
solution. For a nonlinear device current ``I(v)`` it holds the first-order
expansion around the current iterate, so

    A(x_k) x_k - b(x_k)  ==  F(x_k)

is exactly the nonlinear KCL/constraint residual. It is made in three steps:

* :func:`build_companion` **lays it out** once per network from device
  endpoints, connections and the :class:`IndexMap`: the whole fixed pattern
  as CSC with the slot of every value, the node array of every device
  family, the generator and ZIP lanes, the Q-slot rows and the KCL mask.
  Zero-valued shunts, loads, charging and virtual shorts (one per
  remote-control pair, open outside Tx stepping) keep their explicit zeros,
  and every Q-slot row keeps its diagonal and both regulated-voltage columns
  whether the generator is free or pinned;
* :meth:`Companion.bind` **binds** one parameter set (:class:`DeviceParams`,
  stacked arrays) in two parts: the linear part (branches and charging,
  transformers with ``n = tap * exp(j shift)`` on the from side, virtual
  shorts, shunts, BIG loads, wye and delta ZIP impedance, slack rows)
  reduced into CSC data, read from :data:`LINEAR_FIELDS`; and the lane part,
  the lane parameters and the constant rhs, read from :data:`LANE_FIELDS`.
  Given the bound of the previous parameter set, it takes each part whose
  fields are the same objects there (``short_y`` the same value) from that
  bound instead of computing it again: a power step moves only the lanes,
  a Tx step only the linear part. Continuation steps, taps and shunt blocks
  change only this step;
* :func:`assemble_system` computes the nonlinear values at the iterate in
  closed form over complex lanes (generators per (generator, phase), the
  constant-current and -power parts of ZIP loads per (load, terminal)) and
  adds them to a copy of the bound data at their slots.

Sign conventions: each KCL row sums currents *leaving* the node, so passive
and load currents enter with ``+`` and source injections with ``-``.

A lane at voltage ``u`` (a node voltage, or the voltage across a delta
terminal) with constant power ``s`` and constant current ``c`` carries

    I = u (conj(s) / |u|^2 + conj(c) / |u|)

(a generator is a lane with ``s = P + jQ`` and ``c = 0``). The
constant-current part ``conj(c) u / |u| = |c| e^{j(angle(u) - angle(c))}``
needs no trigonometry. With ``a = conj(c) / (2|u|)`` and
``h = conj(s) / |u|^2 + a``, the current is ``I = u (h + a)``, its
derivatives are ``dI/du = a`` and ``dI/dconj(u) = -h u^2 / |u|^2``, so
``dI/dRe(u) = a - b`` and ``dI/dIm(u) = j (a + b)`` with
``b = h u^2 / |u|^2``, and a generator's ``dI/dQ = -j u / |u|^2``. Both
parts are homogeneous in ``u`` (of degree -1 and 0), so ``J u = -u h + u a``
and the companion right-hand sides need no Jacobian product:
``J u - I = -2 u h`` on a load lane, and on a generator lane
``I - zeta J v - (dI/dQ) Q = (1 + zeta) I + j v Q / |v|^2`` (the ``Q`` term
on Q-slot lanes only). The test suite checks every Jacobian entry against
central finite differences of scalar reference currents before anything
else trusts them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .indexing import IndexMap, StateVector
from .linsys import CscPattern, compress_pattern
from .network import Connection, Network, PHASE_OFFSETS

__all__ = [
    "ZeroVoltageIterate",
    "GenModes",
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
# Q-slot pins (solver working state, never stored on the Network)


@dataclass
class GenModes:
    """Which Q-slot lanes are pinned at a limit, and at what Q: arrays over
    the lanes, in :attr:`IndexMap.q_rows` order. A pinned lane's constraint
    row holds its Q at ``q_pin``, so its bus behaves as PQ; a free lane's
    row regulates the voltage."""

    pinned: np.ndarray  # bool per lane
    q_pin: np.ndarray  # float per lane, read where pinned

    @classmethod
    def initial(cls, index: IndexMap) -> "GenModes":
        """Every lane free."""
        n = index.q_rows.size
        return cls(pinned=np.zeros(n, dtype=bool), q_pin=np.zeros(n))


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

    def without_series(self, branches, transformers) -> "DeviceParams":
        """These parameters without the branches and transformers at the
        given positions: the same bits as :func:`effective_params` of the
        network without them. The other families' arrays are shared."""
        return replace(
            self,
            branch_y=np.delete(self.branch_y, branches, axis=0),
            branch_bf=np.delete(self.branch_bf, branches, axis=0),
            branch_bt=np.delete(self.branch_bt, branches, axis=0),
            xfmr_y=np.delete(self.xfmr_y, transformers, axis=0),
            xfmr_tap=np.delete(self.xfmr_tap, transformers, axis=0),
            xfmr_shift=np.delete(self.xfmr_shift, transformers, axis=0),
        )


# the DeviceParams fields each part of Companion.bind reads: the linear
# part's CSC data, and the lane part's lane parameters and constant rhs
LINEAR_FIELDS = ("branch_y", "branch_bf", "branch_bt", "xfmr_y", "xfmr_tap", "xfmr_shift",
                 "shunt_y", "big_y", "zip_y", "short_y")
LANE_FIELDS = ("gen_p", "gen_q", "zip_i", "zip_s", "big_alpha")


def _same_fields(a: DeviceParams, b: DeviceParams, fields) -> bool:
    """Every field of ``fields`` is the same array object in ``a`` and
    ``b``, or, for a scalar, the same value."""
    for name in fields:
        x, y = getattr(a, name), getattr(b, name)
        if x is not y and (isinstance(x, np.ndarray) or x != y):
            return False
    return True


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
    :func:`assemble_system` emit, in emission order, ``linear_owner`` the
    series device each linear value belongs to (:meth:`without_series`), and
    ``nonlinear_rhs_rows`` the rows of the right-hand side values
    :func:`assemble_system` emits. Lanes are (generator,
    phase), then (ZIP load, terminal), in device order. Lane, regulated and
    delta nodes are complex node numbers: node ``k`` is ``V_R`` at ``2k``
    and ``V_I`` at ``2k + 1``, the ``k``-th entry of the complex view of the
    state's voltages. ``zip_loads`` (the network's tuple) names the ZIP
    lanes in errors, as ``index.generators`` names the generator lanes;
    neither the layout nor its index refers to the network itself.
    """

    index: IndexMap
    zip_loads: tuple
    pattern: CscPattern
    linear_slots: np.ndarray
    linear_owner: np.ndarray  # branch k is k, transformer k is nbranch + k, any other device -1
    nonlinear_slots: np.ndarray
    n_short: int  # (virtual short, phase) lanes
    zip_delta: np.ndarray  # per ZIP load: delta connected
    big_v: np.ndarray  # node per BIG-load lane
    slack_vals: np.ndarray  # linear values of the slack rows
    slack_rhs: np.ndarray  # constant rhs of the slack set-points
    nonlinear_rhs_rows: np.ndarray
    lane_v: np.ndarray  # node per lane; a ZIP lane's + node (the node itself for wye)
    n_gen: int  # generator lanes, which lead the lanes
    slot_lanes: np.ndarray  # generator lane (k * nph + ph) per Q-slot lane
    vc_v: np.ndarray  # regulated node per slot lane
    vc_sq: np.ndarray  # squared regulated magnitude per slot lane
    delta_lanes: np.ndarray  # lanes of delta terminals
    zip_b: np.ndarray  # - node per delta lane
    delta_src: np.ndarray  # where each delta-block value sits among the lanes' dI/du values
    delta_sign: np.ndarray  # its sign there
    kcl_mask: np.ndarray  # rows whose mismatch counts: all but slack KCL rows

    def __post_init__(self):
        # a layout serves every solve of its network: an in-place edit must fail
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def without_series(self, removed) -> "Companion":
        """This layout for the network without the series devices at the
        positions ``removed`` (numbered as in ``linear_owner``).

        Their linear values leave :meth:`bind`'s emission and the rest keep
        their order, so every slot sums the values it gets from the smaller
        network in the same order. The pattern stays, with the removed
        entries as explicit zeros, and with it the pattern's factorization
        plan, so nothing is compressed or ordered again.
        """
        removed = np.unique(np.asarray(removed, dtype=np.intp))
        keep = ~np.isin(self.linear_owner, removed)
        owner = self.linear_owner[keep]
        # the devices left are numbered as in the smaller network's own layout
        owner = np.where(owner < 0, owner, owner - np.searchsorted(removed, owner))
        return replace(self, linear_slots=self.linear_slots[keep], linear_owner=owner)

    def bind(self, params: DeviceParams, previous: "BoundCompanion | None" = None
             ) -> "BoundCompanion":
        """Reduce the linear part of ``params`` into CSC data over the
        pattern and take its lane part: the lane parameters and the
        constant rhs.

        ``previous``, a bound of this layout, gives each part whose fields
        (:data:`LINEAR_FIELDS`, :data:`LANE_FIELDS`) are the same objects in
        ``params`` as in ``previous.params``: those arrays are read-only, so
        the part is the same bytes a fresh bind computes.

        Every tap in ``params`` is positive: ``validate`` requires a
        positive tap table holding every tap, the outer loop clips taps into
        that table, and Tx stepping moves them toward 1.
        """
        prior = previous.params if previous is not None and previous.layout is self else None
        if prior is not None and _same_fields(params, prior, LINEAR_FIELDS):
            data = previous.linear_data
        else:
            data = self._linear_data(params)
        if prior is not None and _same_fields(params, prior, LANE_FIELDS):
            lanes = {name: getattr(previous, name) for name in _LANE_PART}
        else:
            lanes = self._lane_part(params)
        return BoundCompanion(layout=self, params=params, linear_data=data, **lanes)

    def _linear_data(self, params: DeviceParams) -> np.ndarray:
        """The CSC data of the linear part of ``params``."""
        # complex admittance per laid-out triplet group, in layout order; a
        # family the network lacks has empty arrays and lays out no triplet,
        # so it is skipped
        groups = []
        if params.branch_y.size:
            yb = params.branch_y
            groups += [yb, -yb, yb, -yb, 1j * params.branch_bf, 1j * params.branch_bt]
        if params.xfmr_y.size:
            # transformers stamp N^-* Y N^-1, -N^-* Y, -Y N^-1 and Y
            n = params.xfmr_tap * np.exp(1j * params.xfmr_shift)
            n_row, n_col = n[:, :, None], n[:, None, :]
            yt = params.xfmr_y
            groups += [yt / (np.conj(n_row) * n_col), -yt / np.conj(n_row), -yt / n_col, yt]
        groups += [params.shunt_y, params.big_y]
        if self.n_short:
            short = np.full(self.n_short, params.short_y)
            groups += [short, -short, short, -short]
        yz = params.zip_y
        groups.append(yz)
        if self.delta_lanes.size:
            yd = yz[self.zip_delta]
            groups += [-yd, yd, -yd]
        y = np.concatenate([g.ravel() for g in groups], dtype=complex)
        g, b = y.real, y.imag
        return np.bincount(
            self.linear_slots,
            weights=np.concatenate([g, -b, b, g, self.slack_vals]),
            minlength=self.pattern.indices.size,
        )

    def _lane_part(self, params: DeviceParams) -> dict:
        """The :class:`BoundCompanion` fields of the lane part of ``params``."""
        rhs = self.slack_rhs.copy()
        if self.big_v.size:
            alpha = params.big_alpha.ravel()
            np.add.at(rhs, self.big_v, -alpha.real)
            np.add.at(rhs, self.big_v + 1, -alpha.imag)
        gen_p, zip_i, zip_s = params.gen_p.ravel(), params.zip_i.ravel(), params.zip_s.ravel()
        lane_cc = np.concatenate([np.zeros(gen_p.size), np.conj(zip_i)])
        lane_live = np.concatenate([np.ones(gen_p.size, bool), (zip_i != 0) | (zip_s != 0)])
        return dict(
            linear_rhs=rhs,
            lane_cs=np.concatenate([gen_p - 1j * params.gen_q.ravel(), np.conj(zip_s)]),
            lane_cc=lane_cc,
            lane_live=lane_live,
            # with every lane_cc zero a pass adds the scalar 0j; a zero that
            # differs only in sign never reaches data or rhs, whose sums
            # start from bincount's +0
            has_cc=bool(np.count_nonzero(lane_cc)),
            all_live=np.count_nonzero(lane_live) == lane_live.size,
        )


# the BoundCompanion fields of the lane part, which Companion._lane_part returns
_LANE_PART = ("linear_rhs", "lane_cs", "lane_cc", "lane_live", "has_cc", "all_live")


@dataclass(frozen=True)
class BoundCompanion:
    """One parameter set's linear part as CSC data over the layout's pattern,
    its constant rhs and its lane parameters, with the ``params`` they were
    bound from.

    ``has_cc`` and ``all_live`` tell :func:`assemble_system` which of its
    steps a pass can skip: with no constant-current part, every lane's
    ``a`` term is exactly ``0j``; with every lane live, no magnitude needs
    masking.

    Every array is read-only: a later bind shares the parts its parameter
    set did not move (:meth:`Companion.bind`), so an in-place edit must fail.
    """

    layout: Companion
    params: DeviceParams
    linear_data: np.ndarray
    linear_rhs: np.ndarray
    lane_cs: np.ndarray  # conj(s) per lane: P - jQ with the fixed Q (0 on Q-slot lanes)
    lane_cc: np.ndarray  # conj(c) per lane, 0 on generator lanes
    lane_live: np.ndarray  # generator lanes and ZIP lanes with a constant-current or -power part
    has_cc: bool  # some lane has a constant-current part
    all_live: bool  # every lane is live

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


def build_companion(network: Network, index: IndexMap) -> Companion:
    """Lay out the fixed pattern and the nonlinear lanes of ``network``."""
    nph = index.nphase
    bus_pos = network.bus_index
    phase_base = 2 * index.nbus * np.arange(nph)  # V_R of each phase's first node

    def nodes(buses) -> np.ndarray:
        """``V_R`` index per (device, phase), shape (ndevice, nph)."""
        return 2 * np.array([bus_pos[b] for b in buses], dtype=np.intp)[:, None] + phase_base

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
    # the series device of each entry: the branch and transformer grids lead,
    # device-major, with the same number of entries per device
    series = [np.arange(len(brs))] * 6 + [len(brs) + np.arange(len(txs))] * 4
    owner = [np.repeat(d, r.size // max(d.size, 1)) for d, (r, _) in zip(series, parts)]
    owner.append(np.full(sum(r.size for r, _ in parts[len(series):]), -1))
    owner = np.concatenate(owner)

    # slack rows: the source current leaves through the network, the
    # constraint rows pin the node voltage; the source currents (I_R, I_I)
    # per slack and phase follow the voltage block
    buses = [network.buses[p] for p in index.slack_positions]
    sv = nodes([b.id for b in buses]).ravel()
    si = index.nv + 2 * np.arange(sv.size)
    rows = np.concatenate([rows, sv, sv + 1, si, si + 1])
    cols = np.concatenate([cols, si, si + 1, sv, sv + 1])
    n_linear = rows.size
    ones = np.ones(sv.size)
    slack_rhs = np.zeros(index.dim)
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
    q_idx = index.q_rows
    targets = [gens[k].target_bus() for k in index.vc_gen_positions]
    vc_v = nodes(targets).ravel()
    vc_set = np.repeat(np.array([network.bus(b).v_set for b in targets], dtype=float), nph)
    gv = gen_v[slot_lanes]
    za, zd, zb = za.ravel(), zd.ravel(), zb.ravel()
    lanes = np.concatenate([gen_v, za])

    def pairs(a, b):
        """``a`` and ``b`` interleaved, in the order of a complex array's floats."""
        return np.stack([a, b], axis=1).ravel()

    # nonlinear values in the order assemble_system writes them: dI/du per
    # lane, real and imaginary parts interleaved, as the (R, R) and (I, R)
    # entries of its block, then again as (I, I) and (R, I); the dI/dQ
    # column; the Q-slot rows (diagonals, then both regulated-voltage columns
    # interleaved); the delta blocks (+ node row, - node column; the reverse;
    # - node diagonal). Each slot still receives its values in the order of
    # the lanes, delta blocks last
    nl_rows, nl_cols = zip(
        (pairs(lanes, lanes + 1), pairs(lanes, lanes)),
        (pairs(lanes + 1, lanes), pairs(lanes + 1, lanes + 1)),
        (pairs(gv, gv + 1), np.repeat(q_idx, 2)),
        (np.concatenate([q_idx, np.repeat(q_idx, 2)]),
         np.concatenate([q_idx, pairs(vc_v, vc_v + 1)])),
        _blocks(zd, zb),
        _blocks(zb, zd),
        _blocks(zb, zb),
    )
    pattern, slots = compress_pattern(
        index.dim, np.concatenate([rows, *nl_rows]), np.concatenate([cols, *nl_cols])
    )
    # the delta blocks repeat dI/du of the delta lanes, entry-major like
    # _blocks, from where assemble_system wrote it: -, -, then + on the - node
    nl = lanes.size
    dl = gen_v.size + np.flatnonzero(np.repeat(delta, nph))
    jd = np.concatenate([2 * dl, 2 * nl + 2 * dl + 1, 2 * dl + 1, 2 * nl + 2 * dl])
    return Companion(
        index=index,
        zip_loads=zl,
        pattern=pattern,
        linear_slots=slots[:n_linear],
        linear_owner=np.concatenate([np.tile(owner, 4), np.full(n_linear - 4 * owner.size, -1)]),
        nonlinear_slots=slots[n_linear:],
        n_short=o.size,
        zip_delta=delta,
        big_v=bl.ravel(),
        slack_vals=np.concatenate([-ones, -ones, ones, ones]),
        slack_rhs=slack_rhs,
        nonlinear_rhs_rows=np.concatenate([pairs(lanes, lanes + 1), q_idx, pairs(zb, zb + 1)]),
        lane_v=lanes // 2,
        n_gen=gen_v.size,
        slot_lanes=slot_lanes,
        vc_v=vc_v // 2,
        vc_sq=vc_set * vc_set,
        delta_lanes=dl,
        zip_b=zb // 2,
        delta_src=np.tile(jd, 3),
        delta_sign=np.repeat([-1.0, -1.0, 1.0], jd.size),
        kcl_mask=kcl_mask,
    )


def _check_nonzero(bound: BoundCompanion, u: np.ndarray) -> None:
    """Raise :class:`ZeroVoltageIterate` for the first live lane at zero
    voltage: generator lanes come first, then active ZIP lanes."""
    dead = bound.lane_live & (u == 0)
    if dead.any():
        c = bound.layout
        nph = c.index.nphase
        lane = int(np.flatnonzero(dead)[0])
        if lane < c.n_gen:
            k, ph = divmod(lane, nph)
            gen = c.index.generators[k]
            raise ZeroVoltageIterate(f"gen {gen.id}", gen.bus, ph)
        k, ph = divmod(lane - c.n_gen, nph)
        load = c.zip_loads[k]
        raise ZeroVoltageIterate(f"zip {load.id}", load.bus, ph)


def assemble_system(bound: BoundCompanion, state: StateVector, zeta: float, modes: GenModes):
    """Companion system at the iterate; returns ``(data, rhs)``: the CSC data
    over ``bound.layout.pattern`` and the dense right-hand side.

    The nonlinear values are written in layout order into one array and
    added to a copy of the bound linear data at their slots, so every slot
    sums its values in the same order on every call; the right-hand side is
    one ``np.bincount`` over the layout's rows. Steps on parts the network
    lacks (delta terminals, Q slots) or the parameter set lacks
    (constant-current parts, lanes that are not live) are skipped, with the
    same bits as taking them. Generator voltage derivatives are scaled by the
    damping factor ``zeta``; the dI/dQ column is left unscaled. Pinned Q-slot
    rows become identity pins at ``modes.q_pin``.
    """
    c = bound.layout
    x = state.x
    node = x[: c.index.nv].view(complex)
    u = node[c.lane_v]
    dl = c.delta_lanes
    if dl.size:
        u[dl] -= node[c.zip_b]
    if np.count_nonzero(u) < u.size:  # some lane sits at zero voltage
        _check_nonzero(bound, u)

    # every lane in closed form (module docstring); Q-slot lanes read Q from
    # the state, and lanes without a constant-current or -power part may sit
    # at u = 0 (a delta terminal between equal phase voltages)
    ng, slot = c.n_gen, c.slot_lanes
    nl, ns = u.size, slot.size
    cs = bound.lane_cs
    if ns:
        q = x[c.index.q_rows]
        cs = cs.copy()
        cs.imag[slot] = -q
    sq = u.view(float) * u.view(float)
    m2 = sq[0::2] + sq[1::2]  # |u|^2
    m2 = 1.0 / (m2 if bound.all_live else np.where(bound.lane_live, m2, 1.0))
    # with no constant-current part, lane_cc * s is 0j on every lane
    a = bound.lane_cc * (0.5 * np.sqrt(m2)) if bound.has_cc else 0j
    h = cs * m2 + a
    uh = u * h
    b = h * (u * u * m2)

    # the values in layout order (build_companion): dI/dRe(u) = a - b and
    # dI/dIm(u) / j = a + b per lane, whose imaginary part enters negated;
    # generator lanes are damped by zeta
    vals = np.empty(c.nonlinear_slots.size)
    d = vals[: 4 * nl].view(complex)
    np.subtract(a, b, out=d[:nl])
    np.add(a, b, out=d[nl:])
    np.conjugate(d[nl:], out=d[nl:])
    vals[: 4 * nl].reshape(2, nl, 2)[:, :ng] *= -zeta
    # right-hand sides: generators inject (minus in KCL), loads draw
    rhs_vals = np.empty(c.nonlinear_rhs_rows.size)
    r = rhs_vals[: 2 * nl].view(complex)
    np.multiply(-2.0, uh, out=r)
    np.multiply(1.0 + zeta, uh[:ng], out=r[:ng])
    if ns:
        at = 4 * nl
        jq = vals[at: at + 2 * ns].view(complex)  # -dI/dQ
        np.multiply(1j * u[slot], m2[slot], out=jq)
        r[slot] += jq * q
        # Q-slot rows: |V_w|^2 = vset^2 linearized, or the pin while at a limit
        pinned = modes.pinned
        vals[at + 2 * ns: at + 3 * ns] = pinned
        w = node[c.vc_v]
        sq = w.view(float) * w.view(float)
        vc_rhs = rhs_vals[2 * nl: 2 * nl + ns]
        np.negative(c.vc_sq + sq[0::2] + sq[1::2], out=vc_rhs)
        dw = vals[at + 3 * ns: at + 5 * ns].view(complex)
        np.multiply(-2.0, w, out=dw)
        if np.count_nonzero(pinned):
            vc_rhs[pinned] = modes.q_pin[pinned]
            dw[pinned] = 0.0
    if dl.size:
        # delta terminals stamp +J on the + node and -J on the - node
        np.multiply(vals[c.delta_src], c.delta_sign, out=vals[4 * nl + 5 * ns:])
        np.negative(r[dl], out=rhs_vals[2 * nl + ns:].view(complex))

    data = bound.linear_data.copy()
    # lanes share slots (a generator and a load on one bus, neighbouring
    # delta terminals): add in layout order, never pre-reduced
    np.add.at(data, c.nonlinear_slots, vals)
    rhs = np.bincount(c.nonlinear_rhs_rows, weights=rhs_vals, minlength=c.index.dim)
    return data, rhs + bound.linear_rhs
