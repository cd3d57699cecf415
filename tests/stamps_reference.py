"""Reference formulations of the companion system's per-pass steps.

``reference_bind`` and ``reference_assemble`` are the straightforward forms
of :meth:`steadygrid.stamps.Companion.bind` and
:func:`steadygrid.stamps.assemble_system`: every device family is stamped
whether the network has it or not, every lane takes every step, and the
values are concatenated family by family: generator lanes, the dI/dQ column,
the Q-slot rows, ZIP lanes, delta blocks, each entry-major. The library
skips what a network or parameter set lacks, writes into preallocated
arrays in an order where every slot still receives its values in the same
order, and orders its right-hand side the same way; the tests require the
two to agree byte for byte.
"""

from __future__ import annotations

import numpy as np

from steadygrid.stamps import BoundCompanion, Companion, DeviceParams, GenModes


def _blocks(rows, cols):
    return (
        np.concatenate([rows, rows, rows + 1, rows + 1]),
        np.concatenate([cols, cols + 1, cols, cols + 1]),
    )


def reference_order(layout: Companion):
    """Slots and right-hand-side rows of the nonlinear values in the order
    ``reference_assemble`` emits them, looked up in the layout's pattern."""
    lanes = 2 * layout.lane_v
    gen_v, za = lanes[: layout.n_gen], lanes[layout.n_gen:]
    zd, zb = lanes[layout.delta_lanes], 2 * layout.zip_b
    gv, q, vc = gen_v[layout.slot_lanes], layout.q_idx, 2 * layout.vc_v
    rows, cols = zip(
        _blocks(gen_v, gen_v),
        (np.concatenate([gv, gv + 1]), np.concatenate([q, q])),
        (np.concatenate([q, q, q]), np.concatenate([q, vc, vc + 1])),
        _blocks(za, za),
        _blocks(zd, zb),
        _blocks(zb, zd),
        _blocks(zb, zb),
    )
    p = layout.pattern
    n = p.indptr.size - 1
    keys = np.repeat(np.arange(n), np.diff(p.indptr)) * n + p.indices
    want = np.concatenate(cols) * n + np.concatenate(rows)
    slots = np.searchsorted(keys, want)
    assert np.array_equal(keys[slots], want)
    return slots, np.concatenate([lanes, lanes + 1, q, zb, zb + 1])


def reference_bind(layout: Companion, params: DeviceParams) -> dict:
    """The bound linear data, constant rhs and lane arrays of ``params``."""
    tap = params.xfmr_tap
    bad = np.flatnonzero(np.any(tap <= 0, axis=1))
    if bad.size:
        raise ValueError(f"transformer {bad[0]}: tap must be positive, got {tap[bad[0]]}")
    n = tap * np.exp(1j * params.xfmr_shift)
    n_row, n_col = n[:, :, None], n[:, None, :]
    yb, yt = params.branch_y, params.xfmr_y
    short = np.full(layout.n_short, params.short_y)
    yz = params.zip_y
    yd = yz[layout.zip_delta]
    groups = (
        yb, -yb, yb, -yb, 1j * params.branch_bf, 1j * params.branch_bt,
        yt / (np.conj(n_row) * n_col), -yt / np.conj(n_row), -yt / n_col, yt,
        params.shunt_y, params.big_y,
        short, -short, short, -short,
        yz, -yd, yd, -yd,
    )
    y = np.concatenate([g.ravel() for g in groups]).astype(complex)
    g, b = y.real, y.imag
    rhs = layout.slack_rhs.copy()
    alpha = params.big_alpha.ravel()
    np.add.at(rhs, layout.big_v, -alpha.real)
    np.add.at(rhs, layout.big_v + 1, -alpha.imag)
    gen_p, zip_i, zip_s = params.gen_p.ravel(), params.zip_i.ravel(), params.zip_s.ravel()
    data = np.bincount(
        layout.linear_slots,
        weights=np.concatenate([g, -b, b, g, layout.slack_vals]),
        minlength=layout.pattern.indices.size,
    )
    return {
        "linear_data": data,
        "linear_rhs": rhs,
        "gen_p": gen_p,
        "lane_cs": np.concatenate([gen_p - 1j * params.gen_q.ravel(), np.conj(zip_s)]),
        "lane_cc": np.concatenate([np.zeros(gen_p.size), np.conj(zip_i)]),
        "lane_live": np.concatenate([np.ones(gen_p.size, bool), (zip_i != 0) | (zip_s != 0)]),
    }


def reference_assemble(bound: BoundCompanion, state, zeta: float = 1.0,
                       modes: GenModes | None = None):
    """``(data, rhs)`` of the companion system at ``state``; the iterate must
    not put a live lane at zero voltage."""
    c = bound.layout
    if modes is None:
        modes = GenModes.initial(c.index)
    x = state.x
    node = x[: 2 * c.index.nbus * c.index.nphase].view(complex)
    u = node[c.lane_v]
    u[c.delta_lanes] -= node[c.zip_b]
    ng, slot = c.n_gen, c.slot_lanes
    q = x[c.q_idx]
    cs = bound.lane_cs.copy()
    cs.imag[slot] = -q
    m2 = 1.0 / np.where(bound.lane_live, u.real * u.real + u.imag * u.imag, 1.0)
    a = bound.lane_cc * (0.5 * np.sqrt(m2))
    h = cs * m2 + a
    uh = u * h
    b = h * (u * u * m2)
    d_re, d_im = a - b, a + b
    jac = np.array([d_re.real, -d_im.imag, d_re.imag, d_im.real])
    jq = 1j * u[slot] * m2[slot]
    r = -2.0 * uh
    r[:ng] = (1.0 + zeta) * uh[:ng]
    r[slot] += jq * q
    pinned = modes.pinned
    w = node[c.vc_v]
    vc_rhs = -(c.vc_sq + w.real * w.real + w.imag * w.imag)
    dw = -2.0 * w
    if pinned.any():
        vc_rhs = np.where(pinned, modes.q_pin, vc_rhs)
        dw = np.where(pinned, 0.0, dw)
    dl = c.delta_lanes
    jd = jac[:, dl].ravel()
    vals = np.concatenate([
        (-zeta * jac[:, :ng]).ravel(), jq.real, jq.imag,
        pinned.astype(float), dw.real, dw.imag,
        jac[:, ng:].ravel(), -jd, -jd, jd,
    ])
    slots, rhs_rows = reference_order(c)
    data = bound.linear_data.copy()
    np.add.at(data, slots, vals)
    nl_rhs = np.concatenate([r.real, r.imag, vc_rhs, -r.real[dl], -r.imag[dl]])
    rhs = np.bincount(rhs_rows, weights=nl_rhs, minlength=c.index.dim)
    return data, rhs + bound.linear_rhs
