import math
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from steadygrid import homotopy, load_case, nr, solver
from steadygrid.homotopy import power_transform, tx_transform
from steadygrid.indexing import IndexMap, flat_state
from steadygrid.linsys import SparseSystem
from steadygrid.network import (
    Branch,
    Bus,
    BusKind,
    Generator,
    Network,
    PhaseDomain,
    Transformer,
    phase_array,
    series_y,
)
from steadygrid.nr import NrOptions
from steadygrid.solver import SolverOptions, solve
from steadygrid.stamps import (
    GenModes,
    ZeroVoltageIterate,
    assemble_system,
    build_companion,
    effective_params,
    pv_current,
)

from conftest import (
    CASE_DIR,
    case_path,
    make_zip,
    net_3bus,
    net_3phase,
    net_allparts,
    residual_vector,
)
from stamps_reference import reference_assemble, reference_bind


def dense_system(net, state=None, params=None, zeta=1.0, modes=None):
    """Dense (A, b, index) of the whole companion system at ``state``."""
    index = IndexMap(net)
    if state is None:
        state = flat_state(index)
    if params is None:
        params = effective_params(net)
    if modes is None:
        modes = GenModes.initial(index)
    layout = build_companion(net, index)
    data, b = assemble_system(layout.bind(params), state, zeta, modes)
    p = layout.pattern
    a = sparse.csc_matrix((data, p.indices, p.indptr), shape=(index.dim, index.dim)).toarray()
    return a, b, index


# -- scalar reference currents and one device's lane --------------------------


def zip_current(y: complex, ic: complex, s: complex, ur: float, ui: float):
    """Load current drawn by one ZIP device (or one delta branch), with the
    constant-current part in polar form."""
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


def lane(device, v: complex, q: float = 0.0):
    """``(F, J)`` that ``device`` alone puts on the KCL rows ``(V_R, V_I)`` of
    its bus at voltage ``v``, read from the assembled system.

    ``device`` is a generator or ZIP load at bus 2 of a slack-fed two-bus
    network whose branch has zero admittance, so nothing else enters those
    rows: ``F = A x - b`` there is ``-I`` for a generator and ``+I`` for a
    load, and ``J`` holds the rows of ``A`` over the columns ``(V_R, V_I)``,
    plus ``Q`` (at state value ``q``) for a voltage-controlling generator.
    """
    buses = (Bus(1, BusKind.SLACK, 1.0, 1.0, 0.0), Bus(2, BusKind.PQ, 1.0, v_set=1.0))
    branch = Branch(1, 1, 2, y_series=np.zeros((1, 1), complex),
                    b_from=phase_array(0.0, 1), b_to=phase_array(0.0, 1))
    gen = isinstance(device, Generator)
    net = Network(PhaseDomain.POSITIVE_SEQUENCE, 1.0, buses, branches=(branch,),
                  generators=(device,) if gen else (), zip_loads=() if gen else (device,))
    index = IndexMap(net)
    state = flat_state(index)
    state.set_voltage(1, 0, v)
    rows = [index.vr(1, 0), index.vi(1, 0)]
    cols = list(rows)
    if gen and device.controls_voltage:
        cols.append(index.q_rows[0])
        state.x[cols[2]] = q
    a, b, _ = dense_system(net, state)
    return (a @ state.x - b)[rows], a[np.ix_(rows, cols)]


def central_differences(current, x, h=1e-7):
    """Columns ``dF/dx_k`` of ``F = current(*x)`` by central differences."""
    cols = []
    for k in range(len(x)):
        xp, xm = list(x), list(x)
        xp[k] += h
        xm[k] -= h
        cols.append((np.array(current(*xp)) - np.array(current(*xm))) / (2 * h))
    return np.array(cols).T


# -- branch ---------------------------------------------------------------


def two_bus(nphase=1, y=None, transformer=None):
    """Slack plus one PQ bus joined by a branch ``y`` (default a line) or by
    ``transformer`` alone; no other device."""
    buses = (Bus(1, BusKind.SLACK, 1.0, 1.0, 0.0), Bus(2, BusKind.PQ, 1.0))
    if y is None:
        y = series_y(0.0099, 0.0999, nphase)
    branches = (Branch(1, 1, 2, y_series=y, b_from=phase_array(0.0, nphase),
                       b_to=phase_array(0.0, nphase)),)
    return Network(
        PhaseDomain.POSITIVE_SEQUENCE if nphase == 1 else PhaseDomain.THREE_PHASE,
        100.0, buses,
        branches=() if transformer is not None else branches,
        transformers=() if transformer is None else (transformer,),
    )


def test_branch_stamp_pattern_and_kcl():
    net = two_bus(y=np.array([[1.0 - 10.0j]]))
    a, b, index = dense_system(net)
    nv = 2 * index.nbus
    assert not b[:nv].any()  # linear device: Jacobian only
    # conductance sub-matrix (real rows x real cols) has zero row sums
    g = a[np.ix_([index.vr(0, 0), index.vr(1, 0)], [index.vr(0, 0), index.vr(1, 0)])]
    np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-15)
    assert g[0, 0] == 1.0 and g[0, 1] == -1.0
    # susceptance couples real rows to imaginary columns with -B
    assert a[index.vr(0, 0), index.vi(0, 0)] == 10.0  # -B = +10


def test_branch_tx_scaling_factor():
    net = two_bus()
    base = effective_params(net)
    params = tx_transform(base, 1.0, 1000.0)
    np.testing.assert_allclose(params.branch_y[0], base.branch_y[0] * 1001.0, rtol=1e-15)


def test_three_phase_mutual_coupling_positions():
    yab = -1.0 + 3.0j
    y = np.zeros((3, 3), complex)
    np.fill_diagonal(y, 5.0 - 20.0j)
    y[0, 1] = y[1, 0] = yab
    a, _, index = dense_system(two_bus(3, y=y))
    # phase-a real row picks up phase-b columns with the mutual admittance,
    # alternating sign across (ii, il, li, ll) bus blocks
    r = index.vr(0, 0)
    assert a[r, index.vr(0, 1)] == yab.real
    assert a[r, index.vr(1, 1)] == -yab.real
    r2 = index.vr(1, 0)
    assert a[r2, index.vr(1, 1)] == yab.real
    assert a[r2, index.vr(0, 1)] == -yab.real
    # the uncoupled phase pair (a, c) stays zero
    assert a[r, index.vr(0, 2)] == 0.0


# -- transformer ------------------------------------------------------------


def xfmr(tap=1.0, shift_deg=0.0, y=2.0 - 8.0j):
    return Transformer(1, 1, 2, y_series=np.array([[y]]), tap=phase_array(tap, 1),
                       shift=phase_array(math.radians(shift_deg), 1))


def test_identity_transformer_equals_branch():
    ab, bb, _ = dense_system(two_bus(y=np.array([[2.0 - 8.0j]])))
    at, bt, _ = dense_system(two_bus(transformer=xfmr()))
    np.testing.assert_allclose(at, ab, atol=1e-15)
    np.testing.assert_array_equal(bt, bb)


def test_transformer_tap_relaxation_endpoint():
    net = net_allparts()
    base = effective_params(net)
    p1 = tx_transform(base, 1.0, 10.0)
    np.testing.assert_allclose(p1.xfmr_tap[0], 1.0, atol=1e-15)
    np.testing.assert_allclose(p1.xfmr_shift[0], 0.0, atol=1e-15)
    # halfway: shift of 30 deg relaxed by lambda = 0.5 leaves 15 deg
    tr = 0.95
    tr_hat = tr + 1.0 * (1.0 - tr)
    assert tr_hat == 1.0
    theta_hat = math.radians(30.0) - 0.5 * math.radians(30.0)
    assert theta_hat == pytest.approx(math.radians(15.0))
    # the relaxed transformer assembles exactly like a plain branch
    tx = replace(net.transformers[0], from_bus=1, to_bus=2)
    relaxed = two_bus(transformer=tx)
    a_tx, _, _ = dense_system(relaxed, params=tx_transform(effective_params(relaxed), 1.0, 0.0))
    a_br, _, _ = dense_system(two_bus(y=tx.y_series))
    np.testing.assert_allclose(a_tx, a_br, atol=1e-15)


def test_transformer_conservation_zero_row_sums():
    tx = replace(net_allparts().transformers[0], from_bus=1, to_bus=2)
    a, _, index = dense_system(two_bus(transformer=tx))
    rows = [index.vr(0, 0), index.vi(0, 0), index.vr(1, 0), index.vi(1, 0)]
    sub = a[np.ix_(rows, rows)]
    # floating two-port: applying the same voltage at both ends with tap 1
    # would push zero current; with off-nominal tap the row sums are nonzero,
    # so check conservation through a uniform-at-ratio excitation instead
    nr = float(tx.tap[0]) * np.exp(1j * float(tx.shift[0]))
    vf = nr
    vt = 1.0 + 0.0j
    x = np.array([vf.real, vf.imag, vt.real, vt.imag])
    np.testing.assert_allclose(sub @ x, 0.0, atol=1e-12)


# -- slack -------------------------------------------------------------------


def test_slack_pins_voltage():
    a, b, index = dense_system(two_bus())
    r_ir = index.slack_ir(0, 0)
    assert a[r_ir, index.vr(0, 0)] == 1.0
    assert b[r_ir] == 1.0
    assert a[index.vr(0, 0), r_ir] == -1.0


def test_slack_angle_evaluation():
    buses = (Bus(1, BusKind.SLACK, 1.0, 1.05, math.radians(10.0)), Bus(2, BusKind.PQ, 1.0))
    net = Network(PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses,
                  branches=(Branch(1, 1, 2, y_series=series_y(0.01, 0.1),
                                   b_from=phase_array(0.0, 1), b_to=phase_array(0.0, 1)),))
    _, b, index = dense_system(net)
    assert b[index.slack_ir(0, 0)] == pytest.approx(1.0340, abs=1e-4)
    assert b[index.slack_ii(0, 0)] == pytest.approx(0.1823, abs=1e-4)


def test_three_phase_slack_offsets():
    _, b, index = dense_system(net_3phase())
    vals = [(b[index.slack_ir(0, ph)], b[index.slack_ii(0, ph)]) for ph in range(3)]
    expect = [(1.0, 0.0),
              (math.cos(-2 * math.pi / 3), math.sin(-2 * math.pi / 3)),
              (math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))]
    np.testing.assert_allclose(vals, expect, atol=1e-12)


# -- PV generator -------------------------------------------------------------


def test_pv_jacobian_reference_point():
    # P = 1 at v = 1 draws I = 1 with dI_R/dV_R = -1 and dI_I/dQ = -1; the
    # KCL rows carry -I, so the assembled entries are their negatives
    f, jac = lane(Generator(1, 2, p=phase_array(1.0, 1)), 1.0 + 0.0j)
    assert tuple(f) == (-1.0, 0.0)
    assert jac[0, 0] == 1.0
    assert jac[0, 1] == 0.0
    assert jac[1, 2] == 1.0


def test_pv_gradient_against_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(100):
        p, q = rng.uniform(-2, 2, size=2)
        v = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        f, jac = lane(Generator(1, 2, p=phase_array(p, 1)), v, q)

        def injected(vr, vi, q):
            return [-i for i in pv_current(p, q, vr, vi)]

        np.testing.assert_allclose(f, injected(v.real, v.imag, q), rtol=1e-12, atol=1e-15)
        fd = central_differences(injected, (v.real, v.imag, q))
        assert np.all(np.abs(jac - fd) / np.maximum(1.0, np.abs(jac)) < 1e-6)


def test_pv_zeta_scales_voltage_terms_only():
    net = net_3bus()
    a1, _, index = dense_system(net, zeta=1.0)
    ah, _, _ = dense_system(net, zeta=0.5)
    a0, _, _ = dense_system(net, zeta=0.0)
    pos = net.bus_index[3]
    r, c = index.vr(pos, 0), index.vr(pos, 0)
    # the generator's voltage derivative is the zeta-dependent part
    assert a1[r, c] != a0[r, c]
    assert ah[r, c] - a0[r, c] == pytest.approx(0.5 * (a1[r, c] - a0[r, c]))
    cq = index.q_rows[0]
    ri = index.vi(pos, 0)
    assert a0[ri, cq] != 0.0
    # dI/dQ column unscaled
    assert ah[r, cq] == a1[r, cq] == a0[r, cq]
    assert ah[ri, cq] == a1[ri, cq] == a0[ri, cq]


def test_unloaded_generator_stamps_nothing_numeric():
    net = net_3bus()
    idle = net.with_devices(generators=(Generator(1, 3, p=phase_array(0.0, 1),
                                                  q=phase_array(0.0, 1)),))
    a, b, _ = dense_system(idle)
    a_none, b_none, _ = dense_system(net.with_devices(generators=()))
    np.testing.assert_array_equal(a, a_none)
    np.testing.assert_array_equal(b, b_none)


def test_zero_voltage_iterate_reported():
    net = net_3bus()  # generator at bus 3, ZIP load at bus 2
    index = IndexMap(net)
    companion = build_companion(net, index).bind(effective_params(net))
    state = flat_state(index)
    state.set_voltage(net.bus_index[2], 0, 0.0 + 0.0j)
    with pytest.raises(ZeroVoltageIterate) as zvi:
        assemble_system(companion, state, 1.0, GenModes.initial(index))
    assert (zvi.value.device, zvi.value.bus, zvi.value.phase) == ("zip 1", 2, 0)
    # the generator is named first when both sit at zero
    state.set_voltage(net.bus_index[3], 0, 0.0 + 0.0j)
    with pytest.raises(ZeroVoltageIterate) as zvi:
        assemble_system(companion, state, 1.0, GenModes.initial(index))
    assert (zvi.value.device, zvi.value.bus, zvi.value.phase) == ("gen 1", 3, 0)


# -- voltage-control constraint ------------------------------------------------


def test_vc_row_at_satisfied_point():
    net = net_3bus()  # v_set 1.01 at bus 3
    index = IndexMap(net)
    state = flat_state(index)
    pos = net.bus_index[3]
    state.set_voltage(pos, 0, 1.01 + 0.0j)
    a, b, _ = dense_system(net, state)
    row = index.q_rows[0]
    assert a[row, index.vr(pos, 0)] == pytest.approx(-2.02)
    assert a[row, index.vi(pos, 0)] == 0.0
    assert a[row, row] == 0.0  # free Q: no pin on the diagonal
    # residual F = vset^2 - |v|^2 = 0 at the satisfied point
    assert (a @ state.x - b)[row] == pytest.approx(0.0, abs=1e-14)


def test_vc_row_residual_values():
    net = net_3bus()
    index = IndexMap(net)
    state = flat_state(index)
    pos = net.bus_index[3]
    row = index.q_rows[0]

    # |v| = 0.9 against set-point 1.0: F = 1 - 0.81 = 0.19
    state.set_voltage(pos, 0, 0.9 + 0.0j)
    object.__setattr__(net.buses[pos], "v_set", 1.0)
    companion = build_companion(net, index).bind(effective_params(net))
    assert residual_vector(companion, state)[row] == pytest.approx(0.19)

    # magnitude-only: (0.8, 0.6) has |v| = 1 exactly
    state.set_voltage(pos, 0, 0.8 + 0.6j)
    assert residual_vector(companion, state)[row] == pytest.approx(0.0, abs=1e-14)

    # pinned at a limit the row becomes q - q_pin
    modes = GenModes.initial(index)
    modes.pinned[0] = True
    modes.q_pin[0] = 0.25
    state.x[row] = 0.4
    assert residual_vector(companion, state, modes)[row] == pytest.approx(0.15)


# -- ZIP load -------------------------------------------------------------------


def test_zip_reference_currents():
    f, _ = lane(make_zip(1, 2, y=0.1 + 0.05j, s=0.5 + 0.2j), 1.0 + 0.0j)
    assert f[0] == pytest.approx(0.6)
    assert f[1] == pytest.approx(-0.15)


def test_zip_constant_current_part():
    c = 0.3 + 0.1j
    f, _ = lane(make_zip(1, 2, i=c), 1.0 + 0.0j)
    assert f[0] == pytest.approx(0.3)
    assert f[1] == pytest.approx(-0.1)
    # the magnitude |c| holds at any voltage, at the load's own angle offset
    f, _ = lane(make_zip(1, 2, i=c), 0.8 * np.exp(1j * math.radians(30.0)))
    assert math.hypot(*f) == pytest.approx(abs(c), rel=1e-14)
    assert math.atan2(f[1], f[0]) == pytest.approx(math.radians(30.0) - np.angle(c), rel=1e-14)


def test_zip_impedance_only_is_iterate_independent():
    # slack, line and an impedance-only load: every device is linear
    net = net_3bus().with_devices(generators=(), zip_loads=(make_zip(1, 2, y=0.1 + 0.05j),))
    index = IndexMap(net)
    s2 = flat_state(index)
    s2.set_voltage(1, 0, 0.7 - 0.3j)
    a1, b1, _ = dense_system(net)
    a2, b2, _ = dense_system(net, s2)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(b1, b2)
    assert not b1[: 2 * index.nbus].any()  # no right-hand side on KCL rows
    a_off, _, _ = dense_system(net.with_devices(zip_loads=()))
    assert a1[index.vr(1, 0), index.vr(1, 0)] - a_off[index.vr(1, 0), index.vr(1, 0)] == \
        pytest.approx(0.1)
    assert a1[index.vr(1, 0), index.vi(1, 0)] - a_off[index.vr(1, 0), index.vi(1, 0)] == \
        pytest.approx(-0.05)


def net_3phase_delta():
    """net_3phase with a fixed-Q machine at bus 3, where terminal b-c of the
    delta load keeps only its impedance part (terminal d spans phases d and
    d + 1)."""
    net = net_3phase()
    delta = net.zip_loads[1]
    i, s = delta.i.copy(), delta.s.copy()
    i[1] = s[1] = 0.0
    delta = replace(delta, i=i, s=s)
    gen = Generator(1, 3, p=phase_array(0.1, 3), q=phase_array(0.02, 3))
    return net.with_devices(zip_loads=(net.zip_loads[0], delta), generators=(gen,))


def test_inactive_delta_lane_at_zero_voltage_stamps_finite_values():
    # terminal b-c has only an impedance part, so equal phase voltages there
    # (u = 0) are no zero-voltage iterate and leave no 0/0 anywhere
    net = net_3phase_delta()
    index = IndexMap(net)
    state = flat_state(index)
    pos = net.bus_index[3]
    state.set_voltage(pos, 2, complex(state.x[index.vr(pos, 1)], state.x[index.vi(pos, 1)]))
    assert state.v_complex()[1, pos] - state.v_complex()[2, pos] == 0
    bound = build_companion(net, index).bind(effective_params(net))
    data, rhs = assemble_system(bound, state, 1.0, GenModes.initial(index))
    assert np.all(np.isfinite(data)) and np.all(np.isfinite(rhs))


def test_active_delta_lane_at_zero_voltage_is_reported():
    net = net_3phase_delta()
    index = IndexMap(net)
    bound = build_companion(net, index).bind(effective_params(net))
    pos = net.bus_index[3]
    state = flat_state(index)
    v_a = complex(state.x[index.vr(pos, 0)], state.x[index.vi(pos, 0)])
    state.set_voltage(pos, 1, v_a)  # terminal a-b, which has parts, at u = 0
    with pytest.raises(ZeroVoltageIterate) as zvi:
        assemble_system(bound, state, 1.0, GenModes.initial(index))
    assert (zvi.value.device, zvi.value.bus, zvi.value.phase) == ("zip 2", 3, 0)
    # the machine on the same bus is named first once its phase a is at zero
    state.set_voltage(pos, 0, 0.0 + 0.0j)
    state.set_voltage(pos, 1, 0.0 + 0.0j)
    with pytest.raises(ZeroVoltageIterate) as zvi:
        assemble_system(bound, state, 1.0, GenModes.initial(index))
    assert (zvi.value.device, zvi.value.bus, zvi.value.phase) == ("gen 1", 3, 0)


def test_zip_gradient_against_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(100):
        y = complex(rng.uniform(0, 0.3), -rng.uniform(0, 0.15))
        ic = complex(rng.uniform(0, 0.4), rng.uniform(-0.1, 0.2))
        s = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        u = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        f, jac = lane(make_zip(1, 2, y=y, i=ic, s=s), u)

        def drawn(ur, ui):
            return zip_current(y, ic, s, ur, ui)

        np.testing.assert_allclose(f, drawn(u.real, u.imag), rtol=1e-12, atol=1e-15)
        fd = central_differences(drawn, (u.real, u.imag))
        assert np.all(np.abs(jac - fd) / np.maximum(1.0, np.abs(jac)) < 1e-6)


# -- whole-system checks -----------------------------------------------------


def fd_jacobian(companion, state, modes=None):
    h = 1e-7
    dim = companion.layout.index.dim
    jac = np.zeros((dim, dim))
    for j in range(dim):
        xp = state.copy()
        xm = state.copy()
        xp.x[j] += h
        xm.x[j] -= h
        fp = residual_vector(companion, xp, modes)
        fm = residual_vector(companion, xm, modes)
        jac[:, j] = (fp - fm) / (2 * h)
    return jac


def net_remote():
    """net_allparts with generator 1 moved to bus 2, regulating bus 4, which
    no branch or transformer joins to bus 2."""
    net = net_allparts()
    buses = tuple(replace(b, v_set={4: 1.0, 3: None}.get(b.id, b.v_set)) for b in net.buses)
    gens = (replace(net.generators[0], bus=2, remote_bus=4),) + net.generators[1:]
    return net.with_devices(buses=buses, generators=gens)


def plain(builder):
    net = builder()
    return net, effective_params(net), GenModes.initial(IndexMap(net))


def tx_half_remote():
    net = net_remote()
    return net, tx_transform(effective_params(net), 0.5, 10.0), GenModes.initial(IndexMap(net))


def power_half():
    net = net_3phase()
    return net, power_transform(effective_params(net), 0.5), GenModes.initial(IndexMap(net))


def pinned_gen():
    net, params, modes = plain(net_allparts)
    modes.pinned[0] = True
    modes.q_pin[0] = 0.3
    return net, params, modes


@pytest.mark.parametrize("setup", [
    pytest.param(lambda: plain(net_allparts), id="net_allparts"),
    pytest.param(lambda: plain(net_3phase), id="net_3phase"),
    pytest.param(tx_half_remote, id="tx_half_remote"),
    pytest.param(power_half, id="power_half"),
    pytest.param(pinned_gen, id="pinned_gen"),
])
def test_assembled_jacobian_matches_fd(setup):
    net, params, modes = setup()
    index = IndexMap(net)
    rng = np.random.default_rng(11)
    state = flat_state(index)
    state.x[: 2 * index.nbus * index.nphase] += rng.uniform(
        -0.1, 0.1, size=2 * index.nbus * index.nphase
    )
    companion = build_companion(net, index).bind(params)
    system = SparseSystem(index.dim)
    system.assemble(companion.layout.pattern, *assemble_system(companion, state, 1.0, modes))
    a = np.asarray(system.matrix.todense())
    jac = fd_jacobian(companion, state, modes)
    np.testing.assert_allclose(a, jac, atol=5e-6)


def test_tx_half_remote_stamps_the_short():
    net, params, _ = tx_half_remote()
    assert params.short_y != 0  # the remote pair is tied mid-continuation
    a, _, index = dense_system(net, params=params)
    a0, _, _ = dense_system(net)
    o, w = net.bus_index[2], net.bus_index[4]
    assert a0[index.vr(o, 0), index.vr(w, 0)] == 0.0
    assert a[index.vr(o, 0), index.vr(w, 0)] != 0.0


def test_taylor_consistency_at_expansion_point():
    # the companion system evaluated at its own expansion point reproduces the
    # exact nonlinear residual: A x - b == F(x)
    net = net_allparts()
    index = IndexMap(net)
    state = flat_state(index)
    rng = np.random.default_rng(3)
    state.x += rng.uniform(-0.05, 0.05, size=index.dim)
    companion = build_companion(net, index).bind(effective_params(net))
    f_unit = residual_vector(companion, state)
    # zeta must not change the residual at the expansion point
    system = SparseSystem(index.dim)
    system.assemble(
        companion.layout.pattern, *assemble_system(companion, state, 0.3, GenModes.initial(index))
    )
    f_damped = system.matrix @ state.x - system.rhs
    np.testing.assert_allclose(f_damped, f_unit, atol=1e-14)


def test_sparsity_pattern_is_iterate_independent():
    net = net_allparts()
    index = IndexMap(net)
    params = effective_params(net)
    free = GenModes.initial(index)
    pinned = GenModes.initial(index)
    pinned.pinned[0] = True
    s1 = flat_state(index)
    s2 = flat_state(index)
    s2.x[: 2 * index.nbus] += 0.05
    layout = build_companion(net, index)
    nnz = layout.pattern.indices.size
    d1, _ = assemble_system(layout.bind(params), s1, 1.0, free)
    assert d1.size == nnz
    # nor does it depend on pinned Q rows or on zeroed parameters
    for prm, st, modes in ((params, s2, free), (params, s1, pinned),
                           (tx_transform(params, 0.5, 10.0), s1, free),
                           (power_transform(params, 0.0), s2, free)):
        d2, _ = assemble_system(layout.bind(prm), st, 1.0, modes)
        assert d2.size == nnz
    # a fresh layout lays out the same pattern
    again = build_companion(net, index).pattern
    assert np.array_equal(again.indices, layout.pattern.indices)
    assert np.array_equal(again.indptr, layout.pattern.indptr)


@pytest.mark.parametrize("case, method, qmax", [
    pytest.param("case196_mesh.net", "tx", None, id="case196_mesh.net-tx"),
    pytest.param("case14.net", "power", None, id="case14.net-power"),
    pytest.param("case_qlim.net", "none", None, id="case_qlim.net-none"),
    # the Q limit binds after Tx stepping: a plain re-solve with the shorts open
    pytest.param("case6_remote.net", "tx", 0.1, id="case6_remote.net-tx-qmax0.1"),
])
def test_one_pattern_build_per_system_in_a_solve(monkeypatch, case, method, qmax):
    systems = []
    init = SparseSystem.__init__

    def recording_init(self, n):
        init(self, n)
        systems.append(self)

    monkeypatch.setattr(SparseSystem, "__init__", recording_init)
    net = load_case(case_path(case)).network
    if qmax is not None:
        net = net.with_devices(generators=tuple(replace(g, qmax=qmax) for g in net.generators))
    report, _ = solve(net, SolverOptions(homotopy=method, nr=NrOptions(tol=1e-8)))
    assert report.status == "converged"
    assert systems and [s.pattern_builds for s in systems] == [1] * len(systems)


@pytest.mark.parametrize("case, method, passes, newton_calls", [
    pytest.param("case196_mesh.net", "tx", 3, 8, id="case196_mesh.net-tx"),
    pytest.param("feeder8.json", "power", 1, 6, id="feeder8.json-power"),
])
def test_one_layout_per_solve(monkeypatch, case, method, passes, newton_calls):
    builds, newton = [], []

    def counting(*args, _build=solver.build_companion):
        builds.append(1)
        return _build(*args)

    monkeypatch.setattr(solver, "build_companion", counting)
    for module in (solver, homotopy):
        def counting_newton(*args, _run=module.run_newton):
            newton.append(args[0])
            return _run(*args)

        monkeypatch.setattr(module, "run_newton", counting_newton)
    net = load_case(case_path(case)).network
    report, _ = solve(net, SolverOptions(homotopy=method, nr=NrOptions(tol=1e-8)))
    assert report.status == "converged" and report.outer_passes == passes
    assert len(newton) == newton_calls
    # one layout for the whole solve, the final check included; nothing
    # below solve() lays out a companion of its own
    assert len(builds) == 1
    assert all(bound.layout is newton[0].layout for bound in newton)


def test_device_params_are_read_only():
    net = net_allparts()
    base = effective_params(net)
    with pytest.raises(ValueError):
        base.branch_y[0, 0, 0] = 0.0
    stepped = tx_transform(base, 0.5, 10.0)
    assert stepped.gen_p is base.gen_p  # shared with the base, never copied
    with pytest.raises(ValueError):
        stepped.gen_p[0, 0] = 0.0
    with pytest.raises(ValueError):
        stepped.branch_y[0, 0, 0] = 0.0


# -- the per-pass steps against their reference formulations -------------------

BIT_NETWORKS = sorted(os.listdir(CASE_DIR)) + ["net_3phase_delta"]


def _bit_network(name):
    return net_3phase_delta() if name == "net_3phase_delta" else load_case(case_path(name)).network


@pytest.mark.parametrize("name", BIT_NETWORKS)
def test_bind_and_assembly_match_the_reference_byte_for_byte(name):
    net = _bit_network(name)
    index = IndexMap(net)
    layout = build_companion(net, index)
    base = effective_params(net)
    params = [base] + [tx_transform(base, lam, 1e4) for lam in (1.0, 0.5, 0.0)]
    params += [power_transform(base, beta) for beta in (0.5, 0.0)]
    rng = np.random.default_rng(17)
    states = []
    for _ in range(3):
        state = flat_state(index)
        state.x[:] = rng.uniform(-1.5, 1.5, size=index.dim)
        states.append(state)
    if name == "net_3phase_delta":
        # terminal b-c keeps only its impedance part: equal phase voltages
        # there put an inactive delta lane at u = 0
        state = flat_state(index)
        pos = net.bus_index[3]
        state.set_voltage(pos, 2, complex(state.x[index.vr(pos, 1)], state.x[index.vi(pos, 1)]))
        states.append(state)
    free = GenModes.initial(index)
    pinned = GenModes.initial(index)
    # every phase of the first regulating machine
    pinned.pinned[: index.nphase] = True
    pinned.q_pin[: index.nphase] = 0.3
    for p in params:
        bound = layout.bind(p)
        for field, want in reference_bind(layout, p).items():
            assert getattr(bound, field).tobytes() == want.tobytes(), field
        for state in states:
            for zeta in (1.0, 0.25):
                for modes in (free, pinned):
                    got = assemble_system(bound, state, zeta, modes)
                    want = reference_assemble(bound, state, zeta, modes)
                    assert got[0].tobytes() == want[0].tobytes()
                    assert got[1].tobytes() == want[1].tobytes()
