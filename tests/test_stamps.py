import math
from dataclasses import replace

import numpy as np
import pytest

from steadygrid import load_case
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
    phase_carray,
    series_y,
)
from steadygrid.nr import NrOptions, residual_vector
from steadygrid.solver import SolverOptions, solve
from steadygrid.stamps import (
    GEN_PINNED,
    GenModes,
    ZeroVoltageIterate,
    assemble_system,
    build_companion,
    effective_params,
    pv_current,
    pv_current_jac,
    zip_current,
    zip_current_jac,
)

from conftest import case_path, make_zip, net_3bus, net_3phase, net_allparts


def dense_system(net, state=None, params=None, zeta=1.0, modes=None):
    """Dense (A, b, index) of the whole companion system at ``state``."""
    index = IndexMap(net)
    if state is None:
        state = flat_state(index)
    if params is None:
        params = effective_params(net)
    rows, cols, vals, b = assemble_system(
        build_companion(net, params, index), state, zeta, modes
    )
    a = np.zeros((index.dim, index.dim))
    np.add.at(a, (rows, cols), vals)
    return a, b, index


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
    params = tx_transform(net, 1.0, 1000.0)
    base = effective_params(net)
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
    p1 = tx_transform(net, 1.0, 10.0)
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
    a_tx, _, _ = dense_system(relaxed, params=tx_transform(relaxed, 1.0, 0.0))
    a_br, _, _ = dense_system(two_bus(y=tx.y_series))
    np.testing.assert_allclose(a_tx, a_br, atol=1e-15)


def test_transformer_rejects_nonpositive_tap():
    net = two_bus(transformer=xfmr(tap=0.0))
    index = IndexMap(net)
    with pytest.raises(ValueError, match="tap must be positive"):
        residual_vector(build_companion(net, effective_params(net), index), flat_state(index))


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
    ir, ii, dvr, dvi, dvr_i, dvi_i, dq_r, dq_i = pv_current_jac(1.0, 0.0, 1.0, 0.0)
    assert (ir, ii) == (1.0, 0.0)
    assert dvr == -1.0
    assert dvi == 0.0
    assert dq_i == -1.0


def test_pv_gradient_against_finite_differences():
    rng = np.random.default_rng(42)
    h = 1e-7
    for _ in range(100):
        p, q = rng.uniform(-2, 2, size=2)
        mag = rng.uniform(0.5, 1.5)
        ang = rng.uniform(-np.pi, np.pi)
        vr, vi = mag * np.cos(ang), mag * np.sin(ang)
        _, _, dvr_r, dvi_r, dvr_i, dvi_i, dq_r, dq_i = pv_current_jac(p, q, vr, vi)
        for which, analytic in (("vr", (dvr_r, dvr_i)), ("vi", (dvi_r, dvi_i)), ("q", (dq_r, dq_i))):
            args_p = dict(p=p, q=q, vr=vr, vi=vi)
            args_m = dict(p=p, q=q, vr=vr, vi=vi)
            args_p[which] = args_p[which] + h
            args_m[which] = args_m[which] - h
            fp = pv_current(**args_p)
            fm = pv_current(**args_m)
            fd = ((fp[0] - fm[0]) / (2 * h), (fp[1] - fm[1]) / (2 * h))
            for a_val, f_val in zip(analytic, fd):
                scale = max(1.0, abs(a_val))
                assert abs(a_val - f_val) / scale < 1e-6


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
    cq = index.q_gen(0, 0)
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
    companion = build_companion(net, effective_params(net), index)
    state = flat_state(index)
    state.set_voltage(net.bus_index[2], 0, 0.0 + 0.0j)
    with pytest.raises(ZeroVoltageIterate) as zvi:
        assemble_system(companion, state)
    assert (zvi.value.device, zvi.value.bus, zvi.value.phase) == ("zip 1", 2, 0)
    # the generator is named first when both sit at zero
    state.set_voltage(net.bus_index[3], 0, 0.0 + 0.0j)
    with pytest.raises(ZeroVoltageIterate) as zvi:
        assemble_system(companion, state)
    assert (zvi.value.device, zvi.value.bus, zvi.value.phase) == ("gen 1", 3, 0)


# -- voltage-control constraint ------------------------------------------------


def test_vc_row_at_satisfied_point():
    net = net_3bus()  # v_set 1.01 at bus 3
    index = IndexMap(net)
    state = flat_state(index)
    pos = net.bus_index[3]
    state.set_voltage(pos, 0, 1.01 + 0.0j)
    a, b, _ = dense_system(net, state)
    row = index.q_gen(0, 0)
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
    row = index.q_gen(0, 0)

    # |v| = 0.9 against set-point 1.0: F = 1 - 0.81 = 0.19
    state.set_voltage(pos, 0, 0.9 + 0.0j)
    object.__setattr__(net.buses[pos], "v_set", 1.0)
    companion = build_companion(net, effective_params(net), index)
    assert residual_vector(companion, state)[row] == pytest.approx(0.19)

    # magnitude-only: (0.8, 0.6) has |v| = 1 exactly
    state.set_voltage(pos, 0, 0.8 + 0.6j)
    assert residual_vector(companion, state)[row] == pytest.approx(0.0, abs=1e-14)

    # pinned at a limit the row becomes q - q_pin
    modes = GenModes.initial(net)
    modes.mode[0, 0] = GEN_PINNED
    modes.q_pin[0, 0] = 0.25
    state.x[row] = 0.4
    assert residual_vector(companion, state, modes)[row] == pytest.approx(0.15)


# -- ZIP load -------------------------------------------------------------------


def test_zip_reference_currents():
    ir, ii = zip_current(0.1 + 0.05j, 0.0, 0.5 + 0.2j, 1.0, 0.0)
    assert ir == pytest.approx(0.6)
    assert ii == pytest.approx(-0.15)


def test_zip_constant_current_part():
    ir, ii = zip_current(0.0, 0.3 + 0.1j, 0.0, 1.0, 0.0)
    assert ir == pytest.approx(0.3)
    assert ii == pytest.approx(-0.1)
    assert math.hypot(0.3, 0.1) == pytest.approx(math.sqrt(0.1))


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


def test_zip_jac_arrays_match_scalar_calls():
    # lanes without constant-current/power parts may sit at u = 0 (a delta
    # terminal between equal phase voltages) without a 0/0 anywhere
    y = np.array([0.1 - 0.02j, 0.0, 0.05 + 0.0j, 0.0])
    ic = np.array([0.2 + 0.05j, 0.0, 0.0, 0.1 - 0.1j])
    s = np.array([0.4 + 0.1j, 0.0, 0.3 - 0.2j, 0.0])
    ur = np.array([0.9, 0.0, -0.4, 0.3])
    ui = np.array([-0.2, 0.0, 0.8, 1.1])
    lanes = np.array(zip_current_jac(y, ic, s, ur, ui))
    for k in range(4):
        if ur[k] == 0.0 and ui[k] == 0.0:
            np.testing.assert_array_equal(lanes[:, k], 0.0)
            continue
        one = zip_current_jac(y[k], ic[k], s[k], ur[k], ui[k])
        np.testing.assert_allclose(lanes[:, k], np.array(one, dtype=float), rtol=1e-15)
        np.testing.assert_allclose(one[:2], zip_current(y[k], ic[k], s[k], ur[k], ui[k]),
                                   rtol=1e-14)


def test_zip_gradient_against_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-7
    for _ in range(100):
        y = complex(rng.uniform(0, 0.3), -rng.uniform(0, 0.15))
        ic = complex(rng.uniform(0, 0.4), rng.uniform(-0.1, 0.2))
        s = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        mag = rng.uniform(0.5, 1.5)
        ang = rng.uniform(-np.pi, np.pi)
        ur, ui = mag * np.cos(ang), mag * np.sin(ang)
        _, _, dr_ur, dr_ui, di_ur, di_ui = zip_current_jac(y, ic, s, ur, ui)
        fdp = zip_current(y, ic, s, ur + h, ui)
        fdm = zip_current(y, ic, s, ur - h, ui)
        assert abs((fdp[0] - fdm[0]) / (2 * h) - dr_ur) / max(1, abs(dr_ur)) < 1e-6
        assert abs((fdp[1] - fdm[1]) / (2 * h) - di_ur) / max(1, abs(di_ur)) < 1e-6
        fdp = zip_current(y, ic, s, ur, ui + h)
        fdm = zip_current(y, ic, s, ur, ui - h)
        assert abs((fdp[0] - fdm[0]) / (2 * h) - dr_ui) / max(1, abs(dr_ui)) < 1e-6
        assert abs((fdp[1] - fdm[1]) / (2 * h) - di_ui) / max(1, abs(di_ui)) < 1e-6


# -- whole-system checks -----------------------------------------------------


def fd_jacobian(companion, state, modes=None):
    h = 1e-7
    dim = companion.index.dim
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
    return net, effective_params(net), GenModes.initial(net)


def tx_half_remote():
    net = net_remote()
    return net, tx_transform(net, 0.5, 10.0), GenModes.initial(net)


def power_half():
    net = net_3phase()
    return net, power_transform(net, 0.5), GenModes.initial(net)


def pinned_gen():
    net, params, modes = plain(net_allparts)
    modes.mode[0, 0] = GEN_PINNED
    modes.q_pin[0, 0] = 0.3
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
    companion = build_companion(net, params, index)
    system = SparseSystem(index.dim)
    system.assemble(*assemble_system(companion, state, 1.0, modes))
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
    companion = build_companion(net, effective_params(net), index)
    f_unit = residual_vector(companion, state)
    # zeta must not change the residual at the expansion point
    system = SparseSystem(index.dim)
    system.assemble(*assemble_system(companion, state, 0.3, GenModes.initial(net)))
    f_damped = system.matrix @ state.x - system.rhs
    np.testing.assert_allclose(f_damped, f_unit, atol=1e-14)


def test_sparsity_pattern_is_iterate_independent():
    net = net_allparts()
    index = IndexMap(net)
    params = effective_params(net)
    free = GenModes.initial(net)
    pinned = free.copy()
    pinned.mode[0, 0] = GEN_PINNED
    s1 = flat_state(index)
    s2 = flat_state(index)
    s2.x[: 2 * index.nbus] += 0.05
    r1, c1, *_ = assemble_system(build_companion(net, params, index), s1, 1.0, free)
    # nor does it depend on pinned Q rows or on zeroed parameters
    for prm, st, modes in ((params, s2, free), (params, s1, pinned),
                           (tx_transform(net, 0.5, 10.0), s1, free),
                           (power_transform(net, 0.0), s2, free)):
        r2, c2, *_ = assemble_system(build_companion(net, prm, index), st, 1.0, modes)
        assert np.array_equal(r1, r2) and np.array_equal(c1, c2)


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
