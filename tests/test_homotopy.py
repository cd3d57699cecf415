from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from steadygrid.caseio import load_case
from steadygrid.homotopy import (
    LAMBDA_TRACE_FIELDS,
    anchored_state,
    power_transform,
    tx_transform,
)
from steadygrid.indexing import IndexMap
from steadygrid.nr import NrOptions
from steadygrid.solver import SolverOptions, solve
from steadygrid.stamps import build_companion, build_virtual_shorts, effective_params

from conftest import (
    ALL_NET_CASES,
    case_path,
    net_2bus,
    net_3bus,
    net_3phase,
    net_allparts,
    newton,
)


def params_identical(a, b):
    for name in ("branch_y", "branch_bf", "branch_bt", "xfmr_y", "xfmr_tap",
                 "xfmr_shift", "shunt_y", "gen_p", "zip_y", "zip_i", "zip_s",
                 "big_alpha", "big_y"):
        la, lb = getattr(a, name), getattr(b, name)
        assert len(la) == len(lb)
        for xa, xb in zip(la, lb):
            if not np.array_equal(np.asarray(xa), np.asarray(xb)):
                return False
    for qa, qb in zip(a.gen_q, b.gen_q):
        if (qa is None) != (qb is None):
            return False
        if qa is not None and not np.array_equal(qa, qb):
            return False
    return True


# -- transforms -----------------------------------------------------------------


def test_tx_scaling_reference_value():
    net = net_2bus(r=0.0099, x=0.0999)
    y = 1.0 - 10.0j
    object.__setattr__(net.branches[0], "y_series", np.array([[y]]))
    p = tx_transform(effective_params(net), 1.0, 1000.0)
    assert p.branch_y[0][0, 0] == (1.0 - 10.0j) * 1001.0
    assert p.branch_y[0][0, 0] == pytest.approx(1001.0 - 10010.0j)


@pytest.mark.parametrize("name", ALL_NET_CASES + ["feeder8.json"])
def test_tx_endpoint_identity_bit_exact(name):
    net = load_case(case_path(name)).network
    base = effective_params(net)
    p0 = tx_transform(base, 0.0, 1e4)
    assert params_identical(p0, base)
    assert p0.short_y == base.short_y == 0.0  # open paths at the original problem


@pytest.mark.parametrize("name", ALL_NET_CASES + ["feeder8.json"])
def test_power_endpoint_identity_bit_exact(name):
    net = load_case(case_path(name)).network
    base = effective_params(net)
    assert params_identical(power_transform(base, 1.0), base)


def test_three_phase_scaling_is_diagonal_only():
    net = net_3phase()
    yb = np.array(net.branches[0].y_series)
    yaa = 5.0 - 20.0j
    yab = -1.0 + 3.0j
    y = np.full((3, 3), yab)
    np.fill_diagonal(y, yaa)
    object.__setattr__(net.branches[0], "y_series", y)
    p = tx_transform(effective_params(net), 0.5, 100.0)
    out = p.branch_y[0]
    assert out[0, 0] == yaa * 51.0
    assert out[0, 1] == yab  # mutual terms untouched
    assert out[1, 2] == yab


def test_power_transform_scales_loads_and_generation():
    net = net_allparts()
    base = effective_params(net)
    p0 = power_transform(base, 0.0)
    assert all(np.all(x == 0) for x in p0.gen_p)
    assert all(np.all(x == 0) for x in p0.zip_s)
    assert all(np.all(x == 0) for x in p0.zip_i)
    assert all(np.all(x == 0) for x in p0.big_alpha)
    # impedance parts untouched
    for a, b in zip(p0.zip_y, base.zip_y):
        assert np.array_equal(a, b)
    half = power_transform(base, 0.5)
    idx = [k for k, z in enumerate(net.zip_loads) if z.s[0].real == 0.3][0]
    assert half.zip_s[idx][0].real == pytest.approx(0.15)


def test_power_half_scaling_reference():
    half = power_transform(effective_params(net_2bus(p=0.8, q=0.0)), 0.5)
    assert half.zip_s[0][0] == pytest.approx(0.4 + 0.0j)


def test_shunt_open_circuit_schedule():
    net = net_allparts()
    base = effective_params(net)
    for lam, factor in ((1.0, 0.0), (0.0, 1.0), (0.25, 0.75)):
        p = tx_transform(base, lam, 1e4)
        np.testing.assert_allclose(p.shunt_y[0], base.shunt_y[0] * factor, atol=1e-15)
    # charging follows the shunts
    p = tx_transform(base, 0.25, 1e4)
    np.testing.assert_allclose(p.branch_bf[0], base.branch_bf[0] * 0.75, atol=1e-16)


# -- virtual shorts -------------------------------------------------------------


def test_no_remote_control_no_shorts():
    assert build_virtual_shorts(net_3bus()) == []


def test_remote_pair_maps_to_single_path():
    net = load_case(case_path("case6_remote.net")).network
    assert build_virtual_shorts(net) == [(5, 3)]
    # the path is there at lambda = 0 but carries no admittance
    p0 = tx_transform(effective_params(net), 0.0, 1e4)
    assert p0.short_y == 0.0
    # the companion lays the path out as four 2x2 blocks between the pair's
    # nodes, all zero: the linear part is that of the unpaired network
    index = IndexMap(net)
    local = net.with_devices(
        generators=tuple(replace(g, remote_bus=None) for g in net.generators)
    )

    def linear_part(c):
        p = c.layout.pattern
        a = sparse.csc_matrix((c.linear_data, p.indices, p.indptr), shape=(index.dim, index.dim))
        return c.layout.linear_slots.size, a.toarray()

    n_pair, a_pair = linear_part(build_companion(net, index).bind(p0))
    n_local, a_local = linear_part(build_companion(local, index).bind(p0))
    assert n_pair - n_local == 16
    assert np.array_equal(a_pair, a_local)


def test_short_admittance_scales_with_lambda():
    base = effective_params(load_case(case_path("case6_remote.net")).network)
    p = tx_transform(base, 0.5, 1e4)
    assert p.short_y == 0.5 * 1e4 * (1.0 - 1.0j)
    assert tx_transform(base, 0.0, 1e4).short_y == 0.0


# -- the driver -----------------------------------------------------------------


def test_cross_method_agreement_three_bus():
    net = net_3bus()
    opts = NrOptions(tol=1e-10)
    base_rep, base_state = solve(net, SolverOptions(nr=opts))
    assert base_rep.status == "converged"
    for method in ("tx", "power"):
        report, state = solve(net, SolverOptions(nr=opts, homotopy=method))
        assert report.status == "converged"
        dv = np.max(np.abs(state.v_complex() - base_state.v_complex()))
        assert dv < 1e-8


@pytest.mark.parametrize("name", ALL_NET_CASES)
def test_shorted_system_voltages_hug_the_sources(name):
    # the first sub-problem holds every bus near the slack/PV magnitudes
    net = load_case(case_path(name)).network
    index = IndexMap(net)
    bound = build_companion(net, index).bind(tx_transform(effective_params(net), 1.0, 1e4))
    state, ok, iters, _ = newton(bound, anchored_state(net, index), NrOptions(tol=1e-8))
    assert ok
    assert iters <= 5  # trivial problem property
    vmag = state.v_mag()
    sets = [b.v_set for b in net.buses if b.v_set is not None]
    lo, hi = min(sets), max(sets)
    # buses driving a remote target carry the virtual short's supply current,
    # so their own magnitude may sag a little more; everyone stays high
    controlling = {
        net.bus_index[g.bus]
        for g in net.generators
        if g.controls_voltage and g.remote_bus is not None and g.remote_bus != g.bus
    }
    for pos in range(net.nbus):
        lo_k = lo - (0.05 if pos in controlling else 0.01)
        assert np.all(vmag[:, pos] >= lo_k)
        assert np.all(vmag[:, pos] <= hi + 0.01)


def test_lambda_monotone_nonincreasing():
    net = load_case(case_path("case14.net")).network
    report, _ = solve(net, SolverOptions(homotopy="tx"))
    assert report.status == "converged"
    lams = [l for l, _, _ in report.lambda_trace]
    assert all(b <= a for a, b in zip(lams, lams[1:]))
    assert lams[0] == 1.0 and lams[-1] == 0.0


@pytest.mark.parametrize("method", ["tx", "power"])
@pytest.mark.parametrize("name", ["case2.net", "case2_twosol.net", "hard_corridor.net",
                                  "case196_mesh.net"])
def test_lambda_trace_logs_the_residual_of_each_accepted_step(name, method):
    net = load_case(case_path(name)).network
    report, _ = solve(net, SolverOptions(homotopy=method, nr=NrOptions(tol=1e-8)))
    assert report.status == "converged" and report.lambda_trace
    # measured at the iterate each step accepted, so every one met tol; a
    # step already converged at its start (0 iterations) logs its own too
    assert all(res < 1e-8 for _, _, res in report.lambda_trace)


def test_warm_start_continuity():
    net = load_case(case_path("case14.net")).network
    index = IndexMap(net)
    layout = build_companion(net, index)
    base = effective_params(net)
    opts = NrOptions(tol=1e-10)
    state = anchored_state(net, index)
    prev = None
    bound = 6.0  # max |dV| per unit of d(lambda); loose empirical bound
    lam_prev = None
    report, final = solve(net, SolverOptions(nr=opts, homotopy="tx"))
    # one pass: the final state is the continuation's own
    assert report.status == "converged" and report.outer_passes == 1
    for lam, _, _ in report.lambda_trace:
        state, ok, _, _ = newton(layout.bind(tx_transform(base, lam, 1e4)), state, opts)
        assert ok
        v = state.v_complex().copy()
        if prev is not None and lam_prev != lam:
            dv = np.max(np.abs(v - prev))
            assert dv <= bound * abs(lam_prev - lam) + 1e-6
        prev, lam_prev = v, lam
    np.testing.assert_allclose(np.abs(prev), final.v_mag(), atol=1e-8)


def test_high_voltage_branch_selected():
    net = load_case(case_path("case2_twosol.net")).network
    # analytic pair: |V2| = 0.9096 (high) or 0.2296 (low)
    report, state = solve(net, SolverOptions(nr=NrOptions(tol=1e-10), homotopy="tx"))
    assert report.status == "converged"
    v2 = state.v_mag()[0, 1]
    assert v2 == pytest.approx(0.90957, abs=1e-4)


def test_step_underflow_reports_last_good_lambda():
    net = net_2bus(p=3.0, q=1.0, x=0.2, r=0.0)  # no solution at full load
    options = SolverOptions(nr=NrOptions(max_iter=40), homotopy="power")
    report, _ = solve(net, options)
    assert report.status == "diverged"
    assert 0.0 < report.last_lambda <= 1.0
    assert LAMBDA_TRACE_FIELDS == ("lambda", "nr_iterations", "residual")
    assert all(len(step) == 3 for step in report.lambda_trace)


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown homotopy method"):
        SolverOptions(homotopy="bogus")
