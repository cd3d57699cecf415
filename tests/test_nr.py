import math

import numpy as np
import pytest

from steadygrid.indexing import IndexMap, flat_state
from steadygrid.linsys import SparseSystem
from steadygrid.nr import (
    NrOptions,
    NrTraceRow,
    apply_q_limiting,
    apply_voltage_limiting,
    check_convergence,
    run_newton,
    trace_to_csv,
    update_zeta,
)
from steadygrid.stamps import GenModes, effective_params, invert_pv_current, pv_current
from steadygrid.solver import uniform_state

from conftest import net_2bus, net_3bus, net_linear

WIDE = NrOptions(tol=1e-10, dv_max=100.0, v_min=-10.0, v_max=10.0)


def row(it, res, dv, zeta=1.0, limited=0):
    return NrTraceRow(it, res, dv, zeta, limited)


# -- voltage limiting -----------------------------------------------------------


def test_step_cap():
    opts = NrOptions(dv_max=0.1, v_min=-2.0, v_max=2.0)
    out = apply_voltage_limiting(np.array([1.0]), np.array([-0.5]), opts)
    assert out[0] == pytest.approx(0.9)


def test_clamp_branch():
    opts = NrOptions(dv_max=0.3, v_min=-2.0, v_max=2.0)
    out = apply_voltage_limiting(np.array([1.95]), np.array([0.2]), opts)
    assert out[0] == pytest.approx(2.0)


def test_zero_step_fixed_point():
    opts = NrOptions()
    out = apply_voltage_limiting(np.array([0.97]), np.array([0.0]), opts)
    assert out[0] == 0.97


def test_limiting_safety_property():
    rng = np.random.default_rng(1)
    opts = NrOptions(dv_max=0.1, v_min=-2.0, v_max=2.0)
    for _ in range(300):
        v = rng.uniform(-2, 2, size=12)
        dv = rng.uniform(-10, 10, size=12)
        out = apply_voltage_limiting(v, dv, opts)
        assert np.all(out >= opts.v_min - 1e-15) and np.all(out <= opts.v_max + 1e-15)
        assert np.all(np.abs(out - v) <= opts.dv_max + 1e-15)


# -- zeta heuristics ----------------------------------------------------------


def test_zeta_shrinks_on_large_step():
    opts = NrOptions(large_step=0.5, zeta_shrink=0.5, zeta_min=0.05)
    assert update_zeta([row(0, 1.0, 2.0)], 1.0, opts) == 0.5


def test_zeta_grows_after_monotone_errors():
    opts = NrOptions(zeta_growth=2.0)
    trace = [row(0, 1, 0.4), row(1, 1, 0.2), row(2, 1, 0.1)]
    assert update_zeta(trace, 0.25, opts) == 0.5


def test_zeta_floor():
    opts = NrOptions(zeta_min=0.05, zeta_shrink=0.5)
    assert update_zeta([row(0, 1, 5.0)], 0.05, opts) == 0.05


def test_zeta_cap_at_one():
    opts = NrOptions(zeta_growth=2.0)
    trace = [row(0, 1, 0.4), row(1, 1, 0.2), row(2, 1, 0.1)]
    assert update_zeta(trace, 0.8, opts) == 1.0


def test_zeta_stays_in_band_for_any_sequence():
    opts = NrOptions()
    rng = np.random.default_rng(2)
    zeta = opts.zeta_init
    trace = []
    for k in range(200):
        trace.append(row(k, 1.0, float(rng.uniform(0, 2))))
        zeta = update_zeta(trace, zeta, opts)
        assert opts.zeta_min <= zeta <= 1.0


def test_options_invariants_enforced():
    with pytest.raises(ValueError):
        NrOptions(zeta_min=0.0)
    with pytest.raises(ValueError):
        NrOptions(zeta_init=1.5)
    with pytest.raises(ValueError):
        NrOptions(dv_max=0.0)
    with pytest.raises(ValueError):
        NrOptions(v_min=2.0, v_max=-2.0)


# -- Q limiting ----------------------------------------------------------------


def test_q_step_within_cap_is_untouched():
    q = apply_q_limiting(1.0, 0.0, 0.3, 1.0, 0.0, di_max=10.0)
    assert q == 0.3


def test_current_inverse_reference_point():
    p, q = invert_pv_current(1.0, -0.5, 1.0, 0.0)
    assert (p, q) == (1.0, 0.5)


def test_inverse_is_exact_against_forward():
    rng = np.random.default_rng(4)
    for _ in range(100):
        p0, q0 = rng.uniform(-2, 2, size=2)
        vr, vi = rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)
        ir, ii = pv_current(p0, q0, vr, vi)
        p1, q1 = invert_pv_current(ir, ii, vr, vi)
        assert p1 == pytest.approx(p0, abs=1e-12)
        assert q1 == pytest.approx(q0, abs=1e-12)


def test_zero_cap_freezes_q():
    q = apply_q_limiting(0.7, 0.2, 5.0, 1.0, 0.1, di_max=0.0)
    assert q == pytest.approx(0.2, abs=1e-14)


def test_partial_cap_limits_q_change():
    q_raw = 5.0
    q = apply_q_limiting(1.0, 0.0, q_raw, 1.0, 0.0, di_max=0.5)
    assert 0.0 < abs(q) < abs(q_raw)


# -- the Newton loop --------------------------------------------------------------


def test_linear_network_converges_in_one_iteration_from_any_start():
    net = net_linear()
    index = IndexMap(net)
    params = effective_params(net)
    rng = np.random.default_rng(9)
    for _ in range(10):
        state = flat_state(index)
        state.x += rng.uniform(-3, 3, size=index.dim)
        out, ok, iters = run_newton(net, params, index, state, WIDE)
        assert ok and iters == 1
        # second iterate would take a zero step: already at the solution
        out2, ok2, iters2 = run_newton(net, params, index, out, WIDE)
        assert ok2 and iters2 == 0


def test_two_bus_quadratic_convergence():
    net = net_2bus()
    index = IndexMap(net)
    params = effective_params(net)
    trace = []
    state, ok, iters = run_newton(net, params, index, flat_state(index), WIDE, trace=trace)
    assert ok
    residuals = [r.residual for r in trace if r.residual > 0]
    # superlinear: successive ratios shrink
    ratios = [residuals[k + 1] / residuals[k] for k in range(len(residuals) - 1)]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    rep = check_convergence(net, state, 1e-10)
    assert rep.converged


def test_raw_step_capped_in_trace():
    net = net_2bus(p=1.2, q=0.5)
    index = IndexMap(net)
    params = effective_params(net)
    opts = NrOptions(dv_max=0.02)
    trace = []
    run_newton(net, params, index, flat_state(index), opts, trace=trace)
    # raw Newton steps recorded, limited count increments when capped
    assert any(r.limited > 0 for r in trace)


def test_check_convergence_zero_load_flat():
    net = net_linear().with_devices(big_loads=())
    state = flat_state(IndexMap(net))
    rep = check_convergence(net, state, 1e-12)
    assert rep.converged and rep.residual <= 1e-12


def test_check_convergence_flat_start_equals_injection():
    net = net_2bus(p=0.5, q=0.2)
    state = flat_state(IndexMap(net))
    rep = check_convergence(net, state, 1e-6)
    assert not rep.converged
    # at a flat start the only KCL violation is the load's own current draw;
    # the residual is a max over the real/imaginary rows separately
    assert rep.max_kcl == pytest.approx(max(0.5, 0.2), rel=1e-12)


def test_check_convergence_on_analytic_two_bus():
    # lossless branch: closed-form receiving-end voltage
    x = 0.2
    p, q = 1.0, 0.3
    net = net_2bus(p=p, q=q, r=0.0, x=x)
    disc = (1.0 - 2 * q * x) ** 2 - 4 * x * x * (p * p + q * q)
    vsq = ((1.0 - 2 * q * x) + math.sqrt(disc)) / 2.0
    vr = math.sqrt(vsq)  # take the high branch; solve angle from P flow
    # P = (V1 V2 / X) sin(delta12): delta2 = -asin(P X / V2)
    delta = -math.asin(p * x / math.sqrt(vsq))
    index = IndexMap(net)
    state = flat_state(index)
    state.set_voltage(1, 0, vr * complex(math.cos(delta), math.sin(delta)))
    # slack source current must carry the line flow for the KCL row
    i_line = (1.0 - state.v_complex()[0, 1]) / complex(0.0, x)
    state.x[index.slack_ir(0, 0)] = i_line.real
    state.x[index.slack_ii(0, 0)] = i_line.imag
    rep = check_convergence(net, state, 1e-9)
    assert rep.converged
    assert rep.residual <= 1e-12


def test_trace_csv_format():
    trace = [row(0, 1e-2, 0.3, 1.0, 2), row(1, 1e-5, 0.01, 1.0, 0)]
    csv = trace_to_csv(trace)
    lines = csv.strip().splitlines()
    assert lines[0] == "iteration,residual,max_dv,zeta,limited"
    assert lines[1].startswith("0,0.01,")
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["2", "0"]


def test_nr_applies_clamp_bounds():
    net = net_2bus(p=3.0, q=1.5)  # infeasible: would dive toward collapse
    index = IndexMap(net)
    params = effective_params(net)
    opts = NrOptions(max_iter=30)
    trace = []
    state, ok, _ = run_newton(net, params, index, flat_state(index), opts, trace=trace)
    nv = 2 * index.nbus
    assert np.all(state.x[:nv] >= opts.v_min) and np.all(state.x[:nv] <= opts.v_max)
