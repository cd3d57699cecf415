import math
from dataclasses import replace

import numpy as np
import pytest

from steadygrid.caseio import load_case
from steadygrid.cli import main
from steadygrid.indexing import IndexMap, flat_state
from steadygrid import nr
from steadygrid.linsys import SparseSystem
from steadygrid.nr import (
    LARGE_STEP,
    ZETA_GROWTH,
    ZETA_INIT,
    ZETA_MIN,
    ZETA_SHRINK,
    NrOptions,
    NrTraceRow,
    apply_q_limiting,
    apply_voltage_limiting,
    check_convergence,
    update_zeta,
)
from steadygrid.stamps import build_companion, effective_params
from steadygrid.solver import solve

from conftest import assembled, case_path, net_2bus, net_linear, newton, slack_ir
from stamps_reference import pv_current


@pytest.fixture
def wide(monkeypatch):
    """Options at tol 1e-10 with the step cap at 100 pu, beyond every step
    these tests take."""
    monkeypatch.setattr(nr, "DV_MAX", 100.0)
    return NrOptions(tol=1e-10)


def bound_of(net):
    """The network's own parameter set bound to a fresh layout."""
    return build_companion(net, IndexMap(net)).bind(effective_params(net))


def row(it, res, dv, zeta=1.0, limited=0):
    return NrTraceRow(it, res, dv, zeta, limited)


def split(bound, state):
    """``(max_kcl, max_constraint)`` of the undamped system at ``state``."""
    return check_convergence(bound.layout, assembled(bound, state), state)


# -- voltage limiting -----------------------------------------------------------


def test_step_cap():
    assert nr.DV_MAX == 0.1
    out, limited = apply_voltage_limiting(np.array([1.0]), np.array([-0.5]))
    assert out[0] == pytest.approx(0.9) and limited == 1


def test_clamp_branch(monkeypatch):
    assert (nr.V_MIN, nr.V_MAX) == (-2.0, 2.0)
    monkeypatch.setattr(nr, "DV_MAX", 0.3)
    out, limited = apply_voltage_limiting(np.array([1.95]), np.array([0.2]))
    assert out[0] == pytest.approx(2.0) and limited == 1


def test_zero_step_fixed_point():
    out, limited = apply_voltage_limiting(np.array([0.97]), np.array([0.0]))
    assert out[0] == 0.97 and limited == 0


def test_limiting_safety_property():
    rng = np.random.default_rng(1)
    for _ in range(300):
        v = rng.uniform(-2, 2, size=12)
        dv = rng.uniform(-10, 10, size=12)
        out, limited = apply_voltage_limiting(v, dv)
        assert np.all(out >= nr.V_MIN - 1e-15) and np.all(out <= nr.V_MAX + 1e-15)
        assert np.all(np.abs(out - v) <= nr.DV_MAX + 1e-15)
        # a component the limiter left alone took its whole step
        assert limited == np.count_nonzero(out != v + dv)


def test_voltage_limiting_matches_the_clip_formula_bit_for_bit(monkeypatch):
    # at, inside and beyond each bound, signed zeros, NaN and infinities
    special = np.array([
        -np.inf, -3.0, -2.0, np.nextafter(-2.0, -3.0), -1.0, -0.25, -0.0, 0.0,
        0.25, 1.0, np.nextafter(2.0, 3.0), 2.0, 3.0, np.inf, np.nan,
    ])
    v_k, dv = (a.ravel() for a in np.meshgrid(special, special))
    rng = np.random.default_rng(14)
    monkeypatch.setattr(nr, "DV_MAX", 0.25)
    for v_min, v_max in [(-2.0, 2.0), (-1.0, 0.0), (-1.0, -0.0), (0.0, 1.0), (-0.0, 1.0)]:
        monkeypatch.setattr(nr, "V_MIN", v_min)
        monkeypatch.setattr(nr, "V_MAX", v_max)
        # every length, so that vector loops and their scalar tails both run
        for n in (*range(1, 40), v_k.size):
            pick = rng.integers(0, v_k.size, size=n) if n < v_k.size else np.arange(n)
            with np.errstate(invalid="ignore"):  # inf - inf and NaN comparisons
                step = np.sign(dv[pick]) * np.minimum(np.abs(dv[pick]), 0.25)
                want = np.clip(v_k[pick] + step, v_min, v_max)
                # the decisions on the unlimited step: capped, or clamped
                reach = v_k[pick] + dv[pick]
                decided = (np.abs(dv[pick]) > 0.25) | (reach < v_min) | (reach > v_max)
                got, limited = apply_voltage_limiting(v_k[pick], dv[pick])
            assert got.tobytes() == want.tobytes()
            assert limited == np.count_nonzero(decided)


# -- zeta heuristics ----------------------------------------------------------


def test_zeta_shrinks_on_large_step():
    assert (LARGE_STEP, ZETA_SHRINK) == (0.5, 0.5)
    assert update_zeta([row(0, 1.0, 2.0)], 1.0) == 0.5


def test_zeta_grows_after_monotone_errors():
    assert ZETA_GROWTH == 2.0
    trace = [row(0, 1, 0.4), row(1, 1, 0.2), row(2, 1, 0.1)]
    assert update_zeta(trace, 0.25) == 0.5


def test_zeta_floor(monkeypatch):
    assert (ZETA_SHRINK, ZETA_MIN) == (0.5, 0.05)
    assert update_zeta([row(0, 1, 5.0)], 0.05) == 0.05
    assert update_zeta([row(0, 1, 5.0)], 0.08) == 0.05
    # the floor is read when the damping shrinks
    monkeypatch.setattr(nr, "ZETA_MIN", 0.3)
    assert update_zeta([row(0, 1, 5.0)], 0.5) == 0.3


def test_zeta_cap_at_one():
    assert ZETA_GROWTH == 2.0
    trace = [row(0, 1, 0.4), row(1, 1, 0.2), row(2, 1, 0.1)]
    assert update_zeta(trace, 0.8) == 1.0


def test_zeta_stays_in_band_for_any_sequence():
    rng = np.random.default_rng(2)
    zeta = ZETA_INIT
    trace = []
    for k in range(200):
        trace.append(row(k, 1.0, float(rng.uniform(0, 2))))
        zeta = update_zeta(trace, zeta)
        assert ZETA_MIN <= zeta <= 1.0


def test_options_invariants_enforced():
    with pytest.raises(ValueError, match="tol"):
        NrOptions(tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        NrOptions(max_iter=-1)


def test_q_cap_must_be_positive():
    # 0 freezes Q, a negative cap overshoots the raw step and nan limits by accident
    for bad in (0.0, -0.05, math.nan):
        with pytest.raises(ValueError, match="di_max"):
            NrOptions(di_max=bad)
    for cap in (math.inf, 0.05, 1e300):
        assert NrOptions(di_max=cap).di_max == cap


# -- Q limiting ----------------------------------------------------------------


def limit_one(q_k, q_raw, v, di_max):
    """``apply_q_limiting`` on a single lane."""
    [q] = apply_q_limiting(np.array([q_k]), np.array([q_raw]), np.array([v], complex), di_max)
    return q


def scalar_q_limit(q_k, q_raw, vr, vi, di_max):
    """One lane of the Q limiter's closed form in plain float arithmetic."""
    dq = q_raw - q_k
    d = vr * vr + vi * vi
    d_ir, d_ii = dq * (vi / d), dq * (-vr / d)
    if abs(d_ir) <= di_max and abs(d_ii) <= di_max:
        return q_raw
    c_r = math.copysign(min(abs(d_ir), di_max), d_ir)
    c_i = math.copysign(min(abs(d_ii), di_max), d_ii)
    return q_k + c_r * vi - c_i * vr


def round_trip_q_limit(p, q_k, q_raw, vr, vi, di_max):
    """The Q limiter as a round trip through the source current: the
    constant-P currents at ``q_k`` and ``q_raw``, their change capped per
    component, the capped current inverted back to Q."""
    ir_k, ii_k = pv_current(p, q_k, vr, vi)
    ir_n, ii_n = pv_current(p, q_raw, vr, vi)
    d_ir, d_ii = ir_n - ir_k, ii_n - ii_k
    within = (np.abs(d_ir) <= di_max) & (np.abs(d_ii) <= di_max)
    ir_lim = ir_k + np.copysign(np.fmin(np.abs(d_ir), di_max), d_ir)
    ii_lim = ii_k + np.copysign(np.fmin(np.abs(d_ii), di_max), d_ii)
    return np.where(within, q_raw, ir_lim * vi - ii_lim * vr)


def test_q_step_within_cap_is_untouched():
    q = limit_one(0.0, 0.3, 1.0 + 0.0j, di_max=10.0)
    assert q == 0.3


@pytest.mark.parametrize("di_max", [0.0, 0.05, 0.5, 10.0, math.inf, math.nan])
def test_q_limiting_over_lanes_matches_each_lane_bit_for_bit(di_max):
    rng = np.random.default_rng(12)
    n = 64
    q_k, q_raw = rng.uniform(-2, 2, size=(2, n))
    vr, vi = rng.uniform(0.5, 1.5, size=n), rng.uniform(-0.5, 0.5, size=n)
    q_raw[3:6] = q_k[3:6]  # lanes that do not move
    got = apply_q_limiting(q_k, q_raw, vr + 1j * vi, di_max)
    lanes = zip(*(a.tolist() for a in (q_k, q_raw, vr, vi)))
    want = [scalar_q_limit(*lane, di_max) for lane in lanes]
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("di_max", [0.0, 0.05, 0.5, 10.0])
def test_q_limiting_matches_the_source_current_round_trip(di_max):
    # a constant-P source's current moves by -j dQ v / |v|^2 whatever P is
    rng = np.random.default_rng(5)
    n = 20_000
    p, q_k, q_raw = rng.uniform(-5, 5, size=(3, n))
    p[p == 0.0] = 1.0
    v = rng.uniform(0.3, 1.7, size=n) * np.exp(1j * rng.uniform(-np.pi, np.pi, size=n))
    got = apply_q_limiting(q_k, q_raw, v, di_max)
    want = round_trip_q_limit(p, q_k, q_raw, v.real, v.imag, di_max)
    scale = np.maximum(1.0, np.abs(q_k) + np.abs(q_raw))
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_zero_cap_freezes_q():
    q = limit_one(0.2, 5.0, 1.0 + 0.1j, di_max=0.0)
    assert q == pytest.approx(0.2, abs=1e-14)


def test_partial_cap_limits_q_change():
    q_raw = 5.0
    q = limit_one(0.0, q_raw, 1.0 + 0.0j, di_max=0.5)
    assert 0.0 < abs(q) < abs(q_raw)


# -- the Newton loop --------------------------------------------------------------


def test_linear_network_converges_in_one_iteration_from_any_start(monkeypatch, wide):
    factorizations = []

    def counting_factor_solve(self, _run=SparseSystem.factor_solve):
        factorizations.append(self)
        return _run(self)

    monkeypatch.setattr(SparseSystem, "factor_solve", counting_factor_solve)
    net = net_linear()
    bound = bound_of(net)
    index = bound.layout.index
    rng = np.random.default_rng(9)
    for _ in range(10):
        state = flat_state(index)
        state.x += rng.uniform(-3, 3, size=index.dim)
        out, ok, iters, _ = newton(bound, state, wide)
        assert ok and iters == 1
        assert len(factorizations) == 1
        # already at the solution: measured, never factored
        out2, ok2, iters2, _ = newton(bound, out, wide)
        assert ok2 and iters2 == 0
        assert len(factorizations) == 1
        factorizations.clear()


def test_zero_budget_measures_the_start_only(wide):
    bound = bound_of(net_2bus(p=0.5, q=0.2))
    start = flat_state(bound.layout.index)
    trace = []
    out, ok, iters, residual = newton(bound, start, NrOptions(max_iter=0), trace=trace)
    assert (ok, iters, trace) == (False, 0, [])
    assert np.array_equal(out.x, start.x)
    # the residual of the returned iterate, here the start's
    assert residual == split(bound, start)[0] > 1e-6
    solved, ok, _, _ = newton(bound, start, wide)
    assert ok
    ok, iters, residual = newton(bound, solved, NrOptions(tol=1e-8, max_iter=0))[1:]
    assert (ok, iters) == (True, 0) and residual < 1e-8


def test_two_bus_quadratic_convergence(wide):
    bound = bound_of(net_2bus())
    trace = []
    state, ok, iters, residual = newton(
        bound, flat_state(bound.layout.index), wide, trace=trace
    )
    assert ok and residual < wide.tol
    residuals = [r.residual for r in trace if r.residual > 0]
    # superlinear: successive ratios shrink
    ratios = [residuals[k + 1] / residuals[k] for k in range(len(residuals) - 1)]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert max(split(bound, state)) < 1e-10


def test_raw_step_capped_in_trace(monkeypatch):
    bound = bound_of(net_2bus(p=1.2, q=0.5))
    monkeypatch.setattr(nr, "DV_MAX", 0.02)
    trace = []
    newton(bound, flat_state(bound.layout.index), NrOptions(), trace=trace)
    # raw Newton steps recorded, limited count increments when capped
    assert any(r.limited > 0 for r in trace)


def test_limited_counts_capped_and_clamped_variables(monkeypatch, wide):
    bound = bound_of(net_2bus(p=0.5, q=0.2))
    start = flat_state(bound.layout.index)
    counts = []
    # the first step moves bus 2 by a few hundredths and leaves the slack at 1
    for dv_max, v_max in ((100.0, 10.0), (1e-3, 10.0), (100.0, 0.999)):
        monkeypatch.setattr(nr, "DV_MAX", dv_max)
        monkeypatch.setattr(nr, "V_MIN", -10.0)
        monkeypatch.setattr(nr, "V_MAX", v_max)
        trace = []
        newton(bound, start, replace(wide, max_iter=1), trace=trace)
        counts.append(trace[0].limited)
    assert counts == [0, 2, 1]


def test_check_convergence_zero_load_flat():
    bound = bound_of(net_linear().with_devices(big_loads=()))
    assert max(split(bound, flat_state(bound.layout.index))) < 1e-12


def test_check_convergence_flat_start_equals_injection():
    bound = bound_of(net_2bus(p=0.5, q=0.2))
    max_kcl, max_con = split(bound, flat_state(bound.layout.index))
    assert max(max_kcl, max_con) >= 1e-6
    # at a flat start the only KCL violation is the load's own current draw;
    # the residual is a max over the real/imaginary rows separately
    assert max_kcl == pytest.approx(max(0.5, 0.2), rel=1e-12)


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
    state.v[0, 1] = vr * complex(math.cos(delta), math.sin(delta))
    # slack source current must carry the line flow for the KCL row
    i_line = (1.0 - state.v_complex()[0, 1]) / complex(0.0, x)
    state.x[slack_ir(index, 0, 0)] = i_line.real
    state.x[slack_ir(index, 0, 0) + 1] = i_line.imag
    assert max(split(bound_of(net), state)) <= 1e-12


def test_trace_csv_format(tmp_path):
    # the CLI's trace.csv: one row per trace row, each float in its shortest
    # round-trip form
    assert main(["solve", case_path("case14.net"), "--trace", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,residual,max_dv,zeta,limited"
    report, _ = solve(load_case(case_path("case14.net")).network)
    assert lines[1:] == [f"{r.iteration},{r.residual!r},{r.max_dv!r},{r.zeta!r},{r.limited}"
                         for r in report.nr_trace]


def test_nr_applies_clamp_bounds():
    bound = bound_of(net_2bus(p=3.0, q=1.5))  # infeasible: would dive toward collapse
    index = bound.layout.index
    opts = NrOptions(max_iter=30)
    trace = []
    state, ok, _, _ = newton(bound, flat_state(index), opts, trace=trace)
    nv = 2 * index.nbus
    assert np.all(state.x[:nv] >= nr.V_MIN) and np.all(state.x[:nv] <= nr.V_MAX)
