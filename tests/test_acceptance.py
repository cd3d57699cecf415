"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with the measured numbers when it holds."""

import math
import time

import numpy as np
import pytest

from steadygrid.analyses import (
    ContingencySet,
    Outage,
    SweepSpec,
    run_contingencies,
    run_sweep,
    sample_contingencies,
    tally,
)
from steadygrid.caseio import load_case
from steadygrid.homotopy import power_transform, tx_transform
from steadygrid.nr import NrOptions
from steadygrid.reference import dense_reference_solve, validate_solution
from steadygrid.solver import (
    CONVERGED,
    START_VANG_DEG,
    START_VMAG,
    InitSpec,
    SolverOptions,
    solve,
)
from steadygrid.network import Generator, phase_array
from steadygrid.stamps import effective_params

from conftest import ALL_NET_CASES, ORACLE_CASES, case_path, make_zip
from stamps_reference import pv_current
from test_stamps import central_differences, lane, zip_current

TIGHT = NrOptions(tol=1e-10)


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    worst_dv, worst_da, n = 0.0, 0.0, 0
    for name in ORACLE_CASES:
        net = load_case(case_path(name)).network
        report, state = solve(net, SolverOptions(nr=TIGHT, enforce_q_limits=False))
        assert report.status == CONVERGED, name
        ref = dense_reference_solve(net, tol=1e-12)
        assert ref.converged, name
        dv = float(np.max(np.abs(ref.vm - state.v_mag())))
        da = float(np.max(np.abs(np.degrees(np.unwrap(ref.va - state.v_ang())))))
        assert dv < 1e-8, f"{name}: |V| disagreement {dv}"
        assert da < 1e-6, f"{name}: angle disagreement {da} deg"
        worst_dv, worst_da = max(worst_dv, dv), max(worst_da, da)
        n += 1
    elapsed = time.perf_counter() - t0
    assert n >= 10
    assert elapsed < 10.0
    _report(1, f"{n} cases agree with the dense power-mismatch reference "
               f"(worst dV={worst_dv:.2e} pu, dAng={worst_da:.2e} deg) in {elapsed:.1f}s")


def test_criterion_2_gradient_suite():
    # the assembled Jacobian rows of one device against central differences
    # of its scalar reference current
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)

    def check(jac, fd):
        assert np.all(np.abs(jac - fd) / np.maximum(1.0, np.abs(jac)) < 1e-6)

    # constant-power source currents
    for _ in range(100):
        p, q = rng.uniform(-2, 2, size=2)
        mag, ang = rng.uniform(0.5, 1.5), rng.uniform(-np.pi, np.pi)
        v = complex(mag * math.cos(ang), mag * math.sin(ang))
        _, jac = lane(Generator(1, 2, p=phase_array(p, 1)), v, q)
        check(jac, central_differences(
            lambda vr, vi, q: [-i for i in pv_current(p, q, vr, vi)], (v.real, v.imag, q)))

    # aggregate-load currents (all three parts active)
    for _ in range(100):
        y = complex(rng.uniform(0, 0.3), -rng.uniform(0, 0.15))
        ic = complex(rng.uniform(0, 0.4), rng.uniform(-0.2, 0.2))
        s = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        mag, ang = rng.uniform(0.5, 1.5), rng.uniform(-np.pi, np.pi)
        u = complex(mag * math.cos(ang), mag * math.sin(ang))
        _, jac = lane(make_zip(1, 2, y=y, i=ic, s=s), u)
        check(jac, central_differences(
            lambda ur, ui: zip_current(y, ic, s, ur, ui), (u.real, u.imag)))

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, f"source and load stamps match central differences at 100 random "
               f"iterates each (rel err < 1e-6) in {elapsed:.1f}s")


def test_criterion_3_homotopy_endpoints():
    checked = 0
    for name in ALL_NET_CASES + ["feeder8.json"]:
        net = load_case(case_path(name)).network
        base = effective_params(net)
        for params in (tx_transform(base, 0.0, 1e4), power_transform(base, 1.0)):
            for attr in ("branch_y", "branch_bf", "branch_bt", "xfmr_y", "xfmr_tap",
                         "xfmr_shift", "shunt_y", "gen_p", "zip_y", "zip_i", "zip_s",
                         "big_alpha", "big_y"):
                for a, b in zip(getattr(params, attr), getattr(base, attr)):
                    assert np.array_equal(np.asarray(a), np.asarray(b)), (name, attr)
            for qa, qb in zip(params.gen_q, base.gen_q):
                assert (qa is None) == (qb is None)
                if qa is not None:
                    assert np.array_equal(qa, qb)
        assert tx_transform(base, 0.0, 1e4).short_y == 0.0
        checked += 1
    _report(3, f"series/power transforms are bit-exact identities at their "
               f"endpoints on {checked} corpus networks")


def test_criterion_4_initial_condition_sweep():
    t0 = time.perf_counter()
    spec = SweepSpec(samples=15, seed=2024)
    net14 = load_case(case_path("case14.net")).network
    tx_opts = SolverOptions(nr=NrOptions(tol=1e-8), homotopy="tx")
    sweep14 = run_sweep(net14, spec, tx_opts)
    assert sweep14.n_converged == 15
    assert sweep14.max_pairwise_dv < 1e-6

    hard = load_case(case_path("hard_corridor.net")).network
    plain = run_sweep(hard, spec, SolverOptions(nr=NrOptions(max_iter=100)))
    with_tx = run_sweep(hard, spec, SolverOptions(nr=NrOptions(max_iter=100), homotopy="tx"))
    assert plain.n_converged < with_tx.n_converged  # strictly fewer
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, f"14-bus sweep 15/15 converged (spread {sweep14.max_pairwise_dv:.1e} pu); "
               f"hard fixture: plain {plain.n_converged}/15 vs continuation "
               f"{with_tx.n_converged}/15, in {elapsed:.1f}s")


def test_criterion_5_three_phase_iteration_count():
    net = load_case(case_path("feeder8.json")).network
    report, state = solve(net, SolverOptions(nr=NrOptions(tol=1e-6)))
    assert report.status == CONVERGED
    assert report.inner_iterations <= 7
    mis = validate_solution(net, state)
    assert mis.max_i < 1e-6
    _report(5, f"unbalanced feeder converged from flat start in "
               f"{report.inner_iterations} iterations, max current mismatch "
               f"{mis.max_i:.1e} pu")


def test_criterion_6_power_stepping_rescue():
    t0 = time.perf_counter()
    net = load_case(case_path("hard_corridor.net")).network
    plain, _ = solve(net, SolverOptions(nr=NrOptions(max_iter=100)))
    assert plain.status != CONVERGED
    rescued, state = solve(net, SolverOptions(nr=NrOptions(max_iter=100), homotopy="power"))
    assert rescued.status == CONVERGED
    assert validate_solution(net, state).max < 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(6, f"flat-start Newton failed within 100 iterations; dynamic power "
               f"stepping converged in {rescued.inner_iterations} total iterations "
               f"({rescued.homotopy_steps} steps) in {elapsed:.1f}s")


def test_criterion_7_high_voltage_selection():
    net = load_case(case_path("case2_twosol.net")).network
    # analytic solutions of the lossless two-bus case
    p, q, x = 1.0, 0.3, 0.2
    disc = (1 - 2 * q * x) ** 2 - 4 * x * x * (p * p + q * q)
    v_high = math.sqrt(((1 - 2 * q * x) + math.sqrt(disc)) / 2)
    v_low = math.sqrt(((1 - 2 * q * x) - math.sqrt(disc)) / 2)
    spec = SweepSpec(samples=15, seed=99)
    rng = np.random.default_rng(spec.seed)
    picks = []
    for _ in range(spec.samples):
        vm = float(rng.uniform(*START_VMAG))
        va = float(rng.uniform(*START_VANG_DEG))
        opts = SolverOptions(nr=TIGHT, homotopy="tx",
                             init=InitSpec(kind="uniform", vmag=vm, vang_deg=va))
        report, state = solve(net, opts)
        assert report.status == CONVERGED
        picks.append(state.v_mag()[0, 1])
    picks = np.asarray(picks)
    assert np.all(np.abs(picks - v_high) < 1e-6)
    assert np.all(np.abs(picks - v_low) > 0.5)
    _report(7, f"series shorting selected the high-voltage branch "
               f"(|V2|={picks[0]:.5f} vs low {v_low:.5f}) from all 15 samples")


def test_criterion_8_q_limit_complementarity():
    net = load_case(case_path("case_qlim.net")).network
    report, state = solve(net, SolverOptions(nr=TIGHT))
    assert report.status == CONVERGED
    gen = net.generators[0]
    q = state.gen_q()[0, 0]
    vmag = state.v_mag()[0, net.bus_index[gen.target_bus()]]
    vset = net.bus(gen.target_bus()).v_set
    # complementarity: at the limit exactly, and off the set-point
    assert q == gen.qmax
    assert vmag < vset
    ref = dense_reference_solve(net, q_pins={gen.id: gen.qmax}, tol=1e-12)
    dv = float(np.max(np.abs(ref.vm - state.v_mag())))
    assert dv < 1e-8
    # machines inside their band still regulate
    free = load_case(case_path("case14.net")).network
    rep14, st14 = solve(free, SolverOptions(nr=TIGHT))
    assert rep14.status == CONVERGED
    assert not rep14.switch_events
    for k in st14.index.vc_gen_positions:
        g = free.generators[k]
        tgt = free.bus(g.target_bus())
        assert st14.v_mag()[0, free.bus_index[g.bus]] == pytest.approx(tgt.v_set, abs=1e-8)
    _report(8, f"binding machine pinned at qmax={gen.qmax} pu with |V|={vmag:.4f} "
               f"< set {vset}; pinned oracle re-solve agrees to {dv:.1e} pu")


def test_criterion_9_contingency_protocol():
    opts = SolverOptions(nr=NrOptions(tol=1e-8), homotopy="tx")
    total = {CONVERGED: 0, "diverged": 0, "infeasible": 0}
    false_converged = 0
    lines = []
    for name in ("case9.net", "case14.net", "case30_mesh.net"):
        net = load_case(case_path(name)).network
        base_rep, base_state = solve(net, opts)
        assert base_rep.status == CONVERGED
        cset = sample_contingencies(net, base_state, top_fraction=0.15)
        # include one deliberate islanding outage where the topology allows
        results = run_contingencies(net, base_state, cset, opts)
        for res, outage in zip(results, cset.outages):
            total[res.status] += 1
            if res.status == CONVERGED:
                # re-verify independently: no false positives allowed
                from steadygrid.analyses import apply_outage
                from steadygrid.indexing import IndexMap
                from steadygrid.solver import transfer_state
                post = apply_outage(net, outage)
                index = IndexMap(post)
                warm = transfer_state(base_state, post, index)
                rep, st = solve(post, SolverOptions(
                    nr=NrOptions(tol=1e-8), homotopy="tx",
                    init=InitSpec(kind="warm", state=warm)))
                if validate_solution(post, st).max > 10 * 1e-8:
                    false_converged += 1
        lines.append(f"{name}: {tally(results)}")
    # islanding entry
    net12 = load_case(case_path("case12_radial.net")).network
    rep12, st12 = solve(net12, opts)
    island = run_contingencies(net12, st12, ContingencySet([Outage("cut", branch_ids=(1,))]), opts)
    assert island[0].status == "infeasible"
    total["infeasible"] += 1
    assert false_converged == 0
    assert total[CONVERGED] > 0
    _report(9, f"N-1 tally {total} with zero false converged statuses "
               f"({'; '.join(lines)})")
