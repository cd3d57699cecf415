import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steadygrid import homotopy, nr, solver, stamps
from steadygrid.caseio import load_case, write_solution
from steadygrid.homotopy import anchored_state
from steadygrid.indexing import IndexMap
from steadygrid.network import (
    PHASE_OFFSETS,
    Bus,
    BusKind,
    PhaseDomain,
    Shunt,
    Transformer,
    phase_array,
    series_y,
)
from steadygrid.homotopy import lambda_trace_to_csv
from steadygrid.nr import NrOptions, trace_to_csv
from steadygrid.reference import dense_reference_solve
from steadygrid.solver import (
    CONVERGED,
    INFEASIBLE,
    InitSpec,
    SolverOptions,
    initialize_state,
    solve,
    uniform_state,
    validate_solution,
)

from conftest import (
    ALL_NET_CASES,
    case_path,
    make_zip,
    net_2bus,
    net_3bus,
    net_3phase,
    net_switched_shunt,
    net_tap,
    random_network,
)


def test_two_bus_flat_start_fast():
    net = net_2bus()
    report, state = solve(net)
    assert report.status == CONVERGED
    assert report.inner_iterations <= 5
    assert report.outer_passes == 1


def test_qlim_switch_event_and_oracle_match():
    net = load_case(case_path("case_qlim.net")).network
    options = SolverOptions(nr=NrOptions(tol=1e-10))
    report, state = solve(net, options)
    assert report.status == CONVERGED
    gen = net.generators[0]
    events = [e for e in report.switch_events if e["device"] == f"gen {gen.id}"]
    assert len(events) == 1 and events[0]["action"] == "pin_qmax"
    assert state.gen_q_per_phase(0)[0] == gen.qmax  # exactly at the ceiling
    # bus no longer holds its set-point
    assert state.v_mag()[0, net.bus_index[3]] < net.bus(3).v_set
    # the independent solver, pinned the same way, lands on the same point
    ref = dense_reference_solve(net, q_pins={gen.id: gen.qmax})
    np.testing.assert_allclose(ref.vm, state.v_mag()[0], atol=1e-8)


@pytest.mark.parametrize("case, method", [
    ("case_qlim.net", "none"),
    ("case14.net", "none"),
    # the lambda = 1 sub-problem needs thousands of pu of reactive current
    # through the shorted series admittances; capping its change at 0.05 pu
    # per iteration cuts the residual by about 0.05 per iteration
    pytest.param("case_qlim.net", "tx", marks=pytest.mark.xfail(
        strict=True, reason="finite di_max stalls the Tx-stepping start")),
    pytest.param("case14.net", "tx", marks=pytest.mark.xfail(
        strict=True, reason="finite di_max stalls the Tx-stepping start")),
])
def test_q_limiting_inside_newton_keeps_the_solution(case, method):
    net = load_case(case_path(case)).network
    runs = [
        solve(net, SolverOptions(homotopy=method, nr=NrOptions(tol=1e-10, di_max=di_max)))
        for di_max in (math.inf, 0.05)
    ]
    (free, free_state), (capped, capped_state) = runs
    assert free.status == capped.status == CONVERGED
    limited = [sum(row.limited for row in report.nr_trace) for report, _ in runs]
    assert limited[1] > limited[0]
    np.testing.assert_allclose(capped_state.v_complex(), free_state.v_complex(), atol=1e-8)
    for report, state in runs:
        assert validate_solution(report.network, state).max < 1e-8


@pytest.mark.parametrize("case, method", [
    ("case_qlim.net", "none"),
    ("case196_mesh.net", "tx"),
])
def test_infinite_q_cap_skips_only_the_scalar_limiter(monkeypatch, case, method):
    # an infinite cap never limits, so skipping the per-lane loop must give
    # the same bits as a finite cap too large to act, which runs the loop
    calls = []

    def counting(*args, _limit=nr.apply_q_limiting):
        calls.append(args)
        return _limit(*args)

    monkeypatch.setattr(nr, "apply_q_limiting", counting)
    net = load_case(case_path(case)).network
    runs = []
    for di_max in (math.inf, 1e300):
        calls.clear()
        report, state = solve(net, SolverOptions(homotopy=method, nr=NrOptions(di_max=di_max)))
        doc = json.loads(report.to_json())
        doc.pop("meta")
        runs.append((len(calls), doc, state.x.tobytes(), trace_to_csv(report.nr_trace),
                     lambda_trace_to_csv(report.lambda_trace)))
    (n_inf, *free), (n_finite, *capped) = runs
    assert free[0]["status"] == CONVERGED
    assert n_inf == 0 and n_finite > 0
    assert free == capped


@pytest.mark.parametrize("case, method", [
    ("case14.net", "tx"),
    ("hard_corridor.net", "power"),
])
def test_steps_no_limiter_touches_count_nothing(case, method):
    # caps and clamps far beyond every step: v_k + (x_raw - v_k) differs from
    # x_raw in the last bit for some entries, which is no limiting
    net = load_case(case_path(case)).network
    options = NrOptions(dv_max=10.0, v_min=-10.0, v_max=10.0)
    report, _ = solve(net, SolverOptions(homotopy=method, nr=options))
    assert report.status == CONVERGED
    assert max(row.max_dv for row in report.nr_trace) < options.dv_max
    assert [row.limited for row in report.nr_trace] == [0] * len(report.nr_trace)


def test_three_phase_feeder_iteration_count():
    net = load_case(case_path("feeder8.json")).network
    report, state = solve(net)
    assert report.status == CONVERGED
    assert report.inner_iterations <= 7
    assert validate_solution(net, state).max < 1e-6


# -- initialize_state ------------------------------------------------------------


def test_flat_positive_sequence():
    net = net_3bus()
    state = initialize_state(net, InitSpec(kind="flat"))
    np.testing.assert_allclose(state.v_complex()[0], 1.0 + 0.0j)
    assert state.q_gen(0, 0) == 0.0


def test_flat_three_phase_offsets():
    net = net_3phase()
    state = initialize_state(net, InitSpec(kind="flat"))
    ang = np.degrees(np.angle(state.v_complex()[:, 0]))
    np.testing.assert_allclose(ang, [0.0, -120.0, 120.0], atol=1e-12)


def test_random_seed_reproducible():
    net = net_3bus()
    a = initialize_state(net, InitSpec(kind="random", seed=11))
    b = initialize_state(net, InitSpec(kind="random", seed=11))
    assert np.array_equal(a.x, b.x)
    c = initialize_state(net, InitSpec(kind="random", seed=12))
    assert not np.array_equal(a.x, c.x)


def _per_node(index, v_of):
    """Reference state written node by node: ``v_of(bus_pos, phase)``."""
    x = np.zeros(index.dim)
    for k in range(index.nbus):
        for ph in range(index.nphase):
            v = v_of(k, ph)
            x[index.vr(k, ph)] = v.real
            x[index.vi(k, ph)] = v.imag
    return x


@pytest.mark.parametrize("case", ["case2.net", "case196_mesh.net", "feeder8.json"])
def test_initial_states_match_a_per_node_write(case):
    net = load_case(case_path(case)).network
    index = IndexMap(net)
    off = PHASE_OFFSETS[net.domain]
    states = {
        "flat": (InitSpec(kind="flat"), lambda k, ph: np.exp(1j * off[ph])),
        "uniform": (InitSpec(kind="uniform", vmag=1.05, vang_deg=12.5),
                    lambda k, ph: 1.05 * np.exp(1j * (math.radians(12.5) + off[ph]))),
    }
    rng = np.random.default_rng(7)
    mags = rng.uniform(0.9, 1.1, size=index.nbus)
    angs = np.radians(rng.uniform(-40.0, 40.0, size=index.nbus))
    states["random"] = (InitSpec(kind="random", seed=7),
                        lambda k, ph: mags[k] * np.exp(1j * (angs[k] + off[ph])))
    for kind, (spec, v_of) in states.items():
        x = initialize_state(net, spec, index).x
        assert x.tobytes() == _per_node(index, v_of).tobytes(), kind
    slack = {net.islands[k]: b for k, b in enumerate(net.buses) if b.kind == BusKind.SLACK}
    anchored = _per_node(index, lambda k, ph: slack[net.islands[k]].v_set * np.exp(
        1j * (slack[net.islands[k]].angle + off[ph])))
    assert anchored_state(net, index).x.tobytes() == anchored.tobytes()


def test_random_respects_ranges():
    net = net_3bus()
    spec = InitSpec(kind="random", seed=5, vmag_range=(0.9, 1.1), vang_range_deg=(-40, 40))
    state = initialize_state(net, spec)
    vm = state.v_mag()[0]
    va = np.degrees(state.v_ang()[0])
    assert np.all((vm >= 0.9) & (vm <= 1.1))
    assert np.all((va >= -40) & (va <= 40))


def test_uniform_state_same_everywhere():
    net = net_3bus()
    state = uniform_state(net, IndexMap(net), 1.05, 12.0)
    vm = state.v_mag()[0]
    va = np.degrees(state.v_ang()[0])
    np.testing.assert_allclose(vm, 1.05, atol=1e-14)
    np.testing.assert_allclose(va, 12.0, atol=1e-12)


@pytest.mark.parametrize("case, iterations", [
    ("case14.net", 11), ("case56_mesh.net", 11), ("case196_mesh.net", 17), ("feeder8.json", 10),
])
def test_zero_voltage_start_converges(case, iterations):
    # every generator and ZIP lane sits at |V| = 0: Newton re-initializes
    # one node at a time until the companion system can be linearized
    net = load_case(case_path(case)).network
    report, _ = solve(net, SolverOptions(init=InitSpec(kind="uniform", vmag=0.0)))
    assert report.status == CONVERGED
    assert report.inner_iterations == iterations


def test_warm_start_dimension_checked():
    net = net_3bus()
    other = net_2bus()
    wrong = initialize_state(other, InitSpec(kind="flat"))
    with pytest.raises(ValueError):
        initialize_state(net, InitSpec(kind="warm", state=wrong))


def test_file_init_round_trip(tmp_path):
    net = net_2bus()
    report, state = solve(net)
    doc = write_solution(net, state, report, fmt="json")
    path = tmp_path / "sol.json"
    path.write_text(doc)
    loaded = initialize_state(net, InitSpec(kind="file", path=str(path)))
    np.testing.assert_allclose(loaded.v_complex(), state.v_complex(), atol=1e-15)


@pytest.mark.parametrize("bus, phase", [(99, "p"), (1, "a")])
def test_file_init_rejects_a_bus_or_phase_the_case_lacks(tmp_path, bus, phase):
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(
        {"buses": [{"bus": bus, "phase": phase, "vr_pu": 1.0, "vi_pu": 0.0}]}
    ))
    with pytest.raises(ValueError, match=f"bus {bus} phase '{phase}'"):
        initialize_state(net_2bus(), InitSpec(kind="file", path=str(path)))


# -- validate_solution -----------------------------------------------------------


def test_zero_injection_flat_has_zero_mismatch():
    net = net_2bus(p=0.0, q=0.0)
    net = net.with_devices(zip_loads=())
    state = initialize_state(net, InitSpec(kind="flat"))
    assert validate_solution(net, state).max == 0.0


def test_converged_solution_has_tiny_mismatch():
    net = net_2bus()
    _, state = solve(net, SolverOptions(nr=NrOptions(tol=1e-10)))
    assert validate_solution(net, state).max < 1e-8


def test_perturbation_shows_up_locally():
    net = load_case(case_path("case12_radial.net")).network
    options = SolverOptions(nr=NrOptions(tol=1e-10), enforce_q_limits=False)
    _, state = solve(net, options)
    index = state.index
    k = 6  # mid-chain bus position
    state.x[index.vr(k, 0)] += 1e-3
    rep = validate_solution(net, state)
    assert rep.per_bus[k] > 1e-6
    # buses two or more hops away are untouched by the bump (the slack bus is
    # excluded: its free injection soaks up whatever the bump unbalances)
    far = [pos for pos in range(1, net.nbus) if abs(pos - k) > 1]
    assert np.max(rep.per_bus[far]) < 1e-8


def test_three_phase_mismatch_is_current_based():
    net = net_3phase()
    _, state = solve(net, SolverOptions(nr=NrOptions(tol=1e-9)))
    rep = validate_solution(net, state)
    assert rep.domain == PhaseDomain.THREE_PHASE
    assert rep.max_i < 1e-7 and rep.max_p == 0.0


# -- solver behaviors ----------------------------------------------------------


def test_complementarity_invariant_on_qlim_case():
    net = load_case(case_path("case_qlim.net")).network
    report, state = solve(net, SolverOptions(nr=NrOptions(tol=1e-10)))
    assert report.status == CONVERGED
    for k, gen in enumerate(net.generators):
        if not state.index.has_q_slot(k):
            continue
        q = state.gen_q_per_phase(k)
        assert np.all(q >= gen.qmin - 1e-9) and np.all(q <= gen.qmax + 1e-9)
        vset = net.bus(gen.target_bus()).v_set
        vmag = state.v_mag()[0, net.bus_index[gen.target_bus()]]
        pinned = np.any(q == gen.qmax) or np.any(q == gen.qmin)
        if pinned:
            assert not math.isclose(vmag, vset, abs_tol=1e-6)
        else:
            assert vmag == pytest.approx(vset, abs=1e-8)


def test_pass_limit_reports_infeasible():
    net = load_case(case_path("case_qlim.net")).network
    report, _ = solve(net, SolverOptions(outer_max_passes=1))
    assert report.status == INFEASIBLE
    assert report.exit_code == 2


@pytest.mark.parametrize("bad", [
    {"homotopy": "bogus"},
    {"outer_max_passes": 0},
    {"nr": {"tol": 0.0}},
    {"nr": {"tol": -1.0}},
    {"nr": {"max_iter": -3}},
    {"nr": {"dv_max": 0.0}},
    {"nr": {"zeta_min": 2.0}},
    {"gamma": 0.0},
    {"gamma": -1e4},
])
def test_options_reject_bad_values(bad):
    parts = {"nr": NrOptions}
    with pytest.raises(ValueError):
        SolverOptions(**{k: parts[k](**v) if k in parts else v for k, v in bad.items()})


def test_determinism_of_reports_and_solutions():
    net = load_case(case_path("case14.net")).network
    opts = SolverOptions(homotopy="tx")
    r1, s1 = solve(net, opts)
    r2, s2 = solve(net, opts)
    assert np.array_equal(s1.x, s2.x)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("meta"), d2.pop("meta")  # timing is the only volatile field
    assert d1 == d2
    assert write_solution(net, s1, r1, fmt="csv") == write_solution(net, s2, r2, fmt="csv")


def test_report_carries_the_residual_the_last_newton_pass_measured():
    # in one outer pass the last Newton pass is the continuation's lambda = 0
    # sub-problem, whose measured residual the lambda trace records
    checked = 0
    for case in ALL_NET_CASES:
        net = load_case(case_path(case)).network
        for method in ("tx", "power"):
            report, _ = solve(net, SolverOptions(homotopy=method))
            if report.status != CONVERGED or report.outer_passes != 1:
                continue
            assert report.lambda_trace[-1][0] == 0.0
            residual = max(report.max_kcl_residual, report.max_constraint_residual)
            assert residual == report.lambda_trace[-1][2], (case, method)
            checked += 1
    assert checked >= 20


def test_diverged_exit_code_and_report():
    net = net_2bus(p=3.0, q=1.5)  # beyond maximum transfer
    report, _ = solve(net, SolverOptions(nr=NrOptions(max_iter=25)))
    assert report.status == "diverged"
    assert report.exit_code == 1


def test_invalid_network_raises():
    net = random_network(1)
    broken = net.with_devices(buses=tuple(
        b if b.kind != BusKind.SLACK else replace_kind(b) for b in net.buses
    ))
    with pytest.raises(ValueError):
        solve(broken)


def replace_kind(bus):
    from dataclasses import replace as dc_replace

    return dc_replace(bus, kind=BusKind.PQ)


def test_remote_control_holds_target_bus():
    net = load_case(case_path("case6_remote.net")).network
    report, state = solve(net, SolverOptions(nr=NrOptions(tol=1e-10)))
    assert report.status == CONVERGED
    vmag = state.v_mag()[0, net.bus_index[3]]
    assert vmag == pytest.approx(1.0, abs=1e-9)
    assert validate_solution(net, state).max < 1e-8


def test_tap_adjustment_moves_toward_target():
    net = net_tap()
    no_adjust, state0 = solve(net, SolverOptions())
    v_before = state0.v_mag()[0, 2]
    assert v_before < 0.99
    options = SolverOptions(adjust_taps=True, outer_max_passes=12)
    report, state = solve(net, options)
    assert report.status == CONVERGED
    v_after = state.v_mag()[0, 2]
    assert v_after > v_before
    assert abs(v_after - 1.0) <= 0.011  # inside the deadband of the target
    assert report.network.transformers[0].tap[0] < 1.0
    assert net.transformers[0].tap[0] == 1.0  # the case itself is untouched
    assert report.to_dict()["final_taps"] == {"1": report.network.transformers[0].tap.tolist()}
    assert validate_solution(report.network, state).max < 10 * options.nr.tol


@pytest.mark.parametrize("make, options", [
    pytest.param(lambda: load_case(case_path("case_qlim.net")).network,
                 SolverOptions(homotopy="tx"), id="case_qlim-tx"),
    pytest.param(net_tap, SolverOptions(adjust_taps=True, outer_max_passes=12), id="tap"),
])
def test_one_layout_and_one_stack_per_parameter_set(monkeypatch, make, options):
    calls = {"compress": 0, "stack": 0}

    def compress(*args, _compress=stamps.compress_pattern):
        calls["compress"] += 1
        return _compress(*args)

    def stack(*args, _stack=stamps.effective_params):
        calls["stack"] += 1
        return _stack(*args)

    monkeypatch.setattr(stamps, "compress_pattern", compress)
    for module in (solver, nr, homotopy):
        if hasattr(module, "effective_params"):
            monkeypatch.setattr(module, "effective_params", stack)
    report, _ = solve(make(), options)
    assert report.status == CONVERGED and report.outer_passes >= 2
    # the final check reuses the solve's layout and binding; a new parameter
    # set is stacked only after a pass that moved a tap or shunt block
    moved = {e["pass"] for e in report.switch_events if e["action"] in ("tap", "blocks")}
    assert calls == {"compress": 1, "stack": 1 + len(moved)}


def test_shunt_block_stepping():
    net = net_switched_shunt()
    base, s0 = solve(net, SolverOptions())
    assert s0.v_mag()[0, 1] < 0.95
    options = SolverOptions(adjust_shunts=True)
    report, state = solve(net, options)
    assert report.status == CONVERGED
    assert report.network.shunts[0].blocks_on >= 1
    assert net.shunts[0].blocks_on == 0
    assert report.to_dict()["final_shunt_blocks"] == {"1": report.network.shunts[0].blocks_on}
    assert state.v_mag()[0, 1] > s0.v_mag()[0, 1]
    assert validate_solution(report.network, state).max < 10 * options.nr.tol


def test_without_adjustment_the_case_is_the_operated_network():
    net = net_tap()
    report, _ = solve(net)
    assert report.network is net


def test_non_switchable_shunt_ignores_block_table():
    # an API-built shunt may carry a block table without being switchable;
    # only switchable shunts engage blocks, in the stamps and the oracle alike
    sh = Shunt(1, 2, g=phase_array(0.0, 1), b=phase_array(0.05, 1), switchable=False,
               block_b=phase_array(0.1, 1), max_blocks=4, blocks_on=2)
    net = net_2bus().with_devices(shunts=(sh,))
    options = SolverOptions(nr=NrOptions(tol=1e-10))
    report, state = solve(net, options)
    assert report.status == CONVERGED
    assert validate_solution(report.network, state).max < 10 * options.nr.tol
    ref = dense_reference_solve(net, tol=1e-12)
    np.testing.assert_allclose(ref.vm, state.v_mag()[0], atol=1e-8)


def _q_pins(events) -> dict:
    """Generator id -> pinned Q after replaying the outer loop's pin events."""
    pins = {}
    for e in events:
        if not e["device"].startswith("gen "):
            continue
        gid = int(e["device"].split()[1])
        if e["action"] in ("pin_qmax", "pin_qmin"):
            pins[gid] = e["value"]
        elif e["action"] == "release":
            pins.pop(gid, None)
    return pins


def _with_outer_devices(net, tap_from, shunt_bus):
    """``net`` plus a load bus fed through a voltage-controlled transformer
    and a switchable capacitor bank, so the outer loop moves taps and blocks."""
    nph = net.nphase
    new_bus = net.nbus + 1
    tx = Transformer(1, tap_from, new_bus, y_series=series_y(0.005, 0.1, nph),
                     tap=phase_array(1.0, nph), shift=phase_array(0.0, nph),
                     tap_min=0.9, tap_max=1.1, tap_step=0.0125,
                     controlled_bus=new_bus, v_target=1.0)
    sh = Shunt(len(net.shunts) + 1, shunt_bus, g=phase_array(0.0, nph),
               b=phase_array(0.0, nph), switchable=True, block_b=phase_array(0.05, nph),
               max_blocks=4, v_lo=0.98, v_hi=1.02)
    return net.with_devices(
        buses=net.buses + (Bus(new_bus, BusKind.PQ, 13.8),),
        zip_loads=net.zip_loads + (make_zip(len(net.zip_loads) + 1, new_bus, nph, s=0.4 + 0.2j),),
        transformers=(tx,),
        shunts=net.shunts + (sh,),
    )


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    domain=st.sampled_from([PhaseDomain.POSITIVE_SEQUENCE, PhaseDomain.THREE_PHASE]),
    method=st.sampled_from(["none", "tx", "power"]),
    data=st.data(),
)
def test_outer_loop_solutions_pass_independent_check(seed, domain, method, data):
    base = random_network(seed, domain)
    net = _with_outer_devices(
        base,
        tap_from=data.draw(st.integers(1, base.nbus), label="tap_from"),
        shunt_bus=data.draw(st.integers(2, base.nbus), label="shunt_bus"),
    )
    options = SolverOptions(nr=NrOptions(tol=1e-10), homotopy=method,
                            adjust_shunts=True, adjust_taps=True, outer_max_passes=20)
    report, state = solve(net, options)
    if report.status != CONVERGED:
        return
    assert validate_solution(report.network, state).max < 10 * options.nr.tol
    if domain != PhaseDomain.POSITIVE_SEQUENCE:
        return
    vm, va = state.v_mag()[0], state.v_ang()[0]
    ref = dense_reference_solve(
        report.network, q_pins=_q_pins(report.switch_events), v0=(vm, va), tol=1e-12
    )
    assert ref.converged
    np.testing.assert_allclose(ref.vm, vm, atol=1e-8)
    np.testing.assert_allclose(np.angle(np.exp(1j * (ref.va - va))), 0.0, atol=1e-8)
