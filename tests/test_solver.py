import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steadygrid.caseio import load_case, write_solution
from steadygrid.indexing import IndexMap
from steadygrid.network import (
    Bus,
    BusKind,
    PhaseDomain,
    Shunt,
    Transformer,
    phase_array,
    series_y,
)
from steadygrid.nr import NrOptions
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
from steadygrid.stamps import GEN_PINNED

from conftest import (
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
