import json
import math
import re
from dataclasses import fields, replace as dc_replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steadygrid import homotopy, nr, solver, stamps
from steadygrid.caseio import load_case, read_solution, write_solution
from steadygrid.homotopy import anchored_state
from steadygrid.indexing import IndexMap, flat_state, polar_state
from steadygrid.linsys import SingularityError, SparseSystem
from steadygrid.network import (
    PHASE_OFFSETS,
    Bus,
    BusKind,
    Generator,
    Network,
    PhaseDomain,
    Shunt,
    Transformer,
    phase_array,
)
from steadygrid.nr import NrOptions
from steadygrid.stamps import GenModes
from steadygrid.reference import dense_reference_solve, validate_solution
from steadygrid.solver import (
    CONVERGED,
    INFEASIBLE,
    InitSpec,
    SolverOptions,
    initialize_state,
    solve,
)

from conftest import (
    ALL_NET_CASES,
    case_path,
    make_branch,
    make_zip,
    net_2bus,
    net_3bus,
    net_3phase,
    net_switched_shunt,
    net_tap,
    net_tap_fine,
    q_pins,
    random_network,
    vr,
    with_outer_devices,
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
    assert state.gen_q()[0, 0] == gen.qmax  # exactly at the ceiling
    # bus no longer holds its set-point
    assert state.v_mag()[0, net.bus_index[3]] < net.bus(3).v_set
    # the independent solver, pinned the same way, lands on the same point
    ref = dense_reference_solve(net, q_pins={gen.id: gen.qmax})
    np.testing.assert_allclose(ref.vm[0], state.v_mag()[0], atol=1e-8)


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
    # an infinite cap never limits, so skipping the limiter must give the
    # same bits as a finite cap too large to act, which runs it every pass
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
        runs.append((len(calls), doc, state.x.tobytes(), repr(report.nr_trace),
                     repr(report.lambda_trace)))
    (n_inf, *free), (n_finite, *capped) = runs
    assert free[0]["status"] == CONVERGED
    assert n_inf == 0 and n_finite > 0
    assert free == capped


@pytest.mark.parametrize("case, method", [
    ("case14.net", "tx"),
    ("hard_corridor.net", "power"),
])
def test_steps_no_limiter_touches_count_nothing(monkeypatch, case, method):
    # caps and clamps far beyond every step: v_k + (x_raw - v_k) differs from
    # x_raw in the last bit for some entries, which is no limiting
    net = load_case(case_path(case)).network
    monkeypatch.setattr(nr, "V_MIN", -10.0)
    monkeypatch.setattr(nr, "V_MAX", 10.0)
    monkeypatch.setattr(nr, "DV_MAX", 10.0)
    report, _ = solve(net, SolverOptions(homotopy=method))
    assert report.status == CONVERGED
    assert max(row.max_dv for row in report.nr_trace) < nr.DV_MAX
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
    assert state.gen_q()[0, 0] == 0.0


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


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_init_spec_rejects_a_seed_numpy_cannot_take(seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        InitSpec(kind="random", seed=seed)
    for good in (None, 0, np.int64(3)):
        assert InitSpec(kind="random", seed=good).seed == good


def _per_node(index, v_of):
    """Reference state written node by node: ``v_of(bus_pos, phase)``."""
    x = np.zeros(index.dim)
    for k in range(index.nbus):
        for ph in range(index.nphase):
            v = v_of(k, ph)
            x[vr(index, k, ph)] = v.real
            x[vr(index, k, ph) + 1] = v.imag
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
    # polar_state builds both from their magnitudes and angles
    for x, kind in ((polar_state(index, 1.05, math.radians(12.5)).x, "uniform"),
                    (polar_state(index, mags, angs).x, "random")):
        assert x.tobytes() == _per_node(index, states[kind][1]).tobytes(), kind
    slack = {net.islands[k]: b for k, b in enumerate(net.buses) if b.kind == BusKind.SLACK}
    anchored = _per_node(index, lambda k, ph: slack[net.islands[k]].v_set * np.exp(
        1j * (slack[net.islands[k]].angle + off[ph])))
    assert anchored_state(net, index).x.tobytes() == anchored.tobytes()


def test_random_respects_ranges():
    net = net_3bus()
    assert (solver.START_VMAG, solver.START_VANG_DEG) == ((0.9, 1.1), (-40.0, 40.0))
    spec = InitSpec(kind="random", seed=5)
    state = initialize_state(net, spec)
    vm = state.v_mag()[0]
    va = np.degrees(state.v_ang()[0])
    assert np.all((vm >= 0.9) & (vm <= 1.1))
    assert np.all((va >= -40) & (va <= 40))


def test_uniform_state_same_everywhere():
    net = net_3bus()
    state = initialize_state(net, InitSpec(kind="uniform", vmag=1.05, vang_deg=12.0))
    vm = state.v_mag()[0]
    va = np.degrees(state.v_ang()[0])
    np.testing.assert_allclose(vm, 1.05, atol=1e-14)
    np.testing.assert_allclose(va, 12.0, atol=1e-12)


# inner iterations from a zero start at di_max = inf and at di_max = 0.05
ZERO_STARTS = [
    ("case14.net", 11, 11), ("case56_mesh.net", 11, 14), ("case196_mesh.net", 17, 28),
    ("feeder8.json", 10, 10),
]


@pytest.mark.parametrize("case, iterations, capped", ZERO_STARTS,
                         ids=[f"{case}-{n}" for case, n, _ in ZERO_STARTS])
def test_zero_voltage_start_converges(case, iterations, capped):
    # every generator and ZIP lane sits at |V| = 0: Newton re-initializes
    # one node at a time until the companion system can be linearized, so
    # the Q limiter, which divides by |V|^2, never meets a zero lane
    limited = {}
    for di_max, want in ((math.inf, iterations), (0.05, capped)):
        net = load_case(case_path(case)).network
        start = InitSpec(kind="uniform", vmag=0.0)
        report, _ = solve(net, SolverOptions(nr=NrOptions(di_max=di_max), init=start))
        assert report.status == CONVERGED
        assert report.inner_iterations == want
        limited[di_max] = sum(row.limited for row in report.nr_trace)
    if IndexMap(net).q_rows.size:
        assert limited[0.05] > limited[math.inf]
    else:
        assert limited[0.05] == limited[math.inf]


def test_warm_start_dimension_checked():
    net = net_3bus()
    other = net_2bus()
    wrong = initialize_state(other, InitSpec(kind="flat"))
    with pytest.raises(ValueError):
        initialize_state(net, InitSpec(kind="warm", state=wrong))


def test_file_init_round_trip(tmp_path):
    net = net_2bus()
    report, state = solve(net)
    doc = write_solution(net, state)
    path = tmp_path / "solution.csv"
    path.write_text(doc)
    warm = InitSpec(kind="warm", state=read_solution(net, path.read_text()))
    loaded = initialize_state(net, warm)
    np.testing.assert_allclose(loaded.v_complex(), state.v_complex(), atol=1e-15)


@pytest.mark.parametrize("bus, phase", [(99, "p"), (1, "a")])
def test_file_init_rejects_a_bus_or_phase_the_case_lacks(tmp_path, bus, phase):
    path = tmp_path / "solution.csv"
    path.write_text(f"bus,phase,vmag_pu,vang_deg,vr_pu,vi_pu\n{bus},{phase},1.0,0.0,1.0,0.0\n")
    with pytest.raises(ValueError, match=f"bus {bus} phase '{phase}'"):
        read_solution(net_2bus(), path.read_text())


def _state_with(value):
    state = flat_state(IndexMap(net_2bus()))
    state.x[1] = value
    return state


def test_bad_starts_are_rejected_when_built():
    bad = [
        (InitSpec, {"kind": "warm", "state": _state_with(math.nan)}, "warm start state must be"),
        (InitSpec, {"kind": "warm", "state": _state_with(-math.inf)}, "warm start state must be"),
        (InitSpec, {"kind": "uniform", "vmag": math.nan}, "vmag must be finite"),
        (InitSpec, {"kind": "uniform", "vmag": math.inf}, "vmag must be finite"),
        (InitSpec, {"kind": "uniform", "vang_deg": math.inf}, "vang_deg must be finite"),
        (InitSpec, {"kind": "warm"}, "warm start needs a state"),
        (InitSpec, {"kind": "file"}, "unknown init kind 'file'"),
        (InitSpec, {"kind": "bogus"}, "unknown init kind 'bogus'"),
    ]
    for spec, kwargs, message in bad:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            spec(**kwargs)
    # a zero or negative magnitude is a start
    assert InitSpec(kind="uniform", vmag=0.0).vmag == 0.0
    assert InitSpec(kind="uniform", vmag=-0.5).vmag == -0.5


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
    state.x[vr(index, k, 0)] += 1e-3
    rep = validate_solution(net, state)
    assert rep.per_bus[k] > 1e-6
    # buses two or more hops away are untouched by the bump (the slack bus is
    # excluded: its free injection soaks up whatever the bump unbalances)
    far = [pos for pos in range(1, net.nbus) if abs(pos - k) > 1]
    assert np.max(rep.per_bus[far]) < 1e-8


@pytest.mark.parametrize("case", ["feeder8.json", "case14.net"])
def test_one_nan_voltage_makes_the_mismatch_nan(case):
    net = load_case(case_path(case)).network
    _, state = solve(net, SolverOptions(nr=NrOptions(tol=1e-10)))
    state.v[-1, -1] = math.nan  # the last phase of the last bus
    with np.errstate(invalid="ignore"):
        assert math.isnan(validate_solution(net, state).max)


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
    gen_q = state.gen_q()
    for k in state.index.vc_gen_positions:
        gen, q = net.generators[k], gen_q[k]
        assert np.all(q >= gen.qmin - 1e-9) and np.all(q <= gen.qmax + 1e-9)
        vset = net.bus(gen.target_bus()).v_set
        vmag = state.v_mag()[0, net.bus_index[gen.target_bus()]]
        pinned = np.any(q == gen.qmax) or np.any(q == gen.qmin)
        if pinned:
            assert not math.isclose(vmag, vset, abs_tol=1e-6)
        else:
            assert vmag == pytest.approx(vset, abs=1e-8)


def _net_qmin_release():
    """Two regulating machines on a chain from the slack: gen 2 holds bus 3
    high, so gen 1 must absorb more than it can and pins at ``qmin``; once
    gen 2 pins at ``qmax`` too, bus 2 sags below its set-point and gen 1 is
    released, needing more than its ``qmax`` from then on."""
    buses = (Bus(1, BusKind.SLACK, 138.0, 1.0, 0.0), Bus(2, BusKind.PQ, 138.0, v_set=1.0),
             Bus(3, BusKind.PQ, 138.0, v_set=1.08))
    gens = (Generator(1, 2, p=phase_array(0.2, 1), qmin=-0.05, qmax=0.3),
            Generator(2, 3, p=phase_array(0.2, 1), qmin=-1.0, qmax=0.1))
    return Network(
        PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses, generators=gens,
        zip_loads=(make_zip(1, 2, s=0.3 + 0.1j), make_zip(2, 3, s=0.5 + 0.3j)),
        branches=(make_branch(1, 1, 2, 0.02, 0.1), make_branch(2, 2, 3, 0.02, 0.1)),
    )


def test_a_released_machine_stays_frozen_out_of_its_band():
    # the outer loop's pin_qmin, release and freeze, which no corpus solve takes
    net = _net_qmin_release()
    report, state = solve(net)
    assert (report.status, report.outer_passes, report.inner_iterations) == (CONVERGED, 3, 9)
    assert report.switch_events == [
        {"pass": 1, "device": "gen 1", "phase": 0, "action": "pin_qmin", "value": -0.05},
        {"pass": 1, "device": "gen 2", "phase": 0, "action": "pin_qmax", "value": 0.1},
        {"pass": 2, "device": "gen 1", "phase": 0, "action": "release", "value": -0.05},
    ]
    # frozen at its release, gen 1 keeps regulating above its qmax of 0.3
    assert state.x.tolist() == [
        0.9999999999999999, 1.4987953581965016e-18, 0.9991149743626984, -0.04206266759159044,
        0.9706173074484293, -0.06688594894143678, 0.40615069922164176, 0.0723798834713132,
        0.40313337953011125, 0.1,
    ]


def scalar_enforce_q_limits(network, index, state, modes, frozen, events, pass_no, tol):
    """The outer loop's Q-limit pass one lane at a time, each bus magnitude
    taken on its own: the reference for the array pass."""
    nph = index.nphase
    for n, k in enumerate(index.vc_gen_positions):
        gen = network.generators[k]
        target = network.bus_index[gen.target_bus()]
        vset = network.buses[target].v_set
        for ph in range(nph):
            lane = n * nph + ph
            if frozen[lane]:
                continue
            if not modes.pinned[lane]:
                q = state.x[index.q_rows[lane]]
                if q > gen.qmax + tol:
                    action, value = "pin_qmax", gen.qmax
                elif q < gen.qmin - tol:
                    action, value = "pin_qmin", gen.qmin
                else:
                    continue
                modes.pinned[lane] = True
                modes.q_pin[lane] = state.x[index.q_rows[lane]] = value
            else:
                pin = modes.q_pin[lane]
                vmag = float(np.mean(np.abs(state.v_complex()[:, target])))
                if not ((pin == gen.qmax and vmag > vset + tol)
                        or (pin == gen.qmin and vmag < vset - tol)):
                    continue
                action, value = "release", float(pin)
                modes.pinned[lane], frozen[lane] = False, True
            events.append({"pass": pass_no, "device": f"gen {gen.id}", "phase": ph,
                           "action": action, "value": value})
    return bool(events)


def _net_3phase_regulated():
    """net_3phase with two regulating machines, one of them remote."""
    net = net_3phase()
    buses = (net.buses[0], dc_replace(net.buses[1], v_set=1.0),
             dc_replace(net.buses[2], v_set=0.98))
    gens = (Generator(1, 2, p=phase_array(0.1, 3), qmin=-0.05, qmax=0.1),
            Generator(2, 2, p=phase_array(0.05, 3), qmin=-0.1, qmax=0.05, remote_bus=3))
    return net.with_devices(buses=buses, generators=gens)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: load_case(case_path("case14.net")).network, id="case14"),
    pytest.param(lambda: load_case(case_path("case196_mesh.net")).network, id="case196"),
    pytest.param(_net_3phase_regulated, id="three_phase"),
])
def test_q_enforcement_over_lanes_matches_each_lane(make):
    net = make()
    index = IndexMap(net)
    n, nv = index.q_rows.size, 2 * index.nbus * index.nphase
    gens = [net.generators[k] for k in index.vc_gen_positions]
    qmin = np.repeat([g.qmin for g in gens], index.nphase)
    qmax = np.repeat([g.qmax for g in gens], index.nphase)
    rng = np.random.default_rng(5)
    actions = set()
    for _ in range(40):
        # random magnitudes around each set-point, Q around each band, pins
        # at either limit, and frozen lanes among the free ones
        state = flat_state(index)
        state.x[:nv] += rng.uniform(-0.05, 0.05, nv)
        state.x[index.q_rows] = rng.uniform(qmin - 0.1, qmax + 0.1)
        pinned = rng.random(n) < 0.4
        q_pin = np.where(rng.random(n) < 0.5, qmin, qmax)
        frozen = ~pinned & (rng.random(n) < 0.3)
        runs = []
        for array_pass in (False, True):
            st, fr, events = state.copy(), frozen.copy(), []
            modes = GenModes(pinned.copy(), q_pin.copy())
            enforce = solver._enforce_q_limits if array_pass else scalar_enforce_q_limits
            moved = enforce(net, index, st, modes, fr, events, 2, 1e-5)
            runs.append((moved, json.dumps(events), st.x.tobytes(), modes.pinned.tolist(),
                         modes.q_pin.tobytes(), fr.tolist()))
            actions.update(e["action"] for e in events)
        assert runs[0] == runs[1]
    assert actions == {"pin_qmax", "pin_qmin", "release"}


def test_pass_limit_reports_infeasible(monkeypatch):
    # a tap that moves on every pass breaks the freezing rule: the loop stops
    # after the passes that rule bounds, not later and not never
    net = net_tap()
    tx = net.transformers[0]
    lanes = IndexMap(net).q_rows.size
    bound = 1 + 2 * lanes + math.ceil((tx.tap_max - tx.tap_min) / tx.tap_step) + 2

    def step_every_pass(network, controls, state, moves, events, pass_no):
        tap = network.transformers[0].tap
        events.append({"pass": pass_no, "device": "xfmr 1", "action": "tap"})
        return network.with_devices(transformers=(dc_replace(tx, tap=2.0 - tx.tap_step - tap),))

    monkeypatch.setattr(solver, "_step_controls", step_every_pass)
    report, _ = solve(net)
    assert (report.status, report.outer_passes) == (INFEASIBLE, bound)
    assert len(report.switch_events) == bound
    assert report.exit_code == 2


def test_a_default_step_tap_converges_past_ten_passes():
    # the Transformer's own tap_step needs 13 moves and a last pass: a fixed
    # budget of ten passes reported this feasible case infeasible
    net = net_tap_fine()
    tx = net.transformers[0]
    assert tx.tap_step == Transformer(1, 1, 2).tap_step
    options = SolverOptions()
    report, state = solve(net, options)
    assert (report.status, report.outer_passes) == (CONVERGED, 14)
    vmag = state.v_mag()[0, net.bus_index[tx.controlled_bus]]
    assert abs(vmag - tx.v_target) <= solver.TAP_DEADBAND
    assert validate_solution(report.network, state).max < 10 * options.nr.tol


@pytest.mark.parametrize("bad", [
    {"homotopy": "bogus"},
    {"homotopy": "Tx"},
    {"nr": {"tol": 0.0}},
    {"nr": {"tol": -1.0}},
    {"nr": {"tol": math.inf}},
    {"nr": {"tol": math.nan}},
    {"nr": {"max_iter": -3}},
    {"nr": {"max_iter": 2.5}},
    {"nr": {"di_max": 0.0}},
    {"nr": {"di_max": -0.05}},
    {"nr": {"di_max": math.nan}},
    {"init": {"kind": "bogus"}},
    {"init": {"kind": "warm"}},
    {"init": {"vmag": math.nan}},
    {"init": {"vang_deg": math.inf}},
])
def test_options_reject_bad_values(bad):
    # every value SolverOptions checks; the safeguards are constants, not options
    parts = {"nr": NrOptions, "init": InitSpec}
    with pytest.raises(ValueError):
        SolverOptions(**{k: parts[k](**v) if k in parts else v for k, v in bad.items()})


def test_options_hold_only_what_a_caller_sets():
    # the Newton and continuation safeguards are module constants
    assert [f.name for f in fields(NrOptions)] == ["tol", "max_iter", "di_max"]
    assert [f.name for f in fields(SolverOptions)] == ["nr", "homotopy", "init",
                                                       "enforce_q_limits"]
    assert (nr.DV_MAX, nr.ZETA_MIN, homotopy.GAMMA) == (0.1, 0.05, 1e4)


def test_counts_take_any_integer_type():
    # numpy integers are counts too; floats are rejected (see above)
    options = SolverOptions(nr=NrOptions(max_iter=np.int32(30)))
    report, _ = solve(load_case(case_path("case14.net")).network, options)
    assert report.status == CONVERGED


def test_determinism_of_reports_and_solutions():
    net = load_case(case_path("case14.net")).network
    opts = SolverOptions(homotopy="tx")
    r1, s1 = solve(net, opts)
    r2, s2 = solve(net, opts)
    assert np.array_equal(s1.x, s2.x)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("meta"), d2.pop("meta")  # timing is the only volatile field
    assert d1 == d2
    assert write_solution(net, s1) == write_solution(net, s2)


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


# the method, the factorization that fails (counted from 1) and the status,
# the same as when the failure ended the whole Newton call
SINGULAR_AT = [
    ("none", 3, "diverged"),
    ("tx", 3, "diverged"),
    ("power", 3, "diverged"),
    # the continuation backtracks past the failed sub-problem
    ("tx", 9, "converged"),
    ("power", 9, "converged"),
]


@pytest.mark.parametrize("method, call, status", SINGULAR_AT)
def test_a_singular_factorization_ends_its_newton_call_like_an_exhausted_budget(
    monkeypatch, method, call, status
):
    calls = []

    def failing_factor_solve(self, _run=SparseSystem.factor_solve):
        calls.append(self)
        if len(calls) == call:
            raise SingularityError(-1, "singular on purpose")
        return _run(self)

    monkeypatch.setattr(SparseSystem, "factor_solve", failing_factor_solve)
    report, _ = solve(load_case(case_path("case14.net")).network,
                      SolverOptions(homotopy=method))
    assert report.status == status and len(calls) >= call
    # the failed call's passes before the factorization are counted, one per
    # trace row, as for every other Newton call
    assert report.inner_iterations == len(report.nr_trace) >= call - 1


def test_invalid_network_raises():
    net = random_network(1)
    broken = net.with_devices(buses=tuple(
        b if b.kind != BusKind.SLACK else replace_kind(b) for b in net.buses
    ))
    with pytest.raises(ValueError):
        solve(broken)


def replace_kind(bus):
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
    fixed = dc_replace(net.transformers[0], controlled_bus=None)
    _, state0 = solve(net.with_devices(transformers=(fixed,)), SolverOptions())
    v_before = state0.v_mag()[0, 2]
    assert v_before < 0.99
    options = SolverOptions()
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
    pytest.param(net_tap, SolverOptions(), id="tap"),
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
    fixed = dc_replace(net.shunts[0], switchable=False)
    _, s0 = solve(net.with_devices(shunts=(fixed,)), SolverOptions())
    assert s0.v_mag()[0, 1] < 0.95
    options = SolverOptions()
    report, state = solve(net, options)
    assert report.status == CONVERGED
    assert report.network.shunts[0].blocks_on >= 1
    assert net.shunts[0].blocks_on == 0
    assert report.to_dict()["final_shunt_blocks"] == {"1": report.network.shunts[0].blocks_on}
    assert state.v_mag()[0, 1] > s0.v_mag()[0, 1]
    assert validate_solution(report.network, state).max < 10 * options.nr.tol


def test_a_shunt_that_steps_back_is_frozen_after_two_moves():
    # one 0.8 pu block lifts the bus above its band, and taking it off again
    # drops it below: the second move reverses the first, so the bank freezes
    net = net_switched_shunt()
    sh = dc_replace(net.shunts[0], block_b=phase_array(0.8, 1))
    report, _ = solve(net.with_devices(shunts=(sh,)))
    assert (report.status, report.outer_passes) == (CONVERGED, 3)
    assert [(e["pass"], e["value"]) for e in report.switch_events] == [(1, 1), (2, 0)]
    assert report.to_dict()["final_shunt_blocks"] == {"1": 0}


def test_a_tap_that_steps_back_is_frozen_after_two_moves():
    net = net_tap()
    tx = dc_replace(net.transformers[0], tap_step=0.1, tap_min=0.5, tap_max=1.5)
    report, _ = solve(net.with_devices(transformers=(tx,)))
    assert (report.status, report.outer_passes) == (CONVERGED, 3)
    assert [(e["pass"], e["value"]) for e in report.switch_events] == [(1, 0.9), (2, 1.0)]
    assert report.to_dict()["final_taps"] == {"1": [1.0]}


def test_without_adjustment_the_case_is_the_operated_network():
    net = net_tap()
    fixed = net.with_devices(transformers=(dc_replace(net.transformers[0], controlled_bus=None),))
    report, _ = solve(fixed)
    assert report.network is fixed


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
    np.testing.assert_allclose(ref.vm[0], state.v_mag()[0], atol=1e-8)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    domain=st.sampled_from([PhaseDomain.POSITIVE_SEQUENCE, PhaseDomain.THREE_PHASE]),
    method=st.sampled_from(["none", "tx", "power"]),
    data=st.data(),
)
def test_outer_loop_solutions_pass_independent_check(seed, domain, method, data):
    base = random_network(seed, domain)
    net = with_outer_devices(
        base,
        tap_from=data.draw(st.integers(1, base.nbus), label="tap_from"),
        shunt_bus=data.draw(st.integers(2, base.nbus), label="shunt_bus"),
    )
    options = SolverOptions(nr=NrOptions(tol=1e-10), homotopy=method)
    report, state = solve(net, options)
    # the pass budget is a guard the freezing rule never reaches
    assert report.status != INFEASIBLE
    # a run that does not converge is rejected, not passed: a solver that
    # never converges fails as unsatisfiable
    assume(report.status == CONVERGED)
    assert validate_solution(report.network, state).max < 10 * options.nr.tol
    vm, va = state.v_mag(), state.v_ang()
    pins = q_pins(report.switch_events)
    # from the solution, and once more from the flat start
    for v0 in ((vm, va), None):
        ref = dense_reference_solve(report.network, q_pins=pins, v0=v0, tol=1e-12)
        assert ref.converged
        np.testing.assert_allclose(ref.vm, vm, atol=1e-8)
        np.testing.assert_allclose(np.angle(np.exp(1j * (ref.va - va))), 0.0, atol=1e-8)
