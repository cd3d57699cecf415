import math

import numpy as np
import pytest

from steadygrid.caseio import load_case
from steadygrid.network import BusKind, Generator, phase_array
from steadygrid.nr import NrOptions
from steadygrid.reference import build_ybus, dense_reference_solve
from steadygrid.solver import CONVERGED, DIVERGED, SolverOptions, solve

from conftest import case_path, net_2bus, net_3bus, net_3phase, net_allparts


def _stamped(net, tol=1e-10):
    """The stamped solve of ``net`` with Q limits off, and its state."""
    report, state = solve(net, SolverOptions(nr=NrOptions(tol=tol), enforce_q_limits=False))
    assert report.status == CONVERGED
    return state


def test_two_bus_against_closed_form():
    # lossless: |V2|^2 solves v^2 + (2 q x - 1) v + x^2 (p^2 + q^2) = 0
    p, q, x = 1.0, 0.3, 0.2
    net = net_2bus(p=p, q=q, r=0.0, x=x)
    sol = dense_reference_solve(net)
    assert sol.converged
    disc = (1 - 2 * q * x) ** 2 - 4 * x * x * (p * p + q * q)
    v_high = math.sqrt(((1 - 2 * q * x) + math.sqrt(disc)) / 2)
    assert sol.vm[0, 1] == pytest.approx(v_high, abs=1e-10)
    delta = -math.asin(p * x / sol.vm[0, 1])
    assert sol.va[0, 1] == pytest.approx(delta, abs=1e-10)


def test_ybus_symmetry_without_shifts():
    net = net_2bus()
    y = build_ybus(net)
    np.testing.assert_allclose(y, y.T, atol=1e-15)


def test_three_phase_ybus_is_phase_major_and_the_oracle_solves_it():
    net = net_3phase()
    y = build_ybus(net)
    assert y.shape == (9, 9)
    ys = net.branches[0].y_series  # bus 1 to bus 2, mutually coupled
    assert y[0, 1] == -ys[0, 0]  # node ph * nbus + pos: (a, bus 1) to (a, bus 2)
    assert y[0, 3] == ys[0, 1]  # (a, bus 1) to (b, bus 1)
    sol = dense_reference_solve(net, tol=1e-12)
    assert sol.converged and sol.vm.shape == sol.va.shape == (3, 3)
    # Newton's pace: the delta load couples its bus's phases, and a device
    # Jacobian without that coupling takes 7 iterations from flat
    assert sol.iterations <= 4
    state = _stamped(net)
    np.testing.assert_allclose(sol.vm * np.exp(1j * sol.va), state.v_complex(), atol=1e-8)


def test_case14_matches_published_operating_point():
    # the canonical case's solved angles/magnitudes, to loose tolerance
    net = load_case(case_path("case14.net")).network
    sol = dense_reference_solve(net)
    assert sol.converged
    k = net.bus_index
    assert np.degrees(sol.va[0, k[2]]) == pytest.approx(-4.98, abs=0.02)
    assert np.degrees(sol.va[0, k[3]]) == pytest.approx(-12.72, abs=0.02)
    assert sol.vm[0, k[7]] == pytest.approx(1.062, abs=0.002)


def test_q_pins_turn_bus_pq():
    net = load_case(case_path("case_qlim.net")).network
    free = dense_reference_solve(net)
    assert free.converged
    gen = net.generators[0]
    assert free.gen_q[gen.id][0] > gen.qmax  # the limit binds
    pinned = dense_reference_solve(net, q_pins={gen.id: gen.qmax})
    assert pinned.converged
    assert gen.id not in pinned.gen_q
    assert pinned.vm[0, net.bus_index[3]] < net.bus(3).v_set


def test_warm_start_is_used():
    net = net_2bus(p=0.9, q=0.3)
    cold = dense_reference_solve(net)
    warm = dense_reference_solve(net, v0=(cold.vm, cold.va))
    assert warm.converged and warm.iterations <= 2


def test_remote_control_solves_to_its_set_point():
    net = load_case(case_path("case6_remote.net")).network
    sol = dense_reference_solve(net, tol=1e-12)
    assert sol.converged
    gen = net.generators[0]
    assert gen.target_bus() == 3 and gen.bus != 3
    assert sol.vm[0, net.bus_index[3]] == pytest.approx(net.bus(3).v_set, abs=1e-12)
    state = _stamped(net)
    np.testing.assert_allclose(sol.vm * np.exp(1j * sol.va), state.v_complex(), atol=1e-8)


def _refused_shapes():
    """``net_3bus`` changed two ways the oracle refuses: a second free
    machine on the regulated bus 3, and a free machine on the slack bus
    regulating bus 3 in place of bus 3's own."""
    net = net_3bus()
    second = Generator(2, 2, p=phase_array(0.1, 1), q=None, qmin=-1.0, qmax=1.0, remote_bus=3)
    on_slack = Generator(1, 1, p=phase_array(0.0, 1), q=None, qmin=-1.0, qmax=1.0, remote_bus=3)
    assert net.buses[0].kind == BusKind.SLACK and net.buses[0].id == 1
    yield "two_free_machines_on_one_target", net.with_devices(generators=net.generators + (second,))
    yield "free_machine_on_the_slack_bus", net.with_devices(generators=(on_slack,))


REFUSED = dict(_refused_shapes())


@pytest.mark.parametrize("label", list(REFUSED))
def test_shapes_the_oracle_refuses_the_stamped_solver_cannot_solve(label):
    net = REFUSED[label]
    with pytest.raises(ValueError):
        dense_reference_solve(net)
    for method in ("none", "tx", "power"):
        report, _ = solve(net, SolverOptions(homotopy=method))
        assert report.status == DIVERGED, (label, method)


def test_big_and_zip_loads_supported():
    net = net_allparts()
    sol = dense_reference_solve(net)
    assert sol.converged
    assert np.all(sol.vm[0, 1:] < 1.05) and np.all(sol.vm > 0.8)
