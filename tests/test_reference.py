import math

import numpy as np
import pytest

from steadygrid.caseio import load_case
from steadygrid.reference import build_ybus, dense_reference_solve

from conftest import case_path, net_2bus, net_3phase, net_allparts


def test_two_bus_against_closed_form():
    # lossless: |V2|^2 solves v^2 + (2 q x - 1) v + x^2 (p^2 + q^2) = 0
    p, q, x = 1.0, 0.3, 0.2
    net = net_2bus(p=p, q=q, r=0.0, x=x)
    sol = dense_reference_solve(net)
    assert sol.converged
    disc = (1 - 2 * q * x) ** 2 - 4 * x * x * (p * p + q * q)
    v_high = math.sqrt(((1 - 2 * q * x) + math.sqrt(disc)) / 2)
    assert sol.vm[1] == pytest.approx(v_high, abs=1e-10)
    delta = -math.asin(p * x / sol.vm[1])
    assert sol.va[1] == pytest.approx(delta, abs=1e-10)


def test_ybus_symmetry_without_shifts():
    net = net_2bus()
    y = build_ybus(net)
    np.testing.assert_allclose(y, y.T, atol=1e-15)


def test_three_phase_ybus_is_phase_major_and_the_solver_refuses_it():
    net = net_3phase()
    y = build_ybus(net)
    assert y.shape == (9, 9)
    ys = net.branches[0].y_series  # bus 1 to bus 2, mutually coupled
    assert y[0, 1] == -ys[0, 0]  # node ph * nbus + pos: (a, bus 1) to (a, bus 2)
    assert y[0, 3] == ys[0, 1]  # (a, bus 1) to (b, bus 1)
    with pytest.raises(ValueError):
        dense_reference_solve(net)


def test_case14_matches_published_operating_point():
    # the canonical case's solved angles/magnitudes, to loose tolerance
    net = load_case(case_path("case14.net")).network
    sol = dense_reference_solve(net)
    assert sol.converged
    k = net.bus_index
    assert np.degrees(sol.va[k[2]]) == pytest.approx(-4.98, abs=0.02)
    assert np.degrees(sol.va[k[3]]) == pytest.approx(-12.72, abs=0.02)
    assert sol.vm[k[7]] == pytest.approx(1.062, abs=0.002)


def test_q_pins_turn_bus_pq():
    net = load_case(case_path("case_qlim.net")).network
    free = dense_reference_solve(net)
    assert free.converged
    gen = net.generators[0]
    assert free.gen_q[gen.id] > gen.qmax  # the limit binds
    pinned = dense_reference_solve(net, q_pins={gen.id: gen.qmax})
    assert pinned.converged
    assert pinned.vm[net.bus_index[3]] < net.bus(3).v_set


def test_warm_start_is_used():
    net = net_2bus(p=0.9, q=0.3)
    cold = dense_reference_solve(net)
    warm = dense_reference_solve(net, v0=(cold.vm, cold.va))
    assert warm.converged and warm.iterations <= 2


def test_remote_control_rejected():
    net = load_case(case_path("case6_remote.net")).network
    with pytest.raises(ValueError):
        dense_reference_solve(net)


def test_big_and_zip_loads_supported():
    net = net_allparts()
    sol = dense_reference_solve(net)
    assert sol.converged
    assert np.all(sol.vm[1:] < 1.05) and np.all(sol.vm > 0.8)
