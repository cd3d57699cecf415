import numpy as np
import pytest

from steadygrid.network import (
    Branch,
    Bus,
    BusKind,
    Generator,
    Network,
    PhaseDomain,
    coupled_line_y,
    phase_array,
    validate,
)

from conftest import make_branch, make_zip, net_2bus


def test_minimal_network_validates_clean():
    assert validate(net_2bus()) == []


def test_missing_slack_reported_per_island():
    buses = (Bus(1, BusKind.PQ, 138.0), Bus(2, BusKind.PQ, 138.0))
    net = Network(PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses,
                  branches=(make_branch(1, 1, 2, 0.01, 0.1),))
    issues = validate(net)
    assert [i.code for i in issues] == ["missing_slack"]
    assert issues[0].device == "island 0"


def test_two_islands_each_need_slack():
    buses = (
        Bus(1, BusKind.SLACK, 138.0, 1.0),
        Bus(2, BusKind.PQ, 138.0),
        Bus(3, BusKind.PQ, 138.0),
        Bus(4, BusKind.PQ, 138.0),
    )
    net = Network(PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses,
                  branches=(make_branch(1, 1, 2, 0.01, 0.1), make_branch(2, 3, 4, 0.01, 0.1)))
    codes = [i.code for i in validate(net)]
    assert codes == ["missing_slack"]
    assert net.n_islands == 2


def test_unreachable_remote_bus():
    buses = (
        Bus(1, BusKind.SLACK, 138.0, 1.0),
        Bus(2, BusKind.PQ, 138.0),
        Bus(3, BusKind.PQ, 138.0, v_set=1.0),
        Bus(4, BusKind.SLACK, 138.0, 1.0),
    )
    # bus 4 is its own island; gen at 2 cannot reach it
    gen = Generator(7, 2, p=phase_array(0.1, 1), q=None, remote_bus=4)
    net = Network(PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses,
                  generators=(gen,),
                  branches=(make_branch(1, 1, 2, 0.01, 0.1), make_branch(2, 2, 3, 0.01, 0.1)))
    issues = validate(net)
    assert any(i.code == "unreachable_remote" and "gen 7" in i.device for i in issues)


def test_qlim_order_and_vset_checks():
    buses = (Bus(1, BusKind.SLACK, 138.0, 1.0), Bus(2, BusKind.PQ, 138.0, v_set=-0.5))
    gen = Generator(1, 2, p=phase_array(0.1, 1), q=phase_array(0.0, 1), qmin=1.0, qmax=-1.0)
    net = Network(PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses, generators=(gen,),
                  branches=(make_branch(1, 1, 2, 0.01, 0.1),))
    codes = {i.code for i in validate(net)}
    assert "qlim_order" in codes
    assert "bad_vset" in codes


def test_three_phase_branch_symmetry_enforced():
    y = np.array(coupled_line_y(0.01, 0.05, 0.002, 0.01))
    y[0, 1] += 1e-9  # break symmetry
    buses = (Bus(1, BusKind.SLACK, 12.47, 1.0), Bus(2, BusKind.PQ, 12.47))
    br = Branch(1, 1, 2, y_series=y, b_from=phase_array(0.0, 3), b_to=phase_array(0.0, 3))
    net = Network(PhaseDomain.THREE_PHASE, 10.0, buses, branches=(br,))
    assert any(i.code == "asymmetric_y" for i in validate(net))


def test_coupled_line_helper_is_exactly_symmetric():
    y = coupled_line_y(0.02, 0.08, 0.005, 0.02)
    assert np.array_equal(y, y.T)


def test_dangling_reference_detected():
    buses = (Bus(1, BusKind.SLACK, 138.0, 1.0), Bus(2, BusKind.PQ, 138.0))
    net = Network(PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses,
                  zip_loads=(make_zip(1, 99, s=0.1),),
                  branches=(make_branch(1, 1, 2, 0.01, 0.1),))
    assert any(i.code == "unknown_bus" for i in validate(net))


def test_islands_union_find():
    buses = tuple(Bus(k, BusKind.PQ, 138.0) for k in range(1, 6))
    net = Network(PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses,
                  branches=(make_branch(1, 1, 2, 0.01, 0.1),
                            make_branch(2, 4, 5, 0.01, 0.1)))
    assert net.islands[0] == net.islands[1]
    assert net.islands[3] == net.islands[4]
    assert len({net.islands[0], net.islands[2], net.islands[3]}) == 3


def test_network_is_immutable():
    net = net_2bus()
    with pytest.raises(Exception):
        net.base_mva = 50.0
    with pytest.raises(Exception):
        net.branches[0].y_series[0, 0] = 1.0  # read-only array
