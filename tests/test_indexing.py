import numpy as np
import pytest

from steadygrid.indexing import IndexMap, flat_state

from conftest import net_2bus, net_3bus, net_3phase, net_allparts, random_network


@pytest.mark.parametrize("builder", [net_2bus, net_3bus, net_3phase, net_allparts])
def test_index_map_is_a_bijection(builder):
    net = builder()
    index = IndexMap(net)
    seen = set()
    for ph in range(index.nphase):
        for k in range(index.nbus):
            seen.add(index.vr(k, ph))
            seen.add(index.vi(k, ph))
    for pos in index.slack_positions:
        for ph in range(index.nphase):
            seen.add(index.slack_ir(pos, ph))
            seen.add(index.slack_ii(pos, ph))
    seen.update(index.q_rows.tolist())
    assert seen == set(range(index.dim))
    # the Q rows are the tail, one per (regulating machine, phase) lane
    assert index.q_rows.tolist() == list(range(index.dim - index.q_rows.size, index.dim))
    assert index.q_rows.size == len(index.vc_gen_positions) * index.nphase


def test_voltages_are_phase_major():
    net = net_3phase()
    index = IndexMap(net)
    # all of phase a first, then b, then c
    assert index.vr(0, 0) == 0
    assert index.vr(0, 1) == 2 * index.nbus
    assert index.vr(0, 2) == 4 * index.nbus
    vr, vi = index.voltage_indices()
    assert vr.shape == (3, net.nbus)
    assert np.all(vi == vr + 1)


def test_dimension_formula():
    for seed in range(5):
        net = random_network(seed)
        index = IndexMap(net)
        n_slack = len(index.slack_positions)
        n_vc = len(index.vc_gen_positions)
        assert index.dim == 2 * net.nbus + 2 * n_slack + n_vc


def test_slack_targeting_generator_gets_no_slot():
    from steadygrid.network import Bus, BusKind, Generator, Network, PhaseDomain, phase_array
    from conftest import make_branch

    buses = (Bus(1, BusKind.SLACK, 138.0, 1.0, 0.0), Bus(2, BusKind.PQ, 138.0))
    gen = Generator(1, 1, p=phase_array(0.5, 1), q=None)
    net = Network(PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses, generators=(gen,),
                  branches=(make_branch(1, 1, 2, 0.01, 0.1),))
    index = IndexMap(net)
    assert index.vc_gen_positions == () and index.q_rows.size == 0
    state = flat_state(index)
    assert state.gen_q().tolist() == [[0.0]]


@pytest.mark.parametrize("builder", [net_3bus, net_allparts])
def test_gen_q_reads_slots_and_fixed_output(builder):
    net = builder()
    index = IndexMap(net)
    state = flat_state(index)
    state.x[index.q_rows] = 0.1 + np.arange(index.q_rows.size)
    q = state.gen_q()
    assert q.shape == (len(net.generators), index.nphase)
    lanes = iter(state.x[index.q_rows].tolist())
    for k, gen in enumerate(net.generators):
        if k in index.vc_gen_positions:
            assert q[k].tolist() == [next(lanes) for _ in range(index.nphase)]
        else:
            assert q[k].tolist() == gen.q.tolist()


def test_state_helpers_round_trip():
    net = net_3phase()
    index = IndexMap(net)
    state = flat_state(index)
    state.set_voltage(1, 2, 0.8 - 0.25j)
    assert state.v_complex()[2, 1] == 0.8 - 0.25j
    assert state.v_mag()[2, 1] == pytest.approx(abs(0.8 - 0.25j))
