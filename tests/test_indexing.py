import numpy as np
import pytest

from steadygrid.indexing import IndexMap, StateVector, flat_state

from conftest import net_2bus, net_3bus, net_3phase, net_allparts, random_network


@pytest.mark.parametrize("builder", [net_2bus, net_3bus, net_3phase, net_allparts])
def test_index_map_is_a_bijection(builder):
    # the state is three contiguous blocks that tile 0..dim-1: the voltages,
    # phase-major, then the slack currents, then the Q slots
    net = builder()
    index = IndexMap(net)
    nb, nph = index.nbus, index.nphase
    assert index.nv == 2 * nb * nph
    for ph in range(nph):
        for pos in range(nb):
            state = StateVector(np.zeros(index.dim), index)
            state.v[ph, pos] = 0.8 - 0.25j
            k = 2 * (ph * nb + pos)
            assert np.flatnonzero(state.x).tolist() == [k, k + 1]
            assert state.x[k: k + 2].tolist() == [0.8, -0.25]
    # (I_R, I_I) per slack and phase, then one Q slot per (regulating
    # machine, phase) lane, the tail
    q_base = index.nv + 2 * len(index.slack_positions) * nph
    assert index.q_rows.tolist() == list(range(q_base, index.dim))
    assert index.q_rows.size == len(index.vc_gen_positions) * nph


def test_voltages_are_phase_major():
    net = net_3phase()
    index = IndexMap(net)
    state = StateVector(np.zeros(index.dim), index)
    assert state.v.shape == (3, net.nbus)
    # all of phase a first, then b, then c; each imaginary part follows its real
    for ph, start in enumerate([0, 2 * index.nbus, 4 * index.nbus]):
        state.x[:] = 0.0
        state.v[ph, 0] = 1.0 + 2.0j
        assert state.x[start] == 1.0
        assert state.x[start + 1] == 2.0

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
    state.v[2, 1] = 0.8 - 0.25j
    v = state.v_complex()
    assert v[2, 1] == 0.8 - 0.25j
    assert state.v_mag()[2, 1] == pytest.approx(abs(0.8 - 0.25j))
    # v_complex is a copy; a write to the view lands in x
    v[2, 1] = 0.0
    assert state.v[2, 1] == 0.8 - 0.25j
    state.v[...] = v
    assert state.v[2, 1] == 0.0 and np.array_equal(state.v_complex(), v)
    assert np.array_equal(state.x[: index.nv].view(complex), v.ravel())
