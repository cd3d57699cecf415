import math

import numpy as np
import pytest

from steadygrid.caseio import (
    CaseSemanticError,
    CaseSyntaxError,
    load_case,
    parse_case,
    read_solution_json,
    write_solution,
)
from steadygrid.indexing import IndexMap, flat_state
from steadygrid.network import Connection, PhaseDomain, validate
from steadygrid.solver import solve

from casewriter import write_case
from conftest import case_path, net_2bus, random_network

MINIMAL = """
BASE_MVA 100.0
BUS
1 SLACK 138.0 0.0 0.0 1.0 0.0
2 PQ 138.0 30.0 10.0
END
BRANCH
1 1 2 0.01 0.1 0.0
END
"""


def test_parse_minimal_two_bus():
    net = parse_case(MINIMAL)
    assert net.nbus == 2
    assert len(net.branches) == 1
    assert len(net.zip_loads) == 1  # the bus-table load
    assert net.zip_loads[0].s[0] == pytest.approx(0.3 + 0.1j)
    assert validate(net) == []


def test_bad_bus_type_code_is_syntax_error():
    bad = MINIMAL.replace("2 PQ 138.0", "2 QQ 138.0")
    with pytest.raises(CaseSyntaxError) as err:
        parse_case(bad)
    assert "BUS" in str(err.value)
    assert err.value.line == 5


def test_dangling_branch_reference_is_semantic_error():
    bad = MINIMAL.replace("1 1 2 0.01", "1 1 7 0.01")
    with pytest.raises(CaseSemanticError):
        parse_case(bad)


def test_missing_end_marker():
    with pytest.raises(CaseSyntaxError):
        parse_case(MINIMAL.rstrip() + "\nBUS\n")


def test_canonical_14_bus_counts():
    case = load_case(case_path("case14.net"))
    net = case.network
    assert net.nbus == 14
    assert len(net.generators) == 5
    # 20 series elements: 17 lines plus 3 tapped transformers
    assert len(net.branches) + len(net.transformers) == 20
    assert len(net.shunts) == 1
    assert net.base_mva == 100.0


def test_angles_are_degrees_in_files_radians_inside():
    text = MINIMAL.replace("1 SLACK 138.0 0.0 0.0 1.0 0.0",
                           "1 SLACK 138.0 0.0 0.0 1.0 30.0")
    net = parse_case(text)
    assert net.bus(1).angle == pytest.approx(math.pi / 6)


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_positive_sequence(seed):
    net = random_network(seed)
    text = write_case(net)
    back = parse_case(text)
    _assert_networks_equal(net, back)


@pytest.mark.parametrize("seed", range(8, 14))
def test_round_trip_three_phase(seed):
    net = random_network(seed, PhaseDomain.THREE_PHASE)
    text = write_case(net)
    back = parse_case(text)
    _assert_networks_equal(net, back)


def _assert_networks_equal(a, b):
    assert a.domain == b.domain
    assert a.base_mva == b.base_mva
    assert len(a.buses) == len(b.buses)
    for ba, bb in zip(a.buses, b.buses):
        assert (ba.id, ba.kind) == (bb.id, bb.kind)
        if ba.v_set is None:
            assert bb.v_set is None
        else:
            assert bb.v_set == pytest.approx(ba.v_set, abs=1e-12)
    assert len(a.generators) == len(b.generators)
    for ga, gb in zip(a.generators, b.generators):
        assert ga.id == gb.id and ga.bus == gb.bus
        np.testing.assert_allclose(gb.p, ga.p, atol=1e-12)
        if ga.q is None:
            assert gb.q is None
        else:
            np.testing.assert_allclose(gb.q, ga.q, atol=1e-12)
    assert len(a.zip_loads) == len(b.zip_loads)
    for za, zb in zip(sorted(a.zip_loads, key=lambda z: z.id),
                      sorted(b.zip_loads, key=lambda z: z.id)):
        assert za.bus == zb.bus and za.connection == zb.connection
        np.testing.assert_allclose(zb.y, za.y, atol=1e-12)
        np.testing.assert_allclose(zb.i, za.i, atol=1e-12)
        np.testing.assert_allclose(zb.s, za.s, atol=1e-12)
    assert len(a.branches) == len(b.branches)
    for bra, brb in zip(a.branches, b.branches):
        assert (bra.from_bus, bra.to_bus) == (brb.from_bus, brb.to_bus)
        np.testing.assert_allclose(brb.y_series, bra.y_series, atol=1e-9)
        np.testing.assert_allclose(brb.b_from + brb.b_to, bra.b_from + bra.b_to, atol=1e-12)
    assert len(a.shunts) == len(b.shunts)
    for sa, sb in zip(a.shunts, b.shunts):
        np.testing.assert_allclose(sb.g, sa.g, atol=1e-12)
        np.testing.assert_allclose(sb.b, sa.b, atol=1e-12)


def test_three_phase_json_parses_delta_and_big():
    case = load_case(case_path("feeder8.json"))
    net = case.network
    assert net.domain == PhaseDomain.THREE_PHASE
    assert any(z.connection == Connection.DELTA for z in net.zip_loads)
    assert len(net.big_loads) == 1
    assert len(net.transformers) == 1


def test_json_syntax_error_has_line():
    with pytest.raises(CaseSyntaxError):
        parse_case('{"base_mva": 100.0,,}')


# -- solutions ----------------------------------------------------------------


def test_flat_solution_rows():
    net = net_2bus()
    state = flat_state(IndexMap(net))
    csv = write_solution(net, state, fmt="csv")
    lines = csv.strip().splitlines()
    assert lines[0] == "bus,phase,vmag_pu,vang_deg,vr_pu,vi_pu"
    for row in lines[1:]:
        bus, ph, vm, va, vr, vi = row.split(",")
        assert float(vm) == 1.0
        assert float(va) == 0.0


def test_solved_receiving_bus_sags():
    net = net_2bus()
    report, state = solve(net)
    csv = write_solution(net, state, report, fmt="csv")
    row2 = csv.strip().splitlines()[2].split(",")
    assert float(row2[2]) < 1.0  # inductive load pulls the magnitude down


def test_json_solution_round_trip_bitwise():
    net = net_2bus()
    report, state = solve(net)
    doc = read_solution_json(write_solution(net, state, report, fmt="json"))
    v = state.v_complex()
    for rec in doc["buses"]:
        pos = net.bus_index[rec["bus"]]
        assert rec["vr_pu"] == v[0, pos].real  # exact: json floats round-trip
        assert rec["vi_pu"] == v[0, pos].imag
    assert doc["report"]["status"] == "converged"


def test_csv_floats_reread_exactly():
    net = net_2bus()
    _, state = solve(net)
    csv = write_solution(net, state, fmt="csv")
    v = state.v_complex()
    for row in csv.strip().splitlines()[1:]:
        bus, ph, vm, va, vr, vi = row.split(",")
        pos = net.bus_index[int(bus)]
        assert float(vr) == v[0, pos].real
        assert float(vi) == v[0, pos].imag
        assert abs(float(vm) - math.hypot(float(vr), float(vi))) < 1e-12


def test_dimension_mismatch_rejected():
    net = net_2bus()
    other = random_network(3)
    state = flat_state(IndexMap(other))
    with pytest.raises(ValueError):
        write_solution(net, state, fmt="csv")


def test_write_case_of_loaded_case_round_trips():
    case = load_case(case_path("case14.net"))
    back = parse_case(write_case(case.network))
    _assert_networks_equal(case.network, back)


def test_fuzzed_invariant_breaking_mutations_rejected():
    # any mutation that breaks a structural invariant must fail to parse
    base = open(case_path("case14.net")).read()
    mutations = [
        base.replace("1  SLACK 69.0 0.0   0.0   1.06 0.0", "1  PQ 69.0 0.0 0.0"),  # no slack
        base.replace("1  1  2  0.01938", "1  1  77 0.01938"),  # dangling bus
        base.replace("2 2 40.0", "2 99 40.0"),  # generator on unknown bus
        base.replace("1 9 0.0 19.0", "1 90 0.0 19.0"),  # shunt on unknown bus
        base.replace("0.05917", "not_a_number"),  # corrupt numeric token
        base.replace("GEN", "GARBAGE", 1),  # unknown section
    ]
    for mutant in mutations:
        assert mutant != base
        with pytest.raises((CaseSyntaxError, CaseSemanticError)):
            parse_case(mutant)


def test_fuzzed_random_networks_round_trip_and_reject(tmp_path):
    rng = np.random.default_rng(2718)
    for seed in range(10, 16):
        net = random_network(int(seed))
        text = write_case(net)
        parse_case(text)  # sanity: the writer emits parsable text
        lines = text.splitlines()
        k = int(rng.integers(0, len(lines)))
        mutated = "\n".join(lines[:k] + ["1 2 3 4 5 banana"] + lines[k + 1 :])
        try:
            parse_case(mutated)
        except (CaseSyntaxError, CaseSemanticError):
            continue  # rejection is the expected outcome
