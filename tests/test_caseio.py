import json
import math
import os
import re
from dataclasses import fields

import numpy as np
import pytest

from steadygrid.caseio import (
    CaseSemanticError,
    CaseSyntaxError,
    load_case,
    parse_case,
    read_solution,
    write_solution,
)
from steadygrid.indexing import IndexMap, flat_state
from steadygrid.network import Connection, PhaseDomain, validate
from steadygrid.solver import solve

from casewriter import write_case
from conftest import CASE_DIR, case_path, net_2bus, random_network

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


# one record per section, each with exactly its required columns
EVERY_SECTION = """BASE_MVA 100.0
BUS
1 SLACK 138.0 0.0 0.0 1.0
2 PQ 138.0
END
GEN
1 2 10.0 5.0
END
BRANCH
1 1 2 0.01 0.1
END
TRANSFORMER
2 1 2 0.0 0.1
END
SHUNT
1 2 0.0 19.0
END
ZIP
1 2 1.0 1.0 1.0 1.0 1.0 1.0
END
BIG
1 2 0.1 0.0 -0.1 0.0
END
"""
# each section's record in EVERY_SECTION, and its line
SECTION_RECORDS = {
    "BUS": ("2 PQ 138.0", 4), "GEN": ("1 2 10.0 5.0", 7), "BRANCH": ("1 1 2 0.01 0.1", 10),
    "TRANSFORMER": ("2 1 2 0.0 0.1", 13), "SHUNT": ("1 2 0.0 19.0", 16),
    "ZIP": ("1 2 1.0 1.0 1.0 1.0 1.0 1.0", 19), "BIG": ("1 2 0.1 0.0 -0.1 0.0", 22),
}


def test_every_section_parses_from_its_required_columns():
    net = parse_case(EVERY_SECTION)
    counts = [len(d) for d in (net.generators, net.branches, net.transformers, net.shunts,
                               net.zip_loads, net.big_loads)]
    assert counts == [1] * 6
    assert net.generators[0].q is not None and net.bus(2).v_set is None


@pytest.mark.parametrize("section", SECTION_RECORDS)
@pytest.mark.parametrize("defect", ["short", "non_numeric"])
def test_a_bad_record_names_its_section_and_line(section, defect):
    record, line = SECTION_RECORDS[section]
    toks = record.split()
    # a record a column short of its required ones, or with a word for its last one
    bad = " ".join(toks[:-1] if defect == "short" else toks[:-1] + ["x1"])
    with pytest.raises(CaseSyntaxError) as err:
        parse_case(EVERY_SECTION.replace(record, bad, 1))
    assert err.value.line == line
    assert str(err.value) == f"line {line}: bad {section} record: {bad}"


@pytest.mark.parametrize("zip_first", [False, True])
def test_bad_records_in_two_sections_report_the_earlier_section(zip_first):
    text = EVERY_SECTION.replace("2 PQ 138.0", "2 PQ", 1).replace("1 2 1.0 1.0", "1 2 x1 1.0", 1)
    if zip_first:  # sections are read in their fixed order, not the file's
        zip_section = "ZIP\n1 2 x1 1.0 1.0 1.0 1.0 1.0\nEND\n"
        text = text.replace(zip_section, "").replace("BUS\n", zip_section + "BUS\n", 1)
    with pytest.raises(CaseSyntaxError, match=r"bad BUS record: 2 PQ$"):
        parse_case(text)


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


FAMILIES = ("buses", "generators", "zip_loads", "big_loads", "branches", "transformers", "shunts")


def _assert_networks_equal(a, b):
    """Every field of every device of ``a`` and ``b``, device by device. A
    branch's charging is compared as the total ``b_from + b_to``, the only
    form either format carries."""
    assert (a.domain, a.base_mva) == (b.domain, b.base_mva)
    for family in FAMILIES:
        devices_a, devices_b = getattr(a, family), getattr(b, family)
        assert len(devices_a) == len(devices_b), family
        for da, db in zip(devices_a, devices_b):
            names = [f.name for f in fields(da)]
            if family == "branches":
                names = [n for n in names if n not in ("b_from", "b_to")]
                _assert_field(f"branch {da.id} charging", da.b_from + da.b_to, db.b_from + db.b_to)
            for name in names:
                _assert_field(f"{family} {da.id} {name}", getattr(da, name), getattr(db, name))


def _assert_field(where, want, got):
    if isinstance(want, (float, np.ndarray)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=where)
    else:  # ids, kinds, flags, block counts and None
        assert got == want, where


def test_three_phase_json_parses_delta_and_big():
    case = load_case(case_path("feeder8.json"))
    net = case.network
    assert net.domain == PhaseDomain.THREE_PHASE
    assert any(z.connection == Connection.DELTA for z in net.zip_loads)
    assert len(net.big_loads) == 1
    assert len(net.transformers) == 1


def _feeder8_doc() -> dict:
    with open(case_path("feeder8.json"), encoding="utf-8") as fh:
        return json.load(fh)


# each integer field of the three-phase JSON format, on a section whose first
# record can carry it (feeder8 gains a generator for remote_bus and bus)
JSON_INT_FIELDS = [("buses", "id"), ("generators", "bus"), ("generators", "remote_bus"),
                   ("loads", "bus"), ("branches", "from"), ("branches", "to"),
                   ("transformers", "controlled_bus"), ("shunts", "max_blocks"),
                   ("shunts", "blocks_on")]


@pytest.mark.parametrize("section, name", JSON_INT_FIELDS)
@pytest.mark.parametrize("value", [True, 4.7, math.inf, math.nan, "3", [1]],
                         ids=["bool", "fraction", "inf", "nan", "string", "list"])
def test_a_json_integer_field_takes_only_an_integer(section, name, value):
    doc = _feeder8_doc()
    doc["generators"] = [{"id": 1, "bus": 2, "p_mw": [0.0] * 3, "q_mvar": [0.0] * 3}]
    doc[section][0][name] = value
    with pytest.raises(CaseSemanticError) as err:
        parse_case(json.dumps(doc))
    assert str(err.value) == (
        f"{section}[0]: bad field {name!r}: expected an integer, got {value!r}"
    )


def test_a_json_integer_field_may_be_written_as_a_float():
    doc = _feeder8_doc()
    for section in ("buses", "loads", "branches", "transformers", "shunts"):
        for rec in doc[section]:
            for name in ("id", "bus", "from", "to"):
                if name in rec:
                    rec[name] = float(rec[name])
    _assert_networks_equal(load_case(case_path("feeder8.json")).network,
                           parse_case(json.dumps(doc)))


def test_json_syntax_error_has_line():
    with pytest.raises(CaseSyntaxError):
        parse_case('{"base_mva": 100.0,,}')


# -- solutions ----------------------------------------------------------------


def test_flat_solution_rows():
    net = net_2bus()
    state = flat_state(IndexMap(net))
    csv = write_solution(net, state)
    lines = csv.strip().splitlines()
    assert lines[0] == "bus,phase,vmag_pu,vang_deg,vr_pu,vi_pu"
    for row in lines[1:]:
        bus, ph, vm, va, vr, vi = row.split(",")
        assert float(vm) == 1.0
        assert float(va) == 0.0


def test_solved_receiving_bus_sags():
    net = net_2bus()
    report, state = solve(net)
    csv = write_solution(net, state)
    row2 = csv.strip().splitlines()[2].split(",")
    assert float(row2[2]) < 1.0  # inductive load pulls the magnitude down


@pytest.mark.parametrize("make", [net_2bus, lambda: load_case(case_path("feeder8.json")).network],
                         ids=["net_2bus", "feeder8"])
def test_solution_csv_round_trip_bitwise(make):
    net = make()
    _, state = solve(net)
    back = read_solution(net, write_solution(net, state))
    assert back.v.tobytes() == state.v.tobytes()  # exact: str(float) round-trips
    assert not back.x[back.index.nv:].any()  # the other unknowns start at 0


def test_a_solution_row_names_its_bus_by_a_decimal_integer():
    net = net_2bus()
    _, state = solve(net)
    header, *rows = write_solution(net, state).splitlines()
    for bad in ("2.9", "2.0", "+2", " 2", "x", "True", ""):  # float() or int() read some
        last = ",".join([bad, *rows[-1].split(",")[1:]])
        with pytest.raises(ValueError, match=re.escape(f"line 3: the case has no bus {bad} phase 'p'")):
            read_solution(net, "\n".join([header, rows[0], last]))


def test_a_solution_csv_gives_each_bus_and_phase_exactly_once():
    net = load_case(case_path("feeder8.json")).network
    _, state = solve(net)
    header, *rows = write_solution(net, state).splitlines()
    for text, message in [
        ([header, *rows[:5], *rows[6:]], "bus 2 phase 'c': 0 rows, not 1"),
        ([header], "bus 1 phase 'a': 0 rows, not 1"),
        ([header, *rows, rows[7], rows[1]], "bus 1 phase 'b': 2 rows, not 1"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_solution(net, "\n".join(text))
    # any order of the rows reads the same state
    back = read_solution(net, "\n".join([header, *reversed(rows)]))
    assert back.v.tobytes() == state.v.tobytes()


@pytest.mark.parametrize("text, message", [
    ("", "header '' is not bus,phase,vmag_pu,vang_deg,vr_pu,vi_pu"),
    ("bus,phase,vr_pu,vi_pu\n1,p,1.0,0.0\n", "header 'bus,phase,vr_pu,vi_pu' is not"),
    ("bus,phase,vmag_pu,vang_deg,vr_pu,vi_pu\n1,p,1.0,0.0,1.0\n", "line 2: 5 fields, not 6"),
    ("bus,phase,vmag_pu,vang_deg,vr_pu,vi_pu\n1,p,1,0,1,0,0\n", "line 2: 7 fields, not 6"),
    ("bus,phase,vmag_pu,vang_deg,vr_pu,vi_pu\n1,p,1.0,0.0,one,0.0\n", "could not convert"),
], ids=["empty", "header", "short", "long", "voltage"])
def test_a_solution_csv_needs_its_header_and_six_fields(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        read_solution(net_2bus(), text)


@pytest.mark.parametrize("text", ["", "{}"], ids=["net", "json"])
def test_a_case_without_a_bus_is_a_semantic_error(text):
    with pytest.raises(CaseSemanticError) as err:
        parse_case(text)
    assert str(err.value) == "network: [no_bus] network: network has no bus"


def test_csv_floats_reread_exactly():
    net = net_2bus()
    _, state = solve(net)
    csv = write_solution(net, state)
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
        write_solution(net, state)


def test_write_case_of_loaded_case_round_trips():
    for name in sorted(os.listdir(CASE_DIR)):
        network = load_case(case_path(name)).network
        _assert_networks_equal(network, parse_case(write_case(network)))


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
