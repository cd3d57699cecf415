import json

import pytest

from steadygrid.cli import EX_NOINPUT, EX_USAGE, main
from steadygrid.solver import solve

from casewriter import write_case
from conftest import case_path, net_tap, net_tap_fine


def run(argv):
    return main(argv)


def test_solve_writes_solution_and_report(tmp_path, capsys):
    code = run(["solve", case_path("case14.net"), "--homotopy", "tx",
                "--tol", "1e-6", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "solution.csv").exists()
    assert (tmp_path / "report.json").exists()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["status"] == "converged"
    assert doc["homotopy_steps"] > 0
    out = capsys.readouterr().out
    assert "converged" in out


def test_solve_trace_output(tmp_path):
    code = run(["solve", case_path("case2.net"), "--trace", "--out", str(tmp_path)])
    assert code == 0
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,residual,max_dv,zeta,limited"
    assert len(trace) >= 2


def test_trace_rewrites_both_trace_files_into_a_used_directory(tmp_path):
    # a tx walk leaves a continuation trace; a plain run into the same
    # directory must not leave it behind
    assert run(["solve", case_path("case14.net"), "--homotopy", "tx", "--trace",
                "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "lambda_trace.csv").read_text().splitlines()) == 7
    assert run(["solve", case_path("case14.net"), "--trace", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["homotopy_steps"] == 0
    assert (tmp_path / "lambda_trace.csv").read_text() == "lambda,nr_iterations,residual\n"
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(trace) == 1 + report["inner_iterations"]


def test_sweep_row_count(tmp_path):
    code = run(["sweep", case_path("case3_ring.net"), "--samples", "15",
                "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 16  # header + 15 samples


def test_bogus_homotopy_flag_is_usage_error(capsys):
    assert run(["solve", case_path("case2.net"), "--homotopy", "bogus"]) == EX_USAGE
    # an unknown flag on a batch subcommand
    assert run(["sweep", case_path("case3_ring.net"), "--workers", "2"]) == EX_USAGE
    capsys.readouterr()
    # the sweep draws its own starts: a start flag is rejected, not ignored
    for flags in (["--init", "random"], ["--init", "file", "--init-file", "start.json"],
                  ["--init-file", "start.json"]):
        assert run(["sweep", case_path("case3_ring.net"), *flags]) == EX_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: unrecognized arguments: {' '.join(flags)}"
        ]
    # the safeguards are constants: their flags are gone, not ignored
    for command in ("solve", "sweep", "contingency"):
        for flag in ("--gamma", "--dv-max", "--zeta-min"):
            assert run([command, case_path("case2.net"), flag, "10"]) == EX_USAGE
            out, err = capsys.readouterr()
            assert out == ""
            assert [line for line in err.splitlines() if line.startswith("error:")] == [
                f"error: unrecognized arguments: {flag} 10"
            ]
    # values the options reject: one error line, no traceback, no solve
    rejected = [
        (command, flag, value)
        for flag, value in [("--tol", "-1"), ("--tol", "0"), ("--tol", "inf"),
                            ("--tol", "nan"), ("--max-iter", "-3")]
        for command in ("solve", "sweep", "contingency")
    ]
    # and the values one subcommand's own flag rejects
    rejected += [("sweep", "--samples", "-3"), ("sweep", "--samples", "0"),
                 ("contingency", "--top-fraction", "-2"),
                 ("contingency", "--top-fraction", "0"),
                 ("contingency", "--top-fraction", "1.5")]
    for command, flag, value in rejected:
        assert run([command, case_path("case2.net"), flag, value]) == EX_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["solve", case_path("case14.net"), "--init", "random", "--seed", "-1"],
    ["sweep", case_path("case14.net"), "--seed", "-1"],
])
def test_a_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    assert run([*argv, "--out", str(tmp_path)]) == EX_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == "error: seed must be an integer >= 0, got -1\n"
    assert list(tmp_path.iterdir()) == []  # nothing solved


def test_unreadable_case_exit_code(tmp_path):
    assert run(["solve", str(tmp_path / "missing.net")]) == EX_NOINPUT


def test_malformed_case_exit_code(tmp_path):
    bad = tmp_path / "bad.net"
    bad.write_text("BASE_MVA 100\nBUS\n1 WHAT 138.0\nEND\n")
    assert run(["solve", str(bad)]) == EX_NOINPUT


def test_diverged_exit_code(tmp_path):
    hard = case_path("hard_corridor.net")
    assert run(["solve", hard, "--out", str(tmp_path)]) == 1
    assert run(["solve", hard, "--homotopy", "power", "--out", str(tmp_path)]) == 0


def test_report_json_is_strict_json_for_every_status(tmp_path):
    def no_constant(name):
        raise AssertionError(f"report.json holds {name}")

    for case, status in (("case14.net", "converged"), ("hard_corridor.net", "diverged")):
        out = tmp_path / case
        run(["solve", case_path(case), "--out", str(out)])
        report = json.loads((out / "report.json").read_text(), parse_constant=no_constant)
        assert report["status"] == status
        residuals = [report["max_kcl_residual"], report["max_constraint_residual"]]
        if status == "converged":
            assert all(isinstance(r, float) for r in residuals)
        else:  # a solve that did not converge splits no residual
            assert residuals == [None, None]


def test_validate_subcommand(capsys):
    assert run(["validate", case_path("case14.net")]) == 0
    out = capsys.readouterr().out
    assert "14 buses" in out and "5 generators" in out


def test_validate_rejects_broken_case(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text(
        "BASE_MVA 100\nBUS\n1 SLACK 138.0 0.0 0.0 1.0 0.0\n2 PQ 138.0\nEND\n"
        "BRANCH\n1 1 9 0.01 0.1 0.0\nEND\n"
    )
    assert run(["validate", str(bad)]) == 1


SLACK_3P = {"id": 1, "kind": "slack", "v_set": 1.0}
UNIT_3X3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


# a malformed three-phase JSON record, and the record and field it is reported by
@pytest.mark.parametrize("doc, where, field", [
    ({"buses": [{"kind": "slack", "v_set": 1.0}]}, "buses[0]", "'id'"),
    ({"buses": [SLACK_3P], "generators": [{"id": 1, "bus": 1, "p_mw": "abc"}]},
     "generators[0]", "'p_mw'"),
    ({"buses": [1]}, "buses[0]", "object"),
    ({"buses": [{"id": 1, "kind": "slack", "v_set": "abc"}]}, "buses[0]", "'v_set'"),
    ({"buses": [SLACK_3P], "loads": [
        {"id": 1, "bus": 1, "model": "big", "alpha_re_pu": [0.0] * 3,
         "g_pu": [0.0] * 3, "b_pu": [0.0] * 3}]}, "loads[0]", "'alpha_im_pu'"),
    ({"buses": [SLACK_3P], "shunts": [{"id": 1, "bus": 1, "max_blocks": 2}]},
     "shunts[0]", "'block_b_pu'"),
    ({"buses": [SLACK_3P, {"id": 2}], "branches": [
        {"id": 1, "from": 1, "to": 2, "y_imag_pu": UNIT_3X3}]}, "branches[0]",
     "'y_real_pu'"),
    ({"base_mva": 0.0, "buses": [SLACK_3P]}, "case", "'base_mva'"),
    # an id, bus or count is an integer: it is neither truncated nor left a string
    ({"buses": [SLACK_3P, {"id": 4}], "loads": [{"id": 1, "bus": 4.7}]}, "loads[0]", "'bus'"),
    ({"buses": [SLACK_3P, {"id": 2}], "branches": [
        {"id": 1, "from": float("inf"), "to": 2, "y_real_pu": UNIT_3X3, "y_imag_pu": UNIT_3X3}]},
     "branches[0]", "'from'"),
    # two fields that only fail together: reported by the record alone
    ({"buses": [SLACK_3P], "loads": [
        {"id": 1, "bus": 1, "z_mw": [1.0, 2.0], "z_mvar": [1.0, 2.0, 3.0]}]},
     "loads[0]", "shapes (2,) (3,)"),
], ids=["no_id", "bad_number", "not_an_object", "bad_v_set", "big_load", "shunt_blocks", "branch",
        "zero_base", "fractional_bus", "infinite_from", "zip_lengths"])
def test_a_malformed_json_record_is_a_case_error(tmp_path, capsys, doc, where, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["validate", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith(f"invalid: {where}: ") and field in out and err == ""
    for command in ("solve", "sweep", "contingency"):
        assert run([command, str(bad), "--out", str(tmp_path)]) == EX_NOINPUT
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"bad case file: {where}: ") and field in err


@pytest.mark.parametrize("name, text", [("empty.net", ""), ("empty.json", "{}")])
def test_a_case_without_a_bus_is_rejected(tmp_path, capsys, name, text):
    bad = tmp_path / name
    bad.write_text(text)
    assert run(["validate", str(bad)]) == 1
    assert capsys.readouterr().out == "invalid: network: [no_bus] network: network has no bus\n"
    assert run(["solve", str(bad), "--out", str(tmp_path / "out")]) == EX_NOINPUT
    out, err = capsys.readouterr()
    assert out == "" and "no_bus" in err and not (tmp_path / "out").exists()


def test_a_zero_tap_table_is_rejected_before_any_solve(tmp_path, capsys):
    bad = tmp_path / "tap0.net"
    bad.write_text(
        "BASE_MVA 100\nBUS\n1 SLACK 138.0 0.0 0.0 1.0 0.0\n2 PQ 138.0\n3 PQ 138.0 10.0 2.0\n"
        "END\nBRANCH\n1 1 2 0.01 0.1 0.0\nEND\n"
        "TRANSFORMER\n1 2 3 0.0 0.05 0.0 0 0.0 1.2\nEND\n"
    )
    assert run(["validate", str(bad)]) == 1
    assert "tap_limits" in capsys.readouterr().out
    assert run(["solve", str(bad), "--out", str(tmp_path)]) == EX_NOINPUT
    out, err = capsys.readouterr()
    assert "tap_limits" in err and "Traceback" not in out + err


# a case14 line whose record divides by zero impedance, and its line number
@pytest.mark.parametrize("old, new, line", [
    ("11 7  8  0.0     0.17615 0.0", "11 7  8  0.0     0.0 0.0", 40),
    ("1 4 7 0.0 0.20912 0.978 0.0", "1 4 7 0.0 0.0 0.978 0.0", 50),
], ids=["branch", "transformer"])
def test_a_zero_impedance_record_is_a_case_error(tmp_path, capsys, old, new, line):
    with open(case_path("case14.net"), encoding="utf-8") as fh:
        text = fh.read()
    assert text.splitlines()[line - 1] == old
    bad = tmp_path / "zero.net"
    bad.write_text(text.replace(old, new))
    assert run(["validate", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith(f"invalid: line {line}: ") and err == ""
    assert run(["solve", str(bad), "--out", str(tmp_path)]) == EX_NOINPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"bad case file: line {line}: ")
    assert "Traceback" not in err


def test_a_tap_control_without_a_usable_step_is_rejected(tmp_path, capsys):
    bad = tmp_path / "nan_step.net"
    bad.write_text(
        "BASE_MVA 100\nBUS\n1 SLACK 138.0 0.0 0.0 1.0 0.0\n2 PQ 138.0\n3 PQ 13.8 60.0 25.0\n"
        "END\nBRANCH\n1 1 2 0.01 0.08 0.0\nEND\n"
        "TRANSFORMER\n1 2 3 0.005 0.1 1.0 0 0.9 1.1 nan 3 1.0\nEND\n"
    )
    assert run(["validate", str(bad)]) == 1
    assert "[bad_control] xfmr 1: tap_step nan not finite and positive" in capsys.readouterr().out


def test_solve_steps_the_controls_a_case_declares(tmp_path, capsys):
    net = net_tap()
    case = tmp_path / "tap.net"
    case.write_text(write_case(net))
    assert run(["solve", str(case), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "report.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    want = solve(net)[0].to_dict()
    assert len(doc["switch_events"]) == 5  # the tap steps from 1.0 to 0.9375
    assert doc["switch_events"] == want["switch_events"]
    assert doc["final_taps"] == want["final_taps"] != {"1": [1.0]}


def test_solve_takes_the_passes_a_default_step_tap_needs(tmp_path, capsys):
    # 13 tap moves at the Transformer's own tap_step: more passes than ten
    case = tmp_path / "tap_fine.net"
    case.write_text(write_case(net_tap_fine()))
    assert run(["solve", str(case), "--out", str(tmp_path)]) == 0
    assert "converged (inner 29, homotopy 0, passes 14)" in capsys.readouterr().out


def test_contingency_outputs(tmp_path, capsys):
    code = run(["contingency", case_path("case9.net"), "--top-fraction", "0.34",
                "--out", str(tmp_path)])
    rows = (tmp_path / "contingency.csv").read_text().strip().splitlines()
    assert rows[0] == "label,status,inner_iters,homotopy_steps,max_mismatch"
    assert len(rows) > 1


def test_identical_invocations_byte_identical(tmp_path):
    # (argv, output file, exit code); a case9 outage leaves an island without
    # a slack, so that batch exits 2
    invocations = [
        (["solve", case_path("case14.net"), "--homotopy", "tx", "--seed", "3"],
         "solution.csv", 0),
        (["sweep", case_path("case14.net"), "--samples", "15", "--seed", "7"],
         "sweep.csv", 0),
        (["contingency", case_path("case9.net"), "--homotopy", "tx"],
         "contingency.csv", 2),
    ]
    for k, (argv, name, code) in enumerate(invocations):
        out1, out2 = tmp_path / f"{k}a", tmp_path / f"{k}b"
        for out in (out1, out2):
            assert run(argv + ["--out", str(out)]) == code
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    d1 = json.loads((tmp_path / "0a" / "report.json").read_text())
    d2 = json.loads((tmp_path / "0b" / "report.json").read_text())
    d1.pop("meta"), d2.pop("meta")  # timestamps are isolated to metadata
    assert d1 == d2


def test_missing_subcommand_usage():
    assert run([]) == EX_USAGE


def test_init_from_solution_file(tmp_path):
    # the solution.csv a solve writes is the start of the next one
    for name, iterations in (("case14.net", 1), ("feeder8.json", 0)):
        first, second = tmp_path / name / "first", tmp_path / name / "second"
        assert run(["solve", case_path(name), "--homotopy", "tx", "--tol", "1e-8",
                    "--out", str(first)]) == 0
        assert run(["solve", case_path(name), "--tol", "1e-8", "--init", "file",
                    "--init-file", str(first / "solution.csv"), "--out", str(second)]) == 0
        report = json.loads((second / "report.json").read_text())
        assert (report["status"], report["inner_iterations"]) == ("converged", iterations)


@pytest.mark.parametrize("edit, named", [
    (lambda rows: rows[:8], "bus 8 phase 'p': 0 rows, not 1"),  # the header and 7 rows
    (lambda rows: rows + [rows[3]], "bus 3 phase 'p': 2 rows, not 1"),
], ids=["cut", "repeated"])
def test_init_file_gives_each_bus_and_phase_once(tmp_path, capsys, edit, named):
    first = tmp_path / "first"
    assert run(["solve", case_path("case14.net"), "--homotopy", "tx", "--tol", "1e-8",
                "--out", str(first)]) == 0
    sol = tmp_path / "solution.csv"
    sol.write_text("\n".join(edit((first / "solution.csv").read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert run(["solve", case_path("case14.net"), "--tol", "1e-8", "--init", "file",
                "--init-file", str(sol), "--out", str(tmp_path / "second")]) == EX_NOINPUT
    err = capsys.readouterr().err
    assert err.startswith("error: cannot use init file") and err.rstrip().endswith(named)
    assert not (tmp_path / "second" / "report.json").exists()


def test_init_file_without_path_is_usage_error():
    assert run(["solve", case_path("case14.net"), "--init", "file"]) == EX_USAGE


def test_missing_init_file_is_input_error(tmp_path, capsys):
    argv = ["solve", case_path("case14.net"), "--init", "file",
            "--init-file", str(tmp_path / "missing.json"), "--out", str(tmp_path)]
    assert run(argv) == EX_NOINPUT
    assert capsys.readouterr().err.startswith("error: cannot use init file")
    assert not (tmp_path / "report.json").exists()


# a row at NaN where the case has more buses: the rows are counted first
ONE_NAN_ROW = "bus,phase,vmag_pu,vang_deg,vr_pu,vi_pu\n1,p,nan,nan,nan,0.0\n"
# case14's own solution.csv with bus 2 at NaN, written by the test: it gives
# every bus once, so the warm start's finiteness check rejects it
CASE14_BUS2_NAN = "case14 solution.csv, bus 2 at nan"
# the end of the error line, where an input's message is pinned
NAMED = {ONE_NAN_ROW: "bus 2 phase 'p': 0 rows, not 1",
         CASE14_BUS2_NAN: "warm start state must be finite"}


@pytest.mark.parametrize("text", [
    # anything but a solution CSV, the JSON solution documents once read included
    "not json",
    '{"solutions": []}',
    '{"buses": [{"bus": 99, "phase": "p", "vr_pu": 1.0, "vi_pu": 0.0}]}',
    '{"buses": [{"bus": 1, "phase": "a", "vr_pu": 1.0, "vi_pu": 0.0}]}',
    '{"buses": [{"bus": 1, "phase": "p", "vr_pu": NaN, "vi_pu": 0.0}]}',
    '{"buses": [{"bus": 1, "phase": "p", "vr_pu": Infinity, "vi_pu": 0.0}]}',
    '{"buses": [{"bus": 2.9, "phase": "p", "vr_pu": 1.0, "vi_pu": 0.0}]}',
    '{"buses": [{"bus": true, "phase": "p", "vr_pu": 1.0, "vi_pu": 0.0}]}',
    # the solution CSV a solve writes: its header, six fields, a decimal
    # integer bus, a bus and phase the case has, finite voltages
    "bus,phase,vr_pu,vi_pu\n1,p,1.0,0.0\n",
    "bus,phase,vmag_pu,vang_deg,vr_pu,vi_pu\n1,p,1.0,0.0,1.0\n",
    "bus,phase,vmag_pu,vang_deg,vr_pu,vi_pu\n2.9,p,1.0,0.0,1.0,0.0\n",
    "bus,phase,vmag_pu,vang_deg,vr_pu,vi_pu\nx,p,1.0,0.0,1.0,0.0\n",
    "bus,phase,vmag_pu,vang_deg,vr_pu,vi_pu\n99,p,1.0,0.0,1.0,0.0\n",
    "bus,phase,vmag_pu,vang_deg,vr_pu,vi_pu\n1,a,1.0,0.0,1.0,0.0\n",
    ONE_NAN_ROW,
    pytest.param(CASE14_BUS2_NAN, id="case14-bus2-nan"),
])
def test_malformed_init_file_is_input_error(tmp_path, capsys, text):
    given = text
    if text == CASE14_BUS2_NAN:
        first = tmp_path / "first"
        assert run(["solve", case_path("case14.net"), "--out", str(first)]) == 0
        rows = (first / "solution.csv").read_text().splitlines()
        text = "\n".join("2,p,nan,nan,nan,nan" if row.startswith("2,") else row
                         for row in rows) + "\n"
        capsys.readouterr()
    sol = tmp_path / "sol.json"
    sol.write_text(text)
    argv = ["solve", case_path("case14.net"), "--init", "file",
            "--init-file", str(sol), "--out", str(tmp_path)]
    assert run(argv) == EX_NOINPUT
    err = capsys.readouterr().err
    assert err.startswith("error: cannot use init file") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()
    if given in NAMED:
        assert err.rstrip().endswith(NAMED[given])
