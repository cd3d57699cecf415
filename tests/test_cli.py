import json
import os

import pytest

from steadygrid.cli import EX_NOINPUT, EX_USAGE, main

from conftest import case_path


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


def test_sweep_row_count(tmp_path):
    code = run(["sweep", case_path("case3_ring.net"), "--samples", "15",
                "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 16  # header + 15 samples


def test_bogus_homotopy_flag_is_usage_error(capsys):
    assert run(["solve", case_path("case2.net"), "--homotopy", "bogus"]) == EX_USAGE


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


def test_contingency_outputs(tmp_path, capsys):
    code = run(["contingency", case_path("case9.net"), "--top-fraction", "0.34",
                "--out", str(tmp_path)])
    rows = (tmp_path / "contingency.csv").read_text().strip().splitlines()
    assert rows[0] == "label,status,inner_iters,homotopy_steps,max_mismatch"
    assert len(rows) > 1


def test_identical_invocations_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["solve", case_path("case14.net"), "--homotopy", "tx",
                    "--seed", "3", "--out", str(out)]) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    d1 = json.loads((out1 / "report.json").read_text())
    d2 = json.loads((out2 / "report.json").read_text())
    d1.pop("meta"), d2.pop("meta")  # timestamps are isolated to metadata
    assert d1 == d2


def test_missing_subcommand_usage():
    assert run([]) == EX_USAGE


def test_init_from_solution_file(tmp_path):
    out = tmp_path / "first"
    assert run(["solve", case_path("case14.net"), "--out", str(out)]) == 0
    # JSON solution written alongside for warm restarts
    from steadygrid.caseio import load_case, write_solution
    from steadygrid.solver import solve as solve_fn, SolverOptions
    case = load_case(case_path("case14.net"))
    rep, state = solve_fn(case.network, SolverOptions())
    sol = tmp_path / "sol.json"
    sol.write_text(write_solution(case.network, state, rep, fmt="json"))
    code = run(["solve", case_path("case14.net"), "--init", "file",
                "--init-file", str(sol), "--out", str(tmp_path / "second")])
    assert code == 0


def test_init_file_without_path_is_usage_error():
    assert run(["solve", case_path("case14.net"), "--init", "file"]) == EX_USAGE
