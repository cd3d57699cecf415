"""Statuses and work counts of every corpus case under each method.

Refactors of the solver must leave iterates, and therefore these counts,
unchanged; a change that moves one on purpose updates the table with it.
Small cases also run with every system sent to SuperLU, which must take the
same path as the dense LU; case196 runs once on the band LU and once with
the band disabled, which must take the same path too; and
``corpus_digest.py --compare`` must fail when the two trees converged on
different runs.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from steadygrid import linsys, solver
from steadygrid.caseio import load_case
from steadygrid.linsys import SparseSystem
from steadygrid.nr import NrOptions
from steadygrid.solver import SolverOptions, solve

from conftest import CASE_DIR

# (status, inner_iterations, homotopy_steps, outer_passes, orderings) at tol 1e-8;
# orderings sums ``SparseSystem.orderings`` over the solve's systems: one
# COLAMD call per pattern above the dense cutoff, made by the factorization
# that chooses the pattern's plan, whatever exact zeros later calls meet.
# Systems of at most ``linsys._DENSE_MAX_N`` unknowns are factored dense or on
# the band and order nothing, so every case but case196 reads 0. case196's one
# pattern runs COLAMD once, on its first factorization, which chooses the band
# LU for every factorization, its own included
WORK = {
    "case12_radial.net": {
        "none": ("converged", 4, 0, 1, 0),
        "tx": ("converged", 14, 6, 1, 0),
        "power": ("converged", 17, 6, 1, 0),
    },
    "case14.net": {
        "none": ("converged", 5, 0, 1, 0),
        "tx": ("converged", 22, 6, 1, 0),
        "power": ("converged", 19, 6, 1, 0),
    },
    "case196_mesh.net": {
        "none": ("converged", 18, 0, 3, 1),
        "tx": ("converged", 29, 6, 3, 1),
        "power": ("converged", 30, 6, 3, 1),
    },
    "case2.net": {
        "none": ("converged", 3, 0, 1, 0),
        "tx": ("converged", 8, 6, 1, 0),
        "power": ("converged", 10, 6, 1, 0),
    },
    "case20_radial.net": {
        "none": ("diverged", 111, 0, 2, 0),
        "tx": ("diverged", 121, 6, 2, 0),
        "power": ("diverged", 124, 6, 2, 0),
    },
    "case2_twosol.net": {
        "none": ("converged", 4, 0, 1, 0),
        "tx": ("converged", 9, 6, 1, 0),
        "power": ("converged", 13, 6, 1, 0),
    },
    "case30_mesh.net": {
        "none": ("converged", 4, 0, 1, 0),
        "tx": ("converged", 15, 6, 1, 0),
        "power": ("converged", 18, 6, 1, 0),
    },
    "case3_ring.net": {
        "none": ("converged", 2, 0, 1, 0),
        "tx": ("converged", 8, 6, 1, 0),
        "power": ("converged", 11, 6, 1, 0),
    },
    "case4_pv.net": {
        "none": ("converged", 3, 0, 1, 0),
        "tx": ("converged", 15, 6, 1, 0),
        "power": ("converged", 13, 6, 1, 0),
    },
    "case56_mesh.net": {
        "none": ("converged", 5, 0, 1, 0),
        "tx": ("converged", 17, 6, 1, 0),
        "power": ("converged", 18, 6, 1, 0),
    },
    "case5_mesh.net": {
        "none": ("converged", 3, 0, 1, 0),
        "tx": ("converged", 15, 6, 1, 0),
        "power": ("converged", 16, 6, 1, 0),
    },
    "case6_remote.net": {
        "none": ("converged", 3, 0, 1, 0),
        "tx": ("converged", 17, 6, 1, 0),
        "power": ("converged", 16, 6, 1, 0),
    },
    "case9.net": {
        "none": ("converged", 4, 0, 1, 0),
        "tx": ("converged", 14, 6, 1, 0),
        "power": ("converged", 18, 6, 1, 0),
    },
    "case_qlim.net": {
        "none": ("converged", 5, 0, 2, 0),
        "tx": ("converged", 18, 6, 2, 0),
        "power": ("converged", 16, 6, 2, 0),
    },
    "feeder8.json": {
        "none": ("converged", 3, 0, 1, 0),
        "tx": ("converged", 12, 6, 1, 0),
        "power": ("converged", 11, 6, 1, 0),
    },
    "hard_corridor.net": {
        "none": ("diverged", 100, 0, 1, 0),
        "tx": ("converged", 103, 6, 1, 0),
        "power": ("converged", 108, 6, 1, 0),
    },
}


def test_table_covers_the_corpus():
    assert sorted(WORK) == sorted(os.listdir(CASE_DIR))


@pytest.mark.parametrize("case, method", [(c, m) for c in sorted(WORK) for m in WORK[c]])
def test_corpus_work_counts(case, method, monkeypatch):
    factorizations = 0
    systems = set()

    def counting_factor_solve(self, _run=SparseSystem.factor_solve):
        nonlocal factorizations
        factorizations += 1
        systems.add(self)
        return _run(self)

    walks = 0

    def counting_run_homotopy(*args, _run=solver.run_homotopy):
        nonlocal walks
        walks += 1
        return _run(*args)

    monkeypatch.setattr(SparseSystem, "factor_solve", counting_factor_solve)
    monkeypatch.setattr(solver, "run_homotopy", counting_run_homotopy)
    net = load_case(os.path.join(CASE_DIR, case)).network
    report, _ = solve(net, SolverOptions(homotopy=method, nr=NrOptions(tol=1e-8)))
    got = (report.status, report.inner_iterations, report.homotopy_steps, report.outer_passes,
           sum(s.orderings for s in systems))
    assert got == WORK[case][method]
    # one factorization per Newton step: a converged iterate is never factored
    assert factorizations == report.inner_iterations
    # one continuation walk per solve, whose accepted steps are the lambda trace
    assert walks == (method != "none")
    assert report.homotopy_steps == len(report.lambda_trace)


@pytest.mark.parametrize("case, method", [
    ("hard_corridor.net", "none"), ("hard_corridor.net", "power"),
    ("feeder8.json", "none"), ("feeder8.json", "tx"), ("feeder8.json", "power"),
    ("case56_mesh.net", "tx"),
])
def test_superlu_and_dense_lu_take_the_same_path(case, method, monkeypatch):
    """Cases under the cutoff, in both domains, solved once dense and once
    with every system sent to SuperLU. Each run loads its own network: the
    plan of a pattern is chosen once, by its first factorization."""
    options = SolverOptions(homotopy=method, nr=NrOptions(tol=1e-8))
    runs = []
    for cutoff in (linsys._DENSE_MAX_N, 0):
        monkeypatch.setattr(linsys, "_DENSE_MAX_N", cutoff)
        report, state = solve(load_case(os.path.join(CASE_DIR, case)).network, options)
        runs.append(((report.status, report.inner_iterations, report.homotopy_steps,
                      report.outer_passes), state.x))
    (dense_work, dense_x), (sparse_work, sparse_x) = runs
    assert dense_work == sparse_work
    assert np.max(np.abs(dense_x - sparse_x)) <= 1e-9


@pytest.mark.parametrize("method", ["none", "tx", "power"])
def test_band_and_superlu_take_the_same_path(method, monkeypatch):
    """case196 solved once with the band chosen by the first factorization,
    and once with every factorization left to SuperLU. Each run loads its
    own network: the plan of a pattern is chosen once."""
    options = SolverOptions(homotopy=method, nr=NrOptions(tol=1e-8))
    calls = []
    real = linsys.dgbtrf
    monkeypatch.setattr(linsys, "dgbtrf", lambda *args: calls.append(1) or real(*args))
    runs = []
    for ratio in (linsys._BAND_FLOP_RATIO, 0.0):
        monkeypatch.setattr(linsys, "_BAND_FLOP_RATIO", ratio)
        calls.clear()
        report, state = solve(load_case(os.path.join(CASE_DIR, "case196_mesh.net")).network,
                              options)
        # the band takes every factorization, the one that chose it included, or none
        assert len(calls) == (report.inner_iterations if ratio else 0)
        runs.append(((report.status, report.inner_iterations, report.homotopy_steps,
                      report.outer_passes), state.x))
    (band_work, band_x), (sparse_work, sparse_x) = runs
    assert band_work == sparse_work
    assert np.max(np.abs(band_x - sparse_x)) <= 1e-9


def test_digest_compare_exits_1_when_one_file_converged_alone(tmp_path):
    tests = os.path.dirname(os.path.abspath(__file__))
    digest = os.path.join(tests, "corpus_digest.py")
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    x = np.ones(3)
    np.savez(tmp_path / "both.npz", a=x, b=x)
    np.savez(tmp_path / "one.npz", a=x + 1e-12)

    def compare(before, after):
        return subprocess.run([sys.executable, digest, "--compare", str(tmp_path / before),
                               str(tmp_path / after)], env=env, capture_output=True,
                              text=True, timeout=120)

    same = compare("both.npz", "both.npz")
    assert same.returncode == 0 and same.stdout.splitlines()[-1] == "worst 0 none"
    for before, after in (("both.npz", "one.npz"), ("one.npz", "both.npz")):
        proc = compare(before, after)
        assert proc.returncode == 1
        assert "b converged only in" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "worst 1e-12 a"
