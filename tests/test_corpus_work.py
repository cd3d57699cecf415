"""Statuses and work counts of every corpus case under each method.

Refactors of the solver must leave iterates, and therefore these counts,
unchanged; a change that moves one on purpose updates the table with it.
"""

import os

import pytest

from steadygrid.caseio import load_case
from steadygrid.linsys import SparseSystem
from steadygrid.nr import NrOptions
from steadygrid.solver import SolverOptions, solve

from conftest import CASE_DIR

# (status, inner_iterations, homotopy_steps, outer_passes, orderings) at tol 1e-8;
# orderings sums ``SparseSystem.orderings`` over the solve's systems: one per
# set of exact zeros met in a row, so a column order that is never reused
# shows here as orderings == inner_iterations
WORK = {
    "case12_radial.net": {
        "none": ("converged", 4, 0, 1, 2),
        "tx": ("converged", 14, 6, 1, 2),
        "power": ("converged", 17, 6, 1, 2),
    },
    "case14.net": {
        "none": ("converged", 5, 0, 1, 2),
        "tx": ("converged", 22, 6, 1, 2),
        "power": ("converged", 19, 6, 1, 2),
    },
    "case196_mesh.net": {
        "none": ("converged", 18, 0, 3, 4),
        "tx": ("converged", 29, 6, 3, 4),
        "power": ("converged", 30, 6, 3, 4),
    },
    "case2.net": {
        "none": ("converged", 3, 0, 1, 1),
        "tx": ("converged", 8, 6, 1, 1),
        "power": ("converged", 10, 6, 1, 1),
    },
    "case20_radial.net": {
        "none": ("diverged", 111, 0, 2, 3),
        "tx": ("diverged", 1351, 22, 2, 5),
        "power": ("diverged", 1363, 15, 2, 5),
    },
    "case2_twosol.net": {
        "none": ("converged", 4, 0, 1, 1),
        "tx": ("converged", 9, 6, 1, 1),
        "power": ("converged", 13, 6, 1, 1),
    },
    "case30_mesh.net": {
        "none": ("converged", 4, 0, 1, 2),
        "tx": ("converged", 15, 6, 1, 2),
        "power": ("converged", 18, 6, 1, 2),
    },
    "case3_ring.net": {
        "none": ("converged", 2, 0, 1, 1),
        "tx": ("converged", 8, 6, 1, 1),
        "power": ("converged", 11, 6, 1, 1),
    },
    "case4_pv.net": {
        "none": ("converged", 3, 0, 1, 2),
        "tx": ("converged", 15, 6, 1, 2),
        "power": ("converged", 13, 6, 1, 2),
    },
    "case56_mesh.net": {
        "none": ("converged", 5, 0, 1, 2),
        "tx": ("converged", 17, 6, 1, 2),
        "power": ("converged", 18, 6, 1, 2),
    },
    "case5_mesh.net": {
        "none": ("converged", 3, 0, 1, 2),
        "tx": ("converged", 15, 6, 1, 2),
        "power": ("converged", 16, 6, 1, 2),
    },
    "case6_remote.net": {
        "none": ("converged", 3, 0, 1, 2),
        "tx": ("converged", 17, 6, 1, 2),
        "power": ("converged", 16, 6, 1, 2),
    },
    "case9.net": {
        "none": ("converged", 4, 0, 1, 2),
        "tx": ("converged", 14, 6, 1, 2),
        "power": ("converged", 18, 6, 1, 3),
    },
    "case_qlim.net": {
        "none": ("converged", 5, 0, 2, 3),
        "tx": ("converged", 18, 6, 2, 3),
        "power": ("converged", 16, 6, 2, 3),
    },
    "feeder8.json": {
        "none": ("converged", 3, 0, 1, 1),
        "tx": ("converged", 12, 6, 1, 1),
        "power": ("converged", 11, 6, 1, 1),
    },
    "hard_corridor.net": {
        "none": ("diverged", 100, 0, 1, 6),
        "tx": ("converged", 103, 6, 1, 2),
        "power": ("converged", 108, 6, 1, 2),
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

    monkeypatch.setattr(SparseSystem, "factor_solve", counting_factor_solve)
    net = load_case(os.path.join(CASE_DIR, case)).network
    report, _ = solve(net, SolverOptions(homotopy=method, nr=NrOptions(tol=1e-8)))
    got = (report.status, report.inner_iterations, report.homotopy_steps, report.outer_passes,
           sum(s.orderings for s in systems))
    assert got == WORK[case][method]
    # one factorization per Newton step: a converged iterate is never factored
    assert factorizations == report.inner_iterations
