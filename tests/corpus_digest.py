"""Print a digest of every corpus solve and of six CLI commands.

Two trees that print the same lines produce bit-identical iterates: each
corpus line hashes the report without ``meta``, the state bytes, the NR
trace and the lambda trace; each CLI line hashes stdout and every output
file (``report.json`` without ``meta``). ``steadygrid`` comes from the
import path, so the same script compares any two source trees:

    PYTHONPATH=src python3 tests/corpus_digest.py > after.txt
    PYTHONPATH=<other checkout>/src python3 tests/corpus_digest.py > before.txt
    diff before.txt after.txt

A change that moves iterates in the last bits on purpose is measured by the
state vectors instead: ``--states FILE.npz`` also saves the state of every
converged corpus run, and ``--compare`` prints the largest ``|dx|`` of each
run converged in both files, then the worst of them. It also prints a line
for each run converged in only one of the files, and then exits 1, so a
script can check that both trees converged on the same runs:

    PYTHONPATH=src python3 tests/corpus_digest.py --states after.npz > after.txt
    PYTHONPATH=<other checkout>/src python3 tests/corpus_digest.py --states before.npz > before.txt
    PYTHONPATH=src python3 tests/corpus_digest.py --compare before.npz after.npz

``--work`` prints each line without its trailing hash, so that a plain
``diff`` of two ``--work`` outputs shows every changed status or work count
(Newton iterations, continuation steps, outer passes, exit codes) and
nothing else.

``--repeat N`` solves each loaded corpus network object N times in one
process and prints the usual lines once. It exits 1, naming each line whose
repeats differ, so it shows whether a solve depends on an earlier solve of
the same object (the set-up a network keeps between solves):

    PYTHONPATH=src python3 tests/corpus_digest.py --repeat 2 > after.txt

``--jobs WORKLOAD --seeds A-B`` prints, instead of the corpus, one work line
per benchmark job (``seed label status iterations steps passes``), built and
run by ``perfbench.jobs`` for every seed from A to B. A benchmark work
digest at one seed does not show whether a change moves a job's status or
counts at other seeds; this does:

    PYTHONPATH=src python3 tests/corpus_digest.py --jobs hard_ic --seeds 1-60 > after.txt

``--tiles`` prints, instead of the corpus, one line per solve of the case196
tiles (copies of case196 joined by tie branches, ``conftest.case196_tile``),
the only networks that factor on SuperLU: the x2 tile with Q limits and the
x4 tile without, under ``none``, ``tx`` and ``power``, each loaded once per
method and solved twice. A line holds the status, the work counts, the
COLAMD and ``NATURAL`` calls to SuperLU in that solve, and the hash; with
``--states`` it saves the states for ``--compare``:

    PYTHONPATH=src python3 tests/corpus_digest.py --tiles --states after.npz > after.txt

``--plans`` prints, instead, one line per corpus network: its unknowns and
the factorization plan its pattern chose in a flat-start solve (``dense``,
``band KL KU`` or ``SuperLU``), so a plain ``diff`` of two trees shows every
network whose path changed:

    PYTHONPATH=src python3 tests/corpus_digest.py --plans > after.txt

``--call-costs CASE METHOD`` prints, instead, what the calls made on every
Newton pass cost inside live solves of one corpus case (say
``hard_corridor.net power``): the median µs per call, the calls per solve,
the mean µs per solve and the share of solve time of ``Companion.bind``,
``assemble_system``, ``SparseSystem.factor_solve`` and the factorization
call within it (``dgetrf``, ``dgbtrf`` or ``splu``), and of the outer loop's
Q-limit enforcement (``_enforce_q_limits``, once per pass of a network with
regulating machines). Then it prints what a network object
costs once, on its first solve, each timed on ``COST_SOLVES`` fresh copies of
the network: ``validate`` and ``solver.solve_setup`` (which validates, then
builds the index map, the companion layout and the base parameters), with
their share of the median solve. Small numpy calls cost far more in a
standalone loop than inside a solve, so two trees are compared by running
this on each, alternately; it runs with every BLAS pool at one thread:

    PYTHONPATH=src python3 tests/corpus_digest.py --call-costs hard_corridor.net power

pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import hashlib
import io
import itertools
import json
import math
import os
import statistics
import sys
import tempfile
import time

import numpy as np

from steadygrid import linsys, nr, solver, stamps
from steadygrid.caseio import load_case
from steadygrid.cli import main
from steadygrid.homotopy import lambda_trace_to_csv
from steadygrid.network import validate
from steadygrid.nr import NrOptions, trace_to_csv
from steadygrid.solver import SolverOptions, solve

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASES = os.path.join(ROOT, "cases")

COST_SOLVES = 40  # timed solves of --call-costs, after one untimed
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

CLI_COMMANDS = [
    ["sweep", "cases/case14.net", "--samples", "15", "--seed", "7"],
    ["contingency", "cases/case9.net", "--homotopy", "tx"],
    ["contingency", "cases/case56_mesh.net", "--homotopy", "tx", "--top-fraction", "0.15",
     "--tol", "1e-8"],
    ["solve", "cases/case14.net", "--homotopy", "tx", "--seed", "3", "--trace"],
    ["solve", "cases/case6_remote.net", "--homotopy", "tx", "--trace"],
    ["solve", "cases/case14.net", "--init", "random", "--seed", "3"],
]


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:16]


def _without_meta(report_json: str) -> bytes:
    doc = json.loads(report_json)
    doc.pop("meta")
    return json.dumps(doc, sort_keys=True).encode()


def _run(network, options):
    """The work line tail, the hash and, when converged, the state vector of
    one solve; a raised solve has a tail alone."""
    try:
        report, state = solve(network, options)
    except Exception as exc:  # a raised run is part of the behaviour
        return f"raised {type(exc).__name__}", None, None
    digest = _digest(
        _without_meta(report.to_json()),
        state.x.tobytes(),
        trace_to_csv(report.nr_trace).encode(),
        lambda_trace_to_csv(report.lambda_trace).encode(),
    )
    tail = (f"{report.status} {report.inner_iterations} {report.homotopy_steps} "
            f"{report.outer_passes}")
    return tail, digest, state.x if report.status == "converged" else None


def corpus_lines(states=None, repeat=1, differs=None):
    """One ``(line, hash)`` per corpus run (a raised run has no hash); the
    state of each converged run goes into ``states`` (a dict keyed by the
    run's label) when one is given. Each loaded network is solved ``repeat``
    times; the line of a run whose repeats differ goes into ``differs``."""
    grid = itertools.product(
        sorted(os.listdir(CASES)), ("none", "tx", "power"), (False, True), (1e-6, 1e-8),
        (math.inf, 0.05),
    )
    for case, method, adjust, tol, di_max in grid:
        label = f"{case} {method} adjust={int(adjust)} tol={tol:g} di_max={di_max:g}"
        options = SolverOptions(
            homotopy=method, nr=NrOptions(tol=tol, di_max=di_max),
            adjust_taps=adjust, adjust_shunts=adjust,
        )
        network = load_case(os.path.join(CASES, case)).network
        runs = [_run(network, options) for _ in range(repeat)]
        tail, digest, x = runs[0]
        if differs is not None and any(run[:2] != (tail, digest) for run in runs[1:]):
            differs.append(f"{label} {tail}")
        if states is not None and x is not None:
            states[label] = x
        yield f"{label} {tail}", digest


def cli_lines():
    """One ``(line, hash)`` per CLI command."""
    for argv in CLI_COMMANDS:
        with tempfile.TemporaryDirectory() as out:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main([os.path.join(ROOT, a) if a.startswith("cases/") else a
                             for a in argv] + ["--out", out])
            parts = [stdout.getvalue().encode()]
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), encoding="utf-8") as fh:
                    text = fh.read()
                parts += [name.encode(), _without_meta(text) if name == "report.json"
                          else text.encode()]
        yield f"{' '.join(argv)} exit={code}", _digest(*parts)


def job_lines(workload: str, seeds):
    """One work line per benchmark job of ``workload`` at each seed."""
    sys.path.insert(0, ROOT)
    from perfbench import jobs

    networks = jobs.load_networks(workload, CASES)
    for seed in seeds:
        for job in jobs.build_jobs(workload, seed, networks):
            status, iterations, steps, passes = jobs.run_job(job, jobs.Api()).counts
            yield f"seed={seed} {job.label} {status} {iterations} {steps} {passes}"


def tile_lines(states=None):
    """One ``(line, hash)`` per solve of the case196 tiles; the state of
    each converged solve goes into ``states`` when one is given."""
    from conftest import case196_tile

    specs = []
    real = linsys.splu

    def counting_splu(a, **kwargs):
        specs.append(kwargs["permc_spec"])
        return real(a, **kwargs)

    linsys.splu = counting_splu
    for copies, q_limits in ((2, True), (4, False)):
        for method in ("none", "tx", "power"):
            network = case196_tile(copies)
            options = SolverOptions(homotopy=method, enforce_q_limits=q_limits)
            for k in (1, 2):
                label = f"tile{copies} q_limits={int(q_limits)} {method} solve={k}"
                specs.clear()
                tail, digest, x = _run(network, options)
                if states is not None and x is not None:
                    states[label] = x
                yield (f"{label} {tail} colamd={specs.count('COLAMD')} "
                       f"natural={specs.count('NATURAL')}"), digest


def plan_lines():
    """One ``case n=N plan`` line per corpus network."""
    for case in sorted(os.listdir(CASES)):
        network = load_case(os.path.join(CASES, case)).network
        solve(network, SolverOptions())
        index, layout, _ = network._setup
        plan = layout.pattern.plan
        if isinstance(plan, linsys._BandPlan):
            name = f"band {plan.kl} {plan.ku}"
        else:
            name = "dense" if isinstance(plan, linsys._DensePlan) else "SuperLU"
        yield f"{case} n={index.dim} {name}"


def call_cost_lines(case: str, method: str):
    """A header, then ``call us/call calls/solve us/solve share`` per timed call that
    ran, over ``COST_SOLVES`` solves of one loaded network (its set-up is
    kept between solves, as in the benchmark); then ``call us/call share``
    per call made once per network object, each timed on fresh copies."""
    times: dict[str, list[int]] = {}

    def timed(name, fn):
        calls = times.setdefault(name, [])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append(time.perf_counter_ns() - start)

        return wrapper

    stamps.Companion.bind = timed("Companion.bind", stamps.Companion.bind)
    nr.assemble_system = timed("assemble_system", nr.assemble_system)
    linsys.SparseSystem.factor_solve = timed(
        "SparseSystem.factor_solve", linsys.SparseSystem.factor_solve
    )
    for name in ("dgetrf", "dgbtrf", "splu"):
        setattr(linsys, name, timed(name, getattr(linsys, name)))
    solver._enforce_q_limits = timed("_enforce_q_limits", solver._enforce_q_limits)
    network = load_case(os.path.join(CASES, case)).network
    options = SolverOptions(homotopy=method)
    solve(network, options)  # set-up and plan
    for calls in times.values():
        calls.clear()
    solve_ns = []
    for _ in range(COST_SOLVES):
        start = time.perf_counter_ns()
        solve(network, options)
        solve_ns.append(time.perf_counter_ns() - start)
    total = sum(solve_ns)
    median = statistics.median(solve_ns)
    yield (f"{case} {method}: {COST_SOLVES} solves, median "
           f"{median / 1e6:.3f} ms, one BLAS thread")
    yield f"{'call':<28}{'us/call':>10}{'calls/solve':>13}{'us/solve':>10}{'share':>8}"
    for name, calls in times.items():
        if calls:
            yield (f"{name:<28}{statistics.median(calls) / 1e3:>10.1f}"
                   f"{len(calls) / COST_SOLVES:>13.1f}{sum(calls) / COST_SOLVES / 1e3:>10.1f}"
                   f"{sum(calls) / total:>8.1%}")
    yield f"{'once per network object':<28}{'us/call':>10}{'':>13}{'':>10}{'share':>8}"
    for name, fn in (("validate", validate), ("solve_setup", solver.solve_setup)):
        calls = []
        for _ in range(COST_SOLVES):
            fresh = copy.copy(network)  # starts without the set-up
            start = time.perf_counter_ns()
            fn(fresh)
            calls.append(time.perf_counter_ns() - start)
        cost = statistics.median(calls)
        yield f"{name:<28}{cost / 1e3:>10.1f}{'':>13}{'':>10}{cost / median:>8.1%}"


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def compare_states(before_path: str, after_path: str):
    """A line for each run converged in only one file, ``label max|dx|`` for
    each run converged in both, and the worst difference last."""
    with np.load(before_path) as before, np.load(after_path) as after:
        for label in sorted(set(before.files) - set(after.files)):
            yield f"{label} converged only in before"
        for label in sorted(set(after.files) - set(before.files)):
            yield f"{label} converged only in after"
        worst, worst_label = 0.0, "none"
        for label in sorted(set(before.files) & set(after.files)):
            dx = float(np.max(np.abs(after[label] - before[label]), initial=0.0))
            yield f"{label} {dx:.3g}"
            if dx > worst:
                worst, worst_label = dx, label
        yield f"worst {worst:.3g} {worst_label}"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--states", metavar="FILE.npz",
                        help="also save the state of every converged corpus run")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE.npz", "AFTER.npz"),
                        help="print the largest |dx| per run converged in both, and exit "
                             "(1 when a run converged in only one file)")
    parser.add_argument("--work", action="store_true",
                        help="print each line without its trailing hash")
    parser.add_argument("--repeat", metavar="N", type=int, default=1,
                        help="solve each loaded corpus network N times, and exit 1 "
                             "naming each line whose repeats differ")
    parser.add_argument("--jobs", metavar="WORKLOAD",
                        help="print one work line per benchmark job instead")
    parser.add_argument("--seeds", metavar="A-B", type=_seed_range, default=range(1, 2),
                        help="the seeds of --jobs, A to B inclusive (default 1)")
    parser.add_argument("--tiles", action="store_true",
                        help="print one line per solve of the case196 tiles instead")
    parser.add_argument("--plans", action="store_true",
                        help="print each corpus network's factorization plan instead")
    parser.add_argument("--call-costs", nargs=2, metavar=("CASE", "METHOD"),
                        help="print the cost of each per-pass call in live solves instead")
    args = parser.parse_args()
    if args.call_costs and any(os.environ.get(v) != "1" for v in SINGLE_THREAD):
        # the BLAS pools size themselves at import: run again with one thread
        env = dict(os.environ, **dict.fromkeys(SINGLE_THREAD, "1"))
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if args.call_costs:
        print("\n".join(call_cost_lines(*args.call_costs)))
    elif args.plans:
        print("\n".join(plan_lines()))
    elif args.jobs:
        for line in job_lines(args.jobs, args.seeds):
            print(line, flush=True)
    elif args.compare:
        lines = list(compare_states(*args.compare))
        print("\n".join(lines))
        sys.exit(1 if any(" converged only in " in line for line in lines) else 0)
    else:
        states = {} if args.states else None
        differs = []
        lines = (tile_lines(states) if args.tiles else
                 itertools.chain(corpus_lines(states, args.repeat, differs), cli_lines()))
        for line, digest in lines:
            print(line if args.work or digest is None else f"{line} {digest}", flush=True)
        if args.states:
            np.savez(args.states, **states)
        for line in differs:
            print(f"repeats differ: {line}", file=sys.stderr)
        sys.exit(1 if differs else 0)
