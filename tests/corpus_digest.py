"""Print a digest of every corpus solve, of the solves of the networks that
declare controls, and of six CLI commands.

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

``--repeat N`` solves each corpus network object and each control network
N times in one process and prints the usual lines once. It exits 1, naming
each line whose repeats differ, so it shows whether a solve depends on an
earlier solve of the same object (the set-up a network keeps between
solves):

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

``--outages`` prints, instead of the corpus, one line per valid single
branch or transformer outage of ``OUTAGE_CASES``: each solved under ``tx``
at tol 1e-8 and warm-started from its base network's solution, as
``run_contingencies`` does. A line holds the status, the work counts and
the hash; with ``--states`` it saves the states for ``--compare``. It covers
every such outage, where the benchmark's ``n1_warm`` samples a few:

    PYTHONPATH=src python3 tests/corpus_digest.py --outages --states after.npz > after.txt

``--plans`` prints, instead, one line per corpus network: its unknowns and
the factorization plan its pattern chose in a flat-start solve (``dense``,
``band KL KU`` or ``SuperLU``), so a plain ``diff`` of two trees shows every
network whose path changed:

    PYTHONPATH=src python3 tests/corpus_digest.py --plans > after.txt

``--call-costs CASE METHOD`` prints, instead, what the calls made on every
Newton pass cost inside live solves of one corpus case (say
``hard_corridor.net power``): the median µs per call, the calls per solve,
the mean µs per solve and the share of solve time of ``Companion.bind``
(split into ``full`` binds, and binds that took the lane part or the
linear part from the previous bound: ``lanes reused``, ``linear reused``),
``assemble_system``, ``SparseSystem.residual``, ``SparseSystem.factor_solve``
and the factorization call within it (``dgetrf``, ``dgbtrf`` or
``splu``), and of the outer loop's Q-limit enforcement
(``_enforce_q_limits``, once per pass of a network with regulating
machines). Then it prints what a network object costs once, on its
first solve, each timed on ``COST_SOLVES`` fresh copies of the network:
``validate`` and ``solver.solve_setup`` (which validates, then
builds the index map, the companion layout and the base parameters), with
their share of the median solve. Small numpy calls cost far more in a
standalone loop than inside a solve, so two trees are compared by running
this on each, alternately; it runs with every BLAS pool at one thread:

    PYTHONPATH=src python3 tests/corpus_digest.py --call-costs hard_corridor.net power

``--summary`` prints, instead, one Markdown table over the corpus solve
lines (every line but the CLI ones): for each method, the count of each
status and the Newton iterations summed over its lines, then the same over
all methods. It is the status table a change that moves statuses or counts
reports before and after:

    PYTHONPATH=src python3 tests/corpus_digest.py --summary

``--cases`` prints, instead, one line per file in ``cases/`` and one per
``random_network`` seed 0-13 in each domain, written by ``casewriter`` and
parsed again, each with a hash of the parsed network: its domain, base and
name, and every field of every device (an array by its dtype, shape and
bytes). Two trees that print the same lines parse every case to the same
network:

    PYTHONPATH=src python3 tests/corpus_digest.py --cases > after.txt

``--issues`` prints, instead, one line per damaged network: its label, the
issues ``validate`` reports for it (``ok`` for none) and a hash of the
network, so a plain ``diff`` of two trees shows every issue list that
changed. The networks are the two ``_broken_networks`` of
``test_network``, an empty network in each domain, and copies of each
corpus case in which one field of one of the first two devices of a family
(buses included) is damaged: an array resized to ``nphase + 1`` or to 0
entries along each axis, or filled with NaN, inf or zeros; a bus field set
to a bus the case lacks; a float field set to NaN, inf, -1 or 0; a bool
flipped:

    PYTHONPATH=src python3 tests/corpus_digest.py --issues > after.txt

``--oracle`` prints, instead, one line per corpus case: its domain, then
the dense oracle (``dense_reference_solve``) from flat at tol 1e-12, with
the Q pins that the case's ``tx`` solve at tol 1e-8 replays: ``refused``
when it raises ``ValueError``, else its status, its iterations and its
largest |dV| (pu) against that solve, or ``-`` where the solve fails. It
reads only the public API, so the same script shows how two trees' oracles
differ:

    PYTHONPATH=src python3 tests/corpus_digest.py --oracle > after.txt

``--code-lines`` prints, instead, the code lines of each module of the
imported ``steadygrid`` (no blank lines, comments or docstrings), then
their total, the measure of a change's size in code:

    PYTHONPATH=src python3 tests/corpus_digest.py --code-lines

pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import copy
import dataclasses
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
import tokenize
from dataclasses import astuple, fields, replace

import numpy as np

from steadygrid import linsys, nr, solver, stamps
from steadygrid.analyses import Outage, apply_outage
from steadygrid.caseio import load_case, parse_case, write_table
from steadygrid.cli import main
from steadygrid.homotopy import LAMBDA_TRACE_FIELDS
from steadygrid.network import Network, PhaseDomain, phase_array, validate
from steadygrid.nr import NrOptions, NrTraceRow
from steadygrid.solver import InitSpec, SolverOptions, solve, transfer_state

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASES = os.path.join(ROOT, "cases")

FAMILIES = ("buses", "generators", "zip_loads", "big_loads", "branches", "transformers",
            "shunts")
BUS_FIELDS = ("bus", "from_bus", "to_bus", "remote_bus", "controlled_bus")
OUTAGE_CASES = ("case14.net", "case30_mesh.net", "case56_mesh.net", "case196_mesh.net",
                "feeder8.json")
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
        write_table([f.name for f in fields(NrTraceRow)], map(astuple, report.nr_trace)).encode(),
        write_table(LAMBDA_TRACE_FIELDS, report.lambda_trace).encode(),
    )
    tail = (f"{report.status} {report.inner_iterations} {report.homotopy_steps} "
            f"{report.outer_passes}")
    return tail, digest, state.x if report.status == "converged" else None


def summary_lines(lines):
    """The ``--summary`` table of the ``(line, hash)`` pairs of
    :func:`corpus_lines`: per method, then over all, the count of each
    status (``raised`` for a raised run) and the Newton iterations."""
    statuses = (solver.CONVERGED, solver.DIVERGED, solver.INFEASIBLE, "raised")
    rows = {method: dict.fromkeys(statuses + ("iterations",), 0)
            for method in ("none", "tx", "power", "all")}
    for line, _ in lines:
        words = line.split()  # label (case, method, ...) then the work tail
        if words[-2] == "raised":
            status, iterations = "raised", 0
        else:
            status, iterations = words[-4], int(words[-3])
        for method in (words[1], "all"):
            rows[method][status] += 1
            rows[method]["iterations"] += iterations
    yield "| method | " + " | ".join(statuses) + " | Newton iterations |"
    yield "|---" * (len(statuses) + 2) + "|"
    for method, row in rows.items():
        yield f"| {method} | " + " | ".join(str(n) for n in row.values()) + " |"


def control_networks():
    """``(name, network)`` for each network whose case declares controls:
    the tap and the shunt bank of ``conftest``, each also with a step so
    large that its second move reverses its first and freezes it, and a
    three-phase network with both."""
    from conftest import net_switched_shunt, net_tap, random_network, with_outer_devices

    tap, bank = net_tap(), net_switched_shunt()
    big_step = replace(tap.transformers[0], tap_step=0.1, tap_min=0.5, tap_max=1.5)
    big_block = replace(bank.shunts[0], block_b=phase_array(0.8, 1))
    yield "net_tap", tap
    yield "net_tap_freeze", tap.with_devices(transformers=(big_step,))
    yield "net_switched_shunt", bank
    yield "net_switched_shunt_freeze", bank.with_devices(shunts=(big_block,))
    yield "outer_devices_3p", with_outer_devices(random_network(0, PhaseDomain.THREE_PHASE), 3, 4)


def corpus_lines(states=None, repeat=1, differs=None):
    """One ``(line, hash)`` per corpus run, then per run of each control
    network under each method (a raised run has no hash); the state of each
    converged run goes into ``states`` (a dict keyed by the run's label)
    when one is given. Each network is solved ``repeat`` times; the line of
    a run whose repeats differ goes into ``differs``."""
    grid = itertools.product(
        sorted(os.listdir(CASES)), ("none", "tx", "power"), (1e-6, 1e-8), (math.inf, 0.05),
    )
    runs = itertools.chain(
        ((f"{case} {method} tol={tol:g} di_max={di_max:g}",
          load_case(os.path.join(CASES, case)).network,
          SolverOptions(homotopy=method, nr=NrOptions(tol=tol, di_max=di_max)))
         for case, method, tol, di_max in grid),
        ((f"{name} {method}", network, SolverOptions(homotopy=method))
         for name, network in control_networks() for method in ("none", "tx", "power")),
    )
    for label, network, options in runs:
        results = [_run(network, options) for _ in range(repeat)]
        tail, digest, x = results[0]
        if differs is not None and any(run[:2] != (tail, digest) for run in results[1:]):
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


def outage_lines(states=None):
    """One ``(line, hash)`` per valid single series outage of
    ``OUTAGE_CASES``; the state of each converged solve goes into
    ``states`` when one is given."""
    options = SolverOptions(homotopy="tx", nr=NrOptions(tol=1e-8))
    for case in OUTAGE_CASES:
        network = load_case(os.path.join(CASES, case)).network
        _, base = solve(network, options)
        outages = [Outage(f"branch{b.id}", branch_ids=(b.id,)) for b in network.branches]
        outages += [Outage(f"xfmr{t.id}", transformer_ids=(t.id,)) for t in network.transformers]
        for outage in outages:
            post = apply_outage(network, outage)
            if validate(post):
                continue
            warm = transfer_state(base, post, solver.solve_setup(post)[0])
            label = f"{case} outage {outage.label}"
            tail, digest, x = _run(post, replace(options, init=InitSpec(kind="warm", state=warm)))
            if states is not None and x is not None:
                states[label] = x
            yield f"{label} {tail}", digest


def network_digest(network) -> str:
    """A hash of the domain, base and name of ``network`` and of every field
    of every device it holds."""
    parts = [repr((network.domain, network.base_mva, network.name)).encode()]
    for family in FAMILIES:
        for device in getattr(network, family):
            for f in dataclasses.fields(device):
                value = getattr(device, f.name)
                if isinstance(value, np.ndarray):
                    parts += [f"{value.dtype} {value.shape}".encode(), value.tobytes()]
                else:
                    parts.append(repr(value).encode())
    return _digest(*parts)


def case_lines():
    """``(line, hash)`` per corpus file, then per ``random_network`` seed
    0-13 in each domain, written and parsed again."""
    from casewriter import write_case
    from conftest import random_network

    for case in sorted(os.listdir(CASES)):
        yield case, network_digest(load_case(os.path.join(CASES, case)).network)
    for domain in PhaseDomain:
        for seed in range(14):
            network = parse_case(write_case(random_network(seed, domain)))
            yield f"random_network {seed} {domain.name}", network_digest(network)


def damaged_copies(device, nphase: int, missing_bus: int):
    """``(label, copy)`` per damaged copy of ``device``, one field damaged
    in each, as ``--issues`` lists them."""
    for f in fields(device):
        value = getattr(device, f.name)
        if isinstance(value, np.ndarray):
            changes = [(f" size={n}", np.resize(value, (n,) * value.ndim)) for n in (nphase + 1, 0)]
            changes += [(f"={fill:g}", np.full_like(value, fill)) for fill in (math.nan, math.inf, 0)]
        elif f.name in BUS_FIELDS:
            changes = [("=missing", missing_bus)]
        elif isinstance(value, bool):
            changes = [(f"={not value}", not value)]
        elif isinstance(value, float):
            changes = [(f"={v:g}", v) for v in (math.nan, math.inf, -1.0, 0.0)]
        else:
            continue
        for label, new in changes:
            yield f"{f.name}{label}", replace(device, **{f.name: new})


def issue_lines():
    """``(line, hash)`` per damaged network of ``--issues``."""
    from test_network import _broken_networks

    networks = [(f"broken {net.domain.name}", net) for net in _broken_networks()]
    networks += [(f"empty {domain.name}", Network(domain, 100.0, ())) for domain in PhaseDomain]
    for case in sorted(os.listdir(CASES)):
        network = load_case(os.path.join(CASES, case)).network
        missing = max(network.bus_index) + 1
        for family in FAMILIES:
            devices = getattr(network, family)
            for k, device in enumerate(devices[:2]):
                for label, copy_ in damaged_copies(device, network.nphase, missing):
                    changed = devices[:k] + (copy_,) + devices[k + 1:]
                    networks.append((f"{case} {family}[{k}] {label}",
                                     network.with_devices(**{family: changed})))
    for label, network in networks:
        try:
            issues = "; ".join(map(str, validate(network))) or "ok"
        except Exception as exc:  # a raised check is part of the behaviour
            issues = f"raised {type(exc).__name__}"
        yield f"{label}: {issues}", network_digest(network)


def oracle_lines():
    """One ``case domain result`` line per corpus case (see ``--oracle``)."""
    import steadygrid as sg
    from conftest import q_pins

    for case in sorted(os.listdir(CASES)):
        network = sg.load_case(os.path.join(CASES, case)).network
        report, state = sg.solve(network, sg.SolverOptions(homotopy="tx", nr=sg.NrOptions(tol=1e-8)))
        label = f"{case} {network.domain.value}"
        try:
            ref = sg.dense_reference_solve(network, q_pins=q_pins(report.switch_events), tol=1e-12)
        except ValueError:
            yield f"{label} refused"
            continue
        dv = "-"
        if report.status == "converged":
            # older trees return positive-sequence voltages per bus alone
            shape = (network.nphase, network.nbus)
            v_ref = np.reshape(ref.vm, shape) * np.exp(1j * np.reshape(ref.va, shape))
            dv = f"{np.max(np.abs(v_ref - state.v_complex())):.2e}"
        status = "converged" if ref.converged else "diverged"
        yield f"{label} {status} {ref.iterations} {dv}"


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code: no blank lines, comments or
    docstrings (a string statement that opens a module, class or function)."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def code_line_lines():
    """``module lines`` for each module of the imported ``steadygrid``, then
    ``total lines``."""
    package = os.path.dirname(solver.__file__)
    total = 0
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            n = code_lines(fh.read())
        total += n
        yield f"{name} {n}"
    yield f"total {total}"


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

    # a bind by what it took from the previous bound: nothing, or one part
    for kind in ("full", "lanes reused", "linear reused"):
        times[f"Companion.bind {kind}"] = []

    @functools.wraps(stamps.Companion.bind)
    def timed_bind(self, params, previous=None, _bind=stamps.Companion.bind):
        start = time.perf_counter_ns()
        bound = _bind(self, params, previous)
        elapsed = time.perf_counter_ns() - start
        if previous is not None and bound.lane_cs is previous.lane_cs:
            kind = "lanes reused"
        elif previous is not None and bound.linear_data is previous.linear_data:
            kind = "linear reused"
        else:
            kind = "full"
        times[f"Companion.bind {kind}"].append(elapsed)
        return bound

    stamps.Companion.bind = timed_bind
    nr.assemble_system = timed("assemble_system", nr.assemble_system)
    linsys.SparseSystem.residual = timed("SparseSystem.residual", linsys.SparseSystem.residual)
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
    parser.add_argument("--outages", action="store_true",
                        help="print one line per valid single series outage instead")
    parser.add_argument("--plans", action="store_true",
                        help="print each corpus network's factorization plan instead")
    parser.add_argument("--summary", action="store_true",
                        help="print the status counts and Newton iterations of the corpus "
                             "solve lines per method instead")
    parser.add_argument("--cases", action="store_true",
                        help="print a hash of each parsed corpus case and round-tripped "
                             "random network instead")
    parser.add_argument("--issues", action="store_true",
                        help="print the validate issues of each damaged network instead")
    parser.add_argument("--oracle", action="store_true",
                        help="print the dense oracle's result on each corpus case instead")
    parser.add_argument("--code-lines", action="store_true",
                        help="print the code lines of each steadygrid module instead")
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
    elif args.code_lines:
        print("\n".join(code_line_lines()))
    elif args.oracle:
        print("\n".join(oracle_lines()))
    elif args.summary:
        print("\n".join(summary_lines(corpus_lines())))
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
        if args.tiles:
            lines = tile_lines(states)
        elif args.outages:
            lines = outage_lines(states)
        elif args.cases:
            lines = case_lines()
        elif args.issues:
            lines = issue_lines()
        else:
            lines = itertools.chain(corpus_lines(states, args.repeat, differs), cli_lines())
        for line, digest in lines:
            print(line if args.work or digest is None else f"{line} {digest}", flush=True)
        if args.states:
            np.savez(args.states, **states)
        for line in differs:
            print(f"repeats differ: {line}", file=sys.stderr)
        sys.exit(1 if differs else 0)
