"""Which library functions the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<what>``. Each wrapped function is rebound at every
module that imported it by name, so no call path escapes the trace; the
counts self-check in ``workload.py`` catches a call site missed here.
"""

from __future__ import annotations

from collections import defaultdict

from steadygrid import analyses, homotopy, nr, solver
from steadygrid.linsys import SparseSystem

from .jobs import Api
from .spans import END, INFO, NAME, PARENT, SOLVE, START, Tracer, root_time, self_times


def _newton(args, out, _):
    return bool(out[1]), int(out[2])


def _triplets(args, out, _):
    return int(len(out[0]))


def _pattern_builds_before(args):
    return args[0].pattern_builds


def _pattern_builds(args, out, before):
    return args[0].pattern_builds - before


def _report(args, out, _):
    return out[0]


def install(tracer: Tracer) -> Api:
    """Wrap every layer entry point; returns the traced public calls."""
    for module in (solver, analyses):
        tracer.rebind(module, "validate", "network.validate")
        tracer.rebind(module, "IndexMap", "indexing.indexmap")
    tracer.rebind(solver, "run_homotopy", "homotopy.run")
    tracer.rebind(solver, "run_newton", "nr.run_newton", _newton)
    tracer.rebind(homotopy, "run_newton", "nr.run_newton", _newton)
    tracer.rebind(homotopy, "tx_transform", "homotopy.transform")
    tracer.rebind(homotopy, "power_transform", "homotopy.transform")
    tracer.rebind(nr, "assemble_system", "stamps.assemble", _triplets)
    for limiter in ("apply_voltage_limiting", "apply_q_limiting", "update_zeta"):
        tracer.rebind(nr, limiter, "nr.limiting")
    tracer.rebind(solver, "check_convergence", "solver.check")
    tracer.rebind(analyses, "solve", "solver.solve", _report)
    tracer.rebind(analyses, "validate_solution", "solver.validate_solution")
    tracer.rebind(SparseSystem, "assemble", "linsys.assemble", _pattern_builds, _pattern_builds_before)
    tracer.rebind(SparseSystem, "factor_solve", "linsys.factor_solve")
    plain = Api()
    return Api(
        solve=tracer.wrap("solver.solve", plain.solve, _report),
        run_contingencies=tracer.wrap("analyses.run_contingencies", plain.run_contingencies),
        validate_solution=tracer.wrap("solver.validate_solution", plain.validate_solution),
    )


def summarize(spans, n_solves: int, n_outages: int):
    """Per-layer metrics (per solve unless stated) and the self-time account.

    Returns ``(metrics, self_ns_by_name, checks)``; ``checks`` holds sums the
    caller compares with the solve reports.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(int)
    own = defaultdict(int)
    for s, self_ns in zip(spans, selfs):
        calls[s[NAME]] += 1
        total[s[NAME]] += s[END] - s[START]
        own[s[NAME]] += self_ns

    triplets = [s[INFO] for s in spans if s[NAME] == "stamps.assemble" and isinstance(s[INFO], int)]
    builds = sum(s[INFO] for s in spans if s[NAME] == "linsys.assemble" and isinstance(s[INFO], int))
    singular = sum(
        1 for s in spans if s[NAME] == "linsys.factor_solve" and s[INFO] == ("raised", "SingularityError")
    )
    # (ok, iterations) per Newton call, or ("raised", exception name)
    newton = [(spans[s[PARENT]][NAME] if s[PARENT] >= 0 else "", s[INFO])
              for s in spans if s[NAME] == "nr.run_newton"]
    returned = [info for _, info in newton if info[0] != "raised"]
    iters = sum(it for _, it in returned)
    useful = sum(it for ok, it in returned if ok)
    steps = [info for parent, info in newton if parent == "homotopy.run"]
    accepted = sum(1 for info in steps if info[0] is True)
    rejected = len(steps) - accepted
    reports = [s[INFO] for s in spans if s[NAME] == "solver.solve" and not isinstance(s[INFO], tuple)]
    limited = sum(row.limited for r in reports for row in r.nr_trace)
    passes = sum(r.outer_passes for r in reports)

    outage_ns = 0
    for k, s in enumerate(spans):
        if s[NAME] == "analyses.run_contingencies":
            inner = sum(c[END] - c[START] for c in spans if c[PARENT] == k and c[NAME] == "solver.solve")
            outage_ns += s[END] - s[START] - inner

    n = max(n_solves, 1)

    def ms(ns):
        return ns / 1e6 / n

    metrics = {
        "network.validate_ms": (ms(total["network.validate"]), "ms"),
        "network.validate_calls": (calls["network.validate"] / n, "count"),
        "indexing.indexmap_ms": (ms(total["indexing.indexmap"]), "ms"),
        "indexing.indexmap_calls": (calls["indexing.indexmap"] / n, "count"),
        "stamps.assemble_ms": (ms(own["stamps.assemble"]), "ms"),
        "stamps.assemble_calls": (calls["stamps.assemble"] / n, "count"),
        "stamps.triplets": (sum(triplets) / max(len(triplets), 1), "count"),
        "linsys.assemble_ms": (ms(total["linsys.assemble"]), "ms"),
        "linsys.factor_solve_ms": (ms(total["linsys.factor_solve"]), "ms"),
        "linsys.factor_calls": (calls["linsys.factor_solve"] / n, "count"),
        "linsys.pattern_builds": (builds / n, "count"),
        "linsys.singular": (singular / n, "count"),
        "nr.newton_calls": (calls["nr.run_newton"] / n, "count"),
        "nr.iterations": (iters / n, "count"),
        "nr.self_ms": (ms(own["nr.run_newton"]), "ms"),
        "nr.limiting_ms": (ms(total["nr.limiting"]), "ms"),
        "nr.limited_vars": (limited / n, "count"),
        "nr.useful_iter_frac": (useful / iters if iters else 1.0, "ratio"),
        "homotopy.steps_accepted": (accepted / n, "count"),
        "homotopy.steps_rejected": (rejected / n, "count"),
        "homotopy.accept_frac": (accepted / len(steps) if steps else 1.0, "ratio"),
        "homotopy.transform_ms": (ms(total["homotopy.transform"]), "ms"),
        "homotopy.self_ms": (ms(own["homotopy.run"]), "ms"),
        "solver.outer_passes": (passes / n, "count"),
        "solver.self_ms": (ms(own["solver.solve"]), "ms"),
        "solver.check_ms": (ms(total["solver.check"]), "ms"),
        "solver.validate_solution_ms": (ms(total["solver.validate_solution"]), "ms"),
        "analyses.outage_overhead_ms": (outage_ns / 1e6 / max(n_outages, 1), "ms"),
    }
    checks = {
        "newton_iterations": iters,
        "newton_raised": len(newton) - len(returned),
        "steps_accepted": accepted,
        "steps_rejected": rejected,
        "outer_passes": passes,
        "pattern_builds": builds,
        "solves": len(reports),
        "solve_ids": len({s[SOLVE] for s in spans}),
        "root_ns": root_time(spans),
    }
    return metrics, dict(own), checks

