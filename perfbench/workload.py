"""One workload in its own process: warm up, run jobs, check every output.

Run as ``python3 -m perfbench.workload --workload W --seed N --seconds S --trace 0|1``
from the repository root with ``src`` on ``PYTHONPATH``; ``run.py`` does this.
Human-readable lines go to stdout; the last line is a JSON object for run.py.

Load is a closed loop: one client calls the next job only after the previous
one returned. ``--trace 0`` times jobs until ``--seconds`` have passed (at
least one whole pass over the job list), timing the speed reference kernel
between jobs, and reports times scaled to the reference speed. ``--trace 1``
runs every job untraced and then traced, pass after pass, until
``--seconds`` have passed, so the tracing overhead is measured against the
same work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
from collections import Counter
from dataclasses import replace
from time import perf_counter

WARMUP_JOBS = 3  # lazy imports inside scipy and first-call costs (the kernel's too), paid before timing
SPEEDREF_EVERY_S = 0.05  # least time between two runs of the speed reference kernel
ORACLE_TOL_PU = 1e-8


def parse_args(argv=None):
    from .catalog import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_jobs(jobs, api, n_min, deadline=None):
    """Run ``jobs`` cyclically, at least ``n_min`` of them and then until
    ``deadline``, with the speed reference kernel after the first job, then
    between jobs at most every ``SPEEDREF_EVERY_S``, and after the last job.
    Returns ``([(job index, seconds, Outcome)], [(records before the kernel
    run, its seconds)], wall seconds of the jobs alone)``."""
    from .jobs import run_job
    from .speedref import time_kernel

    records, ref = [], []
    wall = 0.0
    last_ref = float("-inf")
    k = 0
    while k < n_min or (deadline is not None and perf_counter() < deadline):
        i = k % len(jobs)
        t0 = perf_counter()
        out = run_job(jobs[i], api)
        now = perf_counter()
        records.append((i, now - t0, out))
        wall += now - t0
        if now - last_ref >= SPEEDREF_EVERY_S:
            ref.append((len(records), time_kernel()))
            last_ref = perf_counter()
        k += 1
    if ref[-1][0] < len(records):
        ref.append((len(records), time_kernel()))
    return records, ref, wall


def run_paired(jobs, tracer, seconds):
    """Whole passes in which every job runs untraced and then traced, until
    ``seconds`` have passed (at least one pass).

    Pairing each job with its traced twin keeps slow drift of the machine out
    of the overhead estimate. Each traced solve gets its own span id, and its
    converged state is checked with ``validate_solution`` inside the traced
    segment, outside the job's own time. Returns ``(untraced records, traced
    records, traced wall seconds)``.
    """
    from .jobs import Api, run_job
    from .layers import install

    plain = Api()
    untraced, traced, wall = [], [], 0.0
    start = perf_counter()
    while True:
        for i, job in enumerate(jobs):
            t0 = perf_counter()
            out = run_job(job, plain)
            untraced.append((i, perf_counter() - t0, out))
            api = install(tracer)
            try:
                tracer.solve_id += 1
                t0 = perf_counter()
                out = run_job(job, api)
                t1 = perf_counter()
                if out.state is not None and out.status == "converged":
                    api.validate_solution(job.network, out.state)
                wall += perf_counter() - t0
            finally:
                tracer.restore()
            traced.append((i, t1 - t0, out))
        if perf_counter() - start >= seconds:
            return untraced, traced, wall


# ---------------------------------------------------------------------------
# Correctness gate (outside every timed region)


def q_pins(events) -> dict:
    """Generator id -> pinned Q after replaying the outer loop's pin events."""
    pins = {}
    for e in events or ():
        if not e["device"].startswith("gen "):
            continue
        gid = int(e["device"][4:])
        if e["action"] in ("pin_qmax", "pin_qmin"):
            pins[gid] = e["value"]
        elif e["action"] == "release":
            pins.pop(gid, None)
    return pins


def oracle_gap(network, state, events):
    """Largest |V| difference in pu against the dense polar oracle, or None
    when the oracle does not support the case."""
    import numpy as np
    import steadygrid as sg

    try:
        ref = sg.dense_reference_solve(network, q_pins=q_pins(events), tol=1e-12)
    except ValueError:
        return None
    if not ref.converged:
        return float("inf")
    v_ref = ref.vm * np.exp(1j * ref.va)
    return float(np.max(np.abs(v_ref - state.v_complex()[0])))


def gate(jobs, records):
    """Check every output. Returns ``(verified flags, failed flags, problems, notes)``.

    A record fails when its job raised, when its work counts differ from the
    first run of the same job, or when it reports ``converged`` but misses
    ``validate_solution`` at 10x its Newton tolerance. Problems found once per
    run (oracle disagreement, a re-solved outage that differs) fail the run.
    """
    import steadygrid as sg

    first = {}
    verified, bad, problems, notes = [], [], [], []
    worst = 0.0
    for i, _, out in records:
        job = jobs[i]
        fails = True
        if out.error is not None:
            problems.append(f"{job.label}: raised {out.error}")
        elif first.setdefault(i, out.counts) != out.counts:
            problems.append(f"{job.label}: work counts {out.counts} differ from {first[i]}")
        elif out.status != "converged":
            fails = False
        else:
            limit = 10 * job.options.nr.tol
            mis = out.mismatch if job.outage is not None else sg.validate_solution(job.network, out.state).max
            worst = max(worst, mis / limit)
            fails = not mis <= limit
            if fails:
                problems.append(f"{job.label}: reports converged but validate_solution gives {mis:.3g} > {limit:.3g}")
        bad.append(fails)
        verified.append(not fails and out.status == "converged")
    notes.append(f"validate_solution: {sum(verified)} converged solves pass, worst mismatch {worst:.2g} of its limit")

    checked = set()
    for i, _, out in records:
        job = jobs[i]
        if job.case in checked or job.outage is not None or job.method == "none" or out.status != "converged":
            continue
        if job.network.domain != sg.PhaseDomain.POSITIVE_SEQUENCE:
            continue
        checked.add(job.case)
        gap = oracle_gap(job.network, out.state, out.events)
        if gap is None:
            notes.append(f"oracle: {job.case} not supported, skipped")
        elif not gap <= ORACLE_TOL_PU:
            problems.append(f"oracle: {job.case} disagrees by {gap:.3g} pu")
        else:
            notes.append(f"oracle: {job.case} ({job.label}) agrees to {gap:.2g} pu")
    if jobs[0].outage is not None:
        problems += check_outages(jobs, first, notes)
    return verified, bad, problems, notes


def check_outages(jobs, first, notes):
    """Re-solve each outage the way run_contingencies does, keeping the state:
    same work counts, validate_solution at 10x tol and oracle agreement."""
    import steadygrid as sg
    from steadygrid.analyses import apply_outage
    from steadygrid.solver import transfer_state

    problems = []
    base = jobs[0]
    gap = oracle_gap(base.network, base.base_state, base.base_events)
    if gap is None or not gap <= ORACLE_TOL_PU:
        problems.append(f"oracle: base {base.case} disagrees by {gap}")
    worst = 0.0
    for i, job in enumerate(jobs):
        post = apply_outage(job.network, job.outage)
        warm = transfer_state(job.base_state, post, sg.IndexMap(post))
        report, state = sg.solve(post, replace(job.options, init=sg.InitSpec(kind="warm", state=warm)))
        counts = (report.status, report.inner_iterations, report.homotopy_steps, None)
        if i in first and counts != first[i]:
            problems.append(f"{job.label}: re-solve counts {counts} differ from {first[i]}")
        if report.status != "converged":
            continue
        mis = sg.validate_solution(post, state).max
        if not mis <= 10 * job.options.nr.tol:
            problems.append(f"{job.label}: re-solve misses validate_solution ({mis:.3g})")
        gap = oracle_gap(post, state, report.switch_events)
        if gap is None or not gap <= ORACLE_TOL_PU:
            problems.append(f"oracle: {job.label} disagrees by {gap}")
        else:
            worst = max(worst, gap)
    notes.append(f"oracle: base case and {len(jobs)} re-solved outages agree to {worst:.2g} pu")
    return problems


# ---------------------------------------------------------------------------
# Reporting


def pass_counts(jobs, records):
    """Work counts of the first pass over the job list, and their digest."""
    first = {}
    for i, _, out in records:
        first.setdefault(i, out.counts)
    counts = [first[i] for i in range(len(jobs))]
    tally = Counter(c[0] for c in counts)
    line = (
        " ".join(f"{k}={v}" for k, v in sorted(tally.items()))
        + f" newton_iterations={sum(c[1] for c in counts)}"
        + f" accepted_steps={sum(c[2] for c in counts)}"
    )
    if all(c[3] is not None for c in counts):
        line += f" outer_passes={sum(c[3] for c in counts)}"
    digest = hashlib.sha1(repr(counts).encode()).hexdigest()[:12]
    return f"{line} digest={digest}"


def timed_metrics(records, ref, wall, verified, rss_mb):
    """End-to-end metrics of the timed loop, each solve time scaled to the
    reference speed by the kernel run after it (``speedref.local_scales``).
    The measured values are printed beside."""
    from .speedref import local_scales
    from .stats import median, pass_rate, tail_percentile

    def summary(times):
        durations = {}
        for (i, _, _), dt in zip(records, times):
            durations.setdefault(i, []).append(dt)
        ms = [dt * 1e3 for dt in times]
        return median(ms), tail_percentile(ms), pass_rate(durations)

    measured = [dt for _, dt, _ in records]
    n = len(measured)
    p50, (tail, pct, _), rate = summary([dt * f for dt, f in zip(measured, local_scales(n, ref))])
    m_p50, (m_tail, _, _), m_rate = summary(measured)
    metrics = {
        "solve_ms_p50": (p50, "ms", f"n={n}; measured {m_p50:.2f} ms"),
        "solve_ms_tail": (tail, "ms",
                          f"p{pct:.1f}, n={n}, {n - round(pct * n / 100)} beyond; measured {m_tail:.2f} ms"),
        "solves_per_s": (rate, "1/s",
                         f"jobs at their median time; measured {m_rate:.3f}/s, "
                         f"plain rate {n} solves / {wall:.2f} s"),
        "converged_frac": (sum(verified) / n, "ratio", f"{sum(verified)}/{n}"),
        "peak_rss_mb": (rss_mb, "MB", "workload process"),
    }
    return metrics


def traced(jobs, seconds, out_lines):
    """Paired untraced and traced passes; returns (metrics, records, problems)."""
    from .layers import summarize
    from .spans import Tracer

    tracer = Tracer()
    a_recs, b_recs, b_wall = run_paired(jobs, tracer, seconds)
    n = len(b_recs)
    n1 = jobs[0].outage is not None
    metrics, own, checks = summarize(tracer.spans, n, n if n1 else 0)
    a_ms = sum(dt for _, dt, _ in a_recs) * 1e3 / len(a_recs)
    b_ms = sum(dt for _, dt, _ in b_recs) * 1e3 / n
    unattributed_ms = (b_wall * 1e9 - checks["root_ns"]) / 1e6 / n
    metrics["trace.overhead_ms"] = (b_ms - a_ms, "ms")
    metrics["trace.unattributed_ms"] = (unattributed_ms, "ms")

    problems = []
    expect = {
        "newton_iterations": sum(o.counts[1] for _, _, o in b_recs),
        "steps_accepted": sum(o.counts[2] for _, _, o in b_recs),
        "solves": n,
        "solve_ids": n,  # every span carries the id of the solve it belongs to
    }
    if not n1:
        expect["outer_passes"] = sum(o.counts[3] for _, _, o in b_recs)
    for key, want in expect.items():
        if checks[key] != want:
            problems.append(f"trace self-check: {key} traced {checks[key]} != reported {want}")

    passes = len(b_recs) // len(jobs)
    out_lines.append(
        f"trace: {passes} passes of {len(jobs)} jobs, each job untraced then traced; "
        f"overhead {b_ms - a_ms:.3f} ms per solve ({100 * (b_ms - a_ms) / a_ms:.1f}% of {a_ms:.2f} ms)"
    )
    out_lines.append(
        f"traced counts per pass: newton_iterations={checks['newton_iterations'] // passes} "
        f"accepted_steps={checks['steps_accepted'] // passes} rejected_steps={checks['steps_rejected'] // passes} "
        f"outer_passes={checks['outer_passes'] // passes} pattern_builds={checks['pattern_builds'] // passes} "
        f"newton_raised={checks['newton_raised'] // passes}"
    )
    out_lines.append(f"self time per solve over {b_wall:.2f} s traced wall ({n} solves):")
    wall_ms = b_wall * 1e3 / n
    for name, ns in sorted(own.items(), key=lambda kv: -kv[1]):
        out_lines.append(f"  {name:28s} {ns / 1e6 / n:10.3f} ms  {100 * ns / 1e9 / b_wall:5.1f}%")
    out_lines.append(f"  {'(unattributed)':28s} {unattributed_ms:10.3f} ms  {100 * unattributed_ms / wall_ms:5.1f}%")
    accounted = sum(own.values()) / 1e6 / n + unattributed_ms
    out_lines.append(f"  {'= traced wall':28s} {accounted:10.3f} ms  (measured {wall_ms:.3f} ms)")
    return metrics, a_recs + b_recs, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    t0 = perf_counter()
    import numpy
    import scipy
    import steadygrid as sg

    import_s = perf_counter() - t0
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(sg.__file__).startswith(src + os.sep):
        print(f"steadygrid imported from {sg.__file__}, not from {src}", file=sys.stderr)
        return 2

    from . import jobs as J
    from .speedref import REF_MS
    from .stats import median

    networks = J.load_networks(args.workload, os.path.join(root, "cases"))
    jobs = J.build_jobs(args.workload, args.seed, networks)
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}",
        f"env nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__} "
        f"OMP_NUM_THREADS={os.environ.get('OMP_NUM_THREADS')} "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}",
        f"import steadygrid {import_s:.3f} s in the workload process; {len(jobs)} jobs per pass",
    ]
    warm, _, _ = run_jobs(jobs, J.Api(), min(WARMUP_JOBS, len(jobs)))

    if args.trace:
        metrics, records, problems = traced(jobs, args.seconds, lines)
    else:
        records, ref, wall = run_jobs(jobs, J.Api(), len(jobs), deadline=perf_counter() + args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = []
        lines.append(
            f"speed reference: kernel median {1e3 * median(s for _, s in ref):.3f} ms over {len(ref)} runs, "
            f"{REF_MS:g} ms at the reference speed; times below are scaled to it"
        )
    verified, bad, gate_problems, notes = gate(jobs, warm + records)
    verified, failed = verified[len(warm):], sum(bad[len(warm):])
    problems += gate_problems
    if not args.trace:
        metrics = timed_metrics(records, ref, wall, verified, rss_mb)
    lines.append("counts per pass: " + pass_counts(jobs, records))
    lines += [f"gate: {n}" for n in notes]
    lines += [f"FAIL: {p}" for p in problems]
    for name, (value, unit, *note) in metrics.items():
        lines.append(f"{name:30s} {value:12.4f} {unit:6s} {note[0] if note else ''}".rstrip())
    print("\n".join(lines))
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
