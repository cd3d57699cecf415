"""The four workloads: inputs made from a seed, the job list, and running one job.

A workload is a fixed list of jobs. The timed loop cycles through it, so every
job after the first pass repeats one whose work counts are already known.

* ``tx196``: case196_mesh under Tx stepping; Python stamping dominates.
* ``n1_warm``: N-1 screening of case56_mesh under Tx stepping, one outage per
  ``run_contingencies`` call; per-outage overhead and warm starts show here.
* ``hard_ic``: hard_corridor from seeded initial conditions, plain Newton then
  power stepping per sample; small system, many LU calls, half the plain
  solves exhaust their budget.
* ``feeder3p``: the unbalanced three-phase feeder8 cycling none/tx/power; the
  only three-phase path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import steadygrid as sg
from steadygrid.analyses import ContingencySet, sample_contingencies

from .catalog import CASES

HARD_IC_SAMPLES = 32  # a power of two, see hard_ic_samples
N1_TOP_FRACTION = 0.15
FEEDER_METHODS = ("none", "tx", "power")


def hard_ic_samples(seed: int) -> list[tuple[float, float]]:
    """``HARD_IC_SAMPLES`` starting points ``(vmag, vang_deg)``, each uniform
    over [0.9, 1.1] x [-40, 40].

    A Latin hypercube: one sample per magnitude stratum and per angle stratum.
    Angle strata are visited in bit-reversed order (``HARD_IC_SAMPLES`` is a
    power of two), so every prefix of 2**k samples spreads evenly over the
    angle range. Whether plain Newton converges on hard_corridor depends
    mostly on the starting angle, so this keeps the share of converged solves
    close between seeds and between a whole and a partial pass.
    """
    n = HARD_IC_SAMPLES
    rng = np.random.default_rng(seed % 2**64)
    bits = n.bit_length() - 1
    order = np.array([int(format(k, f"0{bits}b")[::-1], 2) for k in range(n)])
    ang = (order + rng.uniform(size=n)) / n
    mag = (rng.permutation(n) + rng.uniform(size=n)) / n
    return [(0.9 + 0.2 * float(m), -40.0 + 80.0 * float(a)) for m, a in zip(mag, ang)]


def outage_order(n: int, seed: int) -> list[int]:
    return [int(k) for k in np.random.default_rng(seed % 2**64).permutation(n)]


def method_cycle(seed: int) -> tuple[str, ...]:
    k = seed % len(FEEDER_METHODS)
    return FEEDER_METHODS[k:] + FEEDER_METHODS[:k]


@dataclass
class Job:
    label: str
    case: str
    network: object
    options: sg.SolverOptions
    base_state: object = None  # n1_warm: the pre-outage solution
    base_events: list | None = None  # n1_warm: its outer-loop events
    outage: object = None  # n1_warm: run through run_contingencies

    @property
    def method(self) -> str:
        return self.options.homotopy


@dataclass
class Outcome:
    counts: tuple  # (status, newton iterations, accepted steps, outer passes or None)
    state: object = None
    events: list | None = None
    mismatch: float | None = None  # n1_warm: validate_solution as run_contingencies saw it
    error: str | None = None

    @property
    def status(self) -> str:
        return self.counts[0]


@dataclass
class Api:
    """The library entry points a job calls; the traced run swaps in wrappers."""

    solve: object = sg.solve
    run_contingencies: object = sg.run_contingencies
    validate_solution: object = sg.validate_solution


def load_networks(workload: str, case_dir: str) -> dict:
    return {name: sg.load_case(os.path.join(case_dir, name)).network for name in CASES[workload]}


def build_jobs(workload: str, seed: int, networks: dict) -> list[Job]:
    if workload == "tx196":
        opts = sg.SolverOptions(nr=sg.NrOptions(tol=1e-8), homotopy="tx")
        return [Job("case196_tx", "case196_mesh.net", networks["case196_mesh.net"], opts)]
    if workload == "n1_warm":
        net = networks["case56_mesh.net"]
        opts = sg.SolverOptions(nr=sg.NrOptions(tol=1e-8), homotopy="tx")
        base_report, base_state = sg.solve(net, opts)
        if base_report.status != "converged":
            raise RuntimeError(f"n1_warm base case did not converge: {base_report.status}")
        outages = sample_contingencies(net, base_state, top_fraction=N1_TOP_FRACTION).outages
        return [
            Job(outages[k].label, "case56_mesh.net", net, opts, base_state, base_report.switch_events, outages[k])
            for k in outage_order(len(outages), seed)
        ]
    if workload == "hard_ic":
        net = networks["hard_corridor.net"]
        jobs = []
        for k, (vm, va) in enumerate(hard_ic_samples(seed)):
            init = sg.InitSpec(kind="uniform", vmag=vm, vang_deg=va)
            for method in ("none", "power"):
                opts = sg.SolverOptions(nr=sg.NrOptions(max_iter=100), homotopy=method, init=init)
                jobs.append(Job(f"ic{k}_{method}", "hard_corridor.net", net, opts))
        return jobs
    if workload == "feeder3p":
        net = networks["feeder8.json"]
        return [
            Job(f"feeder8_{m}", "feeder8.json", net, sg.SolverOptions(homotopy=m))
            for m in method_cycle(seed)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_job(job: Job, api: Api) -> Outcome:
    """One solve: ``solve()``, or one outage through ``run_contingencies``."""
    try:
        if job.outage is not None:
            (res,) = api.run_contingencies(
                job.network, job.base_state, ContingencySet([job.outage]), job.options
            )
            return Outcome(
                (res.status, res.inner_iterations, res.homotopy_steps, None),
                mismatch=res.max_mismatch,
            )
        report, state = api.solve(job.network, job.options)
        counts = (report.status, report.inner_iterations, report.homotopy_steps, report.outer_passes)
        return Outcome(counts, state=state, events=report.switch_events)
    except Exception as exc:  # a job that raises is a failed solve, not a crashed run
        return Outcome(("error", 0, 0, None), error=f"{type(exc).__name__}: {exc}")
