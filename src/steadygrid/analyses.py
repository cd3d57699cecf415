"""Batch studies: N-k contingency runs and initial-condition sweeps.

Each runs one independent solve per input, serially and in input order, on
the shared immutable network, so repeated runs give identical results.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import network as _network
from .network import Network
# perfbench/layers.py traces ``IndexMap`` by its name in this module
from .indexing import IndexMap, StateVector
from .solver import (
    CONVERGED,
    DIVERGED,
    INFEASIBLE,
    InitSpec,
    InvalidNetworkError,
    SolverOptions,
    check_range,
    check_seed,
    derive_outage_setup,
    solve,
    solve_setup,
    transfer_state,
)
# perfbench/layers.py traces ``validate_solution`` by its name in this module
from .reference import validate_solution

# perfbench/layers.py traces ``validate`` by its name in this module too,
# though only ``solve_setup`` validates an outage network: once, and only
# when ``apply_outage`` could not give it its base network's set-up
validate = _network.validate

__all__ = [
    "Outage",
    "ContingencySet",
    "ContingencyResult",
    "SweepSpec",
    "SweepResult",
    "apply_outage",
    "sample_contingencies",
    "run_contingencies",
    "run_sweep",
]


@dataclass(frozen=True)
class Outage:
    label: str
    gen_ids: tuple = ()
    branch_ids: tuple = ()
    transformer_ids: tuple = ()


@dataclass
class ContingencySet:
    outages: list[Outage] = field(default_factory=list)


@dataclass
class ContingencyResult:
    label: str
    status: str
    reason: str = ""
    inner_iterations: int = 0
    homotopy_steps: int = 0
    max_mismatch: float = float("nan")


@dataclass
class SweepSpec:
    samples: int = 15
    vmag_range: tuple = (0.9, 1.1)
    vang_range_deg: tuple = (-40.0, 40.0)
    seed: int | None = None

    def __post_init__(self):
        if not isinstance(self.samples, numbers.Integral):
            raise ValueError("samples must be an integer")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        check_seed(self.seed)
        check_range("vmag_range", self.vmag_range)
        check_range("vang_range_deg", self.vang_range_deg)


@dataclass
class SweepResult:
    samples: list  # (vmag0, vang0_deg)
    statuses: list
    iterations: list
    max_pairwise_dv: float
    n_converged: int


def apply_outage(network: Network, outage: Outage) -> Network:
    """New network with the outaged devices removed.

    Raises ``ValueError`` naming the ids no device has, the ids listed
    twice, and the ids several devices share. An outage of branches and
    transformers alone gets the set-up of ``network``
    (:func:`derive_outage_setup`), so ``run_contingencies`` and a caller
    that solves the outage network itself share one set-up.
    """
    problems: dict[str, list[str]] = {}
    kept, removed = {}, {}
    for family, name, ids in (
        ("generators", "gens", outage.gen_ids),
        ("branches", "branches", outage.branch_ids),
        ("transformers", "transformers", outage.transformer_ids),
    ):
        devices = getattr(network, family)
        hit = [d.id in ids for d in devices]
        found = [d.id for d, h in zip(devices, hit) if h]
        for kind, bad in (
            ("unknown", [i for i in ids if i not in found]),
            ("repeated", [i for n, i in enumerate(ids) if i in ids[:n]]),
            ("ambiguous", [i for n, i in enumerate(found) if i in found[:n]]),
        ):
            if bad:
                problems.setdefault(kind, []).append(f"{name} {tuple(dict.fromkeys(bad))}")
        kept[family] = tuple(d for d, h in zip(devices, hit) if not h)
        removed[family] = [k for k, h in enumerate(hit) if h]
    if problems:
        text = "; ".join(f"{kind} devices: {', '.join(v)}" for kind, v in problems.items())
        raise ValueError(f"outage {outage.label}: {text}")
    if outage.gen_ids:  # the Q slots are numbered again
        return network.with_devices(**kept)
    post = network.with_devices(branches=kept["branches"], transformers=kept["transformers"])
    derive_outage_setup(network, post, removed["branches"], removed["transformers"])
    return post


def check_top_fraction(top_fraction: float) -> None:
    """Reject a screening fraction outside ``(0, 1]`` (``nan`` included)."""
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError("top_fraction must be in (0, 1]")


def sample_contingencies(
    network: Network, base_state: StateVector, top_fraction: float = 0.1
) -> ContingencySet:
    """The usual screening set: the largest online generators and the most
    heavily loaded series elements, dropped one at a time; ``top_fraction``
    of each family, at least one, with ``0 < top_fraction <= 1``."""
    check_top_fraction(top_fraction)
    outages: list[Outage] = []
    gens = sorted(network.generators, key=lambda g: -float(np.sum(np.abs(g.p))))
    n_gen = max(1, int(round(top_fraction * len(gens)))) if gens else 0
    for g in gens[:n_gen]:
        outages.append(Outage(label=f"LG_gen{g.id}", gen_ids=(g.id,)))

    v = base_state.v_complex()

    def flow(dev) -> float:
        i = network.bus_index[dev.from_bus]
        l = network.bus_index[dev.to_bus]
        total = 0.0
        for pr in range(network.nphase):
            cur = 0.0
            for pc in range(network.nphase):
                cur += dev.y_series[pr, pc] * (v[pc, i] - v[pc, l])
            total += abs(v[pr, i] * np.conj(cur))
        return total

    series = [("branch", b) for b in network.branches] + [
        ("xfmr", t) for t in network.transformers
    ]
    series.sort(key=lambda kv: -flow(kv[1]))
    n_ser = max(1, int(round(top_fraction * len(series)))) if series else 0
    for kind, dev in series[:n_ser]:
        if kind == "branch":
            outages.append(Outage(label=f"LB_branch{dev.id}", branch_ids=(dev.id,)))
        else:
            outages.append(Outage(label=f"LB_xfmr{dev.id}", transformer_ids=(dev.id,)))
    return ContingencySet(outages)


def _run_one_contingency(
    network: Network,
    base_state: StateVector,
    outage: Outage,
    options: SolverOptions,
    mismatch_tol: float,
) -> ContingencyResult:
    try:
        post = apply_outage(network, outage)
    except ValueError as exc:
        return ContingencyResult(outage.label, INFEASIBLE, reason=str(exc))
    try:
        # the set-up apply_outage gave ``post``, or else ``post`` validated
        # before anything is laid out
        index: IndexMap = solve_setup(post)[0]
    except InvalidNetworkError as exc:
        if any(i.code == "missing_slack" for i in exc.issues):
            reason = "islanding without slack"
        else:
            reason = "; ".join(str(i) for i in exc.issues)
        return ContingencyResult(outage.label, INFEASIBLE, reason=reason)
    # the warm start takes the index of the set-up that ``solve`` reuses
    warm = transfer_state(base_state, post, index)
    report, state = solve(post, replace(options, init=InitSpec(kind="warm", state=warm)))
    result = ContingencyResult(
        outage.label,
        report.status,
        inner_iterations=report.inner_iterations,
        homotopy_steps=report.homotopy_steps,
    )
    if report.status == CONVERGED:
        result.max_mismatch = validate_solution(report.network, state).max
        if not result.max_mismatch <= mismatch_tol:  # a NaN mismatch fails too
            result.status = DIVERGED
            result.reason = "solution failed independent mismatch check"
    return result


def run_contingencies(
    network: Network,
    base_state: StateVector,
    cset: ContingencySet,
    options: SolverOptions | None = None,
) -> list[ContingencyResult]:
    """Solve each outage warm-started from the base operating point.

    A converged status is only reported when the solution also passes the
    independent mismatch check at 10x the Newton tolerance.
    """
    if options is None:
        options = SolverOptions()
    mismatch_tol = 10.0 * options.nr.tol
    return [
        _run_one_contingency(network, base_state, o, options, mismatch_tol)
        for o in cset.outages
    ]


def tally(results: list[ContingencyResult]) -> dict:
    out = {CONVERGED: 0, DIVERGED: 0, INFEASIBLE: 0}
    for r in results:
        out[r.status] += 1
    return out


def run_sweep(
    network: Network,
    spec: SweepSpec,
    options: SolverOptions | None = None,
) -> SweepResult:
    """Solve from ``spec.samples`` uniformly sampled initial conditions.

    Every bus of one sample shares the same sampled magnitude and angle. The
    pairwise voltage spread over the converged samples measures whether they
    all landed on the same solution.
    """
    if options is None:
        options = SolverOptions()
    rng = np.random.default_rng(spec.seed)
    samples = [
        (
            float(rng.uniform(*spec.vmag_range)),
            float(rng.uniform(*spec.vang_range_deg)),
        )
        for _ in range(spec.samples)
    ]

    outcomes = [
        solve(
            network,
            replace(options, init=InitSpec(kind="uniform", vmag=vm, vang_deg=va)),
        )
        for vm, va in samples
    ]
    statuses = [rep.status for rep, _ in outcomes]
    iters = [rep.inner_iterations for rep, _ in outcomes]
    solved = [st.v_complex() for rep, st in outcomes if rep.status == CONVERGED]
    spread = 0.0
    for a in range(len(solved)):
        for b in range(a + 1, len(solved)):
            spread = max(spread, float(np.max(np.abs(solved[a] - solved[b]))))
    return SweepResult(
        samples=samples,
        statuses=statuses,
        iterations=iters,
        max_pairwise_dv=spread,
        n_converged=sum(1 for s in statuses if s == CONVERGED),
    )
