"""N-1 contingency screening from a solved operating point.

The base case is solved once; each outage (largest generators, most heavily
loaded series elements) is then applied to a copy of the network and re-solved
warm-started from the pre-contingency state: plain Newton from there, and the
Tx walk only for an outage where that fails. Outages that leave an island
without a slack are flagged infeasible without solving. Every converged
result is re-checked against the independent mismatch equations, so the
tally contains no false positives.

Run from the repository root:

    python demos/05_contingency_screening.py
"""

from steadygrid import SolverOptions, NrOptions, load_case, run_contingencies, solve
from steadygrid.analyses import sample_contingencies, tally

net = load_case("cases/case14.net").network
opts = SolverOptions(nr=NrOptions(tol=1e-8), homotopy="tx")

base_report, base_state = solve(net, opts)
print(f"base case: {base_report.status} in {base_report.inner_iterations} iterations")

cset = sample_contingencies(net, base_state, top_fraction=0.2)
print(f"screening {len(cset.outages)} outages "
      f"({sum(1 for o in cset.outages if o.gen_ids)} generator, "
      f"{sum(1 for o in cset.outages if not o.gen_ids)} series)\n")

results = run_contingencies(net, base_state, cset, opts)

print(f"{'outage':>16s} {'status':>12s} {'iters':>6s} {'mismatch':>10s}")
for r in results:
    mis = f"{r.max_mismatch:.1e}" if r.max_mismatch == r.max_mismatch else "-"
    print(f"{r.label:>16s} {r.status:>12s} {r.inner_iterations:6d} {mis:>10s}"
          + (f"   ({r.reason})" if r.reason else ""))

print(f"\ntally: {tally(results)}")
