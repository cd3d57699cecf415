"""Convergence robustness under arbitrary initial conditions.

Fifteen starting points are drawn uniformly from magnitudes in [0.9, 1.1]
and angles in [-40, 40] degrees, every bus initialized to the same sampled
pair. Plain Newton starts from each sample, and on a hard case whether it
converges is a coin flip. Series shorting ("Tx stepping") first solves a
virtually shorted system, then relaxes the short; its walk starts at the
anchored state and reads no sample, so every sample repeats one solve, and the
Tx rows show what the walk reaches, not robustness to the start.

Run from the repository root:

    python demos/04_initial_condition_sweep.py
"""

from steadygrid import NrOptions, SolverOptions, load_case, run_sweep, SweepSpec

spec = SweepSpec(samples=15, seed=7)

for case_name in ("cases/case14.net", "cases/hard_corridor.net"):
    net = load_case(case_name).network
    print(f"\n=== {case_name} ===")
    for label, opts in (
        ("plain Newton", SolverOptions(nr=NrOptions(max_iter=100))),
        ("Tx stepping", SolverOptions(nr=NrOptions(max_iter=100), homotopy="tx")),
    ):
        result = run_sweep(net, spec, opts)
        print(f"{label:14s}: {result.n_converged:2d}/15 converged, "
              f"pairwise solution spread {result.max_pairwise_dv:.1e} pu")
        marks = "".join("O" if s == "converged" else "x" for s in result.statuses)
        print(f"{'':14s}  per-sample: {marks}")
