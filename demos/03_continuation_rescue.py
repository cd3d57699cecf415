"""Rescue an ill-conditioned case with continuation.

``hard_corridor`` is a long series corridor whose full-load solution winds
hundreds of degrees of cumulative phase angle. Flat-start Newton, even with
step limiting, never finds it. Power stepping scales generation and load to
zero (where the network equations are almost linear), solves, and ramps the
power back up in adaptive steps, each warm-started from the last: the solver
walks a path of easy problems instead of leaping at a hard one.

Run from the repository root:

    python demos/03_continuation_rescue.py
"""

import numpy as np

from steadygrid import NrOptions, SolverOptions, load_case, solve, validate_solution

net = load_case("cases/hard_corridor.net").network

plain, _ = solve(net, SolverOptions(nr=NrOptions(max_iter=100)))
print(f"plain Newton from flat start: {plain.status} "
      f"after {plain.inner_iterations} iterations")

opts = SolverOptions(nr=NrOptions(max_iter=100), homotopy="power")
rescued, state = solve(net, opts)
print(f"with dynamic power stepping:  {rescued.status} "
      f"({rescued.homotopy_steps} continuation steps, "
      f"{rescued.inner_iterations} Newton iterations total)\n")

print("continuation trace (factor, Newton iterations per sub-problem):")
for lam, iters, res in rescued.lambda_trace:
    beta = 1.0 - lam
    bar = "#" * iters
    print(f"  scale {beta:6.4f}   {iters:3d} {bar}")

v = state.v_complex()[0]
section_angles = np.degrees(np.angle(v[1:] / v[:-1]))
print(f"\nsolution: cumulative angle {section_angles.sum():.0f} deg over "
      f"{len(section_angles)} sections, |V| all {state.v_mag().min():.3f}..{state.v_mag().max():.3f} pu")
print(f"independent mismatch check: {validate_solution(rescued.network, state).max:.2e} pu")
