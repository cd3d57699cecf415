"""Unbalanced three-phase power flow on a distribution feeder.

The same solver core handles the three-phase domain: each bus carries one
complex voltage per phase, lines couple phases through 3x3 admittance
matrices, and ZIP loads connect either wye (phase to ground) or delta (phase
to phase). The feeder here mixes both, plus a linear current-source load and
a substation transformer. The answer is checked two independent ways, as in
demo 01: against the admittance-matrix current mismatch, and against the
separate dense power-mismatch solver, which covers three phases too.

Run from the repository root:

    python demos/02_three_phase_feeder.py
"""

import numpy as np

from steadygrid import SolverOptions, dense_reference_solve, load_case, solve, validate_solution

case = load_case("cases/feeder8.json")
net = case.network
report, state = solve(net, SolverOptions())
print(f"feeder solved: {report.status} in {report.inner_iterations} iterations "
      f"(flat start)")

vm = state.v_mag()
va = np.degrees(state.v_ang())
print("\n bus    |Va|     |Vb|     |Vc|     unbalance%")
for k, bus in enumerate(net.buses):
    mags = vm[:, k]
    unb = 100.0 * (mags.max() - mags.min()) / mags.mean()
    print(f"{bus.id:4d}   {mags[0]:.4f}   {mags[1]:.4f}   {mags[2]:.4f}   {unb:8.2f}")

print("\nphase angles at the feeder end (deg):", np.round(va[:, -1], 2))
mis = validate_solution(report.network, state)
print(f"independent current-mismatch check: {mis.max_i:.2e} pu")

ref = dense_reference_solve(net)
print(f"dense polar reference: converged={ref.converged} in {ref.iterations} iterations")
print(f"agreement: max |dV| = {np.max(np.abs(ref.vm - vm)):.2e} pu, "
      f"max |dAng| = {np.max(np.abs(np.degrees(ref.va) - va)):.2e} deg")
