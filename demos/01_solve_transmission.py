"""Solve a transmission case and cross-check it two independent ways.

The equivalent-circuit solver works in rectangular current/voltage
coordinates: every device contributes linearized current stamps to one sparse
nodal system per Newton iteration. After it converges we check the answer
against (a) the admittance-matrix mismatch equations and (b) a completely
separate dense polar power-mismatch solver.

Run from the repository root:

    python demos/01_solve_transmission.py
"""

import numpy as np

from steadygrid import NrOptions, SolverOptions, dense_reference_solve, load_case, solve, validate_solution

case = load_case("cases/case14.net")
net = case.network
print(f"case {case.name}: {net.nbus} buses, {len(net.generators)} generators, "
      f"{len(net.branches)} lines, {len(net.transformers)} transformers")

report, state = solve(net, SolverOptions(nr=NrOptions(tol=1e-10)))
print(f"\nstatus: {report.status} in {report.inner_iterations} Newton iterations")

vm = state.v_mag()[0]
va = np.degrees(state.v_ang()[0])
print("\n bus   |V| (pu)   angle (deg)   Q_gen (pu)")
gen_q = state.gen_q()  # (generator, phase)
gen_by_bus = {g.bus: k for k, g in enumerate(net.generators)}
for k, bus in enumerate(net.buses):
    q = ""
    if bus.id in gen_by_bus:
        q = f"{gen_q[gen_by_bus[bus.id], 0]:10.4f}"
    print(f"{bus.id:4d}   {vm[k]:8.5f}   {va[k]:10.4f}   {q}")

mis = validate_solution(report.network, state)
print(f"\nindependent mismatch check: max dP={mis.max_p:.2e}, max dQ={mis.max_q:.2e} pu")

ref = dense_reference_solve(net)
print(f"dense polar reference: converged={ref.converged} in {ref.iterations} iterations")
print(f"agreement: max |dV| = {np.max(np.abs(ref.vm - vm)):.2e} pu, "
      f"max |dAng| = {np.max(np.abs(np.degrees(ref.va) - va)):.2e} deg")
