"""Command-line front end: solve, sweep, contingency and validate workflows.

Outputs land in ``--out`` (default ``.``): ``solution.csv``, ``report.json``,
``trace.csv`` (with ``--trace``), ``sweep.csv``, ``contingency.csv``. Exit
codes: 0 converged, 1 diverged, 2 infeasible (worst status across a batch),
64 usage error, 66 unreadable case file.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import analyses
from .caseio import CaseError, load_case, parse_case, write_solution
from .homotopy import HomotopySchedule, lambda_trace_to_csv
from .nr import NrOptions, trace_to_csv
from .solver import (
    CONVERGED,
    EXIT_CODES,
    InitSpec,
    SolverOptions,
    solve,
    validate_solution,
)

EX_USAGE = 64
EX_NOINPUT = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EX_USAGE)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--homotopy", choices=["none", "tx", "power"], default="none")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--gamma", type=float, default=1e4)
    p.add_argument("--dv-max", type=float, default=0.1)
    p.add_argument("--zeta-min", type=float, default=0.05)
    p.add_argument("--init", choices=["flat", "random", "file"], default="flat")
    p.add_argument("--init-file", help="JSON solution used with --init file")
    p.add_argument("--q-limits", choices=["on", "off"], default="on")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".", help="output directory")


def _build_options(args) -> SolverOptions:
    nr = NrOptions(tol=args.tol, max_iter=args.max_iter, dv_max=args.dv_max,
                   zeta_min=args.zeta_min)
    if args.init == "file" and not getattr(args, "init_file", None):
        sys.stderr.write("error: --init file needs --init-file PATH\n")
        raise SystemExit(EX_USAGE)
    init = InitSpec(kind=args.init, seed=args.seed, path=getattr(args, "init_file", None))
    return SolverOptions(
        nr=nr,
        homotopy=args.homotopy,
        schedule=HomotopySchedule(gamma=args.gamma),
        init=init,
        enforce_q_limits=args.q_limits == "on",
    )


def _load(path: str):
    try:
        return load_case(path)
    except OSError as exc:
        sys.stderr.write(f"cannot read case: {exc}\n")
        raise SystemExit(EX_NOINPUT)
    except CaseError as exc:
        sys.stderr.write(f"bad case file: {exc}\n")
        raise SystemExit(EX_NOINPUT)


def _write(outdir: str, name: str, text: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_solve(args) -> int:
    case = _load(args.case)
    options = _build_options(args)
    report, state = solve(case.network, options)
    _write(args.out, "solution.csv", write_solution(case.network, state, report, fmt="csv"))
    _write(args.out, "report.json", report.to_json())
    if args.trace:
        _write(args.out, "trace.csv", trace_to_csv(report.nr_trace))
        if report.lambda_trace:
            _write(args.out, "lambda_trace.csv", lambda_trace_to_csv(report.lambda_trace))
    mis = validate_solution(report.network, state) if report.status == CONVERGED else None
    print(f"{case.name}: {report.status} "
          f"(inner {report.inner_iterations}, homotopy {report.homotopy_steps}, "
          f"passes {report.outer_passes})"
          + (f", max mismatch {mis.max:.3e}" if mis is not None else ""))
    return report.exit_code


def _cmd_sweep(args) -> int:
    case = _load(args.case)
    options = _build_options(args)
    spec = analyses.SweepSpec(samples=args.samples, seed=args.seed)
    result = analyses.run_sweep(case.network, spec, options, workers=args.workers)
    _write(args.out, "sweep.csv", result.csv())
    print(f"{case.name}: {result.n_converged}/{spec.samples} converged, "
          f"spread {result.max_pairwise_dv:.3e}")
    worst = 0
    for status in result.statuses:
        worst = max(worst, EXIT_CODES[status])
    return worst


def _cmd_contingency(args) -> int:
    case = _load(args.case)
    options = _build_options(args)
    base_report, base_state = solve(case.network, options)
    if base_report.status != CONVERGED:
        sys.stderr.write("base case did not converge; aborting contingencies\n")
        return base_report.exit_code
    cset = analyses.sample_contingencies(case.network, base_state, top_fraction=args.top_fraction)
    results = analyses.run_contingencies(case.network, base_state, cset, options,
                                         workers=args.workers)
    lines = ["label,status,inner_iters,homotopy_steps,max_mismatch"]
    lines += [r.csv_row() for r in results]
    _write(args.out, "contingency.csv", "\n".join(lines) + "\n")
    counts = analyses.tally(results)
    print(f"{case.name}: {counts}")
    worst = 0
    for r in results:
        worst = max(worst, EXIT_CODES[r.status])
    return worst


def _cmd_validate(args) -> int:
    try:
        with open(args.case, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        sys.stderr.write(f"cannot read case: {exc}\n")
        return EX_NOINPUT
    try:
        net = parse_case(text, name=os.path.basename(args.case))
    except CaseError as exc:  # parse_case also rejects every validate() issue
        print(f"invalid: {exc}")
        return 1
    print(f"ok: {net.nbus} buses, {len(net.generators)} generators, "
          f"{len(net.branches)} branches, {len(net.transformers)} transformers")
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="steadygrid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one case")
    p_solve.add_argument("case")
    _add_solver_flags(p_solve)
    p_solve.add_argument("--trace", action="store_true", help="write iteration traces")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="initial-condition convergence sweep")
    p_sweep.add_argument("case")
    _add_solver_flags(p_sweep)
    p_sweep.add_argument("--samples", type=int, default=15)
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cont = sub.add_parser("contingency", help="N-1 screening from a solved base")
    p_cont.add_argument("case")
    _add_solver_flags(p_cont)
    p_cont.add_argument("--top-fraction", type=float, default=0.1)
    p_cont.add_argument("--workers", type=int, default=None)
    p_cont.set_defaults(func=_cmd_contingency)

    p_val = sub.add_parser("validate", help="parse and structurally check a case")
    p_val.add_argument("case")
    p_val.set_defaults(func=_cmd_validate)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
