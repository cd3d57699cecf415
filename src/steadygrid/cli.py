"""Command-line front end: solve, sweep, contingency and validate workflows.

Outputs land in ``--out`` (default ``.``): ``solution.csv``, ``report.json``,
``trace.csv`` and ``lambda_trace.csv`` (both with ``--trace``, the latter
only its header when no continuation step was taken), ``sweep.csv``,
``contingency.csv``;
``--init file --init-file PATH`` starts from the ``solution.csv`` of an
earlier solve. Exit
codes: 0 converged, 1 diverged, 2 infeasible (worst status across a batch),
64 usage error (a rejected flag value included), 66 unreadable case or init
file.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple, fields
from typing import NoReturn

from . import analyses
from .caseio import CaseError, load_case, parse_case, read_solution, write_solution, write_table
from .homotopy import LAMBDA_TRACE_FIELDS
from .nr import NrOptions, NrTraceRow
from .reference import validate_solution
from .solver import (
    CONVERGED,
    EXIT_CODES,
    InitSpec,
    SolverOptions,
    solve,
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
    p.add_argument("--q-limits", choices=["on", "off"], default="on")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".", help="output directory")


def _add_init_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--init", choices=["flat", "random", "file"], default="flat")
    p.add_argument("--init-file", help="solution.csv of an earlier solve, used with --init file")


def _fail(code: int, message: str) -> NoReturn:
    sys.stderr.write(f"error: {message}\n")
    raise SystemExit(code)


def _build_options(args, network) -> SolverOptions:
    from_file = args.init == "file"
    if from_file and not args.init_file:
        _fail(EX_USAGE, "--init file needs --init-file PATH")
    try:
        options = SolverOptions(
            nr=NrOptions(tol=args.tol, max_iter=args.max_iter),
            homotopy=args.homotopy,
            # a file start replaces this below, once every flag is checked
            init=InitSpec(kind="flat" if from_file else args.init, seed=args.seed),
            enforce_q_limits=args.q_limits == "on",
        )
    except ValueError as exc:
        _fail(EX_USAGE, str(exc))
    if from_file:  # read once, here, so a bad file is an input error
        try:
            with open(args.init_file, "r", encoding="utf-8") as fh:
                options.init = InitSpec(kind="warm", state=read_solution(network, fh.read()))
        except (OSError, ValueError) as exc:
            _fail(EX_NOINPUT, f"cannot use init file {args.init_file}: {exc}")
    return options


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
    options = _build_options(args, case.network)
    report, state = solve(case.network, options)
    _write(args.out, "solution.csv", write_solution(case.network, state))
    _write(args.out, "report.json", report.to_json())
    if args.trace:
        _write(args.out, "trace.csv", write_table([f.name for f in fields(NrTraceRow)],
                                                  map(astuple, report.nr_trace)))
        # written with no step too, so no earlier run's rows are left behind
        _write(args.out, "lambda_trace.csv",
               write_table(LAMBDA_TRACE_FIELDS, report.lambda_trace))
    mis = validate_solution(report.network, state) if report.status == CONVERGED else None
    print(f"{case.name}: {report.status} "
          f"(inner {report.inner_iterations}, homotopy {report.homotopy_steps}, "
          f"passes {report.outer_passes})"
          + (f", max mismatch {mis.max:.3e}" if mis is not None else ""))
    return report.exit_code


def _cmd_sweep(args) -> int:
    case = _load(args.case)
    options = _build_options(args, case.network)
    try:
        spec = analyses.SweepSpec(samples=args.samples, seed=args.seed)
    except ValueError as exc:
        _fail(EX_USAGE, str(exc))
    result = analyses.run_sweep(case.network, spec, options)
    _write(args.out, "sweep.csv", write_table(
        ("sample", "vmag0", "vang0", "status", "iters"),
        ((k, vm, va, st, it) for k, ((vm, va), st, it)
         in enumerate(zip(result.samples, result.statuses, result.iterations)))))
    print(f"{case.name}: {result.n_converged}/{spec.samples} converged, "
          f"spread {result.max_pairwise_dv:.3e}")
    worst = 0
    for status in result.statuses:
        worst = max(worst, EXIT_CODES[status])
    return worst


def _cmd_contingency(args) -> int:
    case = _load(args.case)
    options = _build_options(args, case.network)
    try:  # the sampling bound, checked before the base solve
        analyses.check_top_fraction(args.top_fraction)
    except ValueError as exc:
        _fail(EX_USAGE, str(exc))
    base_report, base_state = solve(case.network, options)
    if base_report.status != CONVERGED:
        sys.stderr.write("base case did not converge; aborting contingencies\n")
        return base_report.exit_code
    cset = analyses.sample_contingencies(case.network, base_state, top_fraction=args.top_fraction)
    results = analyses.run_contingencies(case.network, base_state, cset, options)
    _write(args.out, "contingency.csv", write_table(
        ("label", "status", "inner_iters", "homotopy_steps", "max_mismatch"),
        ((r.label, r.status, r.inner_iterations, r.homotopy_steps, r.max_mismatch)
         for r in results)))
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
    _add_init_flags(p_solve)
    p_solve.add_argument("--trace", action="store_true", help="write iteration traces")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="initial-condition convergence sweep")
    p_sweep.add_argument("case")
    _add_solver_flags(p_sweep)
    p_sweep.add_argument("--samples", type=int, default=15)
    # the sweep draws its own starts, so it takes no --init
    p_sweep.set_defaults(func=_cmd_sweep, init="flat", init_file=None)

    p_cont = sub.add_parser("contingency", help="N-1 screening from a solved base")
    p_cont.add_argument("case")
    _add_solver_flags(p_cont)
    _add_init_flags(p_cont)
    p_cont.add_argument("--top-fraction", type=float, default=0.1)
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
