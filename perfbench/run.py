"""steadygrid benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each call runs the workload in a fresh
process with BLAS and OpenMP limited to one thread, measures set-up in
several more fresh processes before and after it, and prints every metric
with its unit and sample count. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The exit code is 0 only when every output passed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.catalog import CASES, WORKLOADS  # noqa: E402

# Fresh set-up processes before and after the workload; setup_s is the median
# of all of them. The machine's speed changes in spells of a few seconds, so
# probes split around the workload see more than one spell.
SETUP_BEFORE, SETUP_AFTER = 4, 5
TIME_LIMIT_S = 170.0
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] + ([inherited] if inherited else [])
    )
    for var in SINGLE_THREAD:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, env, timeout):
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        text=True, timeout=timeout, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="steadygrid benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "steadygrid", "__init__.py")):
        print(f"no steadygrid sources under {ROOT}/src", file=sys.stderr)
        return 2
    env = child_env()
    cases = [os.path.join(ROOT, "cases", c) for c in CASES[args.workload]]
    probes = []

    def remaining():
        return TIME_LIMIT_S - (time.monotonic() - started)

    def probe(count):
        for _ in range(count):
            probes.append(run_child(["-m", "perfbench.setup_probe", *cases], env, min(60, remaining()))[1])

    try:
        probe(SETUP_BEFORE)
        lines, result = run_child(
            ["-m", "perfbench.workload", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, remaining(),
        )
        probe(SETUP_AFTER)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    setup = [p["import_s"] + p["load_s"] for p in probes]
    # each probe's set-up at the reference speed, from the kernel it timed
    setup_ref = [t * p["scale"] for t, p in zip(setup, probes)]
    import_ms = statistics.median(p["import_s"] for p in probes) * 1e3
    load_ms = statistics.median(p["load_s"] for p in probes) * 1e3
    print("\n".join(lines))
    metrics = result["metrics"]
    if args.trace:
        metrics = {
            "steadygrid.import_ms": {"value": import_ms, "unit": "ms"},
            "caseio.load_ms": {"value": load_ms, "unit": "ms"},
            **metrics,
        }
        print(f"{'steadygrid.import_ms':30s} {import_ms:12.4f} ms     median of {len(probes)} fresh processes")
        print(f"{'caseio.load_ms':30s} {load_ms:12.4f} ms     median of {len(probes)} fresh processes")
    else:
        metrics["setup_s"] = {"value": statistics.median(setup_ref), "unit": "s"}
        print(f"{'setup_s':30s} {statistics.median(setup_ref):12.4f} s      "
              f"median of {len(probes)} fresh processes; measured {statistics.median(setup):.4f} s "
              f"(import {import_ms:.1f} ms + load {load_ms:.1f} ms)")
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
