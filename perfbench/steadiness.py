"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload NAME [--seeds 1 2 3 ...] [--trace 0|1]

For every metric it prints the median over the runs and the distance between
the first and third quartile as a share of the median, next to the bound in
BENCHMARK.json. The last line is a JSON summary (values per metric per seed).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.stats import median, quartile_spread  # noqa: E402


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description="seed-to-seed spread of the benchmark's metrics")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)

    runs = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False, timeout=600,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"] or result["failed"]:
            print(proc.stdout)
            print(f"seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        runs[seed] = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[seed].items()), flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"{'metric':30s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name in runs[args.seeds[0]]:
        values = [runs[s][name] for s in args.seeds]
        mid = median(values)
        spread = quartile_spread(values) if len(values) > 1 and mid else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  over a third of its bound"
        print(f"{name:30s} {mid:12.4f} {spread:8.3f} {bound if bound is not None else '-':>6}{flag}")
    print(json.dumps({"workload": args.workload, "trace": args.trace, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
