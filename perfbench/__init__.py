"""Benchmark for steadygrid: end-to-end solve timing plus a traced per-layer split.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root. See ``perfbench/README.md``.
"""
