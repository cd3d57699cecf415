"""A fixed reference computation that measures how fast the machine runs now.

The machine the benchmark was built on changes speed in spells that last from
seconds to minutes: the same solve took 350 ms in one minute and 700 ms in
the next. Timed next to the solves, this kernel slows with them, and the
benchmark reports its times scaled to the speed at which the kernel takes
``REF_MS`` (``scale``, ``local_scales``). Over 24-second windows of one run,
scaling by the median kernel time took the quartile spread of ``tx196``'s
median solve time from 0.31 to 0.05.

The kernel does the kind of work a solve does: Python loops that stamp
complex branch admittances into sparse triplets, then scipy's sparse LU, four
times over on a fixed 200-bus meshed network. It uses no steadygrid code, so
a change to the library cannot change its time, and it runs with the garbage
collector off, so objects the library keeps alive cannot slow it either.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

REF_MS = 12.0  # the kernel's median time on that 2-core machine in a fast spell
N_BUS = 200


def _network():
    rng = np.random.default_rng(0)
    ring = [(k, (k + 1) % N_BUS) for k in range(N_BUS)]
    chords = [(int(a), int(b)) for a, b in rng.integers(0, N_BUS, size=(2 * N_BUS, 2)) if a != b]
    branches = ring + chords
    y = [complex(1.0 + (k % 3) / 10, -5.0 - k % 7) for k in range(len(branches))]
    return branches, y


BRANCHES, ADMITTANCES = _network()


def kernel() -> float:
    """Four fixed-point sweeps of stamping and sparse LU; returns a checksum."""
    v = [complex(1.0, k / N_BUS) for k in range(N_BUS)]
    rhs = np.ones(N_BUS, dtype=complex)
    for _ in range(4):
        rows, cols, vals = [], [], []
        flow = 0j
        for (a, b), y in zip(BRANCHES, ADMITTANCES):
            rows += [a, a, b, b]
            cols += [a, b, a, b]
            vals += [y, -y, -y, y]
            flow += y * (v[a] - v[b])
        rows += range(N_BUS)
        cols += range(N_BUS)
        vals += [0.5] * N_BUS
        lu = sla.splu(sp.csc_matrix((vals, (rows, cols)), shape=(N_BUS, N_BUS)))
        v = [complex(z) for z in lu.solve(rhs)]
    return abs(sum(v)) + abs(flow)


def time_kernel() -> float:
    """Seconds one ``kernel()`` call takes, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(kernel_seconds) -> float:
    """Factor that turns times measured alongside ``kernel_seconds`` into
    times at the reference speed: ``REF_MS`` over the kernel's median."""
    return REF_MS / (statistics.median(kernel_seconds) * 1e3)


def local_scales(n_records: int, ref) -> list[float]:
    """One ``scale`` per timed record, from the first kernel run after it.

    ``ref`` lists ``(position, seconds)`` in order: a kernel at position ``p``
    ran after record ``p - 1`` and before record ``p``, and the last one ran
    after the last record. The kernel run right after a record tracks the
    speed the record ran at best, so a slow spell within a run is scaled out
    of the records it covered.
    """
    positions = [p for p, _ in ref]
    return [scale([ref[bisect.bisect_right(positions, j)][1]]) for j in range(n_records)]
