"""Workload names and the case files each one loads (standard library only,
so ``run.py`` can read it without importing numpy)."""

WORKLOADS = ("tx196", "n1_warm", "hard_ic", "feeder3p")

CASES = {
    "tx196": ("case196_mesh.net",),
    "n1_warm": ("case56_mesh.net",),
    "hard_ic": ("hard_corridor.net",),
    "feeder3p": ("feeder8.json",),
}
