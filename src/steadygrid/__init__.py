"""steadygrid: robust steady-state solver for transmission and distribution grids.

Networks (positive sequence or three phase) are modeled as equivalent
circuits in rectangular current/voltage coordinates, solved by Newton-Raphson
with circuit-style limiting, and driven to convergence from arbitrary starts
by continuation (series shorting or power stepping).
"""

from .network import (
    BigLoad,
    Branch,
    Bus,
    BusKind,
    Connection,
    Generator,
    Network,
    PhaseDomain,
    Shunt,
    Transformer,
    ZipLoad,
    validate,
)
from .caseio import load_case, parse_case, write_solution
from .indexing import IndexMap, StateVector
from .nr import NrOptions
from .solver import (
    InitSpec,
    SolveReport,
    SolverOptions,
    initialize_state,
    solve,
)
from .reference import MismatchReport, dense_reference_solve, validate_solution
from .analyses import ContingencySet, Outage, SweepSpec, run_contingencies, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BigLoad",
    "Branch",
    "Bus",
    "BusKind",
    "Connection",
    "ContingencySet",
    "Generator",
    "IndexMap",
    "InitSpec",
    "MismatchReport",
    "Network",
    "NrOptions",
    "Outage",
    "PhaseDomain",
    "Shunt",
    "SolveReport",
    "SolverOptions",
    "StateVector",
    "SweepSpec",
    "Transformer",
    "ZipLoad",
    "dense_reference_solve",
    "initialize_state",
    "load_case",
    "parse_case",
    "run_contingencies",
    "run_sweep",
    "solve",
    "validate",
    "validate_solution",
    "write_solution",
]
