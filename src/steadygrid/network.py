"""Domain model for steady-state grid studies.

A :class:`Network` is an immutable description of one grid case: buses,
generators, loads (ZIP and BIG), branches, transformers and shunts, in either
the positive-sequence domain (one phase, ``p``) or the three-phase domain
(phases ``a, b, c``). All electrical quantities inside a Network are per-unit
on a common MVA base.

Conventions used throughout the package:

* per-phase quantities are numpy arrays of length ``domain.nphase``, ordered
  ``(p,)`` or ``(a, b, c)``; for delta-connected loads the three entries refer
  to the branches ``ab, bc, ca``;
* load admittances/currents/powers follow the load (consumption) convention,
  generator powers the generation convention;
* angles are radians internally; file formats use degrees.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "PhaseDomain",
    "BusKind",
    "Connection",
    "Bus",
    "Generator",
    "ZipLoad",
    "BigLoad",
    "Branch",
    "Transformer",
    "Shunt",
    "Network",
    "ValidationIssue",
    "validate",
    "PHASE_OFFSETS",
    "phase_array",
    "phase_carray",
    "series_y",
]


class PhaseDomain(enum.Enum):
    """Which phase set the network is expressed in."""

    POSITIVE_SEQUENCE = "positive_sequence"
    THREE_PHASE = "three_phase"

    @property
    def phases(self) -> tuple[str, ...]:
        if self is PhaseDomain.POSITIVE_SEQUENCE:
            return ("p",)
        return ("a", "b", "c")

    @property
    def nphase(self) -> int:
        return len(self.phases)


# Balanced-source angle offsets per phase, radians.
PHASE_OFFSETS = {
    PhaseDomain.POSITIVE_SEQUENCE: np.array([0.0]),
    PhaseDomain.THREE_PHASE: np.array([0.0, -2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0]),
}


class BusKind(enum.Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"


class Connection(enum.Enum):
    WYE = "wye"
    DELTA = "delta"


def _as_phase_array(value, nphase: int, dtype=float) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=dtype))
    if arr.shape != (nphase,):
        raise ValueError(f"expected {nphase} per-phase values, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


class _Device:
    """Base of the device classes: every array a device holds is made
    read-only, so a validated network, and the solve set-up built from it,
    cannot change under later solves."""

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


@dataclass(frozen=True)
class Bus:
    """A network node.

    ``kind`` distinguishes the slack designation; PV/PQ status is derived by
    the Network from which generators control voltage. ``v_set`` (pu) is
    present iff some device regulates this bus (or it is the slack);
    ``angle`` (radians) is only meaningful for slack buses.
    """

    id: int
    kind: BusKind = BusKind.PQ
    base_kv: float = 1.0
    v_set: float | None = None
    angle: float = 0.0


@dataclass(frozen=True)
class Generator(_Device):
    """Power source at a bus.

    ``q`` of ``None`` marks a voltage-controlling generator: its reactive
    power is a solver unknown tied to the magnitude set-point of
    ``remote_bus`` (or of its own bus when ``remote_bus`` is None).
    """

    id: int
    bus: int
    p: np.ndarray  # per-phase real power, pu
    q: np.ndarray | None = None  # fixed per-phase reactive power, pu
    qmin: float = -math.inf  # per-phase limit, pu
    qmax: float = math.inf
    remote_bus: int | None = None

    @property
    def controls_voltage(self) -> bool:
        return self.q is None

    def target_bus(self) -> int:
        return self.bus if self.remote_bus is None else self.remote_bus


@dataclass(frozen=True)
class ZipLoad(_Device):
    """Aggregate load with impedance, current and power parts.

    ``y`` is the admittance of the impedance part (0 where absent), ``i`` the
    constant-current magnitude components ``I_P + jI_Q`` and ``s`` the
    constant-power part, all per phase (per delta branch for delta loads).
    """

    id: int
    bus: int
    connection: Connection = Connection.WYE
    y: np.ndarray = None  # complex, pu admittance
    i: np.ndarray = None  # complex, pu current components
    s: np.ndarray = None  # complex, pu power


@dataclass(frozen=True)
class BigLoad(_Device):
    """Linear load: base current source plus sensitivity admittance."""

    id: int
    bus: int
    alpha: np.ndarray = None  # complex, pu base current
    y: np.ndarray = None  # complex, pu sensitivity (G may be negative)


@dataclass(frozen=True)
class Branch(_Device):
    """Series element between two buses.

    ``y_series`` is an ``(nphase, nphase)`` complex admittance matrix; for the
    positive-sequence domain it is 1x1. Off-diagonal entries carry mutual
    coupling in the three-phase domain and must make the matrix symmetric.
    ``b_from``/``b_to`` hold per-phase charging susceptance at each end.
    """

    id: int
    from_bus: int
    to_bus: int
    y_series: np.ndarray = None
    b_from: np.ndarray = None
    b_to: np.ndarray = None


@dataclass(frozen=True)
class Transformer(_Device):
    """Two-winding transformer with per-phase off-nominal tap and phase shift.

    The tap/shift apply on the ``from`` side. ``shift`` is radians within
    (-pi, pi]. Optional tap-control fields drive the outer adjustment loop.
    """

    id: int
    from_bus: int
    to_bus: int
    y_series: np.ndarray = None
    tap: np.ndarray = None  # per-phase turns ratio
    shift: np.ndarray = None  # per-phase shift, radians
    tap_min: float = 0.8
    tap_max: float = 1.2
    tap_step: float = 0.00625
    controlled_bus: int | None = None
    v_target: float | None = None


@dataclass(frozen=True)
class Shunt(_Device):
    """Bus shunt; optionally switchable in discrete susceptance blocks."""

    id: int
    bus: int
    g: np.ndarray = None  # per-phase conductance, pu
    b: np.ndarray = None  # per-phase susceptance, pu
    switchable: bool = False
    block_b: np.ndarray | None = None  # per-phase susceptance per block
    max_blocks: int = 0
    blocks_on: int = 0
    v_lo: float = 0.95
    v_hi: float = 1.05


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    device: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.code}] {self.device}: {self.message}"


@dataclass(frozen=True)
class Network:
    """Immutable grid case."""

    domain: PhaseDomain
    base_mva: float
    buses: tuple[Bus, ...]
    generators: tuple[Generator, ...] = ()
    zip_loads: tuple[ZipLoad, ...] = ()
    big_loads: tuple[BigLoad, ...] = ()
    branches: tuple[Branch, ...] = ()
    transformers: tuple[Transformer, ...] = ()
    shunts: tuple[Shunt, ...] = ()
    name: str = ""
    bus_index: dict = field(init=False, repr=False, compare=False)
    islands: tuple = field(init=False, repr=False, compare=False)
    # the solve set-up of this object, kept by its first solve (solver.py)
    _setup: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "bus_index", {b.id: k for k, b in enumerate(self.buses)})
        object.__setattr__(self, "islands", self._find_islands())
        object.__setattr__(self, "_setup", None)

    def __getstate__(self):
        # a copy or an unpickled network starts without the set-up: it holds
        # read-only arrays and factorization plans, which a copy rebuilds
        return {**self.__dict__, "_setup": None}

    @property
    def nphase(self) -> int:
        return self.domain.nphase

    @property
    def nbus(self) -> int:
        return len(self.buses)

    def bus(self, bus_id: int) -> Bus:
        return self.buses[self.bus_index[bus_id]]

    def _find_islands(self) -> tuple:
        """Union-find over branches and transformers; island id per bus position."""
        parent = list(range(len(self.buses)))

        def root(k):
            while parent[k] != k:
                parent[k] = parent[parent[k]]
                k = parent[k]
            return k

        for dev in list(self.branches) + list(self.transformers):
            i = self.bus_index.get(dev.from_bus)
            j = self.bus_index.get(dev.to_bus)
            if i is None or j is None:
                continue
            ri, rj = root(i), root(j)
            if ri != rj:
                parent[ri] = rj
        roots = [root(k) for k in range(len(self.buses))]
        # Renumber islands 0..m-1 in first-seen order.
        seen: dict[int, int] = {}
        out = []
        for r in roots:
            if r not in seen:
                seen[r] = len(seen)
            out.append(seen[r])
        return tuple(out)

    @property
    def n_islands(self) -> int:
        return max(self.islands) + 1 if self.islands else 0

    def slack_buses(self) -> list[Bus]:
        return [b for b in self.buses if b.kind == BusKind.SLACK]

    def with_devices(self, **kwargs) -> "Network":
        """Copy with some device collections replaced (still immutable)."""
        return replace(self, **kwargs)


# ---------------------------------------------------------------------------
# Structural validation


def validate(network: Network) -> list[ValidationIssue]:
    """Check every structural invariant; empty list means the case is sound.

    Violations are reported, not raised, so callers can show them all at once.
    """
    issues: list[ValidationIssue] = []
    add = issues.append
    nph = network.nphase
    idx = network.bus_index

    if network.base_mva <= 0:
        add(ValidationIssue("bad_base", "network", f"base MVA {network.base_mva} not positive"))
    if len(idx) != len(network.buses):
        add(ValidationIssue("duplicate_bus", "network", "duplicate bus ids"))

    # Exactly one slack per island.
    slack_per_island: dict[int, list[int]] = {}
    for k, b in enumerate(network.buses):
        if b.kind == BusKind.SLACK:
            slack_per_island.setdefault(network.islands[k], []).append(b.id)
            if b.v_set is None or not (b.v_set > 0):
                add(ValidationIssue("bad_vset", f"bus {b.id}", "slack bus needs v_set > 0"))
            if not math.isfinite(b.angle):
                add(ValidationIssue("not_finite", f"bus {b.id}",
                                    f"slack angle {b.angle} not finite"))
    for isl in range(network.n_islands):
        got = slack_per_island.get(isl, [])
        if not got:
            add(ValidationIssue("missing_slack", f"island {isl}", "island has no slack bus"))
        elif len(got) > 1:
            add(ValidationIssue("multiple_slack", f"island {isl}", f"slack buses {got}"))

    for b in network.buses:
        if b.v_set is not None and not (b.v_set > 0):
            add(ValidationIssue("bad_vset", f"bus {b.id}", f"v_set {b.v_set} not positive"))

    # ids name devices in outages, outer-loop events and the report
    for family, devices in (
        ("gen", network.generators), ("zip", network.zip_loads), ("big", network.big_loads),
        ("branch", network.branches), ("xfmr", network.transformers), ("shunt", network.shunts),
    ):
        seen = set()
        for d in devices:
            if d.id in seen:
                add(ValidationIssue("duplicate_id", f"{family} {d.id}",
                                    "id repeated in its family"))
            seen.add(d.id)

    def finite(arr: np.ndarray) -> bool:
        return all(map(cmath.isfinite, arr.tolist()))

    for g in network.generators:
        dev = f"gen {g.id}"
        if g.bus not in idx:
            add(ValidationIssue("unknown_bus", dev, f"bus {g.bus} not defined"))
            continue
        if g.p.shape != (nph,):
            add(ValidationIssue("bad_phase_count", dev, "p has wrong phase count"))
        elif not finite(g.p):
            add(ValidationIssue("not_finite", dev, "p has non-finite entries"))
        if g.q is not None:
            if g.q.shape != (nph,):
                add(ValidationIssue("bad_phase_count", dev, "q has wrong phase count"))
            elif not finite(g.q):
                add(ValidationIssue("not_finite", dev, "q has non-finite entries"))
        if not (g.qmin <= g.qmax):
            add(ValidationIssue("qlim_order", dev, f"qmin {g.qmin} > qmax {g.qmax}"))
        if g.remote_bus is not None:
            if g.remote_bus not in idx:
                add(ValidationIssue("unknown_bus", dev, f"remote bus {g.remote_bus} not defined"))
            elif network.islands[idx[g.bus]] != network.islands[idx[g.remote_bus]]:
                add(ValidationIssue("unreachable_remote", dev,
                                    f"no path from bus {g.bus} to remote bus {g.remote_bus}"))
        if g.controls_voltage:
            tgt = g.target_bus()
            if tgt in idx and network.bus(tgt).v_set is None:
                add(ValidationIssue("missing_vset", dev, f"controlled bus {tgt} has no v_set"))

    for ld in network.zip_loads:
        dev = f"zip {ld.id}"
        if ld.bus not in idx:
            add(ValidationIssue("unknown_bus", dev, f"bus {ld.bus} not defined"))
        for name, arr in (("y", ld.y), ("i", ld.i), ("s", ld.s)):
            if arr.shape != (nph,):
                add(ValidationIssue("bad_phase_count", dev, f"{name} has wrong phase count"))
            elif not finite(arr):
                add(ValidationIssue("not_finite", dev, f"{name} has non-finite entries"))
        if ld.connection == Connection.DELTA and network.domain != PhaseDomain.THREE_PHASE:
            add(ValidationIssue("bad_connection", dev, "delta load in positive-sequence network"))

    for ld in network.big_loads:
        dev = f"big {ld.id}"
        if ld.bus not in idx:
            add(ValidationIssue("unknown_bus", dev, f"bus {ld.bus} not defined"))
        for name, arr in (("alpha", ld.alpha), ("y", ld.y)):
            if arr.shape != (nph,):
                add(ValidationIssue("bad_phase_count", dev, f"{name} has wrong phase count"))
            elif not finite(arr):
                add(ValidationIssue("not_finite", dev, f"{name} has non-finite entries"))

    for br in network.branches:
        dev = f"branch {br.id}"
        for end in (br.from_bus, br.to_bus):
            if end not in idx:
                add(ValidationIssue("unknown_bus", dev, f"bus {end} not defined"))
        if br.y_series.shape != (nph, nph):
            add(ValidationIssue("bad_phase_count", dev, "y_series has wrong shape"))
        else:
            y = br.y_series.ravel().tolist()
            if not any(y):  # NaN counts as nonzero, as in np.any
                add(ValidationIssue("zero_series_y", dev, "series admittance is zero"))
            elif not all(map(cmath.isfinite, y)):
                add(ValidationIssue("not_finite", dev, "y_series has non-finite entries"))
            elif nph > 1 and not np.array_equal(br.y_series, br.y_series.T):
                add(ValidationIssue("asymmetric_y", dev, "three-phase y_series not symmetric"))
        if br.b_from.shape != (nph,) or br.b_to.shape != (nph,):
            add(ValidationIssue("bad_phase_count", dev, "b_from/b_to have wrong phase count"))
        elif not all(map(cmath.isfinite, br.b_from.tolist() + br.b_to.tolist())):
            add(ValidationIssue("not_finite", dev, "b_from/b_to have non-finite entries"))

    for tx in network.transformers:
        dev = f"xfmr {tx.id}"
        for end in (tx.from_bus, tx.to_bus):
            if end not in idx:
                add(ValidationIssue("unknown_bus", dev, f"bus {end} not defined"))
        if tx.y_series.shape != (nph, nph):
            add(ValidationIssue("bad_phase_count", dev, "y_series has wrong shape"))
            continue
        y = tx.y_series.ravel().tolist()
        if not any(y):  # NaN counts as nonzero, as in np.any
            add(ValidationIssue("zero_series_y", dev, "series admittance is zero"))
        elif not all(map(cmath.isfinite, y)):
            add(ValidationIssue("not_finite", dev, "y_series has non-finite entries"))
        # the outer loop clips taps into the table, so a positive table keeps them positive
        lo, hi = tx.tap_min, tx.tap_max
        if not (0 < lo <= hi):
            add(ValidationIssue("tap_limits", dev, f"tap table [{lo}, {hi}] needs 0 < min <= max"))
        # a NaN fails every comparison, so these range tests reject it
        if not all(lo <= t <= hi for t in tx.tap.tolist()):
            add(ValidationIssue("tap_range", dev, f"tap {tx.tap} outside [{lo}, {hi}]"))
        if not all(-math.pi < a <= math.pi for a in tx.shift.tolist()):
            add(ValidationIssue("shift_range", dev, "phase shift outside (-180, 180] degrees"))
        if tx.controlled_bus is not None and tx.controlled_bus not in idx:
            add(ValidationIssue("unknown_bus", dev, f"controlled bus {tx.controlled_bus} not defined"))

    for sh in network.shunts:
        dev = f"shunt {sh.id}"
        if sh.bus not in idx:
            add(ValidationIssue("unknown_bus", dev, f"bus {sh.bus} not defined"))
        if sh.g.shape != (nph,) or sh.b.shape != (nph,):
            add(ValidationIssue("bad_phase_count", dev, "g/b have wrong phase count"))
        elif not (finite(sh.g) and finite(sh.b)):
            add(ValidationIssue("not_finite", dev, "g/b have non-finite entries"))
        if sh.switchable:
            if (sh.block_b is None or not finite(sh.block_b) or sh.max_blocks < 0
                    or not (0 <= sh.blocks_on <= sh.max_blocks)):
                add(ValidationIssue("bad_blocks", dev, "switchable shunt needs finite block table"))

    return issues


# ---------------------------------------------------------------------------
# Construction helpers (used by parsers and tests)


def phase_array(value, nphase: int) -> np.ndarray:
    """Broadcast a scalar or validate a per-phase sequence (float)."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(nphase, float(arr))
    return _as_phase_array(arr, nphase)


def phase_carray(value, nphase: int) -> np.ndarray:
    """Broadcast a scalar or validate a per-phase sequence (complex)."""
    arr = np.asarray(value, dtype=complex)
    if arr.ndim == 0:
        arr = np.full(nphase, complex(arr))
    return _as_phase_array(arr, nphase, dtype=complex)


def series_y(r: float, x: float, nphase: int = 1) -> np.ndarray:
    """Series admittance matrix from impedance (diagonal for three-phase)."""
    y = 1.0 / complex(r, x)
    out = np.zeros((nphase, nphase), dtype=complex)
    np.fill_diagonal(out, y)
    out.setflags(write=False)
    return out

