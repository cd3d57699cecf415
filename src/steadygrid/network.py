"""Domain model for steady-state grid studies.

A :class:`Network` is an immutable description of one grid case: buses,
generators, loads (ZIP and BIG), branches, transformers and shunts, in either
the positive-sequence domain (one phase, ``p``) or the three-phase domain
(phases ``a, b, c``). All electrical quantities inside a Network are per-unit
on a common MVA base; :func:`to_pu_power` / :func:`to_pu_impedance` and their
inverses do the normalization.

Conventions used throughout the package:

* per-phase quantities are numpy arrays of length ``domain.nphase``, ordered
  ``(p,)`` or ``(a, b, c)``; for delta-connected loads the three entries refer
  to the branches ``ab, bc, ca``;
* load admittances/currents/powers follow the load (consumption) convention,
  generator powers the generation convention;
* angles are radians internally; file formats use degrees.
"""

from __future__ import annotations

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
    "to_pu_power",
    "from_pu_power",
    "z_base",
    "to_pu_impedance",
    "from_pu_impedance",
    "PHASE_OFFSETS",
    "phase_array",
    "phase_carray",
    "series_y",
    "coupled_line_y",
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
class Generator:
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
class ZipLoad:
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
class BigLoad:
    """Linear load: base current source plus sensitivity admittance."""

    id: int
    bus: int
    alpha: np.ndarray = None  # complex, pu base current
    y: np.ndarray = None  # complex, pu sensitivity (G may be negative)


@dataclass(frozen=True)
class Branch:
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
class Transformer:
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
class Shunt:
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
    """Immutable grid case. Safe to share across concurrent solves."""

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

    def __post_init__(self):
        object.__setattr__(self, "bus_index", {b.id: k for k, b in enumerate(self.buses)})
        object.__setattr__(self, "islands", self._find_islands())

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

    def controlled_buses(self) -> dict[int, float]:
        """bus id -> regulated magnitude, for every voltage-controlled bus."""
        out: dict[int, float] = {}
        for g in self.generators:
            if g.controls_voltage:
                tgt = g.target_bus()
                vset = self.bus(tgt).v_set if tgt in self.bus_index else None
                if vset is not None:
                    out[tgt] = vset
        return out

    def bus_kind(self, bus_id: int) -> BusKind:
        """Effective kind: slack designation wins, then PV iff regulated."""
        b = self.bus(bus_id)
        if b.kind == BusKind.SLACK:
            return BusKind.SLACK
        if bus_id in self.controlled_buses():
            return BusKind.PV
        return BusKind.PQ

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {b.id: set() for b in self.buses}
        for dev in list(self.branches) + list(self.transformers):
            if dev.from_bus in adj and dev.to_bus in adj:
                adj[dev.from_bus].add(dev.to_bus)
                adj[dev.to_bus].add(dev.from_bus)
        return adj

    def with_devices(self, **kwargs) -> "Network":
        """Copy with some device collections replaced (still immutable)."""
        return replace(self, **kwargs)


# ---------------------------------------------------------------------------
# Per-unit conversion


def to_pu_power(mw: float, base_mva: float) -> float:
    if base_mva <= 0:
        raise ValueError(f"base MVA must be positive, got {base_mva}")
    return mw / base_mva


def from_pu_power(pu: float, base_mva: float) -> float:
    if base_mva <= 0:
        raise ValueError(f"base MVA must be positive, got {base_mva}")
    return pu * base_mva


def z_base(base_kv: float, base_mva: float) -> float:
    if base_kv <= 0 or base_mva <= 0:
        raise ValueError("bases must be positive")
    return base_kv**2 / base_mva


def to_pu_impedance(ohm: float, base_kv: float, base_mva: float) -> float:
    return ohm / z_base(base_kv, base_mva)


def from_pu_impedance(pu: float, base_kv: float, base_mva: float) -> float:
    return pu * z_base(base_kv, base_mva)


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
    for isl in range(network.n_islands):
        got = slack_per_island.get(isl, [])
        if not got:
            add(ValidationIssue("missing_slack", f"island {isl}", "island has no slack bus"))
        elif len(got) > 1:
            add(ValidationIssue("multiple_slack", f"island {isl}", f"slack buses {got}"))

    for b in network.buses:
        if b.v_set is not None and not (b.v_set > 0):
            add(ValidationIssue("bad_vset", f"bus {b.id}", f"v_set {b.v_set} not positive"))

    adj = network.adjacency()

    def reachable(src: int, dst: int) -> bool:
        if src == dst:
            return True
        seen = {src}
        stack = [src]
        while stack:
            u = stack.pop()
            for v in adj.get(u, ()):
                if v == dst:
                    return True
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return False

    for g in network.generators:
        dev = f"gen {g.id}"
        if g.bus not in idx:
            add(ValidationIssue("unknown_bus", dev, f"bus {g.bus} not defined"))
            continue
        if g.p.shape != (nph,):
            add(ValidationIssue("bad_phase_count", dev, "p has wrong phase count"))
        if g.q is not None and g.q.shape != (nph,):
            add(ValidationIssue("bad_phase_count", dev, "q has wrong phase count"))
        if not (g.qmin <= g.qmax):
            add(ValidationIssue("qlim_order", dev, f"qmin {g.qmin} > qmax {g.qmax}"))
        if g.remote_bus is not None:
            if g.remote_bus not in idx:
                add(ValidationIssue("unknown_bus", dev, f"remote bus {g.remote_bus} not defined"))
            elif not reachable(g.bus, g.remote_bus):
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
            elif not np.all(np.isfinite(arr)):
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
            elif not np.all(np.isfinite(arr)):
                add(ValidationIssue("not_finite", dev, f"{name} has non-finite entries"))

    for br in network.branches:
        dev = f"branch {br.id}"
        for end in (br.from_bus, br.to_bus):
            if end not in idx:
                add(ValidationIssue("unknown_bus", dev, f"bus {end} not defined"))
        if br.y_series.shape != (nph, nph):
            add(ValidationIssue("bad_phase_count", dev, "y_series has wrong shape"))
            continue
        if not np.any(br.y_series):
            add(ValidationIssue("zero_series_y", dev, "series admittance is zero"))
        if nph > 1 and not np.array_equal(br.y_series, br.y_series.T):
            add(ValidationIssue("asymmetric_y", dev, "three-phase y_series not symmetric"))

    for tx in network.transformers:
        dev = f"xfmr {tx.id}"
        for end in (tx.from_bus, tx.to_bus):
            if end not in idx:
                add(ValidationIssue("unknown_bus", dev, f"bus {end} not defined"))
        if tx.y_series.shape != (nph, nph):
            add(ValidationIssue("bad_phase_count", dev, "y_series has wrong shape"))
            continue
        if not np.any(tx.y_series):
            add(ValidationIssue("zero_series_y", dev, "series admittance is zero"))
        if np.any(tx.tap < tx.tap_min) or np.any(tx.tap > tx.tap_max):
            add(ValidationIssue("tap_range", dev, f"tap {tx.tap} outside [{tx.tap_min}, {tx.tap_max}]"))
        if np.any(tx.shift <= -math.pi) or np.any(tx.shift > math.pi):
            add(ValidationIssue("shift_range", dev, "phase shift outside (-180, 180] degrees"))
        if tx.controlled_bus is not None and tx.controlled_bus not in idx:
            add(ValidationIssue("unknown_bus", dev, f"controlled bus {tx.controlled_bus} not defined"))

    for sh in network.shunts:
        dev = f"shunt {sh.id}"
        if sh.bus not in idx:
            add(ValidationIssue("unknown_bus", dev, f"bus {sh.bus} not defined"))
        if sh.g.shape != (nph,) or sh.b.shape != (nph,):
            add(ValidationIssue("bad_phase_count", dev, "g/b have wrong phase count"))
        if sh.switchable:
            if sh.block_b is None or sh.max_blocks < 0 or not (0 <= sh.blocks_on <= sh.max_blocks):
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


def coupled_line_y(r: float, x: float, rm: float = 0.0, xm: float = 0.0) -> np.ndarray:
    """3x3 series admittance of a line with mutual coupling.

    Built by inverting the impedance matrix with self terms ``r + jx`` and
    mutual terms ``rm + jxm``, then symmetrized so the exact-transpose
    invariant holds bit for bit.
    """
    z = np.full((3, 3), complex(rm, xm))
    np.fill_diagonal(z, complex(r, x))
    y = np.linalg.inv(z)
    y = (y + y.T) / 2.0
    y.setflags(write=False)
    return y
