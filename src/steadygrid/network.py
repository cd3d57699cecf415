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
from collections import Counter
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
    (-pi, pi]. A ``controlled_bus`` declares a controlled tap: the outer
    loop steps it by ``tap_step`` toward ``v_target``, else that bus's
    ``v_set``.
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
    """Bus shunt; optionally switchable in discrete susceptance blocks,
    which the outer loop steps until its bus voltage is in ``[v_lo, v_hi]``."""

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
    # the solve set-up of this object, kept by its first solve, or given by
    # apply_outage from its base network's; the list of validation issues
    # when the first solve found it invalid (solver.py)
    _setup: tuple | list | None = field(init=False, repr=False, compare=False)

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


def _generator_issues(network: Network, g: Generator, issue) -> None:
    if not (g.qmin <= g.qmax):
        issue("qlim_order", f"qmin {g.qmin} > qmax {g.qmax}")
    elif g.qmin == math.inf or g.qmax == -math.inf:  # no finite Q to pin the machine at
        issue("qlim_order", f"Q band [{g.qmin}, {g.qmax}] lies at infinity")
    idx = network.bus_index
    if g.bus in idx:  # an unknown bus has no island to reach the remote bus from
        remote = _remote_issue(network, g)
        if remote is not None:
            issue(remote.code, remote.message)
    if g.controls_voltage:
        tgt = g.target_bus()
        if tgt in idx and network.bus(tgt).v_set is None:
            issue("missing_vset", f"controlled bus {tgt} has no v_set")


def _zip_issues(network: Network, ld: ZipLoad, issue) -> None:
    if ld.connection == Connection.DELTA and network.domain != PhaseDomain.THREE_PHASE:
        issue("bad_connection", "delta load in positive-sequence network")


def _transformer_issues(network: Network, tx: Transformer, issue) -> None:
    # the outer loop clips taps into the table, so a positive table keeps them positive
    lo, hi = tx.tap_min, tx.tap_max
    if not (0 < lo <= hi):
        issue("tap_limits", f"tap table [{lo}, {hi}] needs 0 < min <= max")
    # a NaN fails every comparison, so these range tests reject it; they read
    # the entries whatever the shape, which the table checks
    if not all(lo <= t <= hi for t in tx.tap.ravel().tolist()):
        issue("tap_range", f"tap {tx.tap} outside [{lo}, {hi}]")
    if not all(-math.pi < a <= math.pi for a in tx.shift.ravel().tolist()):
        issue("shift_range", "phase shift outside (-180, 180] degrees")
    if tx.controlled_bus is None:  # only a controlled tap is stepped toward a target
        return
    idx = network.bus_index
    if tx.controlled_bus not in idx:
        issue("unknown_bus", f"controlled bus {tx.controlled_bus} not defined")
    if not 0 < tx.tap_step < math.inf:
        issue("bad_control", f"tap_step {tx.tap_step} not finite and positive")
    if tx.v_target is None:  # the target falls back to the bus's v_set
        if tx.controlled_bus in idx and network.bus(tx.controlled_bus).v_set is None:
            issue("bad_control",
                  f"no v_target, and controlled bus {tx.controlled_bus} has no v_set")
    elif not 0 < tx.v_target < math.inf:
        issue("bad_control", f"v_target {tx.v_target} not finite and positive")


def _shunt_issues(network: Network, sh: Shunt, issue) -> None:
    if not sh.switchable:  # a fixed shunt's blocks and band are never read
        return
    if (sh.block_b is None or not all(map(cmath.isfinite, sh.block_b.ravel().tolist()))
            or sh.max_blocks < 0 or not (0 <= sh.blocks_on <= sh.max_blocks)):
        issue("bad_blocks", "switchable shunt needs finite block table")
    if not 0 < sh.v_lo <= sh.v_hi < math.inf:  # the outer loop's band
        issue("bad_control", f"band [{sh.v_lo}, {sh.v_hi}] needs 0 < v_lo <= v_hi < inf")


def _groups(text: str) -> tuple:
    """The array groups of a ``_FAMILIES`` row from their names, such as
    ``"g/b block_b"``. A group is one array or two checked as one; per group
    its first array, its second (or ``""``), whether it is the ``(nph, nph)``
    ``y_series``, whether the table checks its values, whether it may be
    None, and the subject of its messages (``g/b have``)."""
    groups = []
    for name in text.split():
        first, _, second = name.partition("/")
        groups.append((first, second, name == "y_series", name not in ("tap", "shift", "block_b"),
                       name in ("q", "block_b"), name + (" have" if second else " has")))
    return tuple(groups)


# One row per device family: the label its issues use, its field of Network,
# its bus fields, its per-phase arrays in the groups they are checked and
# named in, and the checks that are the family's alone. ``y_series`` is
# (nph, nph), every other array (nph,). The table checks only the shape of
# ``tap``, ``shift`` and ``block_b``, whose values their family's checks
# read. A regulating generator has no ``q``, and a fixed shunt no ``block_b``.
_FAMILIES = (
    ("gen", "generators", ("bus",), _groups("p q"), _generator_issues),
    ("zip", "zip_loads", ("bus",), _groups("y i s"), _zip_issues),
    ("big", "big_loads", ("bus",), _groups("alpha y"), None),
    ("branch", "branches", ("from_bus", "to_bus"), _groups("y_series b_from/b_to"), None),
    ("xfmr", "transformers", ("from_bus", "to_bus"), _groups("y_series tap shift"),
     _transformer_issues),
    ("shunt", "shunts", ("bus",), _groups("g/b block_b"), _shunt_issues),
)


def validate(network: Network) -> list[ValidationIssue]:
    """Check every structural invariant; empty list means the case is sound.

    Violations are reported, not raised, so callers can show them all at once.
    """
    issues: list[ValidationIssue] = []
    add = issues.append
    nph = network.nphase
    idx = network.bus_index

    if not 0 < network.base_mva < math.inf:  # nan fails too
        add(ValidationIssue("bad_base", "network",
                            f"base MVA {network.base_mva} not finite and positive"))
    if not network.buses:
        add(ValidationIssue("no_bus", "network", "network has no bus"))
    if len(idx) != len(network.buses):
        add(ValidationIssue("duplicate_bus", "network", "duplicate bus ids"))

    for b in network.slack_buses():
        if b.v_set is None or not (b.v_set > 0):
            add(ValidationIssue("bad_vset", f"bus {b.id}", "slack bus needs v_set > 0"))
        if not math.isfinite(b.angle):
            add(ValidationIssue("not_finite", f"bus {b.id}", f"slack angle {b.angle} not finite"))
    issues += _island_issues(network)

    for b in network.buses:
        if b.v_set is not None and not 0 < b.v_set < math.inf:  # nan fails too
            what = "finite" if b.v_set > 0 else "positive"
            add(ValidationIssue("bad_vset", f"bus {b.id}", f"v_set {b.v_set} not {what}"))

    def issue(code: str, message: str) -> None:  # about device d of family label
        add(ValidationIssue(code, f"{label} {d.id}", message))

    vector, square = (nph,), (nph, nph)
    for label, family, bus_fields, groups, own_issues in _FAMILIES:
        ids = set()
        for d in getattr(network, family):
            if d.id in ids:  # ids name devices in outages, outer-loop events and the report
                issue("duplicate_id", "id repeated in its family")
            ids.add(d.id)
            for name in bus_fields:
                bus = getattr(d, name)
                if bus not in idx:
                    issue("unknown_bus", f"bus {bus} not defined")
            for name, paired, matrix, check_values, optional, subject in groups:
                arr = getattr(d, name)
                if arr is None and optional:
                    continue
                other = getattr(d, paired) if paired else None
                shape = square if matrix else vector
                if arr.shape != shape or (paired and other.shape != shape):
                    issue("bad_phase_count",
                          f"{subject} wrong " + ("shape" if matrix else "phase count"))
                    continue
                if not check_values:
                    continue
                values = (arr.ravel() if matrix else arr).tolist()
                if paired:
                    values += other.tolist()
                if matrix and not any(values):  # NaN counts as nonzero, as in np.any
                    issue("zero_series_y", "series admittance is zero")
                elif not all(map(cmath.isfinite, values)):
                    issue("not_finite", f"{subject} non-finite entries")
                elif (matrix and label == "branch" and nph > 1
                      and values != arr.T.ravel().tolist()):  # as np.array_equal(arr, arr.T)
                    issue("asymmetric_y", "three-phase y_series not symmetric")
            if own_issues is not None:
                own_issues(network, d, issue)

    issues += _regulator_issues(network)
    return issues


def _regulator_issues(network: Network) -> list[ValidationIssue]:
    """The regulating machines whose set-point rows no solve can satisfy:
    one on a slack bus that regulates a non-slack bus, whose Q enters only
    the slack bus's balance, which no row measures, and two on one non-slack
    bus, whose rows repeat each other."""
    slack = {b.id for b in network.slack_buses()}
    free = [g for g in network.generators if g.controls_voltage and g.target_bus() not in slack]
    issues = [ValidationIssue("slack_regulator", f"gen {g.id}",
                              f"on slack bus {g.bus}, regulates bus {g.target_bus()}")
              for g in free if g.bus in slack]
    for bus, count in Counter(g.target_bus() for g in free).items():
        if count > 1:
            ids = [g.id for g in free if g.target_bus() == bus]
            issues.append(ValidationIssue("shared_regulation", f"bus {bus}",
                                          f"generators {ids} all regulate it"))
    return issues


def _island_issues(network: Network) -> list[ValidationIssue]:
    """Exactly one slack per island."""
    issues = []
    slack_per_island: dict[int, list[int]] = {}
    for k, b in enumerate(network.buses):
        if b.kind == BusKind.SLACK:
            slack_per_island.setdefault(network.islands[k], []).append(b.id)
    for isl in range(network.n_islands):
        got = slack_per_island.get(isl, [])
        if not got:
            issues.append(ValidationIssue("missing_slack", f"island {isl}", "island has no slack bus"))
        elif len(got) > 1:
            issues.append(ValidationIssue("multiple_slack", f"island {isl}", f"slack buses {got}"))
    return issues


def _remote_issue(network: Network, g: Generator) -> ValidationIssue | None:
    """What is wrong with the remote bus of generator ``g``, whose own bus
    exists, if anything: it must exist and lie in ``g``'s island."""
    if g.remote_bus is None:
        return None
    idx = network.bus_index
    dev = f"gen {g.id}"
    if g.remote_bus not in idx:
        return ValidationIssue("unknown_bus", dev, f"remote bus {g.remote_bus} not defined")
    if network.islands[idx[g.bus]] != network.islands[idx[g.remote_bus]]:
        return ValidationIssue("unreachable_remote", dev,
                               f"no path from bus {g.bus} to remote bus {g.remote_bus}")
    return None


def connectivity_issues(network: Network) -> list[ValidationIssue]:
    """The issues of :func:`validate` that removing a branch or transformer
    can raise in a network that passed it: an island without its one slack,
    and a regulating generator cut off from its remote bus. ``validate``
    reports them through the same code, in the same order."""
    issues = _island_issues(network)
    for g in network.generators:
        remote = _remote_issue(network, g)
        if remote is not None:
            issues.append(remote)
    return issues


# ---------------------------------------------------------------------------
# Construction helpers (used by parsers and tests)


def phase_array(value, nphase: int, dtype=float) -> np.ndarray:
    """The read-only per-phase array of ``value``: a scalar broadcast to
    ``nphase`` entries, or a sequence of exactly ``nphase``."""
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim == 0:
        arr = np.full(nphase, arr, dtype=dtype)
    if arr.shape != (nphase,):
        raise ValueError(f"expected {nphase} per-phase values, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def series_y(r: float, x: float, nphase: int = 1) -> np.ndarray:
    """Series admittance matrix from impedance (diagonal for three-phase)."""
    y = 1.0 / complex(r, x)
    out = np.zeros((nphase, nphase), dtype=complex)
    np.fill_diagonal(out, y)
    out.setflags(write=False)
    return out

