"""End-to-end solve: inner Newton loop (optionally under continuation) plus
the outer device-limit loop adjusting generator Q limits, switched shunts and
controlled transformer taps until nothing moves.

The outer loop runs the inner solve, then enforces device limits one pass at
a time. Q limits act per Q-slot lane, a (generator, phase) pair: one array
pass over the lanes pins those whose free reactive power leaves its band at
the violated limit (their bus drops to PQ) and releases pinned lanes whose
regulated voltage crosses the set-point in the relieving direction; events
are recorded in lane order. Switched shunts and controlled taps then step
toward their bands. Every device freezes for the remaining passes at its
first reversal (a lane at its release, a shunt or tap at its first move
against its last), so the loop cannot oscillate forever; running out of
passes reports Infeasible.

The set-up that depends only on the immutable :class:`Network` is built by
the first solve of a network object and kept on it for every later solve
(:func:`solve_setup`): the :class:`IndexMap`, the companion layout with its
pattern (whose factorization plan the first factorization chooses, see
``linsys.py``) and the base :class:`DeviceParams`. ``validate`` runs once
per object, before the set-up is built, so an invalid network raises
:class:`InvalidNetworkError`, carrying the issues, before anything is laid
out, and a valid one is never checked again. The set-up
lives in the network's private ``_setup`` slot, not in a module-level
registry, and refers to no network, so reference counting frees a network
with its set-up as soon as its last user lets go. A ``with_devices`` copy
starts without it, and every array it holds is read-only. The Q-slot pins,
the state and the :class:`SparseSystem` are built per solve, so a
solve's result does not depend on what was solved before it.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .homotopy import anchored_state, run_homotopy
from .indexing import IndexMap, StateVector, flat_state
from .linsys import SingularityError, SparseSystem
from .network import Connection, Network, PHASE_OFFSETS, PhaseDomain, validate
from .nr import NrOptions, check_convergence, run_newton
from .reference import build_ybus
from .stamps import GenModes, build_companion, effective_params

__all__ = [
    "CONVERGED",
    "DIVERGED",
    "INFEASIBLE",
    "InitSpec",
    "InvalidNetworkError",
    "SolverOptions",
    "SolveReport",
    "MismatchReport",
    "initialize_state",
    "uniform_state",
    "solve",
    "validate_solution",
]

CONVERGED = "converged"
DIVERGED = "diverged"
INFEASIBLE = "infeasible"

EXIT_CODES = {CONVERGED: 0, DIVERGED: 1, INFEASIBLE: 2}

# a controlled tap moves once its bus is this far (pu) from the target
TAP_DEADBAND = 0.01


@dataclass
class InitSpec:
    """Where the initial state comes from.

    kinds: ``flat`` (1 pu at reference angles), ``random`` (per-bus uniform
    magnitude/angle samples), ``uniform`` (one sampled magnitude/angle pair
    applied to every bus), ``warm`` (copy a prior state), ``file`` (JSON
    solution document).
    """

    kind: str = "flat"
    vmag_range: tuple = (0.9, 1.1)
    vang_range_deg: tuple = (-40.0, 40.0)
    seed: int | None = None
    vmag: float = 1.0
    vang_deg: float = 0.0
    state: StateVector | None = None
    path: str | None = None


@dataclass
class SolverOptions:
    nr: NrOptions = field(default_factory=NrOptions)
    homotopy: str = "none"  # none | tx | power
    gamma: float = 1e4  # Tx-stepping series scale
    init: InitSpec = field(default_factory=InitSpec)
    outer_max_passes: int = 10
    enforce_q_limits: bool = True
    adjust_shunts: bool = False
    adjust_taps: bool = False

    def __post_init__(self):
        if not isinstance(self.outer_max_passes, numbers.Integral) or self.outer_max_passes < 1:
            raise ValueError("outer_max_passes must be an integer >= 1")
        if not 0 < self.gamma < math.inf:  # also rejects nan
            raise ValueError("gamma must be finite and positive")
        if self.homotopy not in ("none", "tx", "power"):
            raise ValueError(f"unknown homotopy method {self.homotopy!r}")


@dataclass
class SolveReport:
    status: str
    inner_iterations: int = 0
    homotopy_steps: int = 0
    outer_passes: int = 0
    switch_events: list = field(default_factory=list)
    max_kcl_residual: float = math.nan
    max_constraint_residual: float = math.nan
    wall_time_s: float = 0.0
    vmag: np.ndarray | None = None
    vang_deg: np.ndarray | None = None
    last_lambda: float | None = None
    lambda_trace: list = field(default_factory=list)
    nr_trace: list = field(default_factory=list)
    network: Network | None = None  # as operated: the outer loop's taps and shunt blocks

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]

    def to_dict(self) -> dict:
        """JSON-friendly form; volatile timing lives under ``meta``."""
        xfmrs = self.network.transformers if self.network is not None else ()
        shunts = self.network.shunts if self.network is not None else ()
        return {
            "status": self.status,
            "inner_iterations": self.inner_iterations,
            "homotopy_steps": self.homotopy_steps,
            "outer_passes": self.outer_passes,
            "switch_events": self.switch_events,
            "max_kcl_residual": self.max_kcl_residual,
            "max_constraint_residual": self.max_constraint_residual,
            "last_lambda": self.last_lambda,
            "vmag": None if self.vmag is None else self.vmag.tolist(),
            "vang_deg": None if self.vang_deg is None else self.vang_deg.tolist(),
            "final_taps": {str(tx.id): tx.tap.tolist() for tx in xfmrs},
            "final_shunt_blocks": {str(sh.id): sh.blocks_on for sh in shunts},
            "meta": {"wall_time_s": self.wall_time_s},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)


# ---------------------------------------------------------------------------
# Initial conditions


def uniform_state(network: Network, index: IndexMap, vmag: float, vang_deg: float) -> StateVector:
    """Every bus at the same magnitude/angle (plus balanced phase offsets)."""
    state = flat_state(index)
    ang = math.radians(vang_deg) + PHASE_OFFSETS[network.domain]
    state.set_voltages(vmag * np.exp(1j * ang)[:, None])
    return state


def initialize_state(network: Network, spec: InitSpec, index: IndexMap | None = None) -> StateVector:
    """Build the starting state; Q slots and source currents start at zero."""
    if index is None:
        index = IndexMap(network)
    if spec.kind == "flat":
        return flat_state(index)
    if spec.kind == "uniform":
        return uniform_state(network, index, spec.vmag, spec.vang_deg)
    if spec.kind == "random":
        rng = np.random.default_rng(spec.seed)
        state = flat_state(index)
        mags = rng.uniform(*spec.vmag_range, size=index.nbus)
        angs = np.radians(rng.uniform(*spec.vang_range_deg, size=index.nbus))
        state.set_voltages(mags * np.exp(1j * (angs + PHASE_OFFSETS[network.domain][:, None])))
        return state
    if spec.kind == "warm":
        if spec.state is None:
            raise ValueError("warm start needs a state")
        if spec.state.x.shape[0] != index.dim:
            raise ValueError("warm-start state dimension mismatch")
        return StateVector(spec.state.x.copy(), index)
    if spec.kind == "file":
        from .caseio import read_solution_json

        with open(spec.path, "r", encoding="utf-8") as fh:
            doc = read_solution_json(fh.read())
        state = flat_state(index)
        phase_pos = {name: ph for ph, name in enumerate(network.domain.phases)}
        v = state.v_complex()
        for rec in doc["buses"]:
            bus, phase = int(rec["bus"]), rec["phase"]
            if bus not in network.bus_index or phase not in phase_pos:
                raise ValueError(f"the case has no bus {bus} phase {phase!r}")
            v[phase_pos[phase], network.bus_index[bus]] = complex(
                float(rec["vr_pu"]), float(rec["vi_pu"])
            )
        state.set_voltages(v)
        return state
    raise ValueError(f"unknown init kind {spec.kind!r}")


def transfer_state(
    old: StateVector, new_network: Network, new_index: IndexMap
) -> StateVector:
    """Map a state onto another network by bus/generator identity (warm starts
    across contingencies, where devices may have disappeared)."""
    old_index = old.index
    state = flat_state(new_index)
    kept = [b for b in new_network.bus_index if b in old_index.bus_index]
    new_pos = [new_network.bus_index[b] for b in kept]
    old_pos = [old_index.bus_index[b] for b in kept]
    for new_idx, old_idx in zip(new_index.voltage_indices(), old_index.voltage_indices()):
        state.x[new_idx[:, new_pos]] = old.x[old_idx[:, old_pos]]
    # Q slots by generator id: one gather of the machines both maps regulate
    old_slot = {old_index.generators[k].id: n for n, k in enumerate(old_index.vc_gen_positions)}
    new_ids = [new_index.generators[k].id for k in new_index.vc_gen_positions]
    both = [n for n, gid in enumerate(new_ids) if gid in old_slot]
    nph = new_index.nphase
    new_q = new_index.q_rows.reshape(-1, nph)[both]
    old_q = old_index.q_rows.reshape(-1, nph)[[old_slot[new_ids[n]] for n in both]]
    state.x[new_q] = old.x[old_q]
    return state


# ---------------------------------------------------------------------------
# Outer-loop device enforcement


def _bus_vmag(state: StateVector) -> np.ndarray:
    """Voltage magnitude per bus position, the mean over its phases."""
    return np.abs(state.v_complex()).mean(axis=0)


def _enforce_q_limits(network, index, state, modes, frozen, events, pass_no, tol):
    """Pin free Q-slot lanes outside their band and release pinned lanes
    whose regulated bus crossed its set-point in the relieving direction:
    one array pass finds them, then each moves in lane order with its event.

    A release reverses the lane's pin, so it freezes the lane (``frozen``,
    per lane) for the remaining passes. Returns whether a lane moved.
    """
    nph = index.nphase
    gens = [network.generators[k] for k in index.vc_gen_positions]
    if not gens:
        return False
    targets = [network.bus_index[g.target_bus()] for g in gens]
    lanes = [(g.qmin, g.qmax, network.buses[t].v_set) for g, t in zip(gens, targets)]
    qmin, qmax, vset = np.array(lanes, dtype=float).repeat(nph, axis=0).T
    v = _bus_vmag(state)[targets].repeat(nph)
    q = state.x[index.q_rows]
    free = ~(modes.pinned | frozen)
    high = free & (q > qmax + tol)
    low = free & ~high & (q < qmin - tol)
    q_pin = modes.q_pin
    # a frozen lane is free: it froze at its release
    release = modes.pinned & (
        ((q_pin == qmax) & (v > vset + tol)) | ((q_pin == qmin) & (v < vset - tol))
    )
    moved = np.flatnonzero(high | low | release).tolist()
    for n in moved:
        gen = gens[n // nph]
        if release[n]:
            action, value = "release", float(q_pin[n])
            modes.pinned[n], frozen[n] = False, True
        else:
            action, value = ("pin_qmax", gen.qmax) if high[n] else ("pin_qmin", gen.qmin)
            modes.pinned[n] = True
            q_pin[n] = state.x[index.q_rows[n]] = value
        events.append({"pass": pass_no, "device": f"gen {gen.id}", "phase": n % nph,
                       "action": action, "value": value})
    return bool(moved)


def _record_move(key, direction, last_move, frozen):
    """Record a device's move; one against its last move freezes it."""
    if last_move.get(key, direction) != direction:
        frozen.add(key)
    last_move[key] = direction


def _adjust_shunts(network, state, frozen, last_move, events, pass_no):
    """Step switchable shunt blocks toward their voltage band; returns the
    shunt tuple with new ``blocks_on`` (``network.shunts`` itself when none moved)."""
    vmag = _bus_vmag(state)
    shunts = list(network.shunts)
    moved = False
    for k, sh in enumerate(network.shunts):
        if not sh.switchable or sh.block_b is None:
            continue
        key = ("shunt", sh.id)
        if key in frozen:
            continue
        v = vmag[network.bus_index[sh.bus]]
        direction = 0
        capacitive = float(sh.block_b[0]) > 0
        if v < sh.v_lo:
            direction = 1 if capacitive else -1
        elif v > sh.v_hi:
            direction = -1 if capacitive else 1
        new_blocks = min(max(sh.blocks_on + direction, 0), sh.max_blocks)
        if new_blocks != sh.blocks_on:
            shunts[k] = replace(sh, blocks_on=new_blocks)
            moved = True
            events.append(
                {"pass": pass_no, "device": f"shunt {sh.id}", "action": "blocks",
                 "value": new_blocks}
            )
            _record_move(key, direction, last_move, frozen)
    return tuple(shunts) if moved else network.shunts


def _adjust_taps(network, state, frozen, last_move, events, pass_no):
    """Step controlled taps toward their voltage target; returns the
    transformer tuple with new ``tap`` (``network.transformers`` itself when
    none moved)."""
    vmag = _bus_vmag(state)
    xfmrs = list(network.transformers)
    moved = False
    for k, tx in enumerate(network.transformers):
        if tx.controlled_bus is None:
            continue
        key = ("tap", tx.id)
        if key in frozen:
            continue
        target = tx.v_target
        if target is None:
            target = network.bus(tx.controlled_bus).v_set
        if target is None:
            continue
        v = vmag[network.bus_index[tx.controlled_bus]]
        direction = 0.0
        if v < target - TAP_DEADBAND:
            direction = -tx.tap_step  # lower tap raises the regulated side
        elif v > target + TAP_DEADBAND:
            direction = tx.tap_step
        if direction == 0.0:
            continue
        new_tap = np.clip(tx.tap + direction, tx.tap_min, tx.tap_max)
        if not np.array_equal(new_tap, tx.tap):
            new_tap.setflags(write=False)
            xfmrs[k] = replace(tx, tap=new_tap)
            moved = True
            events.append(
                {"pass": pass_no, "device": f"xfmr {tx.id}", "action": "tap",
                 "value": float(new_tap[0])}
            )
            _record_move(key, direction, last_move, frozen)
    return tuple(xfmrs) if moved else network.transformers


# ---------------------------------------------------------------------------
# The driver


class InvalidNetworkError(ValueError):
    """A network failed ``validate``; ``issues`` holds what it reported."""

    def __init__(self, issues):
        super().__init__("invalid network: " + "; ".join(str(i) for i in issues))
        self.issues = issues


def solve_setup(network: Network):
    """The index map, companion layout and base parameters of ``network``:
    built by its first solve and kept on it for every later one.

    The first call validates the network and raises
    :class:`InvalidNetworkError` listing every issue before it builds
    anything; a network object that passed is not validated again.
    """
    if network._setup is None:
        issues = validate(network)
        if issues:
            raise InvalidNetworkError(issues)
        index = IndexMap(network)
        # taps and shunt blocks only bind values: one layout serves every pass
        setup = (index, build_companion(network, index), effective_params(network))
        object.__setattr__(network, "_setup", setup)
    return network._setup


def solve(network: Network, options: SolverOptions | None = None):
    """Run the full pipeline; returns ``(SolveReport, StateVector)``.

    Raises ``ValueError`` when the network is invalid (:func:`solve_setup`).
    """
    if options is None:
        options = SolverOptions()

    t0 = time.perf_counter()
    index, layout, params = solve_setup(network)
    bound = layout.bind(params)
    modes = GenModes.initial(index)
    system = SparseSystem(index.dim)

    state = initialize_state(network, options.init, index)
    report = SolveReport(status=DIVERGED)
    operated = network  # carries the outer loop's taps and shunt blocks
    q_frozen = np.zeros(index.q_rows.size, dtype=bool)
    frozen: set = set()  # shunts and taps, by key
    last_move: dict = {}  # their last move direction, by key
    events: list = []
    total_inner = 0
    homotopy_steps = 0
    lam_trace: list = []
    nr_trace: list = []
    status = DIVERGED
    pass_no = 0

    for pass_no in range(1, options.outer_max_passes + 1):
        ok = False
        # continuation opens the first pass; later passes re-solve plainly and
        # continue again only when devices moved and Newton stalled
        if options.homotopy == "none" or pass_no > 1:
            try:
                state_new, ok, iters, _ = run_newton(
                    bound, state, options.nr, modes, system, nr_trace
                )
                total_inner += iters
            except SingularityError:
                ok = False
            if ok:
                state = state_new
        if not ok and options.homotopy != "none":
            hres = run_homotopy(
                layout, params, anchored_state(network, index), options.homotopy,
                options.nr, options.gamma, modes, system, nr_trace,
            )
            total_inner += hres.inner_iterations
            homotopy_steps += hres.steps
            lam_trace = hres.accepted
            ok = hres.converged
            if ok:
                state = hres.state
            else:
                report.last_lambda = hres.last_good_lambda
        if not ok:
            status = DIVERGED
            break

        changed = False
        if options.enforce_q_limits:
            changed |= _enforce_q_limits(
                operated, index, state, modes, q_frozen, events, pass_no, 10 * options.nr.tol
            )
        devices = {}
        if options.adjust_shunts:
            shunts = _adjust_shunts(operated, state, frozen, last_move, events, pass_no)
            if shunts is not operated.shunts:
                devices["shunts"] = shunts
        if options.adjust_taps:
            xfmrs = _adjust_taps(operated, state, frozen, last_move, events, pass_no)
            if xfmrs is not operated.transformers:
                devices["transformers"] = xfmrs
        if devices:
            operated = operated.with_devices(**devices)
            params = effective_params(operated)
            bound = layout.bind(params)
            changed = True
        if not changed:
            status = CONVERGED
            break
    else:
        status = INFEASIBLE

    report.status = status
    report.inner_iterations = total_inner
    report.homotopy_steps = homotopy_steps
    report.outer_passes = pass_no
    report.switch_events = events
    report.lambda_trace = lam_trace
    report.nr_trace = nr_trace
    report.network = operated

    if status == CONVERGED:
        # ``system`` still holds the assembly the last Newton pass measured
        report.max_kcl_residual, report.max_constraint_residual = check_convergence(
            layout, system, state
        )
    report.wall_time_s = time.perf_counter() - t0
    v = state.v_complex()
    report.vmag = np.abs(v)
    report.vang_deg = np.degrees(np.angle(v))
    return report, state


# ---------------------------------------------------------------------------
# Independent solution validation (admittance-matrix mismatch equations)


@dataclass
class MismatchReport:
    domain: PhaseDomain
    max_p: float = 0.0
    max_q: float = 0.0
    max_i: float = 0.0
    per_bus: np.ndarray | None = None  # max mismatch magnitude per bus

    @property
    def max(self) -> float:
        return max(self.max_p, self.max_q, self.max_i)


def _device_injections(network: Network, state: StateVector) -> np.ndarray:
    """Net complex current injected by sources minus loads, per (phase, bus)."""
    n = network.nbus
    nph = network.nphase
    v = state.v_complex()  # (nph, n)
    inj = np.zeros((nph, n), dtype=complex)
    gen_q = state.gen_q()
    for gen, q in zip(network.generators, gen_q):
        k = network.bus_index[gen.bus]
        for ph in range(nph):
            s = complex(float(gen.p[ph]), float(q[ph]))
            inj[ph, k] += np.conj(s / v[ph, k])
    for ld in network.zip_loads:
        k = network.bus_index[ld.bus]
        if ld.connection == Connection.WYE:
            for ph in range(nph):
                u = v[ph, k]
                inj[ph, k] -= _zip_complex_current(ld.y[ph], ld.i[ph], ld.s[ph], u)
        else:
            for d, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
                u = v[a, k] - v[b, k]
                i_d = _zip_complex_current(ld.y[d], ld.i[d], ld.s[d], u)
                inj[a, k] -= i_d
                inj[b, k] += i_d
    for ld in network.big_loads:
        k = network.bus_index[ld.bus]
        for ph in range(nph):
            inj[ph, k] -= complex(ld.alpha[ph]) + complex(ld.y[ph]) * v[ph, k]
    return inj


def _zip_complex_current(y, ic, s, u: complex) -> complex:
    y = complex(y)
    ic = complex(ic)
    s = complex(s)
    i = y * u
    if s != 0:
        i += np.conj(s) * u / (abs(u) ** 2)
    if ic != 0:
        i += np.conj(ic) * u / abs(u)
    return i


def validate_solution(network: Network, state: StateVector) -> MismatchReport:
    """Mismatch of the candidate solution against the admittance-matrix
    network equations, coded independently of the stamping path.

    Positive sequence reports power mismatches, three phase current
    mismatches; slack buses are excluded (their injection is free).
    """
    n = network.nbus
    nph = network.nphase
    v = state.v_complex()
    i_net = (build_ybus(network) @ v.reshape(-1)).reshape(nph, n)  # phase-major nodes
    inj = _device_injections(network, state)
    slack_pos = {network.bus_index[b.id] for b in network.slack_buses()}
    keep = np.array([k not in slack_pos for k in range(n)])

    if network.domain == PhaseDomain.POSITIVE_SEQUENCE:
        ds = v[0] * np.conj(inj[0]) - v[0] * np.conj(i_net[0])
        max_p = float(np.max(np.abs(ds.real[keep]))) if keep.any() else 0.0
        max_q = float(np.max(np.abs(ds.imag[keep]))) if keep.any() else 0.0
        return MismatchReport(network.domain, max_p=max_p, max_q=max_q, per_bus=np.abs(ds))

    per_bus = np.max(np.abs(inj - i_net), axis=0)
    max_i = float(np.max(per_bus[keep])) if keep.any() else 0.0
    return MismatchReport(network.domain, max_i=max_i, per_bus=per_bus)
