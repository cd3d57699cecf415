"""End-to-end solve: inner Newton loop (optionally under continuation) plus
the outer device-limit loop adjusting generator Q limits, switched shunts and
controlled transformer taps until nothing moves.

The outer loop runs one inner solve per pass, then enforces device limits.
Every pass runs plain Newton from the previous pass's state (the initial
state on the first), except the first pass under ``tx`` or ``power``: from a
``warm`` start it tries plain Newton on the target problem and walks only
when that fails, and from any other start it walks at once. The walk, the
solve's one, starts at the anchored state whatever the start, and its
accepted steps are ``lambda_trace`` and number ``homotopy_steps``, which
stay empty and 0 when the warm try converged. A failed inner solve (a
failed walk, not a failed warm try) ends the solve diverged.
After each inner solve, Q limits act per Q-slot lane, a (generator, phase)
pair: one array pass over the lanes pins those whose free reactive power
leaves its band at the violated limit (their bus drops to PQ) and releases
pinned lanes whose regulated voltage crosses the set-point in the relieving
direction; events are recorded in lane order. Then one pass over the controls
steps each one move toward its band. The controls are what the case declares:
every switchable shunt bank (blocks) and every transformer with a controlled
bus and a target (tap), listed once per solve, banks first, each in device
order; no option turns them on or off. Every device freezes for the remaining
passes at its first reversal (a lane at its release, a control at its first
move against its last), so the loop cannot oscillate forever. That rule
bounds the passes: every pass but the last moves a device, a lane is pinned
at most once and released at most once, and a control steps at most across
its table (one more step for round-off at a bound) and then steps back once,
so a solve takes at most ``1 + 2 * lanes + sum(ceil((hi - lo) / |step|) + 2)``
passes, the sum over the controls and their tables ``[lo, hi]``. The loop
runs that many passes and no more; a solve that still moves a device on the
last one (only a broken freezing rule lets it) reports Infeasible.

The set-up that depends only on the immutable :class:`Network` is built by
the first solve of a network object and kept on it for every later solve
(:func:`solve_setup`): the :class:`IndexMap`, the companion layout with its
pattern (whose factorization plan the first factorization chooses, see
``linsys.py``) and the base :class:`DeviceParams`. ``validate`` runs once
per object, before the set-up is built, so an invalid network raises
:class:`InvalidNetworkError`, carrying the issues, before anything is laid
out. Neither verdict is reached twice: an invalid network keeps its issues
in place of the set-up and raises a fresh error on every solve. The set-up
lives in the network's private ``_setup`` slot, not in a module-level
registry, and refers to no network, so reference counting frees a network
with its set-up as soon as its last user lets go. A ``with_devices`` copy
starts without it, except that ``apply_outage`` gives a network without
some branches or transformers one derived from its base network's
(:func:`derive_outage_setup`); every array a set-up holds is read-only.
The Q-slot pins, the state and the :class:`SparseSystem` are built per
solve, so a solve's result does not depend on what was solved before it.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .homotopy import anchored_state, run_homotopy
from .indexing import IndexMap, StateVector, flat_state, polar_state
from .linsys import SparseSystem
from .network import Network, connectivity_issues, validate
from .nr import NrOptions, check_convergence, run_newton
from .stamps import GenModes, build_companion, effective_params

__all__ = [
    "CONVERGED",
    "DIVERGED",
    "INFEASIBLE",
    "InitSpec",
    "InvalidNetworkError",
    "SolverOptions",
    "SolveReport",
    "initialize_state",
    "solve",
]

CONVERGED = "converged"
DIVERGED = "diverged"
INFEASIBLE = "infeasible"

EXIT_CODES = {CONVERGED: 0, DIVERGED: 1, INFEASIBLE: 2}

# a controlled tap moves once its bus is this far (pu) from the target
TAP_DEADBAND = 0.01

# the uniform draws of a random start (and of each sweep sample): magnitude
# in pu, angle in degrees
START_VMAG = (0.9, 1.1)
START_VANG_DEG = (-40.0, 40.0)


def check_seed(seed) -> None:
    """Raise ``ValueError`` unless ``seed`` is ``None`` or an integer >= 0,
    the seeds numpy's generators take."""
    if seed is not None and not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


_INIT_KINDS = ("flat", "random", "uniform", "warm")


@dataclass
class InitSpec:
    """Where the initial state comes from.

    kinds: ``flat`` (1 pu at reference angles), ``random`` (per-bus uniform
    magnitude/angle samples from ``START_VMAG`` and ``START_VANG_DEG``),
    ``uniform`` (``vmag`` and ``vang_deg`` applied to every bus), ``warm``
    (copy ``state``, a prior state, such as one ``caseio.read_solution``
    read, every entry finite). ``seed`` is ``None`` or an integer >= 0;
    ``vmag`` and ``vang_deg`` are finite.

    Under ``tx`` and ``power`` a ``warm`` start is trusted: the first pass
    runs plain Newton from it on the target problem and walks the
    continuation from the anchored start only when that fails, so a warm
    start near one of several solutions returns that one. The other kinds
    are not read there: the first pass walks from the anchored start.
    """

    kind: str = "flat"
    seed: int | None = None
    vmag: float = 1.0
    vang_deg: float = 0.0
    state: StateVector | None = None

    def __post_init__(self):
        check_seed(self.seed)
        if self.kind not in _INIT_KINDS:
            raise ValueError(f"unknown init kind {self.kind!r}")
        if self.kind == "warm" and self.state is None:
            raise ValueError("warm start needs a state")
        if self.kind == "warm" and not np.isfinite(self.state.x).all():
            raise ValueError("warm start state must be finite")
        for name in ("vmag", "vang_deg"):
            if not -math.inf < getattr(self, name) < math.inf:  # nan fails too
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


@dataclass
class SolverOptions:
    nr: NrOptions = field(default_factory=NrOptions)
    homotopy: str = "none"  # none | tx | power
    init: InitSpec = field(default_factory=InitSpec)
    enforce_q_limits: bool = True

    def __post_init__(self):
        if self.homotopy not in ("none", "tx", "power"):
            raise ValueError(f"unknown homotopy method {self.homotopy!r}")


@dataclass
class SolveReport:
    status: str
    inner_iterations: int = 0
    homotopy_steps: int = 0
    outer_passes: int = 0
    switch_events: list = field(default_factory=list)
    # split only from a converged solve's last assembly, else None
    max_kcl_residual: float | None = None
    max_constraint_residual: float | None = None
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
        """Strict JSON: a non-finite value raises rather than writing ``NaN``."""
        return json.dumps(self.to_dict(), indent=1, allow_nan=False)


# ---------------------------------------------------------------------------
# Initial conditions


def initialize_state(network: Network, spec: InitSpec, index: IndexMap | None = None) -> StateVector:
    """Build the starting state; Q slots and source currents start at zero."""
    if index is None:
        index = IndexMap(network)
    if spec.kind == "flat":
        return flat_state(index)
    if spec.kind == "uniform":  # every bus at the same magnitude and angle
        return polar_state(index, spec.vmag, math.radians(spec.vang_deg))
    if spec.kind == "random":
        rng = np.random.default_rng(spec.seed)
        mags = rng.uniform(*START_VMAG, size=index.nbus)
        angs = np.radians(rng.uniform(*START_VANG_DEG, size=index.nbus))
        return polar_state(index, mags, angs)
    if spec.kind == "warm":
        if spec.state.x.shape[0] != index.dim:
            raise ValueError("warm-start state dimension mismatch")
        return StateVector(spec.state.x.copy(), index)
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
    state.v[:, new_pos] = old.v[:, old_pos]
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


# per family: the setting the loop steps, its event action and device label
_SETTINGS = {"shunts": ("blocks_on", "blocks", "shunt"), "transformers": ("tap", "tap", "xfmr")}


def _controls(network) -> list:
    """The devices the case declares controlled, as the outer loop steps
    them: every switchable shunt bank, then every transformer with a
    controlled bus, each in device order. A tap's target is its own
    ``v_target``, else the bus's ``v_set`` (``validate`` requires one).

    Each control is ``(family, position, bus, lo, hi, raise_step, bounds)``:
    the device at ``position`` in the network's ``family`` field regulates
    bus position ``bus`` into the band ``[lo, hi]``; a move of
    ``raise_step`` (blocks, or tap) raises that bus's voltage and
    ``-raise_step`` lowers it, within ``bounds`` of the setting.
    """
    idx = network.bus_index
    # a capacitive block (b > 0) raises its bus, so it is switched in to raise
    controls = [("shunts", k, idx[sh.bus], sh.v_lo, sh.v_hi,
                 1 if sh.block_b[0] > 0 else -1, (0, sh.max_blocks))
                for k, sh in enumerate(network.shunts) if sh.switchable]
    for k, tx in enumerate(network.transformers):
        if tx.controlled_bus is None:
            continue
        bus = idx[tx.controlled_bus]
        target = network.buses[bus].v_set if tx.v_target is None else tx.v_target
        # a lower tap raises the regulated side
        controls.append(("transformers", k, bus, target - TAP_DEADBAND,
                         target + TAP_DEADBAND, -tx.tap_step, (tx.tap_min, tx.tap_max)))
    return controls


def _step_controls(network, controls, state, moves, events, pass_no):
    """Step each control whose bus is outside its band one move toward it,
    clipped to its bounds, in list order; returns the network with the new
    settings (``network`` itself when none moved).

    ``moves`` holds each control's last move (+1 raise, -1 lower, 0 none
    yet); a move against the last one freezes the control (``None``) for
    the remaining passes.
    """
    if not controls:
        return network
    vmag = _bus_vmag(state)
    devices = {"shunts": list(network.shunts), "transformers": list(network.transformers)}
    first_event = len(events)
    for k, (family, position, bus, lo, hi, raise_step, bounds) in enumerate(controls):
        sign = 1 if vmag[bus] < lo else -1 if vmag[bus] > hi else 0
        if not sign or moves[k] is None:
            continue
        setting, action, label = _SETTINGS[family]
        dev = devices[family][position]
        old = getattr(dev, setting)
        new = np.clip(old + sign * raise_step, *bounds)
        if np.array_equal(new, old):
            continue
        # blocks stay a Python int, taps an array
        devices[family][position] = replace(dev, **{setting: new if new.ndim else new.item()})
        events.append({"pass": pass_no, "device": f"{label} {dev.id}", "action": action,
                       "value": new.item(0)})
        moves[k] = None if moves[k] == -sign else sign
    if len(events) == first_event:
        return network
    return network.with_devices(**{family: tuple(d) for family, d in devices.items()})


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

    The first call validates the network and builds nothing for an invalid
    one; either verdict is kept, so a network object is validated once, and
    every call on an invalid one raises a fresh :class:`InvalidNetworkError`
    listing its issues.
    """
    if network._setup is None:
        setup = validate(network)  # the issues, kept as the list they are
        if not setup:
            index = IndexMap(network)
            # taps and shunt blocks only bind values: one layout serves every
            # pass, and solve binds a parameter set when a Newton pass needs it
            setup = (index, build_companion(network, index), effective_params(network))
        object.__setattr__(network, "_setup", setup)
    if isinstance(network._setup, list):
        raise InvalidNetworkError(list(network._setup))
    return network._setup


def derive_outage_setup(base: Network, post: Network, branches, transformers) -> None:
    """Give ``post``, which is ``base`` without the branches and transformers
    at the positions ``branches`` and ``transformers``, the set-up of
    ``base`` (:func:`solve_setup`), so ``post`` is neither validated, laid
    out nor ordered again: the same index map, the layout without the
    removed devices' linear values over the same pattern and plan
    (:meth:`Companion.without_series`), and the base parameters without
    their rows.

    Every device of ``post`` is an immutable object ``base`` has passed, so
    only the checks that removing a series device can change run again
    (:func:`connectivity_issues`). When one fails, or ``base`` is invalid,
    nothing is given, and ``solve_setup(post)`` validates in full.
    """
    try:
        index, layout, params = solve_setup(base)
    except InvalidNetworkError:
        return
    if connectivity_issues(post):
        return
    branches = np.asarray(branches, dtype=np.intp)
    transformers = np.asarray(transformers, dtype=np.intp)
    removed = np.concatenate([branches, len(base.branches) + transformers])
    setup = (index, layout.without_series(removed), params.without_series(branches, transformers))
    object.__setattr__(post, "_setup", setup)


def solve(network: Network, options: SolverOptions | None = None):
    """Run the full pipeline; returns ``(SolveReport, StateVector)``.

    Raises ``ValueError`` when the network is invalid (:func:`solve_setup`).
    """
    if options is None:
        options = SolverOptions()

    t0 = time.perf_counter()
    index, layout, params = solve_setup(network)
    bound = None  # the binding of params, made when a plain Newton pass first needs it
    modes = GenModes.initial(index)
    system = SparseSystem(index.dim)

    state = initialize_state(network, options.init, index)
    report = SolveReport(status=DIVERGED)
    operated = network  # carries the outer loop's taps and shunt blocks
    q_frozen = np.zeros(index.q_rows.size, dtype=bool)
    controls = _controls(network)
    moves = [0] * len(controls)  # each control's last move, None once frozen
    # the freezing rule's bound (module docstring): a pass that moves nothing ends the loop
    passes = 1 + 2 * q_frozen.size + sum(
        math.ceil((hi - lo) / abs(step)) + 2 for *_, step, (lo, hi) in controls
    )
    events: list = []
    nr_trace: list = []
    status = DIVERGED
    pass_no = 0

    walks = options.homotopy != "none"
    for pass_no in range(1, passes + 1):
        ok = False
        if pass_no > 1 or not walks or options.init.kind == "warm":
            # plain Newton from the previous pass's state (or the start; a
            # warm one under continuation is tried before any walk)
            if bound is None or bound.params is not params:
                bound = layout.bind(params)
            solved, ok, _, _ = run_newton(bound, state, options.nr, modes, system, nr_trace)
        if not ok and pass_no == 1 and walks:
            # the solve's one continuation walk, from the anchored start
            # whatever the start, also after a failed warm try
            walk = run_homotopy(
                layout, params, anchored_state(network, index), options.homotopy,
                options.nr, modes, system, nr_trace,
            )
            report.homotopy_steps = len(walk.accepted)
            report.lambda_trace = walk.accepted
            if not walk.converged:
                report.last_lambda = walk.last_good_lambda
            solved, ok = walk.state, walk.converged
        if not ok:
            break
        state = solved

        changed = False
        if options.enforce_q_limits:
            changed |= _enforce_q_limits(
                operated, index, state, modes, q_frozen, events, pass_no, 10 * options.nr.tol
            )
        stepped = _step_controls(operated, controls, state, moves, events, pass_no)
        if stepped is not operated:
            operated = stepped
            params = effective_params(operated)
            changed = True
        if not changed:
            status = CONVERGED
            break
    else:
        status = INFEASIBLE

    report.status = status
    # every Newton call appends one trace row per iteration it counts
    report.inner_iterations = len(nr_trace)
    report.outer_passes = pass_no
    report.switch_events = events
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
