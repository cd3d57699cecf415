"""End-to-end solve: inner Newton loop (optionally under continuation) plus
the outer device-limit loop adjusting generator Q limits, switched shunts and
controlled transformer taps until nothing moves.

The outer loop runs the inner solve, then enforces device limits one pass at
a time. Generators whose free reactive power leaves its band are pinned at
the violated limit (their bus drops to PQ); pinned machines are released when
the regulated voltage crosses the set-point in the relieving direction.
A device that reverses itself is frozen for the remaining passes so the loop
cannot oscillate forever; running out of passes reports Infeasible.

The set-up that depends only on the immutable :class:`Network` is built by
the first solve of a network object and kept on it for every later solve:
the :class:`IndexMap`, the companion layout with its pattern (whose
factorization plan the first factorization chooses, see ``linsys.py``) and
the base :class:`DeviceParams`. It lives in the network's private
``_setup`` slot, not in a module-level registry, so nothing keeps a network
alive; as the set-up refers back to its network, the cyclic garbage
collector frees the two together, unless the network was solved inside
``_solved_once``, which drops the set-up. A ``with_devices`` copy starts without
it, and every array it holds is read-only. ``validate`` still runs on every
solve, and the generator modes, the state and the :class:`SparseSystem`
are built per solve, so a solve's result does not depend on what was
solved before it.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .homotopy import run_homotopy
from .indexing import IndexMap, StateVector, flat_state
from .linsys import SingularityError, SparseSystem
from .network import Connection, Network, PHASE_OFFSETS, PhaseDomain, validate
from .nr import NrOptions, check_convergence, run_newton
from .reference import build_ybus
from .stamps import GEN_PINNED, GEN_VC, GenModes, build_companion, effective_params

__all__ = [
    "CONVERGED",
    "DIVERGED",
    "INFEASIBLE",
    "InitSpec",
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
    old_net = old_index.network
    state = flat_state(new_index)
    kept = [b for b in new_network.bus_index if b in old_net.bus_index]
    new_pos = [new_network.bus_index[b] for b in kept]
    old_pos = [old_net.bus_index[b] for b in kept]
    for new_idx, old_idx in zip(new_index.voltage_indices(), old_index.voltage_indices()):
        state.x[new_idx[:, new_pos]] = old.x[old_idx[:, old_pos]]
    old_gen_pos = {g.id: k for k, g in enumerate(old_net.generators)}
    for k, g in enumerate(new_network.generators):
        if not new_index.has_q_slot(k):
            continue
        ko = old_gen_pos.get(g.id)
        if ko is None or not old_index.has_q_slot(ko):
            continue
        for ph in range(new_index.nphase):
            state.x[new_index.q_gen(k, ph)] = old.x[old_index.q_gen(ko, ph)]
    return state


# ---------------------------------------------------------------------------
# Outer-loop device enforcement


def _target_vmag(network: Network, state: StateVector, bus_id: int) -> float:
    pos = network.bus_index[bus_id]
    v = state.v_complex()[:, pos]
    return float(np.mean(np.abs(v)))


def _enforce_q_limits(network, index, state, modes, frozen, events, pass_no, tol):
    changed = False
    for gen_pos in index.vc_gen_positions:
        gen = network.generators[gen_pos]
        vset = network.bus(gen.target_bus()).v_set
        for ph in range(index.nphase):
            key = ("qlim", gen.id, ph)
            if key in frozen:
                continue
            mode = modes.mode[gen_pos, ph]
            if mode == GEN_VC:
                q = state.q_gen(gen_pos, ph)
                if q > gen.qmax + tol:
                    action, limit = "pin_qmax", gen.qmax
                elif q < gen.qmin - tol:
                    action, limit = "pin_qmin", gen.qmin
                else:
                    continue  # inside the band: nothing moved, nothing to freeze
                modes.mode[gen_pos, ph] = GEN_PINNED
                modes.q_pin[gen_pos, ph] = limit
                state.x[index.q_gen(gen_pos, ph)] = limit
                events.append(
                    {"pass": pass_no, "device": f"gen {gen.id}", "phase": ph,
                     "action": action, "value": limit}
                )
                changed = True
            else:
                pin = modes.q_pin[gen_pos, ph]
                vmag = _target_vmag(network, state, gen.target_bus())
                release = (
                    (pin == gen.qmax and vmag > vset + tol)
                    or (pin == gen.qmin and vmag < vset - tol)
                )
                if release:
                    modes.mode[gen_pos, ph] = GEN_VC
                    events.append(
                        {"pass": pass_no, "device": f"gen {gen.id}", "phase": ph,
                         "action": "release", "value": pin}
                    )
                    changed = True
            # opposite-direction flip-flop: freeze at the current mode
            acts = [e["action"] for e in events
                    if e["device"] == f"gen {gen.id}" and e["phase"] == ph]
            if len(acts) >= 2 and acts[-1] != acts[-2]:
                frozen.add(key)
    return changed


def _adjust_shunts(network, state, frozen, events, pass_no):
    """Step switchable shunt blocks toward their voltage band; returns the
    shunt tuple with new ``blocks_on`` (``network.shunts`` itself when none moved)."""
    shunts = list(network.shunts)
    moved = False
    for k, sh in enumerate(network.shunts):
        if not sh.switchable or sh.block_b is None:
            continue
        key = ("shunt", sh.id)
        if key in frozen:
            continue
        vmag = _target_vmag(network, state, sh.bus)
        direction = 0
        capacitive = float(sh.block_b[0]) > 0
        if vmag < sh.v_lo:
            direction = 1 if capacitive else -1
        elif vmag > sh.v_hi:
            direction = -1 if capacitive else 1
        new_blocks = min(max(sh.blocks_on + direction, 0), sh.max_blocks)
        if new_blocks != sh.blocks_on:
            shunts[k] = replace(sh, blocks_on=new_blocks)
            moved = True
            events.append(
                {"pass": pass_no, "device": f"shunt {sh.id}", "action": "blocks",
                 "value": new_blocks}
            )
            dirs = [e["value"] for e in events if e["device"] == f"shunt {sh.id}"]
            if len(dirs) >= 3 and (dirs[-1] - dirs[-2]) * (dirs[-2] - dirs[-3]) < 0:
                frozen.add(key)
    return tuple(shunts) if moved else network.shunts


def _adjust_taps(network, state, frozen, events, pass_no):
    """Step controlled taps toward their voltage target; returns the
    transformer tuple with new ``tap`` (``network.transformers`` itself when
    none moved)."""
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
        vmag = _target_vmag(network, state, tx.controlled_bus)
        direction = 0.0
        if vmag < target - TAP_DEADBAND:
            direction = -tx.tap_step  # lower tap raises the regulated side
        elif vmag > target + TAP_DEADBAND:
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
            vals = [e["value"] for e in events if e["device"] == f"xfmr {tx.id}"]
            if len(vals) >= 3 and (vals[-1] - vals[-2]) * (vals[-2] - vals[-3]) < 0:
                frozen.add(key)
    return tuple(xfmrs) if moved else network.transformers


# ---------------------------------------------------------------------------
# The driver


def _setup(network: Network):
    """The index map, companion layout and base parameters of ``network``:
    built by its first solve and kept on it for every later one."""
    if network._setup is None:
        index = IndexMap(network)
        # taps and shunt blocks only bind values: one layout serves every pass
        setup = (index, build_companion(network, index), effective_params(network))
        object.__setattr__(network, "_setup", setup)
    return network._setup


@contextmanager
def _solved_once(network: Network):
    """The index of the set-up of a network that is solved once: the
    set-up is dropped on exit, so reference counting frees the network as
    soon as its caller lets go of it, where the cycle through the set-up
    would wait for the cyclic garbage collector."""
    try:
        yield _setup(network)[0]
    finally:
        object.__setattr__(network, "_setup", None)


def solve(network: Network, options: SolverOptions | None = None):
    """Run the full pipeline; returns ``(SolveReport, StateVector)``."""
    if options is None:
        options = SolverOptions()
    issues = validate(network)
    if issues:
        raise ValueError("invalid network: " + "; ".join(str(i) for i in issues))

    t0 = time.perf_counter()
    index, layout, params = _setup(network)
    bound = layout.bind(params)
    modes = GenModes.initial(network)
    system = SparseSystem(index.dim)

    state = initialize_state(network, options.init, index)
    report = SolveReport(status=DIVERGED)
    operated = network  # carries the outer loop's taps and shunt blocks
    frozen: set = set()
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
                layout, params, options.homotopy, options.nr, options.gamma,
                modes, system, nr_trace,
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
                operated, index, state, modes, frozen, events, pass_no, 10 * options.nr.tol
            )
        devices = {}
        if options.adjust_shunts:
            shunts = _adjust_shunts(operated, state, frozen, events, pass_no)
            if shunts is not operated.shunts:
                devices["shunts"] = shunts
        if options.adjust_taps:
            xfmrs = _adjust_taps(operated, state, frozen, events, pass_no)
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
    for gpos, gen in enumerate(network.generators):
        k = network.bus_index[gen.bus]
        q = state.gen_q_per_phase(gpos)
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
