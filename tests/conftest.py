import math
import os
from dataclasses import replace

import numpy as np
import pytest

from steadygrid.caseio import load_case
from steadygrid.linsys import SparseSystem
from steadygrid.network import (
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
    phase_array,
    series_y,
)
from steadygrid.nr import run_newton
from steadygrid.stamps import GenModes, assemble_system

CASE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "cases")

# Oracle corpus: every corpus case whose plain solve converges at tol 1e-10
# (all but hard_corridor), checked against the dense reference on every phase.
ORACLE_CASES = [
    "case2.net",
    "case2_twosol.net",
    "case3_ring.net",
    "case4_pv.net",
    "case5_mesh.net",
    "case9.net",
    "case14.net",
    "case12_radial.net",
    "case20_radial.net",
    "case30_mesh.net",
    "case56_mesh.net",
    "case196_mesh.net",
    "case_qlim.net",
    "case6_remote.net",
    "feeder8.json",
]

ALL_NET_CASES = [name for name in ORACLE_CASES if name.endswith(".net")] + ["hard_corridor.net"]


def case_path(name: str) -> str:
    return os.path.join(CASE_DIR, name)


@pytest.fixture(scope="session")
def cases_dir() -> str:
    return CASE_DIR


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


def assembled(bound, state, modes=None) -> SparseSystem:
    """The system of ``bound`` assembled undamped at ``state``, every Q slot
    free unless ``modes`` says otherwise."""
    if modes is None:
        modes = GenModes.initial(bound.layout.index)
    data, rhs = assemble_system(bound, state, 1.0, modes)
    system = SparseSystem(bound.layout.index.dim)
    system.assemble(bound.layout.pattern, data, rhs)
    return system


def newton(bound, state, options, trace=None):
    """``run_newton`` with every Q slot free, a fresh system and, unless
    ``trace`` is given, a fresh trace."""
    index = bound.layout.index
    trace = [] if trace is None else trace
    modes = GenModes.initial(index)
    return run_newton(bound, state, options, modes, SparseSystem(index.dim), trace)


def vr(index, pos: int, ph: int = 0) -> int:
    """Unknown (and KCL row) of ``V_R`` at bus position ``pos``, phase
    ``ph``: node ``ph * nbus + pos`` of the phase-major voltage block keeps
    ``V_R`` at twice its number and ``V_I`` right after it."""
    return 2 * (ph * index.nbus + pos)


def slack_ir(index, pos: int, ph: int = 0) -> int:
    """Unknown (and constraint row) of the source current ``I_R`` of the
    slack at bus position ``pos``, phase ``ph``; ``I_I`` follows it. The
    ``(I_R, I_I)`` pairs follow the voltage block, slack-major in position
    order."""
    return index.nv + 2 * (index.slack_positions.index(pos) * index.nphase + ph)


def residual_vector(bound, state, modes=None) -> np.ndarray:
    """Exact nonlinear residual F(x) via the companion identity A x - b."""
    system = assembled(bound, state, modes)
    return system.matrix @ state.x - system.rhs


def q_pins(events) -> dict:
    """Generator id -> pinned Q after replaying the outer loop's pin events."""
    pins = {}
    for e in events:
        if not e["device"].startswith("gen "):
            continue
        gid = int(e["device"].split()[1])
        if e["action"] in ("pin_qmax", "pin_qmin"):
            pins[gid] = e["value"]
        elif e["action"] == "release":
            pins.pop(gid, None)
    return pins


def make_branch(idx, f, t, r, x, b=0.0, nphase=1):
    return Branch(
        idx, f, t,
        y_series=series_y(r, x, nphase),
        b_from=phase_array(b / 2.0, nphase),
        b_to=phase_array(b / 2.0, nphase),
    )


def make_zip(idx, bus, nphase=1, connection=Connection.WYE, y=0.0, i=0.0, s=0.0):
    return ZipLoad(
        idx, bus, connection,
        y=phase_array(y, nphase, complex), i=phase_array(i, nphase, complex),
        s=phase_array(s, nphase, complex),
    )


def net_2bus(p=0.5, q=0.2, r=0.01, x=0.1, vset=1.0):
    buses = (Bus(1, BusKind.SLACK, 138.0, vset, 0.0), Bus(2, BusKind.PQ, 138.0))
    return Network(
        PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses,
        zip_loads=(make_zip(1, 2, s=complex(p, q)),),
        branches=(make_branch(1, 1, 2, r, x),),
    )


def net_linear():
    """slack + branch + BIG load: every device linear."""
    buses = (Bus(1, BusKind.SLACK, 138.0, 1.0, 0.0), Bus(2, BusKind.PQ, 138.0))
    big = BigLoad(1, 2, alpha=phase_array(0.3 + 0.1j, 1, complex),
                  y=phase_array(0.05 - 0.02j, 1, complex))
    return Network(
        PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses,
        big_loads=(big,),
        branches=(make_branch(1, 1, 2, 0.01, 0.1),),
    )


def net_3bus():
    buses = (
        Bus(1, BusKind.SLACK, 138.0, 1.02, 0.0),
        Bus(2, BusKind.PQ, 138.0),
        Bus(3, BusKind.PQ, 138.0, v_set=1.01),
    )
    gen = Generator(1, 3, p=phase_array(0.4, 1), q=None, qmin=-1.0, qmax=1.0)
    return Network(
        PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses,
        generators=(gen,),
        zip_loads=(make_zip(1, 2, s=0.6 + 0.2j, i=0.05 + 0.01j, y=0.02 - 0.01j),),
        branches=(make_branch(1, 1, 2, 0.02, 0.1, 0.02), make_branch(2, 2, 3, 0.02, 0.09)),
    )


def net_allparts():
    """Positive-sequence network touching every device type."""
    buses = (
        Bus(1, BusKind.SLACK, 138.0, 1.03, 0.0),
        Bus(2, BusKind.PQ, 138.0),
        Bus(3, BusKind.PQ, 138.0, v_set=1.0),
        Bus(4, BusKind.PQ, 138.0),
    )
    gen = Generator(1, 3, p=phase_array(0.5, 1), q=None, qmin=-2.0, qmax=2.0)
    genf = Generator(2, 4, p=phase_array(0.1, 1), q=phase_array(0.05, 1))
    tx = Transformer(
        1, 3, 4, y_series=series_y(0.005, 0.08), tap=phase_array(0.97, 1),
        shift=phase_array(math.radians(2.0), 1),
    )
    sh = Shunt(1, 2, g=phase_array(0.01, 1), b=phase_array(0.15, 1))
    big = BigLoad(1, 4, alpha=phase_array(0.08 + 0.02j, 1, complex),
                  y=phase_array(-0.02 + 0.01j, 1, complex))
    return Network(
        PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses,
        generators=(gen, genf),
        zip_loads=(
            make_zip(1, 2, y=0.03 - 0.012j, i=0.06 + 0.02j, s=0.45 + 0.18j),
            make_zip(2, 4, s=0.3 + 0.1j),
        ),
        big_loads=(big,),
        branches=(make_branch(1, 1, 2, 0.02, 0.1, 0.04), make_branch(2, 2, 3, 0.018, 0.09)),
        transformers=(tx,),
        shunts=(sh,),
    )


def net_tap(parallel=False):
    """Transformer regulating its under-voltage to-side bus by tap stepping;
    ``parallel`` adds a second 1-2 line (branch 2)."""
    buses = (
        Bus(1, BusKind.SLACK, 138.0, 1.0, 0.0),
        Bus(2, BusKind.PQ, 138.0),
        Bus(3, BusKind.PQ, 13.8),
    )
    branches = (make_branch(1, 1, 2, 0.01, 0.08),)
    if parallel:
        branches += (make_branch(2, 1, 2, 0.01, 0.08),)
    tx = Transformer(1, 2, 3, y_series=series_y(0.005, 0.1),
                     tap=phase_array(1.0, 1), shift=phase_array(0.0, 1),
                     tap_min=0.9, tap_max=1.1, tap_step=0.0125,
                     controlled_bus=3, v_target=1.0)
    return Network(
        PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses,
        zip_loads=(make_zip(1, 3, s=0.6 + 0.25j),),
        branches=branches, transformers=(tx,),
    )


def net_tap_fine():
    """``net_tap`` with the Transformer's own tap table and step, regulating
    bus 3 to 1.03 pu: the outer loop steps the tap 13 times."""
    net = net_tap()
    tx = replace(net.transformers[0], tap_min=0.8, tap_max=1.2, tap_step=0.00625, v_target=1.03)
    return net.with_devices(transformers=(tx,))


def net_switched_shunt():
    """Under-voltage load bus with a switchable capacitor bank, all blocks off."""
    buses = (Bus(1, BusKind.SLACK, 138.0, 1.0, 0.0), Bus(2, BusKind.PQ, 138.0))
    sh = Shunt(1, 2, g=phase_array(0.0, 1), b=phase_array(0.0, 1), switchable=True,
               block_b=phase_array(0.1, 1), max_blocks=4, blocks_on=0,
               v_lo=0.95, v_hi=1.05)
    return Network(
        PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses,
        zip_loads=(make_zip(1, 2, s=0.5 + 0.3j),),
        branches=(make_branch(1, 1, 2, 0.02, 0.15),),
        shunts=(sh,),
    )


def net_3phase():
    """Small unbalanced three-phase network with every load style."""
    buses = (
        Bus(1, BusKind.SLACK, 12.47, 1.0, 0.0),
        Bus(2, BusKind.PQ, 12.47),
        Bus(3, BusKind.PQ, 12.47),
    )
    br = Branch(
        1, 1, 2,
        y_series=coupled_line_y(0.01, 0.04, 0.002, 0.012),
        b_from=phase_array(0.0, 3), b_to=phase_array(0.0, 3),
    )
    tx = Transformer(
        1, 2, 3, y_series=series_y(0.005, 0.05, 3),
        tap=phase_array(1.0, 3), shift=phase_array(0.0, 3),
    )
    wye = ZipLoad(
        1, 2, Connection.WYE,
        y=phase_array([0.02 - 0.005j, 0.01 - 0.002j, 0.015 - 0.004j], 3, complex),
        i=phase_array([0.05 + 0.01j, 0.02 + 0.005j, 0.0], 3, complex),
        s=phase_array([0.15 + 0.05j, 0.25 + 0.08j, 0.1 + 0.02j], 3, complex),
    )
    delta = ZipLoad(
        2, 3, Connection.DELTA,
        y=phase_array([0.01 - 0.004j, 0.0, 0.0], 3, complex),
        i=phase_array([0.02 + 0.008j, 0.0, 0.01 + 0.002j], 3, complex),
        s=phase_array([0.1 + 0.03j, 0.05 + 0.01j, 0.12 + 0.04j], 3, complex),
    )
    big = BigLoad(
        1, 3,
        alpha=phase_array([0.03 + 0.01j, 0.02 + 0.005j, 0.04 + 0.012j], 3, complex),
        y=phase_array([-0.005 + 0.002j, -0.004 + 0.0015j, -0.006 + 0.0025j], 3, complex),
    )
    return Network(
        PhaseDomain.THREE_PHASE, 10.0, buses,
        zip_loads=(wye, delta), big_loads=(big,),
        branches=(br,), transformers=(tx,),
    )


def case196_tile(copies: int) -> Network:
    """``copies`` copies of case196 in one network, joined by 3 tie branches each.

    Copy ``c`` adds ``1000 c`` to every bus and device id. Copy 0 keeps the
    only slack. Every other copy's old slack bus becomes a load bus with a
    voltage-controlling machine at the slack's set-point and without Q limits,
    whose real power is the copy's net load at 1 pu, so the ties carry little
    power. Each copy after the first gets 3 ties (r = 0.01, x = 0.1 pu) from
    buses of its own to buses of the copies before it, drawn from seed 0.
    """
    base = load_case(case_path("case196_mesh.net")).network
    step = 1000
    slack = next(b for b in base.buses if b.kind == BusKind.SLACK)
    load_p = sum(float(z.s.real.sum() + z.i.real.sum() + z.y.real.sum()) for z in base.zip_loads)
    machine_p = load_p - sum(float(g.p.sum()) for g in base.generators)
    rng = np.random.default_rng(0)
    buses, gens, loads, branches = [], [], [], []
    for c in range(copies):
        off = c * step
        for b in base.buses:
            if c and b is slack:
                b = Bus(b.id, BusKind.PQ, b.base_kv, v_set=b.v_set)
            buses.append(replace(b, id=b.id + off))
        gens += [replace(g, id=g.id + off, bus=g.bus + off) for g in base.generators]
        if c:
            gens.append(Generator(step - 1 + off, slack.id + off, p=phase_array(machine_p, 1)))
        loads += [replace(z, id=z.id + off, bus=z.bus + off) for z in base.zip_loads]
        branches += [replace(br, id=br.id + off, from_bus=br.from_bus + off,
                             to_bus=br.to_bus + off) for br in base.branches]
        for t in range(3 if c else 0):
            own = base.buses[rng.integers(base.nbus)].id + off
            other = base.buses[rng.integers(base.nbus)].id + step * int(rng.integers(c))
            branches.append(make_branch(step - 1 - t + off, own, other, 0.01, 0.1))
    return Network(PhaseDomain.POSITIVE_SEQUENCE, base.base_mva, tuple(buses), tuple(gens),
                   tuple(loads), (), tuple(branches), (), (), name=f"case196_x{copies}")


def with_outer_devices(net, tap_from, shunt_bus):
    """``net`` plus a load bus fed through a voltage-controlled transformer
    and a switchable capacitor bank, so the outer loop moves taps and blocks."""
    nph = net.nphase
    new_bus = net.nbus + 1
    tx = Transformer(1, tap_from, new_bus, y_series=series_y(0.005, 0.1, nph),
                     tap=phase_array(1.0, nph), shift=phase_array(0.0, nph),
                     tap_min=0.9, tap_max=1.1, tap_step=0.0125,
                     controlled_bus=new_bus, v_target=1.0)
    sh = Shunt(len(net.shunts) + 1, shunt_bus, g=phase_array(0.0, nph),
               b=phase_array(0.0, nph), switchable=True, block_b=phase_array(0.05, nph),
               max_blocks=4, v_lo=0.98, v_hi=1.02)
    return net.with_devices(
        buses=net.buses + (Bus(new_bus, BusKind.PQ, 13.8),),
        zip_loads=net.zip_loads + (make_zip(len(net.zip_loads) + 1, new_bus, nph, s=0.4 + 0.2j),),
        transformers=(tx,),
        shunts=net.shunts + (sh,),
    )


def random_network(seed: int, domain=PhaseDomain.POSITIVE_SEQUENCE) -> Network:
    """Structurally valid random network for round-trip properties."""
    rng = np.random.default_rng(seed)
    nph = domain.nphase
    n = int(rng.integers(3, 9))
    buses = [Bus(1, BusKind.SLACK, 138.0, float(rng.uniform(0.98, 1.05)), 0.0)]
    for k in range(2, n + 1):
        buses.append(Bus(k, BusKind.PQ, 138.0))
    branches = []
    for k in range(2, n + 1):
        other = int(rng.integers(1, k))
        y = series_y(float(rng.uniform(0.005, 0.05)), float(rng.uniform(0.03, 0.2)), nph)
        branches.append(
            Branch(k - 1, other, k, y_series=y,
                   b_from=phase_array(float(rng.uniform(0, 0.02)), nph),
                   b_to=phase_array(float(rng.uniform(0, 0.02)), nph))
        )
    gens = []
    if rng.random() < 0.7:
        gbus = int(rng.integers(2, n + 1))
        buses[gbus - 1] = Bus(gbus, BusKind.PQ, 138.0, v_set=float(rng.uniform(0.99, 1.04)))
        gens.append(Generator(1, gbus, p=phase_array(float(rng.uniform(0.1, 0.6)), nph),
                              q=None, qmin=-2.0, qmax=2.0))
    loads = []
    for lid in range(1, int(rng.integers(1, 4)) + 1):
        conn = Connection.WYE
        if nph == 3 and rng.random() < 0.4:
            conn = Connection.DELTA
        loads.append(
            make_zip(lid, int(rng.integers(2, n + 1)), nph, conn,
                     y=complex(rng.uniform(0, 0.05), -rng.uniform(0, 0.02)),
                     i=complex(rng.uniform(0, 0.1), rng.uniform(0, 0.03)),
                     s=complex(rng.uniform(0.05, 0.4), rng.uniform(0, 0.15)))
        )
    shunts = ()
    if rng.random() < 0.5:
        shunts = (Shunt(1, int(rng.integers(2, n + 1)),
                        g=phase_array(0.0, nph), b=phase_array(float(rng.uniform(0, 0.1)), nph)),)
    return Network(domain, 100.0, tuple(buses), tuple(gens), tuple(loads), (),
                   tuple(branches), (), shunts)
