"""Unknown/equation numbering for the nodal system.

Voltages are stored phase-major: all of phase a, then b, then c, each phase
block holding ``(V_R, V_I)`` pairs in bus order. Auxiliary unknowns follow:
two injection-current variables per slack bus and phase, then one reactive
power slot per voltage-controlling generator and phase. Row k is the equation
naturally paired with unknown k (KCL for voltage unknowns, the source/control
constraint for auxiliaries), so the assembled system is square by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import BusKind, Network, PHASE_OFFSETS

__all__ = ["IndexMap", "StateVector"]


class IndexMap:
    """Bijection between (device, phase) unknowns and 0..dim-1.

    Stable for the lifetime of one network: Q slots exist for every
    voltage-controlling generator whether or not its limit is currently
    binding, so the dimension never changes between solver passes. It keeps
    of the network only what reading a state needs (``domain``,
    ``bus_index`` and ``generators``), never the network itself.
    """

    def __init__(self, network: Network):
        self.domain = network.domain
        self.bus_index = network.bus_index
        self.generators = network.generators
        nb = network.nbus
        nph = network.nphase
        self.nbus = nb
        self.nphase = nph
        nv = 2 * nb * nph

        self.slack_positions = tuple(
            k for k, b in enumerate(network.buses) if b.kind == BusKind.SLACK
        )
        # A magnitude constraint on a slack bus duplicates the source's own
        # pinning rows and would make the system singular, so generators
        # regulating a slack bus get no Q slot (the source supplies them).
        slack_ids = {network.buses[k].id for k in self.slack_positions}
        self.vc_gen_positions = tuple(
            k
            for k, g in enumerate(network.generators)
            if g.controls_voltage and g.target_bus() not in slack_ids
        )

        # slack current variables: per slack (in position order), per phase, (I_R, I_I)
        self._slack_base = nv
        # generator Q variables: per vc-gen, per phase
        self._q_base = nv + 2 * len(self.slack_positions) * nph
        self.dim = self._q_base + len(self.vc_gen_positions) * nph

        self._slack_slot = {p: n for n, p in enumerate(self.slack_positions)}
        self._q_slot = {p: n for n, p in enumerate(self.vc_gen_positions)}

    # -- voltage unknowns ---------------------------------------------------
    def vr(self, bus_pos: int, ph: int) -> int:
        return ph * 2 * self.nbus + 2 * bus_pos

    def vi(self, bus_pos: int, ph: int) -> int:
        return ph * 2 * self.nbus + 2 * bus_pos + 1

    # -- auxiliary unknowns ---------------------------------------------------
    def slack_ir(self, bus_pos: int, ph: int) -> int:
        return self._slack_base + 2 * (self._slack_slot[bus_pos] * self.nphase + ph)

    def slack_ii(self, bus_pos: int, ph: int) -> int:
        return self.slack_ir(bus_pos, ph) + 1

    def q_gen(self, gen_pos: int, ph: int) -> int:
        return self._q_base + self._q_slot[gen_pos] * self.nphase + ph

    def has_q_slot(self, gen_pos: int) -> bool:
        return gen_pos in self._q_slot

    # -- bulk views -----------------------------------------------------------
    def voltage_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """(vr, vi) index arrays of shape (nphase, nbus)."""
        bus = np.arange(self.nbus)
        phs = np.arange(self.nphase)[:, None]
        vr = phs * 2 * self.nbus + 2 * bus[None, :]
        return vr, vr + 1


@dataclass
class StateVector:
    """Flat unknown vector plus the map that interprets it."""

    x: np.ndarray
    index: IndexMap

    def copy(self) -> "StateVector":
        return StateVector(self.x.copy(), self.index)

    # -- voltages -------------------------------------------------------------
    def v_complex(self) -> np.ndarray:
        """Complex node voltages, shape (nphase, nbus)."""
        vr, vi = self.index.voltage_indices()
        return self.x[vr] + 1j * self.x[vi]

    def v_mag(self) -> np.ndarray:
        return np.abs(self.v_complex())

    def v_ang(self) -> np.ndarray:
        return np.angle(self.v_complex())

    def set_voltage(self, bus_pos: int, ph: int, v: complex) -> None:
        self.x[self.index.vr(bus_pos, ph)] = v.real
        self.x[self.index.vi(bus_pos, ph)] = v.imag

    def set_voltages(self, v: np.ndarray) -> None:
        """Write every node voltage; ``v`` broadcasts to (nphase, nbus)."""
        vr, vi = self.index.voltage_indices()
        self.x[vr] = v.real
        self.x[vi] = v.imag

    # -- generator reactive power ----------------------------------------------
    def q_gen(self, gen_pos: int, ph: int) -> float:
        return self.x[self.index.q_gen(gen_pos, ph)]

    def gen_q_per_phase(self, gen_pos: int) -> np.ndarray:
        """Reactive output of a generator, from slot or fixed data.

        Slotless regulating machines (those targeting a slack bus) report 0;
        their reactive support is part of the slack injection.
        """
        gen = self.index.generators[gen_pos]
        if self.index.has_q_slot(gen_pos):
            return np.array([self.q_gen(gen_pos, ph) for ph in range(self.index.nphase)])
        if gen.q is None:
            return np.zeros(self.index.nphase)
        return np.asarray(gen.q, dtype=float)


def flat_state(index: IndexMap) -> StateVector:
    """V = 1 at the balanced reference angles everywhere, all auxiliaries 0."""
    state = StateVector(np.zeros(index.dim), index)
    state.set_voltages(np.exp(1j * PHASE_OFFSETS[index.domain])[:, None])
    return state
