"""Unknown/equation numbering for the nodal system.

The state ``x`` holds three contiguous blocks. First the node voltages,
``nv`` floats: node ``k = ph * nbus + pos`` (phase-major, bus position
within a phase) keeps ``V_R`` at ``2k`` and ``V_I`` at ``2k + 1``, so the
block read as complex numbers is the voltage of every node, and
:attr:`StateVector.v` is that view, shaped (nphase, nbus). Then two
injection-current variables ``(I_R, I_I)`` per slack bus and phase, slack
buses in position order. Last, one reactive power slot per
voltage-controlling generator and phase. Row k is the equation naturally
paired with unknown k (KCL for voltage unknowns, the source/control
constraint for auxiliaries), so the assembled system is square by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import BusKind, Network, PHASE_OFFSETS

__all__ = ["IndexMap", "StateVector"]


class IndexMap:
    """The numbering of one network's unknowns 0..dim-1, in the three blocks
    the module docstring describes.

    Stable for the lifetime of one network: Q slots exist for every
    voltage-controlling generator whether or not its limit is currently
    binding, so the dimension never changes between solver passes. Every
    layer addresses a Q slot by its lane, a (generator, phase) pair in
    ``vc_gen_positions`` order; ``q_rows`` holds the unknown (and the
    constraint row) of each lane, the contiguous tail of the state. It keeps
    of the network only what reading a state needs (``domain``,
    ``bus_index`` and ``generators``), never the network itself.
    """

    def __init__(self, network: Network):
        self.domain = network.domain
        self.bus_index = network.bus_index
        self.generators = network.generators
        self.nbus = network.nbus
        self.nphase = nph = network.nphase
        self.nv = 2 * self.nbus * nph  # the voltage block, x[:nv]

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

        # generator Q variables, the tail of the unknowns after the slack
        # currents: one per Q-slot lane, a (vc-gen, phase) pair in
        # vc_gen_positions order
        q_base = self.nv + 2 * len(self.slack_positions) * nph
        self.dim = q_base + len(self.vc_gen_positions) * nph
        self.q_rows = np.arange(q_base, self.dim)
        self.q_rows.setflags(write=False)


@dataclass
class StateVector:
    """Flat unknown vector plus the map that interprets it."""

    x: np.ndarray
    index: IndexMap

    def copy(self) -> "StateVector":
        return StateVector(self.x.copy(), self.index)

    # -- voltages -------------------------------------------------------------
    @property
    def v(self) -> np.ndarray:
        """Complex node voltages, shape (nphase, nbus): a writable view of
        the voltage block of ``x``."""
        index = self.index
        return self.x[: index.nv].view(complex).reshape(index.nphase, index.nbus)

    def v_complex(self) -> np.ndarray:
        """A copy of :attr:`v`."""
        return self.v.copy()

    def v_mag(self) -> np.ndarray:
        return np.abs(self.v)

    def v_ang(self) -> np.ndarray:
        return np.angle(self.v)

    # -- generator reactive power ----------------------------------------------
    def gen_q(self) -> np.ndarray:
        """Reactive output per (generator, phase): the Q slots of regulating
        machines, the fixed ``q`` of the others.

        Slotless regulating machines (those targeting a slack bus) report 0;
        their reactive support is part of the slack injection.
        """
        index = self.index
        q = np.zeros((len(index.generators), index.nphase))
        for k, gen in enumerate(index.generators):
            if gen.q is not None:
                q[k] = gen.q
        q[list(index.vc_gen_positions)] = self.x[index.q_rows].reshape(-1, index.nphase)
        return q


def polar_state(index: IndexMap, vmag, vang) -> StateVector:
    """Every node at ``vmag * exp(j(vang + phase offset))``, all auxiliaries 0;
    ``vmag`` and ``vang`` (radians) are scalars or per bus position."""
    state = StateVector(np.zeros(index.dim), index)
    state.v[...] = vmag * np.exp(1j * (vang + PHASE_OFFSETS[index.domain][:, None]))
    return state


def flat_state(index: IndexMap) -> StateVector:
    """V = 1 at the balanced reference angles everywhere, all auxiliaries 0."""
    return polar_state(index, 1.0, 0.0)
