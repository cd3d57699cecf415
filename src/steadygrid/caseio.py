"""Case file parsing, and the writers of solutions and CSV tables.

Two input formats are supported (documented in ``docs/formats.md``):

* a whitespace-delimited positive-sequence text format with ``BUS``, ``GEN``,
  ``BRANCH``, ``TRANSFORMER``, ``SHUNT`` (plus optional ``ZIP``/``BIG``)
  sections, each terminated by ``END``, powers in MW/MVAr and impedances in
  per-unit — the usual tabular case layout;
* a three-phase JSON format keyed by ``base_mva, buses, generators, loads,
  branches, transformers, shunts`` with per-phase arrays and 3x3 admittance
  matrices in per-unit.

Everything is normalized to per-unit on the case MVA base during parsing and
angles are converted from degrees to radians. The one solution file is the
CSV of :func:`write_solution`; its values are written in full precision, so
:func:`read_solution` reads it back into the same voltages, bit for bit.
Every CSV output (solution, traces, sweep, contingency screen) is written by
:func:`write_table`.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .indexing import IndexMap, StateVector, flat_state
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
    phase_array,
    series_y,
    validate,
)

__all__ = [
    "CaseError",
    "CaseSyntaxError",
    "CaseSemanticError",
    "CaseFile",
    "parse_case",
    "load_case",
    "write_solution",
    "read_solution",
    "write_table",
]

SQRT3 = math.sqrt(3.0)


class CaseError(Exception):
    pass


class CaseSyntaxError(CaseError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CaseSemanticError(CaseError):
    def __init__(self, record: str, message: str):
        super().__init__(f"{record}: {message}")
        self.record = record


@dataclass
class CaseFile:
    network: Network
    name: str


def parse_case(text: str, name: str = "") -> Network:
    """Parse either supported format; the result always passes validate()."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        net = _parse_json3p(text, name)
    else:
        net = _parse_net(text, name)
    issues = validate(net)
    if issues:
        first = issues[0]
        raise CaseSemanticError(first.device, "; ".join(str(i) for i in issues))
    return net


def load_case(path: str) -> CaseFile:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    net = parse_case(text, name=path.rsplit("/", 1)[-1].rsplit(".", 1)[0])
    return CaseFile(network=net, name=net.name)


# ---------------------------------------------------------------------------
# Positive-sequence text format


def _col(toks: list[str], k: int, default, convert=float):
    """``convert`` of column ``k`` (from 0), or ``default`` when the record
    ends before it."""
    return convert(toks[k]) if len(toks) > k else default


def _opt(toks: list[str], k: int, default=None, convert=float):
    """``convert`` of the optional column ``k``, or ``default`` when the
    record ends before it or gives ``-``."""
    return convert(toks[k]) if len(toks) > k and toks[k] != "-" else default


def _net_bus(toks: list[str], base: float):
    """The bus of a BUS record, and the power of its bus-table load in
    per-unit (``None`` when it has none)."""
    kind = BusKind.SLACK if BusKind[toks[1].upper()] is BusKind.SLACK else BusKind.PQ
    va = _opt(toks, 6)
    bus = Bus(int(toks[0]), kind, float(toks[2]), v_set=_opt(toks, 5),
              angle=0.0 if va is None else math.radians(va))
    pd, qd = _col(toks, 3, 0.0), _col(toks, 4, 0.0)
    return bus, (complex(pd / base, qd / base) if pd != 0.0 or qd != 0.0 else None)


def _net_gen(toks: list[str], base: float):
    """The generator of a GEN record, and the set-point it gives its target
    bus (``None`` unless it regulates and gives one)."""
    q = toks[3]  # required: "-" marks a regulating machine
    gen = Generator(
        int(toks[0]), int(toks[1]), p=np.array([float(toks[2]) / base]),
        q=None if q == "-" else np.array([float(q) / base]),
        # an unlimited bound stays infinite on the per-unit base
        qmin=_opt(toks, 4, -math.inf) / base, qmax=_opt(toks, 5, math.inf) / base,
        remote_bus=_opt(toks, 7, None, int),
    )
    v_set = _opt(toks, 6)
    return gen, v_set if gen.q is None else None


def _net_branch(toks: list[str], base: float) -> Branch:
    half = phase_array(_col(toks, 5, 0.0) / 2.0, 1)  # the total charging, split per end
    return Branch(int(toks[0]), int(toks[1]), int(toks[2]),
                  y_series=series_y(float(toks[3]), float(toks[4])), b_from=half, b_to=half)


def _net_transformer(toks: list[str], base: float) -> Transformer:
    # the tap table fields the record gives; Transformer holds the defaults
    table = {k: float(t) for k, t in zip(("tap_min", "tap_max", "tap_step"), toks[7:10])}
    return Transformer(
        int(toks[0]), int(toks[1]), int(toks[2]),
        y_series=series_y(float(toks[3]), float(toks[4])),
        tap=phase_array(_col(toks, 5, 1.0), 1),
        shift=phase_array(math.radians(_col(toks, 6, 0.0)), 1),
        **table, controlled_bus=_opt(toks, 10, None, int), v_target=_opt(toks, 11),
    )


def _net_shunt(toks: list[str], base: float) -> Shunt:
    block = phase_array(_col(toks, 4, 0.0) / base, 1)  # read, so a bad token fails, if unused
    max_blocks = _col(toks, 5, 0, int)
    return Shunt(
        int(toks[0]), int(toks[1]),
        g=phase_array(float(toks[2]) / base, 1), b=phase_array(float(toks[3]) / base, 1),
        switchable=max_blocks > 0, block_b=block if max_blocks > 0 else None,
        max_blocks=max_blocks, blocks_on=_col(toks, 6, 0, int),
    )


def _net_zip(toks: list[str], base: float) -> ZipLoad:
    pz, qz, pi, qi, ps, qs = (float(t) / base for t in toks[2:8])
    return ZipLoad(int(toks[0]), int(toks[1]), Connection.WYE,
                   y=phase_array(complex(pz, -qz), 1, complex),
                   i=phase_array(complex(pi, qi), 1, complex),
                   s=phase_array(complex(ps, qs), 1, complex))


def _net_big(toks: list[str], base: float) -> BigLoad:
    ar, ai, g, b = (float(t) for t in toks[2:6])
    return BigLoad(int(toks[0]), int(toks[1]), alpha=phase_array(complex(ar, ai), 1, complex),
                   y=phase_array(complex(g, b), 1, complex))


# each section's record builder, in the order the sections are read
_NET_SECTIONS = {
    "BUS": _net_bus, "GEN": _net_gen, "BRANCH": _net_branch,
    "TRANSFORMER": _net_transformer, "SHUNT": _net_shunt, "ZIP": _net_zip, "BIG": _net_big,
}


def _net_section(section: str, records: list, base: float) -> list:
    """The builder of ``section`` on each ``(lineno, tokens)`` record. A
    column a record lacks or a token its conversion rejects (``r = x = 0``
    divides by zero) raises a :class:`CaseSyntaxError` at its line."""
    build = _NET_SECTIONS[section]
    out = []
    for lineno, toks in records:
        try:
            out.append(build(toks, base))
        except (KeyError, ValueError, IndexError, ZeroDivisionError):
            raise CaseSyntaxError(lineno, f"bad {section} record: {' '.join(toks)}") from None
    return out


def _with_set_points(buses: list, v_sets: dict) -> list:
    """``buses`` with the set-points (bus id -> pu) that regulating machines
    give them."""
    return [replace(b, v_set=v_sets[b.id]) if b.id in v_sets else b for b in buses]


def _parse_net(text: str, name: str) -> Network:
    base_mva = 100.0
    case_name = name
    section = None
    records: dict[str, list[tuple[int, list[str]]]] = {s: [] for s in _NET_SECTIONS}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0].upper()
        if section is None:
            if head == "CASE":
                case_name = " ".join(toks[1:])
            elif head == "BASE_MVA":
                try:
                    base_mva = float(toks[1])
                except (IndexError, ValueError):
                    raise CaseSyntaxError(lineno, "BASE_MVA needs one numeric value")
                if not 0 < base_mva < math.inf:  # every power is divided by it; nan fails too
                    raise CaseSyntaxError(lineno, f"BASE_MVA {base_mva} not finite and positive")
            elif head in records:
                section = head
            else:
                raise CaseSyntaxError(lineno, f"unexpected token {toks[0]!r}")
            continue
        if head == "END":
            section = None
            continue
        records[section].append((lineno, toks))
    if section is not None:
        raise CaseSyntaxError(len(text.splitlines()), f"section {section} missing END")

    got = {s: _net_section(s, recs, base_mva) for s, recs in records.items()}
    generators = [gen for gen, _ in got["GEN"]]
    buses = _with_set_points([bus for bus, _ in got["BUS"]], {
        gen.target_bus(): v_set for gen, v_set in got["GEN"] if v_set is not None
    })
    # bus-table loads are power-only ZIP loads, numbered after the ZIP records
    zip_loads = got["ZIP"]
    first_id = max((z.id for z in zip_loads), default=0) + 1
    loaded = [(bus.id, s) for bus, s in got["BUS"] if s is not None]
    zip_loads += [
        ZipLoad(zid, bid, Connection.WYE, y=phase_array(0.0, 1, complex),
                i=phase_array(0.0, 1, complex), s=phase_array(s, 1, complex))
        for zid, (bid, s) in enumerate(loaded, first_id)
    ]

    return Network(
        domain=PhaseDomain.POSITIVE_SEQUENCE,
        base_mva=base_mva,
        buses=tuple(buses),
        generators=tuple(generators),
        zip_loads=tuple(zip_loads),
        big_loads=tuple(got["BIG"]),
        branches=tuple(got["BRANCH"]),
        transformers=tuple(got["TRANSFORMER"]),
        shunts=tuple(got["SHUNT"]),
        name=case_name,
    )


# ---------------------------------------------------------------------------
# Three-phase JSON format


_REQUIRED = object()


class _JsonRecord:
    """One record of a three-phase JSON section, at ``where`` (say
    ``buses[0]``). A missing required field, or a field its conversion
    rejects, raises a :class:`CaseSemanticError` that names the record and
    the field."""

    def __init__(self, where: str, rec):
        if not isinstance(rec, dict):
            raise CaseSemanticError(where, f"expected an object, got {rec!r}")
        self.where, self.rec = where, rec

    def __call__(self, name: str, convert=float, default=_REQUIRED):
        """``convert`` of the field ``name``, or of ``default`` when the
        record omits it."""
        if name in self.rec:
            value = self.rec[name]
        elif default is _REQUIRED:
            raise CaseSemanticError(self.where, f"missing field {name!r}")
        else:
            value = default
        try:
            return convert(value)
        except (TypeError, ValueError) as exc:
            raise CaseSemanticError(self.where, f"bad field {name!r}: {exc}") from None

    def given(self, *names: str) -> dict:
        """The named fields that the record gives, as floats: a field it
        omits keeps its dataclass default."""
        return {name: self(name) for name in names if name in self.rec}

    def complex(self, re_name: str, im_name: str) -> np.ndarray:
        """The read-only complex array of two required fields."""
        arr = self(re_name, _floats) + 1j * self(im_name, _floats)
        arr.setflags(write=False)
        return arr


def _base(value) -> float:
    """The MVA base, which every power is divided by: finite and positive."""
    base = float(value)
    if not 0 < base < math.inf:  # nan fails too
        raise ValueError(f"{base} not finite and positive")
    return base


def _int(value) -> int:
    """An id, bus or count: a JSON number equal to an integer (``3`` or
    ``3.0``). A bool, a string, a list, ``NaN`` or any other number raises
    ``ValueError``."""
    if isinstance(value, float) and value.is_integer():  # inf and nan are not
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected an integer, got {value!r}")


def _or_none(convert):
    """``convert`` for a field that may be ``null``."""
    return lambda value: None if value is None else convert(value)


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _section(doc: dict, name: str, build) -> list:
    """``build`` of each record of the JSON section ``name``. A value that
    only a combination of fields rejects (per-phase arrays of another
    length, say) raises a :class:`CaseSemanticError` naming the record."""
    recs = doc.get(name, [])
    if not isinstance(recs, list):
        raise CaseSemanticError(name, "expected a list of records")
    out = []
    for pos, raw in enumerate(recs):
        rec = _JsonRecord(f"{name}[{pos}]", raw)
        try:
            out.append(build(rec))
        except ValueError as exc:
            raise CaseSemanticError(rec.where, str(exc)) from None
    return out


def _parse_json3p(text: str, name: str) -> Network:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseSyntaxError(exc.lineno, exc.msg)
    base = _JsonRecord("case", doc)("base_mva", _base, 100.0)
    nph = 3

    def per_unit(value) -> np.ndarray:
        return np.asarray(value, dtype=float) / base

    def per_phase(value) -> np.ndarray:
        return phase_array(value, nph)

    def per_phase_pu(value) -> np.ndarray:
        return phase_array(per_unit(value), nph)

    def q_limit(bound: float):
        return lambda value: bound if value is None else float(value) / base

    def bus(rec):
        kind = BusKind.SLACK if rec("kind", str.lower, "pq") == "slack" else BusKind.PQ
        return Bus(
            id=rec("id", _int),
            kind=kind,
            **rec.given("base_kv"),
            v_set=rec("v_set", _or_none(float), None),
            angle=math.radians(rec("angle_deg", float, 0.0)),
        )

    buses = _section(doc, "buses", bus)
    v_sets = {}  # bus id -> the set-point a regulating machine gives it

    def generator(rec):
        q = rec("q_mvar", _or_none(per_phase_pu), None)
        gen = Generator(
            id=rec("id", _int),
            bus=rec("bus", _int),
            p=rec("p_mw", per_phase_pu),
            q=q,
            qmin=rec("qmin_mvar", q_limit(-math.inf), None),
            qmax=rec("qmax_mvar", q_limit(math.inf), None),
            remote_bus=rec("remote_bus", _or_none(_int), None),
        )
        if q is None:
            v_set = rec("v_set", _or_none(float), None)
            if v_set is not None:
                v_sets[gen.target_bus()] = v_set
        return gen

    generators = _section(doc, "generators", generator)
    buses = _with_set_points(buses, v_sets)

    def load(rec):
        if rec("model", str.lower, "zip") == "big":
            return BigLoad(
                id=rec("id", _int),
                bus=rec("bus", _int),
                alpha=rec.complex("alpha_re_pu", "alpha_im_pu"),
                y=rec.complex("g_pu", "b_pu"),
            )
        delta = rec("connection", str.lower, "wye") == "delta"
        zero = [0.0] * nph
        pz, qz = rec("z_mw", per_unit, zero), rec("z_mvar", per_unit, zero)
        pi, qi = rec("i_mw", per_unit, zero), rec("i_mvar", per_unit, zero)
        ps, qs = rec("s_mw", per_unit, zero), rec("s_mvar", per_unit, zero)
        # Device-level quantities: delta branches see line-to-line voltage
        # (magnitude sqrt(3) at nominal), so powers given at nominal rescale.
        if delta:
            y = (pz - 1j * qz) / 3.0
            ic = (pi + 1j * qi) / SQRT3
        else:
            y = pz - 1j * qz
            ic = pi + 1j * qi
        s = ps + 1j * qs
        return ZipLoad(
            id=rec("id", _int), bus=rec("bus", _int),
            connection=Connection.DELTA if delta else Connection.WYE,
            y=phase_array(y, nph, complex), i=phase_array(ic, nph, complex),
            s=phase_array(s, nph, complex),
        )

    loads = _section(doc, "loads", load)

    def branch(rec):
        y = rec.complex("y_real_pu", "y_imag_pu")
        half = rec("b_charge_pu", _floats, [0.0] * nph) / 2.0
        return Branch(
            id=rec("id", _int), from_bus=rec("from", _int), to_bus=rec("to", _int),
            y_series=y, b_from=phase_array(half, nph), b_to=phase_array(half, nph),
        )

    def transformer(rec):
        return Transformer(
            id=rec("id", _int), from_bus=rec("from", _int), to_bus=rec("to", _int),
            y_series=rec.complex("y_real_pu", "y_imag_pu"),
            tap=rec("tap", per_phase, [1.0] * nph),
            shift=rec("shift_deg", lambda v: per_phase(np.radians(_floats(v))), [0.0] * nph),
            **rec.given("tap_min", "tap_max", "tap_step"),
            controlled_bus=rec("controlled_bus", _or_none(_int), None),
            v_target=rec("v_target", _or_none(float), None),
        )

    def shunt(rec):
        max_blocks = rec("max_blocks", _int, 0)
        return Shunt(
            id=rec("id", _int), bus=rec("bus", _int),
            g=rec("g_pu", per_phase, [0.0] * nph),
            b=rec("b_pu", per_phase, [0.0] * nph),
            switchable=max_blocks > 0,
            block_b=rec("block_b_pu", per_phase) if max_blocks > 0 else None,
            max_blocks=max_blocks,
            blocks_on=rec("blocks_on", _int, 0),
        )

    return Network(
        domain=PhaseDomain.THREE_PHASE,
        base_mva=base,
        buses=tuple(buses),
        generators=tuple(generators),
        zip_loads=tuple(d for d in loads if isinstance(d, ZipLoad)),
        big_loads=tuple(d for d in loads if isinstance(d, BigLoad)),
        branches=tuple(_section(doc, "branches", branch)),
        transformers=tuple(_section(doc, "transformers", transformer)),
        shunts=tuple(_section(doc, "shunts", shunt)),
        name=doc.get("name", name),
    )


# ---------------------------------------------------------------------------
# Solutions


_SOLUTION_FIELDS = ("bus", "phase", "vmag_pu", "vang_deg", "vr_pu", "vi_pu")


def write_solution(network: Network, state) -> str:
    """The solution CSV of a solved state: the ``_SOLUTION_FIELDS`` header,
    then one row per bus and phase, which :func:`read_solution` reads back."""
    index = state.index
    if index.dim != state.x.shape[0] or index.nbus != network.nbus:
        raise ValueError("state dimension does not match network")
    v = state.v
    rows = []
    for k, bus in enumerate(network.buses):
        for ph, ph_name in enumerate(network.domain.phases):
            vv = complex(v[ph, k])
            rows.append((bus.id, ph_name, abs(vv), math.degrees(math.atan2(vv.imag, vv.real)),
                         vv.real, vv.imag))
    return write_table(_SOLUTION_FIELDS, rows)


def write_table(header, rows) -> str:
    """CSV text of ``header`` and then each row, one line each. A field is
    written as its ``str``, which for a float is its shortest round-trip
    form, so every output table rereads bit for bit."""
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def read_solution(network: Network, text: str) -> StateVector:
    """The state of a :func:`write_solution` CSV on ``network``: each row's
    ``vr_pu + j vi_pu`` at its bus and phase, every other unknown (Q slots,
    source currents) at 0.

    Raises ``ValueError`` unless the header is ``_SOLUTION_FIELDS`` and every
    row has six fields, a ``bus`` written as a decimal integer, a bus and
    phase the case has, and voltages that read as floats, and then unless
    the rows give each bus and phase exactly once (the error names the first
    that breaks this, in bus order).
    """
    header, *rows = text.splitlines() or [""]
    if header != ",".join(_SOLUTION_FIELDS):
        raise ValueError(f"header {header!r} is not {','.join(_SOLUTION_FIELDS)}")
    state = flat_state(IndexMap(network))
    phase_pos = {name: ph for ph, name in enumerate(network.domain.phases)}
    given = np.zeros(state.v.shape, dtype=int)  # rows per (phase, bus)
    for lineno, row in enumerate(rows, start=2):
        fields = row.split(",")
        if len(fields) != len(_SOLUTION_FIELDS):
            raise ValueError(f"line {lineno}: {len(fields)} fields, not {len(_SOLUTION_FIELDS)}")
        bus, phase, _, _, vr, vi = fields
        # only decimal digits: int() also reads "+2", " 2" and "2_0"
        pos = network.bus_index.get(int(bus)) if re.fullmatch("-?[0-9]+", bus) else None
        if pos is None or phase not in phase_pos:
            raise ValueError(f"line {lineno}: the case has no bus {bus} phase {phase!r}")
        state.v[phase_pos[phase], pos] = complex(float(vr), float(vi))
        given[phase_pos[phase], pos] += 1
    if (given != 1).any():
        pos, ph = np.argwhere(given.T != 1)[0]
        bus, phase = network.buses[pos].id, network.domain.phases[ph]
        raise ValueError(f"bus {bus} phase {phase!r}: {given[ph, pos]} rows, not 1")
    return state
