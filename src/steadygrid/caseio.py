"""Case file parsing and solution writing.

Two input formats are supported (documented in ``docs/formats.md``):

* a whitespace-delimited positive-sequence text format with ``BUS``, ``GEN``,
  ``BRANCH``, ``TRANSFORMER``, ``SHUNT`` (plus optional ``ZIP``/``BIG``)
  sections, each terminated by ``END``, powers in MW/MVAr and impedances in
  per-unit — the usual tabular case layout;
* a three-phase JSON format keyed by ``base_mva, buses, generators, loads,
  branches, transformers, shunts`` with per-phase arrays and 3x3 admittance
  matrices in per-unit.

Everything is normalized to per-unit on the case MVA base during parsing and
angles are converted from degrees to radians. Solution writers emit
full-precision values, so a written solution rereads exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

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
    phase_carray,
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
    "read_solution_json",
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
    format: str  # "net" or "json3p"
    path: str
    network: Network
    name: str
    base_mva: float


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
    name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    net = parse_case(text, name=name)
    fmt = "json3p" if text.lstrip().startswith("{") else "net"
    return CaseFile(format=fmt, path=path, network=net, name=net.name, base_mva=net.base_mva)


# ---------------------------------------------------------------------------
# Positive-sequence text format

_SECTIONS = ("BUS", "GEN", "BRANCH", "TRANSFORMER", "SHUNT", "ZIP", "BIG")


def _opt(tok: str) -> float | None:
    return None if tok == "-" else float(tok)


def _parse_net(text: str, name: str) -> Network:
    base_mva = 100.0
    case_name = name
    section = None
    records: dict[str, list[tuple[int, list[str]]]] = {s: [] for s in _SECTIONS}

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
            elif head in _SECTIONS:
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

    buses: list[Bus] = []
    zip_loads: list[ZipLoad] = []
    bus_loads: list[tuple[int, float, float]] = []

    for lineno, toks in records["BUS"]:
        try:
            bid = int(toks[0])
            kind = BusKind[toks[1].upper()] if toks[1].upper() != "SLACK" else BusKind.SLACK
            base_kv = float(toks[2])
            pd = float(toks[3]) if len(toks) > 3 else 0.0
            qd = float(toks[4]) if len(toks) > 4 else 0.0
            vset = _opt(toks[5]) if len(toks) > 5 else None
            va = _opt(toks[6]) if len(toks) > 6 else None
        except (KeyError, ValueError, IndexError):
            raise CaseSyntaxError(lineno, f"bad BUS record: {' '.join(toks)}")
        stored_kind = kind if kind == BusKind.SLACK else BusKind.PQ
        buses.append(
            Bus(
                id=bid,
                kind=stored_kind,
                base_kv=base_kv,
                v_set=vset,
                angle=math.radians(va) if va is not None else 0.0,
            )
        )
        if pd != 0.0 or qd != 0.0:
            bus_loads.append((bid, pd, qd))

    bus_vset: dict[int, float] = {b.id: b.v_set for b in buses if b.v_set is not None}

    generators: list[Generator] = []
    for lineno, toks in records["GEN"]:
        try:
            gid = int(toks[0])
            bus = int(toks[1])
            p = float(toks[2]) / base_mva
            qtok = toks[3]
            qmin = _opt(toks[4]) if len(toks) > 4 else None
            qmax = _opt(toks[5]) if len(toks) > 5 else None
            vset = _opt(toks[6]) if len(toks) > 6 else None
            remote = None
            if len(toks) > 7 and toks[7] != "-":
                remote = int(toks[7])
        except (ValueError, IndexError):
            raise CaseSyntaxError(lineno, f"bad GEN record: {' '.join(toks)}")
        q = None if qtok == "-" else np.array([float(qtok) / base_mva])
        generators.append(
            Generator(
                id=gid,
                bus=bus,
                p=np.array([p]),
                q=q,
                qmin=(qmin / base_mva) if qmin is not None else -math.inf,
                qmax=(qmax / base_mva) if qmax is not None else math.inf,
                remote_bus=remote,
            )
        )
        if q is None and vset is not None:
            bus_vset[remote if remote is not None else bus] = vset

    # re-materialize buses with any set-points contributed by generators
    buses = [
        Bus(b.id, b.kind, b.base_kv, bus_vset.get(b.id, b.v_set), b.angle) for b in buses
    ]

    branches: list[Branch] = []
    for lineno, toks in records["BRANCH"]:
        try:
            brid = int(toks[0])
            fb, tb = int(toks[1]), int(toks[2])
            y = series_y(float(toks[3]), float(toks[4]))
            b = float(toks[5]) if len(toks) > 5 else 0.0
        except (ValueError, IndexError, ZeroDivisionError):  # r = x = 0 divides by zero
            raise CaseSyntaxError(lineno, f"bad BRANCH record: {' '.join(toks)}")
        branches.append(
            Branch(brid, fb, tb, y_series=y,
                   b_from=phase_array(b / 2.0, 1), b_to=phase_array(b / 2.0, 1))
        )

    transformers: list[Transformer] = []
    for lineno, toks in records["TRANSFORMER"]:
        try:
            tid = int(toks[0])
            fb, tb = int(toks[1]), int(toks[2])
            y = series_y(float(toks[3]), float(toks[4]))
            tap = float(toks[5]) if len(toks) > 5 else 1.0
            shift = float(toks[6]) if len(toks) > 6 else 0.0
            # the tap table fields the record gives; Transformer holds the defaults
            table = {k: float(t) for k, t in zip(("tap_min", "tap_max", "tap_step"), toks[7:10])}
            ctrl = None
            if len(toks) > 10 and toks[10] != "-":
                ctrl = int(toks[10])
            vtgt = _opt(toks[11]) if len(toks) > 11 else None
        except (ValueError, IndexError, ZeroDivisionError):
            raise CaseSyntaxError(lineno, f"bad TRANSFORMER record: {' '.join(toks)}")
        transformers.append(
            Transformer(
                tid, fb, tb, y_series=y,
                tap=phase_array(tap, 1), shift=phase_array(math.radians(shift), 1),
                **table, controlled_bus=ctrl, v_target=vtgt,
            )
        )

    shunts: list[Shunt] = []
    for lineno, toks in records["SHUNT"]:
        try:
            sid = int(toks[0])
            bus = int(toks[1])
            g = float(toks[2]) / base_mva
            b = float(toks[3]) / base_mva
            block = float(toks[4]) / base_mva if len(toks) > 4 else 0.0
            max_blocks = int(toks[5]) if len(toks) > 5 else 0
            blocks_on = int(toks[6]) if len(toks) > 6 else 0
        except (ValueError, IndexError):
            raise CaseSyntaxError(lineno, f"bad SHUNT record: {' '.join(toks)}")
        shunts.append(
            Shunt(
                sid, bus, g=phase_array(g, 1), b=phase_array(b, 1),
                switchable=max_blocks > 0,
                block_b=phase_array(block, 1) if max_blocks > 0 else None,
                max_blocks=max_blocks, blocks_on=blocks_on,
            )
        )

    for lineno, toks in records["ZIP"]:
        try:
            zid = int(toks[0])
            bus = int(toks[1])
            pz, qz, pi, qi, ps, qs = (float(t) / base_mva for t in toks[2:8])
        except (ValueError, IndexError):
            raise CaseSyntaxError(lineno, f"bad ZIP record: {' '.join(toks)}")
        zip_loads.append(
            ZipLoad(
                zid, bus, Connection.WYE,
                y=phase_carray(complex(pz, -qz), 1),
                i=phase_carray(complex(pi, qi), 1),
                s=phase_carray(complex(ps, qs), 1),
            )
        )

    big_loads: list[BigLoad] = []
    for lineno, toks in records["BIG"]:
        try:
            lid = int(toks[0])
            bus = int(toks[1])
            ar, ai, g, b = (float(t) for t in toks[2:6])
        except (ValueError, IndexError):
            raise CaseSyntaxError(lineno, f"bad BIG record: {' '.join(toks)}")
        big_loads.append(
            BigLoad(lid, bus, alpha=phase_carray(complex(ar, ai), 1), y=phase_carray(complex(g, b), 1))
        )

    next_id = max((z.id for z in zip_loads), default=0) + 1
    for bid, pd, qd in bus_loads:
        zip_loads.append(
            ZipLoad(
                next_id, bid, Connection.WYE,
                y=phase_carray(0.0, 1), i=phase_carray(0.0, 1),
                s=phase_carray(complex(pd / base_mva, qd / base_mva), 1),
            )
        )
        next_id += 1

    return Network(
        domain=PhaseDomain.POSITIVE_SEQUENCE,
        base_mva=base_mva,
        buses=tuple(buses),
        generators=tuple(generators),
        zip_loads=tuple(zip_loads),
        big_loads=tuple(big_loads),
        branches=tuple(branches),
        transformers=tuple(transformers),
        shunts=tuple(shunts),
        name=case_name,
    )


# ---------------------------------------------------------------------------
# Three-phase JSON format


_REQUIRED = object()


def _raw(value):
    return value


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


def _float_or_none(value) -> float | None:
    return None if value is None else float(value)


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
            id=rec("id", int),
            kind=kind,
            **rec.given("base_kv"),
            v_set=rec("v_set", _float_or_none, None),
            angle=math.radians(rec("angle_deg", float, 0.0)),
        )

    buses = _section(doc, "buses", bus)

    bus_vset = {b.id: b.v_set for b in buses if b.v_set is not None}

    def generator(rec):
        q = rec("q_mvar", lambda v: None if v is None else per_phase_pu(v), None)
        gen = Generator(
            id=rec("id", int),
            bus=rec("bus", int),
            p=rec("p_mw", per_phase_pu),
            q=q,
            qmin=rec("qmin_mvar", q_limit(-math.inf), None),
            qmax=rec("qmax_mvar", q_limit(math.inf), None),
            remote_bus=rec("remote_bus", _raw, None),
        )
        if q is None:
            v_set = rec("v_set", _float_or_none, None)
            if v_set is not None:
                bus_vset[gen.target_bus()] = v_set
        return gen

    generators = _section(doc, "generators", generator)
    buses = [Bus(b.id, b.kind, b.base_kv, bus_vset.get(b.id, b.v_set), b.angle) for b in buses]

    def load(rec):
        if rec("model", str.lower, "zip") == "big":
            return BigLoad(
                id=rec("id", int),
                bus=rec("bus", int),
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
            id=rec("id", int), bus=rec("bus", int),
            connection=Connection.DELTA if delta else Connection.WYE,
            y=phase_carray(y, nph), i=phase_carray(ic, nph), s=phase_carray(s, nph),
        )

    loads = _section(doc, "loads", load)

    def branch(rec):
        y = rec.complex("y_real_pu", "y_imag_pu")
        half = rec("b_charge_pu", _floats, [0.0] * nph) / 2.0
        return Branch(
            id=rec("id", int), from_bus=rec("from", int), to_bus=rec("to", int),
            y_series=y, b_from=phase_array(half, nph), b_to=phase_array(half, nph),
        )

    def transformer(rec):
        return Transformer(
            id=rec("id", int), from_bus=rec("from", int), to_bus=rec("to", int),
            y_series=rec.complex("y_real_pu", "y_imag_pu"),
            tap=rec("tap", per_phase, [1.0] * nph),
            shift=rec("shift_deg", lambda v: per_phase(np.radians(_floats(v))), [0.0] * nph),
            **rec.given("tap_min", "tap_max", "tap_step"),
            controlled_bus=rec("controlled_bus", _raw, None),
            v_target=rec("v_target", _float_or_none, None),
        )

    def shunt(rec):
        max_blocks = rec("max_blocks", int, 0)
        return Shunt(
            id=rec("id", int), bus=rec("bus", int),
            g=rec("g_pu", per_phase, [0.0] * nph),
            b=rec("b_pu", per_phase, [0.0] * nph),
            switchable=max_blocks > 0,
            block_b=rec("block_b_pu", per_phase) if max_blocks > 0 else None,
            max_blocks=max_blocks,
            blocks_on=rec("blocks_on", int, 0),
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


def write_solution(network: Network, state, report=None, fmt: str = "csv") -> str:
    """Serialize a solved state; ``fmt`` is ``csv`` or ``json``."""
    index = state.index
    if index.dim != state.x.shape[0] or index.nbus != network.nbus:
        raise ValueError("state dimension does not match network")
    v = state.v_complex()
    phases = network.domain.phases
    if fmt == "csv":
        lines = ["bus,phase,vmag_pu,vang_deg,vr_pu,vi_pu"]
        for k, bus in enumerate(network.buses):
            for ph, ph_name in enumerate(phases):
                vv = complex(v[ph, k])
                lines.append(
                    f"{bus.id},{ph_name},{abs(vv)!r},{math.degrees(math.atan2(vv.imag, vv.real))!r},"
                    f"{vv.real!r},{vv.imag!r}"
                )
        return "\n".join(lines) + "\n"
    if fmt != "json":
        raise ValueError(f"unknown solution format {fmt!r}")
    doc: dict = {"case": network.name, "base_mva": network.base_mva, "buses": [], "generators": []}
    for k, bus in enumerate(network.buses):
        for ph, ph_name in enumerate(phases):
            vv = complex(v[ph, k])
            doc["buses"].append(
                {
                    "bus": bus.id,
                    "phase": ph_name,
                    "vmag_pu": abs(vv),
                    "vang_deg": math.degrees(math.atan2(vv.imag, vv.real)),
                    "vr_pu": vv.real,
                    "vi_pu": vv.imag,
                }
            )
    for gen, q in zip(network.generators, state.gen_q()):
        doc["generators"].append(
            {"id": gen.id, "bus": gen.bus, "p_pu": gen.p.tolist(), "q_pu": q.tolist()}
        )
    if report is not None:
        doc["report"] = report.to_dict() if hasattr(report, "to_dict") else report
    return json.dumps(doc, indent=1)


def read_solution_json(text: str) -> dict:
    """Inverse of the JSON writer; returns the raw document."""
    return json.loads(text)
