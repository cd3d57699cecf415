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
            r, x = float(toks[3]), float(toks[4])
            b = float(toks[5]) if len(toks) > 5 else 0.0
        except (ValueError, IndexError):
            raise CaseSyntaxError(lineno, f"bad BRANCH record: {' '.join(toks)}")
        branches.append(
            Branch(brid, fb, tb, y_series=series_y(r, x),
                   b_from=phase_array(b / 2.0, 1), b_to=phase_array(b / 2.0, 1))
        )

    transformers: list[Transformer] = []
    for lineno, toks in records["TRANSFORMER"]:
        try:
            tid = int(toks[0])
            fb, tb = int(toks[1]), int(toks[2])
            r, x = float(toks[3]), float(toks[4])
            tap = float(toks[5]) if len(toks) > 5 else 1.0
            shift = float(toks[6]) if len(toks) > 6 else 0.0
            # the tap table fields the record gives; Transformer holds the defaults
            table = {k: float(t) for k, t in zip(("tap_min", "tap_max", "tap_step"), toks[7:10])}
            ctrl = None
            if len(toks) > 10 and toks[10] != "-":
                ctrl = int(toks[10])
            vtgt = _opt(toks[11]) if len(toks) > 11 else None
        except (ValueError, IndexError):
            raise CaseSyntaxError(lineno, f"bad TRANSFORMER record: {' '.join(toks)}")
        transformers.append(
            Transformer(
                tid, fb, tb, y_series=series_y(r, x),
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


def _c3(re_list, im_list) -> np.ndarray:
    arr = np.asarray(re_list, dtype=float) + 1j * np.asarray(im_list, dtype=float)
    arr.setflags(write=False)
    return arr


def _given(rec: dict, *names: str) -> dict:
    """The named fields that a record gives, as floats: a field it omits
    keeps its dataclass default."""
    return {name: float(rec[name]) for name in names if name in rec}


def _parse_json3p(text: str, name: str) -> Network:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseSyntaxError(exc.lineno, exc.msg)
    base = float(doc.get("base_mva", 100.0))
    nph = 3

    buses = []
    for rec in doc.get("buses", []):
        kind = BusKind.SLACK if rec.get("kind", "pq").lower() == "slack" else BusKind.PQ
        buses.append(
            Bus(
                id=int(rec["id"]),
                kind=kind,
                **_given(rec, "base_kv"),
                v_set=rec.get("v_set"),
                angle=math.radians(float(rec.get("angle_deg", 0.0))),
            )
        )

    generators = []
    bus_vset = {b.id: b.v_set for b in buses if b.v_set is not None}
    for rec in doc.get("generators", []):
        q_mvar = rec.get("q_mvar")
        q = None if q_mvar is None else phase_array(np.asarray(q_mvar, dtype=float) / base, nph)
        gen = Generator(
            id=int(rec["id"]),
            bus=int(rec["bus"]),
            p=phase_array(np.asarray(rec["p_mw"], dtype=float) / base, nph),
            q=q,
            qmin=float(rec.get("qmin_mvar", -math.inf)) / base if rec.get("qmin_mvar") is not None else -math.inf,
            qmax=float(rec.get("qmax_mvar", math.inf)) / base if rec.get("qmax_mvar") is not None else math.inf,
            remote_bus=rec.get("remote_bus"),
        )
        generators.append(gen)
        if q is None and rec.get("v_set") is not None:
            bus_vset[gen.target_bus()] = float(rec["v_set"])
    buses = [Bus(b.id, b.kind, b.base_kv, bus_vset.get(b.id, b.v_set), b.angle) for b in buses]

    zip_loads = []
    big_loads = []
    for rec in doc.get("loads", []):
        model = rec.get("model", "zip").lower()
        if model == "big":
            big_loads.append(
                BigLoad(
                    id=int(rec["id"]),
                    bus=int(rec["bus"]),
                    alpha=_c3(rec["alpha_re_pu"], rec["alpha_im_pu"]),
                    y=_c3(rec["g_pu"], rec["b_pu"]),
                )
            )
            continue
        conn = Connection.DELTA if rec.get("connection", "wye").lower() == "delta" else Connection.WYE
        pz = np.asarray(rec.get("z_mw", [0.0] * nph), dtype=float) / base
        qz = np.asarray(rec.get("z_mvar", [0.0] * nph), dtype=float) / base
        pi = np.asarray(rec.get("i_mw", [0.0] * nph), dtype=float) / base
        qi = np.asarray(rec.get("i_mvar", [0.0] * nph), dtype=float) / base
        ps = np.asarray(rec.get("s_mw", [0.0] * nph), dtype=float) / base
        qs = np.asarray(rec.get("s_mvar", [0.0] * nph), dtype=float) / base
        # Device-level quantities: delta branches see line-to-line voltage
        # (magnitude sqrt(3) at nominal), so powers given at nominal rescale.
        if conn == Connection.DELTA:
            y = (pz - 1j * qz) / 3.0
            ic = (pi + 1j * qi) / SQRT3
        else:
            y = pz - 1j * qz
            ic = pi + 1j * qi
        s = ps + 1j * qs
        zip_loads.append(
            ZipLoad(
                id=int(rec["id"]), bus=int(rec["bus"]), connection=conn,
                y=phase_carray(y, nph), i=phase_carray(ic, nph), s=phase_carray(s, nph),
            )
        )

    branches = []
    for rec in doc.get("branches", []):
        y = _c3(rec["y_real_pu"], rec["y_imag_pu"])
        bch = rec.get("b_charge_pu", [0.0] * nph)
        half = np.asarray(bch, dtype=float) / 2.0
        branches.append(
            Branch(
                id=int(rec["id"]), from_bus=int(rec["from"]), to_bus=int(rec["to"]),
                y_series=y, b_from=phase_array(half, nph), b_to=phase_array(half, nph),
            )
        )

    transformers = []
    for rec in doc.get("transformers", []):
        transformers.append(
            Transformer(
                id=int(rec["id"]), from_bus=int(rec["from"]), to_bus=int(rec["to"]),
                y_series=_c3(rec["y_real_pu"], rec["y_imag_pu"]),
                tap=phase_array(rec.get("tap", [1.0] * nph), nph),
                shift=phase_array(np.radians(np.asarray(rec.get("shift_deg", [0.0] * nph), dtype=float)), nph),
                **_given(rec, "tap_min", "tap_max", "tap_step"),
                controlled_bus=rec.get("controlled_bus"),
                v_target=rec.get("v_target"),
            )
        )

    shunts = []
    for rec in doc.get("shunts", []):
        max_blocks = int(rec.get("max_blocks", 0))
        shunts.append(
            Shunt(
                id=int(rec["id"]), bus=int(rec["bus"]),
                g=phase_array(rec.get("g_pu", [0.0] * nph), nph),
                b=phase_array(rec.get("b_pu", [0.0] * nph), nph),
                switchable=max_blocks > 0,
                block_b=phase_array(rec["block_b_pu"], nph) if max_blocks > 0 else None,
                max_blocks=max_blocks,
                blocks_on=int(rec.get("blocks_on", 0)),
            )
        )

    return Network(
        domain=PhaseDomain.THREE_PHASE,
        base_mva=base,
        buses=tuple(buses),
        generators=tuple(generators),
        zip_loads=tuple(zip_loads),
        big_loads=tuple(big_loads),
        branches=tuple(branches),
        transformers=tuple(transformers),
        shunts=tuple(shunts),
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
    for gpos, gen in enumerate(network.generators):
        q = state.gen_q_per_phase(gpos)
        doc["generators"].append(
            {"id": gen.id, "bus": gen.bus, "p_pu": gen.p.tolist(), "q_pu": q.tolist()}
        )
    if report is not None:
        doc["report"] = report.to_dict() if hasattr(report, "to_dict") else report
    return json.dumps(doc, indent=1)


def read_solution_json(text: str) -> dict:
    """Inverse of the JSON writer; returns the raw document."""
    return json.loads(text)
