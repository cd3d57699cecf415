"""Case writers: a Network back to the text format of its domain.

The parsers in ``steadygrid.caseio`` are the inverse; the round-trip and
mutation-fuzz tests in ``test_caseio.py`` write a network, edit the text and
parse it again. Values are written with ``repr``, so a parse/write round trip
reproduces every number exactly.
"""

import json
import math

import numpy as np

from steadygrid.caseio import SQRT3
from steadygrid.network import BusKind, Connection, Network, PhaseDomain



def _fmt(x: float) -> str:
    return repr(float(x))


def write_case(network: Network) -> str:
    """Serialize a Network back to its domain's text format."""
    if network.domain == PhaseDomain.THREE_PHASE:
        return _write_json3p(network)
    return _write_net(network)


def _write_net(net: Network) -> str:
    out = []
    if net.name:
        out.append(f"CASE {net.name}")
    out.append(f"BASE_MVA {_fmt(net.base_mva)}")
    out.append("BUS")
    for b in net.buses:
        vset = _fmt(b.v_set) if b.v_set is not None else "-"
        out.append(
            f"{b.id} {b.kind.name} {_fmt(b.base_kv)} 0.0 0.0 {vset} {_fmt(math.degrees(b.angle))}"
        )
    out.append("END")
    out.append("GEN")
    for g in net.generators:
        q = "-" if g.q is None else _fmt(g.q[0] * net.base_mva)
        qmin = _fmt(g.qmin * net.base_mva) if math.isfinite(g.qmin) else "-"
        qmax = _fmt(g.qmax * net.base_mva) if math.isfinite(g.qmax) else "-"
        remote = str(g.remote_bus) if g.remote_bus is not None else "-"
        out.append(f"{g.id} {g.bus} {_fmt(g.p[0] * net.base_mva)} {q} {qmin} {qmax} - {remote}")
    out.append("END")
    out.append("BRANCH")
    for br in net.branches:
        z = 1.0 / complex(br.y_series[0, 0])
        out.append(
            f"{br.id} {br.from_bus} {br.to_bus} {_fmt(z.real)} {_fmt(z.imag)} "
            f"{_fmt(br.b_from[0] + br.b_to[0])}"
        )
    out.append("END")
    out.append("TRANSFORMER")
    for tx in net.transformers:
        z = 1.0 / complex(tx.y_series[0, 0])
        ctrl = str(tx.controlled_bus) if tx.controlled_bus is not None else "-"
        vtgt = _fmt(tx.v_target) if tx.v_target is not None else "-"
        out.append(
            f"{tx.id} {tx.from_bus} {tx.to_bus} {_fmt(z.real)} {_fmt(z.imag)} "
            f"{_fmt(tx.tap[0])} {_fmt(math.degrees(tx.shift[0]))} "
            f"{_fmt(tx.tap_min)} {_fmt(tx.tap_max)} {_fmt(tx.tap_step)} {ctrl} {vtgt}"
        )
    out.append("END")
    out.append("SHUNT")
    for sh in net.shunts:
        row = f"{sh.id} {sh.bus} {_fmt(sh.g[0] * net.base_mva)} {_fmt(sh.b[0] * net.base_mva)}"
        if sh.switchable:
            row += f" {_fmt(sh.block_b[0] * net.base_mva)} {sh.max_blocks} {sh.blocks_on}"
        out.append(row)
    out.append("END")
    out.append("ZIP")
    for z in net.zip_loads:
        pz, qz = z.y[0].real, -z.y[0].imag
        pi, qi = z.i[0].real, z.i[0].imag
        ps, qs = z.s[0].real, z.s[0].imag
        vals = " ".join(_fmt(v * net.base_mva) for v in (pz, qz, pi, qi, ps, qs))
        out.append(f"{z.id} {z.bus} {vals}")
    out.append("END")
    out.append("BIG")
    for b in net.big_loads:
        out.append(
            f"{b.id} {b.bus} {_fmt(b.alpha[0].real)} {_fmt(b.alpha[0].imag)} "
            f"{_fmt(b.y[0].real)} {_fmt(b.y[0].imag)}"
        )
    out.append("END")
    return "\n".join(out) + "\n"


def _write_json3p(net: Network) -> str:
    doc: dict = {"name": net.name, "base_mva": net.base_mva}
    doc["buses"] = [
        {
            "id": b.id,
            "kind": "slack" if b.kind == BusKind.SLACK else "pq",
            "base_kv": b.base_kv,
            "v_set": b.v_set,
            "angle_deg": math.degrees(b.angle),
        }
        for b in net.buses
    ]
    doc["generators"] = [
        {
            "id": g.id,
            "bus": g.bus,
            "p_mw": (g.p * net.base_mva).tolist(),
            "q_mvar": (g.q * net.base_mva).tolist() if g.q is not None else None,
            "qmin_mvar": g.qmin * net.base_mva if math.isfinite(g.qmin) else None,
            "qmax_mvar": g.qmax * net.base_mva if math.isfinite(g.qmax) else None,
            "v_set": net.bus(g.target_bus()).v_set if g.q is None else None,
            "remote_bus": g.remote_bus,
        }
        for g in net.generators
    ]
    loads = []
    for z in net.zip_loads:
        delta = z.connection == Connection.DELTA
        y = z.y * 3.0 if delta else z.y
        ic = z.i * SQRT3 if delta else z.i
        loads.append(
            {
                "id": z.id,
                "bus": z.bus,
                "model": "zip",
                "connection": z.connection.value,
                "z_mw": (y.real * net.base_mva).tolist(),
                "z_mvar": (-y.imag * net.base_mva).tolist(),
                "i_mw": (ic.real * net.base_mva).tolist(),
                "i_mvar": (ic.imag * net.base_mva).tolist(),
                "s_mw": (z.s.real * net.base_mva).tolist(),
                "s_mvar": (z.s.imag * net.base_mva).tolist(),
            }
        )
    for b in net.big_loads:
        loads.append(
            {
                "id": b.id,
                "bus": b.bus,
                "model": "big",
                "alpha_re_pu": b.alpha.real.tolist(),
                "alpha_im_pu": b.alpha.imag.tolist(),
                "g_pu": b.y.real.tolist(),
                "b_pu": b.y.imag.tolist(),
            }
        )
    doc["loads"] = loads
    doc["branches"] = [
        {
            "id": br.id,
            "from": br.from_bus,
            "to": br.to_bus,
            "y_real_pu": br.y_series.real.tolist(),
            "y_imag_pu": br.y_series.imag.tolist(),
            "b_charge_pu": (br.b_from + br.b_to).tolist(),
        }
        for br in net.branches
    ]
    doc["transformers"] = [
        {
            "id": tx.id,
            "from": tx.from_bus,
            "to": tx.to_bus,
            "y_real_pu": tx.y_series.real.tolist(),
            "y_imag_pu": tx.y_series.imag.tolist(),
            "tap": tx.tap.tolist(),
            "shift_deg": np.degrees(tx.shift).tolist(),
            "tap_min": tx.tap_min,
            "tap_max": tx.tap_max,
            "tap_step": tx.tap_step,
            "controlled_bus": tx.controlled_bus,
            "v_target": tx.v_target,
        }
        for tx in net.transformers
    ]
    doc["shunts"] = [
        {
            "id": sh.id,
            "bus": sh.bus,
            "g_pu": sh.g.tolist(),
            "b_pu": sh.b.tolist(),
            **(
                {
                    "block_b_pu": sh.block_b.tolist(),
                    "max_blocks": sh.max_blocks,
                    "blocks_on": sh.blocks_on,
                }
                if sh.switchable
                else {}
            ),
        }
        for sh in net.shunts
    ]
    return json.dumps(doc, indent=1)
