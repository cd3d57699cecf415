import math
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from steadygrid.caseio import CaseSemanticError, CaseSyntaxError, load_case, parse_case
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
    validate,
)
from steadygrid.solver import InvalidNetworkError, solve

from conftest import (
    CASE_DIR,
    case_path,
    coupled_line_y,
    make_branch,
    make_zip,
    net_2bus,
    net_3phase,
    net_allparts,
    net_switched_shunt,
    net_tap,
)
from casewriter import write_case


def test_minimal_network_validates_clean():
    assert validate(net_2bus()) == []


@pytest.mark.parametrize("base", ["inf", "nan", "0", "-1e-3"])
def test_a_base_mva_that_is_not_finite_and_positive_is_rejected(base):
    # with an infinite base every power would divide to 0: a network
    # without load or generation
    net = load_case(case_path("case14.net")).network
    issues = validate(replace(net, base_mva=float(base)))
    assert [(i.code, i.device, i.message) for i in issues] == [
        ("bad_base", "network", f"base MVA {float(base)} not finite and positive")
    ]
    # the parser rejects the line before it divides any power by the base
    with open(case_path("case14.net"), encoding="utf-8") as fh:
        text = fh.read().replace("BASE_MVA 100.0", f"BASE_MVA {base}")
    with pytest.raises(CaseSyntaxError) as err:
        parse_case(text)
    assert str(err.value) == f"line 3: BASE_MVA {float(base)} not finite and positive"


def test_missing_slack_reported_per_island():
    buses = (Bus(1, BusKind.PQ, 138.0), Bus(2, BusKind.PQ, 138.0))
    net = Network(PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses,
                  branches=(make_branch(1, 1, 2, 0.01, 0.1),))
    issues = validate(net)
    assert [i.code for i in issues] == ["missing_slack"]
    assert issues[0].device == "island 0"


def test_two_islands_each_need_slack():
    buses = (
        Bus(1, BusKind.SLACK, 138.0, 1.0),
        Bus(2, BusKind.PQ, 138.0),
        Bus(3, BusKind.PQ, 138.0),
        Bus(4, BusKind.PQ, 138.0),
    )
    net = Network(PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses,
                  branches=(make_branch(1, 1, 2, 0.01, 0.1), make_branch(2, 3, 4, 0.01, 0.1)))
    codes = [i.code for i in validate(net)]
    assert codes == ["missing_slack"]
    assert net.n_islands == 2


def test_unreachable_remote_bus():
    buses = (
        Bus(1, BusKind.SLACK, 138.0, 1.0),
        Bus(2, BusKind.PQ, 138.0),
        Bus(3, BusKind.PQ, 138.0, v_set=1.0),
        Bus(4, BusKind.SLACK, 138.0, 1.0),
    )
    # bus 4 is its own island; gen at 2 cannot reach it
    gen = Generator(7, 2, p=phase_array(0.1, 1), q=None, remote_bus=4)
    net = Network(PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses,
                  generators=(gen,),
                  branches=(make_branch(1, 1, 2, 0.01, 0.1), make_branch(2, 2, 3, 0.01, 0.1)))
    issues = validate(net)
    assert any(i.code == "unreachable_remote" and "gen 7" in i.device for i in issues)


def test_qlim_order_and_vset_checks():
    buses = (Bus(1, BusKind.SLACK, 138.0, 1.0), Bus(2, BusKind.PQ, 138.0, v_set=-0.5))
    gen = Generator(1, 2, p=phase_array(0.1, 1), q=phase_array(0.0, 1), qmin=1.0, qmax=-1.0)
    net = Network(PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses, generators=(gen,),
                  branches=(make_branch(1, 1, 2, 0.01, 0.1),))
    codes = {i.code for i in validate(net)}
    assert "qlim_order" in codes
    assert "bad_vset" in codes


def test_three_phase_branch_symmetry_enforced():
    y = np.array(coupled_line_y(0.01, 0.05, 0.002, 0.01))
    y[0, 1] += 1e-9  # break symmetry
    buses = (Bus(1, BusKind.SLACK, 12.47, 1.0), Bus(2, BusKind.PQ, 12.47))
    br = Branch(1, 1, 2, y_series=y, b_from=phase_array(0.0, 3), b_to=phase_array(0.0, 3))
    net = Network(PhaseDomain.THREE_PHASE, 10.0, buses, branches=(br,))
    assert any(i.code == "asymmetric_y" for i in validate(net))


def test_coupled_line_helper_is_exactly_symmetric():
    y = coupled_line_y(0.02, 0.08, 0.005, 0.02)
    assert np.array_equal(y, y.T)


def test_dangling_reference_detected():
    buses = (Bus(1, BusKind.SLACK, 138.0, 1.0), Bus(2, BusKind.PQ, 138.0))
    net = Network(PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses,
                  zip_loads=(make_zip(1, 99, s=0.1),),
                  branches=(make_branch(1, 1, 2, 0.01, 0.1),))
    assert any(i.code == "unknown_bus" for i in validate(net))


def test_islands_union_find():
    buses = tuple(Bus(k, BusKind.PQ, 138.0) for k in range(1, 6))
    net = Network(PhaseDomain.POSITIVE_SEQUENCE, 100.0, buses,
                  branches=(make_branch(1, 1, 2, 0.01, 0.1),
                            make_branch(2, 4, 5, 0.01, 0.1)))
    assert net.islands[0] == net.islands[1]
    assert net.islands[3] == net.islands[4]
    assert len({net.islands[0], net.islands[2], net.islands[3]}) == 3


def test_network_is_immutable():
    net = net_2bus()
    with pytest.raises(Exception):
        net.base_mva = 50.0
    with pytest.raises(Exception):
        net.branches[0].y_series[0, 0] = 1.0  # read-only array
    # every array of every device of every corpus case, from both parsers,
    # whatever array the parser passed in
    seen = set()
    for case in sorted(os.listdir(CASE_DIR)):
        network = load_case(os.path.join(CASE_DIR, case)).network
        for family in ("generators", "zip_loads", "big_loads", "branches", "transformers",
                       "shunts"):
            for device in getattr(network, family):
                for f in fields(device):
                    value = getattr(device, f.name)
                    if isinstance(value, np.ndarray):
                        seen.add((type(device).__name__, f.name, case.rsplit(".", 1)[1]))
                        with pytest.raises(ValueError):
                            value[...] = 0
    assert {(cls, name) for cls, name, _ in seen} >= {
        ("Generator", "p"), ("Generator", "q"), ("ZipLoad", "s"), ("Branch", "y_series"),
        ("Branch", "b_from"), ("Transformer", "tap"), ("Shunt", "b"),
    }
    assert {ext for _, _, ext in seen} == {"net", "json"}
    gen = Generator(1, 1, p=np.array([0.5]), q=np.array([0.1]))
    with pytest.raises(ValueError):
        gen.p[0] += 0.2


def _broken_networks():
    """Two networks that between them break a check in every device family."""
    c1 = lambda v: phase_array(v, 1, complex)
    r1 = lambda v: phase_array(v, 1)
    nan, inf = math.nan, math.inf
    buses = (
        Bus(1, BusKind.SLACK, 138.0, 1.0),
        Bus(2, BusKind.PQ, 138.0, v_set=-0.5),
        Bus(3, BusKind.PQ, 138.0),
        Bus(3, BusKind.SLACK, 138.0, None),  # duplicate id, slack without v_set
        Bus(5, BusKind.PQ, 138.0),
        Bus(6, BusKind.SLACK, 138.0, 1.0, nan),
        Bus(7, BusKind.SLACK, 138.0, 1.0),
    )
    zero_y = np.zeros((1, 1), dtype=complex)
    gens = (
        Generator(1, 99, p=r1(0.1)),
        Generator(2, 2, p=phase_array(0.1, 3), q=phase_array(0.0, 3), qmin=1.0, qmax=-1.0),
        Generator(3, 2, p=r1(0.1), remote_bus=98),
        Generator(4, 2, p=r1(0.1), remote_bus=5),
        Generator(5, 1, p=r1(0.1), remote_bus=3),
        Generator(6, 1, p=r1(inf), q=r1(nan)),
        Generator(7, 6, p=r1(0.1), remote_bus=7),
        # Q bands pinned at infinity: no finite Q to pin the machine at
        Generator(8, 1, p=r1(0.1), qmin=inf, qmax=inf),
        Generator(9, 1, p=r1(0.1), qmin=-inf, qmax=-inf),
    )
    zips = (
        ZipLoad(1, 97, Connection.DELTA, y=c1(0), i=c1(0), s=c1(complex(nan, 0))),
        ZipLoad(2, 1, y=phase_array(0, 3, complex), i=c1(complex(0, inf)), s=c1(1.0)),
        ZipLoad(3, 2, y=c1(complex(0, nan)), i=c1(0), s=c1(0)),
    )
    bigs = (
        BigLoad(1, 96, alpha=c1(inf), y=phase_array(0, 3, complex)),
        BigLoad(2, 2, alpha=c1(0.1), y=c1(complex(nan, nan))),
    )
    branches = (
        Branch(1, 1, 2, y_series=series_y(0.01, 0.1), b_from=r1(0), b_to=r1(0)),
        Branch(2, 2, 95, y_series=zero_y, b_from=phase_array(0, 3), b_to=r1(0)),
        Branch(3, 94, 3, y_series=series_y(0.01, 0.1, 3), b_from=r1(0), b_to=r1(0)),
        Branch(4, 1, 3, y_series=np.array([[complex(nan, 0)]]), b_from=r1(0), b_to=r1(0)),
        Branch(5, 6, 6, y_series=np.array([[-0.0j]]), b_from=r1(0), b_to=r1(inf)),
    )
    xfmrs = (
        Transformer(1, 1, 93, y_series=zero_y, tap=r1(1.3), shift=r1(-math.pi),
                    controlled_bus=92),
        Transformer(2, 2, 3, y_series=series_y(0.0, 0.1), tap=r1(nan), shift=r1(math.pi)),
        Transformer(3, 3, 2, y_series=series_y(0.0, 0.1), tap=r1(0.7), shift=r1(4.0)),
        Transformer(4, 91, 1, y_series=series_y(0.0, 0.1, 3), tap=r1(1.0), shift=r1(0.0)),
        Transformer(5, 2, 3, y_series=np.array([[complex(0, inf)]]), tap=r1(0.0),
                    shift=r1(nan), tap_min=0.0),
        Transformer(6, 3, 2, y_series=series_y(0.0, 0.1), tap=r1(1.0), shift=r1(0.0),
                    tap_min=1.1, tap_max=nan),
    )
    shunts = (
        Shunt(1, 90, g=r1(0), b=r1(0.1)),
        Shunt(2, 1, g=phase_array(0, 3), b=r1(0.1), switchable=True),
        Shunt(3, 2, g=r1(0), b=r1(0.1), switchable=True, block_b=r1(0.1), max_blocks=2,
              blocks_on=3),
        Shunt(4, 2, g=r1(nan), b=r1(0.1), switchable=True, block_b=r1(inf), max_blocks=2),
    )
    positive = Network(PhaseDomain.POSITIVE_SEQUENCE, -1.0, buses, gens, zips, bigs,
                       branches, xfmrs, shunts)
    y = np.array(coupled_line_y(0.01, 0.05, 0.002, 0.01))
    y[0, 1] += 1e-9
    nan_y = np.array(series_y(0.01, 0.1, 3))
    nan_y[1, 1] = nan
    c3 = lambda v: phase_array(v, 3, complex)
    three = Network(
        PhaseDomain.THREE_PHASE, 10.0,
        (Bus(1, BusKind.SLACK, 12.47, 1.0), Bus(2, BusKind.PQ, 12.47)),
        zip_loads=(ZipLoad(1, 2, Connection.DELTA, y=c3(0), i=c3(0),
                           s=c3([0.1, complex(0, inf), 0.1])),),
        big_loads=(BigLoad(1, 2, alpha=c3([0, 0, nan]), y=c3(0)),),
        branches=(Branch(1, 1, 2, y_series=y, b_from=phase_array(0.0, 3),
                         b_to=phase_array(0.0, 3)),
                  Branch(2, 1, 2, y_series=np.zeros((3, 3), dtype=complex),
                         b_from=phase_array(0.0, 3), b_to=phase_array(0.0, 3)),
                  # a non-finite matrix is not also reported asymmetric
                  Branch(3, 1, 2, y_series=nan_y, b_from=phase_array([0.0, nan, 0.0], 3),
                         b_to=phase_array(0.0, 1)),
                  Branch(4, 1, 2, y_series=series_y(0.01, 0.1, 3), b_from=phase_array(0.0, 3),
                         b_to=phase_array([0.0, 0.0, -inf], 3))),
        transformers=(Transformer(1, 1, 2, y_series=series_y(0.0, 0.1, 3),
                                  tap=phase_array([1.0, 1.25, 1.0], 3),
                                  shift=phase_array([0.0, 0.0, -4.0], 3)),),
    )
    return positive, three


# recorded before validate() replaced its numpy reductions with scalar checks,
# plus the non-finite values, tap tables and Q bands at infinity that validate() rejects since
BROKEN_ISSUES = (
    [
        ('bad_base', 'network', 'base MVA -1.0 not finite and positive'),
        ('duplicate_bus', 'network', 'duplicate bus ids'),
        ('bad_vset', 'bus 3', 'slack bus needs v_set > 0'),
        ('not_finite', 'bus 6', 'slack angle nan not finite'),
        ('multiple_slack', 'island 0', 'slack buses [1, 3]'),
        ('missing_slack', 'island 1', 'island has no slack bus'),
        ('missing_slack', 'island 2', 'island has no slack bus'),
        ('bad_vset', 'bus 2', 'v_set -0.5 not positive'),
        ('unknown_bus', 'gen 1', 'bus 99 not defined'),
        ('bad_phase_count', 'gen 2', 'p has wrong phase count'),
        ('bad_phase_count', 'gen 2', 'q has wrong phase count'),
        ('qlim_order', 'gen 2', 'qmin 1.0 > qmax -1.0'),
        ('unknown_bus', 'gen 3', 'remote bus 98 not defined'),
        ('unreachable_remote', 'gen 4', 'no path from bus 2 to remote bus 5'),
        ('missing_vset', 'gen 4', 'controlled bus 5 has no v_set'),
        ('missing_vset', 'gen 5', 'controlled bus 3 has no v_set'),
        ('not_finite', 'gen 6', 'p has non-finite entries'),
        ('not_finite', 'gen 6', 'q has non-finite entries'),
        ('unreachable_remote', 'gen 7', 'no path from bus 6 to remote bus 7'),
        ('qlim_order', 'gen 8', 'Q band [inf, inf] lies at infinity'),
        ('qlim_order', 'gen 9', 'Q band [-inf, -inf] lies at infinity'),
        ('unknown_bus', 'zip 1', 'bus 97 not defined'),
        ('not_finite', 'zip 1', 's has non-finite entries'),
        ('bad_connection', 'zip 1', 'delta load in positive-sequence network'),
        ('bad_phase_count', 'zip 2', 'y has wrong phase count'),
        ('not_finite', 'zip 2', 'i has non-finite entries'),
        ('not_finite', 'zip 3', 'y has non-finite entries'),
        ('unknown_bus', 'big 1', 'bus 96 not defined'),
        ('not_finite', 'big 1', 'alpha has non-finite entries'),
        ('bad_phase_count', 'big 1', 'y has wrong phase count'),
        ('not_finite', 'big 2', 'y has non-finite entries'),
        ('unknown_bus', 'branch 2', 'bus 95 not defined'),
        ('zero_series_y', 'branch 2', 'series admittance is zero'),
        ('bad_phase_count', 'branch 2', 'b_from/b_to have wrong phase count'),
        ('unknown_bus', 'branch 3', 'bus 94 not defined'),
        ('bad_phase_count', 'branch 3', 'y_series has wrong shape'),
        ('not_finite', 'branch 4', 'y_series has non-finite entries'),
        ('zero_series_y', 'branch 5', 'series admittance is zero'),
        ('not_finite', 'branch 5', 'b_from/b_to have non-finite entries'),
        ('unknown_bus', 'xfmr 1', 'bus 93 not defined'),
        ('zero_series_y', 'xfmr 1', 'series admittance is zero'),
        ('tap_range', 'xfmr 1', 'tap [1.3] outside [0.8, 1.2]'),
        ('shift_range', 'xfmr 1', 'phase shift outside (-180, 180] degrees'),
        ('unknown_bus', 'xfmr 1', 'controlled bus 92 not defined'),
        ('tap_range', 'xfmr 2', 'tap [nan] outside [0.8, 1.2]'),
        ('tap_range', 'xfmr 3', 'tap [0.7] outside [0.8, 1.2]'),
        ('shift_range', 'xfmr 3', 'phase shift outside (-180, 180] degrees'),
        ('unknown_bus', 'xfmr 4', 'bus 91 not defined'),
        ('bad_phase_count', 'xfmr 4', 'y_series has wrong shape'),
        ('not_finite', 'xfmr 5', 'y_series has non-finite entries'),
        ('tap_limits', 'xfmr 5', 'tap table [0.0, 1.2] needs 0 < min <= max'),
        ('shift_range', 'xfmr 5', 'phase shift outside (-180, 180] degrees'),
        ('tap_limits', 'xfmr 6', 'tap table [1.1, nan] needs 0 < min <= max'),
        ('tap_range', 'xfmr 6', 'tap [1.] outside [1.1, nan]'),
        ('unknown_bus', 'shunt 1', 'bus 90 not defined'),
        ('bad_phase_count', 'shunt 2', 'g/b have wrong phase count'),
        ('bad_blocks', 'shunt 2', 'switchable shunt needs finite block table'),
        ('bad_blocks', 'shunt 3', 'switchable shunt needs finite block table'),
        ('not_finite', 'shunt 4', 'g/b have non-finite entries'),
        ('bad_blocks', 'shunt 4', 'switchable shunt needs finite block table'),
    ],
    [
        ('not_finite', 'zip 1', 's has non-finite entries'),
        ('not_finite', 'big 1', 'alpha has non-finite entries'),
        ('asymmetric_y', 'branch 1', 'three-phase y_series not symmetric'),
        ('zero_series_y', 'branch 2', 'series admittance is zero'),
        ('not_finite', 'branch 3', 'y_series has non-finite entries'),
        ('bad_phase_count', 'branch 3', 'b_from/b_to have wrong phase count'),
        ('not_finite', 'branch 4', 'b_from/b_to have non-finite entries'),
        ('tap_range', 'xfmr 1', 'tap [1.   1.25 1.  ] outside [0.8, 1.2]'),
        ('shift_range', 'xfmr 1', 'phase shift outside (-180, 180] degrees'),
    ],
)


def test_validate_reports_every_issue_in_order():
    for net, want in zip(_broken_networks(), BROKEN_ISSUES):
        assert [(i.code, i.device, i.message) for i in validate(net)] == want


@pytest.mark.parametrize("family, name", [
    ("generators", "gen"), ("zip_loads", "zip"), ("big_loads", "big"),
    ("branches", "branch"), ("transformers", "xfmr"), ("shunts", "shunt"),
])
def test_a_device_id_repeated_in_its_family_is_rejected(family, name):
    net = net_allparts()
    assert validate(net) == []  # the same id in different families is fine
    devices = getattr(net, family)
    twice = net.with_devices(**{family: devices + (devices[0],)})
    # a second copy of the regulating machine also regulates its bus twice
    shared = [("shared_regulation", "bus 3", "generators [1, 1] all regulate it")]
    assert [(i.code, i.device, i.message) for i in validate(twice)] == [
        ("duplicate_id", f"{name} {devices[0].id}", "id repeated in its family")
    ] + (shared if family == "generators" else [])


def test_a_renumbered_generator_that_repeats_an_id_is_not_solved():
    # an outage of gen 1 would remove both machines of this case9
    net = load_case(case_path("case9.net")).network
    gens = net.generators[:2] + (replace(net.generators[2], id=1),)
    with pytest.raises(InvalidNetworkError) as err:
        solve(net.with_devices(generators=gens))
    assert [(i.code, i.device) for i in err.value.issues] == [("duplicate_id", "gen 1")]
    assert str(err.value) == "invalid network: [duplicate_id] gen 1: id repeated in its family"


def test_transformer_rejects_nonpositive_tap():
    def with_tap(tap, **table):
        tx = Transformer(1, 1, 2, y_series=series_y(0.0, 0.1), tap=phase_array(tap, 1),
                         shift=phase_array(0.0, 1), **table)
        return net_2bus().with_devices(transformers=(tx,))

    assert validate(with_tap(1.0)) == []
    # below the default table, and inside a table that reaches zero
    for net, code in ((with_tap(0.0), "tap_range"), (with_tap(0.0, tap_min=0.0), "tap_limits"),
                      (with_tap(-0.5, tap_min=-1.0), "tap_limits")):
        assert [i.code for i in validate(net)] == [code]


def _tap_with(**fields):
    net = net_tap()
    return net.with_devices(transformers=(replace(net.transformers[0], **fields),))


def _bank_with(**fields):
    net = net_switched_shunt()
    return net.with_devices(shunts=(replace(net.shunts[0], **fields),))


# a control the outer loop cannot step sensibly, and the message it is rejected with
@pytest.mark.parametrize("net, device, message", [
    (_tap_with(tap_step=math.nan), "xfmr 1", "tap_step nan not finite and positive"),
    # a negative step walks the tap away from its target
    (_tap_with(tap_step=-0.0125), "xfmr 1", "tap_step -0.0125 not finite and positive"),
    (_tap_with(tap_step=0.0), "xfmr 1", "tap_step 0.0 not finite and positive"),
    (_tap_with(v_target=math.inf), "xfmr 1", "v_target inf not finite and positive"),
    (_tap_with(v_target=-1.0), "xfmr 1", "v_target -1.0 not finite and positive"),
    # no v_target, and the regulated bus 3 has no v_set to fall back on
    (_tap_with(v_target=None), "xfmr 1", "no v_target, and controlled bus 3 has no v_set"),
    (_bank_with(v_lo=1.05, v_hi=0.95), "shunt 1", "band [1.05, 0.95] needs 0 < v_lo <= v_hi < inf"),
    (_bank_with(v_lo=0.0), "shunt 1", "band [0.0, 1.05] needs 0 < v_lo <= v_hi < inf"),
    (_bank_with(v_hi=math.nan), "shunt 1", "band [0.95, nan] needs 0 < v_lo <= v_hi < inf"),
], ids=["nan_step", "negative_step", "zero_step", "inf_target", "negative_target",
        "no_target", "reversed_band", "zero_band", "nan_band"])
def test_a_control_the_outer_loop_cannot_step_is_rejected(net, device, message):
    assert [(i.code, i.device, i.message) for i in validate(net)] == [
        ("bad_control", device, message)
    ]
    with pytest.raises(InvalidNetworkError):
        solve(net)


def _with_vsets(net, v_sets):
    """``net`` with the ``v_set`` of the buses ``v_sets`` names (by id)."""
    return net.with_devices(
        buses=tuple(replace(b, v_set=v_sets.get(b.id, b.v_set)) for b in net.buses)
    )


# the tap regulates bus 3 toward its v_set; a slack's v_set pins its source
@pytest.mark.parametrize("v_sets, device", [
    ({3: math.inf}, "bus 3"),
    ({1: math.inf, 3: 1.0}, "bus 1"),
], ids=["regulated", "slack"])
def test_a_non_finite_v_set_is_rejected(v_sets, device):
    net = _with_vsets(_tap_with(v_target=None), v_sets)
    assert [(i.code, i.device, i.message) for i in validate(net)] == [
        ("bad_vset", device, "v_set inf not finite")
    ]
    with pytest.raises(InvalidNetworkError):
        solve(net)
    # a .net case carries it as inf, a JSON case as Infinity
    three = _with_vsets(net_3phase(), {2: math.inf})
    for text in (write_case(net), write_case(three)):
        with pytest.raises(CaseSemanticError, match="bad_vset"):
            parse_case(text)


def test_only_a_controlled_device_needs_a_control_to_step():
    # a fixed tap never steps, and a fixed shunt's band is never read
    assert validate(_tap_with(tap_step=math.nan, controlled_bus=None)) == []
    assert validate(_bank_with(v_lo=math.nan, switchable=False)) == []


def _networks_with_every_array():
    """A valid network per domain that holds every per-phase array of every
    device family: a fixed generator's q and a switchable shunt's block_b too."""
    net = net_allparts()
    bank = replace(net.shunts[0], switchable=True, block_b=phase_array(0.05, 1), max_blocks=2)
    yield net.with_devices(shunts=(bank,))
    bank = Shunt(1, 3, g=phase_array(0.0, 3), b=phase_array(0.0, 3), switchable=True,
                 block_b=phase_array(0.05, 3), max_blocks=2)
    gen = Generator(1, 3, p=phase_array(0.1, 3), q=phase_array(0.02, 3))
    yield net_3phase().with_devices(generators=(gen,), shunts=(bank,))


ARRAY_FIELDS = [(cls, f.name) for cls in (Generator, ZipLoad, BigLoad, Branch, Transformer, Shunt)
                for f in fields(cls) if f.type.startswith("np.ndarray")]


@pytest.mark.parametrize("cls, name", ARRAY_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in ARRAY_FIELDS])
def test_every_device_array_at_a_wrong_phase_count_is_rejected(cls, name):
    family = {Generator: "generators", ZipLoad: "zip_loads", BigLoad: "big_loads",
              Branch: "branches", Transformer: "transformers", Shunt: "shunts"}[cls]
    for net in _networks_with_every_array():
        assert validate(net) == []
        devices = getattr(net, family)
        k = next(k for k, d in enumerate(devices) if getattr(d, name) is not None)
        arr = getattr(devices[k], name)
        for size in (net.nphase + 1, 0):  # one phase too many, and none
            wrong = replace(devices[k], **{name: np.resize(arr, (size,) * arr.ndim)})
            bad = net.with_devices(**{family: devices[:k] + (wrong,) + devices[k + 1:]})
            issues = validate(bad)
            assert [i.code for i in issues] == ["bad_phase_count"], (net.domain, size)
            assert name in issues[0].message.split()[0].split("/")


def test_taps_of_the_wrong_length_are_not_solved():
    # both used to pass: the solve converged with transformer 2 at transformer 1's 0.9
    net = load_case(case_path("case14.net")).network
    tx = net.transformers
    taps = (replace(tx[0], tap=np.array([0.978, 0.9])), replace(tx[1], tap=np.array([])))
    with pytest.raises(InvalidNetworkError) as err:
        solve(net.with_devices(transformers=taps + tx[2:]))
    assert [(i.code, i.device, i.message) for i in err.value.issues] == [
        ("bad_phase_count", "xfmr 1", "tap has wrong phase count"),
        ("bad_phase_count", "xfmr 2", "tap has wrong phase count"),
    ]


def test_a_tap_or_block_table_of_the_wrong_length_is_not_solved():
    # the solve used to raise numpy's reshape and bincount errors on these
    feeder = load_case(case_path("feeder8.json")).network
    tx = feeder.transformers
    short_tap = replace(tx[0], tap=phase_array(1.0, 1))
    net = load_case(case_path("case14.net")).network
    bank = replace(net.shunts[0], switchable=True, block_b=np.array([0.05, 0.05]), max_blocks=2)
    for bad, want in (
        (feeder.with_devices(transformers=(short_tap,) + tx[1:]),
         ("xfmr 1", "tap has wrong phase count")),
        (net.with_devices(shunts=(bank,)), ("shunt 1", "block_b has wrong phase count")),
    ):
        with pytest.raises(InvalidNetworkError) as err:
            solve(bad)
        assert [(i.code, i.device, i.message) for i in err.value.issues] == [
            ("bad_phase_count", *want)
        ]
