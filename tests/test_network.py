import math
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from steadygrid.caseio import load_case
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
    phase_carray,
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
    net_allparts,
)


def test_minimal_network_validates_clean():
    assert validate(net_2bus()) == []


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
    c1 = lambda v: phase_carray(v, 1)
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
    )
    zips = (
        ZipLoad(1, 97, Connection.DELTA, y=c1(0), i=c1(0), s=c1(complex(nan, 0))),
        ZipLoad(2, 1, y=phase_carray(0, 3), i=c1(complex(0, inf)), s=c1(1.0)),
        ZipLoad(3, 2, y=c1(complex(0, nan)), i=c1(0), s=c1(0)),
    )
    bigs = (
        BigLoad(1, 96, alpha=c1(inf), y=phase_carray(0, 3)),
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
    c3 = lambda v: phase_carray(v, 3)
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
# plus the non-finite values and tap tables that validate() rejects since
BROKEN_ISSUES = (
    [
        ('bad_base', 'network', 'base MVA -1.0 not positive'),
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
    assert [(i.code, i.device, i.message) for i in validate(twice)] == [
        ("duplicate_id", f"{name} {devices[0].id}", "id repeated in its family")
    ]


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
