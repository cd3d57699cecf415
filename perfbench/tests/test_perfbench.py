"""Tests of the benchmark's own arithmetic, tracing and input generation.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest -q perfbench/tests``.
"""

import os

import pytest

from steadygrid import solver

from perfbench import jobs as J
from perfbench.layers import summarize
from perfbench.speedref import REF_MS, local_scales, scale
from perfbench.spans import END, INFO, PARENT, START, Tracer, root_time, self_times
from perfbench.stats import pass_rate, tail_percentile
from perfbench.workload import q_pins, run_paired

CASE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "cases")


def span(name, start, end, parent):
    return [name, 0, start, end, parent, None]


def test_self_time_of_nested_spans():
    spans = [
        span("solve", 0, 100, -1),
        span("newton", 10, 40, 0),
        span("stamps", 15, 25, 1),
        span("factor", 26, 30, 1),
        span("check", 50, 90, 0),
        span("gate", 120, 130, -1),
    ]
    assert self_times(spans) == [30, 16, 10, 4, 40, 10]
    assert root_time(spans) == 110
    assert sum(self_times(spans)) == root_time(spans)


def test_tracer_records_parents_and_restores():
    class Box:
        @staticmethod
        def leaf(x):
            if x < 0:
                raise ValueError("negative")
            return x

    tracer = Tracer()
    tracer.rebind(Box, "leaf", "leaf", info=lambda args, out, _: out * 10)
    outer = tracer.wrap("outer", lambda: Box.leaf(1) + Box.leaf(2))
    assert outer() == 3
    with pytest.raises(ValueError):
        Box.leaf(-1)
    tracer.restore()
    assert Box.leaf(5) == 5 and len(tracer.spans) == 4
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "leaf", "leaf", "leaf"]
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 0, -1]
    assert [s[INFO] for s in tracer.spans] == [None, 10, 20, ("raised", "ValueError")]
    assert all(s[END] >= s[START] for s in tracer.spans)


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(30, 0, -1))  # 1..30, unsorted
    value, pct, n = tail_percentile(values)
    assert (value, n) == (20, 30)
    assert pct == pytest.approx(100 * 20 / 30)
    assert sum(v > value for v in values) == 10

    assert tail_percentile(list(range(11))) == (0, 100 / 11, 11)
    # ten or fewer samples: nothing has ten beyond it, report the maximum
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_pass_rate_takes_each_job_once_at_its_median():
    # job 0 ran three times, one of them in a slow spell; job 1 ran twice
    durations = {0: [0.1, 0.5, 0.1], 1: [0.3, 0.3]}
    assert pass_rate(durations) == pytest.approx(2 / 0.4)


def test_speed_scale_uses_the_median_kernel_time():
    ref_s = REF_MS / 1e3
    assert scale([ref_s, 2 * ref_s, 2 * ref_s]) == pytest.approx(0.5)
    assert scale([ref_s / 2, ref_s, 9 * ref_s]) == pytest.approx(1.0)


def test_local_scales_follow_a_slow_spell():
    ref_s = REF_MS / 1e3
    # kernels ran after records 0, 2, 4, 6 and 9; the machine ran at half
    # speed around records 3 to 6
    ref = [(1, ref_s), (3, ref_s), (5, 2 * ref_s), (7, 2 * ref_s), (10, ref_s)]
    assert local_scales(10, ref) == pytest.approx([1, 1, 1, 0.5, 0.5, 0.5, 0.5, 1, 1, 1])
    assert local_scales(2, [(2, ref_s)]) == pytest.approx([1, 1])


def test_hard_ic_samples_repeat_for_a_seed_and_cover_the_box():
    a, b = J.hard_ic_samples(7), J.hard_ic_samples(7)
    assert a == b
    assert a != J.hard_ic_samples(8)
    n = len(a)
    assert all(0.9 <= vm <= 1.1 and -40.0 <= va <= 40.0 for vm, va in a)
    # one sample per magnitude stratum and per angle stratum
    assert sorted(int((vm - 0.9) / 0.2 * n) for vm, _ in a) == list(range(n))
    assert sorted(int((va + 40.0) / 80.0 * n) for _, va in a) == list(range(n))
    # the first half already spans the angle range evenly
    half = sorted(int((va + 40.0) / 80.0 * (n // 2)) for _, va in a[: n // 2])
    assert half == list(range(n // 2))


def describe(jobs):
    return [
        (j.label, j.method, j.options.nr.tol, j.options.nr.max_iter,
         j.options.init.kind, j.options.init.vmag, j.options.init.vang_deg,
         j.outage)
        for j in jobs
    ]


@pytest.mark.parametrize("workload", ["tx196", "n1_warm", "hard_ic", "feeder3p"])
def test_same_seed_builds_the_same_jobs(workload):
    nets = J.load_networks(workload, CASE_DIR)
    first = describe(J.build_jobs(workload, 11, nets))
    assert first == describe(J.build_jobs(workload, 11, nets))
    assert first


def test_q_pins_replays_pin_and_release():
    events = [
        {"device": "gen 3", "action": "pin_qmax", "value": 0.8},
        {"device": "gen 4", "action": "pin_qmin", "value": -0.2},
        {"device": "shunt 1", "action": "blocks", "value": 2},
        {"device": "gen 3", "action": "release", "value": 0.8},
    ]
    assert q_pins(events) == {4: -0.2}


def test_traced_counts_match_the_reports():
    nets = J.load_networks("feeder3p", CASE_DIR)
    jobs = J.build_jobs("feeder3p", 0, nets)
    tracer = Tracer()
    untraced, records, wall = run_paired(jobs, tracer, 0)
    assert [o.counts for _, _, o in untraced] == [o.counts for _, _, o in records]
    assert not hasattr(solver.run_newton, "__wrapped__")
    metrics, own, checks = summarize(tracer.spans, len(records), 0)
    assert checks["solves"] == checks["solve_ids"] == len(jobs)
    assert checks["newton_iterations"] == sum(o.counts[1] for _, _, o in records)
    assert checks["steps_accepted"] == sum(o.counts[2] for _, _, o in records)
    assert checks["outer_passes"] == sum(o.counts[3] for _, _, o in records)
    assert metrics["linsys.pattern_builds"][0] >= 1
    assert sum(own.values()) == checks["root_ns"] <= wall * 1e9
