import gc
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from steadygrid import analyses, solver
from steadygrid.analyses import (
    ContingencySet,
    Outage,
    SweepSpec,
    apply_outage,
    run_contingencies,
    run_sweep,
    sample_contingencies,
    tally,
)
from steadygrid.caseio import load_case
from steadygrid.cli import main
from steadygrid.indexing import IndexMap
from steadygrid.network import validate
from steadygrid.nr import NrOptions
from steadygrid.reference import MismatchReport, dense_reference_solve, validate_solution
from steadygrid.solver import (
    CONVERGED, DIVERGED, INFEASIBLE, InitSpec, SolverOptions, solve, transfer_state,
)

from conftest import case_path, net_tap, q_pins

OPTS = SolverOptions(nr=NrOptions(tol=1e-10))


def solved(name, options=OPTS):
    net = load_case(case_path(name)).network
    report, state = solve(net, options)
    assert report.status == CONVERGED
    return net, state


def test_empty_contingency_set():
    net, state = solved("case3_ring.net")
    assert run_contingencies(net, state, ContingencySet([]), OPTS) == []


def test_branch_outage_matches_dense_oracle():
    net, state = solved("case3_ring.net")
    results = run_contingencies(
        net, state, ContingencySet([Outage("b2", branch_ids=(2,))]), OPTS
    )
    assert results[0].status == CONVERGED
    post = apply_outage(net, Outage("b2", branch_ids=(2,)))
    ref = dense_reference_solve(post)
    assert ref.converged
    # re-run to obtain the post state for comparison
    from steadygrid.solver import transfer_state
    from steadygrid.indexing import IndexMap
    index = IndexMap(post)
    warm = transfer_state(state, post, index)
    rep2, st2 = solve(post, SolverOptions(nr=NrOptions(tol=1e-10),
                                          init=InitSpec(kind="warm", state=warm)))
    np.testing.assert_allclose(ref.vm[0], st2.v_mag()[0], atol=1e-8)


def test_a_nan_mismatch_downgrades_a_converged_outage(monkeypatch):
    net, state = solved("case3_ring.net")
    monkeypatch.setattr(analyses, "validate_solution",
                        lambda network, state: MismatchReport(network.domain, max_p=math.nan))
    [result] = run_contingencies(net, state, ContingencySet([Outage("b2", branch_ids=(2,))]), OPTS)
    assert (result.status, result.reason) == (
        DIVERGED, "solution failed independent mismatch check"
    )
    assert math.isnan(result.max_mismatch)


def test_outage_with_tap_control_passes_independent_check():
    # the check must read the taps the outer loop chose, not the case's
    net = net_tap(parallel=True)
    options = SolverOptions()
    base, state = solve(net, options)
    assert base.status == CONVERGED
    cset = ContingencySet([Outage("LB_branch2", branch_ids=(2,))])
    [result] = run_contingencies(net, state, cset, options)
    assert result.status == CONVERGED, result.reason
    assert result.max_mismatch < 10 * options.nr.tol


def test_islanding_marked_infeasible():
    net, state = solved("case12_radial.net")
    # dropping the first chain section separates everything from the slack
    results = run_contingencies(
        net, state, ContingencySet([Outage("cut", branch_ids=(1,))]), OPTS
    )
    assert results[0].status == INFEASIBLE
    assert "islanding" in results[0].reason


def test_unknown_outage_id_rejected():
    net, state = solved("case3_ring.net")
    results = run_contingencies(
        net, state, ContingencySet([Outage("nope", branch_ids=(99,))]), OPTS
    )
    assert results[0].status == INFEASIBLE


def test_an_outage_names_only_its_unknown_ids():
    net, state = solved("case3_ring.net")
    cset = ContingencySet([Outage("mixed", branch_ids=(2, 99))])
    [result] = run_contingencies(net, state, cset, OPTS)
    assert (result.status, result.reason) == (
        INFEASIBLE, "outage mixed: unknown devices: branches (99,)"
    )


def test_an_outage_reports_a_repeated_id_as_repeated():
    net, state = solved("case3_ring.net")
    [result] = run_contingencies(net, state, ContingencySet([Outage("dup", branch_ids=(2, 2))]), OPTS)
    assert (result.status, result.reason) == (
        INFEASIBLE, "outage dup: repeated devices: branches (2,)"
    )


def test_an_outage_of_an_id_two_devices_share_is_rejected():
    # validate rejects such a network (duplicate_id); an outage of it must
    # not pick one of the two devices
    net = load_case(case_path("case3_ring.net")).network
    twin = replace(net.branches[2], id=net.branches[1].id)
    twins = net.with_devices(branches=(*net.branches[:2], twin, *net.branches[3:]))
    with pytest.raises(ValueError, match=r"^outage t: ambiguous devices: branches \(2,\)$"):
        apply_outage(twins, Outage("t", branch_ids=(2,)))


def test_an_invalid_base_network_is_validated_once_for_all_its_outages(monkeypatch):
    net, state = solved("case14.net")
    twin = replace(net.zip_loads[1], id=net.zip_loads[0].id)
    invalid = net.with_devices(zip_loads=(net.zip_loads[0], twin, *net.zip_loads[2:]))
    calls = []
    monkeypatch.setattr(solver, "validate", lambda network, _real=solver.validate: (
        calls.append(network) or _real(network)))
    cset = ContingencySet([Outage("b3", branch_ids=(3,)), Outage("b4", branch_ids=(4,))])
    results = run_contingencies(invalid, state, cset, OPTS)
    # the base once, then each outage network, which has the same twin ids
    assert [network is invalid for network in calls] == [True, False, False]
    for result in results:
        assert result.status == INFEASIBLE and "duplicate_id" in result.reason
    # the kept verdict raises a fresh error each time
    errors = []
    for _ in range(2):
        with pytest.raises(solver.InvalidNetworkError) as err:
            solver.solve_setup(invalid)
        errors.append(err.value)
    assert errors[0] is not errors[1] and errors[0].issues == errors[1].issues
    assert len(calls) == 3


def _capturing_outages(monkeypatch):
    """Weak references to every post-outage network ``run_contingencies``
    builds from now on."""
    refs = []
    real = analyses.apply_outage

    def capturing(network, outage):
        post = real(network, outage)
        refs.append(weakref.ref(post))
        return post

    monkeypatch.setattr(analyses, "apply_outage", capturing)
    return refs


def test_each_outage_network_is_freed_when_its_contingency_finishes(monkeypatch):
    net, state = solved("case14.net")
    radial, radial_state = solved("case12_radial.net")
    runs = [
        (net, state, sample_contingencies(net, state, top_fraction=0.2), CONVERGED),
        # islanding: the post-outage network fails validation before its set-up
        (radial, radial_state, ContingencySet([Outage("cut", branch_ids=(1,))]), INFEASIBLE),
    ]
    refs = _capturing_outages(monkeypatch)
    for network, base, cset, status in runs:
        refs.clear()
        gc.disable()  # reference counting alone must free each network
        try:
            results = run_contingencies(network, base, cset, OPTS)
            alive = [ref() is not None for ref in refs]
        finally:
            gc.enable()
        assert len(refs) == len(cset.outages) and not any(alive)
        assert status in {r.status for r in results}


def _capturing_index_maps(monkeypatch):
    """The networks of every ``IndexMap`` built from now on."""
    built = []
    for module in (solver, analyses):
        real = module.IndexMap

        def counting(network, _real=real):
            built.append(network)
            return _real(network)

        monkeypatch.setattr(module, "IndexMap", counting)
    return built


def _capturing_validations(monkeypatch):
    """The networks of every ``validate`` call from now on."""
    validated = []
    for module in (solver, analyses):
        def counting(network, _real=module.validate):
            validated.append(network)
            return _real(network)

        monkeypatch.setattr(module, "validate", counting)
    return validated


def test_a_series_outage_builds_no_index_map_and_validates_nothing(monkeypatch):
    # a generator outage renumbers the Q slots, so it is set up afresh
    net, state = solved("case14.net")
    cset = sample_contingencies(net, state, top_fraction=0.2)
    assert {bool(o.gen_ids) for o in cset.outages} == {True, False}
    built = _capturing_index_maps(monkeypatch)
    validated = _capturing_validations(monkeypatch)
    for outage in cset.outages:
        built.clear()
        validated.clear()
        [result] = run_contingencies(net, state, ContingencySet([outage]), OPTS)
        assert result.status != INFEASIBLE
        fresh = 1 if outage.gen_ids else 0
        assert (len(built), len(validated)) == (fresh, fresh), outage.label


def test_a_re_solved_outage_reproduces_its_contingency_bit_for_bit():
    # the benchmark's gate re-solves each outage through apply_outage + solve
    options = SolverOptions(nr=NrOptions(tol=1e-8), homotopy="tx")
    net, state = solved("case56_mesh.net", options)
    cset = sample_contingencies(net, state, top_fraction=0.15)
    results = run_contingencies(net, state, cset, options)
    assert CONVERGED in {r.status for r in results}
    for outage, result in zip(cset.outages, results):
        post = apply_outage(net, outage)
        warm = transfer_state(state, post, IndexMap(post))
        report, got = solve(post, replace(options, init=InitSpec(kind="warm", state=warm)))
        counts = (report.status, report.inner_iterations, report.homotopy_steps)
        assert counts == (result.status, result.inner_iterations, result.homotopy_steps)
        if report.status == CONVERGED:
            mismatch = validate_solution(post, got).max
            assert mismatch.hex() == result.max_mismatch.hex(), outage.label


def test_every_converged_warm_outage_agrees_with_the_dense_oracle():
    # a warm start is trusted under tx: each outage must still land on the
    # solution the oracle finds from its own flat start, with the outer
    # loop's Q pins replayed
    options = SolverOptions(nr=NrOptions(tol=1e-8), homotopy="tx")
    net, state = solved("case56_mesh.net", options)
    checked = 0
    for outage in sample_contingencies(net, state, top_fraction=1.0).outages:
        post = apply_outage(net, outage)
        if validate(post):
            continue
        warm = transfer_state(state, post, IndexMap(post))
        report, got = solve(post, replace(options, init=InitSpec(kind="warm", state=warm)))
        if report.status != CONVERGED:
            continue
        ref = dense_reference_solve(post, q_pins=q_pins(report.switch_events), tol=1e-12)
        assert ref.converged, outage.label
        v_ref = ref.vm * np.exp(1j * ref.va)
        assert np.abs(v_ref - got.v_complex()[0]).max() <= 1e-8, outage.label
        checked += 1
    assert checked >= 100


def test_an_islanding_outage_is_rejected_before_any_index_map(monkeypatch):
    net, state = solved("case12_radial.net")
    built = _capturing_index_maps(monkeypatch)
    validated = []
    for module in (solver, analyses):
        def counting(network, _real=module.validate):
            validated.append(network)
            return _real(network)

        monkeypatch.setattr(module, "validate", counting)
    [result] = run_contingencies(net, state, ContingencySet([Outage("cut", branch_ids=(1,))]), OPTS)
    assert built == []
    assert len(validated) == 1  # the reason comes from the issues solve_setup raised with
    assert (result.status, result.reason) == (INFEASIBLE, "islanding without slack")


def test_sampler_takes_biggest_devices():
    net, state = solved("case14.net")
    cset = sample_contingencies(net, state, top_fraction=0.2)
    labels = [o.label for o in cset.outages]
    assert any(l.startswith("LG_gen") for l in labels)
    assert any(l.startswith("LB_") for l in labels)
    gen_outs = [o for o in cset.outages if o.gen_ids]
    dropped = {o.gen_ids[0] for o in gen_outs}
    assert 1 in dropped  # the big machine goes first


def test_contingency_csv_format(tmp_path):
    # the CLI's contingency.csv: one row per result of the same screen
    main(["contingency", case_path("case3_ring.net"), "--tol", "1e-10", "--top-fraction", "1",
          "--out", str(tmp_path)])
    lines = (tmp_path / "contingency.csv").read_text().splitlines()
    assert lines[0] == "label,status,inner_iters,homotopy_steps,max_mismatch"
    net, state = solved("case3_ring.net")
    results = run_contingencies(net, state, sample_contingencies(net, state, 1.0), OPTS)
    assert CONVERGED in {r.status for r in results}
    assert lines[1:] == [f"{r.label},{r.status},{r.inner_iterations},{r.homotopy_steps},"
                         f"{r.max_mismatch!r}" for r in results]


def test_results_in_input_order():
    net, state = solved("case14.net")
    cset = sample_contingencies(net, state, top_fraction=0.2)
    results = run_contingencies(net, state, cset, OPTS)
    assert [r.label for r in results] == [o.label for o in cset.outages]


def test_tally_counts():
    net, state = solved("case3_ring.net")
    results = run_contingencies(
        net, state,
        ContingencySet([Outage("a", branch_ids=(2,)), Outage("b", branch_ids=(3,))]),
        OPTS,
    )
    counts = tally(results)
    assert sum(counts.values()) == 2


def test_warm_start_no_worse_than_flat(recwarn):
    # repo policy: a regression signal, logged instead of failed
    net, state = solved("case9.net")
    cset = sample_contingencies(net, state, top_fraction=0.34)
    warm = run_contingencies(net, state, cset, OPTS)
    for res, outage in zip(warm, cset.outages):
        try:
            post = apply_outage(net, outage)
        except ValueError:
            continue
        if validate(post):
            continue
        flat_rep, _ = solve(post, OPTS)
        if flat_rep.status == CONVERGED and res.status != CONVERGED:
            warnings.warn(f"warm start degraded {outage.label}")
    # nothing asserted: violations surface as warnings in the report


# -- sweeps ----------------------------------------------------------------------


def test_batch_sizes_outside_their_range_rejected():
    with pytest.raises(ValueError, match="samples"):
        SweepSpec(samples=0)
    net, state = solved("case9.net")
    for bad in (-2.0, 0.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="top_fraction"):
            sample_contingencies(net, state, top_fraction=bad)
    assert sample_contingencies(net, state, top_fraction=1.0).outages


def test_sweep_samples_must_be_an_integer():
    for bad in (2.5, "3", 3.0, None):
        with pytest.raises(ValueError, match="samples must be an integer"):
            SweepSpec(samples=bad)
    assert SweepSpec(samples=np.int64(3)).samples == 3


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_sweep_rejects_a_seed_numpy_cannot_take(seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        SweepSpec(seed=seed)
    for good in (None, 0, np.int64(3)):
        assert SweepSpec(seed=good).seed == good


def test_sweep_of_size_one_matches_plain_solve():
    net = load_case(case_path("case3_ring.net")).network
    result = run_sweep(net, SweepSpec(samples=1, seed=11), OPTS)
    assert result.statuses == [CONVERGED]
    [(vmag, vang_deg)] = result.samples
    start = InitSpec(kind="uniform", vmag=vmag, vang_deg=vang_deg)
    plain, _ = solve(net, replace(OPTS, init=start))
    assert result.iterations[0] == plain.inner_iterations


def test_sweep_csv_row_count_and_header(tmp_path):
    # the CLI's sweep.csv: one row per sample of the same sweep
    main(["sweep", case_path("case3_ring.net"), "--tol", "1e-10", "--samples", "5", "--seed", "3",
          "--out", str(tmp_path)])
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "sample,vmag0,vang0,status,iters"
    net = load_case(case_path("case3_ring.net")).network
    result = run_sweep(net, SweepSpec(samples=5, seed=3), OPTS)
    assert lines[1:] == [f"{k},{vm!r},{va!r},{st},{it}" for k, ((vm, va), st, it)
                         in enumerate(zip(result.samples, result.statuses, result.iterations))]


def test_sweep_seed_reproducible():
    net = load_case(case_path("case3_ring.net")).network
    a = run_sweep(net, SweepSpec(samples=4, seed=9), OPTS)
    b = run_sweep(net, SweepSpec(samples=4, seed=9), OPTS)
    assert a.samples == b.samples and a.statuses == b.statuses
    assert a.iterations == b.iterations


def test_converged_samples_agree():
    net = load_case(case_path("case5_mesh.net").__str__()).network
    opts = SolverOptions(nr=NrOptions(tol=1e-10), homotopy="tx")
    result = run_sweep(net, SweepSpec(samples=6, seed=1), opts)
    assert result.n_converged == 6
    assert result.max_pairwise_dv < 1e-6
