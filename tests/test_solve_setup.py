"""The per-network solve set-up: kept by a network's first solve, reused by
every later one, never a cause of a different result, and freed with its
network by reference counting alone."""

import copy
import gc
import json
import os
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest

from steadygrid import analyses, linsys, solver
from steadygrid.analyses import Outage, apply_outage, run_contingencies, sample_contingencies
from steadygrid.caseio import load_case
from steadygrid.indexing import IndexMap
from steadygrid.network import phase_array, validate
from steadygrid.solver import SolverOptions, solve
from steadygrid.stamps import build_companion, effective_params

from conftest import CASE_DIR, case196_tile

# one network per factorization plan
PLANS = {
    "case196_mesh.net": linsys._BandPlan,
    "case56_mesh.net": linsys._BandPlan,  # below the dense cutoff
    "feeder8.json": linsys._DensePlan,  # three-phase
    "hard_corridor.net": linsys._DensePlan,
    "tile2": linsys._SuperluPlan,
}


def _load(name):
    if name == "tile2":
        return case196_tile(2)
    return load_case(os.path.join(CASE_DIR, name)).network


def _result(net, options):
    """The deterministic bytes of one solve: the report without ``meta`` and
    the state."""
    report, state = solve(net, options)
    doc = report.to_dict()
    doc.pop("meta")
    return json.dumps(doc, sort_keys=True), state.x.tobytes()


@pytest.mark.parametrize("method", ["none", "tx", "power"])
@pytest.mark.parametrize("name", sorted(PLANS))
def test_a_solve_does_not_depend_on_what_was_solved_before(name, method):
    options = SolverOptions(homotopy=method)
    net = _load(name)
    runs = [_result(net, options), _result(net, options)]
    _result(_load("case30_mesh.net"), options)  # A-B-A
    runs += [_result(net, options), _result(_load(name), options)]
    assert all(run == runs[0] for run in runs[1:])
    assert isinstance(net._setup[1].pattern.plan, PLANS[name])


def test_the_set_up_is_built_once_and_the_network_validated_once(monkeypatch):
    counts = {"IndexMap": 0, "validate": 0}
    for name in counts:
        real = getattr(solver, name)

        def counting(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(solver, name, counting)
    net = _load("case14.net")
    first, _ = solve(net)
    setup = net._setup
    second, _ = solve(net)
    assert net._setup is setup
    assert counts == {"IndexMap": 1, "validate": 1}
    assert first.status == second.status == "converged"


def test_a_solved_network_is_freed_with_its_set_up(monkeypatch):
    posts = []
    real = analyses.apply_outage

    def keeping_a_weak_reference(network, outage):
        post = real(network, outage)
        posts.append(weakref.ref(post))
        return post

    monkeypatch.setattr(analyses, "apply_outage", keeping_a_weak_reference)
    gc.disable()  # reference counting alone must free each network
    try:
        net = _load("case196_mesh.net")
        options = SolverOptions(homotopy="tx")
        report, state = solve(net, options)
        assert net._setup is not None
        cset = sample_contingencies(net, state, top_fraction=0.01)
        results = run_contingencies(net, state, cset, options)
        outages_alive = [post() is not None for post in posts]
        ref = weakref.ref(net)
        del net, report, state
        alive = ref() is not None
    finally:
        gc.enable()
    assert len(outages_alive) == len(results) == len(cset.outages) > 1
    assert not any(outages_alive)
    assert not alive


def test_a_copy_with_other_devices_solves_as_a_fresh_network():
    net = _load("case14.net")
    options = SolverOptions(homotopy="tx")
    base = _result(net, options)

    def tapped(network):
        tx = network.transformers[0]
        changed = replace(tx, tap=phase_array(float(tx.tap[0]) + 0.05, network.nphase))
        return network.with_devices(transformers=(changed, *network.transformers[1:]))

    copied = tapped(net)
    assert copied._setup is None
    got = _result(copied, options)
    assert got == _result(tapped(_load("case14.net")), options)
    assert got != base
    assert _result(net, options) == base


def test_a_copied_or_unpickled_network_starts_without_the_set_up():
    net = _load("case14.net")
    want = _result(net, SolverOptions())
    assert net._setup is not None
    for other in (copy.copy(net), copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
        assert other._setup is None
        assert _result(other, SolverOptions()) == want


def _reachable(obj, seen):
    """Every object reachable from ``obj`` through containers and instance
    attributes."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    yield obj
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _reachable(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _reachable(item, seen)
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        yield from _reachable(vars(obj), seen)


@pytest.mark.parametrize("name", sorted(PLANS))
def test_every_array_of_the_set_up_is_read_only(name):
    net = _load(name)
    solve(net, SolverOptions(homotopy="tx"))
    arrays = [obj for obj in _reachable(net._setup, set()) if isinstance(obj, np.ndarray)]
    assert len(arrays) > 20
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0


def test_the_set_up_refers_to_no_network():
    net = _load("case6_remote.net")  # remote control, Q slots and virtual shorts
    solve(net, SolverOptions(homotopy="tx"))
    reachable = list(_reachable(net._setup, set()))
    assert not any(isinstance(obj, solver.Network) for obj in reachable)
    index, layout, _ = net._setup
    assert not hasattr(index, "network") and not hasattr(layout, "network")


def _check_set_up_objects(objects):
    """No network among ``objects``, and every array read-only."""
    for obj in objects:
        assert not isinstance(obj, solver.Network)
        assert not isinstance(obj, np.ndarray) or not obj.flags.writeable


def _entry_keys(pattern):
    """``column * n + row`` of each entry of ``pattern``, ascending."""
    n = pattern.indptr.size - 1
    return np.repeat(np.arange(n), np.diff(pattern.indptr)) * n + pattern.indices


@pytest.mark.parametrize("name", sorted(os.listdir(CASE_DIR)))
def test_a_series_outage_gets_its_base_set_up_with_the_bits_of_its_own(name):
    """Every single-branch and single-transformer outage of the corpus: the
    set-up apply_outage derives from the base's is given exactly when the
    outage network is valid, and binds to the same values as a set-up built
    from the outage network itself, with exact zeros where the removed
    device's entries were."""
    net = _load(name)
    base_index, base_layout, _ = solver.solve_setup(net)
    shared = set()  # the base set-up's objects, checked once
    _check_set_up_objects(_reachable(net._setup, shared))
    outages = [Outage(f"b{b.id}", branch_ids=(b.id,)) for b in net.branches]
    outages += [Outage(f"t{t.id}", transformer_ids=(t.id,)) for t in net.transformers]
    for outage in outages:
        post = apply_outage(net, outage)
        assert (post._setup is not None) == (validate(post) == []), outage.label
        if post._setup is None:
            continue
        index, layout, params = post._setup
        assert index is base_index and layout.pattern is base_layout.pattern
        own_layout = build_companion(post, IndexMap(post))
        own_params = effective_params(post)
        for field in vars(params):
            assert np.array_equal(getattr(params, field), getattr(own_params, field)), field
        np.testing.assert_array_equal(layout.linear_owner, own_layout.linear_owner)
        bound, own = layout.bind(params), own_layout.bind(own_params)
        keys, own_keys = _entry_keys(layout.pattern), _entry_keys(own_layout.pattern)
        at = np.searchsorted(keys, own_keys)
        assert np.array_equal(keys[at], own_keys)
        bits = bound.linear_data.view(np.int64)
        assert np.array_equal(bits[at], own.linear_data.view(np.int64)), outage.label
        assert not np.delete(bits, at).any()  # +0.0 on the removed entries
        assert bound.linear_rhs.tobytes() == own.linear_rhs.tobytes()
        _check_set_up_objects(_reachable(post._setup, set(shared)))


def test_an_outage_of_an_outage_network_matches_the_outage_of_both():
    # the derived layout numbers its series devices as the smaller network's own
    net = _load("case14.net")
    first, later, xfmr = net.branches[3].id, net.branches[12].id, net.transformers[1].id
    chained = apply_outage(apply_outage(net, Outage("b", branch_ids=(first,))),
                           Outage("bt", branch_ids=(later,), transformer_ids=(xfmr,)))
    both = apply_outage(net, Outage("all", branch_ids=(first, later), transformer_ids=(xfmr,)))
    (_, got, got_params), (_, want, want_params) = chained._setup, both._setup
    assert np.array_equal(got.linear_slots, want.linear_slots)
    assert np.array_equal(got.linear_owner, want.linear_owner)
    for field in vars(want_params):
        assert np.array_equal(getattr(got_params, field), getattr(want_params, field)), field
