"""The per-network solve set-up: kept by a network's first solve, reused by
every later one, and never a cause of a different result."""

import copy
import gc
import json
import os
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest

from steadygrid import linsys, solver
from steadygrid.caseio import load_case
from steadygrid.network import phase_array
from steadygrid.solver import SolverOptions, solve

from conftest import CASE_DIR, case196_tile

# one network per factorization plan
PLANS = {
    "case196_mesh.net": linsys._BandPlan,
    "case56_mesh.net": linsys._BandPlan,  # below the dense cutoff
    "feeder8.json": linsys._DensePlan,  # three-phase
    "hard_corridor.net": linsys._DensePlan,
    "tile2": linsys._SUPERLU,
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
    plan, want = net._setup[1].pattern.plan, PLANS[name]
    assert plan == want if isinstance(want, str) else isinstance(plan, want)


def test_the_set_up_is_built_once_and_the_network_validated_every_solve(monkeypatch):
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
    assert counts == {"IndexMap": 1, "validate": 2}
    assert first.status == second.status == "converged"


def test_a_solved_network_is_freed_with_its_set_up():
    net = _load("case196_mesh.net")
    report, state = solve(net, SolverOptions(homotopy="tx"))
    assert net._setup is not None
    ref = weakref.ref(net)
    del net, report, state
    gc.collect()
    assert ref() is None


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


def _arrays(obj, seen):
    """Every numpy array reachable from the set-up, not descending into the
    network it belongs to."""
    if id(obj) in seen or isinstance(obj, solver.Network):
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item, seen)
    elif hasattr(obj, "__dict__"):
        yield from _arrays(vars(obj), seen)


@pytest.mark.parametrize("name", sorted(PLANS))
def test_every_array_of_the_set_up_is_read_only(name):
    net = _load(name)
    solve(net, SolverOptions(homotopy="tx"))
    arrays = list(_arrays(net._setup, set()))
    assert len(arrays) > 20
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0
