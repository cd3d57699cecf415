import os
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.sparse.linalg import splu

from steadygrid import linsys
from steadygrid.caseio import load_case
from steadygrid.indexing import IndexMap, flat_state
from steadygrid.linsys import SingularityError, SparseSystem, compress_pattern
from steadygrid.solver import SolverOptions, solve
from steadygrid.stamps import build_companion, effective_params

from conftest import CASE_DIR, assembled, case196_tile

# the smallest system SuperLU factors; smaller ones are factored dense
SPARSE_N = linsys._DENSE_MAX_N + 1


def _no_band(*args, **kwargs):
    raise AssertionError("band LU set up for a system the flop rule keeps on SuperLU")


def _recording(monkeypatch, *names):
    """Wrap each named LAPACK or SuperLU entry point of ``linsys`` so that
    every call appends its name to the returned list."""
    calls = []

    def wrap(name, real):
        def record(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return record

    for name in names:
        monkeypatch.setattr(linsys, name, wrap(name, getattr(linsys, name)))
    return calls


def reduce(pattern, slots, vals):
    """Values given per coordinate summed into the pattern's CSC data."""
    return np.bincount(slots, weights=np.asarray(vals, dtype=float),
                       minlength=pattern.indices.size)


def assemble(s, rows, cols, vals, rhs):
    """Compress the coordinates and assemble ``s`` from triplets."""
    pattern, slots = compress_pattern(s.n, rows, cols)
    s.assemble(pattern, reduce(pattern, slots, vals), np.asarray(rhs, dtype=float))


def test_duplicate_triplets_are_summed():
    s = SparseSystem(2)
    assemble(s, [0, 0, 1], [0, 0, 1], [1.0, 2.0, 1.0], np.zeros(2))
    a = np.asarray(s.matrix.todense())
    assert a[0, 0] == 3.0


def test_empty_matrix_is_singular():
    s = SparseSystem(3)
    assemble(s, [], [], [], np.zeros(3))
    with pytest.raises(SingularityError):
        s.factor_solve()


def test_identity_solve():
    s = SparseSystem(3)
    assemble(s, [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0])
    x = s.factor_solve()
    np.testing.assert_allclose(x, [1.0, 0.0, 0.0])


def test_two_by_two_hand_solve():
    s = SparseSystem(2)
    assemble(s, [0, 0, 1, 1], [0, 1, 0, 1], [2.0, 1.0, 1.0, 2.0], [3.0, 3.0])
    np.testing.assert_allclose(s.factor_solve(), [1.0, 1.0], atol=1e-14)


def test_zero_row_reports_row_index():
    s = SparseSystem(3)
    assemble(s, [0, 2], [0, 2], [1.0, 1.0], np.zeros(3))
    with pytest.raises(SingularityError) as err:
        s.factor_solve()
    assert err.value.row == 1


def test_index_out_of_range_rejected():
    with pytest.raises(IndexError):
        compress_pattern(2, [0, 2], [0, 0])
    with pytest.raises(IndexError):
        compress_pattern(2, [0], [5])
    with pytest.raises(IndexError):
        compress_pattern(2, [-1], [0])


def test_numerically_singular_matrix():
    s = SparseSystem(2)
    assemble(s, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 2.0, 4.0], [1.0, 0.0])
    with pytest.raises(SingularityError):
        s.factor_solve()


def test_assembly_deterministic_bits():
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 50, size=400)
    cols = rng.integers(0, 50, size=400)
    vals = rng.normal(size=400)
    rhs = np.zeros(50)
    rhs[0] = 1.0
    s1 = SparseSystem(50)
    assemble(s1, rows, cols, vals, rhs)
    d1 = s1.matrix.data.copy()
    s2 = SparseSystem(50)
    assemble(s2, rows, cols, vals, rhs)
    assert np.array_equal(d1, s2.matrix.data)


def test_pattern_reuse_counter():
    rng = np.random.default_rng(6)
    rows = rng.integers(0, 20, size=100)
    cols = rng.integers(0, 20, size=100)
    # make sure every row/col has a diagonal entry
    rows = np.concatenate([rows, np.arange(20)])
    cols = np.concatenate([cols, np.arange(20)])
    pattern, slots = compress_pattern(20, rows, cols)
    s = SparseSystem(20)
    for k in range(5):
        vals = rng.normal(size=rows.size) + 10.0
        s.assemble(pattern, reduce(pattern, slots, vals), np.ones(20))
        s.factor_solve()
    assert s.pattern_builds == 1
    # a different pattern counts once more
    assemble(s, rows[:-1], cols[:-1], np.ones(rows.size - 1), np.zeros(20))
    assert s.pattern_builds == 2
    # patterns are told apart by identity, not by their bytes
    again, _ = compress_pattern(20, rows, cols)
    assert np.array_equal(again.indices, pattern.indices)
    s.assemble(again, reduce(again, slots, vals), np.ones(20))
    assert s.pattern_builds == 3


@pytest.mark.parametrize("n", [10, 100, 1000, 10000])
def test_backward_error_on_diagonally_dominant(n):
    # nodal matrices are local: random entries near the diagonal
    rng = np.random.default_rng(n)
    nnz_per_row = 5
    rows = np.repeat(np.arange(n), nnz_per_row)
    cols = (rows + rng.integers(-20, 21, size=n * nnz_per_row)) % n
    vals = rng.normal(size=n * nnz_per_row)
    # add a dominant diagonal
    rows = np.concatenate([rows, np.arange(n)])
    cols = np.concatenate([cols, np.arange(n)])
    vals = np.concatenate([vals, np.full(n, 10.0 * nnz_per_row)])
    b = rng.normal(size=n)
    s = SparseSystem(n)
    assemble(s, rows, cols, vals, b)
    x = s.factor_solve()
    # relative infinity-norm backward error
    assert np.max(np.abs(s.matrix @ x - b)) / max(1.0, np.max(np.abs(b))) < 1e-10


def test_badly_scaled_rows_are_equilibrated():
    # rows spanning 10 orders of magnitude, still solvable
    s = SparseSystem(2)
    assemble(s, [0, 0, 1, 1], [0, 1, 0, 1], [1e10, 1e10, 1.0, 2.0], [2e10, 3.0])
    x = s.factor_solve()
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-9)


def test_explicit_zero_row_reports_row_index():
    s = SparseSystem(3)
    assemble(s, [0, 1, 1, 2], [0, 0, 2, 2], [1.0, 0.0, 0.0, 1.0], np.ones(3))
    with pytest.raises(SingularityError) as err:
        s.factor_solve()
    assert err.value.row == 1
    assert err.value.reason == "row has no entries"


def _random_system(n, rng):
    """Random solvable triplets: scattered entries plus a dominant diagonal."""
    rows = np.concatenate([rng.integers(0, n, size=4 * n), np.arange(n)])
    cols = np.concatenate([rng.integers(0, n, size=4 * n), np.arange(n)])
    vals = np.concatenate([rng.normal(size=4 * n), np.full(n, 10.0)])
    return rows, cols, vals


def _with_zero_slots(n, rows, cols, vals, rng):
    """The triplets plus explicit zeros on fresh slots and on top of existing ones."""
    zr = np.concatenate([rng.integers(0, n, size=40), rows[:40]])
    zc = np.concatenate([rng.integers(0, n, size=40), cols[:40]])
    return (np.concatenate([rows, zr]), np.concatenate([cols, zc]),
            np.concatenate([vals, np.zeros(zr.size)]))


def test_explicit_zeros_do_not_change_the_solution(monkeypatch):
    monkeypatch.setattr(linsys, "dgbtrf", _no_band)
    rng = np.random.default_rng(7)
    # dense: the zero slots scatter zeros where the buffer holds zeros anyway
    n = 40
    rows, cols, vals = _random_system(n, rng)
    rhs = rng.normal(size=n)
    s1, s2 = SparseSystem(n), SparseSystem(n)
    assemble(s1, rows, cols, vals, rhs)
    assemble(s2, *_with_zero_slots(n, rows, cols, vals, rng), rhs)
    assert s2.matrix.nnz > s1.matrix.nnz
    assert np.array_equal(s1.factor_solve(), s2.factor_solve())
    # SuperLU orders the structure, zero slots included, so a pattern with
    # them solves to the last bits only; within one pattern, which values
    # are exactly zero never reorders: a system that first factored other
    # zeros solves as a fresh pattern's first, COLAMD, factorization
    n = SPARSE_N + 40
    rows, cols, vals = _random_system(n, rng)
    rhs = rng.normal(size=n)
    s1 = SparseSystem(n)
    assemble(s1, rows, cols, vals, rhs)
    x1 = s1.factor_solve()
    rows, cols, vals = _with_zero_slots(n, rows, cols, vals, rng)
    pattern, slots = compress_pattern(n, rows, cols)
    s2 = SparseSystem(n)
    other = vals.copy()
    other[(rng.random(vals.size) < 0.2) & (rows != cols)] = 0.0
    s2.assemble(pattern, reduce(pattern, slots, other), rhs)
    s2.factor_solve()
    s2.assemble(pattern, reduce(pattern, slots, vals), rhs)
    fresh = SparseSystem(n)
    assemble(fresh, rows, cols, vals, rhs)
    x2 = s2.factor_solve()
    assert x2.tobytes() == fresh.factor_solve().tobytes()
    assert np.max(np.abs(x2 - x1)) <= 1e-12 * np.max(np.abs(x1))
    assert (s2.orderings, fresh.orderings) == (1, 1)


def test_factor_solve_leaves_the_cached_pattern_intact(monkeypatch):
    # a random 216-unknown system has a flop ratio near 30: it stays on SuperLU
    monkeypatch.setattr(linsys, "dgbtrf", _no_band)
    rng = np.random.default_rng(8)
    for n in (40, SPARSE_N + 40):
        rows, cols, base = _random_system(n, rng)
        pattern, slots = compress_pattern(n, rows, cols)
        with pytest.raises(ValueError):
            pattern.indices[0] = 0
        with pytest.raises(ValueError):
            pattern.indptr[0] = 1
        s = SparseSystem(n)
        for _ in range(5):
            # fresh values each round, explicit zeros off the diagonal
            vals = base * rng.uniform(0.5, 2.0, size=base.size)
            vals[(rng.random(base.size) < 0.3) & (rows != cols)] = 0.0
            rhs = rng.normal(size=n)
            s.assemble(pattern, reduce(pattern, slots, vals), rhs)
            indices, indptr = s.matrix.indices.copy(), s.matrix.indptr.copy()
            x = s.factor_solve()
            assert np.array_equal(s.matrix.indices, indices)
            assert np.array_equal(s.matrix.indptr, indptr)
            fresh = SparseSystem(n)
            assemble(fresh, rows, cols, vals, rhs)
            assert np.array_equal(fresh.matrix.indices, indices)
            assert np.array_equal(fresh.matrix.indptr, indptr)
            assert np.array_equal(fresh.factor_solve(), x)
        assert s.pattern_builds == 1


def _colamd_factor_solve(a, b):
    """The path without a plan: equilibrate, keep the exact zeros, COLAMD
    ``splu`` without supernodes, one refinement step."""
    absmax = np.zeros(a.shape[0])
    np.maximum.at(absmax, a.indices, np.abs(a.data))
    scale = 1.0 / absmax
    a_s = sparse.csc_matrix((a.data * scale[a.indices], a.indices, a.indptr), shape=a.shape)
    b_s = scale * b
    lu = splu(a_s, relax=1, panel_size=1)
    x = lu.solve(b_s)
    res = b_s - a_s @ x
    if np.max(np.abs(res)) / max(1.0, np.max(np.abs(b_s))) > 1e-12:
        x = x + lu.solve(res)
    return x


def test_kept_order_matches_a_fresh_colamd_factorization(monkeypatch):
    monkeypatch.setattr(linsys, "dgbtrf", _no_band)
    rng = np.random.default_rng(9)
    n = SPARSE_N + 60
    rows, cols, base = _random_system(n, rng)
    pattern, slots = compress_pattern(n, rows, cols)
    off = rows != cols
    masks = [(rng.random(base.size) < 0.2) & off for _ in range(2)]
    s = SparseSystem(n)
    # the pattern's order serves every set of zeros: COLAMD runs once
    for which in [0, 0, 0, 1, 1, 1, 0, 0]:
        vals = base * rng.uniform(0.5, 2.0, size=base.size)
        vals[masks[which]] = 0.0
        rhs = rng.normal(size=n)
        s.assemble(pattern, reduce(pattern, slots, vals), rhs)
        want = _colamd_factor_solve(s.matrix, rhs)
        assert s.factor_solve().tobytes() == want.tobytes()
        assert s.orderings == 1
    assert s.pattern_builds == 1
    assert isinstance(pattern.plan, linsys._SuperluPlan)


def test_orderings_count_masks_and_patterns(monkeypatch):
    monkeypatch.setattr(linsys, "dgbtrf", _no_band)
    rng = np.random.default_rng(10)
    n = SPARSE_N + 30
    rows, cols, base = _random_system(n, rng)
    pattern, slots = compress_pattern(n, rows, cols)
    s = SparseSystem(n)
    for _ in range(3):
        s.assemble(pattern, reduce(pattern, slots, base * rng.uniform(0.5, 2.0, base.size)),
                   np.ones(n))
        s.factor_solve()
    assert s.orderings == 1
    # a new set of exact zeros orders nothing
    vals = base.copy()
    vals[np.flatnonzero(rows != cols)[:5]] = 0.0
    s.assemble(pattern, reduce(pattern, slots, vals), np.ones(n))
    s.factor_solve()
    assert s.orderings == 1
    # an equal pattern under another identity is a new pattern, and orders
    again, _ = compress_pattern(n, rows, cols)
    s.assemble(again, reduce(again, slots, vals), np.ones(n))
    s.factor_solve()
    assert (s.orderings, s.pattern_builds) == (2, 2)


def _block_system(n):
    """A full 2 x 2 block on unknowns 0 and 1 and a unit diagonal on the
    others: the pattern, and the data that puts a given block (row-major) there.

    SuperLU eliminates it in 2 flops and the band (``kl = ku = 1``) in
    ``2 n``, so the flop rule keeps it on SuperLU.
    """
    rows = np.concatenate([[0, 0, 1, 1], np.arange(2, n)])
    cols = np.concatenate([[0, 1, 0, 1], np.arange(2, n)])
    pattern, slots = compress_pattern(n, rows, cols)
    return pattern, lambda block: reduce(pattern, slots, np.concatenate([block, np.ones(n - 2)]))


def test_singular_call_on_a_kept_order_leaves_it_usable(monkeypatch):
    monkeypatch.setattr(linsys, "dgbtrf", _no_band)
    n = SPARSE_N
    pattern, data = _block_system(n)
    ones = np.ones(n)
    s = SparseSystem(n)
    s.assemble(pattern, data([2.0, 1.0, 1.0, 2.0]), np.concatenate([[3.0, 3.0], ones[2:]]))
    np.testing.assert_allclose(s.factor_solve(), ones, atol=1e-14)
    # same zero structure, numerically singular
    s.assemble(pattern, data([1.0, 2.0, 2.0, 4.0]), np.concatenate([[1.0, 0.0], ones[2:]]))
    with pytest.raises(SingularityError):
        s.factor_solve()
    s.assemble(pattern, data([4.0, 1.0, 1.0, 3.0]), np.concatenate([[5.0, 4.0], ones[2:]]))
    np.testing.assert_allclose(s.factor_solve(), ones, atol=1e-14)
    assert s.orderings == 1


def test_a_first_factorization_that_raises_keeps_no_order(monkeypatch):
    monkeypatch.setattr(linsys, "reverse_cuthill_mckee", _no_band)
    n = SPARSE_N
    pattern, data = _block_system(n)
    s = SparseSystem(n)
    s.assemble(pattern, data([1.0, 2.0, 2.0, 4.0]), np.ones(n))
    with pytest.raises(SingularityError):
        s.factor_solve()
    assert s.orderings == 0


def test_every_factorization_uses_one_superlu_setting(monkeypatch):
    calls = []

    def recording_splu(a, **kwargs):
        calls.append(kwargs)
        return splu(a, **kwargs)

    monkeypatch.setattr(linsys, "splu", recording_splu)
    # case196 takes the band from its first factorization on; two tiled copies
    # of it stay on SuperLU for the whole solve
    monkeypatch.setattr(linsys, "dgbtrf", _no_band)
    report, _ = solve(case196_tile(2), SolverOptions(homotopy="tx"))
    assert report.status == "converged"
    specs = [c.pop("permc_spec") for c in calls]
    assert {"COLAMD", "NATURAL"} <= set(specs)
    assert all(c == {"relax": 1, "panel_size": 1} for c in calls)


def test_assemble_builds_one_matrix_per_pattern():
    rng = np.random.default_rng(11)
    rows, cols, base = _random_system(20, rng)
    pattern, slots = compress_pattern(20, rows, cols)
    s = SparseSystem(20)
    s.assemble(pattern, reduce(pattern, slots, base), np.ones(20))
    first = s.matrix
    second = reduce(pattern, slots, 2.0 * base)
    s.assemble(pattern, second, np.zeros(20))
    assert s.matrix is first
    assert s.matrix.data is second
    assert np.shares_memory(s.matrix.indices, pattern.indices)
    assert np.shares_memory(s.matrix.indptr, pattern.indptr)
    assert not s.matrix.indices.flags.writeable and not s.matrix.indptr.flags.writeable
    with pytest.raises(ValueError):
        s.assemble(pattern, second[:-1], np.zeros(20))
    other, other_slots = compress_pattern(20, rows, cols)
    s.assemble(other, reduce(other, other_slots, base), np.ones(20))
    assert s.matrix is not first
    assert np.shares_memory(s.matrix.indices, other.indices)


# -- the dense path ---------------------------------------------------------------


def _no_splu(*args, **kwargs):
    raise AssertionError("splu called on a system at or below the dense cutoff")


def _equilibrated(a, b):
    """The row-equilibrated dense matrix and right-hand side."""
    dense = a.toarray()
    scale = 1.0 / np.max(np.abs(dense), axis=1)
    return dense * scale[:, None], b * scale


def test_dense_solve_agrees_with_a_reference_solve(monkeypatch):
    monkeypatch.setattr(linsys, "splu", _no_splu)
    rng = np.random.default_rng(12)
    for n in (2, 5, 28, 121, linsys._DENSE_MAX_N):
        for _ in range(3):
            rows, cols, vals = _random_system(n, rng)
            # rows a few orders of magnitude apart, as mid-continuation
            vals = vals * 10.0 ** rng.integers(-4, 5, size=n)[rows]
            rhs = rng.normal(size=n)
            s = SparseSystem(n)
            assemble(s, rows, cols, vals, rhs)
            x = s.factor_solve()
            want = np.linalg.solve(*_equilibrated(s.matrix, rhs))
            assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))
            assert s.orderings == 0


def test_dense_zero_pivot_names_the_unknown(monkeypatch):
    monkeypatch.setattr(linsys, "splu", _no_splu)
    # unknown 2 is the sum of unknowns 0 and 1 in every row
    s = SparseSystem(3)
    assemble(s, [0, 0, 0, 1, 1, 1, 2, 2, 2], [0, 1, 2, 0, 1, 2, 0, 1, 2],
             [1.0, 2.0, 3.0, 4.0, 1.0, 5.0, 2.0, 2.0, 4.0], np.ones(3))
    with pytest.raises(SingularityError) as err:
        s.factor_solve()
    assert err.value.row == 2
    assert err.value.reason == "zero pivot at unknown 2"


@pytest.mark.parametrize("n", [3, SPARSE_N])
def test_empty_and_zero_rows_are_reported_on_both_paths(monkeypatch, n):
    # raised by the row checks, before any factorization; above the dense
    # cutoff also before a band order is computed, while a smaller pattern
    # sets its plan from the pattern alone first
    calls = _recording(monkeypatch, "splu", "dgbtrf", "dgetrf", "reverse_cuthill_mckee")
    empty = SparseSystem(n)
    assemble(empty, [], [], [], np.zeros(n))
    with pytest.raises(SingularityError) as err:
        empty.factor_solve()
    assert (err.value.row, err.value.reason) == (0, "row has no entries")
    # row 1 has no slot, and row 2 only an explicit zero
    keep = np.setdiff1d(np.arange(n), [1, 2])
    s = SparseSystem(n)
    assemble(s, np.concatenate([keep, [2]]), np.concatenate([keep, [0]]),
             np.concatenate([np.ones(keep.size), [0.0]]), np.ones(n))
    with pytest.raises(SingularityError) as err:
        s.factor_solve()
    assert (err.value.row, err.value.reason) == (1, "row has no entries")
    assert calls == (2 * ["reverse_cuthill_mckee"] if n <= linsys._DENSE_MAX_N else [])


@pytest.mark.parametrize("n", [3, SPARSE_N])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 5e-309])
def test_non_finite_data_raises_on_both_paths(n, bad):
    # 5e-309 is finite, but its reciprocal, the row's scale, overflows
    reason = "row scale overflows" if np.isfinite(bad) else "non-finite matrix entry"
    pattern, slots = compress_pattern(n, np.arange(n), np.arange(n))
    vals = np.ones(n)
    vals[1] = bad
    s = SparseSystem(n)
    s.assemble(pattern, reduce(pattern, slots, vals), np.ones(n))
    # raised before any arithmetic on the row, so numpy has nothing to warn about
    with pytest.raises(SingularityError) as err:
        s.factor_solve()
    assert (err.value.row, err.value.reason) == (1, reason)
    assert s.orderings == 0
    # the call left nothing behind: the same pattern, with the smallest row
    # maximum that has a finite scale, solves as on a fresh system
    vals[1] = np.nextafter(linsys._MIN_ROW_MAX, 1.0)
    s.assemble(pattern, reduce(pattern, slots, vals), np.ones(n))
    fresh = SparseSystem(n)
    assemble(fresh, np.arange(n), np.arange(n), vals, np.ones(n))
    x = s.factor_solve()
    assert np.isfinite(x).all() and x.tobytes() == fresh.factor_solve().tobytes()


def test_the_first_bad_row_is_reported_whichever_its_kind():
    for n in (4, SPARSE_N):
        # row 1 holds a nan next to a finite entry, row 2 has no entry
        rows = np.concatenate([[0, 1, 1], np.arange(3, n)])
        cols = np.concatenate([[0, 0, 1], np.arange(3, n)])
        vals = np.concatenate([[1.0, 2.0, np.nan], np.ones(n - 3)])
        s = SparseSystem(n)
        assemble(s, rows, cols, vals, np.ones(n))
        with pytest.raises(SingularityError) as err:
            s.factor_solve()
        assert (err.value.row, err.value.reason) == (1, "non-finite matrix entry")
        vals[2] = 3.0
        assemble(s, rows, cols, vals, np.ones(n))
        with pytest.raises(SingularityError) as err:
            s.factor_solve()
        assert (err.value.row, err.value.reason) == (2, "row has no entries")


def _old_dense_factor_solve(a, b):
    """The dense path equilibrated on the CSC arrays: ``np.maximum.at`` row
    maxima, the scaled data scattered into a zeroed Fortran-order matrix,
    ``dgetrf``/``dgetrs``, one refinement step."""
    n = a.shape[0]
    absmax = np.zeros(n)
    np.maximum.at(absmax, a.indices, np.abs(a.data))
    scale = 1.0 / absmax
    a_s = np.zeros((n, n), order="F")
    cols = np.repeat(np.arange(n), np.diff(a.indptr))
    a_s.reshape(-1, order="F")[cols * n + a.indices] = a.data * scale[a.indices]
    lu, piv, info = dgetrf(a_s)
    assert info == 0
    b_s = scale * b
    x = dgetrs(lu, piv, b_s)[0]
    res = b_s - a_s @ x
    if np.max(np.abs(res)) / max(1.0, np.max(np.abs(b_s))) > 1e-12:
        x = x + dgetrs(lu, piv, res)[0]
    return x


@pytest.mark.parametrize("n", [1, 28, 54, 121, linsys._DENSE_MAX_N])
def test_dense_path_matches_the_csc_equilibration_bit_for_bit(monkeypatch, n):
    monkeypatch.setattr(linsys, "splu", _no_splu)
    solves = []

    def counting_dgetrs(*args):
        solves.append(1)
        return dgetrs(*args)

    monkeypatch.setattr(linsys, "dgetrs", counting_dgetrs)
    rng = np.random.default_rng(15 + n)
    rows, cols, base = _random_system(n, rng)
    # explicit zeros on fresh slots, and rows 0 and 1 full (n = 1 has no row 1)
    rows = np.concatenate([rows, rng.integers(0, n, size=n), np.repeat([0, 1], n)])
    cols = np.concatenate([cols, rng.integers(0, n, size=n), np.tile(np.arange(n), 2)])
    keep = rows < n
    rows, cols = rows[keep], cols[keep]
    pattern, slots = compress_pattern(n, rows, cols)
    row0, row1 = (np.flatnonzero(pattern.indices == r) for r in (0, 1))
    # each row scaled by up to 8 decades, half of them negated
    decades = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-4, 4, size=n)
    s = SparseSystem(n)
    rounds = 6
    for k in range(rounds):  # one buffer per pattern, reused
        vals = np.concatenate([base * rng.uniform(0.5, 2.0, size=base.size), np.zeros(n),
                               rng.normal(size=rows.size - base.size - n)])
        vals[(rng.random(vals.size) < 0.2) & (rows != cols) & (rows > 1)] = 0.0
        data = reduce(pattern, slots, vals * decades[rows])
        if k % 2 and n > 1:
            # row 1 a near copy of row 0: the backward error is loose, so the
            # refinement step runs
            data[row1] = data[row0] * (1.0 + 1e-9 * rng.normal(size=n))
        rhs = rng.normal(size=n) * decades
        s.assemble(pattern, data, rhs)
        want = _old_dense_factor_solve(s.matrix, rhs)
        assert s.factor_solve().tobytes() == want.tobytes()
    assert (s.pattern_builds, s.orderings) == (1, 0)
    assert len(solves) > rounds or n == 1


def test_the_cutoff_separates_the_two_paths(monkeypatch):
    calls = []

    def recording_splu(a, **kwargs):
        calls.append(a.shape[0])
        return splu(a, **kwargs)

    monkeypatch.setattr(linsys, "splu", recording_splu)
    rng = np.random.default_rng(13)
    for n in (linsys._DENSE_MAX_N, linsys._DENSE_MAX_N + 1):
        rows, cols, vals = _random_system(n, rng)
        s = SparseSystem(n)
        assemble(s, rows, cols, vals, np.ones(n))
        s.factor_solve()
        assert s.orderings == (n > linsys._DENSE_MAX_N)
    # COLAMD chooses the SuperLU plan, on which the call then factors
    assert calls == 2 * [linsys._DENSE_MAX_N + 1]


# -- the band path ----------------------------------------------------------------


def _mesh_system(k, k2, rng):
    """Triplets of a k x k2 grid of nodes with a 2 x 2 block per node and per
    grid edge, as a nodal Jacobian in rectangular coordinates, plus a dominant
    diagonal. The unknowns are shuffled, so only a reordering makes it narrow."""
    node = np.arange(k * k2).reshape(k, k2)
    a = np.concatenate([node[:, :-1].ravel(), node[:-1, :].ravel()])
    b = np.concatenate([node[:, 1:].ravel(), node[1:, :].ravel()])
    src = np.concatenate([node.ravel(), a, b])
    dst = np.concatenate([node.ravel(), b, a])
    shuffle = rng.permutation(2 * k * k2)
    rows = shuffle[(2 * src[:, None] + [0, 0, 1, 1]).ravel()]
    cols = shuffle[(2 * dst[:, None] + [0, 1, 0, 1]).ravel()]
    vals = rng.normal(size=rows.size) + np.where(rows == cols, 10.0, 0.0)
    return rows, cols, vals


def _band_system(k, k2, rng):
    """A mesh system after one factorization, which chose the band: the
    system, its pattern and slots, and its triplets."""
    rows, cols, vals = _mesh_system(k, k2, rng)
    n = 2 * k * k2
    pattern, slots = compress_pattern(n, rows, cols)
    s = SparseSystem(n)
    s.assemble(pattern, reduce(pattern, slots, vals), np.ones(n))
    s.factor_solve()
    assert isinstance(pattern.plan, linsys._BandPlan)
    return s, pattern, slots, (rows, cols, vals)


def test_band_solve_agrees_with_a_reference_solve(monkeypatch):
    calls = _recording(monkeypatch, "splu", "dgbtrf")
    rng = np.random.default_rng(16)
    for k, k2 in ((10, 9), (14, 14), (6, 40)):
        rows, cols, base = _mesh_system(k, k2, rng)
        n = 2 * k * k2
        pattern, slots = compress_pattern(n, rows, cols)
        # rows a few orders of magnitude apart, as mid-continuation
        decades = 10.0 ** rng.integers(-4, 5, size=n)
        s = SparseSystem(n)
        for _ in range(4):
            vals = base * rng.uniform(0.5, 2.0, size=base.size) * decades[rows]
            rhs = rng.normal(size=n) * decades
            s.assemble(pattern, reduce(pattern, slots, vals), rhs)
            x = s.factor_solve()
            want = np.linalg.solve(*_equilibrated(s.matrix, rhs))
            assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))
        assert (s.orderings, s.pattern_builds) == (1, 1)
    # the first factorization of each pattern runs SuperLU to choose the band,
    # then factors on the band like every later one
    assert calls == 3 * ["splu", "dgbtrf", "dgbtrf", "dgbtrf", "dgbtrf"]


def test_a_choosing_call_that_raises_leaves_nothing_the_next_choice_trips_on(monkeypatch):
    rows, cols, vals = _mesh_system(10, 10, np.random.default_rng(26))
    n = 200
    pattern, slots = compress_pattern(n, rows, cols)
    s = SparseSystem(n)
    rhs = np.ones(n)
    s.assemble(pattern, reduce(pattern, slots, vals), rhs)
    # the call chooses the band, whose factorization then fails
    monkeypatch.setattr(linsys, "dgbtrf", lambda ab, kl, ku: (ab, None, 1))
    with pytest.raises(SingularityError):
        s.factor_solve()
    plan = pattern.plan
    assert isinstance(plan, linsys._BandPlan) and s.orderings == 1
    # the plan is kept: the next calls factor on it, with the buffer the
    # failed call left, and order nothing
    monkeypatch.undo()
    calls = _recording(monkeypatch, "splu", "dgbtrf", "reverse_cuthill_mckee")
    for _ in range(2):
        x = s.factor_solve()
        np.testing.assert_allclose(s.matrix @ x, rhs, rtol=0.0, atol=1e-12)
    assert pattern.plan is plan and s.orderings == 1
    assert calls == 2 * ["dgbtrf"]


def _check_band_zero_pivot(k, k2, seed, orderings):
    s, pattern, slots, (rows, cols, vals) = _band_system(k, k2, np.random.default_rng(seed))
    # an unknown the reverse Cuthill-McKee order moves, its column all exact
    # zeros; every row keeps a nonzero entry
    c = next(c for c in range(s.n) if pattern.plan.inv[c] != c)
    singular = np.where(cols == c, 0.0, vals)
    s.assemble(pattern, reduce(pattern, slots, singular), np.ones(s.n))
    with pytest.raises(SingularityError) as err:
        s.factor_solve()
    assert (err.value.row, err.value.reason) == (c, f"zero pivot at unknown {c}")
    # the band stays usable
    s.assemble(pattern, reduce(pattern, slots, vals), np.ones(s.n))
    x = s.factor_solve()
    np.testing.assert_allclose(s.matrix @ x, np.ones(s.n), rtol=0.0, atol=1e-12)
    assert s.orderings == orderings


def test_band_zero_pivot_names_the_unknown_in_the_callers_numbering():
    _check_band_zero_pivot(10, 10, 17, orderings=1)


# a bad value, alone in its row, and the reason it is reported with
BAD_ROWS = [
    (0.0, "row has no entries"),
    (np.nan, "non-finite matrix entry"),
    (np.inf, "non-finite matrix entry"),
    (-np.inf, "non-finite matrix entry"),
    (5e-309, "row scale overflows"),
]


def _check_bad_rows_before_band_work(monkeypatch, k, k2, bad, reason):
    s, pattern, slots, (rows, cols, vals) = _band_system(k, k2, np.random.default_rng(18))
    calls = _recording(monkeypatch, "splu", "dgbtrf", "dgetrf", "reverse_cuthill_mckee")
    # row 7 holds only exact zeros, one of them replaced by the bad value
    worse = np.where(rows == 7, 0.0, vals)
    worse[np.flatnonzero(rows == 7)[0]] = bad
    fresh = SparseSystem(s.n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # on the band, and on a fresh system on the same pattern
        for system in (s, fresh):
            system.assemble(pattern, reduce(pattern, slots, worse), np.ones(s.n))
            with pytest.raises(SingularityError) as err:
                system.factor_solve()
            assert (err.value.row, err.value.reason) == (7, reason)
    assert calls == [] and fresh.orderings == 0
    s.assemble(pattern, reduce(pattern, slots, vals), np.ones(s.n))
    s.factor_solve()
    assert calls == ["dgbtrf"]


@pytest.mark.parametrize("bad, reason", BAD_ROWS)
def test_bad_rows_raise_before_any_band_work(monkeypatch, bad, reason):
    _check_bad_rows_before_band_work(monkeypatch, 10, 10, bad, reason)


def test_exact_zeros_never_reorder_the_band(monkeypatch):
    calls = _recording(monkeypatch, "splu", "dgbtrf", "reverse_cuthill_mckee")
    rng = np.random.default_rng(19)
    rows, cols, base = _mesh_system(12, 10, rng)
    n = 240
    pattern, slots = compress_pattern(n, rows, cols)
    off = rows != cols
    masks = [(rng.random(base.size) < 0.2) & off for _ in range(3)]
    s = SparseSystem(n)
    for which in (0, 1, 2, 0, 1):
        vals = base * rng.uniform(0.5, 2.0, size=base.size)
        vals[masks[which]] = 0.0
        rhs = rng.normal(size=n)
        s.assemble(pattern, reduce(pattern, slots, vals), rhs)
        x = s.factor_solve()
        want = np.linalg.solve(*_equilibrated(s.matrix, rhs))
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))
    assert calls == ["splu", "reverse_cuthill_mckee"] + 5 * ["dgbtrf"]
    assert s.orderings == 1


# -- the band path at or below the dense cutoff -------------------------------------

# meshes of 60 to 170 unknowns, whose patterns the band rule takes
SMALL_MESHES = ((5, 6), (6, 8), (7, 9), (8, 10), (5, 17))


def test_small_band_solve_agrees_with_a_reference_solve(monkeypatch):
    calls = _recording(monkeypatch, "splu", "dgbtrf", "dgetrf", "reverse_cuthill_mckee")
    rng = np.random.default_rng(22)
    for k, k2 in SMALL_MESHES:
        rows, cols, base = _mesh_system(k, k2, rng)
        n = 2 * k * k2
        assert n <= linsys._DENSE_MAX_N
        pattern, slots = compress_pattern(n, rows, cols)
        decades = 10.0 ** rng.integers(-4, 5, size=n)
        s = SparseSystem(n)
        for _ in range(4):
            vals = base * rng.uniform(0.5, 2.0, size=base.size) * decades[rows]
            rhs = rng.normal(size=n) * decades
            s.assemble(pattern, reduce(pattern, slots, vals), rhs)
            x = s.factor_solve()
            want = np.linalg.solve(*_equilibrated(s.matrix, rhs))
            assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))
        assert isinstance(pattern.plan, linsys._BandPlan)
        assert (s.orderings, s.pattern_builds) == (0, 1)
    # the plan comes from the pattern alone: no SuperLU, one order per pattern
    assert calls == len(SMALL_MESHES) * (["reverse_cuthill_mckee"] + 4 * ["dgbtrf"])


def test_small_band_zero_pivot_names_the_unknown_in_the_callers_numbering():
    _check_band_zero_pivot(6, 8, 23, orderings=0)


@pytest.mark.parametrize("bad, reason", BAD_ROWS)
def test_bad_rows_raise_before_any_small_band_work(monkeypatch, bad, reason):
    _check_bad_rows_before_band_work(monkeypatch, 6, 8, bad, reason)
    # a pattern that has no plan yet sets it from the pattern alone, and
    # then raises before any factorization
    rows, cols, vals = _mesh_system(6, 8, np.random.default_rng(24))
    vals = np.where(rows == 7, 0.0, vals)
    vals[np.flatnonzero(rows == 7)[0]] = bad
    calls = _recording(monkeypatch, "splu", "dgbtrf", "dgetrf", "reverse_cuthill_mckee")
    s = SparseSystem(96)
    pattern, slots = compress_pattern(96, rows, cols)
    s.assemble(pattern, reduce(pattern, slots, vals), np.ones(96))
    with pytest.raises(SingularityError) as err:
        s.factor_solve()
    assert (err.value.row, err.value.reason) == (7, reason)
    assert calls == ["reverse_cuthill_mckee"] and isinstance(pattern.plan, linsys._BandPlan)


@pytest.mark.parametrize("n, system, order", [
    # too small for any band to pay
    (44, lambda rng: _mesh_system(2, 11, rng), ["reverse_cuthill_mckee"]),
    # narrow, but the band's saving is short of the margin
    (48, lambda rng: _mesh_system(3, 8, rng), ["reverse_cuthill_mckee"]),
    # wide
    (linsys._DENSE_MAX_N, lambda rng: _random_system(linsys._DENSE_MAX_N, rng),
     ["reverse_cuthill_mckee"]),
], ids=["tiny", "narrow", "wide"])
def test_a_pattern_the_band_rule_rejects_stays_on_dgetrf(monkeypatch, n, system, order):
    rng = np.random.default_rng(25)
    rows, cols, vals = system(rng)
    band = linsys._band_plan(compress_pattern(n, rows, cols)[0])
    assert band.work + linsys._BAND_MIN_SAVING > n**3 / 3
    calls = _recording(monkeypatch, "splu", "dgbtrf", "dgetrf", "reverse_cuthill_mckee")
    pattern, slots = compress_pattern(n, rows, cols)
    s = SparseSystem(n)
    for _ in range(2):
        s.assemble(pattern, reduce(pattern, slots, vals), np.ones(n))
        x = s.factor_solve()
        np.testing.assert_allclose(s.matrix @ x, np.ones(n), rtol=0.0, atol=1e-11)
    assert isinstance(pattern.plan, linsys._DensePlan)
    assert calls == order + ["dgetrf", "dgetrf"]


def _system_on_one_pattern(kind, rng):
    """Triplets of a system whose pattern takes the ``kind`` plan."""
    if kind == "band":
        return (240, *_mesh_system(12, 10, rng))
    if kind == "small_band":
        return (96, *_mesh_system(6, 8, rng))
    n = 40 if kind == "dense" else SPARSE_N + 40  # a random system stays on SuperLU
    return (n, *_random_system(n, rng))


@pytest.mark.parametrize("kind, first_calls, later_calls, orderings", [
    ("dense", ["reverse_cuthill_mckee", "dgetrf"], ["dgetrf"], (0, 0)),
    ("band", ["splu", "reverse_cuthill_mckee", "dgbtrf"], ["dgbtrf"], (1, 0)),
    ("superlu", ["splu", "reverse_cuthill_mckee", "splu"], ["splu"], (1, 0)),
    ("small_band", ["reverse_cuthill_mckee", "dgbtrf"], ["dgbtrf"], (0, 0)),
])
def test_systems_on_one_pattern_share_its_plan_and_nothing_writable(
    monkeypatch, kind, first_calls, later_calls, orderings
):
    calls = _recording(monkeypatch, "splu", "dgbtrf", "dgetrf", "reverse_cuthill_mckee")
    rng = np.random.default_rng(20)
    n, rows, cols, base = _system_on_one_pattern(kind, rng)
    pattern, slots = compress_pattern(n, rows, cols)
    zero = (rng.random(base.size) < 0.2) & (rows != cols)  # one set of exact zeros
    runs = []
    for _ in range(3):
        vals = base * rng.uniform(0.5, 2.0, size=base.size)
        vals[zero] = 0.0
        runs.append((reduce(pattern, slots, vals), rng.normal(size=n)))
    first, second = SparseSystem(n), SparseSystem(n)
    xs = []
    for data, rhs in runs:
        first.assemble(pattern, data, rhs)
        xs.append(first.factor_solve())
    plan = pattern.plan
    assert calls == first_calls + 2 * later_calls
    calls.clear()
    # the second system starts on the chosen plan: the same calls and bytes
    # as the first system's later factorizations, from its first one on
    for (data, rhs), x in zip(runs, xs):
        second.assemble(pattern, data, rhs)
        assert second.factor_solve().tobytes() == x.tobytes()
    assert pattern.plan is plan and calls == 3 * later_calls
    assert (first.orderings, second.orderings) == orderings
    assert (first.pattern_builds, second.pattern_builds) == (1, 1)
    _check_nothing_writable_is_shared(plan, first, second)
    # the band and SuperLU keep a scaled CSC matrix for the residual; the
    # dense path scales its own buffer
    assert (first._scaled is None) == (kind == "dense")


def _arrays_of(obj):
    return [a for a in vars(obj).values() if isinstance(a, np.ndarray)]


def _check_nothing_writable_is_shared(plan, *systems):
    """Every array of ``plan`` is read-only, and two of the ``systems``
    share no memory that either of them could write."""
    assert all(not a.flags.writeable for a in _arrays_of(plan))
    held = [[a for obj in (s._buffer, s._scaled) if obj is not None for a in _arrays_of(obj)]
            for s in systems]
    assert all(held)
    for i, own in enumerate(held):
        for other in held[i + 1:]:
            for a in own:
                for b in other:
                    assert not (np.shares_memory(a, b) and (a.flags.writeable
                                                             or b.flags.writeable))


def test_superlu_orders_a_pattern_once_whatever_its_zeros(monkeypatch):
    monkeypatch.setattr(linsys, "dgbtrf", _no_band)
    specs = []

    def recording_splu(a, **kwargs):
        specs.append(kwargs["permc_spec"])
        return splu(a, **kwargs)

    monkeypatch.setattr(linsys, "splu", recording_splu)
    rng = np.random.default_rng(21)
    n = SPARSE_N + 40
    rows, cols, base = _random_system(n, rng)
    pattern, slots = compress_pattern(n, rows, cols)
    off = rows != cols
    runs = []
    for _ in range(3):  # three different sets of exact zeros
        vals = base * rng.uniform(0.5, 2.0, size=base.size)
        vals[(rng.random(base.size) < 0.2) & off] = 0.0
        runs.append((reduce(pattern, slots, vals), rng.normal(size=n)))
    systems = SparseSystem(n), SparseSystem(n)
    for s in systems:
        for data, rhs in runs:
            s.assemble(pattern, data, rhs)
            # the same bytes as COLAMD on the scaled matrix, zeros kept
            want = _colamd_factor_solve(s.matrix, rhs)
            assert s.factor_solve().tobytes() == want.tobytes()
    # the first call orders once, to choose the plan, then factors on it
    assert specs == ["COLAMD"] + 6 * ["NATURAL"]
    assert tuple(s.orderings for s in systems) == (1, 0)
    assert isinstance(pattern.plan, linsys._SuperluPlan)
    _check_nothing_writable_is_shared(pattern.plan, *systems)


def _network(name):
    if name.startswith("tile"):
        return case196_tile(int(name[4:]))
    return load_case(os.path.join(CASE_DIR, name)).network


# the calls of each system's first and second factorization at a flat start;
# case196's and each tile's first runs SuperLU to choose the plan, then
# factors on it;
# case30 and case56 are narrow enough for the band below the dense cutoff
PATHS = {name: ["dgetrf", "dgetrf"] for name in sorted(os.listdir(CASE_DIR))}
PATHS["case196_mesh.net"] = ["splu", "dgbtrf", "dgbtrf"]
PATHS["case30_mesh.net"] = PATHS["case56_mesh.net"] = ["dgbtrf", "dgbtrf"]
PATHS.update({f"tile{k}": ["splu", "splu", "splu"] for k in (2, 4, 10)})


@pytest.mark.parametrize("name", sorted(PATHS))
def test_each_network_takes_its_measured_path(monkeypatch, name):
    net = _network(name)
    index = IndexMap(net)
    s = assembled(build_companion(net, index).bind(effective_params(net)), flat_state(index))
    assert (s.n <= linsys._DENSE_MAX_N) == ("splu" not in PATHS[name])
    calls = _recording(monkeypatch, "splu", "dgbtrf", "dgetrf")
    s.factor_solve()
    s.factor_solve()
    assert calls == PATHS[name]


# one network per plan: dense, band and SuperLU
RESIDUAL_PLANS = {
    "hard_corridor.net": linsys._DensePlan,
    "case196_mesh.net": linsys._BandPlan,
    "tile2": linsys._SuperluPlan,
}


@pytest.mark.parametrize("name", sorted(RESIDUAL_PLANS))
def test_residual_has_the_bits_of_scipys_product(name):
    """``residual`` calls scipy's private CSC kernel: a scipy whose product
    no longer goes through it, or sums in another order, fails here."""
    net = _network(name)
    index = IndexMap(net)
    s = assembled(build_companion(net, index).bind(effective_params(net)), flat_state(index))
    x_solved = s.factor_solve()
    assert type(s._pattern.plan) is RESIDUAL_PLANS[name]
    rng = np.random.default_rng(5)
    for x in (x_solved, rng.uniform(-1.5, 1.5, size=s.n), flat_state(index).x):
        assert s.residual(x).tobytes() == (s.matrix @ x - s.rhs).tobytes()


@pytest.mark.parametrize("name", sorted(RESIDUAL_PLANS))
def test_each_factor_solve_returns_a_new_array(name):
    net = _network(name)
    index = IndexMap(net)
    s = assembled(build_companion(net, index).bind(effective_params(net)), flat_state(index))
    first = s.factor_solve()
    want = first.copy()
    second = s.factor_solve()
    assert not np.shares_memory(first, second)
    assert first.flags.writeable
    first[:] = np.nan
    assert second.tobytes() == want.tobytes()
    assert s.factor_solve().tobytes() == want.tobytes()
