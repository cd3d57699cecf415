import numpy as np
import pytest

from steadygrid.linsys import SingularityError, SparseSystem


def test_duplicate_triplets_are_summed():
    s = SparseSystem(2)
    s.assemble([0, 0, 1], [0, 0, 1], [1.0, 2.0, 1.0], np.zeros(2))
    a = np.asarray(s.matrix.todense())
    assert a[0, 0] == 3.0


def test_empty_matrix_is_singular():
    s = SparseSystem(3)
    s.assemble([], [], [], np.zeros(3))
    with pytest.raises(SingularityError):
        s.factor_solve()


def test_identity_solve():
    s = SparseSystem(3)
    s.assemble([0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0])
    x = s.factor_solve()
    np.testing.assert_allclose(x, [1.0, 0.0, 0.0])


def test_two_by_two_hand_solve():
    s = SparseSystem(2)
    s.assemble([0, 0, 1, 1], [0, 1, 0, 1], [2.0, 1.0, 1.0, 2.0], [3.0, 3.0])
    np.testing.assert_allclose(s.factor_solve(), [1.0, 1.0], atol=1e-14)


def test_zero_row_reports_row_index():
    s = SparseSystem(3)
    s.assemble([0, 2], [0, 2], [1.0, 1.0], np.zeros(3))
    with pytest.raises(SingularityError) as err:
        s.factor_solve()
    assert err.value.row == 1


def test_index_out_of_range_rejected():
    s = SparseSystem(2)
    with pytest.raises(IndexError):
        s.assemble([0, 2], [0, 0], [1.0, 1.0], np.zeros(2))
    with pytest.raises(IndexError):
        s.assemble([0], [5], [1.0], np.zeros(2))


def test_numerically_singular_matrix():
    s = SparseSystem(2)
    s.assemble([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 2.0, 4.0], [1.0, 0.0])
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
    s1.assemble(rows, cols, vals, rhs)
    d1 = s1.matrix.data.copy()
    s2 = SparseSystem(50)
    s2.assemble(rows, cols, vals, rhs)
    assert np.array_equal(d1, s2.matrix.data)


def test_pattern_reuse_counter():
    rng = np.random.default_rng(6)
    rows = rng.integers(0, 20, size=100)
    cols = rng.integers(0, 20, size=100)
    # make sure every row/col has a diagonal entry
    rows = np.concatenate([rows, np.arange(20)])
    cols = np.concatenate([cols, np.arange(20)])
    s = SparseSystem(20)
    for k in range(5):
        vals = rng.normal(size=rows.size) + 10.0
        s.assemble(rows, cols, vals, np.ones(20))
        s.factor_solve()
    assert s.pattern_builds == 1
    # a different pattern forces one new symbolic step
    s.assemble(rows[:-1], cols[:-1], np.ones(rows.size - 1), np.zeros(20))
    assert s.pattern_builds == 2


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
    s = SparseSystem(n)
    s.assemble(rows, cols, vals, rng.normal(size=n))
    x = s.factor_solve()
    assert s.residual_norm(x) < 1e-10


def test_badly_scaled_rows_are_equilibrated():
    # rows spanning 10 orders of magnitude, still solvable
    s = SparseSystem(2)
    s.assemble([0, 0, 1, 1], [0, 1, 0, 1], [1e10, 1e10, 1.0, 2.0], [2e10, 3.0])
    x = s.factor_solve()
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-9)


def test_explicit_zero_row_reports_row_index():
    s = SparseSystem(3)
    s.assemble([0, 1, 1, 2], [0, 0, 2, 2], [1.0, 0.0, 0.0, 1.0], np.ones(3))
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


def test_explicit_zeros_do_not_change_the_solution():
    rng = np.random.default_rng(7)
    rows, cols, vals = _random_system(40, rng)
    rhs = rng.normal(size=40)
    # explicit zeros on fresh slots and on top of existing ones
    zr = np.concatenate([rng.integers(0, 40, size=40), rows[:40]])
    zc = np.concatenate([rng.integers(0, 40, size=40), cols[:40]])
    s1 = SparseSystem(40)
    s1.assemble(rows, cols, vals, rhs)
    s2 = SparseSystem(40)
    s2.assemble(
        np.concatenate([rows, zr]), np.concatenate([cols, zc]),
        np.concatenate([vals, np.zeros(zr.size)]), rhs,
    )
    assert s2.matrix.nnz > s1.matrix.nnz
    assert np.array_equal(s1.factor_solve(), s2.factor_solve())


def test_factor_solve_leaves_the_cached_pattern_intact():
    rng = np.random.default_rng(8)
    rows, cols, base = _random_system(40, rng)
    s = SparseSystem(40)
    for _ in range(5):
        # fresh values each round, explicit zeros off the diagonal
        vals = base * rng.uniform(0.5, 2.0, size=base.size)
        vals[(rng.random(base.size) < 0.3) & (rows != cols)] = 0.0
        rhs = rng.normal(size=40)
        s.assemble(rows, cols, vals, rhs)
        indices, indptr = s.matrix.indices.copy(), s.matrix.indptr.copy()
        x = s.factor_solve()
        assert np.array_equal(s.matrix.indices, indices)
        assert np.array_equal(s.matrix.indptr, indptr)
        fresh = SparseSystem(40)
        fresh.assemble(rows, cols, vals, rhs)
        assert np.array_equal(fresh.matrix.indices, indices)
        assert np.array_equal(fresh.matrix.indptr, indptr)
        assert np.array_equal(fresh.factor_solve(), x)
    assert s.pattern_builds == 1
