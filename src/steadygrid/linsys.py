"""Real linear system: pattern compression, LU factorization, solve.

:func:`compress_pattern` is the one place a CSC structure is derived, once
per fixed pattern; :meth:`SparseSystem.assemble` builds one CSC matrix per
pattern it has not seen, by identity (``pattern_builds`` counts these), and
afterwards only rebinds its data. Every matrix shares the pattern's
read-only ``indices``/``indptr``. Every row is equilibrated by its largest
magnitude before factorization, because source/constraint rows and
admittance rows can differ by many orders of magnitude mid-continuation. A
row with no nonzero entry, with a non-finite one, or whose largest magnitude
is too small to invert raises before any row is scaled, and without a numpy
warning.

Two factorizations, chosen by the number of unknowns ``n``:

* ``n <= _DENSE_MAX_N``: one dense Fortran-order matrix per pattern, whose
  entries off the pattern stay zero, first takes the magnitudes of the data
  and yields the row maxima by one reduction over its rows; then the scaled
  data replaces them, and LAPACK ``dgetrf``/``dgetrs`` factor and solve it
  with partial pivoting. At these sizes SuperLU's fixed cost per call, not
  the factorization, dominates. Measured in live solves, the row maxima
  taken this way cost slightly less than a scatter-maximum
  (``np.maximum.at``) over the CSC data at 28 and 54 unknowns and about the
  same at 121. A maximum is exact, so the scale, and every scaled entry,
  are the same bytes either way.
* larger systems go to SuperLU, whose work follows the fill rather than n³.
  Their row maxima are a scatter-maximum over the CSC arrays.

The cutoff is the crossover measured in live ``tx`` solves of generated
k x k' meshes, timing every ``factor_solve`` call with either path forced
(2 cores, one BLAS thread): dense took 0.74 of SuperLU's time at 121
unknowns (case56), 0.87 at 150, 0.94 at 168, 1.08 at 187, 1.18 at 207 and
2.6 at 418 (case196), so the paths cross near 175 unknowns.

On the SuperLU side, the scaled matrix drops the pattern's explicit zeros
(open shorts, zeroed loads): SuperLU orders columns by the structure, so a
kept zero would change the pivots and the solution. The column order lives
on the :class:`SparseSystem`, next to the pattern. COLAMD runs on the first
factorization of a pattern and again only when the set of dropped zeros
changes (``orderings`` counts these); every other factorization gathers the
values into the column-permuted matrix and calls SuperLU in ``NATURAL``
order, which yields the same L and U. The refinement residual is taken on
the unpermuted matrix, because a permuted product sums each row in another
order and the result would differ in the last bits.

Every SuperLU factorization uses one setting, ``_SUPERLU_SETTING``:
``relax=1, panel_size=1``, so no relaxed supernodes and no panels. scipy's
defaults (``relax=20, panel_size=10``) target larger, denser factors; at
these sizes they cost more than they save, for the same L+U fill. The
COLAMD call and the ``NATURAL`` call share the setting, so factoring
``A Pc`` in ``NATURAL`` order still yields the same L and U.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.sparse.linalg import splu

__all__ = ["CscPattern", "compress_pattern", "SparseSystem", "SingularityError"]

# no supernodes or panels; SuperLU's default diag_pivot_thresh
_SUPERLU_SETTING = {"relax": 1, "panel_size": 1}

# systems of at most this many unknowns are factored dense: the measured
# crossover (see the module docstring)
_DENSE_MAX_N = 175

# a row maximum at or below this has no finite scale: its reciprocal overflows
_MIN_ROW_MAX = 1.0 / np.finfo(float).max


class SingularityError(Exception):
    """Factorization failed; ``row`` is the offending row (-1 if unknown)."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"singular system at row {row}: {reason}")
        self.row = row
        self.reason = reason


@dataclass(frozen=True)
class CscPattern:
    """Canonical CSC structure of an ``n x n`` matrix; both arrays read-only."""

    indices: np.ndarray
    indptr: np.ndarray


def compress_pattern(n: int, rows, cols) -> tuple[CscPattern, np.ndarray]:
    """CSC pattern of the (``rows``, ``cols``) coordinates and the slot of
    each one in it (duplicates share a slot); ``IndexError`` outside ``0..n-1``.

    ``np.bincount(slots, weights=vals, minlength=pattern.indices.size)`` then
    reduces per-coordinate values into CSC data, summing in coordinate order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    for name, idx in (("row", rows), ("col", cols)):
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise IndexError(f"{name} index out of range 0..{n - 1}")
    uniq, slots = np.unique(cols * n + rows, return_inverse=True)
    indices = (uniq % n).astype(np.int32)
    counts = np.bincount(uniq // n, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    # every matrix assembled on the pattern shares these: an in-place edit must fail
    indices.flags.writeable = indptr.flags.writeable = False
    return CscPattern(indices, indptr), slots


def _csc(n: int, cols: np.ndarray, rows: np.ndarray) -> sparse.csc_matrix:
    """An ``n x n`` CSC matrix over entries already sorted by column, whose
    data a gather fills in place before each use."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
    return sparse.csc_matrix(
        (np.empty(rows.size), rows, indptr.astype(np.int32)), shape=(n, n)
    )


class _Order:
    """SuperLU's column order ``perm_c`` for one set of dropped zeros.

    ``gather`` takes the pattern's other slots into ``a_s`` in the original
    column order; ``gather_p`` takes them into ``a_p``, whose column ``j`` is
    the column ``i`` of ``a_s`` with ``perm_c[i] == j`` (``A Pc`` in SuperLU's
    terms), so ``a_p`` factors in ``NATURAL`` order to the same L and U.
    """

    def __init__(self, pattern: CscPattern, zero: np.ndarray, perm_c: np.ndarray):
        n = pattern.indptr.size - 1
        self.zero = zero
        self.perm_c = perm_c
        self.gather = np.flatnonzero(~zero)
        cols = np.repeat(np.arange(n), np.diff(pattern.indptr))[self.gather]
        self.a_s = _csc(n, cols, pattern.indices[self.gather])
        cols_p = perm_c[cols]
        by_col = np.argsort(cols_p, kind="stable")  # each column's rows stay ascending
        self.gather_p = self.gather[by_col]
        self.a_p = _csc(n, cols_p[by_col], pattern.indices[self.gather_p])


class _Dense:
    """The ``n x n`` Fortran-order matrix of one pattern; ``flat[slots]``
    are the pattern's entries in CSC order and every other entry stays zero."""

    def __init__(self, pattern: CscPattern):
        n = pattern.indptr.size - 1
        self.a = np.zeros((n, n), order="F")
        self.flat = self.a.reshape(-1, order="F")  # a view of ``a``
        cols = np.repeat(np.arange(n), np.diff(pattern.indptr))
        self.slots = cols * n + pattern.indices


def _row_scale(absmax: np.ndarray) -> np.ndarray:
    """``1 / absmax`` of the row maxima; raises on the first row with no
    nonzero entry, with a non-finite one (a ``nan`` or ``inf`` maximum), or
    whose scale would overflow."""
    if not (absmax.min() > _MIN_ROW_MAX and absmax.max() < np.inf):  # nan fails too
        row = int(np.flatnonzero(~((absmax > _MIN_ROW_MAX) & (absmax < np.inf)))[0])
        if absmax[row] == 0.0:
            raise SingularityError(row, "row has no entries")
        if np.isfinite(absmax[row]):
            raise SingularityError(row, "row scale overflows")
        raise SingularityError(row, "non-finite matrix entry")
    return 1.0 / absmax


class SparseSystem:
    """One n x n real system, reassembled in place every Newton iteration."""

    def __init__(self, n: int):
        self.n = n
        self.pattern_builds = 0
        self.orderings = 0
        self._pattern = None
        self._order = self._dense = None
        self._matrix = self._rhs = None

    def assemble(self, pattern: CscPattern, data: np.ndarray, rhs: np.ndarray) -> None:
        """``data`` holds one value per slot of ``pattern``; ``rhs`` is dense.

        The CSC matrix is built once per pattern; later calls rebind its
        ``data``, so ``data`` must not be edited while it is assembled.
        """
        if pattern is not self._pattern:
            self._matrix = sparse.csc_matrix(
                (data, pattern.indices, pattern.indptr), shape=(self.n, self.n)
            )
            self._pattern = pattern
            self._order = self._dense = None
            self.pattern_builds += 1
        elif data.shape != self._matrix.data.shape:
            raise ValueError(f"{data.shape} values for {self._matrix.data.shape} slots")
        else:
            self._matrix.data = data
        self._rhs = rhs

    @property
    def matrix(self) -> sparse.csc_matrix:
        if self._matrix is None:
            raise RuntimeError("assemble() before accessing the matrix")
        return self._matrix

    @property
    def rhs(self) -> np.ndarray:
        if self._rhs is None:
            raise RuntimeError("assemble() before accessing the rhs")
        return self._rhs

    def factor_solve(self) -> np.ndarray:
        """LU solve with row equilibration and one refinement step.

        Each row is scaled by its largest magnitude; a row with no nonzero
        entry, with a non-finite one, or whose scale would overflow raises
        before it is scaled, naming the first such row. Systems of at most
        ``_DENSE_MAX_N`` unknowns are factored dense: the magnitudes of the
        data are scattered into one Fortran-order buffer per pattern, whose
        other entries stay zero, the row maxima are read off it, the scaled
        data replaces the magnitudes, and LAPACK ``dgetrf``/``dgetrs``
        factor and solve it; an exact zero pivot raises, naming the unknown.
        Larger systems are scaled on the cached CSC arrays and go to
        SuperLU, which sees only the structural nonzeros of the scaled
        values. Its column order lives here, next to the pattern: the first
        factorization of a pattern, and the first after its set of exact
        zeros changes, runs COLAMD and keeps ``perm_c`` (``orderings``
        counts these). Every other call gathers the data into the
        column-permuted matrix, factors it in ``NATURAL`` order and
        un-permutes the solution. Both use ``_SUPERLU_SETTING`` (no
        supernodes at these sizes), so the ``NATURAL`` call on ``A Pc``
        yields the same L and U. The refinement residual is taken on the
        unpermuted matrix, so every row sums in the same order whichever
        SuperLU call factored. Raises :class:`SingularityError` on
        structural or numerical singularity, reporting an offending row
        where one is identifiable; a call that raises keeps no new order.
        """
        a = self.matrix
        if self.n <= _DENSE_MAX_N:
            absmax, factor = self._dense_row_max(a.data), self._dense_lu
        else:
            absmax = np.zeros(self.n)
            with np.errstate(invalid="ignore"):  # a nan entry leaves its row's maximum nan
                np.maximum.at(absmax, a.indices, np.abs(a.data))
            factor = self._sparse_lu
        scale = _row_scale(absmax)
        data = a.data * scale[a.indices]
        b_s = scale * self.rhs
        a_s, solve, order = factor(data)
        x = solve(b_s)
        if not np.isfinite(x).all():
            bad = int(np.flatnonzero(~np.isfinite(x))[0])
            raise SingularityError(bad, "non-finite solution entry")
        # one step of iterative refinement when the backward error is loose
        denom = max(1.0, np.abs(b_s).max()) if b_s.size else 1.0
        res = b_s - a_s @ x
        if np.abs(res).max() / denom > 1e-12:
            x = x + solve(res)
        if order is not None:
            self._order = order
            self.orderings += 1
        return x

    def _dense_row_max(self, data: np.ndarray) -> np.ndarray:
        """Row maxima of ``|data|`` by one reduction over the rows of the
        pattern's dense buffer, whose entries off the pattern stay zero."""
        if self._dense is None:
            self._dense = _Dense(self._pattern)
        dense = self._dense
        dense.flat[dense.slots] = np.abs(data)
        return dense.a.max(axis=1)

    def _dense_lu(self, data: np.ndarray):
        """LAPACK LU of the scaled ``data``: the dense matrix, its solve, and
        no order to keep."""
        dense = self._dense
        dense.flat[dense.slots] = data
        # dgetrf factors a copy: ``dense.a`` keeps its zeros off the pattern
        # and serves the refinement residual
        lu, piv, info = dgetrf(dense.a)
        if info > 0:
            raise SingularityError(info - 1, f"zero pivot at unknown {info - 1}")
        return dense.a, lambda r: dgetrs(lu, piv, r)[0], None

    def _sparse_lu(self, data: np.ndarray):
        """SuperLU of the scaled ``data`` without its exact zeros: the
        zero-dropped matrix, its solve, and the order to keep (``None`` when
        the kept one was used)."""
        zero = data == 0.0
        order = self._order
        if order is not None and np.array_equal(zero, order.zero):
            a_s, a_p, perm, permc_spec = order.a_s, order.a_p, order.perm_c, "NATURAL"
            np.take(data, order.gather, out=a_s.data)
            np.take(data, order.gather_p, out=a_p.data)
        else:
            order = None
            a_s = sparse.csc_matrix((data, self._pattern.indices.copy(),
                                     self._pattern.indptr.copy()), shape=(self.n, self.n))
            a_s.eliminate_zeros()
            a_p, perm, permc_spec = a_s, slice(None), "COLAMD"
        try:
            lu = splu(a_p, permc_spec=permc_spec, **_SUPERLU_SETTING)
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise SingularityError(-1, str(exc)) from exc
        new = None if order is not None else _Order(self._pattern, zero, lu.perm_c)
        return a_s, lambda r: lu.solve(r)[perm], new
