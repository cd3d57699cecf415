"""Sparse real linear system: pattern compression, LU factorization, solve.

:func:`compress_pattern` is the one place a CSC structure is derived, once
per fixed pattern; :meth:`SparseSystem.assemble` builds one CSC matrix per
pattern it has not seen, by identity (``pattern_builds`` counts these), and
afterwards only rebinds its data. Every matrix shares the pattern's
read-only ``indices``/``indptr``. Rows are equilibrated on those CSC arrays
before factorization, because source/constraint rows and admittance rows can
differ by many orders of magnitude mid-continuation. The scaled matrix drops
the pattern's explicit zeros (open shorts, zeroed loads): SuperLU orders
columns by the structure, so a kept zero would change the pivots and the
solution.

The column order lives on the :class:`SparseSystem`, next to the pattern.
COLAMD runs on the first factorization of a pattern and again only when the
set of dropped zeros changes (``orderings`` counts these); every other
factorization gathers the values into the column-permuted matrix and calls
SuperLU in ``NATURAL`` order, which yields the same L and U. The refinement
residual is taken on the unpermuted matrix, because a permuted product sums
each row in another order and the result would differ in the last bits.

Every factorization uses one SuperLU setting, ``_SUPERLU_SETTING``:
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
from scipy.sparse.linalg import splu

__all__ = ["CscPattern", "compress_pattern", "SparseSystem", "SingularityError"]

# no supernodes or panels; SuperLU's default diag_pivot_thresh
_SUPERLU_SETTING = {"relax": 1, "panel_size": 1}


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


class SparseSystem:
    """One n x n real system, reassembled in place every Newton iteration."""

    def __init__(self, n: int):
        self.n = n
        self.pattern_builds = 0
        self.orderings = 0
        self._pattern = None
        self._order = None
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
            self._order = None
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

        Each row is scaled by its largest magnitude on the cached CSC arrays,
        and SuperLU sees only the structural nonzeros of the scaled values.
        The column order lives here, next to the pattern: the first
        factorization of a pattern, and the first after its set of exact
        zeros changes, runs COLAMD and keeps ``perm_c`` (``orderings`` counts
        these). Every other call gathers the data into the column-permuted
        matrix, factors it in ``NATURAL`` order and un-permutes the solution.
        Both calls use ``_SUPERLU_SETTING`` (no supernodes at these sizes),
        so the ``NATURAL`` call on ``A Pc`` yields the same L and U.
        The refinement residual is taken on the unpermuted matrix, so every
        row sums in the same order whichever path factored. Raises
        :class:`SingularityError` on structural or numerical singularity,
        reporting an offending row where one is identifiable; a call that
        raises keeps no new order.
        """
        a = self.matrix
        b = self.rhs
        absmax = np.zeros(self.n)
        np.maximum.at(absmax, a.indices, np.abs(a.data))
        empty = np.flatnonzero(absmax == 0.0)
        if empty.size:
            raise SingularityError(int(empty[0]), "row has no entries")
        scale = 1.0 / absmax
        data = a.data * scale[a.indices]
        zero = data == 0.0
        order = self._order
        if order is not None and np.array_equal(zero, order.zero):
            a_s, a_p, perm, permc_spec = order.a_s, order.a_p, order.perm_c, "NATURAL"
            np.take(data, order.gather, out=a_s.data)
            np.take(data, order.gather_p, out=a_p.data)
        else:
            order = None
            a_s = sparse.csc_matrix((data, a.indices.copy(), a.indptr.copy()), shape=a.shape)
            a_s.eliminate_zeros()
            a_p, perm, permc_spec = a_s, slice(None), "COLAMD"
        b_s = scale * b
        try:
            lu = splu(a_p, permc_spec=permc_spec, **_SUPERLU_SETTING)
            x = lu.solve(b_s)[perm]
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise SingularityError(-1, str(exc)) from exc
        if not np.all(np.isfinite(x)):
            bad = int(np.flatnonzero(~np.isfinite(x))[0])
            raise SingularityError(bad, "non-finite solution entry")
        # one step of iterative refinement when the backward error is loose
        denom = max(1.0, np.max(np.abs(b_s))) if b_s.size else 1.0
        res = b_s - a_s @ x
        if np.max(np.abs(res)) / denom > 1e-12:
            x = x + lu.solve(res)[perm]
        if order is None:
            self._order = _Order(self._pattern, zero, lu.perm_c)
            self.orderings += 1
        return x
