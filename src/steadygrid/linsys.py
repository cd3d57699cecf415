"""Sparse real linear system: pattern compression, LU factorization, solve.

:func:`compress_pattern` is the one place a CSC structure is derived, once
per fixed pattern; :meth:`SparseSystem.assemble` only takes CSC data over it
(``pattern_builds`` counts the patterns it has not seen, by identity), and
every matrix shares the pattern's read-only ``indices``/``indptr``. Rows are
equilibrated on those CSC arrays before factorization, because
source/constraint rows and admittance rows can differ by many orders of
magnitude mid-continuation. The scaled copy drops the pattern's explicit
zeros (open shorts, zeroed loads): SuperLU orders columns by the structure,
so a kept zero would change the pivots and the solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

__all__ = ["CscPattern", "compress_pattern", "SparseSystem", "SingularityError"]


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


class SparseSystem:
    """One n x n real system, reassembled in place every Newton iteration."""

    def __init__(self, n: int):
        self.n = n
        self.pattern_builds = 0
        self._pattern = None
        self._matrix = self._rhs = None

    def assemble(self, pattern: CscPattern, data: np.ndarray, rhs: np.ndarray) -> None:
        """``data`` holds one value per slot of ``pattern``; ``rhs`` is dense."""
        if pattern is not self._pattern:
            self._pattern = pattern
            self.pattern_builds += 1
        self._matrix = sparse.csc_matrix(
            (data, pattern.indices, pattern.indptr), shape=(self.n, self.n)
        )
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

        Each row is scaled by its largest magnitude on the cached CSC arrays;
        the scaled copy drops explicit zeros, so SuperLU orders columns by
        the structural nonzeros only. Raises :class:`SingularityError` on
        structural or numerical singularity, reporting an offending row where
        one is identifiable.
        """
        a = self.matrix
        b = self.rhs
        absmax = np.zeros(self.n)
        np.maximum.at(absmax, a.indices, np.abs(a.data))
        empty = np.flatnonzero(absmax == 0.0)
        if empty.size:
            raise SingularityError(int(empty[0]), "row has no entries")
        scale = 1.0 / absmax
        a_s = sparse.csc_matrix(
            (a.data * scale[a.indices], a.indices.copy(), a.indptr.copy()), shape=a.shape
        )
        a_s.eliminate_zeros()
        b_s = scale * b
        try:
            lu = splu(a_s)
            x = lu.solve(b_s)
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise SingularityError(-1, str(exc)) from exc
        if not np.all(np.isfinite(x)):
            bad = int(np.flatnonzero(~np.isfinite(x))[0])
            raise SingularityError(bad, "non-finite solution entry")
        # one step of iterative refinement when the backward error is loose
        denom = max(1.0, np.max(np.abs(b_s))) if b_s.size else 1.0
        res = b_s - a_s @ x
        if np.max(np.abs(res)) / denom > 1e-12:
            x = x + lu.solve(res)
        return x
