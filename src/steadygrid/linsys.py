"""Sparse real linear system: assembly, LU factorization, solve.

Triplets with duplicate coordinates are summed. The compressed pattern is
cached: as long as consecutive assemblies emit the same (rows, cols) arrays,
only the numeric values are scattered into the cached structure, which keeps
repeated Newton iterations free of symbolic work (``pattern_builds`` counts
how often the symbolic step actually ran); every matrix shares the cached,
read-only ``indices``/``indptr``. Rows are equilibrated on those CSC arrays
before factorization, because source/constraint rows and admittance rows can
differ by many orders of magnitude mid-continuation. The scaled copy drops the
pattern's explicit zeros (open shorts, zeroed loads): SuperLU orders columns
by the structure, so a kept zero would change the pivots and the solution.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

__all__ = ["SparseSystem", "SingularityError"]


class SingularityError(Exception):
    """Factorization failed; ``row`` is the offending row (-1 if unknown)."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"singular system at row {row}: {reason}")
        self.row = row
        self.reason = reason


class SparseSystem:
    """One n x n real system, rebuilt in place every Newton iteration."""

    def __init__(self, n: int):
        self.n = n
        self.pattern_builds = 0
        self._key_rows = self._key_cols = self._inverse = None
        self._indices = self._indptr = None
        self._matrix = self._rhs = None

    def assemble(self, rows, cols, vals, rhs) -> None:
        """Sum duplicate triplets into CSC form; ``rhs`` is dense, length ``n``."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if rows.size and (rows.min() < 0 or rows.max() >= self.n):
            raise IndexError(f"row index out of range 0..{self.n - 1}")
        if cols.size and (cols.min() < 0 or cols.max() >= self.n):
            raise IndexError(f"col index out of range 0..{self.n - 1}")

        if self._key_rows is None or not (
            np.array_equal(rows, self._key_rows) and np.array_equal(cols, self._key_cols)
        ):
            # symbolic step: canonical CSC ordering plus triplet -> slot map
            keys = cols * self.n + rows
            uniq, self._inverse = np.unique(keys, return_inverse=True)
            self._key_rows = rows.copy()
            self._key_cols = cols.copy()
            self._indices = (uniq % self.n).astype(np.int32)
            counts = np.bincount((uniq // self.n).astype(np.int64), minlength=self.n)
            self._indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
            # every assembled matrix shares these: an in-place edit must fail
            self._indices.flags.writeable = self._indptr.flags.writeable = False
            self.pattern_builds += 1

        data = np.bincount(self._inverse, weights=vals, minlength=self._indices.size)
        self._matrix = sparse.csc_matrix((data, self._indices, self._indptr), shape=(self.n, self.n))
        self._rhs = np.asarray(rhs, dtype=float)

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

    def residual_norm(self, x: np.ndarray) -> float:
        """Relative infinity-norm backward error of a candidate solution."""
        b = self.rhs
        r = self.matrix @ x - b
        return float(np.max(np.abs(r)) / max(1.0, np.max(np.abs(b))))
