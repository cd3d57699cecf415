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
warning. Each plan (below) has one method, ``factor(buffer, a)``, which
equilibrates the rows of ``a`` its own way, factors the scaled matrix in the
system's ``buffer`` and returns the row scale and the solve;
:meth:`SparseSystem.factor_solve` solves the scaled right-hand side on it.

Three factorizations, and one plan per pattern that picks among them. The
analysis that depends on the structure alone runs once per pattern, not
once per system (the split of symbolic analysis from numeric factorization
in Davis and Palamadai Natarajan, "Algorithm 907: KLU", ACM TOMS 37(3),
2010): the pattern's first factorization sets its ``plan``, which holds
read-only index arrays only, never changes and is reused by every later
system on the pattern. Every factorization, the first one included, then
runs on that plan, so a solve's result does not depend on whether the plan
was set in the call, earlier in the same solve or by another solve of the
same network. Writable memory is never shared: each :class:`SparseSystem`
allocates its own buffers, so ``pattern_builds`` still counts one per
system and pattern. The number of unknowns ``n`` chooses how the plan is
chosen:

* ``n <= _DENSE_MAX_N``: from the pattern alone, at the start of its first
  factorization, before the rows are checked. SuperLU is never tried at or
  below the cutoff. The pattern's RCM order (below) gives its
  half-bandwidths; the plan is the band LU when the band's work
  ``n·kl·(kl+ku)`` is at least ``_BAND_MIN_SAVING`` below the dense
  ``n³/3``, and otherwise the dense LU.
* larger systems: the first factorization of a pattern checks and scales
  its rows as every band or SuperLU ``factor`` does, into a CSC matrix it
  keeps for this call only, then factors that by SuperLU with COLAMD only
  to choose the plan. Its flop count
  ``F = Σ_j nnz(L[j+1:, j]) · nnz(U[j, j+1:]) + nnz(L) − n`` chooses the
  band LU when ``n·kl·(kl+ku) <= _BAND_FLOP_RATIO · F``, else SuperLU in
  COLAMD's column order (described below), and the call then factors on
  the plan like every later one. On SuperLU that repeats COLAMD's
  factorization, in ``NATURAL`` order on the permuted matrix, to the same
  L and U. The flop count does depend on the values of the first
  factorization, but the measured ratios below sit far from the threshold.
  ``orderings`` counts these COLAMD calls: one per pattern above the
  cutoff, made by the system that chose its plan.

The three paths:

* dense: the plan holds the place of each CSC entry in an ``n x n``
  Fortran-order matrix. Its ``factor`` takes the raw data by one scatter
  into one such matrix per system, whose entries off the pattern stay zero;
  the row maxima are one reduction over the rows of its magnitudes, and its
  rows are then scaled in place. LAPACK ``dgetrf`` factors a copy of it with
  partial pivoting, and ``dgetrs`` solves. At these sizes SuperLU's fixed cost per call, not the
  factorization, dominates. A maximum is exact, and each entry is
  multiplied by its row's scale once either way (``0 * scale`` stays 0 off
  the pattern), so the scale and every scaled entry are the same bytes as
  a scatter-maximum (``np.maximum.at``) over the CSC data and the scaled
  CSC data scattered.
* band: the unknowns are renumbered by reverse Cuthill–McKee (RCM) on the
  structure of ``A + Aᵀ`` (Cuthill and McKee, 1969; George and Liu,
  *Computer Solution of Large Sparse Positive Definite Systems*, 1981,
  ch. 4), which gives the half-bandwidths ``kl`` below and ``ku`` above the
  diagonal; the plan keeps the order, its inverse, ``kl``, ``ku`` and the
  place of each CSC entry in LAPACK's band layout, ``2 kl + ku + 1`` rows
  by ``n``, whose first ``kl`` rows take the fill of row interchanges. Its
  ``factor`` takes the row maxima from a scatter-maximum over the CSC
  arrays, the one it shares with the SuperLU plan and the COLAMD choice.
  The scaled data goes by one scatter into the system's own buffer in that
  layout;
  LAPACK ``dgbtrf``/``dgbtrs`` factor and solve it with partial pivoting,
  and the solution is mapped back to the caller's numbering. The order
  depends on the pattern alone, explicit zeros included, and the pivots on
  the values, so a change in the set of exact zeros never orders again.
  The order is set up once per pattern, and a branch or transformer outage
  keeps its base network's pattern (``apply_outage``), so an N-1 run orders
  once per base network. On case56 (121 unknowns) the order took a median
  of 0.51 ms, about half of it in forming ``A + Aᵀ``.
* SuperLU: the plan keeps COLAMD's column order ``perm_c`` from the
  pattern's first factorization, the gather of each CSC entry into the
  column-permuted matrix ``A Pc`` and that matrix's ``indices``/``indptr``.
  Its ``factor`` takes the row maxima from the same scatter-maximum over the
  CSC arrays. The scaled data goes by one gather into the system's own
  ``A Pc``, which SuperLU factors in ``NATURAL`` order, and the solution is
  un-permuted. COLAMD
  orders the structure, explicit zeros (open shorts, zeroed loads)
  included, so, as on the band, a change in the set of exact zeros never
  orders again.

The dense cutoff is the crossover measured in live ``tx`` solves of
generated k x k' meshes, timing every ``factor_solve`` call with either path
forced (2 cores, one BLAS thread): dense took 0.74 of SuperLU's time at 121
unknowns (case56), 0.87 at 150, 0.94 at 168, 1.08 at 187, 1.18 at 207 and
2.6 at 418 (case196), so the paths cross near 175 unknowns.

The band's margin below the cutoff was measured the same way, with the
dense or the band plan forced: the median time of every ``factor_solve``
call in live ``tx`` solves (2 cores, one BLAS thread) of corpus cases and
of generated k x k' meshes of buses, some with a few random ties that widen
the band. The saving is ``n³/3 − n·kl·(kl+ku)``; where a row gives a range,
it spans the systems of the row and repeated runs:

=====================================  =======  ================  ============
system (unknowns)                      kl       saving            band / dense
=====================================  =======  ================  ============
case14 (34)                            15       −2.2e3            1.09
feeder8, three-phase (54)              21       4.9e3             0.92-1.01
case12_radial (27)                     4        5.7e3             1.05-1.09
hard_corridor (28)                     5        5.9e3             1.14-1.19
11 meshes (35-57)                      4-20     8.6e3-2.8e4       0.86-1.06
case20_radial (43)                     4        2.5e4             0.96
6 meshes (50-81)                       4-30     3.1e4-4.9e4       0.83-0.99
case30 (65)                            13       7.0e4             0.85-0.87
22 meshes (57-173)                     4-56     6.0e4-1.6e6       0.36-0.89
case56 (121)                           16       5.3e5             0.47
=====================================  =======  ================  ============

The band's fixed cost per call was higher than the dense path's: a
scatter-maximum, a sparse residual product (of a refinement step, since
removed) and the gathers of the order.
Below a saving of 1e4 the band lost or tied on every system but feeder8;
between 1e4 and 3e4 the medians scatter around the break-even, within the
spread of repeated runs; from 3e4 up the band won on every system, and by
9% or more from 4e4 up. So ``_BAND_MIN_SAVING`` is 3e4: the band takes only
the patterns where it wins by more than the noise. The table was measured
before the dense path took its data by one scatter and scaled in place,
and before either path dropped the refinement residual, which lowered
their fixed costs per call; the thresholds are deliberately left as they
were, because moving one moves plans, and with them iterates in the last
bits.

Above the cutoff, the band rule reads SuperLU's flop count because no
cutoff on the band's work ``n·kl·(kl+ku)`` or on its width alone separates
the systems where the band wins (below it, the other path is dense, whose
work ``n³/3`` the pattern gives). Median ``dgbtrf`` time against ``splu``
in ``NATURAL`` order on COLAMD's column order, row-equilibrated systems,
2 cores, one BLAS thread; a tile is copies of case196 joined by 3 random
ties per copy:

=======================================  =======  =======  ==============
system (unknowns)                        kl       ratio    band / SuperLU
=======================================  =======  =======  ==============
case196 Jacobian (418)                   32       5.5      0.27-0.33
k x k' 2 x 2-block meshes (392-2700)     29-63    2.3-4.7  0.30-0.73
random, dominant diagonal (216)          132-140  28-32    0.65-0.66
case196 tiled x2 (835)                   70       26       1.16
case196 tiled x4 (1669)                  148      106      3.2
case196 tiled x10 (4171)                 326      466      15.8
=======================================  =======  =======  ==============

where ratio is ``n·kl·(kl+ku) / F``. A ratio of 16 sends case196 and every
mesh to the band and every tile to SuperLU, and keeps the random systems,
where the band's gain is small, on SuperLU. The band's work alone does not
separate them: the x2 tile (8.2e6, band loses) sits below the 30 x 45 mesh
(2.1e7, band wins).

The SuperLU order is structural since it stopped following the set of
exact zeros: a system used to keep COLAMD's order of its zero-dropped
matrix, and ordered again whenever that set changed. On every system
captured from tile solves (x2 with Q limits, x4 without, under each
method) the structural order gave the same flop count, and the
``NATURAL`` factorization took 0.97-0.98 of the old order's time per
call (interleaved in one process, 2 cores, one BLAS thread). Two patterns
that differ only by explicit-zero slots now solve alike only to the last
bits, on SuperLU as on the band.

No step refines the solve. Every Newton pass is judged on the true
residual ``A x - b`` of the unscaled system (``nr.run_newton``), so a loose
solve can cost an iteration but never a false ``converged``; the one check
left on the solution is that every entry is finite. Refinement in working
precision with the same LU helps only an unstable factorization (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., SIAM 2002,
ch. 12), which partial pivoting on equilibrated rows makes rare here: the
step this module used to take whenever the scaled backward error exceeded
1e-12 acted in 7 of 414,868 factorizations, counted over the corpus
digest, its outages, the x2, x4 and x10 case196 tiles and the benchmark's
job families, all 7 in plain-Newton solves of the ill-conditioned corridor
from seeded starts; removing it moved no status, count or output byte.

Every SuperLU factorization uses one setting, ``_SUPERLU_SETTING``:
``relax=1, panel_size=1``, so no relaxed supernodes and no panels. scipy's
defaults (``relax=20, panel_size=10``) target larger, denser factors; at
these sizes they cost more than they save, for the same L+U fill. The
COLAMD call and the ``NATURAL`` call share the setting, so factoring
``A Pc`` in ``NATURAL`` order still yields the same L and U.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgetrf, dgetrs
from scipy.sparse._sparsetools import csc_matvec
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

__all__ = ["CscPattern", "compress_pattern", "SparseSystem", "SingularityError"]

# no supernodes or panels; SuperLU's default diag_pivot_thresh
_SUPERLU_SETTING = {"relax": 1, "panel_size": 1}

# systems of at most this many unknowns are factored dense or on the band,
# never by SuperLU: the measured crossover (see the module docstring)
_DENSE_MAX_N = 175

# a larger pattern takes the band LU when n·kl·(kl+ku) is at most this many
# times SuperLU's flop count on its first factorization: the measured
# separation (see the module docstring)
_BAND_FLOP_RATIO = 16.0

# a pattern at or below the dense cutoff takes the band LU when n·kl·(kl+ku)
# is at least this far below the dense n³/3: the measured margin that pays the
# band path's higher fixed cost per call (see the module docstring)
_BAND_MIN_SAVING = 30000

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
    """Canonical CSC structure of an ``n x n`` matrix; both arrays read-only.

    ``plan`` is the path of every factorization on the pattern: ``None``
    until the first one chooses it, then a :class:`_DensePlan`, a
    :class:`_BandPlan` or a :class:`_SuperluPlan` (see the module
    docstring), which never changes. At or below ``_DENSE_MAX_N`` unknowns
    the plan is the band or the dense one, chosen from the pattern alone;
    above it, a COLAMD factorization in the first call chooses between the
    band and SuperLU in COLAMD's column order. A plan holds read-only
    arrays only, so every system on the pattern shares it.
    """

    indices: np.ndarray
    indptr: np.ndarray
    plan: object = field(default=None, init=False, repr=False, compare=False)


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


def _columns(pattern: CscPattern) -> np.ndarray:
    """The column of each of the pattern's entries, in CSC order."""
    return np.repeat(np.arange(pattern.indptr.size - 1), np.diff(pattern.indptr))


class _Buffer:
    """One system's Fortran-order matrix of a dense or band plan's shape:
    ``flat[plan.slots]`` are the pattern's entries in CSC order and every
    other entry stays zero."""

    def __init__(self, shape: tuple[int, int]):
        self.a = np.zeros(shape, order="F")
        self.flat = self.a.reshape(-1, order="F")  # a view of ``a``


class _DensePlan:
    """The dense path of a pattern: its entries, in CSC order, sit at
    ``slots`` of the flattened Fortran-order ``n x n`` matrix (read-only)."""

    def __init__(self, pattern: CscPattern):
        n = pattern.indptr.size - 1
        self.shape = (n, n)
        self.slots = _columns(pattern) * n + pattern.indices
        self.slots.flags.writeable = False

    def buffer(self) -> _Buffer:
        return _Buffer(self.shape)

    def factor(self, buffer: _Buffer, a: sparse.csc_matrix):
        """The row scale of ``a`` and the solve of LAPACK's LU of the scaled
        matrix, with ``a``'s data scattered into a system's ``buffer`` and
        its rows scaled there in place."""
        buffer.flat[self.slots] = a.data
        scale = _row_scale(np.abs(buffer.a).max(axis=1))
        # the same bits as scaling the CSC data: each entry is multiplied by
        # its row's scale once, and 0 * scale stays 0 off the pattern
        buffer.a *= scale[:, None]
        # dgetrf factors a copy: the buffer keeps its zeros off the pattern
        lu, piv, info = dgetrf(buffer.a)
        if info > 0:
            raise SingularityError(info - 1, f"zero pivot at unknown {info - 1}")
        return scale, lambda r: dgetrs(lu, piv, r)[0]


class _BandPlan:
    """The band path of a pattern in its reverse Cuthill–McKee order.

    Unknown ``perm[i]`` of the caller's numbering sits at position ``i`` of
    the order, and ``inv`` maps back. ``kl`` and ``ku`` are the reordered
    pattern's half-bandwidths below and above the diagonal. The pattern's
    entries, in CSC order, sit at ``slots`` of the flattened Fortran-order
    ``(2 kl + ku + 1) x n`` buffer of ``dgbtrf``, whose first ``kl`` rows
    hold the fill of row interchanges. Every array is read-only.
    """

    def __init__(self, perm: np.ndarray, inv: np.ndarray, kl: int, ku: int,
                 slots: np.ndarray):
        self.perm, self.inv, self.kl, self.ku, self.slots = perm, inv, kl, ku, slots
        self.shape = (2 * kl + ku + 1, perm.size)
        # the multiplications of ``dgbtrf`` at full fill, up to lower orders
        self.work = perm.size * kl * (kl + ku)
        for a in (perm, inv, slots):
            a.flags.writeable = False

    def buffer(self) -> _Buffer:
        return _Buffer(self.shape)

    def factor(self, buffer: _Buffer, a: sparse.csc_matrix):
        """The row scale of ``a`` and the solve, in the caller's numbering,
        of LAPACK's band LU of its scaled data scattered into a system's
        ``buffer``."""
        scale = _csc_scale(a)
        buffer.flat[self.slots] = a.data * scale[a.indices]
        # dgbtrf factors a copy: the buffer keeps its zeros off the pattern
        lu, piv, info = dgbtrf(buffer.a, self.kl, self.ku)
        if info > 0:
            unknown = int(self.perm[info - 1])
            raise SingularityError(unknown, f"zero pivot at unknown {unknown}")
        return scale, lambda r: dgbtrs(lu, self.kl, self.ku, r[self.perm], piv)[0][self.inv]


class _SuperluPlan:
    """The SuperLU path of a pattern in COLAMD's column order ``perm_c``,
    taken from the pattern's first factorization, explicit zeros included.

    ``gather`` takes the pattern's entries, in CSC order, into the CSC
    arrays ``indices``/``indptr`` of ``A Pc``, whose column ``perm_c[j]`` is
    the pattern's column ``j``; SuperLU factors ``A Pc`` in ``NATURAL``
    order to the same L and U as COLAMD's call. Every array is read-only.
    """

    def __init__(self, pattern: CscPattern, perm_c: np.ndarray):
        n = pattern.indptr.size - 1
        self.perm_c = perm_c.copy()  # a copy: SuperLU's array keeps its factors alive
        cols = self.perm_c[_columns(pattern)]
        self.gather = np.argsort(cols, kind="stable")  # each column's rows stay ascending
        self.indices = pattern.indices[self.gather]
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
        self.indptr = self.indptr.astype(np.int32)
        for a in (self.perm_c, self.gather, self.indices, self.indptr):
            a.flags.writeable = False

    def buffer(self) -> sparse.csc_matrix:
        """A system's own ``A Pc``, whose data a gather fills before each use."""
        n = self.indptr.size - 1
        return sparse.csc_matrix(
            (np.empty(self.indices.size), self.indices, self.indptr), shape=(n, n)
        )

    def factor(self, a_p: sparse.csc_matrix, a: sparse.csc_matrix):
        """The row scale of ``a`` and the solve, in the caller's numbering,
        of SuperLU's LU in ``NATURAL`` order of its scaled data gathered into
        a system's ``a_p``."""
        scale = _csc_scale(a)
        np.take(a.data * scale[a.indices], self.gather, out=a_p.data)
        lu = _splu(a_p, "NATURAL")
        return scale, lambda r: lu.solve(r)[self.perm_c]


def _superlu_flops(lu) -> int:
    """Multiplications and divisions of SuperLU's elimination:
    ``Σ_j nnz(L[j+1:, j]) · nnz(U[j, j+1:]) + nnz(L) − n``."""
    n = lu.shape[0]
    lower, upper = lu.L.tocoo(), lu.U.tocoo()
    below = np.bincount(lower.col[lower.row > lower.col], minlength=n)
    right = np.bincount(upper.row[upper.col > upper.row], minlength=n)
    return int(below @ right + below.sum())


def _band_plan(pattern: CscPattern) -> _BandPlan:
    """The pattern's band plan: reverse Cuthill–McKee on the structure of
    ``A + Aᵀ``, so the order depends on the pattern alone, explicit zeros
    included."""
    n = pattern.indptr.size - 1
    a = sparse.csc_matrix(
        (np.ones(pattern.indices.size), pattern.indices, pattern.indptr), shape=(n, n)
    )
    perm = reverse_cuthill_mckee((a + a.T).tocsr(), symmetric_mode=True)
    inv = np.empty(n, dtype=np.intp)
    inv[perm] = np.arange(n)
    row, col = inv[pattern.indices], inv[_columns(pattern)]
    kl, ku = int(np.max(row - col, initial=0)), int(np.max(col - row, initial=0))
    # entry (i, j) of the reordered matrix sits at ab[kl + ku + i - j, j]
    return _BandPlan(perm, inv, kl, ku, col * (2 * kl + ku + 1) + kl + ku + row - col)


def _choose_plan(pattern: CscPattern, lu):
    """The plan of a pattern above the dense cutoff, from its first, COLAMD
    factorization ``lu``: its :class:`_BandPlan` when the band's work is at
    most ``_BAND_FLOP_RATIO`` times SuperLU's flops, else its
    :class:`_SuperluPlan` in ``lu``'s column order."""
    band = _band_plan(pattern)
    if band.work <= _BAND_FLOP_RATIO * _superlu_flops(lu):
        return band
    return _SuperluPlan(pattern, lu.perm_c)


def _small_plan(pattern: CscPattern):
    """The plan of a pattern at or below the dense cutoff, from the pattern
    alone: its :class:`_BandPlan` when the band's work is at least
    ``_BAND_MIN_SAVING`` below the dense ``n³/3``, else its
    :class:`_DensePlan`."""
    n = pattern.indptr.size - 1
    band = _band_plan(pattern)
    return band if band.work + _BAND_MIN_SAVING <= n**3 / 3 else _DensePlan(pattern)


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


def _csc_scale(a: sparse.csc_matrix) -> np.ndarray:
    """The row scale of ``a`` (:func:`_row_scale`) from a scatter-maximum
    over its CSC arrays."""
    absmax = np.zeros(a.shape[0])
    with np.errstate(invalid="ignore"):  # a nan entry leaves its row's maximum nan
        np.maximum.at(absmax, a.indices, np.abs(a.data))
    return _row_scale(absmax)


def _product(a: sparse.csc_matrix, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for a float vector ``x``: the CSC kernel scipy's own product
    calls, into zeros (``_cs_matrix._matmul_vector`` in scipy 1.17.1), so
    the same bits without scipy's dispatch."""
    y = np.zeros(a.shape[0])
    csc_matvec(a.shape[0], a.shape[1], a.indptr, a.indices, a.data, x, y)
    return y


def _splu(a: sparse.csc_matrix, permc_spec: str):
    try:
        return splu(a, permc_spec=permc_spec, **_SUPERLU_SETTING)
    except RuntimeError as exc:  # SuperLU signals singularity this way
        raise SingularityError(-1, str(exc)) from exc


class SparseSystem:
    """One n x n real system, reassembled in place every Newton iteration.

    Only the pattern and its plan, both read-only, are shared with other
    systems; this system holds its own buffer of the plan (the dense or
    band matrix, or SuperLU's ``A Pc``), which every ``factor`` on the
    plan overwrites, and its counters.
    """

    def __init__(self, n: int):
        self.n = n
        self.pattern_builds = 0
        self.orderings = 0
        self._pattern = None
        self._buffer = None
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
            self._buffer = None
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

    def residual(self, x: np.ndarray) -> np.ndarray:
        """``A x - b`` of the assembled system at the float vector ``x``:
        the bits of ``self.matrix @ x - self.rhs``."""
        return _product(self.matrix, x) - self.rhs

    def factor_solve(self) -> np.ndarray:
        """The solve of the assembled system on its pattern's plan, as a new
        array on every call, which the caller may keep or edit.

        A pattern's first factorization sets its plan: at or below
        ``_DENSE_MAX_N`` unknowns from the pattern alone, before its rows
        are checked; above it from a COLAMD factorization of the
        row-equilibrated matrix, which ``orderings`` counts. The plan's
        ``factor`` then equilibrates the rows and factors, and the scaled
        right-hand side is solved once, with no refinement (see the module
        docstring). Raises :class:`SingularityError`, before any
        factorization, on the first row with no nonzero entry, with a
        non-finite one or whose scale would overflow; and on an exact zero
        pivot (naming the unknown), on SuperLU's singularity (row -1) or on
        the first non-finite solution entry, in the caller's numbering.
        """
        a, pattern = self.matrix, self._pattern
        if pattern.plan is None:
            if self.n <= _DENSE_MAX_N:
                plan = _small_plan(pattern)
            else:
                scale = _csc_scale(a)
                a_s = sparse.csc_matrix((a.data * scale[a.indices], a.indices, a.indptr),
                                        shape=a.shape)
                plan = _choose_plan(pattern, _splu(a_s, "COLAMD"))
                self.orderings += 1
            object.__setattr__(pattern, "plan", plan)
        if self._buffer is None:
            self._buffer = pattern.plan.buffer()
        scale, solve = pattern.plan.factor(self._buffer, a)
        x = solve(scale * self.rhs)
        if np.count_nonzero(np.isfinite(x)) < x.size:
            bad = int(np.flatnonzero(~np.isfinite(x))[0])
            raise SingularityError(bad, "non-finite solution entry")
        return x
