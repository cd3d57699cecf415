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

Three factorizations, and one plan per pattern that picks among them. The
analysis that depends on the structure alone runs once per pattern, not
once per system (the split of symbolic analysis from numeric factorization
in Davis and Palamadai Natarajan, "Algorithm 907: KLU", ACM TOMS 37(3),
2010): the pattern's first factorization chooses its ``plan``, which holds
read-only index arrays only and which every later system on the pattern
reuses. Writable memory is never shared: each :class:`SparseSystem`
allocates its own buffers, so ``pattern_builds`` still counts one per
system and pattern. The number of unknowns ``n`` chooses how the plan is
chosen:

* ``n <= _DENSE_MAX_N``: from the pattern alone, once the first
  factorization's rows have passed the checks. SuperLU is never tried at or
  below the cutoff. The pattern's RCM order (below) gives its
  half-bandwidths; the plan is the band LU when the band's work
  ``n·kl·(kl+ku)`` is at least ``_BAND_MIN_SAVING`` below the dense
  ``n³/3``, and otherwise the dense LU.
* larger systems: the first factorization of a pattern goes to SuperLU with
  COLAMD, and its flop count
  ``F = Σ_j nnz(L[j+1:, j]) · nnz(U[j, j+1:]) + nnz(L) − n`` chooses the
  band LU when ``n·kl·(kl+ku) <= _BAND_FLOP_RATIO · F``, else SuperLU (the
  plan ``"SuperLU"``, described below). The call that chooses the band
  factors the same scaled data again with ``dgbtrf`` and solves with the
  band, so every factorization of a band pattern takes the same path,
  whether the plan was chosen in the call, earlier in the same solve or by
  another solve of the same network; a solve's result does not depend on
  what was solved before it. The flop count does depend on the values of
  the first factorization, but the measured ratios below sit far from the
  threshold.

The three paths:

* dense: the plan holds the place of each CSC entry in an ``n x n``
  Fortran-order matrix. One such matrix per system, whose entries off the
  pattern stay zero, takes the raw data by one scatter; the row maxima
  are one reduction over the rows of its magnitudes, and its rows are then
  scaled in place. LAPACK ``dgetrf``/``dgetrs`` factor and solve it with
  partial pivoting. At these sizes SuperLU's fixed cost per call, not the
  factorization, dominates. A maximum is exact, and each entry is
  multiplied by its row's scale once either way (``0 * scale`` stays 0 off
  the pattern), so the scale and every scaled entry are the same bytes as
  a scatter-maximum (``np.maximum.at``) over the CSC data and the scaled
  CSC data scattered; a pattern's first factorization, before it has a
  plan, takes the scatter-maximum.
* band: the unknowns are renumbered by reverse Cuthill–McKee (RCM) on the
  structure of ``A + Aᵀ`` (Cuthill and McKee, 1969; George and Liu,
  *Computer Solution of Large Sparse Positive Definite Systems*, 1981,
  ch. 4), which gives the half-bandwidths ``kl`` below and ``ku`` above the
  diagonal; the plan keeps the order, its inverse, ``kl``, ``ku`` and the
  place of each CSC entry in LAPACK's band layout, ``2 kl + ku + 1`` rows
  by ``n``, whose first ``kl`` rows take the fill of row interchanges. The
  row maxima come from a scatter-maximum over the CSC arrays. The scaled
  data goes by one scatter into the system's own buffer in that layout;
  LAPACK ``dgbtrf``/``dgbtrs`` factor and solve it with partial pivoting,
  and the solution is mapped back to the caller's numbering. The order
  depends on the pattern alone, explicit zeros included, and the pivots on
  the values, so a change in the set of exact zeros never orders again.
  The order is set up once per pattern: in live N-1 runs of case56 (121
  unknowns), where every outage is a new pattern, it took a median of
  0.51 ms, about half of it in forming ``A + Aᵀ``.
* SuperLU, with a scatter-maximum over the CSC arrays, as described below.

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

The band's fixed cost per call is higher than the dense path's: a
scatter-maximum, a sparse residual product and the gathers of the order.
Below a saving of 1e4 the band lost or tied on every system but feeder8;
between 1e4 and 3e4 the medians scatter around the break-even, within the
spread of repeated runs; from 3e4 up the band won on every system, and by
9% or more from 4e4 up. So ``_BAND_MIN_SAVING`` is 3e4: the band takes only
the patterns where it wins by more than the noise. The table was measured
before the dense path took its data by one scatter and scaled in place,
which lowered its fixed cost per call; the thresholds are deliberately left
as they were, because moving one moves plans, and with them iterates in
the last bits.

Above the cutoff, the band rule reads SuperLU's flop count because no
cutoff on the band's work ``n·kl·(kl+ku)`` or on its width alone separates
the systems where the band wins (below it, the other path is dense, whose
work ``n³/3`` the pattern gives). Median ``dgbtrf`` time against ``splu``
in ``NATURAL`` order on the kept COLAMD order, row-equilibrated systems,
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

On the SuperLU side, the scaled matrix drops the pattern's explicit zeros
(open shorts, zeroed loads): SuperLU orders columns by the structure, so a
kept zero would change the pivots and the solution. The column order
depends on the values' zeros, so it lives on the :class:`SparseSystem`, not
on the plan. COLAMD runs on a system's first factorization of a pattern
and again only when the set of dropped zeros changes (``orderings`` counts
these); every other factorization gathers the values into the
column-permuted matrix and calls SuperLU in ``NATURAL`` order, which yields
the same L and U. A pattern on the band keeps no column order, so
``orderings`` counts only the call that chose its plan above the cutoff,
and nothing below it. On either path the refinement residual is taken on the unpermuted matrix,
because a permuted product sums each row in another order and the result
would differ in the last bits.

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

# the plan of a pattern whose band work the flop rule rejects
_SUPERLU = "SuperLU"

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
    :class:`_BandPlan` or ``"SuperLU"`` (see the module docstring). At or
    below ``_DENSE_MAX_N`` unknowns the plan is the band or the dense one,
    chosen from the pattern alone; above it, SuperLU's first factorization
    chooses between the band and SuperLU. A plan holds no writable memory,
    so every system on the pattern shares it.
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
        cols = _columns(pattern)[self.gather]
        self.a_s = _csc(n, cols, pattern.indices[self.gather])
        cols_p = perm_c[cols]
        by_col = np.argsort(cols_p, kind="stable")  # each column's rows stay ascending
        self.gather_p = self.gather[by_col]
        self.a_p = _csc(n, cols_p[by_col], pattern.indices[self.gather_p])


class _DensePlan:
    """The dense path of a pattern: its entries, in CSC order, sit at
    ``slots`` of the flattened Fortran-order ``n x n`` matrix (read-only)."""

    def __init__(self, pattern: CscPattern):
        n = pattern.indptr.size - 1
        self.shape = (n, n)
        self.slots = _columns(pattern) * n + pattern.indices
        self.slots.flags.writeable = False


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

    def solve(self, lu: np.ndarray, piv: np.ndarray, r: np.ndarray) -> np.ndarray:
        """``A^-1 r`` in the caller's numbering from the band factors."""
        return dgbtrs(lu, self.kl, self.ku, r[self.perm], piv)[0][self.inv]


class _Buffer:
    """One system's Fortran-order matrix of a dense or band plan's shape:
    ``flat[plan.slots]`` are the pattern's entries in CSC order and every
    other entry stays zero."""

    def __init__(self, plan):
        self.plan = plan
        self.a = np.zeros(plan.shape, order="F")
        self.flat = self.a.reshape(-1, order="F")  # a view of ``a``


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


def _choose_plan(pattern: CscPattern, flops: int):
    """The plan of a pattern above the dense cutoff: its :class:`_BandPlan`
    when the band's work is at most ``_BAND_FLOP_RATIO`` times SuperLU's
    ``flops``, else ``"SuperLU"``."""
    band = _band_plan(pattern)
    return band if band.work <= _BAND_FLOP_RATIO * flops else _SUPERLU


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


def _splu(a: sparse.csc_matrix, permc_spec: str):
    try:
        return splu(a, permc_spec=permc_spec, **_SUPERLU_SETTING)
    except RuntimeError as exc:  # SuperLU signals singularity this way
        raise SingularityError(-1, str(exc)) from exc


class SparseSystem:
    """One n x n real system, reassembled in place every Newton iteration.

    Only the pattern and its plan, both read-only, are shared with other
    systems; the dense or band buffer, the band's scaled matrix and
    SuperLU's kept order belong to this system.
    """

    def __init__(self, n: int):
        self.n = n
        self.pattern_builds = 0
        self.orderings = 0
        self._pattern = None
        self._order = self._buffer = self._band_a = None
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
            self._order = self._buffer = self._band_a = None
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
        before it is scaled, naming the first such row, and before any band
        or SuperLU work, reverse Cuthill–McKee (RCM) ordering included. The
        pattern's plan chooses the factorization; the first factorization
        of a pattern chooses its plan.

        A pattern of at most ``_DENSE_MAX_N`` unknowns chooses its plan from
        its structure alone, once the rows have passed: the band when
        ``n·kl·(kl+ku) + _BAND_MIN_SAVING <= n³/3``, where ``kl`` and ``ku``
        are the half-bandwidths of the pattern in its RCM order, else dense;
        SuperLU never runs. On the dense plan, the raw data is scattered
        into this system's Fortran-order buffer, whose other entries stay
        zero, the row maxima are read off its magnitudes (the first
        factorization, which chooses the plan, takes them by a
        scatter-maximum instead), its rows are scaled in place, the same
        bits as scaling the CSC data, and LAPACK ``dgetrf``/``dgetrs``
        factor and solve it; an exact zero pivot raises, naming the
        unknown.

        Larger patterns, and band patterns, are scaled on the cached CSC
        arrays. The first factorization of a larger pattern goes to SuperLU
        with COLAMD, and its flop count ``F`` chooses the plan: the band
        when ``n·kl·(kl+ku) <= _BAND_FLOP_RATIO · F``, else SuperLU. When it
        chooses the band, the same call factors the same scaled data again
        on the band and solves with that, so every factorization of a band
        pattern is the band's, whether its plan was just chosen or chosen
        by another system. On the band, the scaled data is scattered into
        this system's LAPACK band buffer, ``dgbtrf``/``dgbtrs`` factor and
        solve it in the RCM order, and an exact zero pivot raises, naming
        the unknown in the caller's numbering; the order depends only on
        the pattern, so exact zeros never change it. SuperLU sees only the
        structural nonzeros of the scaled values. Its column order lives on
        this system, next to the pattern: the system's first factorization
        of a pattern, and the first after its set of exact zeros changes,
        runs COLAMD and keeps ``perm_c`` (``orderings`` counts these, the
        call that chooses a band plan included). Every other call gathers
        the data into the column-permuted matrix, factors it in ``NATURAL``
        order and un-permutes the solution. Both use ``_SUPERLU_SETTING``
        (no supernodes at these sizes), so the ``NATURAL`` call on ``A Pc``
        yields the same L and U. The refinement residual is taken on the
        unpermuted matrix, so every row sums in the same order whichever
        SuperLU call factored. Raises :class:`SingularityError` on
        structural or numerical singularity, reporting an offending row
        where one is identifiable; a call that raises keeps no new order,
        and chooses no plan when its rows fail or above the dense cutoff.
        """
        a, plan = self.matrix, self._pattern.plan
        if isinstance(plan, _DensePlan):
            a_d = self._dense_buffer(a.data, plan)
            absmax = np.abs(a_d).max(axis=1)
        else:
            absmax = np.zeros(self.n)
            with np.errstate(invalid="ignore"):  # a nan entry leaves its row's maximum nan
                np.maximum.at(absmax, a.indices, np.abs(a.data))
        scale = _row_scale(absmax)
        # after the row checks, so a call with a bad row orders nothing
        if plan is None and self.n <= _DENSE_MAX_N:
            plan = _small_plan(self._pattern)
            object.__setattr__(self._pattern, "plan", plan)
            if isinstance(plan, _DensePlan):
                a_d = self._dense_buffer(a.data, plan)
        b_s = scale * self.rhs
        if isinstance(plan, _DensePlan):
            # the same bits as scaling the CSC data: each entry is multiplied
            # by its row's scale once, and 0 * scale stays 0 off the pattern
            a_d *= scale[:, None]
            a_s, solve, fresh = self._dense_lu(a_d)
        else:
            factor = self._band_lu if isinstance(plan, _BandPlan) else self._sparse_lu
            a_s, solve, fresh = factor(a.data * scale[a.indices], plan)
        x = solve(b_s)
        if np.count_nonzero(np.isfinite(x)) < x.size:
            bad = int(np.flatnonzero(~np.isfinite(x))[0])
            raise SingularityError(bad, "non-finite solution entry")
        # one step of iterative refinement when the backward error is loose
        denom = max(1.0, np.abs(b_s).max()) if b_s.size else 1.0
        res = b_s - a_s @ x
        if np.abs(res).max() / denom > 1e-12:
            x = x + solve(res)
        if fresh is not None:
            self._keep(*fresh)
        return x

    def _keep(self, plan, zero: np.ndarray | None, lu) -> None:
        """Count a COLAMD factorization ``lu`` that dropped the ``zero``
        slots, once its call has succeeded, and keep its order unless the
        pattern's ``plan`` is the band. The pattern's first one also keeps
        the plan it chose on the pattern."""
        self.orderings += 1
        if self._pattern.plan is None:
            object.__setattr__(self._pattern, "plan", plan)
        self._order = None if isinstance(plan, _BandPlan) else _Order(
            self._pattern, zero, lu.perm_c
        )

    def _buffer_of(self, plan) -> _Buffer:
        """This system's buffer of a dense or band ``plan``."""
        if self._buffer is None or self._buffer.plan is not plan:
            self._buffer = _Buffer(plan)
        return self._buffer

    def _dense_buffer(self, data: np.ndarray, plan: _DensePlan) -> np.ndarray:
        """This system's dense matrix of ``plan``, holding ``data`` on the
        pattern and zeros elsewhere."""
        buffer = self._buffer_of(plan)
        buffer.flat[plan.slots] = data
        return buffer.a

    def _dense_lu(self, a_s: np.ndarray):
        """LAPACK LU of the scaled dense matrix ``a_s``: the matrix, its
        solve, and nothing to keep."""
        # dgetrf factors a copy: ``a_s`` keeps its zeros off the pattern and
        # serves the refinement residual
        lu, piv, info = dgetrf(a_s)
        if info > 0:
            raise SingularityError(info - 1, f"zero pivot at unknown {info - 1}")
        return a_s, lambda r: dgetrs(lu, piv, r)[0], None

    def _band_lu(self, data: np.ndarray, plan: _BandPlan):
        """LAPACK band LU of the scaled ``data`` in the plan's RCM order: the
        scaled matrix, its solve, and nothing to keep."""
        buffer = self._buffer_of(plan)
        buffer.flat[plan.slots] = data
        # dgbtrf factors a copy: the buffer keeps its zeros off the pattern
        lu, piv, info = dgbtrf(buffer.a, plan.kl, plan.ku)
        if info > 0:
            unknown = int(plan.perm[info - 1])
            raise SingularityError(unknown, f"zero pivot at unknown {unknown}")
        # the scaled values on the whole pattern, for the refinement residual
        if self._band_a is None:
            self._band_a = sparse.csc_matrix(
                (data, self._pattern.indices, self._pattern.indptr), shape=(self.n, self.n)
            )
        else:
            self._band_a.data = data
        return self._band_a, lambda r: plan.solve(lu, piv, r), None

    def _sparse_lu(self, data: np.ndarray, plan):
        """SuperLU of the scaled ``data`` without its exact zeros: the
        zero-dropped matrix, its solve, and, when it ran COLAMD, what
        :meth:`_keep` keeps (``None`` when the kept order was used). A call
        that chooses the band factors ``data`` again on the band."""
        zero = data == 0.0
        order = self._order
        if order is not None and np.array_equal(zero, order.zero):
            np.take(data, order.gather, out=order.a_s.data)
            np.take(data, order.gather_p, out=order.a_p.data)
            lu = _splu(order.a_p, "NATURAL")
            return order.a_s, lambda r: lu.solve(r)[order.perm_c], None
        # a copy: eliminate_zeros compacts in place, and the band reads ``data``
        a_s = sparse.csc_matrix((data.copy(), self._pattern.indices.copy(),
                                 self._pattern.indptr.copy()), shape=(self.n, self.n))
        a_s.eliminate_zeros()
        lu = _splu(a_s, "COLAMD")
        if plan is None:
            plan = _choose_plan(self._pattern, _superlu_flops(lu))
            if isinstance(plan, _BandPlan):
                a_b, solve, _ = self._band_lu(data, plan)
                return a_b, solve, (plan, None, None)
        return a_s, lu.solve, (plan, zero, lu)
