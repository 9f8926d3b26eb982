"""Enumerative indexing of bounded, sum-constrained checkerboard points.

The shaping alphabet used throughout this package is

    TD(n, H, 2L)   = { d in {0..H}^n : sum(d) even, sum(d) <= 2L },
    TD(n, H, 2L, M) = the M points of TD(n, H, 2L) that come first in
                      canonical order (ell-1 norm ascending, ties broken
                      lexicographically).

Because the point counts at the sizes we care about exceed 2**100, every
count in this module is an exact Python integer and rank/unrank work on
arbitrary-precision indices.  The counts come from N[m][s] = number of
m-tuples over {0..H} summing to s; everything else (cardinalities,
rank/unrank, first-coordinate marginals, selection statistics) is derived
from them.  Counts are only needed up to the indexer's largest admissible
sum smax = min(2L, n*H): no count the indexer needs reads a column beyond
it, and the alphabets in use have smax far below n*H.

Cardinalities and selection statistics read only rows n - 1 and n, which
``_last_rows`` builds in closed form, so the box-height scan of
``constellations.determine_params`` builds no full table.  Rank, unrank
and the sampler read one table, ``_composition_table``, which an indexer
builds on first use and keeps.  It holds prefix rows
C[m][s] = N[m][0] + ... + N[m][s-1], so the points of a sum-s shell whose
current coordinate is at most v number C[m][s+1] - C[m][s-v]: rank adds one
such difference per coordinate, and unrank finds each coordinate with one
bisection of a row.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from math import comb
from operator import add, mul, sub

import numpy as np

from . import _checks

__all__ = [
    "TdParams",
    "TdIndexer",
    "TdSelection",
    "TdSampler",
]


@dataclass(frozen=True)
class TdParams:
    """Geometry of one shaping alphabet: n, box height h, half-sum bound l,
    and the number of points actually used (the m_s least-l1 ones)."""

    n: int
    h: int
    l: int
    m_s: int

    def indexer(self) -> "TdIndexer":
        return TdIndexer(self.n, self.h, self.l)


def _window_step(pre: list[int] | tuple[int, ...], h: int, smax: int) -> tuple[int, ...]:
    """Row m of the counts N from the running sums of row m - 1,
    pre[s] = N[m-1][0] + ... + N[m-1][s], both cut at smax: a windowed sum,
        N[m][s] = pre[s] - pre[s-h-1].
    N[m][s] reads no column of row m - 1 beyond s, so the cut rows stay
    exact.  The differences for s > h run in ``map``, which stops at the
    shorter slice (none when h >= smax).
    """
    return tuple(pre[:h + 1]) + tuple(map(sub, pre[h + 1:], pre[:smax - h]))


def _composition_table(n: int, h: int, smax: int) -> tuple[tuple[int, ...], ...]:
    """Prefix table C[m][s], m = 0..n, s = 0..smax + 1: number of vectors in
    {0..h}^m with sum below s, so N[m][s] = C[m][s+1] - C[m][s].  Row m is
    one ``_window_step`` of C[m-1][1:], the running sums of row m - 1, then
    one prefix sum."""
    rows = [(0,) + (1,) * (smax + 1)]
    for _ in range(n):
        rows.append(tuple(accumulate(_window_step(rows[-1][1:], h, smax), initial=0)))
    return tuple(rows)


def _last_rows(n: int, h: int, smax: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rows n - 1 and n of ``_composition_table(n, h, smax)``, built without
    the rows below them.

    Row m = n - 1 is the stars-and-bars count of m-tuples summing to s with
    inclusion-exclusion over the coordinates that exceed h,
        N[m][s] = sum over i of (-1)^i C(m, i) C(s - i(h+1) + m - 1, m - 1),
    the binomial column C(t + m - 1, m - 1), t = 0..smax, built
    incrementally and each term added in one ``map`` pass shifted by
    i(h+1).  At m = 0 the column is (1, 0, ..., 0) and there are no terms.
    Row n is one ``_window_step`` of the running sums of row n - 1.
    """
    m = n - 1
    col = [1]
    for t in range(1, smax + 1):
        col.append(col[-1] * (t + m - 1) // t)
    row = list(col)
    for i in range(1, min(m, smax // (h + 1)) + 1):
        shift = i * (h + 1)
        term = map(mul, col, repeat(comb(m, i)))
        row[shift:] = map(sub if i % 2 else add, row[shift:], term)
    row = tuple(row)
    return row, _window_step(list(accumulate(row)), h, smax)


class TdIndexer:
    """Rank/unrank machinery for TD(n, H, 2L) in canonical order.

    Canonical order sorts points by ell-1 norm (coordinate sum) first and
    lexicographically within a shell.  Index 0 is always the origin.
    ``count`` is the cardinality of TD(n, H, 2L), for integers n >= 1, H, L >= 0.
    """

    def __init__(self, n: int, h: int, l: int):
        self.n = n = _checks.integer("n", n, 1)
        self.h = h = _checks.integer("h", h, 0)
        self.l = l = _checks.integer("l", l, 0)
        self.smax = min(2 * l, n * h)
        # Largest even coordinate sum actually admissible.
        if self.smax % 2 == 1:
            self.smax -= 1
        # Rows n - 1 and n of the composition table: all that counting and
        # the selection statistics read.
        self._row_rest, row_all = _last_rows(n, h, self.smax)
        self.shell_sizes = list(row_all[::2])                # per even shell s = 0, 2, 4, ...
        self.shell_cum = list(accumulate(self.shell_sizes))  # cumulative counts, same order
        self.count = self.shell_cum[-1]

    @cached_property
    def _table(self) -> tuple[tuple[int, ...], ...]:
        """The prefix table ``_composition_table(n, h, smax)``, for
        rank/unrank and the sampler; built on first use."""
        return _composition_table(self.n, self.h, self.smax)

    # -- counting helpers -------------------------------------------------

    def _cum_blocks(self, m: int, s: int) -> list[int]:
        """Cumulative block sizes over the current coordinate value v = 0, 1, ...

        Entry v holds the number of vectors in {0..h}^(m+1) with sum s whose
        first coordinate is <= v, for s <= smax: C[m][s+1] - C[m][s-v].
        Row n - 1 is summed from ``_row_rest``, so ``selection`` builds no
        full table.
        """
        k = min(self.h, s)
        if m == self.n - 1:
            return list(accumulate(self._row_rest[s - k:s + 1][::-1]))
        c = self._table[m]
        return [c[s + 1] - x for x in c[s - k:s + 1][::-1]]

    def shell_of(self, index: int) -> tuple[int, int]:
        """Return (shell sum s, rank inside the shell) for a global index:
        an integer (else TypeError) below ``count`` (else IndexError)."""
        i = _checks.as_int(index)
        if i is None:
            raise TypeError(f"index must be an integer, got {index!r}")
        if not 0 <= i < self.count:
            raise IndexError(f"index {i} out of range for {self.count} points")
        k = bisect.bisect_right(self.shell_cum, i)
        s = 2 * k
        before = self.shell_cum[k - 1] if k > 0 else 0
        return s, i - before

    # -- rank / unrank ----------------------------------------------------

    def unrank(self, index: int) -> np.ndarray:
        """The point of rank ``index``.  With m coordinates after the
        current one and sum s left, the values below v hold
        C[m][s+1] - C[m][s-v+1] points, so v = s + 1 - t for the first t in
        [s - h, s + 1] with C[m][s+1] - C[m][t] <= r: one bisection of row m."""
        s, r = self.shell_of(index)
        h = self.h
        out = []
        for c in self._table[self.n - 1::-1]:
            x = c[s + 1] - r
            t = bisect.bisect_left(c, x, s - h if s > h else 0, s + 1)
            r = c[t] - x
            out.append(s + 1 - t)
            s = t - 1
        return np.array(out, dtype=np.int64)

    def rank(self, point) -> int:
        pt = np.asarray(point)
        if pt.shape != (self.n,):
            raise ValueError(f"expected a length-{self.n} point")
        if pt.dtype.kind not in "iu":
            if not ((pt >= 0) & (pt <= self.h) & (pt == np.floor(pt))).all():
                raise ValueError("coordinates must be integers in [0, h]")
            pt = pt.astype(np.int64)
        vals = pt.tolist()
        if min(vals) < 0 or max(vals) > self.h:
            raise ValueError("coordinate out of range")
        s = sum(vals)
        if s % 2 == 1 or s > 2 * self.l:
            raise ValueError("point outside the indexed set")
        k = s // 2
        r = self.shell_cum[k - 1] if k > 0 else 0
        for c, v in zip(self._table[self.n - 1::-1], vals):
            r += c[s + 1] - c[s - v + 1]
            s -= v
        return r

    # -- statistics over a canonical prefix (the selected alphabet) -------

    def selection(self, m_s: int) -> "TdSelection":
        """Exact statistics of the first ``m_s`` points in canonical order."""
        if not 1 <= m_s <= self.count:
            raise ValueError(f"selection size must be in [1, {self.count}]")
        k = bisect.bisect_left(self.shell_cum, m_s)
        s_star = 2 * k
        before = self.shell_cum[k - 1] if k > 0 else 0
        partial = m_s - before      # points taken from the boundary shell;
                                    # shells 0, 2, ..., s_star - 2 are complete

        sum_l1 = sum(map(mul, range(0, s_star, 2), self.shell_sizes)) + s_star * partial

        # First-coordinate marginal: complete shells contribute the full
        # (n-1)-dimensional counts, sum over i < k of N[n-1][2i - v], which is
        # the alternating prefix sum alt[t] = N[n-1][t] + alt[t-2] at
        # t = s_star - 2 - v: one running sum over the even t < s_star, one
        # over the odd (whose last, t = s_star - 1, no v reads).  The boundary
        # shell is a lexicographic prefix: it holds the whole blocks
        # N[n-1][s_star - v] of the values v < j and ``partial`` - cum[j-1]
        # points of value j, the first whose cumulative block reaches
        # ``partial``.
        row = self._row_rest
        alt = [0] * s_star
        alt[0::2] = accumulate(row[0:s_star:2])
        alt[1::2] = accumulate(row[1:s_star:2])
        marg = alt[::-1][1:self.h + 2]
        marg += [0] * (self.h + 1 - len(marg))
        cum = self._cum_blocks(self.n - 1, s_star)
        j = bisect.bisect_left(cum, partial)
        marg[:j] = map(add, marg[:j], row[s_star:s_star - j:-1])
        marg[j] += partial - (cum[j - 1] if j else 0)
        return TdSelection(
            indexer=self,
            m_s=m_s,
            s_star=s_star,
            partial=partial,
            sum_l1=sum_l1,
            first_coord_counts=tuple(marg),
            max_rest_coord=min(self.h, s_star) if self.n > 1 else 0,
        )


@dataclass(frozen=True)
class TdSelection:
    """Exact aggregate statistics of a canonical prefix TD(n, H, 2L, M)."""

    indexer: TdIndexer
    m_s: int
    s_star: int               # boundary shell (coordinate sum)
    partial: int              # how many boundary-shell points are included
    sum_l1: int               # sum of coordinate sums over the selection
    first_coord_counts: tuple # histogram of the first coordinate
    # Max over coordinates 2..n: min(h, s_star) for n >= 2.  The selection
    # always holds the lexicographically first point of shell s_star (partial
    # >= 1), whose last coordinate is min(h, s_star), and no selected point
    # sums above s_star.  0 for n = 1, which has no coordinates 2..n.
    max_rest_coord: int

    @property
    def mean_l1(self) -> Fraction:
        """Exact average coordinate sum over the selected points."""
        return Fraction(self.sum_l1, self.m_s)

    @property
    def odd_first_count(self) -> int:
        return sum(self.first_coord_counts[1::2])

    def max_first(self, parity: int | None = None) -> int:
        """Largest first-coordinate value present (optionally of one parity)."""
        vals = range(len(self.first_coord_counts))
        best = -1
        for v in vals:
            if self.first_coord_counts[v] and (parity is None or v % 2 == parity):
                best = v
        return best

    @property
    def max_coord(self) -> int:
        return max(self.max_first(), self.max_rest_coord)


class TdSampler:
    """Vectorized uniform sampler over the first m_s points in canonical order.

    All randomness comes from a caller-supplied numpy Generator, consumed in a
    fixed sequence (one uniform for the shell choice, then one per coordinate),
    so a given generator state always produces the same batch.  Shell and
    coordinate probabilities are exact integer ratios rounded once to float64;
    the resulting distortion of the uniform law is of order 2**-52 per draw.

    Complete shells are sampled coordinate by coordinate through conditional
    cdf tables.  The boundary shell contributes only a lexicographic prefix,
    which is a staircase along the unrank walk of its last point: at depth j
    the values below a cutoff v_cut take their whole blocks, v_cut takes part
    of its block, and larger values take none.  A point stays on the
    staircase only while it picks v_cut, so one precomputed cdf row per
    depth handles it without per-point integer arithmetic.
    """

    def __init__(self, indexer: TdIndexer, m_s: int):
        self.indexer = indexer
        self.m_s = m_s
        sel = indexer.selection(m_s)
        n, h = indexer.n, indexer.h
        s_star, partial = sel.s_star, sel.partial
        k_star = s_star // 2

        self._shell_cdf = np.array([c / m_s for c in indexer.shell_cum[:k_star]] + [1.0])
        self._s_star = s_star

        # Conditional cdf tables for complete shells: coord_cdf[m][s, v] is
        # P(coordinate <= v | m coordinates remain with total sum s), the
        # cumulative sum over v of N[m-1][s - v], which reaches 1 at
        # v = min(h, s).  Rows with s > m*h are unreachable and stay all ones.
        # floats[m][s] is N[m][s] = C[m][s+1] - C[m][s], exact until rounded.
        floats = [np.fromiter(map(sub, c[1:s_star + 2], c), dtype=np.float64, count=s_star + 1)
                  for c in indexer._table]
        s_col = np.arange(s_star + 1)[:, None]
        v_row = np.arange(h + 1)
        # Entries with v > s gather column 0; they all lie where the cdf has
        # reached 1, and ``reached`` overwrites them.
        gather = np.maximum(s_col - v_row, 0)
        reached = v_row >= np.minimum(s_col, h)
        coord_cdf: list[np.ndarray | None] = [None] * (n + 1)
        for m in range(1, n + 1):
            tab = np.ones((s_star + 2, h + 1))  # last row: the boundary row, set below
            live = min(s_star, m * h) + 1
            cdf = np.cumsum(floats[m - 1][gather[:live]], axis=1) / floats[m][:live, None]
            np.minimum(cdf, 1.0, out=cdf)
            cdf[reached[:live]] = 1.0
            tab[:live] = cdf
            coord_cdf[m] = tab

        # Boundary shell: the unrank walk of the last selected point (rank
        # m_s - 1, ``rem`` points into the shell).  At depth j the blocks
        # v < v_cut are complete and v_cut is cut; the walk stops where the
        # prefix ends on a block boundary.
        self._b_vcut = np.full(n, -1, dtype=np.int64)
        b_cdf = np.ones((n, h + 1))
        self._b_alive = [False] * (n + 1)
        if partial < indexer.shell_sizes[k_star]:
            rem, s_b = partial, s_star
            for j in range(n):
                self._b_alive[j] = True
                cum = indexer._cum_blocks(n - 1 - j, s_b)
                v_cut = bisect.bisect_left(cum, rem)
                b_cdf[j, :v_cut] = [c / rem for c in cum[:v_cut]]
                self._b_vcut[j] = v_cut
                if rem == cum[v_cut]:
                    break
                rem -= cum[v_cut - 1] if v_cut else 0
                s_b -= v_cut

        # What sample() searches at depth j: the rows of coord_cdf[n - j],
        # then the boundary row b_cdf[j] as row s_star + 1.
        self._tables = [coord_cdf[n - j] for j in range(n)]
        for j, table in enumerate(self._tables):
            table[s_star + 1] = b_cdf[j]

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` points, shape (count, n), dtype int64.

        Each coordinate is the number of entries of its cdf row at or below
        its uniform draw.  The rows are nondecreasing and end at 1.0, so that
        count comes from a branch-free binary search over the h + 1 entries:
        with P the largest power of two <= h + 1, one probe at offset
        h + 1 - P, then probes P/2, P/4, ..., 1 further on.
        """
        n, h = self.indexer.n, self.indexer.h
        width = h + 1
        top = 1 << (width.bit_length() - 1)
        steps = [top >> i for i in range(1, top.bit_length())]
        if width > top:
            steps.insert(0, width - top)
        u = rng.random(count)
        k = np.searchsorted(self._shell_cdf, u, side="right")
        s = (2 * k).astype(np.int64)
        boundary = (s == self._s_star) & self._b_alive[0]
        out = np.empty((count, n), dtype=np.int64)
        for j in range(n):
            u = rng.random(count)
            flat = self._tables[j].ravel()
            # pos is the flat index of the last entry counted so far
            start = np.where(boundary, self._s_star + 1, s) * width - 1
            pos = start.copy()
            for step in steps:
                pos += step * (flat.take(pos + step) <= u)
            v = pos - start
            out[:, j] = v
            s -= v
            if j + 1 < n:
                boundary = boundary & (v == self._b_vcut[j]) & self._b_alive[j + 1]
        if (s != 0).any():  # pragma: no cover - would mean a broken cdf table
            raise AssertionError("sampler left a nonzero coordinate budget")
        return out
