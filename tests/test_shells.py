"""Tests for the even-sum truncated-box enumerative indexer."""

import functools
import itertools
import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oslc.constellations import build_spec
from oslc.shells import TdIndexer, TdParams, TdSampler, _composition_table, _last_rows


def enumerate_set(n, h, l):
    """Exhaustive point list of the even-sum truncated box, unordered."""
    pts = []
    for v in itertools.product(range(h + 1), repeat=n):
        s = sum(v)
        if s % 2 == 0 and s <= 2 * l:
            pts.append(v)
    return pts


def canonical_sort(points):
    return sorted(points, key=lambda p: (sum(p), p))


@functools.lru_cache(maxsize=None)
def full_table(n, h):
    """N[m][s] for every sum s = 0..n*h, straight from the convolution
    N[m][s] = sum over v = 0..min(h, s) of N[m-1][s-v]."""
    rows = [[1] + [0] * (n * h)]
    for _ in range(n):
        prev = rows[-1]
        rows.append([sum(prev[s - v] for v in range(min(h, s) + 1)) for s in range(n * h + 1)])
    return rows


def counts_of(prefix_row):
    """N[m][s] from a prefix row C[m]: differences of adjacent entries."""
    return [b - a for a, b in zip(prefix_row, prefix_row[1:])]


def reference_cdf_rows(n, h, m, s_star):
    """TdSampler's complete-shell cdf rows for m remaining coordinates,
    built one row at a time: P(coordinate <= v | sum s)."""
    full = full_table(n, h)
    tab = np.ones((s_star + 1, h + 1))
    for s in range(min(s_star, m * h) + 1):
        blocks = np.array([float(full[m - 1][s - v]) for v in range(min(h, s) + 1)])
        row = np.cumsum(blocks) / float(full[m][s])
        tab[s, :row.size] = np.minimum(row, 1.0)
        tab[s, row.size - 1] = 1.0
    return tab


def reference_first_coord_counts(n, h, l, m_s):
    """First-coordinate histogram of the m_s-point prefix, summed shell by
    shell and block by block from the full table."""
    full = full_table(n, h)
    shells = [full[n][s] for s in range(0, min(2 * l, n * h) + 1, 2)]
    k = next(i for i in range(len(shells)) if sum(shells[:i + 1]) >= m_s)
    partial = m_s - sum(shells[:k])
    marg = [sum(full[n - 1][2 * i - v] for i in range(k) if 2 * i >= v) for v in range(h + 1)]
    acc = taken = 0
    for v in range(min(h, 2 * k) + 1):
        acc += full[n - 1][2 * k - v]
        marg[v] += min(partial, acc) - taken
        taken = min(partial, acc)
    return marg


def small_cases():
    """Every (n, h, l) with n <= 8 and h <= 5."""
    return [(n, h, l) for n in range(1, 9) for h in range(6) for l in range((n * h) // 2 + 1)]


class TestCounting:
    @given(
        st.integers(1, 5),
        st.integers(0, 4),
        st.integers(0, 6),
    )
    @settings(max_examples=40)
    def test_matches_exhaustive_enumeration(self, n, h, l):
        assert TdIndexer(n, h, l).count == len(enumerate_set(n, h, l))

    def test_tables_are_the_full_tables_cut_at_smax(self):
        for n, h, l in small_cases():
            idx = TdIndexer(n, h, l)
            assert all(c[0] == 0 for c in idx._table), (n, h, l)
            assert [counts_of(c) for c in idx._table] == \
                [row[:idx.smax + 1] for row in full_table(n, h)], (n, h, l)

    @pytest.mark.parametrize(
        "n,h,smax",
        [(n, h, smax) for n in (1, 2, 3, 4, 5, 6, 24) for h in (0, 1, 3, 43, 62)
         for smax in sorted({0, 1, h, h + 1, n * h})]
        # the largest tcc alphabets at beta = 8
        + [(24, 516, 2584), (24, 354, 1772)],
    )
    def test_last_rows_are_the_table_rows(self, n, h, smax):
        assert [list(row) for row in _last_rows(n, h, smax)] == \
            [counts_of(c) for c in _composition_table(n, h, smax)[n - 1:]]

    def test_large_counts_are_exact_integers(self):
        big = TdIndexer(24, 43, 106).count
        assert isinstance(big, int)
        assert big > 2**107
        # spot parity identity: doubling H on a full box doubles per-axis
        full = TdIndexer(6, 7, 21).count
        assert full == 8**6 // 2
        # NumPy sizes are taken as Python ints: int64 arithmetic wrapped to
        # 5450365445577719537 here
        wide = TdIndexer(np.int64(24), np.int64(20), np.int64(200))
        assert wide.count == TdIndexer(24, 20, 200).count == 27054099114377025849494461502993
        assert type(wide.n) is type(wide.count) is int

    @pytest.mark.parametrize("sizes", [(True, 1, 1), (2.0, 1, 1), (2, 1.5, 1), (2, 1, "1"),
                                       (0, 1, 1), (2, -1, 1), (2, 1, -1)])
    def test_sizes_must_be_integers(self, sizes):
        # n = True ran as n = 1
        with pytest.raises(ValueError, match=r"(n|h|l) must be"):
            TdIndexer(*sizes)


class TestRankUnrank:
    def test_index_zero_is_origin(self):
        idx = TdIndexer(6, 3, 4)
        assert not idx.unrank(0).any()
        assert idx.rank(np.zeros(6, dtype=np.int64)) == 0

    def test_full_ordering_small_case(self):
        idx = TdIndexer(6, 3, 4)
        want = canonical_sort(enumerate_set(6, 3, 4))
        assert idx.count == len(want)
        got = [tuple(idx.unrank(i).tolist()) for i in range(idx.count)]
        assert got == want

    def test_round_trip_small_and_random_large(self):
        small = TdIndexer(6, 3, 4)
        for i in range(small.count):
            assert small.rank(small.unrank(i)) == i
        big = TdParams(24, 43, 106, 2**107).indexer()
        rng = np.random.default_rng(101)
        for _ in range(200):
            i = int(rng.integers(0, 2**63)) * int(rng.integers(1, 2**44))
            i %= 2**107
            assert big.rank(big.unrank(i)) == i

    def test_no_duplicates_up_to_sixteen_bits(self):
        idx = TdIndexer(8, 7, 14)
        assert idx.count >= 2**16
        seen = {tuple(idx.unrank(i).tolist()) for i in range(2**16)}
        assert len(seen) == 2**16

    def test_out_of_range_index_rejected(self):
        idx = TdIndexer(4, 2, 2)
        with pytest.raises(IndexError):
            idx.unrank(idx.count)
        with pytest.raises(IndexError):
            idx.unrank(-1)
        with pytest.raises(TypeError):
            idx.unrank(2.5)

    def test_rank_rejects_foreign_points(self):
        idx = TdIndexer(4, 2, 2)
        with pytest.raises(ValueError):
            idx.rank([1, 0, 0, 0])  # odd coordinate sum
        with pytest.raises(ValueError):
            idx.rank([3, 1, 0, 0])  # coordinate beyond H
        with pytest.raises(ValueError):
            idx.rank([2, 2, 2, 0])  # l1 norm beyond 2L
        with pytest.raises(ValueError):
            idx.rank([1, 1, 0])  # wrong length
        # each would truncate to an indexed point
        for bad in ([1.9, 1.2, 0, 0], [-0.5, 0.5, 0, 0], [np.nan, 0, 0, 0], [2.0, np.inf, 0, 0]):
            with pytest.raises(ValueError):
                idx.rank(bad)
        assert idx.rank([1.0, 1.0, 0.0, 0.0]) == idx.rank(np.array([1, 1, 0, 0]))

    def test_fresh_indexers_agree(self):
        p = TdIndexer(6, 3, 4).unrank(5)
        assert TdIndexer(6, 3, 4).rank(p) == 5

    def test_round_trips_retain_no_memory(self):
        # The walk reads the shared table and caches nothing per indexer:
        # a thousand round trips over the whole index range, after one that
        # builds the table, leave under 64 KiB behind.
        idx = build_spec("oslc", 5, 0.2).indexer
        picks = [i * (idx.count - 1) // 999 for i in range(1000)]
        assert idx.rank(idx.unrank(picks[-1])) == picks[-1]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in picks:
                assert idx.rank(idx.unrank(i)) == i
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024


class DictCacheWalk:
    """Reference rank/unrank: the per-coordinate walk over cumulative block
    rows kept in a dict keyed by (m, s), with bounds-checked reads of the
    test's own ``full_table``."""

    def __init__(self, indexer):
        self.idx = indexer
        self.table = full_table(indexer.n, indexer.h)
        self.cache = {}

    def _sub_count(self, m, s):
        if s < 0 or s > m * self.idx.h:
            return 0
        return self.table[m][s]

    def blocks(self, m, s):
        row = self.cache.get((m, s))
        if row is None:
            acc, row = 0, []
            for v in range(min(self.idx.h, s) + 1):
                acc += self._sub_count(m, s - v)
                row.append(acc)
            self.cache[(m, s)] = row
        return row

    def unrank(self, index):
        s, r = self.idx.shell_of(index)
        out = []
        for j in range(self.idx.n):
            row = self.blocks(self.idx.n - 1 - j, s)
            v = bisect_right(row, r)
            if v:
                r -= row[v - 1]
            out.append(v)
            s -= v
        return out

    def rank(self, point):
        s = sum(point)
        k = s // 2
        r = self.idx.shell_cum[k - 1] if k > 0 else 0
        for j, v in enumerate(point):
            if v:
                r += self.blocks(self.idx.n - 1 - j, s)[v - 1]
            s -= v
        return r


@pytest.mark.parametrize("beta", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["oslc", "tcc"])
def test_rank_unrank_match_dict_cache_walk(kind, beta):
    spec = build_spec(kind, beta, 0.2)
    idx, m_s = spec.indexer, spec.td.m_s
    ref = DictCacheWalk(idx)
    rng = random.Random(beta)
    first_in_boundary_shell = idx.shell_cum[idx.selection(m_s).s_star // 2 - 1]
    picks = [0, 1, 2, m_s - 2, m_s - 1, first_in_boundary_shell - 1, first_in_boundary_shell]
    picks += [rng.randrange(m_s) for _ in range(150)]
    for i in picks:
        want = ref.unrank(i)
        got = idx.unrank(i)
        assert got.dtype == np.int64 and got.tolist() == want, i
        assert idx.rank(got) == ref.rank(want) == i


class TestSelectionStats:
    def test_single_point_selection(self):
        sel = TdIndexer(6, 3, 4).selection(1)
        assert sel.sum_l1 == 0
        assert sel.mean_l1 == 0

    def test_full_box_mean(self):
        pts = enumerate_set(4, 1, 2)
        sel = TdIndexer(4, 1, 2).selection(len(pts))
        want = Fraction(sum(sum(p) for p in pts), len(pts))
        assert sel.mean_l1 == want

    @given(
        st.integers(1, 4),
        st.integers(1, 5),
        st.integers(20, 150),
    )
    @settings(max_examples=30)
    def test_matches_exhaustive_enumeration_n8(self, h, l, m_frac):
        n = 8
        pts = canonical_sort(enumerate_set(n, h, l))
        if not pts:
            return
        m_s = max(1, min(len(pts), m_frac * len(pts) // 150))
        prefix = pts[:m_s]
        sel = TdIndexer(n, h, l).selection(m_s)
        assert sel.sum_l1 == sum(sum(p) for p in prefix)
        firsts = [p[0] for p in prefix]
        want_hist = [firsts.count(v) for v in range(h + 1)]
        assert list(sel.first_coord_counts) == want_hist
        rest = [max(p[1:]) for p in prefix]
        assert sel.max_rest_coord == max(rest)
        assert sel.max_coord == max(max(p) for p in prefix)

    @pytest.mark.parametrize("n,h", [(n, h) for n in range(2, 6) for h in range(1, 4)])
    def test_closed_forms_match_exhaustive_enumeration(self, n, h):
        # Every l and every m_s: the boundary-shell counts come from one
        # cumulative-block row and max_rest_coord is min(h, s_star).  The
        # grid includes boundary shells with s_star > (n - 1) * h, whose
        # v = 0 block is empty (e.g. n = 2, h = 3, s_star = 4 or 6).
        for l in range((n * h) // 2 + 1):
            pts = canonical_sort(enumerate_set(n, h, l))
            idx = TdIndexer(n, h, l)
            for m_s in range(1, len(pts) + 1):
                prefix = pts[:m_s]
                sel = idx.selection(m_s)
                assert sel.sum_l1 == sum(sum(p) for p in prefix)
                firsts = [p[0] for p in prefix]
                assert list(sel.first_coord_counts) == [firsts.count(v) for v in range(h + 1)]
                assert sel.max_rest_coord == max(max(p[1:]) for p in prefix)
                assert sel.max_coord == max(max(p) for p in prefix)

    def test_first_coord_counts_match_reference(self):
        for n, h, l in small_cases():
            idx = TdIndexer(n, h, l)
            for m_s in sorted({1, idx.count // 3 + 1, (idx.count + 1) // 2, idx.count}):
                assert list(idx.selection(m_s).first_coord_counts) == \
                    reference_first_coord_counts(n, h, l, m_s), (n, h, l, m_s)

    def test_one_dimensional_selection_has_no_rest(self):
        sel = TdIndexer(1, 5, 2).selection(3)
        assert sel.max_rest_coord == 0
        assert sel.max_coord == 4

    def test_least_l1_selection_property(self):
        idx = TdIndexer(6, 3, 4)
        pts = canonical_sort(enumerate_set(6, 3, 4))
        for m_s in (1, 7, 64, len(pts) - 1):
            sel = idx.selection(m_s)
            chosen = pts[:m_s]
            rejected = pts[m_s:]
            assert max(sum(p) for p in chosen) <= min(sum(p) for p in rejected)
            assert sel.sum_l1 == sum(sum(p) for p in chosen)

    def test_selection_bounds_checked(self):
        idx = TdIndexer(4, 2, 2)
        with pytest.raises(ValueError):
            idx.selection(0)
        with pytest.raises(ValueError):
            idx.selection(idx.count + 1)


class TestSampler:
    def test_samples_live_in_the_selection(self):
        idx = TdIndexer(6, 3, 4)
        m_s = 200
        sampler = TdSampler(idx, m_s)
        rng = np.random.default_rng(7)
        pts = sampler.sample(rng, 5000)
        assert pts.shape == (5000, 6)
        ranks = [idx.rank(p) for p in pts[:300]]
        assert all(0 <= r < m_s for r in ranks)

    def test_matches_direct_unrank_distribution_tiny(self):
        idx = TdIndexer(3, 2, 2)
        m_s = idx.count
        sampler = TdSampler(idx, m_s)
        rng = np.random.default_rng(13)
        pts = sampler.sample(rng, 20000)
        seen = {tuple(p.tolist()) for p in pts}
        want = {tuple(idx.unrank(i).tolist()) for i in range(m_s)}
        assert seen == want

    @pytest.mark.parametrize(
        "n,h,l,m_s",
        [
            (6, 3, 4, 200),
            (8, 5, 9, 3001),
            (5, 7, 11, 4096),
            # boundary prefix = the v = 0 and v = 1 blocks of shell 4: the
            # staircase ends at depth 0
            (4, 3, 6, 33),
            # partial == 1: the boundary shell holds one point, (0, 0, 1, 3)
            (4, 3, 6, 12),
        ],
    )
    def test_binary_search_matches_linear_count(self, n, h, l, m_s):
        # The search must pick, per coordinate, the number of cdf entries at
        # or below the draw, boundary-shell rows included.
        idx = TdIndexer(n, h, l)
        sampler = TdSampler(idx, m_s)
        # The staircase follows the last selected point down to the first
        # coordinate where the first unselected point leaves it.
        last, nxt = idx.unrank(m_s - 1), idx.unrank(m_s)
        depth = int(np.argmax(last != nxt))
        assert sampler._b_alive == [True] * (depth + 1) + [False] * (n - depth)
        assert np.array_equal(sampler._b_vcut[:depth + 1], last[:depth + 1])
        count = 4000
        got = sampler.sample(np.random.default_rng(17), count)

        rng = np.random.default_rng(17)
        s = 2 * np.searchsorted(sampler._shell_cdf, rng.random(count), side="right")
        boundary = (s == sampler._s_star) & sampler._b_alive[0]
        assert boundary.any()
        for j in range(n):
            u = rng.random(count)
            rows = sampler._tables[j][np.where(boundary, sampler._s_star + 1, s)]
            assert (np.diff(rows, axis=1) >= 0).all()
            v = (rows <= u[:, None]).sum(axis=1)
            assert np.array_equal(got[:, j], v), j
            s = s - v
            if j + 1 < n:
                boundary = boundary & (v == sampler._b_vcut[j]) & sampler._b_alive[j + 1]

    def test_cdf_tables_match_row_by_row_reference(self):
        # The tables are built with one 2-D cumsum per depth; each row must
        # be bitwise what a per-row cumsum gives.  The 24-dimensional
        # alphabets of the tcc designs at beta = 2 and 3 add counts past
        # 2**53, where the float rows round.
        cases = [(n, h, l, m_s) for n, h, l in small_cases()
                 for m_s in sorted({1, (TdIndexer(n, h, l).count + 1) // 2,
                                    TdIndexer(n, h, l).count})]
        for n, h, l, m_s in cases + [(24, 5, 15, 2**48), (24, 13, 35, 2**72)]:
            sampler = TdSampler(TdIndexer(n, h, l), m_s)
            s_star = sampler._s_star
            for j, table in enumerate(sampler._tables):
                want = reference_cdf_rows(n, h, n - j, s_star)
                assert np.array_equal(table[:s_star + 1], want), (n, h, l, m_s, j)


class TestParams:
    def test_indexer_shortcut(self):
        params = TdParams(4, 3, 6, 64)
        idx = params.indexer()
        assert idx.count == 128
        assert (idx.n, idx.h, idx.l) == (4, 3, 6)

    def test_infeasible_cardinality_rejected(self):
        idx = TdIndexer(2, 1, 1)
        with pytest.raises(ValueError):
            idx.selection(3)
