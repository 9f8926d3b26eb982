"""Tests for constellation construction, scaling, and bit mapping."""

import hashlib
import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oslc import constellations as con
from oslc.codes import GOLAY
from oslc.lattices import bdd_half_lattice_batch, in_half_lattice
from oslc.shells import TdIndexer, TdParams


def random_words(rng, spec, count):
    return rng.integers(0, 2, size=(count, spec.bits_per_symbol))


@pytest.fixture(scope="module")
def oslc_b4():
    return con.build_oslc_spec(4, 0.2)


@pytest.fixture(scope="module")
def oslc_b2():
    return con.build_oslc_spec(2, 0.2)


@pytest.fixture(scope="module")
def tcc_b2():
    return con.build_tcc_spec(2, 0.2)


class TestTranslationRule:
    def test_low_residues_take_positive_branch(self):
        h = np.zeros(24, dtype=np.int64)
        assert np.array_equal(con.xi_tilde(h), con.XI_PLUS)

    def test_high_residues_take_negative_branch(self):
        h = np.zeros(24, dtype=np.int64)
        h[0] = 2
        assert np.array_equal(con.xi_tilde(h), con.XI_MINUS)

    def test_modular_wraparound(self):
        h = np.zeros(24, dtype=np.int64)
        h[0] = 4
        assert np.array_equal(con.xi_tilde(h), con.XI_PLUS)

    def test_trailing_ones(self):
        assert np.all(con.XI_PLUS[1:] == 1)
        assert np.all(con.XI_MINUS[1:] == 1)

    def test_rows_pick_their_own_branch(self):
        h = np.zeros((4, 24), dtype=np.int64)
        h[:, 0] = [0, 1, 2, 3]
        want = [con.XI_PLUS, con.XI_PLUS, con.XI_MINUS, con.XI_MINUS]
        assert np.array_equal(con.xi_tilde(h), want)


class TestOslcBuild:
    def test_beta4_shape(self, oslc_b4):
        s = oslc_b4
        assert s.size == 2**96
        assert (s.k_s, s.k_c, s.k_a) == (83, 12, 1)
        assert s.bits_per_symbol == 96

    def test_smallest_rate_valid(self):
        s = con.build_oslc_spec(1, 0.3)
        assert s.k_s == 11
        assert s.size == 2**24

    def test_constraints_hold_exactly(self, oslc_b4):
        s = oslc_b4
        kappa = s.kappa
        assert kappa * s.peak_unscaled <= 1
        assert kappa * s.avg_l1_unscaled / 24 <= Fraction(1, 5)

    @pytest.mark.parametrize("beta", [2, 5])
    def test_average_constraint_binds_at_alpha_02(self, beta):
        s = con.build_oslc_spec(beta, 0.2)
        assert s.kappa * s.avg_l1_unscaled / 24 == Fraction(1, 5)
        assert s.kappa * s.peak_unscaled < 1

    def test_beta4_is_peak_limited_at_alpha_02(self, oslc_b4):
        # the box-height scan lands on a peak-tight optimum here
        assert oslc_b4.kappa * oslc_b4.peak_unscaled == 1
        assert oslc_b4.kappa * oslc_b4.avg_l1_unscaled / 24 < Fraction(1, 5)

    @pytest.mark.parametrize(
        "beta,alpha,h_star,kappa_approx",
        [
            (5, 0.2, 43, 5.687508e-3),
            (4, 0.2, 21, 1.149425e-2),
            (2, 0.2, 3, 4.702413e-2),
            (5, 0.3, 29, 8.241217e-3),
        ],
    )
    def test_frozen_design_points(self, beta, alpha, h_star, kappa_approx):
        s = con.build_oslc_spec(beta, alpha)
        assert s.td.h == h_star
        assert s.kappa == pytest.approx(kappa_approx, rel=1e-5)

    def test_beta5_peak_value(self):
        s = con.build_oslc_spec(5, 0.2)
        assert s.peak_unscaled == 175
        assert s.td.l == 106

    def test_peak_binds_in_degenerate_regime(self):
        s = con.build_oslc_spec(2, 0.49)
        kappa = s.kappa
        assert kappa * s.peak_unscaled == 1
        assert (s.td.n, s.td.h, s.td.l) == (24, 2, 11)

    def test_min_distance_and_kissing(self, oslc_b4):
        assert oslc_b4.d_min_unscaled == pytest.approx(con.LEECH_MIN_DIST)
        assert oslc_b4.kissing == 196560


class TestTccBuild:
    def test_unscaled_min_distance(self, tcc_b2):
        assert tcc_b2.d_min_unscaled == pytest.approx(math.sqrt(2.0))
        assert tcc_b2.kissing == 1104

    def test_frozen_design_points(self):
        s = con.build_tcc_spec(5, 0.2)
        assert s.td.h == 62
        assert s.td.l == 156
        assert s.kappa == pytest.approx(1.602580e-2, rel=1e-5)
        s = con.build_tcc_spec(4, 0.2)
        assert s.td.h == 30
        assert s.kappa == Fraction(1, 30)
        s = con.build_tcc_spec(2, 0.2)
        assert s.td.h == 5
        assert s.kappa == pytest.approx(1.694332e-1, rel=1e-5)
        s = con.build_tcc_spec(5, 0.3)
        assert s.td.h == 43
        assert s.kappa == pytest.approx(2.324717e-2, rel=1e-5)

    def test_all_bits_go_through_shaping(self, tcc_b2):
        assert (tcc_b2.k_s, tcc_b2.k_c, tcc_b2.k_a) == (48, 0, 0)

    def test_zero_index_maps_to_origin(self, tcc_b2):
        lam = con.map_bits(tcc_b2, np.zeros(48, dtype=np.int64))
        assert not lam.any()

    def test_constraints_hold_exactly(self, tcc_b2):
        kappa = tcc_b2.kappa
        assert kappa * tcc_b2.peak_unscaled <= 1
        assert kappa * tcc_b2.avg_l1_unscaled / 24 <= Fraction(1, 5)

    def test_peak_binds_in_degenerate_regime(self):
        s = con.build_tcc_spec(2, 0.49)
        kappa = s.kappa
        assert kappa * s.peak_unscaled == 1
        assert (s.td.n, s.td.h, s.td.l) == (24, 4, 16)


class TestCubicBuild:
    def test_delta_beta2(self):
        s = con.build_cubic_spec(2, 0.2)
        assert s.kappa == Fraction(2, 15)  # 0.4 / 3

    def test_delta_beta1_large_alpha(self):
        s = con.build_cubic_spec(1, 0.45)
        assert s.kappa == Fraction(9, 10)

    @pytest.mark.parametrize("beta,alpha", [(1, 0.45), (2, 0.2), (3, 0.3), (5, 0.49)])
    def test_mean_is_clamped_alpha(self, beta, alpha):
        s = con.build_cubic_spec(beta, alpha)
        mean = s.kappa * s.avg_l1_unscaled / 24
        assert mean == min(Fraction(1, 2), con._as_fraction(alpha))

    def test_min_distance_is_step(self):
        s = con.build_cubic_spec(2, 0.2)
        assert s.d_min_unscaled == 1.0
        assert s.scaled_min_distance == pytest.approx(0.4 / 3)
        assert s.kissing is None


class TestMapping:
    def test_all_zero_word_is_origin(self, oslc_b4):
        lam = con.map_bits(oslc_b4, np.zeros(96, dtype=np.int64))
        assert not lam.any()

    def test_coset_bit_alone_gives_positive_translation(self, oslc_b4):
        bits = np.zeros(96, dtype=np.int64)
        bits[-1] = 1  # trailing block is the single coset bit
        lam = con.map_bits(oslc_b4, bits)
        assert np.array_equal(lam, con.XI_PLUS)

    def test_structure_decomposition(self, oslc_b4):
        rng = np.random.default_rng(3)
        for word in random_words(rng, oslc_b4, 40):
            lam = con.map_bits(oslc_b4, word)
            b_a = int(word[-1])
            if b_a:
                h2 = lam - con.xi_tilde((lam - con.XI_PLUS) // 2)
                # subtracting either branch must leave an even vector whose
                # half is in the half-lattice; verify via the actual inverse
                back = con.demap_point(oslc_b4, lam)
                assert np.array_equal(back, word)
            else:
                assert in_half_lattice(lam // 2)

    def test_nonnegative_orthant(self, oslc_b4):
        rng = np.random.default_rng(5)
        words = random_words(rng, oslc_b4, 10**5)
        lo = 0
        for word in words[:2000]:
            lam = con.map_bits(oslc_b4, word)
            lo = min(lo, int(lam.min()))
        assert lo == 0

    def test_injectivity_sampled(self, oslc_b4):
        rng = np.random.default_rng(7)
        seen = set()
        for word in random_words(rng, oslc_b4, 2**14):
            lam = con.map_bits(oslc_b4, word)
            seen.add(lam.tobytes())
        # duplicate words are astronomically unlikely at 96 bits
        assert len(seen) == 2**14

    def test_wrong_length_rejected(self, oslc_b4):
        with pytest.raises(ValueError):
            con.map_bits(oslc_b4, np.zeros(95, dtype=np.int64))

    @pytest.mark.parametrize("bad", [0.7, 2, -1, np.nan, np.inf])
    def test_non_bit_values_rejected(self, tcc_b2, bad):
        # a float bit must not be truncated to 0 or 1 on its way in
        bits = np.zeros(tcc_b2.bits_per_symbol)
        bits[5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="bits must be 0 or 1"):
                con.map_bits(tcc_b2, bits)

    @pytest.mark.parametrize("kind", con.SCHEMES)
    def test_bit_dtypes_map_alike(self, kind):
        spec = con.build_spec(kind, 2, 0.2)
        word = np.random.default_rng(29).integers(0, 2, spec.bits_per_symbol)
        want = con.map_bits(spec, word)
        assert want.dtype == np.int64
        for same in (word.astype(bool), word.astype(np.float64), word.astype(np.uint8),
                     word.tolist(), word.reshape(spec.n, spec.beta)):
            assert np.array_equal(con.map_bits(spec, same), want)


def bits_to_int_loop(bits):
    """Reference big-endian conversion, one bit at a time."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def int_to_bits_loop(value, width):
    """Reference inverse of ``bits_to_int_loop``."""
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


@given(st.lists(st.integers(0, 1), min_size=1, max_size=192))
@example([0])
@example([1])
@example([0] * 191 + [1])
@example([1] + [0] * 191)
@example([1] * 192)
@example([0] * 192)
def test_bit_conversions_match_per_bit_loops(bits):
    width = len(bits)
    value = bits_to_int_loop(bits)
    assert con._bits_to_int(np.array(bits, dtype=np.uint8)) == value
    back = con._int_to_bits(value, width)
    assert back.dtype == np.int64
    assert back.tolist() == int_to_bits_loop(value, width) == bits


# SHA-256 of map_bits over the words of ``_golden_words``, for every scheme
# at beta 2 and 5 (alpha 0.2): it pins every coordinate of those points.
MAP_DIGEST = "c9aee981e4b0192015419140db925e5219fdc9a54a7ae54e6860be447367fa07"


def _golden_words(width):
    rows = np.random.default_rng(7).integers(0, 2, size=(30, width))
    return [np.zeros(width, dtype=np.int64), np.ones(width, dtype=np.int64), *rows]


def test_mapped_points_match_golden_digest():
    digest = hashlib.sha256()
    for kind in con.SCHEMES:
        for beta in (2, 5):
            spec = con.build_spec(kind, beta, 0.2)
            for word in _golden_words(spec.bits_per_symbol):
                point = con.map_bits(spec, word)
                assert np.array_equal(con.demap_point(spec, point), word)
                digest.update(point.astype(np.int64).tobytes())
    assert digest.hexdigest() == MAP_DIGEST


class TestDemapping:
    def test_round_trip_large_sample(self, oslc_b4):
        rng = np.random.default_rng(11)
        words = random_words(rng, oslc_b4, 10**5)
        # full mapping is ~40 us/word; round-trip the first 4000 words and
        # spot-check random rows from the rest
        idx = list(range(4000)) + rng.integers(4000, 10**5, size=500).tolist()
        for i in idx:
            lam = con.map_bits(oslc_b4, words[i])
            assert np.array_equal(con.demap_point(oslc_b4, lam), words[i])

    def test_positive_translation_point(self, oslc_b4):
        word = con.demap_point(oslc_b4, con.XI_PLUS)
        assert word[-1] == 1
        assert not word[:-1].any()

    def test_exhaustive_round_trip_small_tcc(self):
        spec = con.build_tcc_spec(1, 0.3)  # 2^24 words is too many; use k_s
        # exhaustive over the lowest 2^12 indices plus the top index
        idx = spec.indexer
        for i in list(range(2**12)) + [spec.size - 1]:
            bits = np.array(con._int_to_bits(i, 24), dtype=np.int64)
            lam = con.map_bits(spec, bits)
            assert np.array_equal(con.demap_point(spec, lam), bits)

    def test_out_of_range_shaping_index_rejected(self, oslc_b2):
        # a valid Leech point whose shaping part exceeds the selected prefix
        big = con.build_oslc_spec(3, 0.2)
        bits = np.zeros(big.bits_per_symbol, dtype=np.int64)
        bits[: big.k_s] = 1
        lam = con.map_bits(big, bits)
        with pytest.raises(con.DemapError):
            con.demap_point(oslc_b2, lam)

    def test_odd_sum_point_rejected(self, tcc_b2):
        bad = np.zeros(24, dtype=np.int64)
        bad[0] = 1
        with pytest.raises(con.DemapError):
            con.demap_point(tcc_b2, bad)

    def test_non_integer_point_rejected(self, oslc_b4):
        with pytest.raises(con.DemapError):
            con.demap_point(oslc_b4, np.full(24, 0.5))

    @pytest.mark.parametrize("kind", con.SCHEMES)
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 2.0**63, -(2.0**63), 1e300])
    def test_non_finite_or_huge_coordinate_rejected_before_the_cast(self, kind, value):
        spec = con.build_spec(kind, 2, 0.2)
        point = np.zeros(24)
        point[3] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(con.DemapError):
                con.demap_point(spec, point)

    def test_float_point_demaps_like_its_integer_twin(self, oslc_b4):
        word = random_words(np.random.default_rng(31), oslc_b4, 1)[0]
        lam = con.map_bits(oslc_b4, word)
        assert np.array_equal(con.demap_point(oslc_b4, lam.astype(np.float64)), word)

    def test_wrong_shape_rejected(self, oslc_b4):
        # dimension mismatch is a caller bug, not a channel outcome, so it
        # surfaces as a plain ValueError rather than the DemapError subclass
        with pytest.raises(ValueError):
            con.demap_point(oslc_b4, np.zeros(23, dtype=np.int64))


class TestMinimumDistance:
    def test_leech_med_by_sampling_and_midpoints(self, oslc_b2):
        rng = np.random.default_rng(13)
        words = random_words(rng, oslc_b2, 2000)
        pts = np.array([con.map_bits(oslc_b2, w) for w in words])
        uniq = np.unique(pts, axis=0)
        d_min_sq = None
        # decoder-based check: perturb each point halfway toward a kissing
        # direction; the decoder must not find anything closer than d_min
        sub = uniq[:256]
        diffs = sub[None, :, :] - sub[:, None, :]
        d2 = (diffs**2).sum(axis=2).astype(float)
        np.fill_diagonal(d2, np.inf)
        d_min_sq = d2.min()
        assert d_min_sq >= 32.0 - 1e-9
        assert math.isclose(con.LEECH_MIN_DIST, math.sqrt(32.0))

    def test_full_pairwise_on_sampled_subset_is_at_least_med(self, oslc_b4):
        rng = np.random.default_rng(17)
        words = random_words(rng, oslc_b4, 2**14)
        pts = np.array([con.map_bits(oslc_b4, w) for w in words], dtype=np.float64)
        # chunked pairwise min distance over the 2^14 subset
        best = np.inf
        chunk = 1024
        norms = (pts**2).sum(axis=1)
        for lo in range(0, pts.shape[0], chunk):
            hi = min(lo + chunk, pts.shape[0])
            cross = pts[lo:hi] @ pts.T
            d2 = norms[lo:hi, None] + norms[None, :] - 2.0 * cross
            rows = np.arange(lo, hi)
            d2[np.arange(hi - lo), rows] = np.inf
            m = d2.min()
            if m < best:
                best = m
        assert best >= 32.0 - 1e-6


class TestCodeUniformity:
    def test_average_l1_matches_closed_form(self, oslc_b2):
        rng = np.random.default_rng(19)
        count = 10**5
        words = random_words(rng, oslc_b2, count)
        total = 0
        sq_total = 0
        for w in words[:20000]:
            s = int(con.map_bits(oslc_b2, w).sum())
            total += s
            sq_total += s * s
        m = 20000
        mean = total / m
        var = sq_total / m - mean**2
        sigma = math.sqrt(var / m)
        want = float(oslc_b2.avg_l1_unscaled)
        assert abs(mean - want) < 3 * sigma


@pytest.mark.parametrize("kind", con.SCHEMES)
def test_simulator_draws_are_codebook_points(kind):
    spec = con.build_spec(kind, 2, 0.2)
    points = spec.draw(np.random.default_rng(23), 512)
    assert points.shape == (512, spec.n)
    for p in points:
        assert np.array_equal(con.map_bits(spec, con.demap_point(spec, p)), p)
    assert np.array_equal(spec.decode(points.astype(np.float64)), points)


class TestDispatchAndExport:
    def test_build_spec_dispatch(self):
        assert con.build_spec("oslc", 2, 0.2).kind == "oslc"
        assert con.build_spec("tcc", 2, 0.2).kind == "tcc"
        assert con.build_spec("cubic", 2, 0.2).kind == "cubic"
        with pytest.raises(ValueError):
            con.build_spec("qam", 2, 0.2)

    def test_json_export_is_serializable(self, oslc_b4):
        blob = json.dumps(con.spec_to_json(oslc_b4))
        doc = json.loads(blob)
        assert doc["kind"] == "oslc"
        assert doc["beta"] == 4
        assert Fraction(doc["kappa"]) == oslc_b4.kappa
        assert doc["kappa_float"] == pytest.approx(float(oslc_b4.kappa))
        assert doc["shaping_box"]["h"] == oslc_b4.td.h

    def test_alpha_domain_enforced(self):
        with pytest.raises(ValueError):
            con.build_oslc_spec(2, 0.5)
        with pytest.raises(ValueError):
            con.build_oslc_spec(2, -0.1)

    @pytest.mark.parametrize("beta", [0, -1, 9, 2.0, True, "3"])
    @pytest.mark.parametrize("kind", con.SCHEMES)
    def test_beta_domain_enforced(self, kind, beta):
        # beta = 0 would divide by zero in kappa, and beta >= 10 keeps the
        # height scan busy for minutes.
        with pytest.raises(ValueError, match="beta must be an integer in 1..8"):
            con.build_spec(kind, beta, 0.2)


def reference_determine_params(n, m_s, alpha, stats):
    """The height scan on full-width indexers from H = 1: every height's
    alphabet is found in the whole box TD(n, H, n*H)."""
    alpha = con._as_fraction(alpha)
    best = crossing = None
    h = 1
    while True:
        full = TdIndexer(n, h, (n * h) // 2)
        if full.count >= m_s:
            sel = full.selection(m_s)
            peak, avg = stats(sel)
            bound = avg / (n * alpha)
            kappa = 1 / max(Fraction(peak), bound)
            if best is None or kappa > best.kappa:
                best = con.AlphabetChoice(TdParams(n, h, sel.s_star // 2, m_s), kappa, peak, avg)
            if crossing is None and (peak >= bound or h >= sel.s_star):
                crossing = h
            if crossing is not None and h >= crossing + 6:
                return best
        h += 1


def _tcc_stats(sel):
    return sel.max_coord, sel.mean_l1


_GOLAY_LAYER_MEAN = Fraction(
    2 * sum(w * c for w, c in GOLAY.weight_enumerator().items()), 1 << GOLAY.k
)


def _oslc_stats(sel):
    return con._oslc_stats(sel, avg_code=_GOLAY_LAYER_MEAN)


class TestHeightScan:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_even_sum_count_closed_form(self, n):
        for h in range(7):
            assert con._even_sum_count(n, h) == TdIndexer(n, h, (n * h) // 2).count

    @pytest.mark.parametrize("stats", ["tcc", "oslc"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 24])
    def test_matches_full_width_scan(self, n, stats):
        # The fast scan skips heights by their closed-form count and caps
        # each later indexer at the previous boundary shell; it must pick
        # the same alphabet as the full-width scan.
        fn = _tcc_stats if stats == "tcc" else _oslc_stats
        sizes = sorted({2, 3, 2**n - 1, 2**n + 1, 3**n, 2 ** (2 * n) + 5, 2 ** min(5 * n, 120)})
        for m_s in sizes:
            for alpha in (Fraction(1, 20), Fraction(1, 5), Fraction(3, 10), Fraction(9, 20)):
                assert con.determine_params(n, m_s, alpha, fn) == \
                    reference_determine_params(n, m_s, alpha, fn), (m_s, alpha)
