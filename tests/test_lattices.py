"""Tests for the checkerboard, Construction A/B, and coset-union decoders."""

import numpy as np
import pytest

from oslc.codes import GOLAY, HAMMING8, BinaryBlockCode
from oslc.lattices import (
    XI,
    bdd_half_lattice_batch,
    closest_point_construction_a_batch,
    decode_shifted_union_batch,
    in_construction_a,
    in_half_lattice,
    nearest_point_dn_batch,
)


def random_dn_points(rng, count, n):
    z = rng.integers(-8, 9, size=(count, n))
    odd = z.sum(axis=1) % 2 == 1
    z[odd, 0] += 1
    return z


def random_half_lattice_points(rng, count, code=GOLAY):
    d = random_dn_points(rng, count, code.n)
    c = code.codebook[rng.integers(0, 2**code.k, size=count)]
    return 2 * d + c


def noise_inside_ball(rng, count, n, radius):
    x = rng.normal(size=(count, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r = radius * 0.999 * rng.random(count) ** (1.0 / n)
    return x * r[:, None]


class TestCheckerboard:
    def test_two_dim_tie_is_resolved_deterministically(self):
        y = np.array([0.1, 0.9])
        first = nearest_point_dn_batch(y)[0]
        assert int(first.sum()) % 2 == 0
        # both even-sum corners of the unit box sit at squared distance 0.82
        box = [(0, 0), (0, 1), (1, 0), (1, 1)]
        best = min(
            ((y - np.array(p)) ** 2).sum() for p in box if sum(p) % 2 == 0
        )
        assert ((y - first) ** 2).sum() == pytest.approx(best, abs=1e-15)
        assert best == pytest.approx(0.82, abs=1e-15)
        for _ in range(3):
            assert np.array_equal(nearest_point_dn_batch(y)[0], first)

    def test_lattice_point_is_fixed(self):
        rng = np.random.default_rng(5)
        pts = random_dn_points(rng, 200, 6)
        out = nearest_point_dn_batch(pts.astype(float))
        assert np.array_equal(out, pts)

    def test_against_windowed_exhaustive_n6(self):
        rng = np.random.default_rng(17)
        n, total, chunk = 6, 10**4, 250
        # all integer offsets in {-1, 0, 1, 2}^6 around the floor corner
        grids = np.meshgrid(*[np.arange(-1, 3)] * n, indexing="ij")
        offsets = np.stack([g.ravel() for g in grids], axis=1)  # (4096, 6)
        even = offsets.sum(axis=1) % 2  # parity template, shifted per point
        for _ in range(total // chunk):
            y = rng.random((chunk, n)) * 4.0
            base = np.floor(y).astype(np.int64)
            cand = base[:, None, :] + offsets[None, :, :]
            d2 = ((cand - y[:, None, :]) ** 2).sum(axis=2)
            parity = (base.sum(axis=1)[:, None] + even[None, :]) % 2
            d2[parity == 1] = np.inf
            want = d2.min(axis=1)
            got = nearest_point_dn_batch(y)
            got_d2 = ((got - y) ** 2).sum(axis=1)
            assert np.all(got.sum(axis=1) % 2 == 0)
            np.testing.assert_allclose(got_d2, want, atol=1e-12)

    def test_rejects_scalar_input(self):
        with pytest.raises(ValueError):
            nearest_point_dn_batch(np.array([1.5]))


class TestConstructionA:
    def test_lattice_point_is_fixed(self):
        rng = np.random.default_rng(23)
        u = 2 * rng.integers(-5, 6, size=(100, 24)) + GOLAY.codebook[
            rng.integers(0, 4096, size=100)
        ]
        out, _ = closest_point_construction_a_batch(u.astype(float))
        assert np.array_equal(out, u)

    def test_recovery_inside_packing_radius(self):
        # min distance of 2Z^24 + Golay is min(2, sqrt(8)) = 2
        rng = np.random.default_rng(29)
        u = 2 * rng.integers(-5, 6, size=(2000, 24)) + GOLAY.codebook[
            rng.integers(0, 4096, size=2000)
        ]
        w = u + noise_inside_ball(rng, 2000, 24, 1.0)
        out, _ = closest_point_construction_a_batch(w)
        assert np.array_equal(out, u)

    def test_against_per_coset_oracle_small_code(self):
        rng = np.random.default_rng(31)
        w = rng.random((1000, 8)) * 8.0
        got, _ = closest_point_construction_a_batch(w, HAMMING8)
        got_d2 = ((got - w) ** 2).sum(axis=1)
        # oracle: for each of the 16 codewords, snap each coordinate to the
        # nearest integer of matching parity and keep the best coset
        best = np.full(w.shape[0], np.inf)
        for c in HAMMING8.codebook:
            snap = c + 2.0 * np.round((w - c) / 2.0)
            best = np.minimum(best, ((snap - w) ** 2).sum(axis=1))
        np.testing.assert_allclose(got_d2, best, atol=1e-10)
        assert all(in_construction_a(v, HAMMING8) for v in got[:50])

    def test_against_per_coset_scan_full_golay(self):
        rng = np.random.default_rng(37)
        w = rng.random((1000, 24)) * 8.0
        got, _ = closest_point_construction_a_batch(w)
        got_d2 = ((got - w) ** 2).sum(axis=1)
        even = 2.0 * np.round(w / 2.0)
        odd = 2.0 * np.round((w - 1.0) / 2.0) + 1.0
        cost0 = (w - even) ** 2
        cost1 = (w - odd) ** 2
        bits = GOLAY.codebook.astype(float)
        metric = cost0 @ (1.0 - bits).T + cost1 @ bits.T
        np.testing.assert_allclose(got_d2, metric.min(axis=1), atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            closest_point_construction_a_batch(np.zeros(23))


class TestHalfLattice:
    def test_lattice_point_is_fixed_modulo_tie_rule(self):
        rng = np.random.default_rng(41)
        h = random_half_lattice_points(rng, 500)
        out = bdd_half_lattice_batch(h.astype(float))
        assert np.array_equal(out, h)

    def test_outputs_satisfy_membership(self):
        rng = np.random.default_rng(47)
        w = rng.normal(scale=3.0, size=(300, 24))
        out = bdd_half_lattice_batch(w)
        for v in out:
            assert in_half_lattice(v)

    def test_construction_b_decomposition(self):
        # every output is 4 m + 2 b + c with b an even-weight 0/1 word and
        # c a codeword
        rng = np.random.default_rng(53)
        w = rng.normal(scale=3.0, size=(200, 24))
        for v in bdd_half_lattice_batch(w):
            c = v % 2
            assert GOLAY.is_codeword(c)
            b = ((v - c) // 2) % 2
            assert int(b.sum()) % 2 == 0
            m = (v - c - 2 * b) // 4
            assert np.array_equal(4 * m + 2 * b + c, v)

    def test_parity_fix_tie_takes_smallest_index(self):
        rng = np.random.default_rng(59)
        h = random_half_lattice_points(rng, 1)[0]
        u = h.copy()
        u[5] += 2  # now in U_24 but with odd integer-layer sum
        bump = np.zeros(24)
        bump[2] = 0.3
        bump[7] = 0.3
        out = bdd_half_lattice_batch(u + bump)[0]
        want = u.copy()
        want[2] += 2
        assert np.array_equal(out, want)
        out = bdd_half_lattice_batch(u - bump)[0]
        want = u.copy()
        want[2] -= 2
        assert np.array_equal(out, want)

    def test_parity_counts_the_code_layer_weight(self):
        # Golay and extended Hamming words have weight 0 mod 4, so their
        # weight never moves the parity of the integer layer; an even-weight
        # code's words of weight 2 do.
        even6 = BinaryBlockCode(np.hstack([np.eye(5), np.ones((5, 1))]), d_min=2)
        rng = np.random.default_rng(43)
        w = rng.normal(scale=3.0, size=(300, 6))
        for v in bdd_half_lattice_batch(w, even6):
            assert in_half_lattice(v, even6)
        h = random_half_lattice_points(rng, 300, even6)
        assert np.array_equal(bdd_half_lattice_batch(h.astype(float), even6), h)

    def test_parity_fix_zero_error_moves_first_coordinate_up(self):
        rng = np.random.default_rng(61)
        h = random_half_lattice_points(rng, 1)[0]
        u = h.copy()
        u[5] += 2
        out = bdd_half_lattice_batch(u.astype(float))[0]
        want = u.copy()
        want[0] += 2
        assert np.array_equal(out, want)


def union_by_coset(y, cosets, code=GOLAY):
    """Reference coset-union decode: one half-lattice decode per coset,
    merged into a running minimum in which a later coset must be strictly
    closer to win."""
    best = None
    for ai, a in enumerate(cosets):
        cand = 2 * bdd_half_lattice_batch((y - a) / 2, code) + np.asarray(a, dtype=np.int64)
        d = ((cand - y) ** 2).sum(axis=1)
        if best is None:
            best = [cand, d, np.zeros(len(d), dtype=np.int64)]
            continue
        better = d < best[1]
        best = [np.where(better[:, None], cand, best[0]), np.where(better, d, best[1]),
                np.where(better, ai, best[2])]
    return best


def assert_matches_by_coset(y, cosets, code=GOLAY):
    got = decode_shifted_union_batch(y, cosets, code)
    for field, want in zip(got, union_by_coset(y, cosets, code)):
        assert field.dtype == want.dtype
        assert np.array_equal(field, want)
    return got


class TestShiftedUnion:
    def test_exact_point_distance_zero(self):
        rng = np.random.default_rng(67)
        h = random_half_lattice_points(rng, 100)
        pick = rng.integers(0, 2, size=100)
        lam = 2 * h + pick[:, None] * XI
        pts, d2, idx = decode_shifted_union_batch(lam.astype(float), (np.zeros(24, dtype=np.int64), XI))
        assert np.array_equal(pts, lam)
        assert np.all(d2 == 0.0)
        assert np.array_equal(idx, pick)

    def test_single_coset_reduces_to_half_lattice(self):
        rng = np.random.default_rng(73)
        y = rng.normal(scale=4.0, size=(50, 24))
        pts, _, idx = decode_shifted_union_batch(y, (np.zeros(24, dtype=np.int64),))
        direct = 2 * bdd_half_lattice_batch(y / 2.0)
        assert np.array_equal(pts, direct)
        assert np.all(idx == 0)

    def test_reported_distance_matches_recomputation(self):
        rng = np.random.default_rng(79)
        y = rng.normal(scale=5.0, size=(200, 24))
        pts, d2, _ = decode_shifted_union_batch(y, (np.zeros(24, dtype=np.int64), XI))
        np.testing.assert_allclose(d2, ((pts - y) ** 2).sum(axis=1), rtol=1e-12)

    def test_earlier_coset_wins_exact_ties(self):
        rng = np.random.default_rng(83)
        y = rng.normal(scale=4.0, size=(50, 24))
        zero = np.zeros(24, dtype=np.int64)
        _, _, idx = decode_shifted_union_batch(y, (zero, zero))
        assert np.all(idx == 0)

    def test_single_vector_fields(self):
        pts, d2, idx = decode_shifted_union_batch(
            XI.astype(float), (np.zeros(24, dtype=np.int64), XI)
        )
        assert (pts.shape, d2.shape, idx.shape) == ((1, 24), (1,), (1,))
        assert d2[0] == 0.0
        assert idx[0] == 1
        assert np.array_equal(pts[0], XI)

    def test_empty_coset_list_rejected(self):
        with pytest.raises(ValueError, match="at least one coset"):
            decode_shifted_union_batch(np.zeros(24), ())

    def test_three_cosets_with_a_duplicate_keep_the_first_listed(self):
        rng = np.random.default_rng(89)
        zero = np.zeros(24, dtype=np.int64)
        cosets = (zero, XI, XI)
        lam = 2 * random_half_lattice_points(rng, 300) + rng.integers(0, 2, size=(300, 1)) * XI
        y = lam + rng.normal(scale=0.8, size=lam.shape)
        _, _, idx = assert_matches_by_coset(y, cosets)
        assert set(idx.tolist()) == {0, 1}

    def test_tie_heavy_half_integer_inputs(self):
        # Half-integer rows sit on many decision boundaries at once, so the
        # two cosets often tie exactly.
        rng = np.random.default_rng(97)
        y = rng.integers(-8, 9, size=(2000, 24)) / 2.0
        zero = np.zeros(24, dtype=np.int64)
        _, _, idx = assert_matches_by_coset(y, (zero, XI))
        _, _, idx_swapped = assert_matches_by_coset(y, (XI, zero))
        tied = decode_shifted_union_batch(y, (zero,))[1] == decode_shifted_union_batch(y, (XI,))[1]
        assert 100 < tied.sum() < len(y)
        assert np.all(idx[tied] == 0) and np.all(idx_swapped[tied] == 0)
        assert np.array_equal(idx[~tied], 1 - idx_swapped[~tied])

    def test_small_code_at_n8(self):
        rng = np.random.default_rng(101)
        y = rng.normal(scale=3.0, size=(500, 8))
        cosets = np.array([[0] * 8, [-3] + [1] * 7, [1] * 8])
        pts, _, idx = assert_matches_by_coset(y, cosets, HAMMING8)
        assert pts.shape == (500, 8)
        assert set(idx.tolist()) == {0, 1, 2}

    def test_one_code_decode_for_all_cosets(self, monkeypatch):
        calls = []
        decode = BinaryBlockCode.soft_ml_decode_batch

        def spy(code, cost0, cost1):
            calls.append(cost0.shape[0])
            return decode(code, cost0, cost1)

        monkeypatch.setattr(BinaryBlockCode, "soft_ml_decode_batch", spy)
        y = np.random.default_rng(103).normal(scale=4.0, size=(37, 24))
        zero = np.zeros(24, dtype=np.int64)
        decode_shifted_union_batch(y, (zero, XI, XI))
        assert calls == [3 * 37]


class TestMembershipPredicates:
    def test_translation_vector_memberships(self):
        assert in_construction_a(XI)
        assert in_half_lattice(XI)

    def test_odd_integer_layer_rejected_by_half_lattice(self):
        v = 2 * np.eye(24, dtype=np.int64)[0]  # in U_24, odd integer sum
        assert in_construction_a(v)
        assert not in_half_lattice(v)

    @pytest.mark.parametrize("pred", [in_construction_a, in_half_lattice])
    @pytest.mark.parametrize("value", [0.5, np.nan, np.inf])
    def test_non_integral_vector_is_no_member(self, pred, value):
        # an int64 cast would read 0.5 as 0, the origin of every lattice
        v = np.zeros(24)
        assert pred(v)
        v[:] = value
        assert not pred(v)
        v = 2.0 * XI
        v[5] += 0.5
        assert not pred(v)
