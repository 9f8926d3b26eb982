"""Tests for the checkerboard, Construction A/B, and coset-union decoders."""

import numpy as np
import pytest

from oslc.codes import GOLAY, HAMMING8
from oslc.lattices import (
    XI,
    bdd_half_lattice_batch,
    closest_point_construction_a_batch,
    decode_shifted_union_batch,
    in_construction_a,
    in_dn,
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

    def test_recovery_inside_packing_radius(self):
        rng = np.random.default_rng(43)
        h = random_half_lattice_points(rng, 10**4)
        w = h + noise_inside_ball(rng, 10**4, 24, np.sqrt(2.0))
        out = bdd_half_lattice_batch(w)
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

    def test_parity_fix_zero_error_moves_first_coordinate_up(self):
        rng = np.random.default_rng(61)
        h = random_half_lattice_points(rng, 1)[0]
        u = h.copy()
        u[5] += 2
        out = bdd_half_lattice_batch(u.astype(float))[0]
        want = u.copy()
        want[0] += 2
        assert np.array_equal(out, want)


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

    def test_leech_recovery_inside_packing_radius(self):
        rng = np.random.default_rng(71)
        h = random_half_lattice_points(rng, 10**4)
        pick = rng.integers(0, 2, size=10**4)
        lam = 2 * h + pick[:, None] * XI
        y = lam + noise_inside_ball(rng, 10**4, 24, 2.0 * np.sqrt(2.0))
        pts, d2, idx = decode_shifted_union_batch(y, (np.zeros(24, dtype=np.int64), XI))
        assert np.array_equal(pts, lam)
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

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(89)
        y = rng.normal(scale=4.0, size=(100, 24))
        zero = np.zeros(24, dtype=np.int64)
        base_pts, base_d2, base_idx = decode_shifted_union_batch(y, (zero, XI), scale=2)
        c = 3
        pts, d2, idx = decode_shifted_union_batch(c * y, (zero, c * XI), scale=2 * c)
        assert np.array_equal(pts, c * base_pts)
        np.testing.assert_allclose(d2, c**2 * base_d2, rtol=1e-12)
        assert np.array_equal(idx, base_idx)

    def test_empty_coset_list_rejected(self):
        with pytest.raises(ValueError):
            decode_shifted_union_batch(np.zeros(24), ())


class TestMembershipPredicates:
    def test_translation_vector_memberships(self):
        assert in_dn(XI)
        assert in_construction_a(XI)
        assert in_half_lattice(XI)

    def test_unit_vector_not_in_checkerboard(self):
        e = np.zeros(4, dtype=np.int64)
        e[0] = 1
        assert not in_dn(e)
        assert in_dn(2 * e)

    def test_odd_integer_layer_rejected_by_half_lattice(self):
        v = 2 * np.eye(24, dtype=np.int64)[0]  # in U_24, odd integer sum
        assert in_construction_a(v)
        assert not in_half_lattice(v)
