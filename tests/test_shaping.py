"""Tests for the shaping-geometry solvers and tail approximations."""

import hashlib
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oslc import shaping
from rational_volume import exact_volume

DB = 10.0 / math.log(10.0)


class TestVolume:
    def test_known_points(self):
        assert shaping.volume(2, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert shaping.volume(3, 3.0) == 1.0
        assert shaping.volume(4, 0.0) == 0.0

    @given(st.integers(1, 30), st.floats(0.01, 0.99))
    def test_reflection_symmetry(self, n, frac):
        t = frac * n
        assert shaping.volume(n, t) + shaping.volume(n, n - t) == pytest.approx(
            1.0, abs=1e-11
        )

    @given(st.integers(1, 25), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_monotone_in_t(self, n, a, b):
        lo, hi = sorted((a * n, b * n))
        assert shaping.volume(n, lo) <= shaping.volume(n, hi) + 1e-14

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_against_rational_oracle(self, n):
        for num in range(1, 4 * n, 3):
            t = Fraction(num, 4)
            if t >= n:
                break
            want = float(exact_volume(n, t))
            assert shaping.volume(n, float(t)) == pytest.approx(want, rel=1e-12)

    def test_exact_path_agrees_with_float_path(self):
        # n = 41 takes the rational branch; estimate the same value from the
        # float branch at n = 40 scaled comparison is meaningless, so instead
        # compare the rational branch against mpmath at high precision.
        n, t = 44, 20.25
        with mpmath.workdps(60):
            total = mpmath.mpf(0)
            for k in range(int(t) + 1):
                total += (-1) ** k * mpmath.binomial(n, k) * mpmath.mpf(t - k) ** n
            want = float(total / mpmath.factorial(n))
        assert shaping.volume(n, t) == pytest.approx(want, rel=1e-12)


class TestFirstMoment:
    def test_endpoint_is_half(self):
        for n in (2, 5, 24):
            assert shaping.avg_first_moment(n, float(n)) == pytest.approx(0.5, abs=1e-12)

    @given(st.integers(2, 24), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_strictly_increasing(self, n, a, b):
        lo, hi = sorted((a * n, b * n))
        if hi - lo < 1e-6:
            return
        assert shaping.avg_first_moment(n, lo) < shaping.avg_first_moment(n, hi)


class TestSolveTStar:
    def test_closed_form_branch(self):
        sol = shaping.solve_t_star(3, 0.2)
        assert sol.t_star == pytest.approx(0.8, abs=1e-14)

    def test_one_dimension_baseline(self):
        sol = shaping.solve_t_star(1, 0.3)
        assert sol.t_star == pytest.approx(0.6, abs=1e-14)
        assert sol.sg_db == pytest.approx(0.0, abs=1e-12)

    def test_bisection_self_consistency(self):
        sol = shaping.solve_t_star(24, 0.3)
        assert shaping.avg_first_moment(24, sol.t_star) == pytest.approx(
            0.3, abs=1e-10
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            shaping.solve_t_star(8, 0.0)
        with pytest.raises(ValueError):
            shaping.solve_t_star(8, 0.5)
        with pytest.raises(ValueError):
            shaping.solve_t_star(0, 0.2)

    def test_gain_nondecreasing_in_dimension(self):
        for alpha in (0.2, 0.3):
            gains = [shaping.solve_t_star(n, alpha).sg_db for n in range(1, 33)]
            assert all(b >= a - 1e-10 for a, b in zip(gains, gains[1:]))

    def test_table_matches_golden_digest(self):
        # SHA-256 of repr(solve_t_star(n, alpha)), n = 2..32, alpha 0.2 and
        # 0.3: every field of every row that `oslc shaping` prints by default.
        digest = hashlib.sha256()
        for n in range(2, 33):
            for alpha in (0.2, 0.3):
                digest.update(repr(shaping.solve_t_star(n, alpha)).encode())
        assert digest.hexdigest() == (
            "346d73a0047521a13392ebdc9736037720da98bb25eb796d04c137609e535737"
        )


class TestMuStar:
    @pytest.mark.parametrize(
        "alpha,rough", [(0.2, 4.80), (0.3, 2.67)]
    )
    def test_reference_values(self, alpha, rough):
        mu = shaping.solve_mu_star(alpha)
        assert mu == pytest.approx(rough, abs=0.01)
        residual = alpha - (1.0 / mu - 1.0 / math.expm1(mu))
        assert abs(residual) < 1e-12

    def test_vanishes_toward_half(self):
        assert shaping.solve_mu_star(0.499) < 0.05

    @given(st.floats(0.01, 0.49), st.floats(0.01, 0.49))
    def test_strictly_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        if hi - lo < 1e-9:
            return
        assert shaping.solve_mu_star(lo) > shaping.solve_mu_star(hi)

    @given(st.floats(0.02, 0.48))
    def test_two_sided_inverse(self, alpha):
        mu = shaping.solve_mu_star(alpha)
        back = 1.0 / mu - 1.0 / math.expm1(mu)
        assert back == pytest.approx(alpha, abs=1e-10)


class TestTStarApprox:
    def test_composition(self):
        mu = shaping.solve_mu_star(0.2)
        assert shaping.t_star_approx(8, 0.2) == pytest.approx(
            1.6 + 1.0 / mu, abs=1e-13
        )

    @pytest.mark.parametrize("alpha", [0.2, 0.3])
    def test_error_shrinks_with_dimension(self, alpha):
        def gap(n):
            return abs(
                shaping.solve_t_star(n, alpha).t_star
                - shaping.t_star_approx(n, alpha)
            )

        assert gap(32) < gap(2)

    def test_one_dimension_moderate_alpha_coarse_bound(self):
        # The asymptotic correction 1/mu_star blows up as alpha -> 1/2, so a
        # coarse 0.2 bound at n = 1 only holds up to alpha around 0.35.
        sol = shaping.solve_t_star(1, 0.35)
        assert abs(sol.t_star - shaping.t_star_approx(1, 0.35)) < 0.2

    def test_one_dimension_gap_grows_toward_half(self):
        gaps = [
            abs(shaping.solve_t_star(1, a).t_star - shaping.t_star_approx(1, a))
            for a in (0.2, 0.3, 0.4, 0.45)
        ]
        assert gaps == sorted(gaps)


class TestEntropy:
    def test_uniform_limit(self):
        assert abs(shaping.h_max(0.4999)) < 0.01

    def test_against_quadrature(self):
        alpha = 0.2
        mu = shaping.solve_mu_star(alpha)
        with mpmath.workdps(40):
            m = mpmath.mpf(mu)
            norm = (1 - mpmath.e ** (-m)) / m

            def neg_p_log_p(x):
                p = mpmath.e ** (-m * x) / norm
                return -p * mpmath.log(p)

            want = float(mpmath.quad(neg_p_log_p, [0, 1]))
        assert shaping.h_max(alpha) == pytest.approx(want, abs=1e-9)

    def test_small_alpha_exponential_limit(self):
        assert shaping.h_max(0.01) == pytest.approx(1 + math.log(0.01), abs=0.02)


class TestSecondOrderGain:
    def test_tracks_true_gain_at_moderate_dimension(self):
        sol = shaping.solve_t_star(16, 0.2)
        assert abs(sol.sg_db - shaping.second_order_sg_db(16, 0.2)) <= 0.1

    def test_large_n_limit(self):
        alpha = 0.3
        limit = DB * (shaping.h_max(alpha) - math.log(2 * alpha))
        assert shaping.second_order_sg_db(10**9, alpha) == pytest.approx(
            limit, abs=1e-6
        )

    def test_formula_against_extended_precision(self):
        n, alpha = 24, 0.3
        with mpmath.workdps(50):
            mu = mpmath.findroot(
                lambda m: 1 / m - 1 / mpmath.expm1(m) - alpha, mpmath.mpf(2.7)
            )
            h = mpmath.log((1 - mpmath.e ** (-mu)) / mu) + mu * alpha
            inner = -mu + 2 * alpha * mu + mu**2 * alpha * (1 - alpha)
            omega = 1 - mpmath.log(2 * mpmath.pi * inner) / 2
            want = float(
                (10 / mpmath.log(10))
                * (h - mpmath.log(2 * alpha) - mpmath.log(n) / (2 * n) + omega / n)
            )
        assert shaping.second_order_sg_db(n, alpha) == pytest.approx(
            want, abs=1e-11
        )


class TestQuadratureGain:
    def test_fixed_offset_constant(self):
        assert 10 * math.log10(math.pi / 3) == pytest.approx(0.200, abs=1e-3)

    def test_compositional(self):
        want = 10 * math.log10(math.pi / 3) + shaping.second_order_sg_db(24, 0.3)
        assert shaping.quadrature_sg_db(12, 0.3) == pytest.approx(want, abs=1e-13)

    def test_small_power_large_blocklength_limit(self):
        assert shaping.quadrature_sg_db(10**8, 1e-3) == pytest.approx(1.53, abs=0.02)


class TestIrwinHallTail:
    def test_one_and_two_dimensions(self):
        assert shaping.irwin_hall_tail(1, 0.25) == pytest.approx(0.75, abs=1e-15)
        assert shaping.irwin_hall_tail(2, 0.75) == pytest.approx(0.125, abs=1e-15)

    def test_monte_carlo_frequency(self):
        n, x, total = 10, 0.7, 10**7
        rng = np.random.default_rng(2024)
        hits = 0
        chunk = 500_000
        for _ in range(total // chunk):
            means = rng.random((chunk, n)).mean(axis=1)
            hits += int((means >= x).sum())
        p_hat = hits / total
        p = shaping.irwin_hall_tail(n, x)
        sigma = math.sqrt(p * (1 - p) / total)
        assert abs(p - p_hat) < 3 * sigma

    @given(st.integers(1, 12), st.floats(0.0, 1.0))
    def test_volume_identity(self, n, x):
        lhs = shaping.irwin_hall_tail(n, x)
        rhs = shaping.volume(n, n * (1 - x))
        assert lhs == pytest.approx(rhs, abs=1e-14)


class TestLargeDeviationTail:
    def test_kernel_range_enforced(self):
        with pytest.raises(ValueError):
            shaping.ld_tail_approx(8, 0.5)
        with pytest.raises(ValueError):
            shaping.ld_tail_approx(8, 1.0)

    def test_ratio_near_one_at_moderate_n(self):
        ratio = shaping.ld_tail_approx(32, 0.7) / shaping.irwin_hall_tail(32, 0.7)
        assert 0.8 <= ratio <= 1.2

    def test_ratio_improves_with_n(self):
        def misfit(n):
            r = shaping.ld_tail_approx(n, 0.75) / shaping.irwin_hall_tail(n, 0.75)
            return abs(r - 1.0)

        assert misfit(64) < misfit(8)

    @pytest.mark.parametrize("alpha", [0.2, 0.3])
    def test_saddle_point_matches_mu_star(self, alpha):
        s = shaping.solve_s_x(1.0 - alpha)
        assert s == pytest.approx(shaping.solve_mu_star(alpha), abs=1e-9)

    def test_dispersion_bounded_and_nondecreasing_on_grid(self):
        xs = np.linspace(0.55, 0.98, 40)
        d = np.array([shaping.ld_dispersion(float(x)) for x in xs])
        assert (d > 0).all() and (d <= 1.0 + 1e-12).all()
        assert (np.diff(d) > -1e-9).all()
