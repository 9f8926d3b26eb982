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
            assert shaping.volume(n, float(t)) == pytest.approx(want, rel=1e-12, abs=0)

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
        assert shaping.volume(n, t) == pytest.approx(want, rel=1e-12, abs=0)


def exact_first_moment(n, t):
    """P_n(t) = (t - J(t)/V(t)) / n in exact rationals."""
    v = shaping._alternating_exact(n, t, n)
    return (t - shaping._alternating_exact(n, t, n + 1) / v) / n


class TestFirstMoment:
    def test_endpoint_is_half(self):
        for n in (2, 5, 24):
            assert shaping.avg_first_moment(n, float(n)) == pytest.approx(0.5, abs=1e-12)

    @given(st.integers(2, 24), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_strictly_increasing(self, n, a, b):
        # The increase is asserted on the exact rational moment: near t = n
        # two moments can differ by less than one float64 ulp.
        lo, hi = sorted((a * n, b * n))
        if hi - lo < 1e-6:
            return
        exact = [exact_first_moment(n, Fraction(t)) for t in (lo, hi)]
        assert exact[0] < exact[1]
        for t, want in zip((lo, hi), exact):
            assert shaping.avg_first_moment(n, t) == pytest.approx(float(want), rel=1e-12, abs=0)


class TestSolveTStar:
    def test_closed_form_branch(self):
        sol = shaping.solve_t_star(3, 0.2)
        assert sol.t_star == pytest.approx(0.8, abs=1e-14)

    @pytest.mark.parametrize(("n", "alpha"), [(128, 1e-3), (64, 1e-6), (125, 1e-3)])
    def test_closed_form_gain_where_the_volume_underflows(self, n, alpha):
        # V = t*^n / n! is 0.0 in float64 at the first two pairs and
        # subnormal (1.9e-322, three digits) at the third.
        with mpmath.workdps(50):
            t = mpmath.mpf((n + 1) * alpha)
            want = float(10 * mpmath.log10(
                (t**n / mpmath.factorial(n)) ** (mpmath.mpf(1) / n) / (2 * mpmath.mpf(alpha))
            ))
        assert shaping.solve_t_star(n, alpha).sg_db == pytest.approx(want, abs=1e-12)

    def test_one_dimension_baseline(self):
        sol = shaping.solve_t_star(1, 0.3)
        assert sol.t_star == pytest.approx(0.6, abs=1e-14)
        assert sol.sg_db == pytest.approx(0.0, abs=1e-12)

    def test_bisection_self_consistency(self):
        sol = shaping.solve_t_star(24, 0.3)
        assert shaping.avg_first_moment(24, sol.t_star) == pytest.approx(
            0.3, abs=1e-10
        )

    def test_domain_errors(self, monkeypatch):
        with pytest.raises(ValueError):
            shaping.solve_t_star(8, 0.0)
        with pytest.raises(ValueError):
            shaping.solve_t_star(8, 0.5)
        with pytest.raises(ValueError):
            shaping.solve_t_star(0, 0.2)
        # n = True ran as n = 1, n = 1024 summed for 73 s, and a string alpha
        # raised TypeError; each now fails before any sum
        def no_sum(*args):
            raise AssertionError("summed before the arguments were checked")

        monkeypatch.setattr(shaping, "_alternating_sum", no_sum)
        monkeypatch.setattr(shaping, "_alternating_exact", no_sum)
        for n, alpha in ((True, 0.2), (24.0, 0.2), (129, 0.2), (1024, 0.2),
                         (24, "0.2"), (24, True), (24, None)):
            with pytest.raises(ValueError, match="n must be an integer in 1..128|alpha must"):
                shaping.solve_t_star(n, alpha)

    def test_cap_binds_only_where_the_cost_grows_with_n(self):
        for f, x in ((shaping.volume, 1.0), (shaping.avg_first_moment, 1.0),
                     (shaping.irwin_hall_tail, 0.5)):
            with pytest.raises(ValueError, match=r"n must be an integer in 1..128, got 129"):
                f(129, x)
        assert shaping.volume(np.int64(128), 128.0) == 1.0
        assert math.isfinite(shaping.ld_tail_approx(10**6, 0.7))

    def test_exact_branch_meets_alpha(self):
        # n > 40 runs the bisection on exact rational sums.  The reference is
        # the mean of one coordinate of the uniform on T_n(t*), by quadrature:
        # int_0^1 x V_{n-1}(t - x) dx / int_0^1 V_{n-1}(t - x) dx.
        n, alpha = 48, 0.3
        assert alpha > 1.0 / (n + 1)
        with mpmath.workdps(60):
            t = mpmath.mpf(shaping.solve_t_star(n, alpha).t_star)

            def v(s):
                return mpmath.fsum(
                    (-1) ** k * mpmath.binomial(n - 1, k) * (s - k) ** (n - 1)
                    for k in range(int(mpmath.floor(s)) + 1)
                ) / mpmath.factorial(n - 1)

            cuts = [0, t - mpmath.floor(t), 1]
            mean = mpmath.quad(lambda x: x * v(t - x), cuts) / mpmath.quad(
                lambda x: v(t - x), cuts
            )
        assert abs(float(mean) - alpha) < 1e-12

    def test_numpy_integer_dimension(self):
        # int64 n was refused while build_spec took an int64 beta
        assert shaping.solve_t_star(np.int64(24), 0.2) == shaping.solve_t_star(24, 0.2)
        assert type(shaping.solve_t_star(np.int64(24), 0.2).n) is int

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
            "5f2a436511d7f60877215352c5baa7ec50433ac3ec7d4019de39548619a07930"
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

    @pytest.mark.parametrize(
        # near 1/2 the root itself moves by about 6e-16/mu* relative per ulp of alpha
        "alpha,rel", [(1e-17, 1e-15), (1e-12, 1e-15), (1e-8, 1e-15), (0.3, 1e-15),
                      (0.499, 1e-12), (0.4999, 1e-11)]
    )
    def test_against_extended_precision(self, alpha, rel):
        # solved on 1 - alpha, mu* was 3.3e-5 low at 1e-12 and 1e-17 failed
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            want = mpmath.findroot(lambda m: 1 / m - 1 / mpmath.expm1(m) - a, 1 / a)
        assert shaping.solve_mu_star(alpha) == pytest.approx(float(want), rel=rel, abs=0)


class TestTStarApprox:
    def test_composition(self):
        mu = shaping.solve_mu_star(0.2)
        assert shaping.solve_t_star(8, 0.2).t_star_approx == pytest.approx(
            1.6 + 1.0 / mu, abs=1e-13
        )

    @pytest.mark.parametrize("alpha", [0.2, 0.3])
    def test_error_shrinks_with_dimension(self, alpha):
        def gap(n):
            sol = shaping.solve_t_star(n, alpha)
            return abs(sol.t_star - sol.t_star_approx)

        assert gap(32) < gap(2)

    def test_one_dimension_moderate_alpha_coarse_bound(self):
        # The asymptotic correction 1/mu_star blows up as alpha -> 1/2, so a
        # coarse 0.2 bound at n = 1 only holds up to alpha around 0.35.
        sol = shaping.solve_t_star(1, 0.35)
        assert abs(sol.t_star - sol.t_star_approx) < 0.2

    def test_one_dimension_gap_grows_toward_half(self):
        sols = [shaping.solve_t_star(1, a) for a in (0.2, 0.3, 0.4, 0.45)]
        gaps = [abs(s.t_star - s.t_star_approx) for s in sols]
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

    @pytest.mark.parametrize("alpha", [1e-8, 1e-4, 0.2, 0.3, 0.45, 0.499])
    def test_formula_against_extended_precision(self, alpha):
        n = 24
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            mu = mpmath.findroot(
                lambda m: 1 / m - 1 / mpmath.expm1(m) - a,
                mpmath.mpf(shaping.solve_mu_star(alpha)),
            )
            h = mpmath.log((1 - mpmath.e ** (-mu)) / mu) + mu * a
            inner = -mu + 2 * a * mu + mu**2 * a * (1 - a)
            omega = 1 - mpmath.log(2 * mpmath.pi * inner) / 2
            want = float(
                (10 / mpmath.log(10))
                * (h - mpmath.log(2 * a) - mpmath.log(n) / (2 * n) + omega / n)
            )
        assert shaping.second_order_sg_db(n, alpha) == pytest.approx(
            want, abs=1e-11
        )

    @pytest.mark.parametrize("alpha", [1e-12, 1e-8, 1e-4, 0.2, 0.45, 0.499])
    def test_curvature_against_extended_precision(self, alpha):
        # -mu + 2*alpha*mu + mu^2*alpha*(1 - alpha), the form this replaced,
        # read -0.058 in float64 at alpha = 1e-8, where its value rounds to 1.
        mu = shaping.solve_mu_star(alpha)
        with mpmath.workdps(50):
            half = mpmath.mpf(mu) / 2
            want = float(1 - (half / mpmath.sinh(half)) ** 2)
        assert shaping._curvature(mu) == pytest.approx(want, rel=1e-14, abs=0)
        assert shaping.ld_dispersion(1.0 - alpha) == pytest.approx(
            math.sqrt(want), rel=1e-14, abs=0
        )

    def test_table_rows_against_extended_precision(self):
        # The rows of test_table_matches_golden_digest: each second-order
        # gain is within 1e-15 of its value at the exact mu*, which the
        # cancelling form of the curvature term missed by up to 4.1e-15.
        for alpha in (0.2, 0.3):
            with mpmath.workdps(50):
                a = mpmath.mpf(alpha)
                mu = mpmath.findroot(
                    lambda m: 1 / m - 1 / mpmath.expm1(m) - a,
                    mpmath.mpf(shaping.solve_mu_star(alpha)),
                )
                limit = mpmath.log(-mpmath.expm1(-mu) / mu) + mu * a - mpmath.log(2 * a)
                curvature = 1 - (mu / 2 / mpmath.sinh(mu / 2)) ** 2
                omega = 1 - mpmath.log(2 * mpmath.pi * curvature) / 2
                for n in range(2, 33):
                    want = (10 / mpmath.log(10)) * (limit - mpmath.log(n) / (2 * n) + omega / n)
                    got = shaping.solve_t_star(n, alpha).sg_db_approx
                    assert abs(got - want) < 1e-15, (n, alpha)

    def test_alpha_where_one_over_alpha_overflows(self):
        assert math.isfinite(shaping.second_order_sg_db(24, 1e-300))
        with pytest.raises(ValueError, match="1/alpha overflows"):
            shaping.second_order_sg_db(24, 1e-310)


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

    @pytest.mark.parametrize("x", [0.55, 0.7, 0.9, 0.999, 1 - 1e-9])
    def test_rate_against_extended_precision(self, x):
        with mpmath.workdps(50):
            a = 1 - mpmath.mpf(x)
            s = mpmath.findroot(lambda m: 1 / m - 1 / mpmath.expm1(m) - a, 1 / a)
            want = float(mpmath.log(mpmath.expm1(s) / s) - x * s)
        assert shaping.ld_rate(x) == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("alpha", [0.2, 0.3])
    def test_saddle_point_matches_mu_star(self, alpha):
        s = shaping.solve_s_x(1.0 - alpha)
        assert s == pytest.approx(shaping.solve_mu_star(alpha), abs=1e-9)

    def test_dispersion_bounded_and_nondecreasing_on_grid(self):
        xs = np.linspace(0.55, 0.98, 40)
        d = np.array([shaping.ld_dispersion(float(x)) for x in xs])
        assert (d > 0).all() and (d <= 1.0 + 1e-12).all()
        assert (np.diff(d) > -1e-9).all()
