"""Optimal shaping regions for peak- and average-intensity constraints.

A nonnegative amplitude alphabet with peak limit 1 and mean limit alpha
(0 < alpha < 1/2) is best shaped, in n dimensions, by a corner simplex of
the unit cube: the set T_n(t) = [0,1]^n cut by sum(x) <= t.  This module
computes the exact optimizer t*, its large-n behaviour, and the resulting
shaping gain, together with the Irwin-Hall tail quantities that drive the
asymptotics:

  * volume / avg_first_moment: closed-form volume and normalized mean
    l1-norm of T_n(t) (alternating-sum formulas).
  * solve_t_star: the exact optimum (closed form for alpha <= 1/(n+1),
    otherwise a bisection on the mean constraint).
  * solve_mu_star / second_order_sg_db: the exponential-family surrogate
    mu* and the second-order gain expansion; solve_t_star also reports the
    O(1/n) expansion of t*, n*alpha + 1/mu*.
  * irwin_hall_tail / ld_tail_approx: exact tail of a mean of n i.i.d.
    uniforms and its saddlepoint-style approximation.

Everything here is a pure function; gains are in dB via 10*log10 of the
amplitude ratio.  Arguments are checked by ``_checks`` (else ValueError).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _checks

__all__ = [
    "MAX_N",
    "ShapingSolution",
    "volume",
    "avg_first_moment",
    "solve_t_star",
    "solve_mu_star",
    "h_max",
    "second_order_sg_db",
    "irwin_hall_tail",
    "ld_tail_approx",
    "kernel_k",
    "solve_s_x",
    "ld_rate",
    "ld_dispersion",
]

_DB = 10.0 / math.log(10.0)

# Above this dimension the alternating sums are evaluated in exact rational
# arithmetic; below it, float64 with compensated summation holds ~1e-12.
_EXACT_N = 40

# Largest n of the functions whose cost grows with n, about n**3 in exact
# rationals: seconds per alpha at n = 128.  The closed forms take any n.
MAX_N = 128


@dataclass(frozen=True)
class ShapingSolution:
    """Optimal truncation parameter and gains for one (n, alpha) pair.

    t_star is exact (closed form or bisection); tau_star = t_star / n.
    sg_db is the true shaping gain, sg_db_approx its second-order expansion,
    and t_star_approx = n*alpha + 1/mu_star the first-order parameter guess.
    """

    n: int
    alpha: float
    t_star: float
    tau_star: float
    sg_db: float
    mu_star: float
    t_star_approx: float
    sg_db_approx: float


@lru_cache(maxsize=None)
def _signed_comb_row(n: int) -> tuple[float, ...]:
    """(-1)^k C(n, k) as floats, k = 0..n."""
    return tuple((-1.0) ** k * math.comb(n, k) for k in range(n + 1))


def _alternating_sum(n: int, t: float, power: int) -> float:
    """sum_k C(n,k) (-1)^k (t-k)^power / power! over k <= t, compensated
    (Kahan): the alternating series cancel heavily."""
    row = _signed_comb_row(n)
    fact = math.factorial(power)
    total = c = 0.0
    for k in range(min(n, math.floor(t)) + 1):
        y = row[k] * (t - k) ** power / fact - c
        tk = total + y
        c = (tk - total) - y
        total = tk
    return total


def _alternating_exact(n: int, t: Fraction, power: int) -> Fraction:
    """Exact rational form of ``_alternating_sum``."""
    acc = Fraction(0)
    for k in range(min(n, math.floor(t)) + 1):
        acc += (-1) ** k * math.comb(n, k) * (t - k) ** power
    return acc / math.factorial(power)


def volume(n: int, t: float) -> float:
    """Volume of T_n(t) = [0,1]^n intersect {sum <= t}; lies in [0, 1].

    Alternating sum (1/n!) * sum_k C(n,k) (-1)^k (t-k)^n over k <= t.
    Exact rational evaluation for n > 40, where float cancellation would
    dominate.  In the float regime the upper half is folded onto the lower
    half via the reflection V_n(t) = 1 - V_n(n - t); the raw sum loses
    several digits to cancellation there.
    """
    n = _checks.integer("n", n, 1, MAX_N)
    t = _checks.real("t", t, 0, n)
    if n > _EXACT_N:
        return float(_alternating_exact(n, Fraction(t), n))
    return _volume(n, t)


def _volume(n: int, t: float) -> float:
    """Float-regime ``volume`` without the argument checks."""
    if 2.0 * t > n:
        return min(max(1.0 - _volume(n, n - t), 0.0), 1.0)
    return min(max(_alternating_sum(n, t, n), 0.0), 1.0)


def _first_moment_integral(n: int, t: float) -> float:
    """Integral of V_n over [0, t]: sum_k C(n,k)(-1)^k (t-k)^{n+1}/(n+1)!.

    Reflected onto the lower half through J_n(t) = t - n/2 + J_n(n - t),
    which follows from the volume symmetry and keeps the alternating sum
    well conditioned.
    """
    if 2.0 * t > n:
        return t - 0.5 * n + _first_moment_integral(n, n - t)
    return _alternating_sum(n, t, n + 1)


def avg_first_moment(n: int, t: float) -> float:
    """Mean coordinate value (normalized l1-norm) of a uniform draw in T_n(t).

    Strictly increasing in t, from 0 up to 1/2 at t = n.  Uses the identity
    P_n(t) = (t - J(t)/V(t)) / n where J is the running integral of V (so
    J' = V, integration by parts folds the density into one more power).
    """
    n = _checks.integer("n", n, 1, MAX_N)
    return _avg_first_moment(n, _checks.real("t", t, 0, n))  # ValueError at t = 0 too


def _avg_first_moment(n: int, t: float) -> float:
    """``avg_first_moment`` without the argument checks."""
    if n > _EXACT_N:
        tf = Fraction(t)
        v = _alternating_exact(n, tf, n)
        if v == 0:
            raise ValueError(f"zero-volume region at t={t!r}")
        return float((tf - _alternating_exact(n, tf, n + 1) / v) / n)
    v = _volume(n, t)
    if v <= 0.0:
        raise ValueError(f"zero-volume region at t={t!r}")
    return (t - _first_moment_integral(n, t) / v) / n


def kernel_k(s: float) -> float:
    """K(s) = 1/(1 - e^{-s}) - 1/s: mean of the tilted uniform on [0, 1].

    Increases from 1/2 (s -> 0) to 1 (s -> inf).  The s -> 0 limit is taken
    by Taylor expansion to dodge the 0/0.
    """
    if s == 0.0:
        return 0.5
    if abs(s) < 1e-5:
        return 0.5 + s / 12.0 - s**3 / 720.0
    return 1.0 / -math.expm1(-s) - 1.0 / s


def solve_s_x(x: float) -> float:
    """Inverse of kernel_k on (1/2, 1): the tilt s_x with K(s_x) = x."""
    if not 0.5 < _checks.real("x", x) < 1.0:
        raise ValueError(f"x must lie in (1/2, 1), got {x!r}")
    lo, hi = 0.0, 2.0 / (1.0 - x) + 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kernel_k(mid) < x:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, lo):
            break
    return 0.5 * (lo + hi)


def solve_mu_star(alpha: float) -> float:
    """Unique positive root of alpha = 1/mu - 1/(e^mu - 1).

    Equivalently mu* = s_{1-alpha} (the defining map is 1 - K(mu)).
    Strictly decreasing in alpha: ~1/alpha for small alpha, -> 0 at 1/2.
    Residual below 1e-12 across (0, 1/2).  Below alpha ~ 1.1e-16, 1 - alpha
    rounds to 1, outside solve_s_x's domain, and a ValueError names alpha.
    """
    alpha = _checks.alpha(alpha)
    if 1.0 - alpha == 1.0:
        raise ValueError(f"alpha is too small: 1 - alpha rounds to 1 at alpha={alpha!r}")
    return solve_s_x(1.0 - alpha)


def solve_t_star(n: int, alpha: float) -> ShapingSolution:
    """Optimal simplex-truncation parameter and gain for (n, alpha).

    For alpha <= 1/(n+1) the mean constraint is met by the full corner
    simplex and t* = (n+1)*alpha in closed form.  Otherwise t* solves
    avg_first_moment(n, t) = alpha by bisection on [n*alpha, n].  The gain
    is 10*log10 of volume^{1/n} / (2*alpha): the per-dimension edge of the
    shaped region against the unshaped segment [0, 2*alpha].
    """
    n = _checks.integer("n", n, 1, MAX_N)
    alpha = _checks.alpha(alpha)
    if alpha <= 1.0 / (n + 1):
        t_star = (n + 1) * alpha
        vol = volume(n, t_star)
        # V = t*^n / n! here.  Below the normal doubles it has lost digits,
        # or underflowed to 0, so its log is taken in closed form instead.
        if vol < sys.float_info.min:
            log_vol = n * math.log(t_star) - math.lgamma(n + 1)
        else:
            log_vol = math.log(vol)
    else:
        lo, hi = n * alpha, float(n)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _avg_first_moment(n, mid) < alpha:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-13:
                break
        t_star = 0.5 * (lo + hi)
        log_vol = math.log(volume(n, t_star))
    sg_db = _DB * (log_vol / n - math.log(2.0 * alpha))
    mu = solve_mu_star(alpha)
    return ShapingSolution(
        n=n,
        alpha=alpha,
        t_star=t_star,
        tau_star=t_star / n,
        sg_db=sg_db,
        mu_star=mu,
        t_star_approx=n * alpha + 1.0 / mu,
        sg_db_approx=_second_order_sg_db(n, alpha, mu),
    )


def h_max(alpha: float) -> float:
    """Differential entropy (nats) of the max-entropy density on [0, 1]
    with mean alpha: the truncated exponential p(x) proportional to
    e^{-mu* x}.  Closed form ln((1 - e^{-mu*})/mu*) + mu*·alpha, verified
    against quadrature in the test suite.
    """
    return _h_max(alpha, solve_mu_star(alpha))


def _h_max(alpha: float, mu: float) -> float:
    return math.log(-math.expm1(-mu) / mu) + mu * alpha


def second_order_sg_db(n: int, alpha: float) -> float:
    """Second-order (1/n) expansion of the shaping gain, in dB.

    sg ~ (10/ln10) [ h_max(a) - ln 2a - ln(n)/(2n) + omega_a/n ],
    omega_a = 1 - (1/2) ln( 2π(-mu* + 2a·mu* + mu*^2·a(1-a)) ).
    At the root mu*, the curvature term in the log is ld_dispersion(1 - a)^2
    = 1 - ((mu*/2)/sinh(mu*/2))^2, which lies in (0, 1); it is evaluated in
    that form, as the sum of -mu* + ... cancels in float64 at both ends of
    (0, 1/2).
    """
    n = _checks.integer("n", n, 1)
    return _second_order_sg_db(n, alpha, solve_mu_star(alpha))


def _second_order_sg_db(n: int, alpha: float, mu: float) -> float:
    """``second_order_sg_db`` at a known mu* = solve_mu_star(alpha)."""
    omega = 1.0 - 0.5 * math.log(2.0 * math.pi * _curvature(mu))
    return _DB * (
        _h_max(alpha, mu) - math.log(2.0 * alpha) - math.log(n) / (2.0 * n) + omega / n
    )


def _curvature(s: float) -> float:
    """1 - ((s/2)/sinh(s/2))^2 for s > 0: s^2 times the variance of the
    uniform tilted by s, so D(x)^2 at s = s_x.

    With y = s/2 it is (sinh y - y)(sinh y + y) / sinh(y)^2.  Below y = 2,
    sinh y - y is summed from its series, whose terms y^(2k+1)/(2k+1)! are
    all positive, so nothing cancels as s -> 0; above, the ratio is taken
    through e^-y, which stays finite as s grows.
    """
    y = 0.5 * s
    if y < 2.0:
        term = excess = y**3 / 6.0
        k = 1
        while term > 1e-17 * excess:
            k += 1
            term *= y * y / ((2 * k) * (2 * k + 1))
            excess += term
        sinh = y + excess
        return excess * (sinh + y) / (sinh * sinh)
    ratio = 2.0 * y * math.exp(-y) / -math.expm1(-2.0 * y)
    return 1.0 - ratio * ratio


def irwin_hall_tail(n: int, x: float) -> float:
    """P{ mean of n i.i.d. U(0,1) >= x }: the Irwin-Hall upper tail.

    Computed exactly (up to final rounding) through the complementary-volume
    identity G_n(x) = V_n(n(1-x)).
    """
    n = _checks.integer("n", n, 1, MAX_N)
    return volume(n, n * (1.0 - _checks.real("x", x, 0, 1)))


def mgf_log(s: float) -> float:
    """ln M(s) for M(s) = (e^s - 1)/s, the uniform MGF; M(0) = 1."""
    if s == 0.0:
        return 0.0
    if s > 700.0:
        return s - math.log(s)
    return math.log(math.expm1(s)) - math.log(s)


def ld_rate(x: float) -> float:
    """Large-deviation rate L(x) = ln M(s_x) - x s_x (negative on (1/2,1))."""
    s = solve_s_x(x)
    return mgf_log(s) - x * s


def ld_dispersion(x: float) -> float:
    """Curvature factor D(x) = sqrt(1 - s^2 e^s / (e^s - 1)^2) at s = s_x.

    Evaluated through ``_curvature``, which stays accurate as s -> 0 and
    finite for large s.  Tends to 0 as x -> 1/2 and to 1 as x -> 1.
    """
    return math.sqrt(_curvature(solve_s_x(x)))


def ld_tail_approx(n: int, x: float) -> float:
    """Saddlepoint-style approximation of irwin_hall_tail:

        G_n(x) ~ exp(n L(x)) / (sqrt(2π n) D(x)),   1/2 < x < 1.

    The relative error vanishes as n grows (tested against the exact tail).
    """
    n = _checks.integer("n", n, 1)
    return math.exp(n * ld_rate(x)) / (math.sqrt(2.0 * math.pi * n) * ld_dispersion(x))
