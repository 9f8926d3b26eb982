"""Release-gate property suite behind the ``verify`` CLI command.

Each check is small, deterministic, and independent; together they cover the
numerical identities, coding/lattice certificates, indexing bijections,
feasibility invariants, and simulator determinism that the rest of the
package relies on.  The code under test is injectable so a deliberately
corrupted generator matrix demonstrates that the suite actually fails.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import codes, indoor, lattices, shaping, shells, simulate
from .codes import GOLAY, BinaryBlockCode
from .constellations import build_cubic_spec, build_oslc_spec, build_tcc_spec
from .constellations import demap_point, map_bits

__all__ = ["PropertyResult", "run_property_suite"]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _check_q_function_reference():
    q3 = simulate.q_function(3.0)
    if abs(q3 - 1.3499e-3) > 1e-7:
        return False, f"Q(3) = {q3!r}"
    grid = simulate.q_function(np.linspace(-2, 6, 30))
    if not (np.diff(grid) < 0).all():
        return False, "Q not strictly decreasing"
    return True, f"Q(3) = {q3:.6e}, monotone on [-2, 6]"


def _check_volume_identities():
    if abs(shaping.volume(2, 1.0) - 0.5) > 1e-15:
        return False, "V(2, 1) != 1/2"
    for n in (2, 3, 5, 8):
        for t in np.linspace(0.25, n - 0.25, 7):
            a = shaping.volume(n, float(t))
            b = shaping.volume(n, float(n - t))
            if abs(a + b - 1.0) > 1e-12:
                return False, f"symmetry broke at n={n}, t={t}"
    tail = shaping.irwin_hall_tail(2, 0.75)
    if abs(tail - 0.125) > 1e-15:
        return False, f"G(2, 0.75) = {tail!r}"
    for n in (4, 12):
        for x in (0.6, 0.8):
            lhs = shaping.irwin_hall_tail(n, x)
            rhs = shaping.volume(n, n * (1 - x))
            if abs(lhs - rhs) > 1e-15:
                return False, f"tail identity broke at n={n}, x={x}"
    return True, "reflection symmetry and tail identity on grid"


def _check_shaping_solver():
    sol = shaping.solve_t_star(3, 0.2)
    if abs(sol.t_star - 0.8) > 1e-12:
        return False, f"t*(3, 0.2) = {sol.t_star!r}"
    for n, alpha in ((6, 0.35), (12, 0.3), (24, 0.45)):
        s = shaping.solve_t_star(n, alpha)
        p = shaping.avg_first_moment(n, s.t_star)
        if abs(p - alpha) > 1e-10:
            return False, f"P(t*) missed alpha at n={n}: {p!r}"
    mu2 = shaping.solve_mu_star(0.2)
    mu3 = shaping.solve_mu_star(0.3)
    if abs(mu2 - 4.7994) > 5e-3 or abs(mu3 - 2.6746) > 5e-3:
        return False, f"mu*(0.2) = {mu2!r}, mu*(0.3) = {mu3!r}"
    return True, f"t*(3,0.2) exact, mu*(0.2) = {mu2:.4f}"


def _check_kernel_inverse():
    for x in np.linspace(0.52, 0.999, 25):
        s = shaping.solve_s_x(float(x))
        k = shaping.kernel_k(s)
        if abs(k - x) > 1e-11:
            return False, f"K(s_x) missed x at {x}: {k!r}"
    return True, "K(solve_s_x(x)) = x on [0.52, 0.999]"


def _check_weight_enumerator(code: BinaryBlockCode):
    expected = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
    got = code.weight_enumerator()
    if got != expected:
        return False, f"weight enumerator {got}"
    return True, "(1, 759, 2576, 759, 1) at weights (0, 8, 12, 16, 24)"


def _check_self_dual(code: BinaryBlockCode):
    if not code.is_self_dual():
        return False, "generator not self-orthogonal"
    if code.d_min != 8:
        return False, f"d_min = {code.d_min}"
    return True, "self-dual with d_min = 8"


def _check_hard_decoding(code: BinaryBlockCode, rng):
    radius = (code.d_min - 1) // 2
    for _ in range(200):
        word = code.codebook[rng.integers(0, 1 << code.k)]
        flips = rng.choice(code.n, size=radius, replace=False)
        recv = word.copy()
        recv[flips] ^= 1
        got = code.soft_ml_decode(recv.astype(float), 1.0 - recv).codeword
        if not np.array_equal(got, word):
            return False, f"{radius} flips not corrected"
    return True, f"200 random {radius}-flip patterns corrected"


def _check_dn_nearest(rng):
    n = 4
    for _ in range(300):
        y = rng.uniform(-3, 3, n)
        fast = lattices.nearest_point_dn_batch(y)[0]
        base = np.floor(y).astype(np.int64) - 1
        best = None
        for off in itertools.product(range(4), repeat=n):
            cand = base + np.asarray(off)
            if cand.sum() % 2:
                continue
            dist = float(((y - cand) ** 2).sum())
            if best is None or dist < best:
                best = dist
        if abs(float(((y - fast) ** 2).sum()) - best) > 1e-9:
            return False, f"suboptimal at y={y}"
    return True, "300 exhaustive comparisons in dimension 4"


def _check_half_lattice_bdd(code: BinaryBlockCode, rng):
    count = 400
    c = code.codebook[rng.integers(0, 1 << code.k, count)].astype(np.int64)
    u = rng.integers(-4, 5, (count, code.n))
    fix = (u.sum(axis=1) % 2).astype(bool)
    u[fix, 0] += 1
    v = c + 2 * u
    noise = rng.standard_normal((count, code.n))
    noise *= (0.99 * math.sqrt(8) / 2) * rng.random(count)[:, None] / np.linalg.norm(
        noise, axis=1, keepdims=True
    )
    dec = lattices.bdd_half_lattice_batch(v + noise, code=code)
    if not np.array_equal(dec, v):
        bad = int((dec != v).any(axis=1).sum())
        return False, f"{bad}/{count} points missed inside the packing radius"
    return True, f"{count} perturbations inside r = sqrt(8)/2 recovered"


def _check_leech_bdd(code: BinaryBlockCode, rng):
    count = 300
    c = code.codebook[rng.integers(0, 1 << code.k, count)].astype(np.int64)
    u = rng.integers(-3, 4, (count, code.n))
    fix = (u.sum(axis=1) % 2).astype(bool)
    u[fix, 0] += 1
    h = c + 2 * u
    a = rng.integers(0, 2, count)
    lam = 2 * h + a[:, None] * lattices.XI
    noise = rng.standard_normal((count, code.n))
    noise *= (0.99 * 4 * math.sqrt(2) / 2) * rng.random(count)[:, None] / (
        np.linalg.norm(noise, axis=1, keepdims=True)
    )
    cosets = (np.zeros(code.n, dtype=np.int64), lattices.XI)
    dec, _, which = lattices.decode_shifted_union_batch(
        lam + noise, cosets, code=code
    )
    if not np.array_equal(dec, lam):
        bad = int((dec != lam).any(axis=1).sum())
        return False, f"{bad}/{count} points missed inside the packing radius"
    if not np.array_equal(which, a):
        return False, "coset labels misidentified"
    return True, f"{count} perturbations inside r = 2*sqrt(2) recovered with cosets"


def _check_shell_counts():
    frozen = (
        ((2, 1, 1), 2),
        ((4, 3, 6), 128),
        ((1, 5, 2), 3),
    )
    for (n, h, l), want in frozen:
        got = shells.TdIndexer(n, h, l).count
        if got != want:
            return False, f"|TD{(n, h, l)}| = {got}, want {want}"
    n, h, l = 5, 3, 4
    brute = sum(
        1
        for p in itertools.product(range(h + 1), repeat=n)
        if sum(p) % 2 == 0 and sum(p) <= 2 * l
    )
    if shells.TdIndexer(n, h, l).count != brute:
        return False, f"DP disagrees with enumeration at {(n, h, l)}"
    return True, "frozen counts and 5-dim enumeration agree"


def _check_shell_bijection():
    idx = shells.TdIndexer(5, 3, 4)
    pts = [
        p
        for p in itertools.product(range(4), repeat=5)
        if sum(p) % 2 == 0 and sum(p) <= 8
    ]
    pts.sort(key=lambda p: (sum(p), p))
    if len(pts) != idx.count:
        return False, "cardinality mismatch"
    for i, p in enumerate(pts):
        if not np.array_equal(idx.unrank(i), p):
            return False, f"unrank({i}) != {p}"
        if idx.rank(np.asarray(p)) != i:
            return False, f"rank{p} != {i}"
    return True, f"full bijection over {idx.count} points in canonical order"


def _check_selection_stats():
    idx = shells.TdIndexer(5, 3, 4)
    pts = [tuple(idx.unrank(i)) for i in range(idx.count)]
    for m_s in (1, 7, 40, idx.count):
        sel = idx.selection(m_s)
        prefix = pts[:m_s]
        if sel.sum_l1 != sum(sum(p) for p in prefix):
            return False, f"sum_l1 at m_s={m_s}"
        marg = [0] * (idx.h + 1)
        for p in prefix:
            marg[p[0]] += 1
        if list(sel.first_coord_counts) != marg:
            return False, f"first-coordinate marginal at m_s={m_s}"
        if sel.max_coord != max(max(p) for p in prefix):
            return False, f"max_coord at m_s={m_s}"
    return True, "prefix statistics match brute force at four sizes"


def _check_sampler_uniformity(rng):
    idx = shells.TdIndexer(4, 3, 6)
    m_s = 37
    sampler = shells.TdSampler(idx, m_s)
    pts = sampler.sample(rng, 200_000)
    ranks = np.array([idx.rank(p) for p in pts])
    if ranks.max() >= m_s:
        return False, "sample left the selected alphabet"
    counts = np.bincount(ranks, minlength=m_s)
    expected = len(ranks) / m_s
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    if chi2 > 80.0:  # dof = 36; far beyond the 99.99% quantile
        return False, f"chi2 = {chi2:.1f}"
    return True, f"chi2 = {chi2:.1f} on 36 dof over 2e5 draws"


def _check_feasibility():
    for spec in (
        build_oslc_spec(2, 0.2),
        build_tcc_spec(2, 0.2),
        build_cubic_spec(3, 0.3),
    ):
        if spec.kappa * spec.peak_unscaled > 1:
            return False, f"{spec.kind}: peak constraint violated"
        if spec.kappa * spec.avg_l1_unscaled > spec.n * spec.alpha:
            return False, f"{spec.kind}: average constraint violated"
    return True, "exact rational peak and average constraints on three designs"


def _check_map_roundtrip(rng):
    specs = (build_oslc_spec(2, 0.2), build_tcc_spec(2, 0.2), build_cubic_spec(3, 0.3))
    for spec in specs:
        for _ in range(150):
            bits = rng.integers(0, 2, spec.bits_per_symbol)
            lam = map_bits(spec, bits)
            if (lam < 0).any() or lam.max() > spec.peak_unscaled:
                return False, f"{spec.kind}: point outside [0, peak]"
            if not np.array_equal(demap_point(spec, lam), bits):
                return False, f"{spec.kind}: round trip failed"
    return True, "150 random words per design map and demap exactly"


def _check_mapped_average(rng):
    spec = build_oslc_spec(2, 0.2)
    total = np.zeros(20_000)
    for i in range(total.size):
        bits = rng.integers(0, 2, spec.bits_per_symbol)
        total[i] = map_bits(spec, bits).sum()
    mean = float(total.mean())
    sdev = float(total.std(ddof=1)) / math.sqrt(total.size)
    target = float(spec.avg_l1_unscaled)
    if abs(mean - target) > 3 * sdev:
        return False, f"mean {mean:.3f} vs {target:.3f} +- {sdev:.3f}"
    return True, f"empirical mean within {abs(mean - target) / sdev:.2f} sigma"


def _check_simulator_determinism():
    spec = build_cubic_spec(4, 0.3)
    a = simulate.simulate_ser(spec, 23.0, seed=42, target_errors=None, max_trials=8192)
    b = simulate.simulate_ser(spec, 23.0, seed=42, target_errors=None, max_trials=8192)
    if (a.trials, a.errors) != (b.trials, b.errors):
        return False, "same seed gave different counts"
    if a.errors == 0:
        return False, "operating point produced no errors to compare"
    lo, hi = simulate.wilson_interval(a.errors, a.trials)
    if not lo <= a.ser <= hi:
        return False, "point estimate outside its own interval"
    return True, f"rerun identical ({a.errors}/{a.trials}), interval covers estimate"


def _check_indoor_geometry():
    room = indoor.RoomConfig()
    if abs(room.lambert_order - 1.0) > 1e-14:
        return False, f"Lambert order {room.lambert_order!r}"
    if abs(room.concentrator_gain - 3.0) > 1e-12:
        return False, f"concentrator gain {room.concentrator_gain!r}"
    d = room.lamp_height - room.pd_height
    on_axis = indoor.lambertian_gain(
        np.array([1.0, -1.0, room.lamp_height]),
        np.array([1.0, -1.0, room.pd_height]),
        room,
    )
    closed = 2 * room.detector_area * 3.0 / (2 * math.pi * d * d)
    if abs(on_axis - closed) > 1e-18:
        return False, "on-axis gain formula"
    vals = [
        indoor.link_budget(room, xy, 0.3).osnr_db
        for xy in ((1.1, 0.7), (-1.1, 0.7), (1.1, -0.7), (-0.7, -1.1))
    ]
    if max(vals) - min(vals) > 1e-9:
        return False, "lamp symmetry broken"
    return True, "order/gain constants, on-axis law, 4-fold symmetry"


def _check_indoor_units():
    room = indoor.RoomConfig()
    budget = indoor.link_budget(room, (0.4, -0.3), 0.25)
    chain = room.responsivity * room.eo_gain
    mean_i = room.current_min + 0.25 * (room.current_max - room.current_min)
    var = 2 * room.electron_charge * room.bandwidth * (
        chain * mean_i * budget.gain_sum
        + room.background_current * room.noise_factor
    ) * room.noise_scale
    if abs(budget.sigma ** 2 - var) > 1e-30:
        return False, "noise variance assembly"
    if abs(budget.eff_gain - room.current_swing * chain * budget.gain_sum) > 1e-24:
        return False, "effective gain assembly"
    if abs(budget.osnr_db + 10 * math.log10(budget.sigma_eff)) > 1e-9:
        return False, "OSNR definition"
    return True, "variance, gain, and OSNR assemble from SI parts"


def run_property_suite(code: BinaryBlockCode = GOLAY, seed: int = 0):
    """Run every property check and return a list of PropertyResult.

    ``code`` is the block code all code-dependent checks run against; pass a
    corrupted generator to confirm the suite can fail.
    """
    rng = np.random.default_rng(seed)
    checks = [
        ("q_function_reference", _check_q_function_reference),
        ("simplex_volume_identities", _check_volume_identities),
        ("shaping_solver_targets", _check_shaping_solver),
        ("rate_kernel_inverse", _check_kernel_inverse),
        ("golay_weight_enumerator", lambda: _check_weight_enumerator(code)),
        ("golay_self_dual", lambda: _check_self_dual(code)),
        ("code_hard_decoding", lambda: _check_hard_decoding(code, rng)),
        ("dn_nearest_exhaustive", lambda: _check_dn_nearest(rng)),
        ("half_lattice_bdd_certificate", lambda: _check_half_lattice_bdd(code, rng)),
        ("leech_bdd_certificate", lambda: _check_leech_bdd(code, rng)),
        ("shell_count_dp", _check_shell_counts),
        ("shell_rank_bijection", _check_shell_bijection),
        ("shell_selection_stats", _check_selection_stats),
        ("shell_sampler_uniformity", lambda: _check_sampler_uniformity(rng)),
        ("constraint_feasibility_exact", _check_feasibility),
        ("map_demap_roundtrip", lambda: _check_map_roundtrip(rng)),
        ("mapped_average_3sigma", lambda: _check_mapped_average(rng)),
        ("simulator_determinism", _check_simulator_determinism),
        ("indoor_geometry", _check_indoor_geometry),
        ("indoor_unit_audit", _check_indoor_units),
    ]
    results = []
    for name, fn in checks:
        try:
            passed, detail = fn()
        except Exception as exc:
            passed, detail = False, f"raised {exc!r}"
        results.append(PropertyResult(name=name, passed=passed, detail=detail))
    return results
