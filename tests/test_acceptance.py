"""Release acceptance gate.

One test per committed criterion, thirteen in all, each asserting the stated
tolerance.  Monte Carlo budgets and seeds are frozen so the gate is
deterministic; wall-clock limits are asserted where a criterion carries one.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oslc import constellations as con
from oslc import indoor, lattices, shaping, shells
from oslc import simulate as sim
from oslc.codes import GOLAY
from rational_volume import exact_tail, exact_volume

DB = 10.0 / math.log(10.0)
ALPHA_GRID = [round(0.10 + 0.05 * i, 2) for i in range(8)]  # 0.10 .. 0.45


def osnr_at(records, target):
    """Log-linear OSNR readout of an SER sweep at the target error rate."""
    pts = [(r.osnr_db, r.ser) for r in records if r.errors > 0]
    for (o1, s1), (o2, s2) in zip(pts, pts[1:]):
        if s1 >= target >= s2 and s1 > s2:
            frac = (math.log10(target) - math.log10(s1)) / (
                math.log10(s2) - math.log10(s1)
            )
            return o1 + frac * (o2 - o1)
    raise AssertionError(f"sweep never crosses SER {target:g}: {pts}")


def ball_noise(rng, count, dim, radius):
    """Points drawn uniformly from a ball of the given radius, scaled by 0.999."""
    z = rng.standard_normal((count, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z * (0.999 * radius * rng.random(count) ** (1.0 / dim))[:, None]


def test_criterion_01_truncation_solver_self_consistency():
    start = time.perf_counter()
    for n in range(2, 33):
        for alpha in (0.1, 0.2, 0.3, 0.4):
            sol = shaping.solve_t_star(n, alpha)
            if alpha <= 1.0 / (n + 1):
                assert sol.t_star == (n + 1) * alpha, (n, alpha)
            else:
                resid = abs(shaping.avg_first_moment(n, sol.t_star) - alpha)
                assert resid <= 1e-9, (n, alpha, resid)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: 124 solves consistent, {elapsed:.2f} s")
    assert elapsed < 5.0


def test_criterion_02_explicit_parameter_convergence():
    start = time.perf_counter()
    for alpha in (0.2, 0.3):
        mu = shaping.solve_mu_star(alpha)

        def gap(n):
            # solve_t_star refines by bisection to 1e-10, which serves as
            # the oracle for the explicit n*alpha + 1/mu formula
            return abs(shaping.solve_t_star(n, alpha).t_star - n * alpha - 1.0 / mu)

        assert gap(32) < gap(4), alpha
        for n in range(8, 33):
            assert gap(n) < 0.05, (n, alpha, gap(n))
    elapsed = time.perf_counter() - start
    print(f"criterion 2: explicit form converges, {elapsed:.2f} s")
    assert elapsed < 5.0


def test_criterion_03_second_order_gain_accuracy():
    worst, worst_at = 0.0, None
    for n in range(16, 33):
        for alpha in ALPHA_GRID:
            sol = shaping.solve_t_star(n, alpha)
            gap = abs(sol.sg_db - sol.sg_db_approx)
            if gap > worst:
                worst, worst_at = gap, (n, alpha)
    print(f"criterion 3: worst second-order gap {worst:.4f} dB at {worst_at}")
    assert worst <= 0.1, (
        f"second-order shaping gain misses the exact value by {worst:.4f} dB "
        f"at (n, alpha) = {worst_at}; required accuracy 0.1 dB"
    )


def test_criterion_04_asymptote_gap_at_32_dims():
    gaps = {}
    for alpha in ALPHA_GRID:
        limit_db = DB * (shaping.h_max(alpha) - math.log(2.0 * alpha))
        gaps[alpha] = abs(shaping.solve_t_star(32, alpha).sg_db - limit_db)
    worst = max(gaps, key=gaps.get)
    print(f"criterion 4: worst distance to the limit {gaps[worst]:.4f} dB at alpha={worst}")
    assert all(g <= 0.2 for g in gaps.values()), (
        f"shaping gain at n=32 sits {gaps[worst]:.4f} dB from the large-n "
        f"asymptote at alpha={worst}; required 0.2 dB "
        f"(all gaps: { {a: round(g, 4) for a, g in gaps.items()} })"
    )


def test_criterion_05_small_alpha_gain_limits():
    limit_db = DB * (shaping.h_max(1e-3) - math.log(2e-3))
    assert limit_db == pytest.approx(10.0 * math.log10(math.e / 2.0), abs=0.02)
    assert limit_db == pytest.approx(1.33, abs=0.02)
    quad_db = limit_db + 10.0 * math.log10(math.pi / 3.0)
    assert quad_db == pytest.approx(1.53, abs=0.02)
    print(f"criterion 5: limits {limit_db:.4f} dB and {quad_db:.4f} dB")


def test_criterion_06_golay_enumerator_and_soft_decoding():
    start = time.perf_counter()
    assert GOLAY.weight_enumerator() == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}

    rng = np.random.default_rng(6)
    cost0 = rng.standard_normal((1000, 24))
    cost1 = rng.standard_normal((1000, 24))
    book = GOLAY.codebook
    brute = np.argmin(cost0 @ (1 - book).T + cost1 @ book.T, axis=1)
    assert np.array_equal(GOLAY.soft_ml_decode_batch(cost0, cost1), brute)
    for i in range(0, 1000, 20):
        res = GOLAY.soft_ml_decode(cost0[i], cost1[i])
        assert np.array_equal(res.codeword, book[brute[i]])
    elapsed = time.perf_counter() - start
    print(f"criterion 6: enumerator and 1000 ML decodes verified, {elapsed:.2f} s")
    assert elapsed < 10.0


def test_criterion_07_bounded_distance_certificates():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    trials = 10_000

    cw = GOLAY.codebook[rng.integers(0, len(GOLAY.codebook), trials)].astype(np.int64)
    d = rng.integers(-4, 5, size=(trials, 24))
    d[d.sum(axis=1) % 2 == 1, 0] += 1
    half_pts = cw + 2 * d
    y = half_pts + ball_noise(rng, trials, 24, math.sqrt(2.0))
    assert np.array_equal(lattices.bdd_half_lattice_batch(y), half_pts)

    cw = GOLAY.codebook[rng.integers(0, len(GOLAY.codebook), trials)].astype(np.int64)
    d = rng.integers(-4, 5, size=(trials, 24))
    d[d.sum(axis=1) % 2 == 1, 0] += 1
    leech = 2 * (cw + 2 * d) + rng.integers(0, 2, trials)[:, None] * lattices.XI
    y = leech + ball_noise(rng, trials, 24, 2.0 * math.sqrt(2.0))
    decoded, _, _ = lattices.decode_shifted_union_batch(
        y, (np.zeros(24, dtype=np.int64), lattices.XI)
    )
    assert np.array_equal(decoded, leech)
    elapsed = time.perf_counter() - start
    print(f"criterion 7: 2x{trials} in-radius decodes exact, {elapsed:.2f} s")
    assert elapsed < 30.0


def test_criterion_08_shell_indexer_exhaustive():
    start = time.perf_counter()
    rng = np.random.default_rng(8)

    def member_sums(h, l):
        grids = np.meshgrid(*([np.arange(h + 1)] * 8), indexing="ij")
        sums = np.zeros((h + 1,) * 8, dtype=np.int32)
        for g in grids:
            sums += g
        return sums[(sums % 2 == 0) & (sums <= 2 * l)]

    for _ in range(5):
        h = int(rng.integers(1, 6))
        l = int(rng.integers(1, 4 * h + 1))
        assert shells.TdIndexer(8, h, l).count == member_sums(h, l).size, (h, l)

    indexer = shells.TdIndexer(8, 7, 14)
    seen = set()
    for i in range(2**12):
        p = indexer.unrank(i)
        seen.add(tuple(int(v) for v in p))
        assert indexer.rank(p) == i
        assert p.max() <= 7 and p.sum() % 2 == 0 and p.sum() <= 28
    assert len(seen) == 2**12

    small = shells.TdIndexer(8, 4, 9)
    all_l1 = np.sort(member_sums(4, 9))
    assert small.count == all_l1.size
    for m_s in (2**12, small.count // 2, small.count - 1):
        sel = small.selection(m_s)
        assert sel.mean_l1 == Fraction(int(all_l1[:m_s].sum()), m_s)
        assert sel.s_star == int(all_l1[m_s - 1])
        below = int(np.searchsorted(all_l1, sel.s_star))
        assert below == m_s - sel.partial
    elapsed = time.perf_counter() - start
    print(f"criterion 8: counts, bijection, least-l1 all exhaustive, {elapsed:.2f} s")
    assert elapsed < 60.0


def test_criterion_09_constraint_feasibility():
    for kind in ("oslc", "tcc", "cubic"):
        for beta in (2, 4, 5):
            for alpha in (0.2, 0.3):
                spec = con.build_spec(kind, beta, alpha)
                assert spec.kappa * spec.peak_unscaled <= 1
                assert spec.kappa * spec.avg_l1_unscaled / spec.n <= spec.alpha

    rng = np.random.default_rng(9)
    for kind in ("oslc", "tcc", "cubic"):
        spec = con.build_spec(kind, 4, 0.2)
        bits = rng.integers(0, 2, size=(100_000, spec.bits_per_symbol), dtype=np.int64)
        l1 = np.array([con.map_bits(spec, row).sum() for row in bits], dtype=np.float64)
        samples = float(spec.kappa) * l1 / spec.n
        closed = float(spec.kappa * spec.avg_l1_unscaled / spec.n)
        sd = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - closed) <= 3.0 * sd, (kind, samples.mean(), closed)
        print(f"criterion 9: {kind} mean intensity {samples.mean():.6f} "
              f"vs {closed:.6f} (3 sigma = {3 * sd:.2e})")


def test_criterion_10_union_bound_agreement():
    start = time.perf_counter()
    spec = con.build_oslc_spec(4, 0.2)
    records = sim.ser_sweep(
        spec,
        [22.25, 22.5, 22.75],
        seed=0,
        target_errors=150,
        max_trials=4_000_000,
        threads=2,
    )
    in_window = [r for r in records if 1e-4 <= r.ser <= 1e-2]
    assert len(in_window) >= 2, [r.ser for r in records]
    for r in in_window:
        assert r.errors >= 100, (r.osnr_db, r.errors)
        ratio = r.ser / r.ub
        print(f"criterion 10: {r.osnr_db} dB ser {r.ser:.3e} "
              f"ub {r.ub:.3e} ratio {ratio:.3f}")
        assert 0.5 <= ratio <= 2.0, (r.osnr_db, ratio)
    elapsed = time.perf_counter() - start
    print(f"criterion 10: {elapsed:.1f} s")
    assert elapsed <= 600.0


def test_criterion_11_relative_gains_at_desk_scale():
    budget = dict(seed=0, target_errors=150, max_trials=4_000_000)
    readouts = {}
    grids = {
        "oslc": [25.0, 25.5, 26.0, 26.5],
        "tcc": [26.0, 26.5, 27.0, 27.5],
        "cubic": [28.0, 28.5, 29.0, 29.5],
    }
    for kind, grid in grids.items():
        records = sim.ser_sweep(con.build_spec(kind, 5, 0.2), grid, **budget)
        readouts[kind] = osnr_at(records, 1e-4)
    gain_cubic = readouts["cubic"] - readouts["oslc"]
    gain_tcc = readouts["tcc"] - readouts["oslc"]
    print(f"criterion 11: beta 5 readouts {readouts}, "
          f"gain over cubic {gain_cubic:.2f} dB, over coded cube {gain_tcc:.2f} dB")
    assert 2.5 <= gain_cubic <= 3.5
    assert 0.5 <= gain_tcc <= 1.3

    low_grid = [15.5, 16.0, 16.5, 17.0, 17.5]
    low = {
        kind: osnr_at(sim.ser_sweep(con.build_spec(kind, 2, 0.2), low_grid, **budget), 1e-4)
        for kind in ("oslc", "tcc")
    }
    print(f"criterion 11: beta 2 readouts {low}")
    assert low["tcc"] <= low["oslc"] + 0.5


def test_criterion_12_indoor_scenario_reproduction():
    room = indoor.RoomConfig()
    center = indoor.link_budget(room, (0.0, 0.0), 0.3).osnr_db
    print(f"criterion 12: center OSNR {center:.2f} dB")
    assert 24.0 <= center <= 27.0

    table = [
        ("cubic", 0.2, 0.3004, 30, 3_000, 3.0),
        ("cubic", 0.3, 0.0196, 30, 8_000, 3.0),
        ("tcc", 0.2, 0.0241, 30, 8_000, 3.0),
    ]
    for kind, alpha, expected, n_pos, trials, factor in table:
        spec = con.build_spec(kind, 5, alpha)
        got = indoor.survey_ser(room, spec, n_positions=n_pos, trials_per_pos=trials, seed=0).ser
        print(f"criterion 12: {kind} alpha {alpha} ser {got:.4e} vs {expected:.4e}")
        assert expected / factor < got < expected * factor, (kind, alpha, got)

    spec = con.build_tcc_spec(5, 0.3)
    survey = indoor.survey_ser(room, spec, n_positions=50, trials_per_pos=340_000, seed=0)
    print(f"criterion 12: tcc alpha 0.3 ser {survey.ser:.3e} ({survey.errors} errors)")
    assert survey.errors >= 50
    assert 3.727e-6 / 5.0 < survey.ser < 3.727e-6 * 5.0

    spec = con.build_oslc_spec(5, 0.3)
    survey = indoor.survey_ser(room, spec, n_positions=30, trials_per_pos=30_000, seed=0)
    print(f"criterion 12: oslc alpha 0.3 ser {survey.ser:.3e}")
    assert survey.ser < 1e-5


def test_criterion_13_sum_of_uniforms_identities():
    for n in range(1, 11):
        for num in range(0, 4 * n + 1):
            x = Fraction(num, 4 * n)
            # tail and volume must agree exactly in rational arithmetic
            assert exact_tail(n, x) + exact_volume(n, n * x) == 1
            got = shaping.irwin_hall_tail(n, float(x))
            want = exact_tail(n, x)
            if want > 0:
                assert abs(got - float(want)) <= 1e-12 * float(want), (n, x)
            else:
                assert got == 0.0

    def ratio(n):
        return shaping.ld_tail_approx(n, 0.7) / shaping.irwin_hall_tail(n, 0.7)

    r8, r32, r64 = ratio(8), ratio(32), ratio(64)
    print(f"criterion 13: large-deviation ratios {r8:.3f}, {r32:.3f}, {r64:.3f}")
    assert 0.8 <= r32 <= 1.2
    assert abs(r8 - 1.0) > abs(r32 - 1.0) > abs(r64 - 1.0)
