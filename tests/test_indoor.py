"""Tests for the indoor Lambertian room model and position-averaged SER."""

import json
import math
import os
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from oslc import constellations as con
from oslc import indoor, simulate
from oslc.indoor import RoomConfig, chip_positions, lambertian_gain, link_budget


@pytest.fixture(scope="module")
def room():
    return RoomConfig()


def reference_gain(chip_pos, pd_pos, room):
    """The gain expression written directly, with a row sum and np.where:
    lambertian_gain evaluates the same float64 operations in the same order,
    so it must match this bit for bit."""
    chips = np.atleast_2d(np.asarray(chip_pos, dtype=np.float64))
    pd = np.asarray(pd_pos, dtype=np.float64)
    diff = chips - pd
    d2 = (diff ** 2).sum(axis=1)
    d = np.sqrt(d2)
    cos_both = diff[:, 2] / d
    m = room.lambert_order
    h = (
        (m + 1.0)
        * room.detector_area
        / (2.0 * math.pi * d2)
        * cos_both ** m
        * room.filter_gain
        * room.concentrator_gain
        * cos_both
    )
    h = np.where(cos_both >= math.cos(math.radians(room.fov_deg)), h, 0.0)
    return float(h[0]) if np.asarray(chip_pos).ndim == 1 else h


# The default room, collapsed lamps, a field of view that leaves cells with
# no gain at all, and 40 x 40 chips per lamp.
ORACLE_ROOMS = {
    "default": RoomConfig(),
    "collapsed": RoomConfig(collapse_lamps=True),
    "fov30": RoomConfig(fov_deg=30.0),
    "6400chips": RoomConfig(chips_per_side=40),
}


class TestGeometry:
    def test_concentrator_gain(self, room):
        assert room.concentrator_gain == pytest.approx(3.0, rel=1e-14)

    def test_chip_grid_shape_and_pitch(self, room):
        chips = chip_positions(room)
        assert chips.shape == (4 * 49, 3)
        first_lamp = chips[:49]
        assert first_lamp[:, 0].min() == pytest.approx(-1.6 - 0.03)
        assert first_lamp[:, 0].max() == pytest.approx(-1.6 + 0.03)
        assert np.all(chips[:, 2] == 3.0)

    def test_on_axis_closed_form(self, room):
        chip = np.array([-1.6, -1.6, 3.0])
        pd = np.array([-1.6, -1.6, 0.6])
        m = room.lambert_order
        d2 = 2.4**2
        want = (
            (m + 1.0)
            * room.detector_area
            * room.filter_gain
            * room.concentrator_gain
            / (2.0 * math.pi * d2)
        )
        assert lambertian_gain(chip, pd, room) == pytest.approx(want, rel=1e-12)

    def test_field_of_view_cutoff(self, room):
        chip = np.array([1.6, 1.6, 3.0])
        pd = np.array([-3.5, -3.5, 0.6])
        # incidence angle ~71.6 degrees, beyond the 60 degree field of view
        assert lambertian_gain(chip, pd, room) == 0.0

    @pytest.mark.parametrize("name", list(ORACLE_ROOMS))
    def test_bitwise_equal_to_the_reference_expression(self, name):
        room = ORACLE_ROOMS[name]
        rng = np.random.default_rng(5)
        for _ in range(50):
            pd = np.array([*rng.uniform(-3, 3, size=2), room.pd_height])
            got = lambertian_gain(room._chips, pd, room)
            assert got.tobytes() == reference_gain(room._chips, pd, room).tobytes()
        chip = room._chips[-1]
        assert lambertian_gain(chip, tuple(pd), room) == reference_gain(chip, pd, room)

    def test_against_vector_algebra_oracle(self, room):
        rng = np.random.default_rng(2)
        m = room.lambert_order
        cut = math.cos(math.radians(room.fov_deg))
        for _ in range(100):
            chip = np.array([*rng.uniform(-2, 2, size=2), room.lamp_height])
            pd = np.array([*rng.uniform(-4, 4, size=2), room.pd_height])
            vec = chip - pd
            d = math.sqrt(float(vec @ vec))
            cos_phi = (chip[2] - pd[2]) / d  # emitter faces straight down
            cos_psi = vec[2] / d             # detector faces straight up
            if cos_psi < cut:
                want = 0.0
            else:
                want = (
                    (m + 1.0)
                    * room.detector_area
                    / (2.0 * math.pi * d * d)
                    * cos_phi**m
                    * room.filter_gain
                    * room.concentrator_gain
                    * cos_psi
                )
            got = lambertian_gain(chip, pd, room)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-30)


class TestRoomValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"noise_scale": math.nan}, "noise_scale must be a finite number"),
            ({"lamp_height": math.inf}, "lamp_height must be a finite number"),
            ({"pd_height": -math.inf}, "pd_height must be a finite number"),
            ({"semi_angle_deg": math.nan}, "semi_angle_deg must be a finite number"),
            ({"lamp_height": "3"}, "lamp_height must be a finite number"),
            ({"sample_halfwidth": math.nan}, "sample_halfwidth must be a finite number"),
            ({"sample_halfwidth": math.inf}, "sample_halfwidth must be a finite number"),
            ({"sample_halfwidth": -1.0}, "sample_halfwidth must be positive"),
            ({"sample_halfwidth": 0.0}, "sample_halfwidth must be positive"),
            ({"chips_per_side": 0}, "chips_per_side must be an integer of at least 1"),
            ({"chips_per_side": -3}, "chips_per_side must be an integer of at least 1"),
            ({"chips_per_side": 2.5}, "chips_per_side must be an integer of at least 1"),
            # a bool was taken as 1 chip, a 1 m lamp height and a lamp at x = 1
            ({"chips_per_side": True}, "chips_per_side must be an integer of at least 1"),
            ({"lamp_height": True}, "lamp_height must be a finite number"),
            ({"lamp_height": 10**400}, "lamp_height must be a finite number"),
            ({"lamp_xy": ((True, 0),)}, "lamp_xy must be one or more finite"),
            ({"lamp_xy": 5}, "lamp_xy must be one or more finite"),
            ({"lamp_xy": [5]}, "lamp_xy must be one or more finite"),
            ({"lamp_xy": ["ab"]}, "lamp_xy must be one or more finite"),
            # a truthy string would collapse the lamps
            ({"collapse_lamps": "no"}, "collapse_lamps must be true or false"),
            ({"collapse_lamps": 1}, "collapse_lamps must be true or false"),
            ({"lamp_xy": ((0.0, math.nan),)}, "lamp_xy must be one or more finite"),
            ({"lamp_xy": ((math.inf, 0.0), (1.0, 1.0))}, "lamp_xy must be one or more finite"),
            ({"lamp_xy": ((1.0,),)}, "lamp_xy must be one or more finite"),
            ({"lamp_xy": ()}, "lamp_xy must be one or more finite"),
            ({"pd_height": 3.0}, "pd_height must be below lamp_height"),
            ({"semi_angle_deg": -5.0}, "semi_angle_deg must be positive"),
            ({"fov_deg": 90.0}, r"must be in \(0, 90\) deg"),
            ({"chips_per_side": 159}, r"chips_per_side\*\*2 must be at most 100000, got 101124"),
            ({"chips_per_side": 100_000}, r"must be at most 100000, got 40000000000"),
            ({"lamp_xy": ((0.0, 0.0),) * 2041}, r"len\(lamp_xy\) \* chips_per_side"),
        ],
    )
    def test_rejects_bad_room(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RoomConfig(**kwargs)

    def test_chip_bound_admits_100000(self):
        assert len(RoomConfig(chips_per_side=158)._chips) == 99_856

    def test_fields_are_stored_as_checked(self):
        # a list of lists stayed mutable inside the frozen room
        room = RoomConfig(lamp_xy=[[0, 1], np.array([2.5, -1])], chips_per_side=np.int64(3),
                          lamp_height=3)
        assert room.lamp_xy == ((0.0, 1.0), (2.5, -1.0))
        assert {type(c) for xy in room.lamp_xy for c in xy} == {float}
        assert type(room.chips_per_side) is int and type(room.lamp_height) is float
        corners = [[-1.6, -1.6], [-1.6, 1.6], [1.6, -1.6], [1.6, 1.6]]
        assert RoomConfig(lamp_xy=corners) == RoomConfig()


class TestLinkBudget:
    def test_center_osnr_in_published_window(self, room):
        assert 24.0 <= link_budget(room, (0.0, 0.0), 0.3).osnr_db <= 27.0

    def test_corner_below_center(self, room):
        center = link_budget(room, (0.0, 0.0), 0.3).osnr_db
        corner = link_budget(room, (2.0, 2.0), 0.3).osnr_db
        assert corner < center

    def test_more_gain_raises_osnr(self, room):
        # doubling the collected signal doubles eff_gain but the shot-noise
        # variance is only affine in it, so OSNR must rise
        bigger = RoomConfig(detector_area=2 * room.detector_area)
        assert (
            link_budget(bigger, (0.0, 0.0), 0.3).osnr_db
            > link_budget(room, (0.0, 0.0), 0.3).osnr_db
        )

    def test_unit_audit(self, room):
        b = link_budget(room, (0.7, -0.4), 0.25)
        mean_current = room.current_min + 0.25 * (room.current_max - room.current_min)
        shot = room.responsivity * room.eo_gain * mean_current * b.gain_sum
        var = (
            2.0
            * room.electron_charge
            * room.bandwidth
            * (shot + room.background_current * room.noise_factor)
            * room.noise_scale
        )
        assert b.sigma == pytest.approx(math.sqrt(var), rel=1e-12)
        eff = 0.2 * room.responsivity * room.eo_gain * b.gain_sum
        assert b.eff_gain == pytest.approx(eff, rel=1e-12)
        assert b.sigma_eff == pytest.approx(b.sigma / b.eff_gain, rel=1e-12)
        assert b.osnr_db == pytest.approx(-10.0 * math.log10(b.sigma_eff), rel=1e-12)

    def test_collapsed_lamps_stay_within_a_tenth_db(self, room):
        collapsed = RoomConfig(collapse_lamps=True)
        for xy in ((0.0, 0.0), (2.0, 2.0), (-1.0, 0.5)):
            full = link_budget(room, xy, 0.3).osnr_db
            approx = link_budget(collapsed, xy, 0.3).osnr_db
            assert abs(full - approx) < 0.1

    @pytest.mark.parametrize(
        "alpha", [math.nan, math.inf, -5.0, 0.0, 0.5, 2, True, None, "0.3"]
    )
    def test_alpha_outside_the_designs_range_is_rejected(self, room, alpha):
        # NaN gave osnr_db = nan, and a negative alpha a bare math domain error
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1/2\)"):
            link_budget(room, (0.0, 0.0), alpha)

    @pytest.mark.parametrize("xy", [(math.nan, 0.0), (0.0, math.inf), (True, 0.0), ("1", 0.0)])
    def test_position_must_be_finite(self, room, xy):
        # NaN gave osnr_db = -inf, as if the position had no light
        with pytest.raises(ValueError, match="pd_xy must be a finite number"):
            link_budget(room, xy, 0.3)

    def test_alpha_of_any_real_kind(self, room):
        want = link_budget(room, (0.5, -0.5), 0.3)
        for alpha in (np.float64(0.3), Fraction("0.3")):
            assert link_budget(room, (0.5, -0.5), alpha) == want

    def test_zero_coverage_yields_infinite_noise(self):
        narrow = RoomConfig(fov_deg=5.0)
        b = link_budget(narrow, (0.0, 0.0), 0.3)
        assert b.gain_sum == 0.0
        assert b.osnr_db == -math.inf
        assert b.sigma_eff == math.inf


class TestOsnrMap:
    def test_four_fold_symmetry(self, room):
        m = indoor.osnr_map(room, 0.5, 0.3)
        vals = m.osnr_db
        assert np.allclose(vals, vals[::-1, :], atol=1e-9)
        assert np.allclose(vals, vals[:, ::-1], atol=1e-9)
        assert np.allclose(vals, vals.T, atol=1e-9)

    def test_extremes_inside_published_window(self, room):
        m = indoor.osnr_map(room, 0.5, 0.3)
        assert m.osnr_db.min() >= 24.0
        assert m.osnr_db.max() <= 27.0

    def test_rerun_is_identical(self, room):
        a = indoor.osnr_map(room, 0.5, 0.3)
        b = indoor.osnr_map(room, 0.5, 0.3)
        assert np.array_equal(a.osnr_db, b.osnr_db)
        assert np.array_equal(a.xs, b.xs)

    @pytest.mark.parametrize("collapse", [False, True])
    def test_bitwise_equal_to_fresh_chip_grid(self, collapse):
        # every cell computed from a fresh chip_positions array, in the same
        # order of operations as link_budget
        room = RoomConfig(collapse_lamps=collapse)
        alpha = 0.3
        weight = room.chips_per_side ** 2 if collapse else 1
        chain = room.responsivity * room.eo_gain
        m = indoor.osnr_map(room, 0.5, alpha)
        want = np.empty_like(m.osnr_db)
        for i, x in enumerate(m.xs):
            for j, y in enumerate(m.ys):
                pd = np.array([float(x), float(y), room.pd_height])
                gain_sum = weight * float(
                    np.sum(lambertian_gain(chip_positions(room), pd, room))
                )
                shot_current = chain * room.mean_current(alpha) * gain_sum
                var = (
                    2.0
                    * room.electron_charge
                    * room.bandwidth
                    * (shot_current + room.background_current * room.noise_factor)
                    * room.noise_scale
                )
                eff_gain = room.current_swing * chain * gain_sum
                want[i, j] = -10.0 * math.log10(math.sqrt(var) / eff_gain)
        assert np.array_equal(m.osnr_db, want)

        cached = room._chips
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0
        fresh = chip_positions(room)
        assert fresh.flags.writeable and fresh is not cached
        assert np.array_equal(fresh, cached)

    def test_grid_step_validated(self, room, fail_if_priced):
        # a bool priced a 1 m grid, and a string raised TypeError
        for step in (0.0, -0.5, math.nan, math.inf, True, "0.5", None):
            with pytest.raises(ValueError, match="positive and finite"):
                indoor.osnr_map(room, step, 0.3)
        # 0.0099 m gives 406 points per side over the 4 m floor; 401 is the cap
        for step in (0.0099, 0.001, 1e-300):
            with pytest.raises(ValueError, match="points per side"):
                indoor.osnr_map(room, step, 0.3)

    def test_grid_cap_admits_a_centimetre_step(self, room, monkeypatch):
        monkeypatch.setattr(
            indoor, "link_budget", lambda *args: SimpleNamespace(osnr_db=25.0)
        )
        m = indoor.osnr_map(room, 0.01, 0.3)
        assert m.osnr_db.shape == (401, 401)

    @pytest.mark.parametrize("name", list(ORACLE_ROOMS))
    def test_bitwise_equal_to_a_map_of_reference_gains(self, name, monkeypatch):
        room = ORACLE_ROOMS[name]
        steps = (1.0, 0.5, 0.2)
        got = [indoor.osnr_map(room, step, 0.3).osnr_db for step in steps]
        monkeypatch.setattr(indoor, "lambertian_gain", reference_gain)
        want = [indoor.osnr_map(room, step, 0.3).osnr_db for step in steps]
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        if name == "fov30":
            assert np.isneginf(got[-1]).any() and np.isfinite(got[-1]).any()

    @pytest.mark.parametrize("alpha", [math.nan, -5.0, 0.5, None])
    def test_alpha_checked_before_any_cell(self, room, fail_if_priced, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1/2\)"):
            indoor.osnr_map(room, 1.0, alpha)


class TestOsnrMapRows:
    def test_checks_run_before_the_first_row(self, room, fail_if_priced):
        for step, alpha in ((0.0, 0.3), (0.001, 0.3), (0.5, math.nan)):
            with pytest.raises(ValueError):
                indoor.osnr_map_rows(room, step, alpha)
        indoor.osnr_map_rows(room, 0.5, 0.3)  # prices nothing until iterated

    def test_each_step_prices_one_row(self, room, monkeypatch):
        cells = []

        def budget(room, xy, alpha):
            cells.append(xy)
            return SimpleNamespace(osnr_db=float(len(cells)))

        monkeypatch.setattr(indoor, "link_budget", budget)
        omap, rows = indoor.osnr_map_rows(room, 1.0, 0.3)
        assert next(rows) == 0
        assert cells == [(-2.0, y) for y in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        assert list(rows) == [1, 2, 3, 4]
        assert omap.osnr_db.tolist() == np.arange(1.0, 26.0).reshape(5, 5).tolist()


class TestWorkBound:
    # 158 x 158 chips per lamp, 99,856 in all: the largest room accepted
    BIG = {"chips_per_side": 158}

    def test_heatmap_cells_times_chips(self, fail_if_priced):
        room = RoomConfig(**self.BIG)
        with pytest.raises(
            ValueError,
            match=r"heatmap cells x chips must be at most 50000000, got 1681 x 99856",
        ):
            indoor.osnr_map_rows(room, 0.1, 0.3)
        indoor.osnr_map_rows(room, 0.2, 0.3)  # 441 cells
        # collapsed, the same room has 4 chips
        indoor.osnr_map_rows(RoomConfig(**self.BIG, collapse_lamps=True), 0.01, 0.3)

    def test_survey_positions_times_chips(self, fail_if_priced):
        room = RoomConfig(**self.BIG)
        spec = con.build_cubic_spec(2, 0.2)
        with pytest.raises(
            ValueError,
            match=r"positions x chips must be at most 50000000, got 501 x 99856",
        ):
            indoor.survey_ser(room, spec, n_positions=501, trials_per_pos=10)
        indoor.check_survey(room, 500, 10, 1)
        indoor.check_survey(RoomConfig(), 100_000, 10, 1)


class TestSurvey:
    def test_bookkeeping_and_determinism(self, room):
        spec = con.build_cubic_spec(5, 0.2)
        a = indoor.survey_ser(room, spec, n_positions=10, trials_per_pos=500, seed=3)
        b = indoor.survey_ser(room, spec, n_positions=10, trials_per_pos=500, seed=3)
        assert a.trials == 10 * 500
        assert a.errors == sum(r.errors for r in a.records)
        assert a.ser == a.errors / a.trials
        assert np.array_equal(a.positions, b.positions)
        assert a.records == b.records
        assert np.all(np.abs(a.positions) <= room.sample_halfwidth)

    def test_literal_oversized_sampling_mode(self):
        wide = RoomConfig(sample_halfwidth=4.0)
        spec = con.build_cubic_spec(5, 0.2)
        s = indoor.survey_ser(wide, spec, n_positions=40, trials_per_pos=50, seed=5)
        assert np.abs(s.positions).max() > 2.0

    def test_estimator_converges_with_position_count(self, room):
        spec = con.build_cubic_spec(5, 0.2)
        a = indoor.survey_ser(room, spec, n_positions=20, trials_per_pos=2000, seed=31).ser
        b = indoor.survey_ser(room, spec, n_positions=40, trials_per_pos=2000, seed=31).ser
        assert abs(a - b) < 0.05
        assert 0.25 < a < 0.5

    def test_zero_coverage_positions_count_as_pure_errors(self):
        narrow = RoomConfig(fov_deg=5.0)
        spec = con.build_cubic_spec(5, 0.2)
        s = indoor.survey_ser(narrow, spec, n_positions=3, trials_per_pos=100, seed=1)
        assert s.ser == 1.0
        assert all(r.ser == 1.0 for r in s.records)

    @pytest.mark.parametrize(("noise_scale", "osnr"), [(1e40, -167.9), (1e-70, 382.1)])
    def test_osnr_outside_the_simulated_range(self, noise_scale, osnr):
        # a finite position OSNR goes through simulate_ser's range check
        quiet = RoomConfig(noise_scale=noise_scale)
        assert link_budget(quiet, (0.0, 0.0), 0.2).osnr_db == pytest.approx(osnr, abs=0.1)
        spec = con.build_tcc_spec(2, 0.2)
        with pytest.raises(ValueError, match="osnr_db must lie in"):
            indoor.survey_ser(quiet, spec, n_positions=3, trials_per_pos=10)

    def test_argument_validation(self, room):
        spec = con.build_cubic_spec(5, 0.2)
        with pytest.raises(ValueError):
            indoor.survey_ser(room, spec, n_positions=0, trials_per_pos=10)
        # a bool or a float used to pass as a count: True ran one trial
        for key, value in (("trials_per_pos", True), ("trials_per_pos", 10.0),
                           ("n_positions", 2.5), ("threads", 2.5)):
            kwargs = {"n_positions": 2, "trials_per_pos": 10, key: value}
            with pytest.raises(ValueError, match=f"{key} must be an integer"):
                indoor.survey_ser(room, spec, **kwargs)
        # -1 failed inside NumPy without naming the seed
        for seed in (-1, True, 1.0):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                indoor.survey_ser(room, spec, n_positions=2, trials_per_pos=10, seed=seed)

    def test_numpy_integer_sizes_give_python_ints(self, room):
        # an int64 trial count came back as the survey's total, which
        # json.dumps rejects
        spec = con.build_cubic_spec(2, 0.2)
        s = indoor.survey_ser(room, spec, n_positions=np.int64(2),
                              trials_per_pos=np.int64(10), seed=np.int64(4))
        assert type(s.trials) is int
        json.dumps({"trials": s.trials, "errors": s.errors})
        want = indoor.survey_ser(room, spec, n_positions=2, trials_per_pos=10, seed=4)
        assert s.records == want.records

    def test_worker_budget_checked_without_coverage(self):
        # no position has optical gain, so simulate_ser never runs
        spec = con.build_cubic_spec(5, 0.2)
        with pytest.raises(ValueError):
            indoor.survey_ser(
                RoomConfig(fov_deg=5.0), spec, n_positions=3, trials_per_pos=10, threads=0
            )

    def test_every_position_checked_before_any_runs(self, monkeypatch):
        # The first position lies in the simulated OSNR range, later ones
        # below it; the survey must fail before its first batch.
        quiet = RoomConfig(noise_scale=3e26)
        osnrs, batches = [], []

        def budget(*args):
            out = link_budget(*args)
            osnrs.append(out.osnr_db)
            return out

        monkeypatch.setattr(indoor, "link_budget", budget)
        monkeypatch.setattr(simulate, "_simulate_batch", lambda *args: batches.append(args))
        spec = con.build_cubic_spec(5, 0.2)
        with pytest.raises(ValueError, match="osnr_db must lie in"):
            indoor.survey_ser(quiet, spec, n_positions=4, trials_per_pos=10, seed=1)
        assert -100.0 < osnrs[0] and min(osnrs) < -100.0
        assert batches == []

    def test_draws_match_the_recorded_survey(self, room):
        # Positions, per-position seeds and counts recorded from one run; a
        # change to the position draw or the seed rule fails here.
        spec = con.build_cubic_spec(5, 0.2)
        s = indoor.survey_ser(room, spec, n_positions=6, trials_per_pos=2 * 4096, seed=11)
        assert s.positions.tolist() == [
            [0.4483774106866498, 0.9473539667551432],
            [1.6681118807233801, -1.5276609875867395],
            [-1.1695947764546255, -1.0428069268563047],
            [1.053063222111053, -0.9455473300978152],
            [1.617000127054478, 0.5341645485299509],
            [-0.1543676264725664, 1.8634410763381255],
        ]
        assert [(r.trials, r.errors, r.seed) for r in s.records] == [
            (8192, 3031, 3926704849073358691),
            (8192, 2666, 2926583794887213564),
            (8192, 2255, 215141457385765089),
            (8192, 2382, 15564452721439488421),
            (8192, 2971, 2213756741557572059),
            (8192, 3897, 11894170964619036052),
        ]
        assert [r.osnr_db for r in s.records] == pytest.approx([
            25.581617196768907, 25.726452193954962, 25.834318971586143,
            25.779249528220273, 25.582118990970223, 25.337411944908133,
        ], rel=1e-12)
        assert (s.trials, s.errors) == (49152, 17202)

    def test_shared_pool_matches_serial(self, room):
        spec = con.build_cubic_spec(5, 0.2)
        kwargs = dict(n_positions=4, trials_per_pos=9000, seed=7)
        one = indoor.survey_ser(room, spec, threads=1, **kwargs)
        two = indoor.survey_ser(room, spec, threads=2, **kwargs)
        assert one.records == two.records
        assert np.array_equal(one.osnr_db, two.osnr_db)
        assert one.errors > 0

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
    def test_heatmap_priced_while_the_survey_runs(self, room, monkeypatch):
        # Two real workers: the parent prices heatmap rows while it waits on
        # them, so at least one row is done before the last position's
        # batches commit; every row is done when the survey returns.
        spec = con.build_cubic_spec(5, 0.2)
        kwargs = dict(n_positions=4, trials_per_pos=2 * 4096, seed=7)
        points_done, rows_seen = [], []
        run_point = simulate.simulate_ser

        def spy_point(*args, **kw):
            rec = run_point(*args, **kw)
            points_done.append(rec)
            return rec

        def spy(rows):
            for row in rows:
                rows_seen.append((row, len(points_done)))
                yield row

        monkeypatch.setattr(simulate, "simulate_ser", spy_point)
        omap, rows = indoor.osnr_map_rows(room, 0.25, 0.3)
        two = indoor.survey_ser(room, spec, threads=2, steps=spy(rows), **kwargs)
        assert [row for row, _ in rows_seen] == list(range(17))
        assert rows_seen[0][1] < 4
        one = indoor.survey_ser(room, spec, threads=1, **kwargs)
        assert one.records == two.records
        assert omap.osnr_db.tobytes() == indoor.osnr_map(room, 0.25, 0.3).osnr_db.tobytes()

    def test_one_pool_per_survey(self, room, inline_pools):
        spec = con.build_cubic_spec(5, 0.2)
        kwargs = dict(n_positions=5, trials_per_pos=9000, seed=4)
        serial = indoor.survey_ser(room, spec, threads=1, **kwargs)
        assert inline_pools == []
        assert indoor.survey_ser(room, spec, threads=64, **kwargs).records == serial.records
        assert inline_pools == [3]


class TestPublishedAverage:
    def test_shaped_lattice_design_at_low_dimming(self, room):
        # position-averaged SER for the shaped design at alpha = 0.2;
        # published table value 7.501e-4, verified here within a factor of 3
        spec = con.build_oslc_spec(5, 0.2)
        got = indoor.survey_ser(room, spec, n_positions=30, trials_per_pos=30_000, seed=0).ser
        assert 7.501e-4 / 3.0 < got < 7.501e-4 * 3.0
