"""Tests for the indoor Lambertian room model and position-averaged SER."""

import math

import numpy as np
import pytest

from oslc import constellations as con
from oslc import indoor
from oslc.indoor import RoomConfig, chip_positions, lambertian_gain, link_budget


@pytest.fixture(scope="module")
def room():
    return RoomConfig()


class TestGeometry:
    def test_lambert_order_is_one_at_sixty_degrees(self, room):
        assert room.lambert_order == pytest.approx(1.0, abs=1e-14)

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

    def test_grid_step_validated(self, room):
        with pytest.raises(ValueError):
            indoor.osnr_map(room, 0.0, 0.3)


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

    def test_argument_validation(self, room):
        spec = con.build_cubic_spec(5, 0.2)
        with pytest.raises(ValueError):
            indoor.survey_ser(room, spec, n_positions=0, trials_per_pos=10)


class TestPublishedAverage:
    def test_shaped_lattice_design_at_low_dimming(self, room):
        # position-averaged SER for the shaped design at alpha = 0.2;
        # published table value 7.501e-4, verified here within a factor of 3
        spec = con.build_oslc_spec(5, 0.2)
        got = indoor.survey_ser(room, spec, n_positions=30, trials_per_pos=30_000, seed=0).ser
        assert 7.501e-4 / 3.0 < got < 7.501e-4 * 3.0
