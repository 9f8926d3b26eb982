"""Indoor optical wireless scenario: four ceiling lamps, one photodiode.

Line-of-sight Lambertian propagation from 4 x 49 emitter chips to a single
upward-facing detector turns the vector link into an equivalent scalar
channel y = x + z with noise deviation sigma / eff_gain, where eff_gain is
the current-swing-to-photocurrent gain summed over all chips.  OSNR in dB is
10 * log10(eff_gain / sigma), matching the 10 * log10(1 / sigma) convention
used everywhere else in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from numbers import Integral

import numpy as np

from .constellations import ConstellationSpec
from .simulate import SerRecord, _worker_pool, simulate_ser

__all__ = [
    "LinkBudget",
    "OsnrMap",
    "RoomConfig",
    "SerSurvey",
    "chip_positions",
    "lambertian_gain",
    "link_budget",
    "osnr_map",
    "survey_ser",
]


@dataclass(frozen=True)
class RoomConfig:
    """Geometry, optoelectronics, and noise model of the evaluation room.

    noise_scale multiplies the shot/background noise variance.  The default
    of 22 calibrates the room-center OSNR to about 25.4 dB (equivalent to a
    220 MHz effective noise bandwidth in place of the nominal 10 MHz); set it
    to 1.0 for the raw two-sided shot-noise formula.
    """

    lamp_xy: tuple[tuple[float, float], ...] = (
        (-1.6, -1.6),
        (-1.6, 1.6),
        (1.6, -1.6),
        (1.6, 1.6),
    )
    lamp_height: float = 3.0
    chips_per_side: int = 7          # 7 x 7 emitters per lamp
    chip_pitch: float = 0.01         # meters between neighboring chips
    pd_height: float = 0.6
    current_min: float = 0.4         # amperes
    current_max: float = 0.6
    semi_angle_deg: float = 60.0     # emitter half-power angle
    eo_gain: float = 0.45            # watts of optical power per ampere
    detector_area: float = 1e-4      # square meters
    filter_gain: float = 1.0
    refractive_index: float = 1.5
    responsivity: float = 0.4        # amperes per watt
    fov_deg: float = 60.0
    bandwidth: float = 1e7           # hertz
    noise_factor: float = 0.562      # noise-bandwidth shape factor
    background_current: float = 1e-4 # amperes
    electron_charge: float = 1.602176634e-19
    noise_scale: float = 22.0
    sample_halfwidth: float = 2.0    # receiver placement range (floor = 2.0)
    collapse_lamps: bool = False     # treat each lamp as one point source

    def __post_init__(self):
        # Annotations are strings here (postponed evaluation).
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "float" and not _is_finite(value):
                raise ValueError(f"{field.name} must be a finite number, got {value!r}")
        if not self.lamp_xy or not all(
            len(xy) == 2 and all(_is_finite(c) for c in xy) for xy in self.lamp_xy
        ):
            raise ValueError(
                f"lamp_xy must be one or more finite (x, y) pairs, got {self.lamp_xy!r}"
            )
        if not isinstance(self.chips_per_side, Integral) or self.chips_per_side < 1:
            raise ValueError(
                f"chips_per_side must be an integer of at least 1, got {self.chips_per_side!r}"
            )
        if not 0 < self.semi_angle_deg < 90 or not 0 < self.fov_deg < 90:
            raise ValueError("semi-angle and field of view must be in (0, 90) deg")
        for name in (
            "lamp_height", "chip_pitch", "pd_height", "current_min",
            "current_max", "eo_gain", "detector_area", "filter_gain",
            "refractive_index", "responsivity", "bandwidth", "noise_factor",
            "background_current", "electron_charge", "noise_scale",
            "sample_halfwidth",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.current_max <= self.current_min:
            raise ValueError("current_max must exceed current_min")
        if self.pd_height >= self.lamp_height:
            raise ValueError("pd_height must be below lamp_height")

    @property
    def lambert_order(self) -> float:
        return -math.log(2.0) / math.log(math.cos(math.radians(self.semi_angle_deg)))

    @property
    def concentrator_gain(self) -> float:
        return self.refractive_index ** 2 / math.sin(math.radians(self.fov_deg)) ** 2

    @property
    def current_swing(self) -> float:
        return self.current_max - self.current_min

    def mean_current(self, alpha: float) -> float:
        return self.current_min + float(alpha) * self.current_swing

    @cached_property
    def _chips(self) -> np.ndarray:
        """``chip_positions(self)``, built once per room and read-only."""
        chips = chip_positions(self)
        chips.flags.writeable = False
        return chips


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except TypeError:
        return False


def chip_positions(room: RoomConfig) -> np.ndarray:
    """3-D positions of every emitter chip, shape (lamps * chips, 3)."""
    if room.collapse_lamps:
        pts = [(x, y, room.lamp_height) for x, y in room.lamp_xy]
        return np.asarray(pts, dtype=np.float64)
    k = room.chips_per_side
    offs = (np.arange(k) - (k - 1) / 2.0) * room.chip_pitch
    out = []
    for x, y in room.lamp_xy:
        gx, gy = np.meshgrid(x + offs, y + offs, indexing="ij")
        out.append(
            np.column_stack(
                [gx.ravel(), gy.ravel(), np.full(k * k, room.lamp_height)]
            )
        )
    return np.concatenate(out, axis=0)


def lambertian_gain(chip_pos, pd_pos, room: RoomConfig) -> np.ndarray | float:
    """Line-of-sight channel gain from emitter(s) to an upward-facing detector.

    h = (m+1) A / (2 pi d^2) * cos(phi)^m * T_s * g * cos(psi), zero outside
    the field of view.  Emitters point straight down and the detector points
    straight up, so both direction cosines equal dz / d.
    """
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


@dataclass(frozen=True)
class LinkBudget:
    """Equivalent scalar channel at one receiver position."""

    pd_xy: tuple[float, float]
    alpha: float
    gain_sum: float        # sum of chip gains
    eff_gain: float        # current swing * responsivity * eo gain * gain_sum
    sigma: float           # photocurrent noise deviation (A)
    sigma_eff: float       # noise deviation of the unit-swing scalar channel
    osnr_db: float


def link_budget(room: RoomConfig, pd_xy, alpha: float) -> LinkBudget:
    """Aggregate gain, noise, and OSNR at one receiver position."""
    x, y = float(pd_xy[0]), float(pd_xy[1])
    pd = np.array([x, y, room.pd_height])
    gains = lambertian_gain(room._chips, pd, room)
    # A collapsed lamp stands in for a full chip array at the lamp center, so
    # it carries the whole array's drive current.
    weight = room.chips_per_side ** 2 if room.collapse_lamps else 1
    gain_sum = weight * float(np.sum(gains))
    chain = room.responsivity * room.eo_gain
    eff_gain = room.current_swing * chain * gain_sum
    shot_current = chain * room.mean_current(alpha) * gain_sum
    var = (
        2.0
        * room.electron_charge
        * room.bandwidth
        * (shot_current + room.background_current * room.noise_factor)
        * room.noise_scale
    )
    sigma = math.sqrt(var)
    if eff_gain > 0.0:
        sigma_eff = sigma / eff_gain
        osnr_db = -10.0 * math.log10(sigma_eff)
    else:
        sigma_eff = math.inf
        osnr_db = -math.inf
    return LinkBudget(
        pd_xy=(x, y),
        alpha=float(alpha),
        gain_sum=gain_sum,
        eff_gain=eff_gain,
        sigma=sigma,
        sigma_eff=sigma_eff,
        osnr_db=osnr_db,
    )


_MAX_GRID_SIDE = 401


@dataclass(frozen=True)
class OsnrMap:
    xs: np.ndarray
    ys: np.ndarray
    osnr_db: np.ndarray    # shape (len(xs), len(ys))
    alpha: float


def osnr_map(room: RoomConfig, grid_step: float, alpha: float) -> OsnrMap:
    """OSNR in dB over the receiver plane on a regular grid.

    The grid may have at most 401 points per side (a step of 0.01 m in the
    default room): each cell costs one scalar link budget.
    """
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise ValueError(f"grid_step must be positive and finite, got {grid_step}")
    half = room.sample_halfwidth
    stop = half + grid_step / 2.0
    # np.arange yields ceil((stop + half) / grid_step) points per side.
    if not (stop + half) / grid_step <= _MAX_GRID_SIDE:
        raise ValueError(
            f"grid_step {grid_step} gives more than {_MAX_GRID_SIDE} points "
            f"per side over {2.0 * half} m"
        )
    xs = np.arange(-half, stop, grid_step)
    ys = xs.copy()
    vals = np.empty((xs.size, ys.size))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            vals[i, j] = link_budget(room, (x, y), alpha).osnr_db
    return OsnrMap(xs=xs, ys=ys, osnr_db=vals, alpha=float(alpha))


@dataclass(frozen=True)
class SerSurvey:
    """Position-averaged error statistics for one design in one room."""

    positions: np.ndarray          # (n, 2) receiver coordinates
    osnr_db: np.ndarray            # per-position OSNR
    records: tuple[SerRecord, ...]
    trials: int
    errors: int
    ser: float


def survey_ser(
    room: RoomConfig,
    spec: ConstellationSpec,
    *,
    n_positions: int = 100,
    trials_per_pos: int = 10_000,
    seed: int = 0,
    threads: int = 1,
    batch_size: int = 4096,
) -> SerSurvey:
    """Average SER over uniformly random receiver positions.

    Every position runs the same trial budget, so the pooled error fraction
    equals the unweighted mean of per-position SERs.  A position with zero
    optical gain (possible only when sampling outside the room) receives no
    signal at all, so its trials are all counted as errors.  At
    ``threads`` > 1 every position runs in one shared worker pool.
    """
    if n_positions < 1 or trials_per_pos < 1:
        raise ValueError("need at least one position and one trial")
    root = np.random.SeedSequence(seed)
    pos_rng = np.random.Generator(np.random.Philox(root.spawn(1)[0]))
    half = room.sample_halfwidth
    positions = pos_rng.uniform(-half, half, size=(n_positions, 2))
    child_seeds = root.generate_state(n_positions, np.uint64)

    records = []
    osnrs = np.empty(n_positions)
    total_trials = total_errors = 0
    with _worker_pool(spec, threads, batch_size) as workers:
        for i in range(n_positions):
            budget = link_budget(room, positions[i], float(spec.alpha))
            osnrs[i] = budget.osnr_db
            if not math.isfinite(budget.osnr_db):
                rec = SerRecord(
                    osnr_db=budget.osnr_db,
                    trials=trials_per_pos,
                    errors=trials_per_pos,
                    ser=1.0,
                    ci95_low=1.0,
                    ci95_high=1.0,
                    seed=int(child_seeds[i]),
                )
            else:
                rec = simulate_ser(
                    spec,
                    budget.osnr_db,
                    seed=int(child_seeds[i]),
                    target_errors=None,
                    max_trials=trials_per_pos,
                    batch_size=batch_size,
                    workers=workers,
                )
            records.append(rec)
            total_trials += rec.trials
            total_errors += rec.errors
    return SerSurvey(
        positions=positions,
        osnr_db=osnrs,
        records=tuple(records),
        trials=total_trials,
        errors=total_errors,
        ser=total_errors / total_trials,
    )
