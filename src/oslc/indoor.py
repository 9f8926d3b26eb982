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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import _checks
from .constellations import ConstellationSpec
from .simulate import _BATCH_SIZE, _OSNR_DB, SerRecord, _check_run, _point_seeds, _run_points

__all__ = [
    "ELECTRON_CHARGE",
    "LinkBudget",
    "OsnrMap",
    "RoomConfig",
    "SerSurvey",
    "check_survey",
    "chip_positions",
    "lambertian_gain",
    "link_budget",
    "osnr_map",
    "osnr_map_rows",
    "survey_ser",
]


# Emitter chips a room may hold: link_budget holds a few float64 arrays of
# this length per receiver position.
_MAX_CHIPS = 100_000

# Chip gains one pricing pass may evaluate, as heatmap cells x chips or as
# survey positions x chips: a few seconds of link budgets on a 2-vCPU VM.
# The default room's 0.01 m heatmap is 160,801 cells x 196 chips.
_MAX_GAINS = 50_000_000

ELECTRON_CHARGE = 1.602176634e-19  # coulombs, exact in the SI

# A lamp's or receiver's x or y.  Every heatmap cell lies within three
# sample_halfwidths, at most 300 m, of the room's centre.
_XY = (-1e3, 1e3, " m")


def _ranged(default: float, lo: float, hi: float, unit: str = ""):
    """A float field of ``RoomConfig`` that it accepts only in [lo, hi]."""
    return field(default=default, metadata={"range": (lo, hi, unit)})


@dataclass(frozen=True)
class RoomConfig:
    """Geometry, optoelectronics, and noise model of the evaluation room.

    noise_scale multiplies the shot/background noise variance.  The default
    of 22 calibrates the room-center OSNR to about 25.4 dB (equivalent to a
    220 MHz effective noise bandwidth in place of the nominal 10 MHz); set it
    to 1.0 for the raw two-sided shot-noise formula.

    Each float field declares its physical range (else ValueError).  Within
    them and _XY, every link budget is finite, or -inf where no light arrives.
    """

    lamp_xy: tuple[tuple[float, float], ...] = ((-1.6, -1.6), (-1.6, 1.6), (1.6, -1.6), (1.6, 1.6))
    lamp_height: float = _ranged(3.0, 0.1, 100.0, " m")
    chips_per_side: int = 7                                    # 7 x 7 emitters per lamp
    chip_pitch: float = _ranged(0.01, 1e-4, 1.0, " m")         # between neighboring chips
    pd_height: float = _ranged(0.6, 0.0, 100.0, " m")
    current_min: float = _ranged(0.4, 0.0, 100.0, " A")
    current_max: float = _ranged(0.6, 0.0, 100.0, " A")
    semi_angle_deg: float = _ranged(60.0, 1.0, 89.0, " deg")   # emitter half-power angle
    eo_gain: float = _ranged(0.45, 1e-3, 10.0, " W/A")         # optical watts per ampere
    detector_area: float = _ranged(1e-4, 1e-9, 1.0, " m^2")
    filter_gain: float = _ranged(1.0, 1e-3, 1.0)               # optical filter transmittance
    refractive_index: float = _ranged(1.5, 1.0, 5.0)           # of the concentrator
    responsivity: float = _ranged(0.4, 1e-3, 10.0, " A/W")
    fov_deg: float = _ranged(60.0, 1.0, 89.0, " deg")
    bandwidth: float = _ranged(1e7, 1.0, 1e12, " Hz")
    noise_factor: float = _ranged(0.562, 0.01, 10.0)           # noise-bandwidth shape factor
    background_current: float = _ranged(1e-4, 1e-12, 1.0, " A")
    noise_scale: float = _ranged(22.0, 1e-3, 1e3)
    sample_halfwidth: float = _ranged(2.0, 0.01, 100.0, " m")  # receiver placement range
    collapse_lamps: bool = False     # treat each lamp as one point source

    def __post_init__(self):
        for f in fields(self):
            if "range" in f.metadata:
                value = _checks.real(f.name, getattr(self, f.name), *f.metadata["range"])
                object.__setattr__(self, f.name, value)
        try:
            lamp_xy = tuple(
                (_checks.real("lamp_xy", x, *_XY), _checks.real("lamp_xy", y, *_XY))
                for x, y in self.lamp_xy
            )
        except (TypeError, ValueError):  # not pairs, or not numbers in range
            lamp_xy = ()
        if not lamp_xy:
            raise ValueError(
                f"lamp_xy must be one or more finite (x, y) pairs in [{_XY[0]}, {_XY[1]}] m, "
                f"got {self.lamp_xy!r}"
            )
        object.__setattr__(self, "lamp_xy", lamp_xy)
        if not isinstance(self.collapse_lamps, bool):
            raise ValueError(f"collapse_lamps must be true or false, got {self.collapse_lamps!r}")
        side = _checks.integer("chips_per_side", self.chips_per_side, 1)
        object.__setattr__(self, "chips_per_side", side)
        chips = len(self.lamp_xy) * self.chips_per_side ** 2
        if chips > _MAX_CHIPS:
            raise ValueError(
                f"len(lamp_xy) * chips_per_side**2 must be at most {_MAX_CHIPS}, got {chips}"
            )
        if self.current_max <= self.current_min:
            raise ValueError("current_max must exceed current_min")
        if self.pd_height >= self.lamp_height:
            raise ValueError("pd_height must be below lamp_height")

    @cached_property
    def lambert_order(self) -> float:
        return -math.log(2.0) / math.log(math.cos(math.radians(self.semi_angle_deg)))

    @cached_property
    def concentrator_gain(self) -> float:
        return self.refractive_index ** 2 / math.sin(math.radians(self.fov_deg)) ** 2

    @cached_property
    def _cos_fov(self) -> float:
        return math.cos(math.radians(self.fov_deg))

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


def _check_gains(room: RoomConfig, count: int, what: str) -> None:
    """ValueError unless ``count`` link budgets in ``room`` evaluate at most
    _MAX_GAINS chip gains; ``what`` names the count in the message.  The
    chips are counted, not built."""
    chips = len(room.lamp_xy) * (1 if room.collapse_lamps else room.chips_per_side ** 2)
    if count * chips > _MAX_GAINS:
        raise ValueError(
            f"{what} x chips must be at most {_MAX_GAINS}, got {count} x {chips}"
        )


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
        out.append(np.column_stack([gx.ravel(), gy.ravel(), np.full(k * k, room.lamp_height)]))
    return np.concatenate(out, axis=0)


def lambertian_gain(chip_pos, pd_pos, room: RoomConfig) -> np.ndarray | float:
    """Line-of-sight channel gain from emitter(s) to an upward-facing detector.

    h = (m+1) A / (2 pi d^2) * cos(phi)^m * T_s * g * cos(psi), zero outside
    the field of view.  Emitters point straight down and the detector points
    straight up, so both direction cosines equal dz / d.
    """
    chips = np.asarray(chip_pos, dtype=np.float64)
    x, y, z = np.asarray(pd_pos, dtype=np.float64).tolist()
    cols = chips.reshape(-1, 3)
    cx, cy, cz = cols[:, 0], cols[:, 1], cols[:, 2]
    # The formula's float64 operations in its own order, in place where they
    # can be, so each gain is bit for bit the one the formula gives; d2 is
    # (dx*dx + dy*dy) + dz*dz, the order of a sum over each row.
    dz = cz - z
    d2 = cx - x
    d2 *= d2
    part = cy - y
    part *= part
    d2 += part
    np.multiply(dz, dz, out=part)
    d2 += part
    cos_both = np.sqrt(d2)
    np.divide(dz, cos_both, out=cos_both)
    h = d2
    h *= 2.0 * math.pi
    np.divide((room.lambert_order + 1.0) * room.detector_area, h, out=h)
    h *= cos_both ** room.lambert_order
    h *= room.filter_gain
    h *= room.concentrator_gain
    h *= cos_both
    h[~(cos_both >= room._cos_fov)] = 0.0
    return float(h[0]) if chips.ndim == 1 else h


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
    """Aggregate gain, noise, and OSNR at a receiver position of two finite
    numbers, for a dimming ratio ``alpha`` in (0, 1/2) (else ValueError)."""
    alpha = _checks.alpha(alpha)
    x, y = _checks.real("pd_xy", pd_xy[0], *_XY), _checks.real("pd_xy", pd_xy[1], *_XY)
    gains = lambertian_gain(room._chips, (x, y, room.pd_height), room)
    # A collapsed lamp stands in for a full chip array at the lamp center, so
    # it carries the whole array's drive current.
    weight = room.chips_per_side ** 2 if room.collapse_lamps else 1
    gain_sum = weight * float(gains.sum())
    chain = room.responsivity * room.eo_gain
    eff_gain = room.current_swing * chain * gain_sum
    shot_current = chain * room.mean_current(alpha) * gain_sum
    var = (2.0 * ELECTRON_CHARGE * room.bandwidth
           * (shot_current + room.background_current * room.noise_factor) * room.noise_scale)
    sigma = math.sqrt(var)
    if eff_gain > 0.0:
        sigma_eff = sigma / eff_gain
        osnr_db = -10.0 * math.log10(sigma_eff)
    else:
        sigma_eff = math.inf
        osnr_db = -math.inf
    return LinkBudget(
        pd_xy=(x, y),
        alpha=alpha,
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
    """OSNR in dB over the receiver plane on a regular grid: ``osnr_map_rows``
    with every row priced."""
    omap, rows = osnr_map_rows(room, grid_step, alpha)
    for _ in rows:
        pass
    return omap


def osnr_map_rows(
    room: RoomConfig, grid_step: float, alpha: float
) -> tuple[OsnrMap, Iterator[int]]:
    """The map of ``osnr_map`` before it is priced, and an iterator that
    prices it one row per step, yielding the row's index.

    The grid, ``alpha`` and the work are checked now, before any row is
    priced (else ValueError): the grid may have at most 401 points per side
    (a step of 0.01 m in the default room), and cells x chips may be at most
    _MAX_GAINS, since each cell costs one scalar link budget over every
    chip.  ``osnr_db`` holds the priced rows only once the iterator is done.
    """
    alpha = _checks.alpha(alpha)
    step = _checks.as_real(grid_step)
    if step is None or step <= 0:
        raise ValueError(f"grid_step must be positive and finite, got {grid_step!r}")
    grid_step = step
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
    _check_gains(room, xs.size * ys.size, "heatmap cells")
    vals = np.empty((xs.size, ys.size))
    return OsnrMap(xs=xs, ys=ys, osnr_db=vals, alpha=alpha), _price_rows(room, xs, vals, alpha)


def _price_rows(room: RoomConfig, xs: np.ndarray, vals: np.ndarray, alpha: float):
    """Per step, price row i of the square grid ``vals`` on the points ``xs``
    along both axes, then yield i."""
    coords = xs.tolist()
    for i, x in enumerate(coords):
        vals[i] = [link_budget(room, (x, y), alpha).osnr_db for y in coords]
        yield i


@dataclass(frozen=True)
class SerSurvey:
    """Position-averaged error statistics for one design in one room."""

    positions: np.ndarray          # (n, 2) receiver coordinates
    osnr_db: np.ndarray            # per-position OSNR
    records: tuple[SerRecord, ...]
    trials: int
    errors: int
    ser: float


_MAX_POSITIONS = 100_000  # positions and their seeds are drawn up front


def check_survey(room: RoomConfig, n_positions: int, trials_per_pos: int, threads: int) -> tuple:
    """The sizes as ints, or ValueError unless ``survey_ser`` can run them in
    ``room``: 1.._MAX_POSITIONS positions whose link budgets evaluate at most
    _MAX_GAINS chip gains, and ``trials_per_pos`` trials per position on
    ``threads`` workers as a run budget that passes ``_check_run``.  Cheap,
    so a caller can check before it computes anything else."""
    n_positions = _checks.integer("n_positions", n_positions, 1, _MAX_POSITIONS)
    _check_gains(room, n_positions, "positions")
    trials_per_pos = _checks.integer("trials_per_pos", trials_per_pos, 1)
    _check_run(None, trials_per_pos, _BATCH_SIZE, threads)
    return n_positions, trials_per_pos


def survey_ser(
    room: RoomConfig,
    spec: ConstellationSpec,
    *,
    n_positions: int = 100,
    trials_per_pos: int = 10_000,
    seed: int = 0,
    threads: int = 1,
    steps: Iterable = (),
) -> SerSurvey:
    """Average SER over uniformly random receiver positions.

    Every position runs the same trial budget, so the pooled error fraction
    equals the unweighted mean of per-position SERs.  A position is dark
    when its OSNR lies below the simulated range (``_OSNR_DB``, from
    -100 dB), -inf included where no light arrives: its trials all count as
    errors and none runs.  The other positions run in order through one
    worker pool, after every one's OSNR has been checked, so NaN or an OSNR
    above 300 dB raises ValueError before the first batch.

    ``steps`` is for ``oslc indoor``: work, such as the rows of
    ``osnr_map_rows``, that ``_run_points`` runs in this process while the
    workers run batches, and otherwise after the last position.
    """
    n_positions, trials_per_pos = check_survey(room, n_positions, trials_per_pos, threads)
    seed = _checks.integer("seed", seed, 0)
    alpha = _checks.alpha(spec.alpha)
    pos_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed).spawn(1)[0]))
    half = room.sample_halfwidth
    positions = pos_rng.uniform(-half, half, size=(n_positions, 2))
    osnrs = np.array([link_budget(room, xy, alpha).osnr_db for xy in positions])
    points = list(zip(osnrs.tolist(), _point_seeds(seed, n_positions)))
    dark = [osnr < _OSNR_DB[0] for osnr, _ in points]  # not NaN: the runner rejects it

    runs = iter(_run_points(
        spec,
        [point for point, is_dark in zip(points, dark) if not is_dark],
        target_errors=None,
        max_trials=trials_per_pos,
        batch_size=_BATCH_SIZE,
        threads=threads,
        steps=steps,
    ))
    records = tuple(
        SerRecord(
            osnr_db=osnr, trials=trials_per_pos, errors=trials_per_pos,
            ser=1.0, ci95_low=1.0, ci95_high=1.0, seed=s,
        ) if is_dark else next(runs)
        for (osnr, s), is_dark in zip(points, dark)
    )
    trials = sum(rec.trials for rec in records)
    errors = sum(rec.errors for rec in records)
    return SerSurvey(
        positions=positions,
        osnr_db=osnrs,
        records=records,
        trials=trials,
        errors=errors,
        ser=errors / trials,
    )
