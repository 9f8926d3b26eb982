"""Constellation construction for intensity-constrained lattice signaling.

Three codebook families over n = 24 dimensions, all nonnegative integer point
sets scaled by a single rational gain kappa, one ``ConstellationSpec``
subclass each:

* ``OslcSpec``, a coset-coded design layering an enumerative shaping
  alphabet, the extended Golay code, and a two-coset split of the Leech
  lattice: shaping point d, code word c and coset bit a give the point
  4*d + 2*c + a*(5, 1, ..., 1), whose first coordinate is 8 lower when a = 1
  and d[0] is odd, so that it stays nonnegative.  ``_coset_points`` and its
  table ``_SHIFTS`` are the one place that rule is written; the demapper
  inverts it and checks the result by mapping back, and the design
  statistics follow from it;
* ``TccSpec``, a shaping-only baseline drawing its points straight from the
  checkerboard lattice D24;
* ``CubicSpec``, an unshaped cubic baseline (independent uniform levels per
  coordinate).

kappa is chosen in exact rational arithmetic as the largest gain satisfying
both constraints: every scaled coordinate stays in [0, 1] and the average
scaled coordinate stays at or below the intensity target alpha.
"""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

from . import _checks
from .codes import GOLAY, BinaryBlockCode
from .lattices import XI, decode_shifted_union_batch, nearest_point_dn_batch
from .shells import TdIndexer, TdParams, TdSampler, TdSelection

__all__ = [
    "AlphabetChoice",
    "ConstellationSpec",
    "CubicSpec",
    "DemapError",
    "OslcSpec",
    "SCHEMES",
    "TccSpec",
    "XI_PLUS",
    "build_cubic_spec",
    "build_oslc_spec",
    "build_spec",
    "build_tcc_spec",
    "demap_point",
    "determine_params",
    "map_bits",
]

# Minimum distances and kissing numbers of the two integer lattice copies in
# play: 2 * (half lattice) + coset shift is a Leech copy at scale 4*sqrt(2),
# and the shaping-only baseline lives on D24 with minimum distance sqrt(2).
LEECH_MIN_DIST = 4.0 * math.sqrt(2.0)
LEECH_KISSING = 196560
DN_MIN_DIST = math.sqrt(2.0)
DN_KISSING = 2 * 24 * 23

# Translation of the odd Leech coset that keeps coset points nonnegative.  It
# differs from ``lattices.XI`` by (8, 0, ..., 0), a point of twice the half
# lattice, so both name the same coset.
XI_PLUS = np.array([5] + [1] * 23, dtype=np.int64)

# The translation added to 4*d + 2*c, by coset bit a (row) and the parity of
# d[0] (column): none for a = 0, else XI_PLUS, or ``lattices.XI`` where d[0]
# is odd, whose first coordinate 4*d[0] - 3 is still nonnegative.
_SHIFTS = np.array([[0 * XI, 0 * XI], [XI_PLUS, XI]])

# The two Leech cosets 2 H_24 + a that OslcSpec.decode searches.
_LEECH_COSETS = (0 * XI, XI)

# Exact mean coordinate sum of 2*c over the Golay words c (oslc's code layer).
_GOLAY_LAYER_MEAN = Fraction(2 * int(GOLAY.weights.sum()), len(GOLAY.codebook))


class DemapError(ValueError):
    """Raised when a vector does not demap to any constellation label."""


def _coset_points(d: np.ndarray, c: np.ndarray, a) -> np.ndarray:
    """Transmitted points 4*d + 2*c + a*XI_PLUS, the first coordinate 8 lower
    where a = 1 and d[0] is odd (so it stays nonnegative).

    d is the shaping point, c the code word and a the coset bit; a single
    point or one per row of (B, n) arrays with a of shape (B,).
    """
    return 4 * d + 2 * c + _SHIFTS[a, d[..., 0] & 1]


# Most bits per dimension a design may be built at, from 1.  At beta = 0 the
# shaped designs have a single point and no gain; from beta = 10 on, setting
# up the shaping alphabet (2**(24*beta) points) takes minutes.
_MAX_BETA = 8


def _as_fraction(alpha) -> Fraction:
    """Exact intensity target, once ``_checks.alpha`` takes ``alpha``.  Reals
    that are not rationals (float and the NumPy floats) go through
    repr(float(alpha)), so 0.2 means 1/5."""
    x = _checks.alpha(alpha)
    return Fraction(alpha) if isinstance(alpha, numbers.Rational) else Fraction(repr(x))


@dataclass(frozen=True)
class AlphabetChoice:
    """Outcome of the box-height scan for one shaping alphabet."""

    params: TdParams
    kappa: Fraction
    peak_unscaled: int
    avg_l1_unscaled: Fraction


def _even_sum_count(n: int, h: int) -> int:
    """Points of {0..h}^n with even coordinate sum: ((h+1)^n + [h even]) / 2,
    since sum over the box of (-1)^sum(d) is (sum_v (-1)^v)^n = [h even]."""
    return ((h + 1) ** n + (h % 2 == 0)) // 2


def determine_params(
    n: int,
    m_s: int,
    alpha,
    stats: Callable[[TdSelection], tuple[int, Fraction]],
    peak_floor: Callable[[int], int],
) -> AlphabetChoice:
    """Scan box heights and keep the one maximizing the admissible gain.

    ``stats`` maps a shaping selection to the peak coordinate and exact mean
    coordinate sum of the design's unscaled point set, and ``peak_floor`` is
    the design's lower bound on that peak in terms of the selection's
    ``max_rest_coord``, nondecreasing.  For each height H the alphabet is the
    m_s >= 2 lowest-sum points in canonical order, L is set by the boundary
    shell, and kappa(H) is the reciprocal of the binding constraint (peak, or
    mean divided by n*alpha).  Ties keep the smaller H.

    The scan starts at the first height whose box holds m_s even-sum points
    (a closed-form count) and indexes each later height only up to the
    previous boundary shell, which never rises with H.  After height h it
    returns by the first of two exact rules that holds:

    1. h >= s_star(h): the box no longer binds, so every taller box selects
       the same points.  At n = 1 this holds at the first height.
    2. peak_floor(h + 1) * kappa_best >= 1.  Here h < s_star(h), so s_inf,
       the boundary shell of an unbounded box, is at least h + 1: were
       s_inf <= h, the box of height h would hold every point of sum
       <= s_inf, and s_star(h) would be s_inf <= h.  A box only removes
       points from each shell, so a taller box H' has max_rest_coord =
       min(H', s_star(H')) >= h + 1, and kappa(H') <= 1 / peak_floor(h + 1)
       <= kappa_best.
    """
    alpha = _as_fraction(alpha)
    n = _checks.integer("n", n, 1)
    m_s = _checks.integer("m_s", m_s, 2)
    best: AlphabetChoice | None = None
    h = 1
    while _even_sum_count(n, h) < m_s:
        h += 1
    l = (n * h) // 2
    while True:
        sel = TdIndexer(n, h, l).selection(m_s)
        peak, avg = stats(sel)
        kappa = 1 / max(Fraction(peak), avg / (n * alpha))
        if best is None or kappa > best.kappa:
            params = TdParams(n, h, sel.s_star // 2, m_s)
            best = AlphabetChoice(params, kappa, peak, avg)
        if h >= sel.s_star or peak_floor(h + 1) * best.kappa >= 1:
            return best
        l = sel.s_star // 2
        h += 1


@dataclass(frozen=True, eq=False)
class ConstellationSpec(ABC):
    """Everything needed to map bits, sample, decode, and audit one design.

    Each subclass is one design: it fixes ``kind``, ``d_min_unscaled``,
    ``kissing`` and the layer sizes ``n``, ``code``, ``k_c`` and ``k_a``, and
    supplies ``draw`` and ``decode`` for the simulator and ``_map`` /
    ``_demap`` behind ``map_bits`` / ``demap_point``, which check their
    inputs first.  A shaped design also gives ``build`` its rule for the
    height scan, the ``stats`` and ``peak_floor`` of ``determine_params``.
    """

    kind: ClassVar[str]
    d_min_unscaled: ClassVar[float]
    kissing: ClassVar[int | None] = None
    n: ClassVar[int] = 24                           # dimensions
    code: ClassVar[BinaryBlockCode | None] = None   # code layer, if any
    k_c: ClassVar[int] = 0                          # code bits per symbol
    k_a: ClassVar[int] = 0                          # coset bits per symbol
    _stats: ClassVar[Callable[[TdSelection], tuple[int, Fraction]]]
    _peak_floor: ClassVar[Callable[[int], int]]

    beta: int                     # bits per dimension
    alpha: Fraction               # average-intensity target
    kappa: Fraction               # scaling gain applied to integer points
    peak_unscaled: int            # max coordinate over the integer point set
    avg_l1_unscaled: Fraction     # exact mean coordinate sum
    k_s: int = 0                  # shaping bits per symbol
    td: TdParams | None = None    # shaping alphabet geometry (None for cubic)

    @classmethod
    def build(cls, beta: int, alpha) -> ConstellationSpec:
        """The design at ``beta`` bits per dimension and intensity target
        ``alpha``; the shaping index takes the bits no other layer does."""
        beta, alpha = _checks.integer("beta", beta, 1, _MAX_BETA), _as_fraction(alpha)
        k_s = cls.n * beta - cls.k_c - cls.k_a
        choice = determine_params(cls.n, 1 << k_s, alpha, cls._stats, cls._peak_floor)
        return cls(
            beta=beta,
            alpha=alpha,
            kappa=choice.kappa,
            peak_unscaled=choice.peak_unscaled,
            avg_l1_unscaled=choice.avg_l1_unscaled,
            k_s=k_s,
            td=choice.params,
        )

    @abstractmethod
    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` uniform codebook points, shape (count, n), int64."""

    @abstractmethod
    def decode(self, w: np.ndarray) -> np.ndarray:
        """Decision, int64, for each row of the unscaled (B, n) observation."""

    @abstractmethod
    def _map(self, bits: np.ndarray) -> np.ndarray:
        """Point for one symbol's checked 0/1 bit vector."""

    @abstractmethod
    def _demap(self, lam: np.ndarray) -> np.ndarray:
        """Bits of one int64 point; DemapError outside the codebook."""

    @property
    def bits_per_symbol(self) -> int:
        return self.n * self.beta

    @property
    def size(self) -> int:
        return 1 << self.bits_per_symbol

    @property
    def scaled_min_distance(self) -> float:
        return float(self.kappa) * self.d_min_unscaled

    @cached_property
    def indexer(self) -> TdIndexer | None:
        return self.td.indexer() if self.td is not None else None

    @cached_property
    def sampler(self) -> TdSampler | None:
        if self.td is None:
            return None
        return TdSampler(self.indexer, self.td.m_s)

    def __getstate__(self) -> dict:
        """The fields without the cached tables, which a copy rebuilds on use."""
        return {k: v for k, v in vars(self).items() if k not in ("indexer", "sampler")}


# Byte maps between bit values 0/1 and the base-2 digits "0"/"1".
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits_to_int(bits: np.ndarray) -> int:
    """Big-endian value of a non-empty uint8 0/1 vector."""
    return int(bits.tobytes().translate(_TO_DIGITS), 2)


def _int_to_bits(value: int, width: int) -> np.ndarray:
    """The ``width`` big-endian bits of 0 <= value < 2**width, int64 (width >= 1)."""
    digits = format(value, f"0{width}b").encode().translate(_FROM_DIGITS)
    return np.frombuffer(digits, dtype=np.uint8).astype(np.int64)


def _alphabet_index(spec: ConstellationSpec, d: np.ndarray, what: str) -> int:
    """Rank of ``d`` in the spec's shaping alphabet, or DemapError."""
    try:
        index = spec.indexer.rank(d)
    except ValueError as exc:
        raise DemapError(str(exc)) from None
    if index >= spec.td.m_s:
        raise DemapError(f"{what} outside the selected alphabet")
    return index


@dataclass(frozen=True, eq=False)
class OslcSpec(ConstellationSpec):
    """Shaped coset design on the Leech lattice: shaping bits + Golay bits +
    one coset bit, laid out big-endian [shaping | code | coset].  The points
    are ``_coset_points(d, c, a)``."""

    kind = "oslc"
    d_min_unscaled = LEECH_MIN_DIST
    kissing = LEECH_KISSING
    code = GOLAY
    k_c = code.k
    k_a = 1

    @staticmethod
    def _stats(sel):
        """Peak and exact mean coordinate sum of every ``_coset_points(d, c,
        a)``, d from ``sel``, c from the code, a a fair bit.  The first
        coordinate, 4*d[0] + 2*c[0] + _SHIFTS[a, d[0] & 1, 0], peaks over a
        and the parity of d[0]; the others at ``_peak_floor``.  The mean
        splits into the three layers, the coset layer's being that of the
        translation a and d[0] pick.
        """
        peak = max(
            4 * sel.max_first(parity=p) + 2 + int(_SHIFTS[a, p, 0]) for a in (0, 1) for p in (0, 1)
        )
        peak = max(peak, OslcSpec._peak_floor(sel.max_rest_coord))
        even_sum, odd_sum = (int(t) for t in _SHIFTS.sum(axis=(0, 2)))
        odd = sel.odd_first_count
        avg_shift = Fraction(even_sum * (sel.m_s - odd) + odd_sum * odd, 2 * sel.m_s)
        return peak, 4 * sel.mean_l1 + _GOLAY_LAYER_MEAN + avg_shift

    @staticmethod
    def _peak_floor(rest):
        """Coordinates 2..n peak at 4*d + 2*c plus the largest translation
        entry there."""
        return 4 * rest + 2 + int(_SHIFTS[..., 1:].max())

    def draw(self, rng, count):
        d = self.sampler.sample(rng, count)
        c = self.code.codebook[rng.integers(0, 1 << self.k_c, size=count)]
        a = rng.integers(0, 2, size=count)
        return _coset_points(d, c, a)

    def decode(self, w):
        return decode_shifted_union_batch(w, _LEECH_COSETS, code=self.code)[0]

    def _map(self, bits):
        d = self.indexer.unrank(_bits_to_int(bits[: self.k_s]))
        c = self.code.encode(bits[self.k_s : self.k_s + self.k_c])
        return _coset_points(d, c, int(bits[-1]))

    def _demap(self, lam):
        # Invert _coset_points layer by layer, then map back: any vector the
        # inverse does not reproduce lies off the lattice.
        a = int(lam[0]) & 1
        rest = lam - a * XI_PLUS
        c = (rest >> 1) & 1
        d = rest >> 2
        d[0] += 2 * (a & d[0] & 1)
        if not np.array_equal(_coset_points(d, c, a), lam):
            raise DemapError("point is not on the coset-coded lattice")
        if not self.code.is_codeword(c):
            raise DemapError("code layer is not a codeword")
        index = _alphabet_index(self, d, "shaping point")
        return np.concatenate((_int_to_bits(index, self.k_s), self.code.message_of(c), [a]))


@dataclass(frozen=True, eq=False)
class TccSpec(ConstellationSpec):
    """Shaping-only baseline on D24: all bits form one big-endian index into
    the shaped alphabet."""

    kind = "tcc"
    d_min_unscaled = DN_MIN_DIST
    kissing = DN_KISSING

    @staticmethod
    def _stats(sel):
        return sel.max_coord, sel.mean_l1

    @staticmethod
    def _peak_floor(rest):
        return rest

    def draw(self, rng, count):
        return self.sampler.sample(rng, count)

    def decode(self, w):
        return nearest_point_dn_batch(w)

    def _map(self, bits):
        return self.indexer.unrank(_bits_to_int(bits))

    def _demap(self, lam):
        return _int_to_bits(_alphabet_index(self, lam, "point"), self.k_s)


@dataclass(frozen=True, eq=False)
class CubicSpec(ConstellationSpec):
    """Unshaped baseline: beta big-endian bits per coordinate pick one of the
    independent uniform levels 0..2**beta - 1, scaled by
    delta = min(1, 2*alpha) / (2**beta - 1), which meets whichever of the
    peak and mean constraints binds first."""

    kind = "cubic"
    d_min_unscaled = 1.0

    @classmethod
    def build(cls, beta: int, alpha) -> CubicSpec:
        beta, alpha = _checks.integer("beta", beta, 1, _MAX_BETA), _as_fraction(alpha)
        levels = (1 << beta) - 1
        delta = min(Fraction(1), 2 * alpha) / levels
        return cls(
            beta=beta,
            alpha=alpha,
            kappa=delta,
            peak_unscaled=levels,
            avg_l1_unscaled=Fraction(cls.n * levels, 2),
        )

    def draw(self, rng, count):
        return rng.integers(0, self.peak_unscaled + 1, size=(count, self.n))

    def decode(self, w):
        return np.clip(np.rint(w), 0, self.peak_unscaled).astype(np.int64)

    def _map(self, bits):
        weights = 1 << np.arange(self.beta - 1, -1, -1, dtype=np.int64)
        return bits.reshape(self.n, self.beta) @ weights

    def _demap(self, lam):
        if (lam < 0).any() or (lam > self.peak_unscaled).any():
            raise DemapError("level out of range")
        shifts = np.arange(self.beta - 1, -1, -1, dtype=np.int64)
        return ((lam[:, None] >> shifts) & 1).ravel()


build_oslc_spec = OslcSpec.build
build_tcc_spec = TccSpec.build
build_cubic_spec = CubicSpec.build

_SPECS = {cls.kind: cls for cls in (OslcSpec, TccSpec, CubicSpec)}

# Scheme names accepted by build_spec, in the order the CLI lists them.
SCHEMES = tuple(_SPECS)


def build_spec(kind: str, beta: int, alpha) -> ConstellationSpec:
    if kind not in SCHEMES:  # compared, not hashed: a list is no kind either
        raise ValueError(f"unknown constellation kind {kind!r}; pick one of {sorted(_SPECS)}")
    return _SPECS[kind].build(beta, alpha)


# -- bit mapping -----------------------------------------------------------


def _check_bits(spec: ConstellationSpec, bits) -> np.ndarray:
    """Flat uint8 copy of ``bits``; ValueError unless it is ``bits_per_symbol`` 0s and 1s."""
    arr = np.asarray(bits).ravel()
    if arr.size != spec.bits_per_symbol:
        raise ValueError(f"expected {spec.bits_per_symbol} bits, got {arr.size}")
    if not set(arr.tolist()) <= {0, 1}:
        raise ValueError("bits must be 0 or 1")
    return arr.astype(np.uint8)


def map_bits(spec: ConstellationSpec, bits) -> np.ndarray:
    """Map one symbol's bits to an unscaled integer constellation point.

    ``bits`` is ``spec.bits_per_symbol`` values in C order, each exactly 0 or
    1, else ValueError.  The bit layout is the design's own; see the
    ConstellationSpec subclasses.
    """
    return spec._map(_check_bits(spec, bits))


def demap_point(spec: ConstellationSpec, point) -> np.ndarray:
    """Invert map_bits, returning int64 bits.  A wrong-length point raises
    ValueError; non-real, non-integer or non-finite coordinates, coordinates
    beyond the int64 range and integer vectors outside the codebook raise
    DemapError."""
    lam = np.asarray(point)
    if lam.shape != (spec.n,):
        raise ValueError(f"expected a length-{spec.n} point")
    if not np.issubdtype(lam.dtype, np.integer):
        # Checked in float64: a bool point would round in float16, and rint
        # has no loop for an object array of Python ints.
        if lam.dtype.kind not in "bfO":
            raise DemapError("point coordinates must be real numbers")
        try:
            lam = lam.astype(np.float64)
        except (TypeError, ValueError, OverflowError):
            raise DemapError("point coordinates must be real numbers") from None
        rounded = np.rint(lam)
        if not (np.array_equal(rounded, lam) and (np.abs(rounded) < 2.0**63).all()):
            raise DemapError("point coordinates must be integers inside the int64 range")
        lam = rounded
    return spec._demap(lam.astype(np.int64, copy=False))

