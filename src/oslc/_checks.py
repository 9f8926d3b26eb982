"""The one definition of each scalar argument check.

An integer is whatever ``operator.index`` takes, never a bool, and comes back
as a Python int, so a NumPy integer cannot wrap later; a real is a finite
``numbers.Real``, never a bool, and comes back as a float; alpha lies in
(0, 1/2).  ``as_int`` and ``as_real`` return None for any other value, and
``integer``, ``real`` and ``alpha`` raise ValueError naming the argument.
"""

from __future__ import annotations

import math
import operator
from numbers import Real


def _is_real(value) -> bool:
    # A float (NumPy's float64 too) first: link_budget checks three per
    # heatmap cell, and the numbers.Real test took 0.4 us on a 2-vCPU VM.
    return isinstance(value, float) or (not isinstance(value, bool) and isinstance(value, Real))


def as_int(value) -> int | None:
    try:
        return operator.index(value) if _is_real(value) else None
    except TypeError:  # a float, say
        return None


def as_real(value) -> float | None:
    if not _is_real(value):
        return None
    try:
        x = float(value)
    except OverflowError:  # an int beyond the largest float
        return None
    return x if math.isfinite(x) else None


def integer(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """``as_int(value)``, or ValueError naming ``name`` unless it is an
    integer in [lo, hi] (``hi`` only with ``lo``)."""
    n = as_int(value)
    if n is None or (lo is not None and n < lo) or (hi is not None and n > hi):
        what = (f"an integer in {lo}..{hi}" if hi is not None else "an integer" if lo is None
                else "a non-negative integer" if lo == 0 else f"an integer of at least {lo}")
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return n


def real(name: str, value, lo=-math.inf, hi=math.inf, unit: str = "") -> float:
    """``as_real(value)``, or ValueError naming ``name`` unless it is a finite
    real number in [lo, hi]; ``unit`` follows the range in the message."""
    x = as_real(value)
    if x is None:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if not lo <= x <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}]{unit}, got {value!r}")
    return x


def alpha(value) -> float:
    """``value`` as a float, or ValueError unless it is a real number in
    (0, 1/2), compared in its own type (a Fraction exactly; NaN fails)."""
    if not _is_real(value) or not 0 < value < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {value!r}")
    return float(value)
