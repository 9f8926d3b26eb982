"""Nearest-point and bounded-distance decoders for the lattice tower.

The tower, all in unscaled integer coordinates:

    D_n   : integer vectors with even coordinate sum (checkerboard),
    U_n   : 2 Z^n + C          (mod-2 residues form a codeword of C),
    H_n   : 2 D_n + C          (as U_n, plus even parity of the integer part),
    Lambda: union over translations a of  2 H_n + a.

With C the (24,12,8) Golay code, H_24 has minimum distance sqrt(8) and the
two-coset union with a = (-3, 1, ..., 1) is the Leech lattice (minimum
distance 4*sqrt(2), kissing number 196560).

Decoding follows the classic three stages: exact closest point in U_n via
per-coordinate even/odd representatives plus soft-ML decoding of the code;
a single +-2 parity repair to land in H_n (bounded-distance optimal within
the packing radius); and a minimum-distance sweep over coset translations.
Tie rules are pinned down everywhere so results are reproducible: halves
round toward the smaller integer, and among equal candidates the smallest
coordinate index (or first-listed coset) wins.

Every decoder operates on (B, n) arrays, one received vector per row; a
single vector is decoded as a one-row batch.  All arithmetic is float64;
decisions are exact ML for U_n and D_n, bounded-distance for H_n and the
coset union.
"""

from __future__ import annotations

import numpy as np

from .codes import GOLAY, BinaryBlockCode

__all__ = [
    "XI",
    "nearest_point_dn_batch",
    "closest_point_construction_a_batch",
    "bdd_half_lattice_batch",
    "decode_shifted_union_batch",
    "in_dn",
    "in_construction_a",
    "in_half_lattice",
]

# Canonical translation vector joining the two Leech half-lattice cosets.
XI = np.array([-3] + [1] * 23, dtype=np.int64)


# -- membership predicates (exact integer tests) ---------------------------


def _integral(v: np.ndarray) -> bool:
    """Every entry of ``v`` is a finite integer."""
    return bool(np.all(np.isfinite(v)) and np.all(v == np.round(v)))


def in_dn(x) -> bool:
    v = np.asarray(x)
    return _integral(v) and int(np.sum(v)) % 2 == 0


def in_construction_a(x, code: BinaryBlockCode = GOLAY) -> bool:
    v = np.asarray(x)
    return _integral(v) and code.is_codeword(v % 2)


def in_half_lattice(x, code: BinaryBlockCode = GOLAY) -> bool:
    v = np.asarray(x)
    return in_construction_a(v, code) and int((v - v % 2).sum() // 2) % 2 == 0


# -- D_n --------------------------------------------------------------------


def _round_half_down(y: np.ndarray) -> np.ndarray:
    """Round to nearest integer, resolving .5 ties toward the smaller value."""
    return np.ceil(y - 0.5)


def _repair_parity(z: np.ndarray, y: np.ndarray, bad: np.ndarray, step: float) -> None:
    """In each row flagged by ``bad``, move z by ``step`` toward y in the
    coordinate with the largest residual y - z (smallest index on ties,
    upward when that residual is exactly zero).  Updates z in place."""
    if bad.any():
        err = y[bad] - z[bad]
        i = np.argmax(np.abs(err), axis=1)          # first max on ties
        rows = np.arange(err.shape[0])
        zb = z[bad]
        zb[rows, i] += np.where(err[rows, i] >= 0.0, step, -step)
        z[bad] = zb


def nearest_point_dn_batch(y: np.ndarray) -> np.ndarray:
    """Exact closest checkerboard point for each row of y, shape (B, n).

    Round every coordinate (halves toward the smaller integer); if a row's
    sum came out odd, re-round the coordinate with the largest rounding error
    the other way (smallest index on ties, upward when the error is exactly
    zero).  Each result is a true closest point; only the tie choice is ours.
    """
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if y.ndim != 2 or y.shape[1] < 2:
        raise ValueError("expected vectors of dimension >= 2")
    z = _round_half_down(y)
    _repair_parity(z, y, (z.sum(axis=1).astype(np.int64) & 1).astype(bool), 1.0)
    return z.astype(np.int64)


# -- U_n = 2 Z^n + C ---------------------------------------------------------


def _representative_costs(w: np.ndarray):
    """Best even/odd integer representative per coordinate, with sq costs.

    Ties between the two nearest even (or odd) integers go to the smaller
    value, via the half-down rounding rule applied on the halved axis.
    """
    even = 2.0 * _round_half_down(w / 2.0)
    odd = 2.0 * _round_half_down((w - 1.0) / 2.0) + 1.0
    return even, odd, (w - even) ** 2, (w - odd) ** 2


def closest_point_construction_a_batch(w: np.ndarray, code: BinaryBlockCode = GOLAY):
    """Exact closest points of 2Z^n + C for rows of w.

    Per coordinate the best even and best odd integers are costed; the code's
    exhaustive soft-ML decode then picks the globally optimal parity pattern,
    which is the exact lattice ML because coordinates decouple given the
    codeword.  Returns (points (B, n) int64, codeword message indices (B,)).
    """
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    if w.shape[1] != code.n:
        raise ValueError(f"dimension {w.shape[1]} does not match code length {code.n}")
    even, odd, cost0, cost1 = _representative_costs(w)
    idx = code.soft_ml_decode_batch(cost0, cost1)
    bits = code.codebook[idx]
    u = np.where(bits.astype(bool), odd, even)
    return u.astype(np.int64), idx


# -- H_n = 2 D_n + C ---------------------------------------------------------


def bdd_half_lattice_batch(w: np.ndarray, code: BinaryBlockCode = GOLAY) -> np.ndarray:
    """Bounded-distance decode of each row of w into H_n = 2 D_n + C.

    Exact closest point in U_n first; if the integer layer has odd sum, one
    coordinate is moved by 2 toward w, namely the one with the largest
    residual error (smallest index on ties, upward when the error is exactly
    zero).  Guaranteed to return the true closest H_n point whenever
    dist(w, H_n) is below the packing radius sqrt(2).
    """
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    u, idx = closest_point_construction_a_batch(w, code)
    bits = code.codebook[idx]
    _repair_parity(u, w, (((u - bits) // 2).sum(axis=1) & 1).astype(bool), 2)
    return u


# -- coset unions (Leech via two translated copies of 2 H_24) ----------------


def decode_shifted_union_batch(
    y: np.ndarray,
    cosets,
    scale: int = 2,
    code: BinaryBlockCode = GOLAY,
):
    """Minimum-distance decode over union_a (scale * H_n + a), batched.

    Each coset a contributes the candidate scale * bdd((y - a)/scale) + a;
    the closest candidate wins (first-listed coset on exact ties).  With
    cosets (0, XI) and scale 2 at n = 24 this is the Leech lattice decoder,
    bounded-distance optimal within radius 2*sqrt(2).  Returns
    (points (B, n) int64, distance_sq (B,), coset_index (B,)).
    """
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if len(cosets) == 0:
        raise ValueError("need at least one coset translation")
    best_pt = None
    best_d = None
    best_a = None
    for ai, a in enumerate(cosets):
        av = np.asarray(a, dtype=np.float64)
        h = bdd_half_lattice_batch((y - av) / scale, code)
        cand = scale * h + av.astype(np.int64)
        d = ((cand - y) ** 2).sum(axis=1)
        if best_pt is None:
            best_pt, best_d = cand, d
            best_a = np.zeros(len(d), dtype=np.int64)
        else:
            better = d < best_d        # strict: earlier coset wins ties
            best_pt = np.where(better[:, None], cand, best_pt)
            best_d = np.where(better, d, best_d)
            best_a = np.where(better, ai, best_a)
    return best_pt, best_d, best_a
