"""Monte Carlo symbol error simulation with counter-based determinism.

The channel is y = kappa * lam + sigma * z with lam an unscaled integer
constellation point, z i.i.d. standard normal, and sigma = 10**(-osnr_db/10)
(optical SNR in dB is 10*log10(1/sigma)).  Trials run in fixed-size batches;
batch b draws all of its randomness from a Philox generator keyed by
(seed, b), and results commit in batch order, so counts are bit-identical
for any worker count.  Stopping (enough errors or the trial cap) is evaluated
on the committed prefix only.

One loop runs the batches of a point: it keeps at most ``window`` batches
past the commit point and commits by waiting on the oldest.  ``_worker_pool``
checks the worker knobs and yields ``(pool, window)``: ``(None, 1)`` at one
worker, where each batch runs inline, and otherwise one process pool and a
window of 2 * threads.  A sweep or survey opens it once for all of its
operating points; each worker receives the spec once, when it starts, and a
task is only (sigma, seed, batch_index, count).
"""

from __future__ import annotations

import math
import os
import warnings
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .constellations import ConstellationSpec, CubicSpec

# Unused here, but kept: bench/test_harness.py checks that the span tracer
# replaces this imported name and restores it.
from .lattices import nearest_point_dn_batch  # noqa: F401

__all__ = [
    "SerRecord",
    "cubic_ser_formula",
    "osnr_to_sigma",
    "q_function",
    "ser_sweep",
    "sigma_to_osnr",
    "simulate_ser",
    "union_bound_ser",
    "wilson_interval",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_SQRT1_2 = 1.0 / math.sqrt(2.0)
_erfc = np.vectorize(math.erfc, otypes=[np.float64])


def q_function(x):
    """Gaussian upper-tail probability, elementwise."""
    arr = np.asarray(x, dtype=np.float64)
    out = 0.5 * _erfc(arr * _SQRT1_2)
    return float(out) if arr.ndim == 0 else out


def osnr_to_sigma(osnr_db):
    return 10.0 ** (-np.asarray(osnr_db, dtype=np.float64) / 10.0)


def sigma_to_osnr(sigma):
    return -10.0 * np.log10(np.asarray(sigma, dtype=np.float64))


def union_bound_ser(spec: ConstellationSpec, osnr_db):
    """Nearest-neighbor pairwise bound: kissing * Q(d_min / (2 sigma))."""
    if spec.kissing is None:
        raise ValueError(f"no pairwise bound defined for kind {spec.kind!r}")
    sigma = osnr_to_sigma(osnr_db)
    return spec.kissing * q_function(spec.scaled_min_distance / (2.0 * sigma))


def cubic_ser_formula(spec: ConstellationSpec, osnr_db):
    """Exact symbol error rate of the unshaped per-coordinate design."""
    if not isinstance(spec, CubicSpec):
        raise ValueError("closed-form SER applies to the cubic design only")
    sigma = osnr_to_sigma(osnr_db)
    levels = spec.peak_unscaled + 1
    p_dim = (2.0 * (levels - 1) / levels) * q_function(
        float(spec.kappa) / (2.0 * sigma)
    )
    return 1.0 - (1.0 - p_dim) ** spec.n


def wilson_interval(errors: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("need at least one trial")
    p = errors / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class SerRecord:
    """One measured operating point."""

    osnr_db: float
    trials: int
    errors: int
    ser: float
    ci95_low: float
    ci95_high: float
    seed: int
    ub: float | None = None


# -- batch engine ------------------------------------------------------------


def _batch_generator(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((seed, batch_index)))
    )


# Rows per decode call.  A (512, 24) float64 slice is 96 KiB, so the decoders'
# per-row temporaries stay under the allocator's 128 KiB mmap threshold and
# are recycled from the heap rather than mapped afresh for every batch.
_DECODE_ROWS = 512


def _simulate_batch(
    spec: ConstellationSpec, sigma: float, seed: int, batch_index: int, count: int
) -> int:
    """Run one batch and return its error count.

    The draw order inside a batch is fixed (the spec's own draws: points, then
    code words and coset bits where the design has them; then noise), so the
    outcome depends only on (spec, sigma, seed, batch_index, count).
    """
    rng = _batch_generator(seed, batch_index)
    lam = spec.draw(rng, count)
    w = lam + (sigma / float(spec.kappa)) * rng.standard_normal((count, spec.n))
    errors = 0
    for lo in range(0, count, _DECODE_ROWS):
        part = slice(lo, lo + _DECODE_ROWS)
        errors += int((spec.decode(w[part]) != lam[part]).any(axis=1).sum())
    return errors


_POOL_SPEC: ConstellationSpec | None = None


def _pool_init(spec: ConstellationSpec) -> None:
    global _POOL_SPEC
    _POOL_SPEC = spec


def _pool_run(task: tuple[float, int, int, int]) -> int:
    return _simulate_batch(_POOL_SPEC, *task)


@contextmanager
def _worker_pool(spec: ConstellationSpec, threads: int, batch_size: int):
    """Yield ``(pool, window)`` for any number of operating points of ``spec``.

    Rejects a batch size or worker count below 1 with ``ValueError`` and caps
    ``threads`` at the CPUs this process may run on.  At one worker the pool
    is None and the window 1; otherwise each of ``threads`` worker processes
    receives ``spec`` once, through the pool initializer, and the window is
    ``2 * threads`` batches.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    threads = min(threads, len(os.sched_getaffinity(0)))
    if threads == 1:
        yield None, 1
        return
    with ProcessPoolExecutor(
        max_workers=threads, initializer=_pool_init, initargs=(spec,)
    ) as pool:
        yield pool, 2 * threads


def simulate_ser(
    spec: ConstellationSpec,
    osnr_db: float,
    *,
    seed: int = 0,
    target_errors: int | None = 100,
    max_trials: int = 20_000_000,
    batch_size: int = 4096,
    threads: int = 1,
    workers: tuple[Executor | None, int] | None = None,
) -> SerRecord:
    """Estimate the symbol error rate at one operating point.

    Runs batches until the committed error count reaches target_errors (if
    set) or the committed trial count reaches max_trials.  The committed
    sequence, and hence the returned counts, do not depend on ``threads``,
    which is capped at the number of CPUs this process may run on.

    ``workers``, if given, is a ``(pool, window)`` from
    ``_worker_pool(spec, threads, batch_size)`` used in place of one of this
    call's own: ``ser_sweep`` and ``survey_ser`` open one for all their
    points.  Batches still in flight when this point stops are dropped, so
    they never count towards the next point.
    """
    if not math.isfinite(osnr_db):
        raise ValueError(f"osnr_db must be finite, got {osnr_db}")
    if target_errors is not None and target_errors < 1:
        raise ValueError("target_errors must be positive (or None)")
    if max_trials < 1:
        raise ValueError("max_trials must be positive")
    sigma = float(osnr_to_sigma(osnr_db))

    trials = errors = submitted = 0
    ahead = deque()  # (count, error count or its future) past the commit point
    scope = (
        _worker_pool(spec, threads, batch_size) if workers is None else nullcontext(workers)
    )
    with scope as (pool, window):
        while trials < max_trials and (target_errors is None or errors < target_errors):
            while len(ahead) < window and submitted * batch_size < max_trials:
                count = min(batch_size, max_trials - submitted * batch_size)
                task = (sigma, seed, submitted, count)
                if pool is None:
                    ahead.append((count, _simulate_batch(spec, *task)))
                else:
                    ahead.append((count, pool.submit(_pool_run, task)))
                submitted += 1
            count, run = ahead.popleft()
            errors += run if pool is None else run.result()
            trials += count
        for _, fut in ahead:
            fut.cancel()

    ser = errors / trials
    lo, hi = wilson_interval(errors, trials)
    ub = union_bound_ser(spec, osnr_db) if spec.kissing is not None else None
    return SerRecord(
        osnr_db=float(osnr_db),
        trials=trials,
        errors=errors,
        ser=ser,
        ci95_low=lo,
        ci95_high=hi,
        seed=seed,
        ub=ub,
    )


def ser_sweep(
    spec: ConstellationSpec,
    osnr_grid,
    *,
    seed: int = 0,
    target_errors: int | None = 100,
    max_trials: int = 20_000_000,
    batch_size: int = 4096,
    threads: int = 1,
) -> list[SerRecord]:
    """simulate_ser over a grid, with per-point seeds derived from ``seed``.

    SER should fall as OSNR rises; a rise between consecutive grid points
    whose confidence intervals do not even overlap is reported as a warning
    (never an error, since the estimates are noisy by nature).
    """
    grid = [float(v) for v in np.atleast_1d(np.asarray(osnr_grid, dtype=np.float64))]
    child_seeds = np.random.SeedSequence(seed).generate_state(len(grid), np.uint64)
    with _worker_pool(spec, threads, batch_size) as workers:
        records = [
            simulate_ser(
                spec,
                osnr,
                seed=int(child),
                target_errors=target_errors,
                max_trials=max_trials,
                batch_size=batch_size,
                workers=workers,
            )
            for osnr, child in zip(grid, child_seeds)
        ]
    for prev, cur in zip(records, records[1:]):
        if prev.osnr_db < cur.osnr_db and cur.ci95_low > prev.ci95_high:
            warnings.warn(
                f"SER rose from {prev.ser:.3e} at {prev.osnr_db} dB to "
                f"{cur.ser:.3e} at {cur.osnr_db} dB beyond both intervals",
                stacklevel=2,
            )
    return records
