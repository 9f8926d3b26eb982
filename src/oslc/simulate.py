"""Monte Carlo symbol error simulation with counter-based determinism.

The channel is y = kappa * lam + sigma * z with lam an unscaled integer
constellation point, z i.i.d. standard normal, and sigma = 10**(-osnr_db/10)
(optical SNR in dB is 10*log10(1/sigma)).  Trials run in fixed-size batches;
batch b draws all of its randomness from a Philox generator keyed by
(seed, b), and results commit in batch order, so counts are bit-identical
for any worker count.  Stopping (enough errors or the trial cap) is evaluated
on the committed prefix only.

At ``threads`` > 1 a sweep or survey opens one process pool for all of its
operating points; each worker receives the spec once, when it starts, and a
task is only (sigma, seed, batch_index, count).
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import FIRST_COMPLETED, Executor, ProcessPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .constellations import ConstellationSpec, CubicSpec

# Unused here, but kept: bench/test_harness.py checks that the span tracer
# replaces this imported name and restores it.
from .lattices import nearest_point_dn_batch  # noqa: F401

__all__ = [
    "SerRecord",
    "check_workers",
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


def _pool_run(task: tuple[float, int, int, int]) -> tuple[int, int]:
    sigma, seed, batch_index, count = task
    return batch_index, _simulate_batch(_POOL_SPEC, sigma, seed, batch_index, count)


@contextmanager
def _worker_pool(spec: ConstellationSpec, threads: int):
    """A process pool for any number of operating points of ``spec``, or
    None when ``threads``, capped at the CPUs this process may run on, is 1.

    Each worker receives ``spec`` once, through the pool initializer.
    """
    threads = min(threads, len(os.sched_getaffinity(0)))
    if threads <= 1:
        yield None
        return
    with ProcessPoolExecutor(
        max_workers=threads, initializer=_pool_init, initargs=(spec,)
    ) as pool:
        yield pool


def check_workers(batch_size: int, threads: int) -> None:
    """Reject a batch size or worker count below 1 with ``ValueError``."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if threads < 1:
        raise ValueError("threads must be at least 1")


def simulate_ser(
    spec: ConstellationSpec,
    osnr_db: float,
    *,
    seed: int = 0,
    target_errors: int | None = 100,
    max_trials: int = 20_000_000,
    batch_size: int = 4096,
    threads: int = 1,
    executor: Executor | None = None,
) -> SerRecord:
    """Estimate the symbol error rate at one operating point.

    Runs batches until the committed error count reaches target_errors (if
    set) or the committed trial count reaches max_trials.  The committed
    sequence, and hence the returned counts, do not depend on ``threads``,
    which is capped at the number of CPUs this process may run on.

    ``executor``, if given, runs the batches in place of a pool of this
    call's own, with up to ``2 * threads`` of them in flight.  Its workers
    must already hold ``spec``: ``ser_sweep`` and ``survey_ser`` pass the one
    pool they open with ``_worker_pool(spec, threads)`` for all their points.
    Batches still in flight when this point stops are dropped, so they never
    count towards the next point.
    """
    if not math.isfinite(osnr_db):
        raise ValueError(f"osnr_db must be finite, got {osnr_db}")
    if target_errors is not None and target_errors < 1:
        raise ValueError("target_errors must be positive (or None)")
    if max_trials < 1:
        raise ValueError("max_trials must be positive")
    check_workers(batch_size, threads)
    threads = min(threads, len(os.sched_getaffinity(0)))
    sigma = float(osnr_to_sigma(osnr_db))

    def batch_count(index: int) -> int:
        return min(batch_size, max_trials - index * batch_size)

    def stopped(trials: int, errors: int) -> bool:
        if target_errors is not None and errors >= target_errors:
            return True
        return trials >= max_trials

    trials = errors = 0
    pool_scope = (
        _worker_pool(spec, threads) if executor is None else nullcontext(executor)
    )
    with pool_scope as pool:
        if pool is None:
            index = 0
            while not stopped(trials, errors):
                count = batch_count(index)
                errors += _simulate_batch(spec, sigma, seed, index, count)
                trials += count
                index += 1
        else:
            total_batches = -(-max_trials // batch_size)
            window = 2 * threads
            next_submit = next_commit = 0
            running = set()
            done: dict[int, int] = {}
            while not stopped(trials, errors) and next_commit < total_batches:
                while (
                    next_submit < total_batches
                    and len(running) + len(done) < window
                ):
                    task = (sigma, seed, next_submit, batch_count(next_submit))
                    running.add(pool.submit(_pool_run, task))
                    next_submit += 1
                finished, running = wait(running, return_when=FIRST_COMPLETED)
                for fut in finished:
                    index, err = fut.result()
                    done[index] = err
                while next_commit in done and not stopped(trials, errors):
                    errors += done.pop(next_commit)
                    trials += batch_count(next_commit)
                    next_commit += 1
            for fut in running:
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
    check_workers(batch_size, threads)
    with _worker_pool(spec, threads) as pool:
        records = [
            simulate_ser(
                spec,
                osnr,
                seed=int(child),
                target_errors=target_errors,
                max_trials=max_trials,
                batch_size=batch_size,
                threads=threads,
                executor=pool,
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
