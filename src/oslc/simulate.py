"""Monte Carlo symbol error simulation with counter-based determinism.

The channel is y = kappa * lam + sigma * z with lam an unscaled integer
constellation point, z i.i.d. standard normal, and sigma = 10**(-osnr_db/10)
(optical SNR in dB is 10*log10(1/sigma)).  Trials run in fixed-size batches;
batch b draws all of its randomness from a Philox generator keyed by
(seed, b), and results commit in batch order, so counts are bit-identical
for any worker count.  Stopping (enough errors or the trial cap) is evaluated
on the committed prefix only.

One loop runs the batches of a point, taking them from a ``_BatchFeed``:
the in-order stream of batch tasks of every point of a run, point by point
and batch by batch.  ``_check_run`` checks the run budget, and
``_batch_feed`` opens the feed over the run's workers: at one worker its
window is 1 and each batch runs inline when taken; otherwise one process
pool serves the whole run with a window of 2 * threads batches past the
commit point.  The feed tops the window up from the current point first and
then from the points after it, so the next point's first batches run while
the current one commits its last; a point that stops early cancels only its
own batches.  ``_run_points`` runs the points of a sweep or survey, seeded by
``_point_seeds``: it checks them all and the budget, then opens one feed for
all of them; each worker receives the spec once, when it starts, and a task
is only (sigma, seed, batch_index, count).  ``simulate_ser`` on its own runs
a feed of one point.  The feed also owns the caller's side work, steps such
as the rows of an indoor heatmap: it runs one whenever the oldest batch is
still running on the pool, and the rest once the run is over.
"""

from __future__ import annotations

import math
import os
import warnings
from collections import deque
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from . import _checks
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


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """Wilson score interval (95%) for a binomial proportion, with integer
    ``trials`` in 1..2**63 - 1 (a larger int overflows the float arithmetic)
    and 0 <= ``errors`` <= ``trials``."""
    trials = _checks.integer("trials", trials, 1, 2**63 - 1)
    errors = _checks.integer("errors", errors, 0, trials)
    p = errors / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (_Z95 / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
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


# Rows per decode call (1024 stacked rows in the Leech decoder).  The
# decoders' temporaries are recycled from the heap rather than mapped afresh
# for every batch: after the first batches, a batch takes no page fault.
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


_BATCH_SIZE = 4096  # trials per batch of every point whose caller sets none

# Largest batch: its (batch, 24) draws and noise, 13 MB each, are allocated whole.
_MAX_BATCH_SIZE = 65_536


def _check_run(target_errors: int | None, max_trials: int, batch_size: int, threads: int) -> tuple:
    """The run budget as ints, or ValueError unless it is one a point can
    spend, each count an integer: an error target of None or at least 1, at
    least one trial, a batch size in 1.._MAX_BATCH_SIZE and at least one
    worker.  Run before any pool opens."""
    if target_errors is not None:
        target_errors = _checks.integer("target_errors", target_errors, 1)
    max_trials = _checks.integer("max_trials", max_trials, 1)
    batch_size = _checks.integer("batch_size", batch_size, 1, _MAX_BATCH_SIZE)
    return target_errors, max_trials, batch_size, _checks.integer("threads", threads, 1)


# What next() returns from an exhausted iterator of steps.
_DONE = object()


class _BatchFeed:
    """The batch tasks of a run's ``points``, each a ``(sigma, seed)`` with
    the budget ``max_trials`` and ``batch_size``, in order: point by point,
    and batch by batch within a point.

    The current point takes its batches with ``take`` and ends with
    ``stop``.  Before each take the feed submits tasks to ``pool`` until
    ``window`` batches are in flight, from the current point first and then
    from the points after it, so a later point starts early only once every
    batch of the current one is in flight.  With no pool the window is 1 and
    a batch runs inline when taken; on a pool, the feed runs the iterator
    ``steps`` of the run's side work while it waits.
    """

    def __init__(self, spec, pool, window, points, max_trials, batch_size, steps):
        self.spec, self.pool, self.window, self.steps = spec, pool, window, steps
        self.points, self.max_trials, self.batch_size = points, max_trials, batch_size
        self.flight = deque()  # (point, count, error count or its future), oldest first
        self.point = 0  # the point taking batches
        self.cursor = (0, 0)  # (point, batch) of the next task to submit

    def _submit(self) -> None:
        point, batch = self.cursor
        done = batch * self.batch_size
        count = min(self.batch_size, self.max_trials - done)
        task = (*self.points[point], batch, count)
        if self.pool is None:
            run = _simulate_batch(self.spec, *task)
        else:
            run = self.pool.submit(_pool_run, task)
        self.flight.append((point, count, run))
        self.cursor = (point, batch + 1) if done + count < self.max_trials else (point + 1, 0)

    def take(self) -> tuple[int, int]:
        """The trial and error counts of the current point's next batch,
        which must exist.  While that batch runs on the pool, run one of the
        feed's steps at a time and look again."""
        while len(self.flight) < self.window and self.cursor[0] < len(self.points):
            self._submit()
        _, count, run = self.flight.popleft()
        if self.pool is not None:
            while not run.done() and next(self.steps, _DONE) is not _DONE:
                pass
            run = run.result()
        return count, run

    def stop(self) -> None:
        """End the current point: cancel its batches in flight and skip the
        ones not yet submitted.  Batches of later points are kept."""
        while self.flight and self.flight[0][0] == self.point:
            self.flight.popleft()[2].cancel()
        if self.cursor[0] == self.point:
            self.cursor = (self.point + 1, 0)
        self.point += 1


@contextmanager
def _batch_feed(spec: ConstellationSpec, points, max_trials: int, batch_size: int,
                threads: int, steps: Iterable = ()):
    """Yield the ``_BatchFeed`` of ``points`` for a run of ``spec`` with a
    budget that passed ``_check_run``, ``threads`` capped at the CPUs this
    process may run on.  At one worker there is no pool; otherwise each of
    ``threads`` worker processes receives ``spec`` once, through the pool
    initializer, and the window is ``2 * threads`` batches; forked workers
    inherit the sampler's tables, built first, here.  The feed owns
    ``steps``, side work for this process, one step per item (see ``take``);
    the steps left over run once the pool has closed, unless the run raised.
    """
    threads = min(threads, len(os.sched_getaffinity(0)))
    steps = iter(steps)
    spec.sampler  # built once, before any worker forks
    if threads == 1:
        yield _BatchFeed(spec, None, 1, points, max_trials, batch_size, steps)
    else:
        with ProcessPoolExecutor(
            max_workers=threads, initializer=_pool_init, initargs=(spec,)
        ) as pool:
            yield _BatchFeed(spec, pool, 2 * threads, points, max_trials, batch_size, steps)
    for _ in steps:
        pass


# Operating points simulate_ser accepts, in dB.  Far below, the decoders cast
# overflowing floats to int64 (near -170 dB); far above, the union bound
# overflows (near 3,100 dB).
_OSNR_DB = (-100.0, 300.0)


def simulate_ser(
    spec: ConstellationSpec,
    osnr_db: float,
    *,
    seed: int = 0,
    target_errors: int | None = 100,
    max_trials: int = 20_000_000,
    batch_size: int = _BATCH_SIZE,
    threads: int = 1,
    workers: _BatchFeed | None = None,
) -> SerRecord:
    """Estimate the symbol error rate at one operating point, ``osnr_db``
    a real number in _OSNR_DB, with a non-negative integer ``seed`` and a run
    budget that passes ``_check_run`` (else ValueError).

    Runs batches until the committed error count reaches target_errors (if
    set) or the committed trial count reaches max_trials.  The committed
    sequence, and hence the returned counts, do not depend on ``threads``,
    which is capped at the number of CPUs this process may run on.

    ``workers``, if given, is the ``_BatchFeed`` of a run whose current
    point is this one, with this call's seed, OSNR and budget, used in place
    of a feed of this point alone: ``_run_points`` opens one for all its
    points.  When this point stops, its batches still in flight are
    cancelled, so they never count towards the next point; batches the feed
    has already started for the next point are kept.  That feed also runs
    the run's side work while this point waits on its batches; a feed of
    this point alone has none.
    """
    osnr_db = _checks.real("osnr_db", osnr_db, *_OSNR_DB, unit=" dB")
    seed = _checks.integer("seed", seed, 0)
    target_errors, max_trials, batch_size, threads = _check_run(
        target_errors, max_trials, batch_size, threads
    )
    sigma = float(osnr_to_sigma(osnr_db))

    trials = errors = 0
    scope = (_batch_feed(spec, [(sigma, seed)], max_trials, batch_size, threads)
             if workers is None else nullcontext(workers))
    with scope as feed:
        while trials < max_trials and (target_errors is None or errors < target_errors):
            count, batch_errors = feed.take()
            trials += count
            errors += batch_errors
        feed.stop()

    ser = errors / trials
    lo, hi = wilson_interval(errors, trials)
    ub = union_bound_ser(spec, osnr_db) if spec.kissing is not None else None
    return SerRecord(
        osnr_db=osnr_db,
        trials=trials,
        errors=errors,
        ser=ser,
        ci95_low=lo,
        ci95_high=hi,
        seed=seed,
        ub=ub,
    )


def _point_seeds(seed: int, count: int) -> list[int]:
    """The seeds of ``count`` operating points run under the master ``seed``."""
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(count, np.uint64)]


def _run_points(
    spec: ConstellationSpec, points: list[tuple[float, int]], steps: Iterable = (), **budget
) -> list[SerRecord]:
    """``simulate_ser`` at each ``(osnr_db, seed)`` of ``points`` in order, with
    ``budget`` the arguments of ``_check_run``.  Every OSNR, seed and the
    budget are checked before the first point runs.

    One ``_BatchFeed`` serves the whole run, over one worker pool whose
    window of 2 * threads batches carries over from one point to the next:
    the next points' first batches run while a point commits its last, and
    a point that stops early cancels only its own batches.  Each point is
    one call of ``simulate_ser``, through the module attribute, whose
    records are returned in order.

    The feed owns ``steps``, the caller's side work, so all of them have run
    when this returns (see ``_batch_feed``)."""
    plan = [
        (float(osnr_to_sigma(_checks.real("osnr_db", osnr, *_OSNR_DB, unit=" dB"))),
         _checks.integer("seed", seed, 0))
        for osnr, seed in points
    ]
    _, max_trials, batch_size, threads = _check_run(**budget)
    with _batch_feed(spec, plan, max_trials, batch_size, threads, steps) as feed:
        return [
            simulate_ser(spec, osnr, seed=seed, workers=feed, **budget)
            for osnr, seed in points
        ]


def ser_sweep(
    spec: ConstellationSpec,
    osnr_grid,
    *,
    seed: int = 0,
    target_errors: int | None = 100,
    max_trials: int = 20_000_000,
    batch_size: int = _BATCH_SIZE,
    threads: int = 1,
) -> list[SerRecord]:
    """simulate_ser over a grid, with per-point seeds derived from the
    non-negative integer ``seed``; every point and the run budget are checked
    before the first runs.

    SER should fall as OSNR rises; a rise between consecutive grid points
    whose confidence intervals do not even overlap is reported as a warning
    (never an error, since the estimates are noisy by nature).
    """
    grid = np.atleast_1d(osnr_grid).tolist()
    seed = _checks.integer("seed", seed, 0)
    records = _run_points(
        spec,
        list(zip(grid, _point_seeds(seed, len(grid)))),
        target_errors=target_errors,
        max_trials=max_trials,
        batch_size=batch_size,
        threads=threads,
    )
    for prev, cur in zip(records, records[1:]):
        if prev.osnr_db < cur.osnr_db and cur.ci95_low > prev.ci95_high:
            warnings.warn(
                f"SER rose from {prev.ser:.3e} at {prev.osnr_db} dB to "
                f"{cur.ser:.3e} at {cur.osnr_db} dB beyond both intervals",
                stacklevel=2,
            )
    return records
