"""Tests for the Monte-Carlo link simulator and its analytic companions."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oslc
from oslc import constellations as con
from oslc import simulate as sim


@pytest.fixture(scope="module")
def cubic_b2():
    return con.build_cubic_spec(2, 0.3)


@pytest.fixture(scope="module")
def cubic_b4():
    return con.build_cubic_spec(4, 0.3)


@pytest.fixture(scope="module")
def oslc_b4():
    return con.build_oslc_spec(4, 0.2)


class TestQFunction:
    def test_midpoint(self):
        assert sim.q_function(0.0) == 0.5

    def test_vanishes(self):
        assert sim.q_function(45.0) < 1e-300

    @pytest.mark.parametrize("u", [0.5, 1.0, 3.0, 8.0, 20.0, 40.0])
    def test_high_precision_relative_accuracy(self, u):
        with mpmath.workdps(40):
            want = float(mpmath.erfc(u / mpmath.sqrt(2)) / 2)
        assert sim.q_function(u) == pytest.approx(want, rel=1e-12, abs=0)

    @given(st.floats(-7, 35), st.floats(0.01, 1.0))
    def test_strictly_decreasing(self, u, step):
        # outside this window the tails saturate at 1.0 or underflow into
        # denormals and exact ties appear
        assert sim.q_function(u + step) < sim.q_function(u)


class TestUnionBound:
    def test_hand_evaluated_point(self, oslc_b4):
        osnr = 23.0
        sigma = 10.0 ** (-osnr / 10.0)
        kappa = float(oslc_b4.kappa)
        with mpmath.workdps(30):
            arg = kappa * 4.0 * math.sqrt(2.0) / (2.0 * sigma)
            want = float(196560 * mpmath.erfc(arg / mpmath.sqrt(2)) / 2)
        assert sim.union_bound_ser(oslc_b4, osnr) == pytest.approx(want, rel=1e-10, abs=0)

    def test_vanishes_at_high_osnr(self, oslc_b4):
        assert sim.union_bound_ser(oslc_b4, 60.0) == 0.0

    def test_monotone_decreasing(self, oslc_b4):
        vals = [sim.union_bound_ser(oslc_b4, o) for o in (20, 22, 24, 26)]
        assert vals == sorted(vals, reverse=True)

    def test_rejects_specs_without_kissing_constant(self, cubic_b2):
        with pytest.raises(ValueError):
            sim.union_bound_ser(cubic_b2, 25.0)


class TestWilsonInterval:
    def test_zero_errors_pins_low_end(self):
        lo, hi = sim.wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0 < hi < 0.01

    def test_all_errors_pins_high_end(self):
        lo, hi = sim.wilson_interval(50, 50)
        assert hi == 1.0
        assert 0.9 < lo < 1.0

    @given(st.integers(1, 10**6), st.data())
    @settings(max_examples=50)
    def test_brackets_the_estimate(self, trials, data):
        errors = data.draw(st.integers(0, trials))
        lo, hi = sim.wilson_interval(errors, trials)
        p = errors / trials
        assert 0.0 <= lo <= p <= hi <= 1.0

    @pytest.mark.parametrize(("errors", "trials", "message"), [
        (5, 3, "errors must be an integer in 0..3"),  # was a math domain error
        (-1, 10, "errors must be an integer in 0..10"),
        (True, 2, "errors must be an integer in 0..2"),  # ran as 1
        (2, 10.5, "trials must be an integer"),
        (0, 0, "trials must be an integer in 1.."),
        (0, 10**400, "trials must be an integer in 1.."),  # was an OverflowError
    ])
    def test_rejects_counts_that_are_not_a_binomial_outcome(self, errors, trials, message):
        with pytest.raises(ValueError, match=message):
            sim.wilson_interval(errors, trials)


class TestSimulateSer:
    def test_noiseless_channel_has_no_errors(self, cubic_b2, oslc_b4):
        for spec in (cubic_b2, oslc_b4):
            rec = sim.simulate_ser(
                spec, 300.0, seed=1, target_errors=None, max_trials=3000
            )
            assert rec.errors == 0
            assert rec.ser == 0.0
            assert rec.trials == 3000

    def test_sliced_decode_counts_every_row(self, cubic_b2, oslc_b4):
        # _simulate_batch decodes a batch in slices; its count must be that
        # of one decode of the whole batch, the last short slice included.
        for spec, osnr in ((oslc_b4, 21.0), (cubic_b2, 12.0)):
            sigma = float(sim.osnr_to_sigma(osnr))
            rng = sim._batch_generator(3, 0)
            lam = spec.draw(rng, 1300)
            w = lam + (sigma / float(spec.kappa)) * rng.standard_normal(lam.shape)
            want = int((spec.decode(w) != lam).any(axis=1).sum())
            assert 0 < want < 1300
            assert sim._simulate_batch(spec, sigma, 3, 0, 1300) == want

    def test_record_bookkeeping(self, cubic_b2):
        rec = sim.simulate_ser(
            cubic_b2, 14.0, seed=5, target_errors=None, max_trials=20000
        )
        assert rec.ser == rec.errors / rec.trials
        assert rec.ci95_low <= rec.ser <= rec.ci95_high
        assert rec.seed == 5
        assert rec.ub is None  # no kissing constant for the cubic design

    def test_union_bound_attached_for_lattice_designs(self, oslc_b4):
        rec = sim.simulate_ser(
            oslc_b4, 25.0, seed=2, target_errors=None, max_trials=2048
        )
        assert rec.ub == pytest.approx(sim.union_bound_ser(oslc_b4, 25.0))

    def test_cubic_matches_closed_form(self, cubic_b2):
        osnr = 14.0
        rec = sim.simulate_ser(
            cubic_b2, osnr, seed=9, target_errors=None, max_trials=10**5
        )
        p = sim.cubic_ser_formula(cubic_b2, osnr)
        sigma_hat = math.sqrt(p * (1.0 - p) / rec.trials)
        assert abs(rec.ser - p) < 3.0 * sigma_hat

    def test_stops_at_target_errors(self, cubic_b2):
        rec = sim.simulate_ser(
            cubic_b2, 12.0, seed=3, target_errors=50, batch_size=256
        )
        assert rec.errors >= 50
        # commits whole batches, so the overshoot is bounded by one batch
        assert rec.trials % 256 == 0

    def test_deterministic_rerun(self, cubic_b4):
        a = sim.simulate_ser(cubic_b4, 22.0, seed=11, target_errors=None, max_trials=8192)
        b = sim.simulate_ser(cubic_b4, 22.0, seed=11, target_errors=None, max_trials=8192)
        assert a == b
        assert a.errors > 0

    def test_worker_count_invariance(self, cubic_b4, oslc_b4):
        for spec in (cubic_b4, oslc_b4):
            one = sim.simulate_ser(
                spec, 22.0, seed=13, target_errors=25,
                max_trials=40960, batch_size=1024, threads=1,
            )
            three = sim.simulate_ser(
                spec, 22.0, seed=13, target_errors=25,
                max_trials=40960, batch_size=1024, threads=3,
            )
            assert one == three

    def test_cold_spec_counts_match_across_worker_counts(self):
        one, two = (
            sim.simulate_ser(con.build_tcc_spec(3, 0.2), 15.0, seed=17, target_errors=None,
                             max_trials=8192, batch_size=1024, threads=threads)
            for threads in (1, 2)
        )
        assert one == two
        assert one.errors > 0

    def test_workers_inherit_the_built_sampler(self, monkeypatch):
        # Each batch reports, as its error count, whether the spec it runs
        # on already holds a sampler, before it draws anything.
        monkeypatch.setattr(sim, "_simulate_batch",
                            lambda spec, *task: int("sampler" in vars(spec)))
        spec = con.build_tcc_spec(3, 0.2)
        assert "sampler" not in vars(spec)
        rec = sim.simulate_ser(spec, 15.0, target_errors=None, max_trials=4 * 256,
                               batch_size=256, threads=2)
        assert rec.errors == 4

    def test_run_ahead_is_bounded_by_the_window(self, cubic_b4, inline_pools, monkeypatch):
        # the inline pool runs a batch when it is submitted; a point that
        # stops early on its error target has run batches past its commit
        # point, but never more than the window, 2 * 3 workers, counted from
        # the last batch it committed
        submitted = []
        run = sim._pool_run

        def counting_run(task):
            submitted.append(task[2])
            return run(task)

        monkeypatch.setattr(sim, "_pool_run", counting_run)
        rec = sim.simulate_ser(
            cubic_b4, 22.0, seed=13, target_errors=25,
            max_trials=40960, batch_size=256, threads=64,
        )
        assert inline_pools == [3]
        assert rec.errors >= 25 and rec.trials < 40960
        committed = rec.trials // 256
        assert submitted == list(range(len(submitted)))
        assert committed < len(submitted) <= committed - 1 + 2 * 3

    def test_rejects_bad_trial_budget(self, cubic_b2):
        with pytest.raises(ValueError):
            sim.simulate_ser(cubic_b2, 20.0, max_trials=0)

    def test_rejects_empty_batches(self, cubic_b2):
        for threads in (1, 2):
            with pytest.raises(ValueError, match="batch_size"):
                sim.simulate_ser(cubic_b2, 20.0, batch_size=0, threads=threads)

    @pytest.mark.parametrize("batch_size", [0, 65_537])
    def test_shared_workers_check_the_batch_size(self, batch_size):
        # A separate process with a timeout: given workers, a batch size of 0
        # used to loop without advancing.
        script = (
            "from oslc.constellations import build_spec\n"
            "from oslc.simulate import _batch_feed, simulate_ser\n"
            "spec = build_spec('cubic', 2, 0.3)\n"
            "with _batch_feed(spec, [(0.1, 0)], 100, 4096, 1) as feed:\n"
            "    simulate_ser(spec, 10.0, max_trials=100,\n"
            f"                 batch_size={batch_size}, workers=feed)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(oslc.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert "ValueError: batch_size must be an integer in 1..65536" in proc.stderr

    def test_rejects_zero_error_target(self, cubic_b2):
        with pytest.raises(ValueError, match="target_errors"):
            sim.simulate_ser(cubic_b2, 20.0, target_errors=0)

    @pytest.mark.parametrize("osnr", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_osnr(self, cubic_b2, osnr):
        with pytest.raises(ValueError, match="osnr_db"):
            sim.simulate_ser(cubic_b2, osnr)
        with pytest.raises(ValueError, match="osnr_db"):
            sim.ser_sweep(cubic_b2, [osnr])

    @pytest.mark.parametrize("osnr", ["20", True, None, pytest.param(10**400, id="10**400")])
    def test_rejects_osnr_that_is_not_a_finite_number(self, cubic_b2, osnr):
        # a string raised TypeError, and True ran at 1 dB
        with pytest.raises(ValueError, match="osnr_db must be a finite number"):
            sim.simulate_ser(cubic_b2, osnr, max_trials=64)
        with pytest.raises(ValueError, match="osnr_db must be a finite number"):
            sim.ser_sweep(cubic_b2, [osnr], max_trials=64)

    @pytest.mark.parametrize("seed", [-1, True, 2.0, "1", None])
    def test_seed_is_a_non_negative_integer(self, cubic_b2, inline_pools, seed):
        # -1 failed inside NumPy without naming the seed, and True ran as 1
        for run in (sim.simulate_ser, lambda spec, osnr, **k: sim.ser_sweep(spec, [osnr], **k)):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                run(cubic_b2, 20.0, seed=seed, max_trials=64, threads=2)
        assert inline_pools == []

    def test_numpy_integers_give_python_int_counts(self, cubic_b2):
        args = dict(target_errors=None, max_trials=np.int64(300), batch_size=np.int64(128))
        rec = sim.simulate_ser(cubic_b2, 12.0, seed=np.uint32(3), **args)
        assert rec == sim.simulate_ser(cubic_b2, 12.0, seed=3, target_errors=None,
                                       max_trials=300, batch_size=128)
        assert type(rec.trials) is type(rec.seed) is int

    @pytest.mark.parametrize("osnr", [-1000.0, -100.5, 300.5, 3200.0, 1e308])
    def test_rejects_osnr_outside_range(self, cubic_b2, osnr):
        with pytest.raises(ValueError, match=r"osnr_db must lie in \[-100.0, 300.0\]"):
            sim.simulate_ser(cubic_b2, osnr)
        with pytest.raises(ValueError, match="osnr_db"):
            sim.ser_sweep(cubic_b2, [20.0, osnr])

    @pytest.mark.parametrize("kind", con.SCHEMES)
    def test_range_ends_run_without_warnings(self, kind):
        # The suite turns RuntimeWarning into an error: none may come from
        # the decoders' casts or the union bound at either end.
        spec = con.build_spec(kind, 2, 0.2)
        for osnr, errors in ((-100.0, 256), (300.0, 0)):
            rec = sim.simulate_ser(spec, osnr, target_errors=None, max_trials=256, batch_size=128)
            assert (rec.trials, rec.errors) == (256, errors)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_fewer_than_one_thread(self, cubic_b2, threads):
        with pytest.raises(ValueError, match="threads"):
            sim.simulate_ser(cubic_b2, 20.0, threads=threads)

    def test_threads_are_capped_at_usable_cpus(self, cubic_b2, monkeypatch):
        # the fake pool records its size and refuses to start, so no worker
        # process is ever launched
        asked = []

        class NoPool:
            def __init__(self, max_workers, **kwargs):
                asked.append(max_workers)
                raise RuntimeError("pool refused")

        monkeypatch.setattr(sim, "ProcessPoolExecutor", NoPool)
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        with pytest.raises(RuntimeError, match="pool refused"):
            sim.simulate_ser(cubic_b2, 20.0, threads=64, max_trials=8192)
        assert asked == [3]


class TestNoiseCalibration:
    def test_generator_variance_within_half_percent(self):
        sigma = 0.3
        total = 10**7
        acc = 0.0
        acc_sq = 0.0
        for b in range(20):
            rng = sim._batch_generator(42, b)
            x = sigma * rng.standard_normal(total // 20)
            acc += float(x.sum())
            acc_sq += float((x**2).sum())
        mean = acc / total
        var = acc_sq / total - mean**2
        assert abs(var - sigma**2) / sigma**2 < 0.005


class TestSweep:
    def test_noiseless_tail_point(self, cubic_b2):
        recs = sim.ser_sweep(
            cubic_b2, [14.0, 300.0], seed=4, target_errors=None, max_trials=2000
        )
        assert recs[-1].ser == 0.0
        assert recs[0].errors > 0

    @pytest.mark.parametrize("budget", [
        dict(max_trials=0), dict(target_errors=0), dict(batch_size=0), dict(threads=0),
        # counts must be integers: 2.5 threads ran, and True ran one trial
        dict(threads=2.5), dict(max_trials=True), dict(batch_size=4096.0),
    ])
    def test_run_budget_checked_before_the_pool_opens(self, cubic_b2, inline_pools, budget):
        with pytest.raises(ValueError, match=next(iter(budget))):
            sim.ser_sweep(cubic_b2, [10.0], **{"threads": 2, **budget})
        with pytest.raises(ValueError, match=next(iter(budget))):
            sim.simulate_ser(cubic_b2, 10.0, **{"threads": 2, **budget})
        assert inline_pools == []

    def test_bitwise_identical_rerun(self, cubic_b4):
        grid = [20.0, 20.5, 21.0, 21.5, 22.0, 22.5]
        a = sim.ser_sweep(cubic_b4, grid, seed=21, target_errors=60, max_trials=30000)
        b = sim.ser_sweep(cubic_b4, grid, seed=21, target_errors=60, max_trials=30000)
        assert a == b
        assert [r.osnr_db for r in a] == grid

    def test_per_point_seeds_differ(self, cubic_b4):
        recs = sim.ser_sweep(
            cubic_b4, [21.0, 21.0], seed=8, target_errors=None, max_trials=4096
        )
        assert recs[0].seed != recs[1].seed

    def test_statistical_monotonicity_over_seeds(self, cubic_b4):
        grid = [21.0, 22.0, 23.0]
        sums = np.zeros(3)
        for master in range(10):
            recs = sim.ser_sweep(
                cubic_b4, grid, seed=master, target_errors=100, max_trials=20000
            )
            sums += [r.ser for r in recs]
        assert sums[0] > sums[1] > sums[2]

    def test_inversion_beyond_intervals_warns(self):
        spec = con.build_cubic_spec(1, 0.45)
        with pytest.warns(UserWarning, match="SER rose"):
            sim.ser_sweep(
                spec, [6.9, 7.0], seed=201, target_errors=1,
                max_trials=16, batch_size=4,
            )

    def test_shared_pool_matches_serial_after_early_stops(self, cubic_b4):
        # every point stops on its error target with batches still in
        # flight; none of them may count towards the next point
        grid = [20.0, 20.5, 21.0, 21.5, 22.0]
        kwargs = dict(seed=17, target_errors=20, max_trials=40960, batch_size=256)
        one = sim.ser_sweep(cubic_b4, grid, threads=1, **kwargs)
        two = sim.ser_sweep(cubic_b4, grid, threads=2, **kwargs)
        assert one == two
        assert all(r.errors >= 20 and r.trials < 40960 for r in one)

    def test_one_pool_per_sweep(self, cubic_b4, inline_pools):
        grid = [20.0, 21.0, 22.0]
        kwargs = dict(seed=9, target_errors=30, max_trials=20480, batch_size=512)
        serial = sim.ser_sweep(cubic_b4, grid, threads=1, **kwargs)
        assert inline_pools == []
        assert sim.ser_sweep(cubic_b4, grid, threads=64, **kwargs) == serial
        assert inline_pools == [3]

    def test_clean_run_does_not_warn(self, cubic_b4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim.ser_sweep(
                cubic_b4, [20.0, 23.0], seed=6, target_errors=80, max_trials=20000
            )


class TestParentSteps:
    """``_run_points`` runs the caller's steps while the oldest batch on the
    pool is not done, and the rest after the last point."""

    POINTS = [(20.0, 1), (21.0, 2)]
    BUDGET = dict(target_errors=None, max_trials=8 * 256, batch_size=256)

    @pytest.fixture
    def batches_run(self, monkeypatch):
        """A pool whose futures read done on their third poll and run their
        task when the result is read; returns the count of batches run."""
        ran = [0]
        simulate_batch = sim._simulate_batch

        def counting_batch(*args):
            ran[0] += 1
            return simulate_batch(*args)

        class LazyFuture:
            def __init__(self, fn, args):
                self.fn, self.args, self.polls = fn, args, 0

            def done(self):
                self.polls += 1
                return self.polls > 2

            def result(self):
                return self.fn(*self.args)

            def cancel(self):
                return True

        class LazyPool:
            def __init__(self, max_workers, initializer, initargs):
                initializer(*initargs)

            def submit(self, fn, *args):
                return LazyFuture(fn, args)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(sim, "_simulate_batch", counting_batch)
        monkeypatch.setattr(sim, "ProcessPoolExecutor", LazyPool)
        monkeypatch.setattr(sim, "_POOL_SPEC", None)
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1})
        return ran

    def steps(self, count, ran, seen):
        for i in range(count):
            seen.append(ran[0])
            yield i

    @pytest.mark.parametrize("count", [40, 5])
    def test_steps_fill_the_waits(self, cubic_b4, batches_run, count):
        # 16 batches, each polled twice before it is done: two steps per
        # batch before it runs, and the steps left over after the last point
        seen = []
        two = sim._run_points(
            cubic_b4, self.POINTS, steps=self.steps(count, batches_run, seen),
            threads=2, **self.BUDGET)
        want = ([ran for ran in range(16) for _ in (0, 1)] + [16] * 8)[:count]
        assert seen == want
        assert two == sim._run_points(cubic_b4, self.POINTS, threads=1, **self.BUDGET)

    def test_one_worker_runs_every_step_after_the_survey(self, cubic_b4, batches_run):
        seen = []
        sim._run_points(cubic_b4, self.POINTS, steps=self.steps(40, batches_run, seen),
                        threads=1, **self.BUDGET)
        assert seen == [16] * 40

    def test_steps_run_without_points(self, cubic_b4, batches_run):
        seen = []
        assert sim._run_points(cubic_b4, [], steps=self.steps(3, batches_run, seen),
                               threads=2, **self.BUDGET) == []
        assert seen == [0, 0, 0]


class TestBatchFeed:
    """One feed serves a run's points: tasks go in point by point, then
    batch by batch, and the window carries over from one point to the next."""

    BATCH = 64

    @pytest.fixture
    def events(self, monkeypatch):
        """A two-worker pool whose futures run their task when the result is
        read; returns every ("submit" | "commit" | "cancel", seed, batch)."""
        events = []

        class RecordingFuture:
            def __init__(self, fn, task):
                self.fn, self.task = fn, task

            def record(self, what):
                events.append((what, self.task[1], self.task[2]))

            def done(self):
                return True

            def result(self):
                self.record("commit")
                return self.fn(self.task)

            def cancel(self):
                self.record("cancel")
                return True

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                initializer(*initargs)

            def submit(self, fn, task):
                events.append(("submit", task[1], task[2]))
                return RecordingFuture(fn, task)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(sim, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(sim, "_POOL_SPEC", None)
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1})
        return events

    def run(self, spec, points, threads, **budget):
        return sim._run_points(spec, points, threads=threads, batch_size=self.BATCH, **budget)

    @staticmethod
    def most_in_flight(events):
        flight = most = 0
        for what, _, _ in events:
            flight += 1 if what == "submit" else -1
            most = max(most, flight)
        return most

    def test_fixed_budgets_run_into_the_next_point(self, cubic_b4, events):
        points = [(20.0, 1), (21.0, 2), (22.0, 3)]
        budget = dict(target_errors=None, max_trials=3 * self.BATCH)
        two = self.run(cubic_b4, points, 2, **budget)
        submitted = [(seed, batch) for what, seed, batch in events if what == "submit"]
        assert submitted == [(seed, batch) for _, seed in points for batch in range(3)]
        assert events.index(("submit", 2, 0)) < events.index(("commit", 1, 2))
        assert self.most_in_flight(events) == 4
        assert not any(what == "cancel" for what, _, _ in events)
        assert two == self.run(cubic_b4, points, 1, **budget)

    def test_early_stop_cancels_only_its_own_batches(self, cubic_b4, events):
        # At 20 dB a batch of 64 has 35 to 50 errors, so every point stops
        # after its second batch of three with its third in flight.
        points = [(20.0, 1), (20.0, 2), (20.0, 3)]
        budget = dict(target_errors=70, max_trials=3 * self.BATCH)
        two = self.run(cubic_b4, points, 2, **budget)
        assert [rec.trials for rec in two] == [2 * self.BATCH] * 3
        for _, seed in points:
            mine = [(what, batch) for what, s, batch in events if s == seed]
            assert mine == [("submit", 0), ("submit", 1), ("submit", 2),
                            ("commit", 0), ("commit", 1), ("cancel", 2)]
        # point 2's first batch was in flight when point 1 stopped, and was
        # committed, not submitted again
        assert events.index(("submit", 2, 0)) < events.index(("cancel", 1, 2))
        assert events.count(("submit", 2, 0)) == 1
        assert self.most_in_flight(events) <= 4
        assert two == self.run(cubic_b4, points, 1, **budget)

    def test_large_trial_cap_starts_no_later_point_early(self, cubic_b4, events):
        points = [(20.0, 1), (20.0, 2)]
        budget = dict(target_errors=1, max_trials=50 * self.BATCH)
        two = self.run(cubic_b4, points, 2, **budget)
        assert [rec.trials for rec in two] == [self.BATCH] * 2
        last_of_first = max(i for i, (_, seed, _) in enumerate(events) if seed == 1)
        assert events.index(("submit", 2, 0)) > last_of_first
        assert events[:last_of_first + 1] == [
            *(("submit", 1, batch) for batch in range(4)),
            ("commit", 1, 0),
            *(("cancel", 1, batch) for batch in range(1, 4)),
        ]
        assert two == self.run(cubic_b4, points, 1, **budget)

    def test_each_point_is_one_traced_call(self, cubic_b4, inline_pools, monkeypatch):
        # the benchmark's tracer counts committed trials through the module
        # attribute simulate_ser, once per point
        calls = []
        run_point = sim.simulate_ser

        def spy_point(*args, **kwargs):
            calls.append(run_point(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(sim, "simulate_ser", spy_point)
        points = [(20.0, 1), (21.0, 2), (22.0, 3)]
        records = sim._run_points(cubic_b4, points, target_errors=None,
                                  max_trials=1000, batch_size=256, threads=2)
        assert inline_pools == [2]
        assert len(calls) == len(points)
        assert all(a is b for a, b in zip(records, calls))
        assert sum(rec.trials for rec in calls) == 3 * 1000
