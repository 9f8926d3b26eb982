"""End-to-end tests of the command line front end, run in process."""

import csv
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oslc
from oslc import cli, lattices, selfcheck, shaping, simulate
from oslc.cli import main
from oslc.codes import GOLAY, BinaryBlockCode


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    out = tmp_path_factory.mktemp("shaping") / "table.csv"
    assert main(["shaping", "--out", str(out)]) == 0
    return out


class TestShapingCommand:
    def test_default_axes_give_62_rows(self, table):
        rows = read_rows(table)
        assert len(rows) == 31 * 2
        assert {r["alpha"] for r in rows} == {"0.2", "0.3"}
        assert [int(r["n"]) for r in rows[:4]] == [2, 2, 3, 3]

    def test_columns_are_mutually_consistent(self, table):
        for r in read_rows(table):
            n, alpha = int(r["n"]), float(r["alpha"])
            mu = float(r["mu_star"])
            assert shaping.solve_mu_star(alpha) == pytest.approx(mu, rel=1e-10, abs=0)
            assert float(r["t_star_approx"]) == pytest.approx(
                n * alpha + 1.0 / mu, rel=1e-12, abs=0
            )
            assert shaping.avg_first_moment(n, float(r["t_star"])) == pytest.approx(
                alpha, abs=1e-9
            )

    def test_second_order_tracks_exact_gain_from_sixteen_dims(self, table):
        gaps = [
            abs(float(r["sg_db"]) - float(r["sg_db_approx"]))
            for r in read_rows(table)
            if int(r["n"]) >= 16
        ]
        assert gaps and max(gaps) <= 0.1

    def test_explicit_axes(self, tmp_path):
        out = tmp_path / "few.csv"
        assert main(["shaping", "--n", "8,24", "--alpha", "0.25", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [(r["n"], r["alpha"]) for r in rows] == [("8", "0.25"), ("24", "0.25")]

    def test_small_alpha(self, tmp_path, capsys):
        # The curvature term read -0.058 here and the run exited 2.
        out = tmp_path / "small.csv"
        assert main(["shaping", "--n", "24", "--alpha", "1e-8", "--out", str(out)]) == 0
        (row,) = read_rows(out)
        assert float(row["sg_db_approx"]) == shaping.second_order_sg_db(24, 1e-8)
        # below ~5.6e-309, 1/alpha overflows
        assert main(["shaping", "--n", "24", "--alpha", "1e-310", "--out", str(out)]) == 2
        assert "alpha" in capsys.readouterr().err


class TestSerCommand:
    def run_sweep(self, out, extra=()):
        argv = [
            "ser", "--scheme", "cubic", "--beta", "2", "--alpha", "0.3",
            "--osnr", "14:16:1", "--target-errors", "20",
            "--max-trials", "20000", "--seed", "7", "--out", str(out), *extra,
        ]
        return main(argv)

    def test_sweep_writes_one_row_per_grid_point(self, tmp_path):
        out = tmp_path / "ser.csv"
        assert self.run_sweep(out) == 0
        rows = read_rows(out)
        assert [r["osnr_db"] for r in rows] == ["14.0", "15.0", "16.0"]
        for r in rows:
            assert int(r["errors"]) <= int(r["trials"])
            assert float(r["ci95_low"]) <= float(r["ser"]) <= float(r["ci95_high"])
            assert r["scheme"] == "cubic" and r["beta"] == "2"

    def test_cubic_rows_leave_union_bound_blank(self, tmp_path):
        out = tmp_path / "ser.csv"
        self.run_sweep(out)
        assert all(r["ub"] == "" for r in read_rows(out))

    def test_rerun_reproduces_identical_bytes(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        self.run_sweep(first)
        self.run_sweep(second)
        assert first.read_bytes() == second.read_bytes()

    def test_manifest_records_output_hash(self, tmp_path):
        out = tmp_path / "ser.csv"
        self.run_sweep(out)
        manifest = json.loads((tmp_path / "ser_manifest.json").read_text())
        assert manifest["command_line"][0] == "oslc"
        assert manifest["seed"] == 7
        entry = manifest["outputs"][0]
        assert entry["sha256"] == sha256_of(out)
        assert entry["bytes"] == out.stat().st_size

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
    @pytest.mark.parametrize(("budget", "stops_early"), [
        (("--target-errors", "1000000", "--max-trials", "768"), False),
        (("--target-errors", "100", "--max-trials", "40960"), True),
    ], ids=["fixed", "error-target"])
    def test_threads_write_identical_bytes(self, tmp_path, budget, stops_early):
        # Two real workers run the next point's batches while a point
        # commits; the CSV must be the one a single worker writes.
        outs = [tmp_path / "two.csv", tmp_path / "one.csv"]
        for threads, out in zip(("2", "1"), outs):
            argv = ["ser", "--scheme", "cubic", "--beta", "4", "--alpha", "0.3",
                    "--osnr", "20:22", "--batch-size", "256", "--seed", "3", *budget,
                    "--threads", threads, "--out", str(out)]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        trials = [int(row["trials"]) for row in read_rows(outs[1])]
        assert len(trials) == 3
        assert all(t < 40960 for t in trials) if stops_early else trials == [768] * 3

    def test_lattice_scheme_fills_union_bound_column(self, tmp_path):
        out = tmp_path / "oslc.csv"
        argv = [
            "ser", "--scheme", "oslc", "--beta", "4", "--alpha", "0.2",
            "--osnr", "23", "--target-errors", "10", "--max-trials", "8192",
            "--batch-size", "1024", "--seed", "5", "--out", str(out),
        ]
        assert main(argv) == 0
        (row,) = read_rows(out)
        ub = float(row["ub"])
        assert 0.0 < ub < 1.0
        # the bound is an overestimate, so the measured rate stays below it
        # up to Monte Carlo noise
        assert float(row["ser"]) < 3.0 * ub


class TestIndoorCommand:
    def run_survey(self, out):
        argv = [
            "indoor", "--scheme", "cubic", "--beta", "5", "--alpha", "0.2",
            "--positions", "5", "--trials-per-pos", "200",
            "--grid-step", "1.0", "--seed", "3", "--out", str(out),
        ]
        return main(argv)

    def test_oversized_heatmap_exits_2(self, tmp_path):
        # a separate process with a timeout: an unchecked 0.001 m step would
        # run 4001 x 4001 link budgets
        env = dict(os.environ, PYTHONPATH=str(Path(oslc.__file__).parents[1]))
        out = tmp_path / "indoor.csv"
        argv = ["indoor", "--scheme", "cubic", "--beta", "2", "--positions", "1",
                "--trials-per-pos", "10", "--grid-step", "0.001", "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "oslc.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("oslc: ")
        assert not out.exists()

    def test_failed_survey_writes_no_output(self, tmp_path, monkeypatch):
        def failing_survey(*args, **kwargs):
            raise ValueError("survey failed")

        monkeypatch.setattr(cli, "survey_ser", failing_survey)
        assert self.run_survey(tmp_path / "indoor.csv") == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ("--positions", "1000000000000"), ("--positions", "0"),
        ("--trials-per-pos", "0"), ("--threads", "0"),
    ])
    def test_bad_survey_size_exits_before_the_heatmap(self, tmp_path, fail_if_priced, capsys,
                                                      flags):
        # The heatmap at a 0.01 m step is 160,801 link budgets; none may run.
        out = tmp_path / "indoor.csv"
        argv = ["indoor", "--scheme", "cubic", "--beta", "2", "--grid-step", "0.01",
                "--out", str(out), *flags]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("oslc: ")
        assert not out.exists()

    def test_oversized_room_exits_2(self, tmp_path, fail_if_priced, capsys):
        cfg = tmp_path / "room.json"
        cfg.write_text(json.dumps({"room": {"chips_per_side": 100_000}}), encoding="utf-8")
        out = tmp_path / "indoor.csv"
        argv = ["indoor", "--scheme", "cubic", "--beta", "2", "--positions", "1",
                "--trials-per-pos", "10", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        assert "chips_per_side**2 must be at most 100000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(("flags", "room", "csv_sha256", "summary_sha256"), [
        (("--scheme", "cubic", "--beta", "5", "--alpha", "0.2", "--grid-step", "0.25",
          "--positions", "6", "--trials-per-pos", "8192", "--seed", "5"), None,
         "94dd1c8a65c9888ee7efce4f456717739146c6bb1efce3f9936512935399202f",
         "c15baf43ca24bca3df927665845c30bc8ee96c20fb6a3028373ae42b06df38e3"),
        # no position and most cells get light within a 5 degree field of view
        (("--scheme", "cubic", "--beta", "4", "--alpha", "0.2", "--grid-step", "0.5",
          "--positions", "5", "--trials-per-pos", "4096", "--seed", "2"), {"fov_deg": 5.0},
         "d7cca20c82565743b47530ca4cae4cfb18f57b6e19df62d677a035cb75ef4357",
         "d0d4a7c00071452f72597924cf9c24f292062b464c618a7139abccac99fe9637"),
    ], ids=["default-room", "fov5"])
    def test_outputs_match_recorded_digests(self, tmp_path, threads, flags, room,
                                            csv_sha256, summary_sha256):
        # recorded when the heatmap was priced before the survey, one cell
        # at a time; pricing it while the batches run changes no byte
        out = tmp_path / "indoor.csv"
        argv = ["indoor", *flags, "--threads", threads, "--out", str(out)]
        if room is not None:
            cfg = tmp_path / "room.json"
            cfg.write_text(json.dumps({"room": room}), encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert main(argv) == 0
        assert sha256_of(out) == csv_sha256
        assert sha256_of(tmp_path / "indoor_summary.json") == summary_sha256

    @pytest.mark.parametrize("step", ["0", "-1", "nan", "0.001"])
    def test_bad_grid_step_exits_before_any_batch(self, tmp_path, monkeypatch, capsys, step):
        # the survey prices the heatmap, so the grid is checked before it runs
        batches = []
        monkeypatch.setattr(simulate, "_simulate_batch", lambda *args: batches.append(args))
        out = tmp_path / "indoor.csv"
        argv = ["indoor", "--scheme", "cubic", "--beta", "2", "--positions", "2",
                "--trials-per-pos", "10", "--grid-step", step, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("oslc: grid_step")
        assert batches == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(("flags", "message"), [
        (("--grid-step", "0.1"), "heatmap cells x chips must be at most 50000000, got 1681 x 99856"),
        (("--positions", "501"), "positions x chips must be at most 50000000, got 501 x 99856"),
    ])
    def test_work_bound_exits_2(self, tmp_path, fail_if_priced, capsys, flags, message):
        # In a room of 99,856 chips, neither the grid nor the chips are built.
        cfg = tmp_path / "room.json"
        cfg.write_text(json.dumps({"room": {"chips_per_side": 158}}), encoding="utf-8")
        out = tmp_path / "indoor.csv"
        argv = ["indoor", "--scheme", "cubic", "--beta", "2", "--positions", "1",
                "--trials-per-pos", "10", "--grid-step", "1.0", "--config", str(cfg),
                "--out", str(out), *flags]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"oslc: {message}\n"
        assert not out.exists()

    def test_heatmap_covers_grid_inside_published_window(self, tmp_path):
        out = tmp_path / "indoor.csv"
        assert self.run_survey(out) == 0
        rows = read_rows(out)
        assert len(rows) == 5 * 5
        for r in rows:
            assert 24.0 <= float(r["osnr_db"]) <= 27.0

    def test_summary_json_fields(self, tmp_path):
        out = tmp_path / "indoor.csv"
        self.run_survey(out)
        summary = json.loads((tmp_path / "indoor_summary.json").read_text())
        assert summary["scheme"] == "cubic"
        assert summary["total_trials"] == 5 * 200
        assert summary["average_ser"] == summary["total_errors"] / 1000
        assert 24.0 <= summary["map_min_osnr_db"] <= summary["map_max_osnr_db"] <= 27.0

    def test_rerun_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.run_survey(a)
        self.run_survey(b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a_summary.json").read_text() == (
            tmp_path / "b_summary.json"
        ).read_text()


VERIFY_CHECKS = [
    "q_function_reference", "simplex_volume_identities", "shaping_solver_targets",
    "rate_kernel_inverse", "golay_weight_enumerator", "golay_self_dual",
    "code_hard_decoding", "dn_nearest_exhaustive", "half_lattice_bdd_certificate",
    "leech_bdd_certificate", "shell_count_dp", "shell_rank_bijection",
    "shell_selection_stats", "shell_sampler_uniformity", "constraint_feasibility_exact",
    "map_demap_roundtrip", "mapped_average_3sigma", "simulator_determinism",
    "indoor_geometry", "indoor_unit_audit",
]


class TestVerifyCommand:
    """The home of the property suite in the tests: each check runs here, and
    a failure names the check."""

    def test_clean_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = main(["verify", "--out", str(out)])
        report = json.loads(out.read_text())
        assert [c["name"] for c in report["checks"] if not c["passed"]] == []
        assert code == 0
        assert [c["name"] for c in report["checks"]] == VERIFY_CHECKS
        assert report["n_checks"] == len(VERIFY_CHECKS)
        assert report["n_failed"] == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("[PASS]") for line in lines) == report["n_checks"]

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_seed_is_checked_before_any_check(self, seed):
        # -1 failed inside NumPy without naming the seed, and True ran as 1
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            selfcheck.run_property_suite(seed=seed)

    def test_skipped_parity_repair_is_caught(self, monkeypatch):
        # No-op the half-lattice decoder's parity repair (its step is 2; the
        # D_n decoder's step-1 repair still runs).
        repair = lattices._repair_parity

        def repair_dn_only(z, y, bad, step):
            if step != 2:
                repair(z, y, bad, step)

        monkeypatch.setattr(lattices, "_repair_parity", repair_dn_only)
        failed = {r.name for r in selfcheck.run_property_suite() if not r.passed}
        assert "half_lattice_bdd_certificate" in failed

    def test_corrupt_code_reaches_the_suite_and_exits_3(self, tmp_path, monkeypatch, capsys):
        # The plumbing only: the suite is a stub that sees the code and fails
        # one check.
        seen = []

        def suite(code, seed):
            seen.append(code)
            return [selfcheck.PropertyResult("golay_self_dual", False, "stub"),
                    selfcheck.PropertyResult("shell_count_dp", True, "stub")]

        monkeypatch.setattr(cli, "run_property_suite", suite)
        out = tmp_path / "verify.json"
        assert main(["verify", "--corrupt-code", "--out", str(out)]) == 3
        (code,) = seen
        flipped = GOLAY.generator.copy()
        flipped[0, 23] ^= 1
        assert np.array_equal(code.generator, flipped)
        report = json.loads(out.read_text())
        assert [c["name"] for c in report["checks"]] == ["golay_self_dual", "shell_count_dp"]
        assert (report["n_checks"], report["n_failed"]) == (2, 1)
        assert "[FAIL] golay_self_dual: stub" in capsys.readouterr().out

    def test_injected_generator_fault_is_caught(self):
        # The five code-dependent checks, run on the code that --corrupt-code
        # builds: exactly the two Golay checks see the flipped bit.
        generator = GOLAY.generator.copy()
        generator[0, 23] ^= 1
        code = BinaryBlockCode(generator, name="corrupted")
        rng = np.random.default_rng(0)
        checks = {
            "golay_weight_enumerator": lambda: selfcheck._check_weight_enumerator(code),
            "golay_self_dual": lambda: selfcheck._check_self_dual(code),
            "code_hard_decoding": lambda: selfcheck._check_hard_decoding(code, rng),
            "half_lattice_bdd_certificate": lambda: selfcheck._check_half_lattice_bdd(code, rng),
            "leech_bdd_certificate": lambda: selfcheck._check_leech_bdd(code, rng),
        }
        failed = {name for name, check in checks.items() if not check()[0]}
        assert failed == {"golay_weight_enumerator", "golay_self_dual"}


class TestUsageErrors:
    def test_unreadable_config_exits_2(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert main(["shaping", "--config", str(cfg)]) == 2

    def test_non_object_config_exits_2(self, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        assert main(["shaping", "--config", str(cfg)]) == 2

    def test_backwards_range_exits_2(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["shaping", "--n", "32:2", "--out", str(out)]) == 2

    def test_missing_scheme_exits_2(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["ser", "--out", str(out)]) == 2

    @pytest.mark.parametrize(
        "flags",
        [("ser", "--batch-size", "0"), ("ser", "--target-errors", "0"),
         ("ser", "--osnr", "nan"), ("ser", "--threads", "0"),
         # sizes that would be allocated whole before the first trial
         ("ser", "--max-trials", "1000000000000", "--batch-size", "1000000000000"),
         ("indoor", "--positions", "1000000000000")],
    )
    def test_bad_run_budget_exits_2(self, tmp_path, flags):
        command, *flags = flags
        budget = {
            "ser": ("--osnr", "14", "--max-trials", "4096"),
            "indoor": ("--positions", "1", "--trials-per-pos", "10", "--grid-step", "1.0"),
        }
        argv = [command, "--scheme", "cubic", "--beta", "2", *budget[command],
                "--out", str(tmp_path / "x.csv"), *flags]
        assert_usage_error(argv, tmp_path / "x.csv")

    @pytest.mark.parametrize("argv", [
        ["shaping", "--n", "1000", "--alpha", "0.3"],
        ["shaping", "--n", "0,8"],
        ["shaping", "--n", "2:1002"],
        ["shaping", "--alpha", "0.001:0.4:0.0001"],
        ["ser", "--scheme", "cubic", "--beta", "2", "--osnr", "0:1000:1"],
        ["ser", "--scheme", "cubic", "--beta", "2", "--osnr", "24:inf:1"],
        # axes with no points would write a CSV of only its header
        ["ser", "--scheme", "cubic", "--beta", "2", "--osnr", ","],
        ["shaping", "--n", ","],
        ["shaping", "--alpha", ""],
    ])
    def test_oversized_axis_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        # Stubs stand in for the solves: an axis is checked before any runs.
        calls = []
        monkeypatch.setattr(cli, "solve_t_star", lambda *a: calls.append(a))
        monkeypatch.setattr(cli, "ser_sweep", lambda *a, **k: calls.append(a))
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("oslc: ")
        assert not calls and not out.exists()

    @pytest.mark.parametrize("where", ["missing directory", "directory", "name too long"])
    @pytest.mark.parametrize("argv", [
        ["shaping"],
        ["ser", "--scheme", "cubic", "--beta", "2", "--osnr", "20"],
        ["indoor", "--scheme", "cubic", "--beta", "2", "--positions", "1",
         "--trials-per-pos", "10"],
        ["verify"],
    ], ids=["shaping", "ser", "indoor", "verify"])
    def test_unwritable_out_exits_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                  argv, where):
        # Each stub records a call: the path is checked before any of them.
        calls = []
        for name in ("solve_t_star", "build_spec", "ser_sweep", "osnr_map_rows",
                     "survey_ser", "run_property_suite"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: calls.append(name))
        out = {"missing directory": tmp_path / "missing" / "x.csv", "directory": tmp_path,
               "name too long": tmp_path / ("x" * 300) / "x.csv"}[where]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"oslc: out {str(out)!r}")
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_out_that_is_not_a_regular_file_exits_2(self, tmp_path):
        # Writing to a pipe with no reader blocks, and the manifest would go
        # beside it (with /dev/null, to /dev/null_manifest.json).
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        with pytest.raises(ValueError, match="is not a regular file"):
            cli._check_out(str(fifo))
        argv = ["indoor", "--scheme", "cubic", "--beta", "2", "--positions", "1",
                "--trials-per-pos", "10", "--grid-step", "1.0", "--out", str(fifo)]
        env = dict(os.environ, PYTHONPATH=str(Path(oslc.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "oslc.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == f"oslc: out {str(fifo)!r} is not a regular file\n"
        assert list(tmp_path.iterdir()) == [fifo]

    def test_axes_at_their_bounds_run(self, tmp_path, monkeypatch):
        solved = []
        monkeypatch.setattr(
            cli, "solve_t_star",
            lambda n, alpha: solved.append(n) or shaping.ShapingSolution(n, alpha, *[0.0] * 6),
        )
        monkeypatch.setattr(
            cli, "ser_sweep", lambda spec, grid, **k: solved.append(len(grid)) or []
        )
        assert main(["shaping", "--n", "1,128", "--alpha", "0.2",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert main(["ser", "--scheme", "cubic", "--beta", "2", "--osnr", "0:999:1",
                     "--out", str(tmp_path / "r.csv")]) == 0
        assert solved == [1, 128, 1000]

    @pytest.mark.parametrize("command", ["shaping", "verify"])
    def test_threads_is_not_an_option_of(self, tmp_path, command):
        # only ser and indoor start worker processes
        with pytest.raises(SystemExit) as exc:
            main([command, "--threads", "2", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("beta", ["0", "9"])
    @pytest.mark.parametrize("command", ["ser", "indoor"])
    def test_beta_out_of_range_exits_2(self, tmp_path, command, beta):
        # beta = 0 would end in a ZeroDivisionError traceback, and large
        # betas in a height scan of minutes.
        argv = [command, "--scheme", "tcc", "--beta", beta,
                "--out", str(tmp_path / "x.csv")]
        assert "beta must be an integer in 1..8" in assert_usage_error(argv, tmp_path / "x.csv")

    @pytest.mark.parametrize("argv", [
        ["shaping", "--n", "2"],
        ["verify"],
        ["ser", "--scheme", "cubic", "--beta", "2", "--osnr", "14", "--max-trials", "64"],
        ["indoor", "--scheme", "cubic", "--beta", "2", "--positions", "1",
         "--trials-per-pos", "10", "--grid-step", "1.0"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert main([*argv, "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "oslc: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("osnr", ["-1000", "-100.5", "300.5", "1e308"])
    def test_osnr_out_of_range_exits_2(self, tmp_path, capsys, osnr):
        # far outside the range the decoders cast overflowing floats to int64
        # (about -170 dB) or the union bound overflows (about 3,100 dB), with
        # only a RuntimeWarning and a row written
        out = tmp_path / "ser.csv"
        argv = ["ser", "--scheme", "tcc", "--beta", "2", "--osnr", osnr, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("oslc: osnr_db must lie in [-100.0, 300.0] dB")
        assert not out.exists()


def assert_usage_error(argv, out):
    """Run ``oslc argv`` in a separate process with a timeout, so a loop that
    never advances fails the test instead of hanging the suite; it must exit
    2 with a one-line message and write nothing to ``out``.  Returns stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(oslc.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "oslc.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("oslc: ")
    assert not out.exists()
    return proc.stderr


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scheme": "cubic",
            "beta": 2,
            "alpha": 0.3,
            "osnr": "15",
            "target_errors": 5,
            "max_trials": 4096,
            "out": str(tmp_path / "from_config.csv"),
        }), encoding="utf-8")

        assert main(["ser", "--config", str(cfg)]) == 0
        (row,) = read_rows(tmp_path / "from_config.csv")
        assert row["beta"] == "2"

        override = tmp_path / "override.csv"
        assert main([
            "ser", "--config", str(cfg), "--beta", "1", "--out", str(override),
        ]) == 0
        (row,) = read_rows(override)
        assert row["beta"] == "1"

    @pytest.mark.parametrize(
        "room", [{"sample_halfwidth": -1.0}, {"no_such_field": 1.0},
                 # not a room object, and a string that would be truthy
                 [], [["fov_deg", 30]], {"collapse_lamps": "no"}]
    )
    def test_bad_room_exits_2(self, tmp_path, capsys, room):
        cfg = tmp_path / "room.json"
        cfg.write_text(json.dumps({"room": room}), encoding="utf-8")
        out = tmp_path / "indoor.csv"
        argv = [
            "indoor", "--scheme", "cubic", "--beta", "2", "--positions", "2",
            "--trials-per-pos", "10", "--grid-step", "0.5",
            "--config", str(cfg), "--out", str(out),
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("oslc: ")
        assert not out.exists()

    @pytest.mark.parametrize(("field", "value"), [
        ("semi_angle_deg", 1e-7), ("detector_area", 1e308), ("lamp_height", 1e200),
        ("refractive_index", 1e300), ("fov_deg", 1e-300),
        # a constant of nature, no longer a field of the room
        ("electron_charge", 1.6e-19),
    ])
    def test_room_outside_its_declared_ranges_exits_2(self, tmp_path, capsys, field, value):
        # These ended in a ZeroDivisionError traceback, or exited 0 with a
        # NaN heatmap and an average SER of 1.
        cfg = tmp_path / "room.json"
        cfg.write_text(json.dumps({"room": {field: value}}), encoding="utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv = [
            "indoor", "--scheme", "cubic", "--beta", "2", "--positions", "2",
            "--trials-per-pos", "10", "--grid-step", "0.5",
            "--config", str(cfg), "--out", str(out_dir / "indoor.csv"),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("oslc: ") and field in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize(("command", "key", "value"), [
        ("ser", "beta", 2.7),
        ("ser", "threads", True),
        ("ser", "target_errors", None),
        ("ser", "max_trials", 4096.0),
        ("ser", "batch_size", "64"),
        ("ser", "seed", False),
        ("indoor", "beta", 2.0),
        ("indoor", "positions", None),
        ("indoor", "trials_per_pos", 10.5),
        ("indoor", "threads", "2"),
        ("shaping", "seed", 1.5),
        ("verify", "seed", True),
    ])
    def test_non_integer_option_exits_2(self, tmp_path, capsys, command, key, value):
        # int() would truncate 2.7 to 2, read true as 1 and fail on null
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scheme": "cubic", "beta": 2, "osnr": "15", "max_trials": 4096,
            "positions": 2, "trials_per_pos": 10, "grid_step": 0.5, key: value,
        }), encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"oslc: {key} must be an integer")
        assert not out.exists()

    @pytest.mark.parametrize(("command", "key", "value", "what"), [
        ("ser", "alpha", None, "a number"),
        ("indoor", "alpha", "0.2", "a number"),
        ("indoor", "grid_step", None, "a number"),
        ("indoor", "grid_step", True, "a number"),
        ("ser", "osnr", 25, "a string"),
        ("shaping", "n", 24, "a string"),
        ("shaping", "alpha", 0.25, "a string"),
        ("verify", "out", None, "a string"),
        # numpy's SeedSequence would reject these without naming the key,
        # and shaping, which draws nothing, would record them
        ("ser", "seed", -3, "a non-negative integer"),
        ("indoor", "seed", -5, "a non-negative integer"),
        ("shaping", "seed", -1, "a non-negative integer"),
        ("verify", "seed", -1, "a non-negative integer"),
    ])
    def test_mistyped_option_exits_2(self, tmp_path, capsys, command, key, value, what):
        # float() fails on null with a TypeError, and an axis or path that is
        # not a string fails inside the axis parser or Path; out comes from the
        # config here, so that it can be the mistyped key
        out = tmp_path / "out.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scheme": "cubic", "beta": 2, "osnr": "15", "max_trials": 4096,
            "positions": 2, "trials_per_pos": 10, "grid_step": 0.5,
            "out": str(out), key: value,
        }), encoding="utf-8")
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"oslc: {key} must be {what}")
        assert not out.exists()

    @pytest.mark.parametrize("room", [[], [["fov_deg", 30]], "room", None])
    def test_room_must_be_an_object(self, room):
        with pytest.raises(ValueError, match="room must be a JSON object"):
            cli._room_from_config({"room": room})

    def test_room_overrides_reach_the_survey(self, tmp_path):
        cfg = tmp_path / "room.json"
        cfg.write_text(json.dumps({"room": {"fov_deg": 5.0}}), encoding="utf-8")
        out = tmp_path / "indoor.csv"
        argv = [
            "indoor", "--scheme", "cubic", "--beta", "5", "--alpha", "0.2",
            "--positions", "2", "--trials-per-pos", "50", "--grid-step", "2.0",
            "--seed", "1", "--config", str(cfg), "--out", str(out),
        ]
        assert main(argv) == 0
        summary = json.loads((tmp_path / "indoor_summary.json").read_text())
        assert summary["average_ser"] == 1.0


# Every value-taking option of every subcommand, from the table the parser is
# built from: (command, key, kind, default, help).
OPTIONS = [
    (command, *option)
    for command, (_, _, options) in cli._COMMANDS.items()
    for option in options
]
# A wrong JSON kind and a valid (config, flag) pair of values for each kind.
WRONG = {int: (2.5, True), float: ("0.5", False), str: (5, None), cli.SCHEMES: ("nope", None)}
VALID = {int: (3, "4"), float: (0.5, "0.25"), str: ("a", "b"),
         cli.SCHEMES: cli.SCHEMES[:2]}


def option_id(option):
    return f"{option[0]}-{option[1]}"


class TestOneDeclaration:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_table_lists_every_value_taking_option(self, command):
        # the config check covers what the parser takes
        args = cli._parse([command])
        flags = {"func", "command", "config", "corrupt_code"}
        assert set(vars(args)) - flags == {o[1] for o in OPTIONS if o[0] == command}

    @pytest.mark.parametrize("option", OPTIONS, ids=option_id)
    def test_config_of_the_wrong_kind_exits_2(self, tmp_path, capsys, option):
        command, key, kind, _, _ = option
        out = tmp_path / "out.csv"
        for value in WRONG[kind]:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}), encoding="utf-8")
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"oslc: {key} must be "), value
        assert not out.exists()

    @pytest.mark.parametrize("option", OPTIONS, ids=option_id)
    def test_flag_wins_over_config(self, tmp_path, option):
        command, key, kind, _, _ = option
        in_config, flag = VALID[kind]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: in_config}), encoding="utf-8")
        assert getattr(cli._parse([command, "--config", str(cfg)]), key) == in_config
        flag_argv = ["--" + key.replace("_", "-"), flag]
        args = cli._parse([command, "--config", str(cfg), *flag_argv])
        assert getattr(args, key) == (flag if isinstance(kind, tuple) else kind(flag))

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_shows_every_default(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for cmd, _, _, default, help_text in OPTIONS:
            if cmd == command:
                assert f"{help_text} (default: {default})" in text


# Decimals with at most three places, in [-10, 10] with a step in
# [0.001, 10]: the grids the subcommands tabulate, where the exact count and
# points are known from fractions.
DECIMAL = st.builds(lambda a, d: Fraction(a, 10**d), st.integers(-10**4, 10**4), st.integers(0, 3))
STEP = st.builds(lambda a, d: Fraction(a, 10**d), st.integers(1, 10**4), st.integers(0, 3))


def decimal_text(x):
    return repr(float(x))


class TestAxisGrammar:
    @given(start=DECIMAL, span=DECIMAL.map(abs), step=STEP | st.none())
    def test_float_range_holds_every_grid_point_up_to_stop(self, start, span, step):
        stop = start + span
        text = f"{decimal_text(start)}:{decimal_text(stop)}"
        if step is None:
            step = Fraction(1)
        else:
            text += f":{decimal_text(step)}"
        count = int(span // step) + 1
        if count > cli._MAX_AXIS_POINTS:
            with pytest.raises(ValueError, match="more than 1000 points"):
                cli._parse_axis(text, float)
            return
        values = cli._parse_axis(text, float)
        assert values == [float(start + i * step) for i in range(count)]
        assert values[0] == float(start) and values[-1] <= float(stop)
        # a stop on the grid is kept
        assert (values[-1] == float(stop)) == (span % step == 0)

    @given(start=st.integers(-10**6, 10**6), stop=st.integers(-10**6, 10**6),
           step=st.none() | st.integers(-3, 10**4))
    def test_int_range_is_the_inclusive_python_range(self, start, stop, step):
        text = f"{start}:{stop}" + ("" if step is None else f":{step}")
        want = list(range(start, stop + 1, step or 1)) if step is None or step > 0 else []
        if not 1 <= len(want) <= cli._MAX_AXIS_POINTS:
            with pytest.raises(ValueError, match=f"axis {text!r}"):
                cli._parse_axis(text, int)
        else:
            assert cli._parse_axis(text, int) == want

    @given(text=st.text(alphabet="0123456789.,:-+e nainf_x", max_size=12) | st.text(max_size=8),
           kind=st.sampled_from([int, float]))
    def test_any_text_gives_finite_points_or_value_error(self, text, kind):
        try:
            values = cli._parse_axis(text, kind)
        except ValueError as exc:
            assert str(exc)
            return
        assert 1 <= len(values) <= cli._MAX_AXIS_POINTS
        assert all(type(v) is kind and math.isfinite(v) for v in values)

    @pytest.mark.parametrize(("text", "kind", "points"), [
        # the help's and the benchmark's axes, as the 10-decimal rounding parsed them
        ("0.1:0.4:0.1", float, [0.1, 0.2, 0.3, 0.4]),
        ("24:29:0.5", float, [24.0 + i / 2 for i in range(11)]),
        ("25.75:26.25:0.25", float, [25.75, 26.0, 26.25]),
        ("2:64:2", int, list(range(2, 65, 2))),
        ("24:26", float, [24.0, 25.0, 26.0]),
        (" 2:8:3 ", int, [2, 5, 8]),
        ("8,16,,24", int, [8, 16, 24]),
    ])
    def test_named_axes(self, text, kind, points):
        assert cli._parse_axis(text, kind) == points

    @pytest.mark.parametrize("text", ["0:0:inf", "nan", "1,inf", "1:2:3:4", "2:1", "0:1:0"])
    def test_rejected_axes(self, text):
        with pytest.raises(ValueError, match=f"axis {text!r}"):
            cli._parse_axis(text, float)

    def test_osnr_range_stops_at_its_stop(self, tmp_path, monkeypatch):
        # 24:26.3:0.5 also simulated 26.5 dB: its point count was rounded up
        grids = []
        monkeypatch.setattr(cli, "ser_sweep", lambda spec, grid, **k: grids.append(grid) or [])
        assert main(["ser", "--scheme", "cubic", "--beta", "2", "--osnr", "24:26.3:0.5",
                     "--out", str(tmp_path / "ser.csv")]) == 0
        assert grids == [[24.0, 24.5, 25.0, 25.5, 26.0]]

    def test_alpha_range_stops_at_its_stop(self, tmp_path):
        # 0.1:0.46:0.1 also solved alpha = 0.5, and exited 2
        out = tmp_path / "shaping.csv"
        assert main(["shaping", "--n", "4", "--alpha", "0.1:0.46:0.1", "--out", str(out)]) == 0
        assert [r["alpha"] for r in read_rows(out)] == ["0.1", "0.2", "0.3", "0.4"]

    def test_alpha_range_finer_than_ten_decimals_runs(self, tmp_path):
        # each point was rounded to 10 decimals, so alpha was 0.0 and this exited 2
        out = tmp_path / "shaping.csv"
        assert main(["shaping", "--n", "4", "--alpha", "1e-12:5e-11:1e-12", "--out", str(out)]) == 0
        assert [float(r["alpha"]) for r in read_rows(out)] == [float(f"{i}e-12") for i in range(1, 51)]

    def test_range_start_keeps_all_its_digits(self):
        # the start was rounded to 0.123456789
        assert cli._parse_axis("0.12345678901234:0.2:0.05", float) == [0.12345678901234,
                                                                     0.17345678901234]

    def test_every_alpha_checked_before_the_first_solve(self, tmp_path, monkeypatch, capsys):
        # alpha = 0.7 used to fail only after n = 128 had been solved at 0.45
        calls = []
        monkeypatch.setattr(cli, "solve_t_star", lambda *a: calls.append(a))
        out = tmp_path / "shaping.csv"
        assert main(["shaping", "--n", "128", "--alpha", "0.45,0.7", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "oslc: alpha must lie in (0, 1/2), got 0.7\n"
        assert calls == [] and not out.exists()


def test_survey_with_positions_below_the_osnr_floor_exits_0(tmp_path):
    # A 5 deg semi-angle leaves corners at -100.8 dB, which stopped the survey
    # with exit 2; they count as dark positions.
    cfg = tmp_path / "room.json"
    cfg.write_text(json.dumps({"room": {"semi_angle_deg": 5.0}}), encoding="utf-8")
    out = tmp_path / "indoor.csv"
    assert main(["indoor", "--scheme", "cubic", "--beta", "2", "--positions", "20",
                 "--trials-per-pos", "100", "--grid-step", "1.0", "--config", str(cfg),
                 "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "indoor_summary.json").read_text())
    assert summary["average_ser"] == 0.7965
    assert summary["map_min_osnr_db"] < -100.0


# The axis options and their kinds.
AXES = {("shaping", "n"): int, ("shaping", "alpha"): float, ("ser", "osnr"): float}


def readme_commands():
    """Each ``oslc`` command line of README's ``sh`` blocks, continuations
    joined, as its argument list."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("oslc ")]


def test_readme_examples_parse():
    # Parsed, never run: an example that uses a renamed option or an axis
    # outside the grammar fails here.
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)
    for argv in commands:
        args = cli._parse(argv)
        for (command, key), kind in AXES.items():
            if command == args.command:
                assert cli._parse_axis(getattr(args, key), kind), argv
