"""End-to-end tests of the command line front end, run in process."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oslc
from oslc import cli, shaping
from oslc.cli import main


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
            assert shaping.solve_mu_star(alpha) == pytest.approx(mu, rel=1e-10)
            assert float(r["t_star_approx"]) == pytest.approx(
                n * alpha + 1.0 / mu, rel=1e-12
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


class TestVerifyCommand:
    def test_clean_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert main(["verify", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["n_checks"] >= 12
        assert report["n_failed"] == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("[PASS]") for line in lines) == report["n_checks"]

    def test_injected_generator_fault_is_caught(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--corrupt-code", "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["n_failed"] >= 1
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert any("weight" in name for name in failed)


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
        [("--batch-size", "0"), ("--target-errors", "0"), ("--osnr", "nan"),
         ("--threads", "0")],
    )
    def test_bad_run_budget_exits_2(self, tmp_path, flags):
        argv = ["ser", "--scheme", "cubic", "--beta", "2", "--osnr", "14",
                "--max-trials", "4096", "--out", str(tmp_path / "x.csv"), *flags]
        assert_usage_error(argv, tmp_path / "x.csv")

    @pytest.mark.parametrize("beta", ["0", "9"])
    @pytest.mark.parametrize("command", ["ser", "indoor"])
    def test_beta_out_of_range_exits_2(self, tmp_path, command, beta):
        # beta = 0 would end in a ZeroDivisionError traceback, and large
        # betas in a height scan of minutes.
        argv = [command, "--scheme", "tcc", "--beta", beta,
                "--out", str(tmp_path / "x.csv")]
        assert "beta must be an integer in 1..8" in assert_usage_error(argv, tmp_path / "x.csv")


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
        "room", [{"sample_halfwidth": -1.0}, {"no_such_field": 1.0}]
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
