"""Tests of the benchmark harness itself (not of oslc).

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import make_workloads  # noqa: E402

RECORDED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
UNRECORDED_SEED = 987654321


@pytest.fixture(scope="module")
def workloads(tmp_path_factory):
    return make_workloads(tmp_path_factory.mktemp("out"))


# -- span arithmetic -------------------------------------------------------------


def _span(sid, name, parent, start, end, run=1, size=1):
    return Span(sid=sid, name=name, parent=parent, run=run, start=start, end=end, size=size)


def test_self_time_subtracts_direct_children_once():
    spans = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 3.0),
        _span(2, "b", 0, 2.0, 4.0),      # overlaps a: the union counts once
        _span(3, "a.child", 1, 1.5, 2.5),  # grandchild: already inside a
        _span(4, "c", 0, 8.0, 9.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)


def test_covered_clips_to_the_window_and_merges():
    assert tracing.covered([(-1.0, 1.0), (0.5, 2.0), (5.0, 7.0)], 0.0, 6.0) == pytest.approx(3.0)
    assert tracing.covered([], 0.0, 1.0) == 0.0
    assert tracing.union_length([_span(0, "x", None, 1.0, 2.0), _span(1, "x", 0, 1.2, 1.5)]) == pytest.approx(1.0)


def test_layer_metrics_per_row_self_time_and_count_violations():
    def job(run_id, rows, base):
        return [
            _span(base, "simulate.simulate_ser", None, 0.0, 1.0, run_id, size=rows),
            _span(base + 1, "lattices.decode_shifted_union_batch", base, 0.1, 0.9, run_id, size=rows),
            _span(base + 2, "codes.BinaryBlockCode.soft_ml_decode_batch", base + 1, 0.2, 0.6, run_id, size=2 * rows),
        ]

    same = job(1, 100, 0) + job(2, 100, 3)
    metrics, violations = tracing.layer_metrics(same, 0, [1, 2], scan_flops_per_row=2)
    assert violations == []
    assert metrics["codes.decode_rows"] == 200
    assert metrics["codes.decode_us_per_row"] == pytest.approx(0.4 * 1e6 / 200)
    assert metrics["lattices.leech_self_us_per_row"] == pytest.approx(0.4 * 1e6 / 100)
    assert metrics["simulate.self_us_per_trial"] == pytest.approx(0.2 * 1e6 / 100)
    assert metrics["simulate.trials_committed"] == 100
    assert metrics["shells.sample_us_per_point"] == 0.0

    differ = job(1, 100, 0) + job(2, 101, 3)
    _, violations = tracing.layer_metrics(differ, 0, [1, 2], scan_flops_per_row=2)
    assert any("codes.decode_rows" in v for v in violations)
    assert any("simulate.trials_committed" in v for v in violations)


def test_tracer_wraps_imported_names_and_restores_them():
    import numpy as np
    from oslc import lattices, simulate

    original = lattices.nearest_point_dn_batch
    tracer = tracing.Tracer()
    with tracer.installed():
        assert simulate.nearest_point_dn_batch is not original
        simulate.nearest_point_dn_batch(np.zeros((3, 24)))
    assert simulate.nearest_point_dn_batch is original
    assert lattices.nearest_point_dn_batch is original
    assert [(s.name, s.size) for s in tracer.spans] == [("lattices.nearest_point_dn_batch", 3)]


def test_untraced_run_imports_no_tracing_code():
    code = ("import sys; sys.path[:0] = ['src', 'bench']; import run; run._load_oslc(); "
            "import workloads; print('tracing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH.parent,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


# -- output checks ---------------------------------------------------------------


def test_recorded_job_passes_and_a_perturbed_error_count_fails(workloads):
    leech = workloads["ser-leech"]
    state = leech.setup(0)
    outputs = leech.run(state)
    expected = RECORDED["workloads"]["ser-leech"]["0"]

    ledger = run.Ledger(leech, state, expected)
    ledger.record(outputs)
    assert (ledger.attempted, ledger.failed) == (2, 0)

    perturbed = copy.deepcopy(expected)
    perturbed["points"][0][2] += 1
    ledger = run.Ledger(leech, state, perturbed)
    ledger.record(outputs)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "recorded" in ledger.problems[0]


def test_unrecorded_seed_changes_inputs_and_skips_only_golden(workloads):
    assert str(UNRECORDED_SEED) not in RECORDED["workloads"]["ser-leech"]
    for workload in workloads.values():
        assert repr(workload.inputs(0)) != repr(workload.inputs(UNRECORDED_SEED))

    leech = workloads["ser-leech"]
    trials = leech.trials_per_point
    good = {"points": [[25.5, trials, 30]]}
    ledger = run.Ledger(leech, None, expected=None)
    ledger.record(good)
    assert ledger.failed == 0

    # The job-to-job comparison still runs without a recorded seed ...
    ledger.record({"points": [[25.5, trials, 31]]})
    assert ledger.failed == 1
    # ... and so do the workload's own checks.
    ledger = run.Ledger(leech, None, expected=None)
    ledger.record({"points": [[25.5, trials - 1, 30]]})
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_design_check_flags_a_round_trip_that_changed_bits(workloads):
    import numpy as np

    design = workloads["design"]
    state = {"inputs": {"bits": [np.array([[0, 1, 1], [1, 0, 0]])]}}
    outputs = {"table": [], "demapped": [np.array([0, 1, 1]), np.array([1, 1, 0])]}
    assert [i for i, _ in design.check(outputs, state)] == [1]
    outputs["demapped"][0] = ValueError("boom")
    assert [i for i, _ in design.check(outputs, state)] == [0, 1]
