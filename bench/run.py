"""Benchmark of the oslc simulator: one workload per run, closed loop.

    python3 bench/run.py --workload ser-leech --seed 0 --seconds 20 --trace 0

A run sets up the workload's constellation specs, then repeats one
fixed-size job of that workload back to back (each job starts when the last
one ends) until the jobs add up to about ``--seconds`` seconds, after one
warm-up job.  ``run_s`` is the median job time and ``setup_s`` the median of
five set-ups, each in a fresh interpreter, taken at intervals across the run.  Every
job's outputs are checked; for a seed recorded in ``expected.json`` they must
also equal the recorded ones.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` count checked outputs, and
``metrics`` holds the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``)
or its per-layer metrics (``--trace 1``).

The untraced run never imports ``tracing``.  The traced run wraps oslc's
public functions with it, runs half its time untraced and half traced, and
reports the difference of the two medians as ``trace.overhead_s``.  It
writes its spans to ``bench/_out/``.

OpenBLAS, OpenMP and MKL are pinned to one thread before numpy loads: the
Golay scan is a matrix product, and its speed depends on the BLAS thread
count, which must therefore be the same on every commit measured.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
SETUP_SAMPLES = 5      # fresh-interpreter set-ups per run; setup_s is their median
MIN_JOBS = 3           # timed jobs per run, however long a job takes


def _load_oslc():
    """Import oslc from this checkout's ``src``, or exit without a result."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import oslc
    except ImportError as exc:
        sys.exit(f"bench: cannot import oslc from {SRC}: {exc}")
    if SRC.resolve() not in Path(oslc.__file__).resolve().parents:
        sys.exit(f"bench: imported oslc from {oslc.__file__}, not from {SRC}")


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        if ".so" not in path:
            continue
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def machine_facts(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    """Largest peak resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _fresh_setup_s(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def compare_golden(golden: dict, expected: dict) -> list[str]:
    """Keys whose value differs from the expected one."""
    return [
        f"{key}: got {golden.get(key)!r}, recorded {value!r}"
        for key, value in expected.items()
        if golden.get(key) != value
    ]


class Ledger:
    """Checks every job's outputs and counts attempted and failed outputs.

    Per job: each output the workload checks, plus one comparison of the
    job's golden values with the first job's (and with ``expected`` when
    the seed is recorded).
    """

    def __init__(self, workload, state, expected: dict | None):
        self.workload = workload
        self.state = state
        self.expected = expected
        self.first_golden = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, count: int, messages) -> None:
        self.failed += count
        self.problems.extend(messages)

    def record(self, outputs) -> None:
        problems = self.workload.check(outputs, self.state)
        self.attempted += self.workload.output_count(outputs) + 1
        self.fail(len({out_id for out_id, _ in problems}), [m for _, m in problems])
        golden = self.workload.golden(outputs)
        if self.first_golden is None:
            self.first_golden = golden
        diffs = compare_golden(golden, self.first_golden)
        if self.expected is not None:
            diffs += compare_golden(golden, self.expected)
        if diffs:
            self.fail(1, diffs)

    def record_crash(self) -> None:
        self.attempted += 1
        self.fail(1, [traceback.format_exc()])

    def check_counts(self, counts: dict, expected: dict) -> None:
        """Exact per-job counts from the traced run against the workload's."""
        self.attempted += len(expected)
        wrong = [f"{k}: counted {counts[k]}, expected {v}"
                 for k, v in expected.items() if counts[k] != v]
        self.fail(len(wrong), wrong)


def run_jobs(workload, state, seconds: float, ledger: Ledger, begin=None, between=None):
    """One warm-up job, then timed jobs back to back until they add up to
    about ``seconds``.

    ``begin(job)`` runs before each job and ``between(share)`` after each
    timed one, with the share of ``seconds`` the timed jobs have used so
    far; neither counts towards the jobs' time.  Returns (job times in
    seconds, outputs of the last job).  A job that raises is counted as
    failed and ends the loop.
    """
    times: list[float] = []
    outputs = None
    job = 0
    while job == 0 or len(times) < MIN_JOBS or sum(times) + times[-1] / 2 < seconds:
        if begin is not None:
            begin(job)
        t0 = time.perf_counter()
        try:
            outputs = workload.run(state)
        except Exception:
            ledger.record_crash()
            break
        elapsed = time.perf_counter() - t0
        ledger.record(outputs)
        if job > 0:
            times.append(elapsed)
            if between is not None:
                between(sum(times) / seconds)
        job += 1
    return times, outputs


def _summary(values) -> str:
    return (f"median {statistics.median(values):.6g}, min {min(values):.6g}, "
            f"max {max(values):.6g}, n={len(values)}")


def plain_run(workload, args, expected, log) -> tuple[Ledger, dict]:
    t0 = time.perf_counter()
    state = workload.setup(args.seed)
    setups = [time.perf_counter() - t0]

    def sample_setup(share: float) -> None:
        # Spread the fresh-interpreter samples over the timed window, so a
        # short slow spell of a shared machine does not skew all of them.
        if len(setups) < SETUP_SAMPLES and share >= len(setups) / SETUP_SAMPLES:
            setups.append(_fresh_setup_s(args.workload, args.seed))

    ledger = Ledger(workload, state, expected)
    times, _ = run_jobs(workload, state, args.seconds, ledger, between=sample_setup)
    while len(setups) < SETUP_SAMPLES:
        setups.append(_fresh_setup_s(args.workload, args.seed))
    if not times:
        return ledger, {}
    run_s = statistics.median(times)
    log(f"setup_s: {_summary(setups)} (fresh interpreters)")
    log(f"run_s: {_summary(times)} (one job = {workload.work()} {workload.unit})")
    return ledger, {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "trials_per_s": workload.work() / run_s,
        "peak_rss_mb": _peak_rss_mb(),
    }


def traced_run(workload, args, expected, log, facts) -> tuple[Ledger, dict]:
    import tracing
    from workloads import scan_flops_per_row

    tracer = tracing.Tracer()
    with tracer.installed():
        state = workload.setup(args.seed)
    ledger = Ledger(workload, state, expected)
    untraced, _ = run_jobs(workload, state, args.seconds / 2, ledger)
    first_traced = tracer.run = 1
    with tracer.installed():
        traced, outputs = run_jobs(
            workload, state, args.seconds / 2, ledger,
            begin=lambda job: setattr(tracer, "run", first_traced + job),
        )
    if not (untraced and traced):
        return ledger, {}
    job_runs = range(first_traced + 1, first_traced + 1 + len(traced))
    metrics, violations = tracing.layer_metrics(
        tracer.spans, 0, job_runs, scan_flops_per_row())
    ledger.attempted += len(tracing.EXACT_COUNTS)
    ledger.fail(len(violations), violations)
    ledger.check_counts(metrics, workload.expected_counts(outputs))
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    log(f"untraced run_s: {_summary(untraced)}")
    log(f"traced run_s: {_summary(traced)}")
    if args.workload == "indoor-survey":
        log("kernels run in pool workers: traced figures cover the parent process only")
    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    fields = list(tracing.Span.__dataclass_fields__)
    trace_path.write_text(json.dumps({
        "workload": args.workload,
        "facts": facts,
        "metrics": metrics,
        "span_fields": fields,
        "spans": [[getattr(s, f) for f in fields] for s in tracer.spans],
    }) + "\n", encoding="utf-8")
    log(f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
    return ledger, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this interpreter and print it "
                             "(how a run takes its fresh-interpreter samples)")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _load_oslc()
    from workloads import make_workloads

    workloads = make_workloads(OUT)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(workloads)}")
    workload = workloads[args.workload]
    if args.setup_only:
        t0 = time.perf_counter()
        workload.setup(args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    def log(line: str) -> None:
        print(f"# {line}", flush=True)

    facts = machine_facts(args.seed)
    log("facts " + json.dumps(facts))
    recorded = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    expected = recorded["workloads"][args.workload].get(str(args.seed))
    log(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
        + ("golden outputs recorded for this seed" if expected is not None
           else "seed not recorded: golden comparisons skipped"))

    if args.trace:
        ledger, values = traced_run(workload, args, expected, log, facts)
    else:
        ledger, values = plain_run(workload, args, expected, log)
    section = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        ledger.fail(1, [f"no value for {missing}"])
        values = dict.fromkeys(missing, 0.0) | values
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    for name, metric in metrics.items():
        log(f"{name} = {metric['value']:.6g} {metric['unit']}")
    log(f"failed_frac = {ledger.failed / max(ledger.attempted, 1):.6g} "
        f"({ledger.failed} of {ledger.attempted} checked outputs)")
    for problem in ledger.problems[:20]:
        log(f"FAILED: {problem}")
    print(json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if ledger.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
