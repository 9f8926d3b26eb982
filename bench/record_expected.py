"""Record the golden outputs that ``run.py`` compares every job against.

    python3 bench/record_expected.py

Runs one job of every workload for each seed in SEEDS and writes
``expected.json``: exact (osnr, trials, errors) per Monte Carlo point, the
SHA-256 of the ``oslc indoor`` heatmap CSV and summary, and a digest of the
``design`` tables and mapped points.  Rerun it only when a change is meant
to alter these outputs, and say so in the change.
"""

from __future__ import annotations

import json

import run  # pins the BLAS threads before numpy loads, as a benchmark run does

SEEDS = range(20)


def main() -> None:
    run._load_oslc()
    from workloads import make_workloads

    recorded = {"command": "python3 bench/record_expected.py",
                "seeds": list(SEEDS), "workloads": {}}
    for name, workload in make_workloads(run.OUT).items():
        state = workload.setup(SEEDS[0])
        per_seed = {}
        for seed in SEEDS:
            state["inputs"] = workload.inputs(seed)
            outputs = workload.run(state)
            problems = workload.check(outputs, state)
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            per_seed[str(seed)] = workload.golden(outputs)
        recorded["workloads"][name] = per_seed
        print(f"{name}: recorded {len(per_seed)} seeds", flush=True)
    (run.BENCH / "expected.json").write_text(_format(recorded), encoding="utf-8")


def _format(recorded: dict) -> str:
    """JSON with one line per recorded seed, so a change shows as a line diff."""
    head = {k: v for k, v in recorded.items() if k != "workloads"}
    lines = [json.dumps(head)[:-1] + ', "workloads": {']
    for i, (name, per_seed) in enumerate(recorded["workloads"].items()):
        lines.append(f"  {json.dumps(name)}: {{")
        entries = [f"    {json.dumps(seed)}: {json.dumps(golden)}"
                   for seed, golden in per_seed.items()]
        lines.append(",\n".join(entries))
        lines.append("  }" + ("," if i + 1 < len(recorded["workloads"]) else ""))
    lines.append("}}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    main()
