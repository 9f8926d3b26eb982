"""The four benchmark workloads.

Each workload builds its inputs from the workload seed, sets up its
constellation specs (``setup``), runs one fixed-size job on them (``run``)
and checks the job's outputs (``check``).  A job's amount of work never
depends on RNG luck: every Monte Carlo point runs with ``target_errors=None``
and a fixed trial budget, so one job always commits the same trials.

``golden`` reduces a job's outputs to the values stored per recorded seed in
``expected.json``.

Calls into ``oslc`` go through module attributes (``simulate.simulate_ser``,
not a name imported at load time) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from oslc import cli, codes, constellations, indoor, shaping, simulate

BATCH = 4096

__all__ = ["make_workloads", "scan_flops_per_row"]


def _points(records) -> list[list]:
    return [[rec.osnr_db, rec.trials, rec.errors] for rec in records]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _SerWorkload:
    """Shared shape of the two Monte Carlo SER workloads."""

    kind: str
    unit = "trials"
    beta = 5
    alpha = 0.2
    osnr_db: tuple[float, ...]
    batches_per_point: int

    @property
    def trials_per_point(self) -> int:
        return self.batches_per_point * BATCH

    def inputs(self, seed: int) -> dict:
        """The Monte Carlo draws all derive from the seed the program gets."""
        return {"seed": seed}

    def setup(self, seed: int) -> dict:
        spec = constellations.build_spec(self.kind, self.beta, self.alpha)
        spec.sampler
        return {"inputs": self.inputs(seed), "specs": [spec]}

    def work(self) -> int:
        return self.trials_per_point * len(self.osnr_db)

    def output_count(self, outputs) -> int:
        return len(outputs["points"])

    def check(self, outputs, state) -> list[tuple]:
        """Every point committed its full budget and an error rate that a
        working decoder gives at these OSNRs (a broken one errs on most
        symbols)."""
        problems = []
        for i, (osnr, trials, errors) in enumerate(outputs["points"]):
            if trials != self.trials_per_point:
                problems.append((i, f"{osnr} dB: {trials} trials, budget {self.trials_per_point}"))
            if not 0 <= errors <= 0.05 * trials:
                problems.append((i, f"{osnr} dB: {errors} errors in {trials} trials"))
        return problems

    def expected_counts(self, outputs) -> dict:
        trials = self.work()
        return {
            "shells.sample_points": trials,
            "codes.decode_rows": 2 * trials if self.kind == "oslc" else 0,
            "indoor.link_budget_calls": 0,
            "simulate.trials_committed": trials,
        }

    def golden(self, outputs) -> dict:
        return {"points": outputs["points"]}


class SerLeech(_SerWorkload):
    """simulate_ser on the shaped Leech design: the decoders dominate."""

    name = "ser-leech"
    kind = "oslc"
    osnr_db = (25.5,)
    batches_per_point = 6

    def run(self, state) -> dict:
        rec = simulate.simulate_ser(
            state["specs"][0], self.osnr_db[0], seed=state["inputs"]["seed"],
            target_errors=None, max_trials=self.trials_per_point,
            batch_size=BATCH, threads=1,
        )
        return {"points": _points([rec])}


class SerD24(_SerWorkload):
    """ser_sweep on the D24 baseline: the shaping sampler dominates and the
    Golay decoder does no work at all."""

    name = "ser-d24"
    kind = "tcc"
    osnr_db = (25.75, 26.0, 26.25)
    batches_per_point = 8

    def run(self, state) -> dict:
        recs = simulate.ser_sweep(
            state["specs"][0], list(self.osnr_db), seed=state["inputs"]["seed"],
            target_errors=None, max_trials=self.trials_per_point,
            batch_size=BATCH, threads=1,
        )
        return {"points": _points(recs)}


class IndoorSurvey:
    """``oslc indoor`` in process at threads=2: a fine heatmap and many short
    survey positions, so orchestration (pools, pickling, scalar link budgets,
    CSV, hashing, manifest) dominates and the kernels do not."""

    name = "indoor-survey"
    unit = "trials"
    positions = 16
    trials_per_pos = 2 * BATCH
    grid_step = 0.05

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def inputs(self, seed: int) -> dict:
        return {"argv": [
            "indoor", "--scheme", "tcc", "--beta", "5", "--alpha", "0.3",
            "--threads", "2", "--positions", str(self.positions),
            "--trials-per-pos", str(self.trials_per_pos),
            "--grid-step", str(self.grid_step), "--seed", str(seed),
            "--out", str(self.out_dir / "indoor.csv"),
        ]}

    def setup(self, seed: int) -> dict:
        spec = constellations.build_spec("tcc", 5, 0.3)
        spec.sampler
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return {"inputs": self.inputs(seed), "specs": [spec]}

    def work(self) -> int:
        return self.positions * self.trials_per_pos

    def run(self, state) -> dict:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(state["inputs"]["argv"]))
        csv_path = self.out_dir / "indoor.csv"
        summary_path = self.out_dir / "indoor_summary.json"
        manifest = json.loads((self.out_dir / "indoor_manifest.json").read_text())
        return {
            "exit_code": code,
            "csv_sha256": _sha256(csv_path),
            "summary_sha256": _sha256(summary_path),
            "summary": json.loads(summary_path.read_text()),
            "cells": len(csv_path.read_text().splitlines()) - 1,
            "manifest_sha256": [o["sha256"] for o in manifest["outputs"]],
        }

    def output_count(self, outputs) -> int:
        return 3  # heatmap CSV, summary, manifest

    def check(self, outputs, state) -> list[tuple]:
        problems = []
        summary = outputs["summary"]
        if outputs["exit_code"] != 0:
            problems.append(("summary", f"oslc indoor exited {outputs['exit_code']}"))
        if summary["total_trials"] != self.work():
            problems.append(("summary", f"{summary['total_trials']} trials, budget {self.work()}"))
        if not 0.0 <= summary["average_ser"] <= 0.05:
            problems.append(("summary", f"average SER {summary['average_ser']}"))
        if outputs["manifest_sha256"] != [outputs["csv_sha256"], outputs["summary_sha256"]]:
            problems.append(("manifest", "manifest hashes disagree with the files written"))
        side = round(2 * indoor.RoomConfig().sample_halfwidth / self.grid_step) + 1
        if outputs["cells"] != side * side:
            problems.append(("csv", f"{outputs['cells']} heatmap cells, expected {side * side}"))
        return problems

    def expected_counts(self, outputs) -> dict:
        # Kernels run in pool workers, so the parent samples and decodes nothing.
        return {
            "shells.sample_points": 0,
            "codes.decode_rows": 0,
            "indoor.link_budget_calls": outputs["cells"] + self.positions,
            "simulate.trials_committed": self.work(),
        }

    def golden(self, outputs) -> dict:
        return {"csv_sha256": outputs["csv_sha256"],
                "summary_sha256": outputs["summary_sha256"]}


class Design:
    """Design tables and exact-integer bit mapping: the only workload on the
    composition-table, selection and rank/unrank path (indices above 2**100)."""

    name = "design"
    unit = "round trips"
    kinds = ("oslc", "tcc")
    betas = (2, 3, 4, 5)
    alphas = (0.2, 0.3)
    dims = range(2, 33)
    symbols_per_spec = 64

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {"bits": [
            rng.integers(0, 2, size=(self.symbols_per_spec, 24 * beta), dtype=np.int64)
            for _kind in self.kinds for beta in self.betas for _alpha in self.alphas
        ]}

    def setup(self, seed: int) -> dict:
        specs = [
            constellations.build_spec(kind, beta, alpha)
            for kind in self.kinds for beta in self.betas for alpha in self.alphas
        ]
        for spec in specs:
            spec.sampler
        return {"inputs": self.inputs(seed), "specs": specs}

    def work(self) -> int:
        return self.symbols_per_spec * len(self.kinds) * len(self.betas) * len(self.alphas)

    def run(self, state) -> dict:
        table = [
            shaping.solve_t_star(n, alpha) for n in self.dims for alpha in self.alphas
        ]
        mapped, demapped = [], []
        for spec, bits in zip(state["specs"], state["inputs"]["bits"]):
            for row in bits:
                point = constellations.map_bits(spec, row)
                mapped.append(point)
                try:
                    demapped.append(constellations.demap_point(spec, point))
                except constellations.DemapError as exc:
                    demapped.append(exc)
        return {"table": table, "mapped": mapped, "demapped": demapped}

    def output_count(self, outputs) -> int:
        return len(outputs["demapped"]) + 1  # every round trip, and the t* table

    def check(self, outputs, state) -> list[tuple]:
        problems = []
        sent = [row for bits in state["inputs"]["bits"] for row in bits]
        for i, (row, back) in enumerate(zip(sent, outputs["demapped"])):
            if isinstance(back, Exception):
                problems.append((i, f"symbol {i}: unexpected {type(back).__name__}: {back}"))
            elif not np.array_equal(row, back):
                problems.append((i, f"symbol {i}: round trip changed the bits"))
        if len(outputs["demapped"]) != len(sent):
            problems.append(("count", f"{len(outputs['demapped'])} round trips for {len(sent)} symbols"))
        for sol in outputs["table"]:
            if not (math.isfinite(sol.t_star) and math.isfinite(sol.sg_db)):
                problems.append(("table", f"solve_t_star({sol.n}, {sol.alpha}) is not finite"))
        return problems

    def expected_counts(self, outputs) -> dict:
        return dict.fromkeys(
            ("shells.sample_points", "codes.decode_rows",
             "indoor.link_budget_calls", "simulate.trials_committed"), 0)

    def golden(self, outputs) -> dict:
        """SHA-256 over the t* table and every mapped point."""
        digest = hashlib.sha256()
        for sol in outputs["table"]:
            digest.update(repr((sol.n, sol.alpha, sol.t_star, sol.sg_db)).encode())
        for point in outputs["mapped"]:
            digest.update(np.asarray(point, dtype=np.int64).tobytes())
        return {"digest": digest.hexdigest()}


def scan_flops_per_row() -> int:
    """Multiply-adds of the exhaustive Golay scan per decoded row, counted as
    two flops each: 2**k codewords times n coordinates."""
    return (1 << codes.GOLAY.k) * codes.GOLAY.n * 2


def make_workloads(out_dir: Path) -> dict:
    return {w.name: w for w in (SerLeech(), SerD24(), IndoorSurvey(out_dir / "indoor"), Design())}
