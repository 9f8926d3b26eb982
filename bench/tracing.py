"""Span tracing for the traced benchmark run.

Wrappers defined here go around public functions of ``oslc`` while a
``Tracer`` is installed, and are removed again when it is uninstalled; the
package itself carries no tracing code.  Each call becomes a ``Span`` with a
name, start, end, parent span and run id.  Spans stay in memory and are
written out by the caller when the run ends.

Only the calling process is traced.  Work done in process-pool workers (the
``indoor`` survey at threads > 1) is invisible here: a worker inherits the
wrappers when it forks, but its spans die with it.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

__all__ = ["Span", "Tracer", "covered", "layer_metrics", "self_times", "union_length"]


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    run: int
    start: float
    end: float
    size: int = 1        # rows, points or trials handled by the call


def _first_arg_rows(args, kwargs, result):
    return int(args[0].shape[0]) if args[0].ndim == 2 else 1


def _second_arg_rows(args, kwargs, result):
    return int(args[1].shape[0])


def _count_arg(args, kwargs, result):
    return int(args[2] if len(args) > 2 else kwargs["count"])


def _trials(args, kwargs, result):
    return int(result.trials)


# (span name, module, attribute path, size function).  An attribute path with
# a dot names a class member; a plain name is a module-level function, which
# is also replaced wherever another oslc module imported it by name.
TARGETS = (
    ("shells.TdSampler.sample", "oslc.shells", "TdSampler.sample", _count_arg),
    ("shells.TdIndexer.rank", "oslc.shells", "TdIndexer.rank", None),
    ("shells.TdIndexer.unrank", "oslc.shells", "TdIndexer.unrank", None),
    ("shells.TdIndexer.__init__", "oslc.shells", "TdIndexer.__init__", None),
    ("shells.TdIndexer.selection", "oslc.shells", "TdIndexer.selection", None),
    ("codes.BinaryBlockCode.soft_ml_decode_batch", "oslc.codes",
     "BinaryBlockCode.soft_ml_decode_batch", _second_arg_rows),
    ("lattices.decode_shifted_union_batch", "oslc.lattices",
     "decode_shifted_union_batch", _first_arg_rows),
    ("lattices.nearest_point_dn_batch", "oslc.lattices",
     "nearest_point_dn_batch", _first_arg_rows),
    ("constellations.build_spec", "oslc.constellations", "build_spec", None),
    ("constellations.ConstellationSpec.sampler", "oslc.constellations",
     "ConstellationSpec.sampler", None),
    ("constellations.map_bits", "oslc.constellations", "map_bits", None),
    ("constellations.demap_point", "oslc.constellations", "demap_point", None),
    ("simulate.simulate_ser", "oslc.simulate", "simulate_ser", _trials),
    ("indoor.link_budget", "oslc.indoor", "link_budget", None),
    ("indoor.osnr_map", "oslc.indoor", "osnr_map", None),
    ("indoor.survey_ser", "oslc.indoor", "survey_ser", None),
    ("shaping.solve_t_star", "oslc.shaping", "solve_t_star", None),
    ("cli.main", "oslc.cli", "main", None),
)


class Tracer:
    """Records spans for wrapped calls; ``installed()`` patches and restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    def call(self, name, size, fn, args, kwargs):
        span = Span(
            sid=len(self.spans),
            name=name,
            parent=self._stack[-1] if self._stack else None,
            run=self.run,
            start=time.perf_counter(),
            end=0.0,
        )
        self.spans.append(span)
        self._stack.append(span.sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if size is not None:
            span.size = size(args, kwargs, result)
        return result

    def _wrap(self, name, size, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, size, fn, args, kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper in TARGETS for the duration of the block."""
        undo = []
        try:
            for name, module, path, size in TARGETS:
                owner = sys.modules[module]
                *cls_path, attr = path.split(".")
                if cls_path:
                    owner = getattr(owner, cls_path[0])
                    original = owner.__dict__[attr]
                    if isinstance(original, cached_property):
                        wrapped = cached_property(self._wrap(name, size, original.func))
                        wrapped.__set_name__(owner, attr)
                    else:
                        wrapped = self._wrap(name, size, original)
                    setattr(owner, attr, wrapped)
                    undo.append((owner, attr, original))
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(name, size, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "oslc" and getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


# -- span arithmetic -----------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - covered(children[s.sid], s.start, s.end)
        for s in spans
    }


def union_length(spans) -> float:
    """Wall time covered by any of ``spans``, so nested calls count once."""
    spans = list(spans)
    if not spans:
        return 0.0
    return covered([(s.start, s.end) for s in spans],
                   min(s.start for s in spans), max(s.end for s in spans))


# -- per-layer metrics -----------------------------------------------------------
#
# Which end-to-end metric (and workload) each per-layer metric should move:
#   shells.sample_us_per_point, shells.sample_points -> trials_per_s on ser-d24
#       (most of its time), less on ser-leech
#   shells.rank_us, shells.unrank_us -> trials_per_s (round trips) on design
#   shells.indexer_s -> setup_s on design
#   codes.decode_us_per_row, codes.decode_rows, codes.scan_mflop_per_row
#       -> trials_per_s on ser-leech; zero calls on ser-d24 and indoor-survey
#   lattices.leech_self_us_per_row -> ser-leech; lattices.dn_us_per_row -> ser-d24
#   constellations.build_s, constellations.sampler_init_s -> setup_s everywhere
#   constellations.map_us, constellations.demap_us -> trials_per_s on design
#   simulate.self_us_per_trial -> trials_per_s on ser-*
#   simulate.point_s_p50/p90, simulate.trials_committed -> run_s on indoor-survey
#   indoor.* and cli.self_s -> run_s on indoor-survey
#   shaping.solve_us -> run_s on design
#
# codes.scan_mflop_per_row is computed (2**k codewords x n x 2 flops for the
# exhaustive Golay scan), not measured.

# Counts that must repeat exactly from run to run (and job to job).
EXACT_COUNTS = (
    "codes.decode_rows",
    "shells.sample_points",
    "indoor.link_budget_calls",
    "simulate.trials_committed",
)


def _per_unit(seconds: float, units: int, scale: float = 1e6) -> float:
    return seconds * scale / units if units else 0.0


def _job_metrics(spans, selfs) -> dict:
    """Per-layer figures of one traced job (all spans share one run id)."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def rows(name):
        return sum(s.size for s in by[name])

    def busy(name):
        return union_length(by[name])

    def self_sum(name):
        return sum(selfs[s.sid] for s in by[name])

    figures = {
        "shells.sample_points": rows("shells.TdSampler.sample"),
        "shells.sample_s": busy("shells.TdSampler.sample"),
        "codes.decode_rows": rows("codes.BinaryBlockCode.soft_ml_decode_batch"),
        "codes.decode_s": busy("codes.BinaryBlockCode.soft_ml_decode_batch"),
        "lattices.leech_rows": rows("lattices.decode_shifted_union_batch"),
        "lattices.leech_self_s": self_sum("lattices.decode_shifted_union_batch"),
        "lattices.dn_rows": rows("lattices.nearest_point_dn_batch"),
        "lattices.dn_s": busy("lattices.nearest_point_dn_batch"),
        "simulate.trials_committed": rows("simulate.simulate_ser"),
        "simulate.self_s": self_sum("simulate.simulate_ser"),
        "simulate.point_durations": [s.end - s.start for s in by["simulate.simulate_ser"]],
        "indoor.osnr_map_s": busy("indoor.osnr_map"),
        "indoor.survey_self_s": self_sum("indoor.survey_ser"),
        "cli.self_s": self_sum("cli.main"),
    }
    for key, name in (
        ("indoor.link_budget", "indoor.link_budget"),
        ("shells.rank", "shells.TdIndexer.rank"),
        ("shells.unrank", "shells.TdIndexer.unrank"),
        ("constellations.map", "constellations.map_bits"),
        ("constellations.demap", "constellations.demap_point"),
        ("shaping.solve", "shaping.solve_t_star"),
    ):
        figures[key + "_calls"] = len(by[name])
        figures[key + "_s"] = busy(name)
    return figures


def layer_metrics(spans, setup_run: int, job_runs, scan_flops_per_row: int):
    """Per-layer metrics from the setup run and the traced job runs.

    Returns (metrics, count_violations).  Per-call figures pool every traced
    job; per-job seconds are medians over jobs; counts are per job and must
    be identical across jobs, otherwise a violation is reported.
    """
    selfs = self_times(spans)
    by_run = defaultdict(list)
    for s in spans:
        by_run[s.run].append(s)
    setup = by_run[setup_run]
    jobs = [_job_metrics(by_run[r], selfs) for r in job_runs]

    violations = [
        f"{name} differs between traced jobs: {[j[name] for j in jobs]}"
        for name in EXACT_COUNTS
        if len({j[name] for j in jobs}) > 1
    ]

    def total(key):
        return sum(j[key] for j in jobs)

    def med(key):
        return statistics.median(j[key] for j in jobs)

    durations = sorted(d for j in jobs for d in j["simulate.point_durations"])
    p50 = statistics.median(durations) if durations else 0.0
    p90 = statistics.quantiles(durations, n=10)[-1] if len(durations) > 1 else p50
    first = jobs[0]
    decode_rows = first["codes.decode_rows"]
    metrics = {
        "shells.sample_us_per_point": _per_unit(total("shells.sample_s"), total("shells.sample_points")),
        "shells.sample_points": first["shells.sample_points"],
        "shells.rank_us": _per_unit(total("shells.rank_s"), total("shells.rank_calls")),
        "shells.unrank_us": _per_unit(total("shells.unrank_s"), total("shells.unrank_calls")),
        "shells.indexer_s": union_length(
            s for s in setup
            if s.name in ("shells.TdIndexer.__init__", "shells.TdIndexer.selection")
        ),
        "codes.decode_us_per_row": _per_unit(total("codes.decode_s"), total("codes.decode_rows")),
        "codes.decode_rows": decode_rows,
        "codes.scan_mflop_per_row": scan_flops_per_row / 1e6 if decode_rows else 0.0,
        "lattices.leech_self_us_per_row": _per_unit(total("lattices.leech_self_s"), total("lattices.leech_rows")),
        "lattices.dn_us_per_row": _per_unit(total("lattices.dn_s"), total("lattices.dn_rows")),
        "constellations.build_s": union_length(
            s for s in setup if s.name == "constellations.build_spec"),
        "constellations.sampler_init_s": union_length(
            s for s in setup if s.name == "constellations.ConstellationSpec.sampler"),
        "constellations.map_us": _per_unit(total("constellations.map_s"), total("constellations.map_calls")),
        "constellations.demap_us": _per_unit(total("constellations.demap_s"), total("constellations.demap_calls")),
        "simulate.self_us_per_trial": _per_unit(total("simulate.self_s"), total("simulate.trials_committed")),
        "simulate.point_s_p50": p50,
        "simulate.point_s_p90": p90,
        "simulate.trials_committed": first["simulate.trials_committed"],
        "indoor.link_budget_us": _per_unit(total("indoor.link_budget_s"), total("indoor.link_budget_calls")),
        "indoor.link_budget_calls": first["indoor.link_budget_calls"],
        "indoor.osnr_map_s": med("indoor.osnr_map_s"),
        "indoor.survey_self_s": med("indoor.survey_self_s"),
        "shaping.solve_us": _per_unit(total("shaping.solve_s"), total("shaping.solve_calls")),
        "cli.self_s": med("cli.self_s"),
    }
    return metrics, violations
