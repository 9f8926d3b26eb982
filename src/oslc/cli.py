"""Command line front end.

Four subcommands: ``shaping`` tabulates truncation parameters and shaping
gains, ``ser`` sweeps Monte Carlo error rates over an OSNR grid, ``indoor``
computes a room OSNR heatmap plus a position-averaged error survey, and
``verify`` runs the release-gate property suite.

Every run writes its primary output plus a manifest JSON recording the
command line, config snapshot, seed, package version, wall time, and a
SHA-256 of each output file.  Outputs are deterministic for a fixed seed:
rerunning a command reproduces byte-identical CSV and summary files.

Exit codes: 0 on success, 2 on usage or configuration errors, 3 when the
verification suite reports a failed property.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .codes import GOLAY, BinaryBlockCode
from .constellations import SCHEMES, build_spec
from .indoor import RoomConfig, check_survey, osnr_map, survey_ser
from .selfcheck import run_property_suite
from .shaping import solve_t_star
from .simulate import ser_sweep

__all__ = ["main"]


# Most points an axis may have; a range is counted before its list is built.
_MAX_AXIS_POINTS = 1000

# Dimensions ``shaping`` tabulates: above n = 40 its sums run in exact
# rationals at a cost of about n**3, seconds per alpha at n = 128.
_SHAPING_DIMS = range(1, 129)


def _axis_length(steps, text: str) -> int:
    """1 + ``steps`` rounded, or ValueError above _MAX_AXIS_POINTS or at inf/nan."""
    if not steps < _MAX_AXIS_POINTS - 0.5:
        raise ValueError(f"axis {text!r} has more than {_MAX_AXIS_POINTS} points")
    return round(steps) + 1


def _parse_list(text: str, kind) -> list:
    """The ``kind`` values of a comma list; ValueError if it has none."""
    _axis_length(text.count(","), text)
    values = [kind(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"axis {text!r} has no points")
    return values


def _parse_int_axis(text: str) -> list[int]:
    """Parse "24", "2,5,9", or an inclusive range "2:32"."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad integer range {text!r}")
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step <= 0 or stop < start:
            raise ValueError(f"bad integer range {text!r}")
        _axis_length((stop - start) // step, text)
        return list(range(start, stop + 1, step))
    return _parse_list(text, int)


def _parse_float_axis(text: str) -> list[float]:
    """Parse "0.2", "0.2,0.3", or an inclusive range "22:26:0.5"."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"float ranges need start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not (step > 0 and start <= stop):
            raise ValueError(f"bad float range {text!r}")
        count = _axis_length((stop - start) / step, text)
        return [round(start + i * step, 10) for i in range(count)]
    return _parse_list(text, float)


def _fmt(value) -> str:
    return repr(float(value))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(
    out: Path, argv, config, seed, started: float, outputs
) -> Path:
    manifest = {
        "command_line": ["oslc", *argv],
        "config": config,
        "seed": seed,
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 6),
        "outputs": [
            {"path": str(p), "sha256": _sha256(p), "bytes": p.stat().st_size}
            for p in outputs
        ],
    }
    path = out.with_name(out.stem + "_manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def _resolve(args, config: dict, key: str, default, kinds=str, what="a string"):
    """The flag ``key``, else its config entry, else ``default``: an instance
    of ``kinds`` other than a bool, or ValueError naming ``key``."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return value


def _resolve_out(args, config: dict, default: str) -> Path:
    """The ``out`` path, or ValueError if it names a directory or its
    directory is missing: checked before any work, not after it."""
    out = Path(_resolve(args, config, "out", default))
    try:
        if out.is_dir():
            raise ValueError(f"out {str(out)!r} is a directory")
        if not out.parent.is_dir():
            raise ValueError(f"out {str(out)!r}: {str(out.parent)!r} is not a directory")
    except OSError as exc:  # a name too long, say
        raise ValueError(f"out {str(out)!r}: {exc.strerror}") from None
    return out


def _resolve_int(args, config: dict, key: str, default: int) -> int:
    return _resolve(args, config, key, default, int, "an integer")


def _resolve_float(args, config: dict, key: str, default: float) -> float:
    return float(_resolve(args, config, key, default, (int, float), "a number"))


def _resolve_seed(args, config: dict) -> int:
    """The ``seed`` of any subcommand, or ValueError unless it is an integer
    of at least 0, which is all ``numpy.random.SeedSequence`` takes."""
    seed = _resolve_int(args, config, "seed", 0)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _resolve_design(args, config: dict) -> tuple[str, int, float, int, int]:
    """Scheme, beta, alpha, seed and threads of a ``ser`` or ``indoor`` run."""
    scheme = _resolve(args, config, "scheme", None, what=f"one of {SCHEMES}")
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    return (
        scheme,
        _resolve_int(args, config, "beta", 5),
        _resolve_float(args, config, "alpha", 0.2),
        _resolve_seed(args, config),
        _resolve_int(args, config, "threads", 1),
    )


def _room_from_config(config: dict) -> RoomConfig:
    try:
        overrides = dict(config.get("room", {}))
        if "lamp_xy" in overrides:
            overrides["lamp_xy"] = tuple(tuple(xy) for xy in overrides["lamp_xy"])
        return RoomConfig(**overrides)
    except TypeError as exc:
        raise ValueError(f"bad room config: {exc}") from None


def _cmd_shaping(args, config, argv) -> int:
    started = time.perf_counter()
    out = _resolve_out(args, config, "shaping.csv")
    dims = _parse_int_axis(_resolve(args, config, "n", "2:32"))
    for n in dims:
        if n not in _SHAPING_DIMS:
            raise ValueError(f"n must lie in 1..{_SHAPING_DIMS[-1]}, got {n}")
    alphas = _parse_float_axis(_resolve(args, config, "alpha", "0.2,0.3"))
    seed = _resolve_seed(args, config)
    rows = []
    for n in dims:
        for alpha in alphas:
            sol = solve_t_star(n, alpha)
            rows.append(
                (
                    n,
                    _fmt(alpha),
                    _fmt(sol.t_star),
                    _fmt(sol.t_star_approx),
                    _fmt(sol.sg_db),
                    _fmt(sol.sg_db_approx),
                    _fmt(sol.mu_star),
                )
            )
    header = ("n", "alpha", "t_star", "t_star_approx",
              "sg_db", "sg_db_approx", "mu_star")
    _write_csv(out, header, rows)
    _write_manifest(out, argv, config, seed, started, [out])
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_ser(args, config, argv) -> int:
    started = time.perf_counter()
    out = _resolve_out(args, config, "ser.csv")
    scheme, beta, alpha, seed, threads = _resolve_design(args, config)
    grid = _parse_float_axis(_resolve(args, config, "osnr", "24:29:1"))
    spec = build_spec(scheme, beta, alpha)
    records = ser_sweep(
        spec,
        grid,
        seed=seed,
        target_errors=_resolve_int(args, config, "target_errors", 100),
        max_trials=_resolve_int(args, config, "max_trials", 20_000_000),
        batch_size=_resolve_int(args, config, "batch_size", 4096),
        threads=threads,
    )
    header = ("osnr_db", "trials", "errors", "ser", "ci95_low", "ci95_high",
              "scheme", "beta", "alpha", "seed", "ub")
    rows = [
        (
            _fmt(rec.osnr_db),
            rec.trials,
            rec.errors,
            _fmt(rec.ser),
            _fmt(rec.ci95_low),
            _fmt(rec.ci95_high),
            scheme,
            beta,
            _fmt(alpha),
            rec.seed,
            "" if rec.ub is None else _fmt(rec.ub),
        )
        for rec in records
    ]
    _write_csv(out, header, rows)
    _write_manifest(out, argv, config, seed, started, [out])
    print(f"wrote {len(rows)} operating points to {out}")
    return 0


def _cmd_indoor(args, config, argv) -> int:
    started = time.perf_counter()
    out = _resolve_out(args, config, "indoor.csv")
    scheme, beta, alpha, seed, threads = _resolve_design(args, config)
    positions = _resolve_int(args, config, "positions", 100)
    trials = _resolve_int(args, config, "trials_per_pos", 10_000)
    grid_step = _resolve_float(args, config, "grid_step", 0.25)
    check_survey(positions, trials, threads)
    room = _room_from_config(config)
    spec = build_spec(scheme, beta, alpha)

    omap = osnr_map(room, grid_step, alpha)
    survey = survey_ser(
        room,
        spec,
        n_positions=positions,
        trials_per_pos=trials,
        seed=seed,
        threads=threads,
    )
    # Written only now, so a failed survey leaves no partial heatmap behind.
    rows = [
        (_fmt(x), _fmt(y), _fmt(omap.osnr_db[i, j]))
        for i, x in enumerate(omap.xs)
        for j, y in enumerate(omap.ys)
    ]
    _write_csv(out, ("x", "y", "osnr_db"), rows)
    summary = {
        "scheme": scheme,
        "beta": beta,
        "alpha": alpha,
        "positions": positions,
        "trials_per_position": trials,
        "total_trials": survey.trials,
        "total_errors": survey.errors,
        "average_ser": survey.ser,
        "map_min_osnr_db": float(omap.osnr_db.min()),
        "map_max_osnr_db": float(omap.osnr_db.max()),
        "seed": seed,
    }
    summary_path = out.with_name(out.stem + "_summary.json")
    summary_path.write_text(json.dumps(summary) + "\n", encoding="utf-8")
    _write_manifest(out, argv, config, seed, started, [out, summary_path])
    print(f"wrote {len(rows)} heatmap cells to {out}")
    print(f"average SER {survey.ser:.3e} over {positions} positions "
          f"({summary_path})")
    return 0


def _cmd_verify(args, config, argv) -> int:
    started = time.perf_counter()
    out = _resolve_out(args, config, "verify.json")
    seed = _resolve_seed(args, config)
    code = GOLAY
    if getattr(args, "corrupt_code", False):
        generator = GOLAY.generator.copy()
        generator[0, 23] ^= 1
        code = BinaryBlockCode(generator, name="corrupted")
    results = run_property_suite(code=code, seed=seed)
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
    n_failed = sum(not r.passed for r in results)
    report = {
        "version": __version__,
        "seed": seed,
        "n_checks": len(results),
        "n_passed": len(results) - n_failed,
        "n_failed": n_failed,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
    }
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    _write_manifest(out, argv, config, seed, started, [out])
    print(f"{len(results)} checks, {report['n_passed']} passed, "
          f"{n_failed} failed ({out})")
    return 3 if n_failed else 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, help="master RNG seed (default 0)")
    common.add_argument("--out", help="primary output path")
    common.add_argument("--config",
                        help="JSON file of option defaults (flags win)")

    # the design and worker options that ser and indoor share
    design = argparse.ArgumentParser(add_help=False)
    design.add_argument("--scheme", choices=SCHEMES)
    design.add_argument("--beta", type=int, help="bits per dimension")
    design.add_argument("--alpha", type=float, help="dimming ratio")
    design.add_argument("--threads", type=int, help="worker processes (default 1)")

    parser = argparse.ArgumentParser(
        prog="oslc",
        description="Shaped lattice constellations for intensity channels: "
                    "design tables, error-rate sweeps, indoor link surveys, "
                    "and a verification gate.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_shaping = sub.add_parser(
        "shaping", parents=[common],
        help="tabulate truncation parameters and shaping gains to CSV")
    p_shaping.add_argument("--n", help="dimensions, e.g. 2:32 or 8,16,24")
    p_shaping.add_argument("--alpha", help="dimming ratios, e.g. 0.2,0.3")
    p_shaping.set_defaults(func=_cmd_shaping)

    p_ser = sub.add_parser(
        "ser", parents=[common, design],
        help="Monte Carlo symbol error rates over an OSNR grid")
    p_ser.add_argument("--osnr", help="grid in dB, e.g. 24:29:0.5 or 25,26")
    p_ser.add_argument("--target-errors", type=int, dest="target_errors")
    p_ser.add_argument("--max-trials", type=int, dest="max_trials")
    p_ser.add_argument("--batch-size", type=int, dest="batch_size")
    p_ser.set_defaults(func=_cmd_ser)

    p_indoor = sub.add_parser(
        "indoor", parents=[common, design],
        help="room OSNR heatmap and position-averaged error survey")
    p_indoor.add_argument("--positions", type=int,
                          help="random receiver positions (default 100)")
    p_indoor.add_argument("--trials-per-pos", type=int, dest="trials_per_pos",
                          help="symbols per position (default 10000)")
    p_indoor.add_argument("--grid-step", type=float, dest="grid_step",
                          help="heatmap spacing in meters (default 0.25)")
    p_indoor.set_defaults(func=_cmd_indoor)

    p_verify = sub.add_parser(
        "verify", parents=[common],
        help="run the property suite and write a JSON report")
    p_verify.add_argument("--corrupt-code", action="store_true",
                          dest="corrupt_code",
                          help="inject a flipped generator bit to "
                               "demonstrate a failing gate")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"oslc: cannot read config {args.config}: {exc}",
                  file=sys.stderr)
            return 2
        if not isinstance(config, dict):
            print("oslc: config must be a JSON object", file=sys.stderr)
            return 2
    try:
        return args.func(args, config, list(argv))
    except ValueError as exc:
        print(f"oslc: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
