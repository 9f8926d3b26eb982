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

from . import __version__, _checks
from .codes import GOLAY, BinaryBlockCode
from .constellations import SCHEMES, build_spec
from .indoor import RoomConfig, check_survey, osnr_map_rows, survey_ser
from .selfcheck import run_property_suite
from .shaping import MAX_N, solve_t_star
from .simulate import ser_sweep

__all__ = ["main"]


# Most points an axis may have; a range is counted before its list is built.
_MAX_AXIS_POINTS = 1000


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


def _write_manifest(args, argv, started: float, outputs) -> None:
    manifest = {
        "command_line": ["oslc", *argv],
        "config": args.config,
        "seed": args.seed,
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 6),
        "outputs": [
            {"path": str(p), "sha256": _sha256(p), "bytes": p.stat().st_size}
            for p in outputs
        ],
    }
    path = args.out.with_name(args.out.stem + "_manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _check_out(out: str) -> Path:
    """The ``out`` path, or ValueError unless it names a regular file or a
    new file in a directory that exists: checked before any work, not after
    it.  A device or pipe would swallow the output, and the manifest would go
    beside it."""
    out = Path(out)
    try:
        if out.exists() and not out.is_file():
            raise ValueError(f"out {str(out)!r} is not a regular file")
        if not out.parent.is_dir():
            raise ValueError(f"out {str(out)!r}: {str(out.parent)!r} is not a directory")
    except OSError as exc:  # a name too long, say
        raise ValueError(f"out {str(out)!r}: {exc.strerror}") from None
    return out


def _room_from_config(config: dict) -> RoomConfig:
    """The room of the config's ``"room"`` object of RoomConfig fields (the
    default room without one), or ValueError."""
    overrides = config.get("room", {})
    if not isinstance(overrides, dict):
        raise ValueError(f"room must be a JSON object of room fields, got {overrides!r}")
    try:
        return RoomConfig(**overrides)
    except TypeError as exc:
        raise ValueError(f"bad room config: {exc}") from None


def _cmd_shaping(args) -> tuple[int, list[Path]]:
    dims = [_checks.integer("n", n, 1, MAX_N) for n in _parse_int_axis(args.n)]
    alphas = _parse_float_axis(args.alpha)
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
    _write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0, [args.out]


def _cmd_ser(args) -> tuple[int, list[Path]]:
    grid = _parse_float_axis(args.osnr)
    spec = build_spec(args.scheme, args.beta, args.alpha)  # --scheme has no default
    records = ser_sweep(
        spec,
        grid,
        seed=args.seed,
        target_errors=args.target_errors,
        max_trials=args.max_trials,
        batch_size=args.batch_size,
        threads=args.threads,
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
            args.scheme,
            args.beta,
            _fmt(args.alpha),
            rec.seed,
            "" if rec.ub is None else _fmt(rec.ub),
        )
        for rec in records
    ]
    _write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} operating points to {args.out}")
    return 0, [args.out]


def _cmd_indoor(args) -> tuple[int, list[Path]]:
    out = args.out
    room = _room_from_config(args.config)
    check_survey(room, args.positions, args.trials_per_pos, args.threads)
    omap, map_rows = osnr_map_rows(room, args.grid_step, args.alpha)
    spec = build_spec(args.scheme, args.beta, args.alpha)  # --scheme has no default

    # The survey prices the heatmap's rows while its workers run batches.
    survey = survey_ser(
        room,
        spec,
        n_positions=args.positions,
        trials_per_pos=args.trials_per_pos,
        seed=args.seed,
        threads=args.threads,
        steps=map_rows,
    )
    # Written only now, so a failed survey leaves no partial heatmap behind.
    ys = [_fmt(y) for y in omap.ys.tolist()]
    rows = [
        (x, y, _fmt(v))
        for x, line in zip(map(_fmt, omap.xs.tolist()), omap.osnr_db.tolist())
        for y, v in zip(ys, line)
    ]
    _write_csv(out, ("x", "y", "osnr_db"), rows)
    summary = {
        "scheme": args.scheme,
        "beta": args.beta,
        "alpha": args.alpha,
        "positions": args.positions,
        "trials_per_position": args.trials_per_pos,
        "total_trials": survey.trials,
        "total_errors": survey.errors,
        "average_ser": survey.ser,
        "map_min_osnr_db": float(omap.osnr_db.min()),
        "map_max_osnr_db": float(omap.osnr_db.max()),
        "seed": args.seed,
    }
    summary_path = out.with_name(out.stem + "_summary.json")
    summary_path.write_text(json.dumps(summary) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} heatmap cells to {out}")
    print(f"average SER {survey.ser:.3e} over {args.positions} positions "
          f"({summary_path})")
    return 0, [out, summary_path]


def _cmd_verify(args) -> tuple[int, list[Path]]:
    code = GOLAY
    if args.corrupt_code:
        generator = GOLAY.generator.copy()
        generator[0, 23] ^= 1
        code = BinaryBlockCode(generator, name="corrupted")
    results = run_property_suite(code=code, seed=args.seed)
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
    n_failed = sum(not r.passed for r in results)
    report = {
        "version": __version__,
        "seed": args.seed,
        "n_checks": len(results),
        "n_passed": len(results) - n_failed,
        "n_failed": n_failed,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"{len(results)} checks, {report['n_passed']} passed, "
          f"{n_failed} failed ({args.out})")
    return (3 if n_failed else 0), [args.out]


def _common(out: str) -> tuple:
    return ("seed", int, 0, "master RNG seed"), ("out", str, out, "primary output path")


# the design and worker options that ser and indoor share
_DESIGN = (
    ("scheme", SCHEMES, None, "constellation design (must be given)"),
    ("beta", int, 5, "bits per dimension"),
    ("alpha", float, 0.2, "dimming ratio"),
    ("threads", int, 1, "worker processes"),
)

# Each subcommand's function, help and value-taking options, each declared
# once as (key, kind, default, help): the parser is built from this table, and
# a config entry is checked against it.  A key is the option's dest and config
# key; a kind is int, float, str or a tuple of choices.
_COMMANDS = {
    "shaping": (_cmd_shaping, "tabulate truncation parameters and shaping gains to CSV", (
        *_common("shaping.csv"),
        ("n", str, "2:32", "dimensions, e.g. 8,16,24 or 2:64:2"),
        ("alpha", str, "0.2,0.3", "dimming ratios, e.g. 0.25 or 0.1:0.4:0.1"),
    )),
    "ser": (_cmd_ser, "Monte Carlo symbol error rates over an OSNR grid", (
        *_common("ser.csv"),
        *_DESIGN,
        ("osnr", str, "24:29:1", "grid in dB, e.g. 24:29:0.5 or 25,26"),
        ("target_errors", int, 100, "errors at which a point stops"),
        ("max_trials", int, 20_000_000, "trials at which a point stops"),
        ("batch_size", int, 4096, "trials per batch"),
    )),
    "indoor": (_cmd_indoor, "room OSNR heatmap and position-averaged error survey", (
        *_common("indoor.csv"),
        *_DESIGN,
        ("positions", int, 100, "random receiver positions"),
        ("trials_per_pos", int, 10_000, "symbols per position"),
        ("grid_step", float, 0.25, "heatmap spacing in meters"),
    )),
    "verify": (_cmd_verify, "run the property suite and write a JSON report",
               _common("verify.json")),
}

# Each kind's conversion of a config entry (None if it is not one) and name.
_KINDS = {int: (_checks.as_int, "an integer"), float: (_checks.as_real, "a number"),
          str: (lambda value: value if isinstance(value, str) else None, "a string")}


def _config_value(key: str, kind, value):
    """The config entry ``key`` as the default of an option of ``kind``, or
    ValueError naming ``key``."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"{key} must be one of {kind}, got {value!r}")
        return value
    convert, what = _KINDS[kind]
    if (converted := convert(value)) is None:
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return converted


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and, by name, its subcommand parsers."""
    parser = argparse.ArgumentParser(
        prog="oslc",
        description="Shaped lattice constellations for intensity channels: "
                    "design tables, error-rate sweeps, indoor link surveys, "
                    "and a verification gate.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (func, text, options) in _COMMANDS.items():
        command = commands[name] = sub.add_parser(
            name, help=text, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for key, kind, default, help_text in options:
            command.add_argument(
                "--" + key.replace("_", "-"), default=default, help=help_text,
                **({"choices": kind} if isinstance(kind, tuple) else {"type": kind}))
        command.add_argument("--config", help="JSON file of option defaults (flags win)")
        command.set_defaults(func=func)
    commands["verify"].add_argument(
        "--corrupt-code", action="store_true",
        help="inject a flipped generator bit to demonstrate a failing gate")
    return parser, commands


def _parse(argv: list[str]) -> argparse.Namespace:
    """The options of ``argv``, with ``args.config`` the --config object ({}
    without one).  Its entries for the subcommand's options are checked
    against their kinds and become their defaults, so a flag still wins."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    config = {}
    if args.config is not None:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(config, dict):
            raise ValueError("config must be a JSON object")
        commands[args.command].set_defaults(**{
            key: _config_value(key, kind, config[key])
            for key, kind, _, _ in _COMMANDS[args.command][2]
            if key in config
        })
        args = parser.parse_args(argv)
    args.config = config
    return args


def main(argv=None) -> int:
    """Run one subcommand: check its output path and seed before any work,
    then write its manifest from the outputs it returns."""
    started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        args.out = _check_out(args.out)
        _checks.integer("seed", args.seed, 0)
        code, outputs = args.func(args)
    except ValueError as exc:
        print(f"oslc: {exc}", file=sys.stderr)
        return 2
    _write_manifest(args, argv, started, outputs)
    return code


if __name__ == "__main__":
    sys.exit(main())
