"""Command-line front end.

Subcommands: sim, sweep, mc, calibrate, size, report. Every run is
deterministic for a fixed config and seed; no subcommand mutates its inputs.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from . import harness
from .config import RunConfig, apply_overrides, parse_config, set_key
from .errors import ConfigError, SimulationError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="config file (sectioned key=value)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key (repeatable)")
    parser.add_argument("--out", type=Path, help="output CSV path (default: stdout)")
    parser.add_argument("--json", action="store_true",
                        help="also emit a JSON mirror next to the CSV")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--trials", type=int, help="Monte Carlo trial count")
    parser.add_argument("--no-shutdown", action="store_true",
                        help="disable the early-shutdown path")
    parser.add_argument("--calibrate", action="store_true",
                        help="enable offset calibration (mc subcommand)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, built on the first call.

    Every call returns the same parser, so ``main`` can run many times in one
    process without rebuilding it. ``parse_args`` leaves it unchanged. Callers
    must not mutate the returned parser, nor ``args.overrides`` when no
    ``--set`` is given: that list is the parser's own ``--set`` default.
    """
    parser = argparse.ArgumentParser(
        prog="dyncomp-sim",
        description="Behavioral simulator for early-shutdown dynamic comparators")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("sim", help="one comparison at the configured point")
    sweep = subs.add_parser("sweep", help="parameter sweep (sweep.variable)")
    sweep.add_argument("--compare", action="store_true",
                       help="add the no-shutdown energy of each cycle and a savings column")
    mc = subs.add_parser("mc", help="Monte Carlo offset analysis")
    calibrate = subs.add_parser("calibrate", help="single offset-calibration run")
    calibrate.add_argument("--trial", type=int, default=0, help="mismatch trial index")
    size = subs.add_parser("size", help="solve the normalized width balance")
    report = subs.add_parser("report", help="one-page summary report")
    report.add_argument("--out-dir", type=Path, help="write the report bundle (CSVs + report.txt)")
    report.add_argument("--from-dir", type=Path, help="regenerate the report from persisted CSVs")

    for sub in (sim, sweep, mc, calibrate, size, report):
        _add_common(sub)
    return parser


def load_runconfig(args: argparse.Namespace) -> RunConfig:
    if args.config is not None:
        cfg = parse_config(harness.read_text(args.config))
    else:
        cfg = RunConfig()
    apply_overrides(cfg, args.overrides)
    # The shorthand flags are --set keys with the same checks; they win over --set.
    shorthands = {"seed": args.seed, "trials": args.trials,
                  "shutdown": "false" if args.no_shutdown else None,
                  "calibrate": "true" if args.calibrate else None}
    for key, value in shorthands.items():
        if value is not None:
            set_key(cfg, key, str(value))
    return cfg


def _write_table(table: harness.Table, args: argparse.Namespace) -> None:
    if args.out is not None:
        harness.emit_csv(table, args.out)
        if args.json:
            harness.emit_json(table, args.out.with_suffix(".json"))
    elif args.json:
        sys.stdout.write(harness.render_json(table))
    else:
        sys.stdout.write(harness.render_csv(table))


def cmd_sim(cfg: RunConfig, args) -> int:
    table = harness.run_single(cfg)
    _write_table(table, args)
    row = dict(zip(table.columns, table.rows[0]))
    print(f"decision={row['decision']:+d} t_dm={row['t_dm_s']:.4g}s "
          f"t_esd={row['t_esd_s']:.4g}s power={row['power_W']:.4g}W "
          f"late={row['late']}", file=sys.stderr)
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    table = harness.run_sweep(cfg, compare=args.compare)
    _write_table(table, args)
    return 0


def cmd_mc(cfg: RunConfig, args) -> int:
    before, after, table = harness.run_montecarlo(cfg)
    _write_table(table, args)
    summary = (f"n={before.n} before: mean={before.mean:.4g}V sigma={before.sigma:.4g}V "
               f"span_errors={before.span_errors}")
    if after is not None:
        summary += (f" | after: mean={after.mean:.4g}V sigma={after.sigma:.4g}V "
                    f"span_errors={after.span_errors}")
    print(summary, file=sys.stderr)
    return 0


def cmd_calibrate(cfg: RunConfig, args) -> int:
    if args.trial < 0:
        raise ConfigError(f"trial: must be >= 0, got {args.trial}")
    result, table = harness.run_calibrate_once(cfg, trial=args.trial)
    _write_table(table, args)
    print(f"offset_before={result.offset_before:.4g}V "
          f"offset_after={result.offset_after:.4g}V converged={result.converged} "
          f"saturated={result.saturated}", file=sys.stderr)
    return 0


def cmd_size(cfg: RunConfig, args) -> int:
    table = harness.run_sizing(cfg)
    _write_table(table, args)
    row = dict(zip(table.columns, table.rows[0]))
    print(f"alpha={row['alpha']:.4g} -> x={row['x']:.4g} y={row['y']:.4g} "
          f"residual={row['residual']:.4g}", file=sys.stderr)
    return 0


def cmd_report(cfg: RunConfig, args) -> int:
    tables = (harness.load_report_bundle(args.from_dir) if args.from_dir is not None
              else harness.collect_report_inputs(cfg))
    text = harness.report_text(tables)
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        if args.from_dir is None:
            harness.write_report_bundle(tables, args.out_dir)
        (args.out_dir / "report.txt").write_text(text, encoding="utf-8")
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


_COMMANDS = {
    "sim": cmd_sim,
    "sweep": cmd_sweep,
    "mc": cmd_mc,
    "calibrate": cmd_calibrate,
    "size": cmd_size,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_runconfig(args)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, SimulationError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
