"""Batch runners: sweeps, Monte Carlo, CSV/JSON emission and the report.

Output files are deterministic byte-for-byte for a fixed config and seed:
floats are normalized to 9 significant digits when rows are built, so a
table loaded back from its CSV is value-identical to the live one.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import sizing as sizing_mod
from .calibration import (OffsetStats, monte_carlo, residual_bound,
                          run_calibration)
from .config import (SWEEPS, RunConfig, build_calibration_config, build_comparator_config,
                     build_operating_point, resolved_metadata)
from .devices import CORNERS, sample_mismatch
from .engine import ComparatorEngine
from .errors import ConfigError, SimulationError

TOOL_NAME = "dyncomp-sim"

# The grid fields at their unset values, for runs that take no grid.
_NO_GRID = {"sweep_start": None, "sweep_stop": None, "sweep_points": None,
            "sweep_scale": "linear"}


def round9(x: float) -> float:
    """Normalize to the 9-significant-digit CSV representation."""
    if isinstance(x, float) and math.isfinite(x):
        return float(f"{x:.9g}")
    return x


def fmt_cell(x) -> str:
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


@dataclass
class Table:
    """One emitted result table: metadata lines, a header and rows."""

    columns: tuple[str, ...]
    rows: list[tuple]
    metadata: dict[str, str] = field(default_factory=dict)


def base_metadata(cfg: RunConfig, subcommand: str) -> dict[str, str]:
    meta = {"tool": TOOL_NAME, "version": __version__, "subcommand": subcommand}
    meta.update(resolved_metadata(cfg))
    return meta


def _reject_grid(cfg: RunConfig, user: str) -> None:
    """Name the first grid key set in ``cfg``; ``user`` takes none of them."""
    for name, unset in _NO_GRID.items():
        if getattr(cfg, name) != unset:
            raise ConfigError(f"{name.replace('_', '.', 1)}: not used by {user}")


def _grid_values(cfg: RunConfig) -> list:
    variable = cfg.sweep_variable
    if variable is None:
        raise ConfigError("sweep.variable is not set")
    grid = SWEEPS[variable].grid
    if grid is None:
        _reject_grid(cfg, f"the {variable} sweep")
        return list(CORNERS)
    start, stop, points = grid
    start = cfg.sweep_start if cfg.sweep_start is not None else start
    stop = cfg.sweep_stop if cfg.sweep_stop is not None else stop
    points = cfg.sweep_points if cfg.sweep_points is not None else points
    if cfg.sweep_scale == "log":
        for key, value in (("sweep.start", start), ("sweep.stop", stop)):
            if value <= 0:
                raise ConfigError(f"{key}: {value:g}{_default_mark(cfg, key)} "
                                  "must be > 0 on a log scale")
        values = np.geomspace(start, stop, points)
    else:
        values = np.linspace(start, stop, points)
    return [float(v) for v in values]


def _default_mark(cfg: RunConfig, key: str) -> str:
    """' (default)' where the grid bound ``key`` comes from the variable's default grid."""
    return "" if getattr(cfg, key.replace(".", "_")) is not None else " (default)"


def _op_error(engine: ComparatorEngine, op, resolve: bool) -> str | None:
    """The ConfigError simulate raises for ``op`` before any arithmetic, if any."""
    try:
        engine.validate_op(op, engine.supply(op))
        if resolve:
            engine.params_at(op)
    except ConfigError as exc:
        return str(exc)
    return None


def _check_grid_ends(cfg: RunConfig, engine: ComparatorEngine, values: list) -> None:
    """Name the grid bound whose point the engine rejects, before any point runs.

    Only sweeps of operating-point fields qualify, and only when the
    unswept operating point is valid, so that the sweep value is at fault.
    Along each of them the valid points form an interval, so the two ends
    of the grid decide for every point. Only a temperature sweep moves the
    device parameters off the unswept point's, so only its ends resolve them.
    """
    sweep = SWEEPS[cfg.sweep_variable]
    if sweep.grid is None or sweep.width_target is not None:
        return
    if _op_error(engine, build_operating_point(cfg), resolve=False) is not None:
        return
    for key, value in (("sweep.start", values[0]), ("sweep.stop", values[-1])):
        fields = sweep.fields(cfg, value)
        error = _op_error(engine, build_operating_point(cfg, **fields), "t_kelvin" in fields)
        if error is not None:
            raise ConfigError(f"{key}: {cfg.sweep_variable} point {value:g}"
                              f"{_default_mark(cfg, key)} is out of range: {error}")


def run_sweep(cfg: RunConfig, compare: bool = False) -> Table:
    """Evaluate the engine over the sweep grid in deterministic row order.

    With ``compare`` the shutdown design runs at every point and the table
    gains no-shutdown energy and savings-percent columns; the no-shutdown
    energy is the same cycle accounted with the tail on for the whole
    window, so a compare sweep needs shutdown=true. Per-point engine errors
    become rows flagged late with NaN metrics.
    """
    values = _grid_values(cfg)
    if compare and not cfg.shutdown:
        raise ConfigError("shutdown: a compare sweep compares the shutdown design, "
                          "so it needs shutdown=true")
    sweep = SWEEPS[cfg.sweep_variable]
    columns = [sweep.column, "decision", "t_dm_s", "t_esd_s", "power_W", "energy_J", "late"]
    if compare:
        columns += ["energy_noesd_J", "savings_pct"]

    config = build_comparator_config(cfg)
    engine = ComparatorEngine(config)
    _check_grid_ends(cfg, engine, values)

    rows = []
    for value in values:
        op = build_operating_point(cfg, **sweep.fields(cfg, value))
        eng = engine
        if sweep.width_target is not None:
            try:
                eng = ComparatorEngine(sizing_mod.scaled_config(config, sweep.width_target, value))
            except ConfigError:
                rows.append(_failed_row(value, compare))
                continue
        try:
            result = eng.simulate(op)
            row = [round9(value), result.decision, round9(result.t_dm), round9(result.t_esd),
                   round9(result.energy.total * cfg.freq), round9(result.energy.total),
                   int(result.late)]
            if compare:
                e_on = result.energy.total
                e_off = eng.energy_per_comparison(replace(result, shutdown_occurred=False), op).total
                savings = 100.0 * (1.0 - e_on / e_off) if e_off > 0 else math.nan
                row += [round9(e_off), round9(savings)]
            rows.append(tuple(row))
        except SimulationError:
            rows.append(_failed_row(value, compare))

    meta = base_metadata(cfg, "sweep")
    if compare:
        meta["compare"] = "true"
    if sweep.plot_scale is not None:
        meta["plot_scale"] = sweep.plot_scale
    return Table(columns=tuple(columns), rows=rows, metadata=meta)


def _failed_row(value, compare: bool) -> tuple:
    row = [round9(value), 0, math.nan, math.nan, math.nan, math.nan, 1]
    if compare:
        row += [math.nan, math.nan]
    return tuple(row)


def run_single(cfg: RunConfig, subcommand: str = "sim") -> Table:
    """One comparison at the configured operating point, as a one-row table."""
    config = build_comparator_config(cfg)
    engine = ComparatorEngine(config)
    op = build_operating_point(cfg)
    result = engine.simulate(op)
    columns = ("vid_V", "decision", "t0_s", "t1_s", "t_dm_s", "t_esd_s",
               "power_W", "energy_J", "shutdown", "late")
    row = (round9(op.vid), result.decision, round9(result.t0), round9(result.t1),
           round9(result.t_dm), round9(result.t_esd),
           round9(result.energy.total * cfg.freq), round9(result.energy.total),
           int(result.shutdown_occurred), int(result.late))
    return Table(columns=columns, rows=[row], metadata=base_metadata(cfg, subcommand))


def run_montecarlo(cfg: RunConfig) -> tuple[OffsetStats, OffsetStats | None, Table]:
    """Offset Monte Carlo; with calibrate=true, paired before/after histograms."""
    config = build_comparator_config(cfg)
    cal = build_calibration_config(cfg)
    op = build_operating_point(cfg, vid=0.0)
    before, after = monte_carlo(cfg.trials, cfg.seed, config, cal, calibrate=cfg.calibrate,
                                op=op, avt=cfg.avt, abeta=cfg.abeta)

    columns = ("phase", "bin_lo_V", "bin_hi_V", "count")
    rows = []
    meta = base_metadata(cfg, "mc")
    for phase, stats in (("before", before), ("after", after)):
        if stats is None:
            continue
        edges = stats.bin_edges
        rows += [(phase, round9(lo), round9(hi), int(count))
                 for lo, hi, count in zip(edges, edges[1:], stats.counts)]
        meta[f"result.{phase}_n"] = str(stats.n)
        meta[f"result.{phase}_mean_V"] = fmt_cell(round9(stats.mean))
        meta[f"result.{phase}_sigma_V"] = fmt_cell(round9(stats.sigma))
        meta[f"result.{phase}_span_errors"] = str(stats.span_errors)
    return before, after, Table(columns=columns, rows=rows, metadata=meta)


def run_calibrate_once(cfg: RunConfig, trial: int = 0) -> tuple:
    """One calibration on the mismatch sample (seed, trial); history table."""
    config = build_comparator_config(cfg)
    cal = build_calibration_config(cfg)
    op = build_operating_point(cfg, vid=0.0)
    mm = sample_mismatch(cfg.seed, trial, config.geoms.values(), avt=cfg.avt, abeta=cfg.abeta)
    result = run_calibration(config, mm, cal, op)
    columns = ("cycle", "daco_V", "step_V", "s")
    rows = [(c, round9(d), round9(s), sgn) for c, d, s, sgn in result.state.history]
    meta = base_metadata(cfg, "calibrate")
    meta["result.trial"] = str(trial)
    meta["result.offset_before_V"] = fmt_cell(round9(result.offset_before))
    meta["result.offset_after_V"] = fmt_cell(round9(result.offset_after))
    meta["result.residual_bound_V"] = fmt_cell(round9(residual_bound(cal, config)))
    meta["result.converged"] = "true" if result.converged else "false"
    meta["result.saturated"] = "true" if result.saturated else "false"
    return result, Table(columns=columns, rows=rows, metadata=meta)


def run_sizing(cfg: RunConfig) -> Table:
    """Normalized width solve plus the general residual of the geometry."""
    solution = sizing_mod.solve_sizing(cfg.alpha)
    config = build_comparator_config(cfg)
    geom_residual = sizing_mod.balance_residual_for(config, build_operating_point(cfg))
    columns = ("alpha", "x", "y", "residual", "geom_residual_s")
    rows = [(round9(cfg.alpha), round9(solution.x), round9(solution.y),
             round9(sizing_mod.normalized_balance_residual(solution)),
             round9(geom_residual))]
    return Table(columns=columns, rows=rows, metadata=base_metadata(cfg, "size"))


# -- serialization ---------------------------------------------------------------


def render_csv(table: Table) -> str:
    lines = [f"# {k}={v}" for k, v in table.metadata.items()]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(fmt_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def emit_csv(table: Table, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_csv(table))


def render_json(table: Table) -> str:
    payload = {
        "metadata": table.metadata,
        "columns": list(table.columns),
        "rows": [[round9(x) if isinstance(x, float) else x for x in row]
                 for row in table.rows],
    }
    return json.dumps(payload, indent=2, allow_nan=True) + "\n"


def emit_json(table: Table, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_json(table))


def _parse_cell(text: str):
    """A rendered cell's value: an int where the text is an int's str(), else a
    float, else the text (a float rendered like an int, 2.0 as "2", loads as 2)."""
    try:
        value = int(text)
        if str(value) == text:
            return value
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_text(path) -> str:
    """An input file's text; a file that is not UTF-8 is a ConfigError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None


def load_csv(path) -> Table:
    """Parse a table emitted by emit_csv back into an equal Table."""
    lines = read_text(path).splitlines()
    metadata: dict[str, str] = {}
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        body = lines[i][1:].strip()
        key, _, value = body.partition("=")
        metadata[key] = value
        i += 1
    if i >= len(lines):
        raise ConfigError(f"{path}: missing header row")
    columns = tuple(lines[i].split(","))
    rows = []
    for lineno, line in enumerate(lines[i + 1:], start=i + 2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ConfigError(f"{path}: line {lineno} has {len(cells)} cells; "
                              f"the header has {len(columns)}")
        rows.append(tuple(_parse_cell(cell) for cell in cells))
    return Table(columns=columns, rows=rows, metadata=metadata)


# -- report -----------------------------------------------------------------------

# The report runs every sweep of the operating point, none of the widths.
REPORT_SWEEP_VARIABLES = tuple(v for v, sweep in SWEEPS.items() if sweep.width_target is None)
_SWEEP_STEMS = {f"sweep_{v}": v for v in REPORT_SWEEP_VARIABLES}
# The report bundle, one <stem>.csv per table: the columns report_text
# reads from a required table's first row, or None for an optional table.
_BUNDLE = {"typical": ("t_dm_s", "power_W"), "fast": ("t_dm_s", "power_W"),
           **dict.fromkeys(_SWEEP_STEMS), "mc_offset": None, "size": ("x", "y", "residual")}


def collect_report_inputs(cfg: RunConfig) -> dict[str, Table]:
    """The tables the report is a pure function of, by bundle file stem."""
    _reject_grid(cfg, "report, whose sweeps run on their default grids")
    tables = {"typical": run_single(cfg, subcommand="report-typical"),
              # vid=1 mV at the 500 MHz reporting clock
              "fast": run_single(replace_runconfig(cfg, vid=1e-3, freq=500e6),
                                 subcommand="report-fast")}
    for stem, variable in _SWEEP_STEMS.items():
        tables[stem] = run_sweep(replace_runconfig(cfg, sweep_variable=variable),
                                 compare=cfg.shutdown)
    tables["mc_offset"] = run_montecarlo(replace_runconfig(cfg, calibrate=True))[2]
    tables["size"] = run_sizing(cfg)
    return tables


def replace_runconfig(cfg: RunConfig, **changes) -> RunConfig:
    out = copy.deepcopy(cfg)
    for key, value in changes.items():
        setattr(out, key, value)
    return out


def _column(table: Table, name: str) -> list:
    idx = table.columns.index(name)
    return [row[idx] for row in table.rows]


def report_text(tables: dict[str, Table]) -> str:
    """One-page summary; a pure function of the bundle tables."""

    def cell(stem: str, column: str):
        table = tables[stem]
        return table.rows[0][table.columns.index(column)]

    meta = tables["typical"].metadata
    lines = [f"{TOOL_NAME} report (version {__version__})", "",
             "typical conditions: vdd=%s V, vid=%s V, f=%s Hz, T=%s C, corner %s"
             % tuple(meta.get(key) for key in ("vdd", "vid", "freq", "temp_c", "corner")), "",
             f"delay_typical_ps: {cell('typical', 't_dm_s') * 1e12:.4g}",
             f"delay_vid_1mV_ps: {cell('fast', 't_dm_s') * 1e12:.4g}",
             f"fmax_vid_1mV_GHz: {0.5 / cell('fast', 't_dm_s') / 1e9:.4g}",
             f"power_typical_uW: {cell('typical', 'power_W') * 1e6:.4g}",
             f"power_500MHz_vid_1mV_uW: {cell('fast', 'power_W') * 1e6:.4g}  (design target: 47)"]

    sweeps = [tables[stem] for stem in _SWEEP_STEMS if stem in tables]
    savings = [s for table in sweeps if "savings_pct" in table.columns
               for s in _column(table, "savings_pct") if not math.isnan(s)]
    if savings:
        lines.append(f"power_savings_worst_case_pct: {min(savings):.4g}  (design target: 21.7)")
    else:
        lines.append("power_savings_worst_case_pct: 0  (shutdown disabled)")

    if "mc_offset" in tables:
        mc_meta = tables["mc_offset"].metadata
        sigma_before = float(mc_meta["result.before_sigma_V"])
        lines.append(f"offset_sigma_uncal_mV: {sigma_before * 1e3:.4g}")
        if "result.after_sigma_V" in mc_meta:
            sigma_after = float(mc_meta["result.after_sigma_V"])
            lines.append(f"offset_sigma_cal_mV: {sigma_after * 1e3:.4g}  (design target: 0.62)")
            if sigma_after > 0:
                lines.append(f"offset_reduction_factor: {sigma_before / sigma_after:.4g}")

    lines += [f"sizing_{name}: {cell('size', name):.4g}" for name in _BUNDLE["size"]]
    return "\n".join(lines) + "\n"


def write_report_bundle(tables: dict[str, Table], out_dir) -> None:
    """Write each table to ``<stem>.csv`` in the existing directory ``out_dir``."""
    for stem, table in tables.items():
        emit_csv(table, Path(out_dir) / f"{stem}.csv")


def load_report_bundle(in_dir) -> dict[str, Table]:
    """The bundle's tables, each checked for what report_text reads from it.
    A missing required file raises OSError; a missing optional one is left out."""
    tables = {}
    for stem, columns in _BUNDLE.items():
        path = Path(in_dir) / f"{stem}.csv"
        if columns is None and not path.exists():
            continue
        tables[stem] = table = load_csv(path)
        if columns is not None:
            if not table.rows:
                raise ConfigError(f"{path}: no data row")
            for name in columns:
                if name not in table.columns:
                    raise ConfigError(f"{path}: missing column {name}")
                _require_numbers(path, f"column {name}", _column(table, name)[:1])
        elif stem in _SWEEP_STEMS:
            # The report compares energies in every sweep of a shutdown design.
            if "savings_pct" in table.columns:
                _require_numbers(path, "column savings_pct", _column(table, "savings_pct"))
            elif table.metadata.get("shutdown") == "true":
                raise ConfigError(f"{path}: missing column savings_pct (shutdown=true)")
        elif "result.before_sigma_V" not in table.metadata:  # mc_offset
            raise ConfigError(f"{path}: missing metadata key result.before_sigma_V")
        else:
            for key in ("result.before_sigma_V", "result.after_sigma_V"):
                if key in table.metadata:
                    _require_numbers(path, f"metadata key {key}",
                                     [_parse_cell(table.metadata[key])])
    return tables


def _require_numbers(path, name: str, values: list) -> None:
    """Raise a ConfigError naming ``path`` and ``name`` at a value that loaded as text."""
    for value in values:
        if isinstance(value, str):
            raise ConfigError(f"{path}: {name} is not a number: {value!r}")
