"""Batch runners: sweeps, Monte Carlo, CSV/JSON emission and the report.

Output files are deterministic byte-for-byte for a fixed config and seed:
every table is its rows' CSV lines, each float written once to 9 significant
digits, and its rows are parsed from those lines when first read, so a loaded
table equals the live one.
"""
from __future__ import annotations

import copy
import functools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import sizing as sizing_mod
from .calibration import (OffsetStats, monte_carlo, residual_bound,
                          run_calibration)
from .config import (SWEEPS, RunConfig, build_calibration_config, build_comparator_config,
                     build_operating_point, is_default, resolved_metadata)
from .devices import CORNERS, T_REF, sample_mismatch
from .engine import (BAD_OP, BAD_PARAMS, OK, ComparatorEngine, GridResult, OperatingPoint,
                     simulate_grid)
from .errors import ConfigError

TOOL_NAME = "dyncomp-sim"

# The keys of a numeric sweep grid, which a run that takes no grid leaves at their defaults.
_GRID_KEYS = ("sweep.start", "sweep.stop", "sweep.points", "sweep.scale")


# Every float in an output file: 9 significant digits.
FLOAT_FORMAT = "%.9g"


def fmt_cell(x: float) -> str:
    return FLOAT_FORMAT % x


class Table:
    """One emitted result table: metadata lines, a header and its rows' CSV
    lines, ``text``, with the parser of each column's cells, ``types``.

    The rows are parsed from the text the first time ``rows`` is read, so
    writing the CSV parses no cell, and reading a column parses only it.
    """

    def __init__(self, columns: tuple[str, ...], text: list[str], types: tuple[type, ...],
                 metadata: dict[str, str]):
        self.columns, self.text, self.types, self.metadata = columns, text, types, metadata
        self._parsed_columns: dict[int, list] = {}

    @classmethod
    def of_cells(cls, columns: tuple[str, ...], cells: list, metadata: dict[str, str]) -> Table:
        """The table of the nonempty value columns ``cells``. Each row is
        formatted once, a float column's cells to 9 significant digits, and a
        column's cells parse back by the type of its first cell."""
        fmt = ",".join(FLOAT_FORMAT if isinstance(column[0], float) else "%s" for column in cells)
        return cls(columns, [fmt % row for row in zip(*cells)],
                   tuple(type(column[0]) for column in cells), metadata)

    @functools.cached_property
    def rows(self) -> list[tuple]:
        return _parse_text(self.text, self.types)

    def column(self, k: int) -> list:
        """The cells of column k: from ``rows`` once read, else parsed from ``text`` once."""
        if "rows" in vars(self):
            return [row[k] for row in self.rows]
        if k not in self._parsed_columns:
            self._parsed_columns[k] = list(map(self.types[k],
                                               (line.split(",")[k] for line in self.text)))
        return self._parsed_columns[k]


def _parse_text(text: list[str], types: tuple[type, ...]) -> list[tuple]:
    """The rows of the CSV lines ``text``, each cell by its column's type."""
    return list(zip(*map(map, types, zip(*(line.split(",") for line in text)))))


def base_metadata(cfg: RunConfig, subcommand: str) -> dict[str, str]:
    meta = {"tool": TOOL_NAME, "version": __version__, "subcommand": subcommand}
    meta.update(resolved_metadata(cfg))
    return meta


def _reject_grid(cfg: RunConfig, user: str) -> None:
    """Name the first grid key set in ``cfg``; ``user`` takes none of them."""
    for key in _GRID_KEYS:
        if not is_default(cfg, key):
            raise ConfigError(f"{key}: not used by {user}")


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
    return values.tolist()


def _default_mark(cfg: RunConfig, key: str) -> str:
    """' (default)' where the grid bound ``key`` comes from the variable's default grid."""
    return " (default)" if is_default(cfg, key) else ""


def run_sweep(cfg: RunConfig, compare: bool = False) -> Table:
    """Evaluate the engine over the sweep grid in deterministic row order, in
    one simulate_grid pass of the configured engine: the sweep sets each
    row's operating-point columns or its target's widths.

    With ``compare`` the shutdown design runs at every point and the table
    gains no-shutdown energy and savings-percent columns; the no-shutdown
    energy is the same cycle accounted with the tail on for the whole
    window, so a compare sweep needs shutdown=true. Per-point engine errors
    and widths the geometry rejects become rows flagged late with NaN metrics.

    A point whose vcm, vid or device parameters are out of range raises its
    ConfigError, which names sweep.start or sweep.stop where the grid pass's
    fault codes put the fault on that bound's sweep value.
    """
    values = _grid_values(cfg)
    if compare and not cfg.shutdown:
        raise ConfigError("shutdown: a compare sweep compares the shutdown design, "
                          "so it needs shutdown=true")
    sweep = SWEEPS[cfg.sweep_variable]
    columns = (sweep.column, "decision", "t_dm_s", "t_esd_s", "power_W", "energy_J", "late",
               "energy_noesd_J", "savings_pct")[:9 if compare else 7]
    config = build_comparator_config(cfg)
    engine = ComparatorEngine(config)
    # vid, vcm and the supply as columns: the swept values, else the unswept
    # point's and the configured supply. The corner and the temperature are
    # the swept columns, else the unswept point's one value.
    unswept = build_operating_point(cfg)
    op = {**vars(unswept), "vdd": config.vdd}
    points = np.array(values)
    swept = sweep.fields(cfg, points)
    column = lambda name: np.full(len(values), swept.get(name, op[name]))
    grid = simulate_grid(engine, column("vid"), column("vcm"), column("vdd"),
                         swept.get("corner", unswept.corner),
                         swept.get("t_kelvin", unswept.t_kelvin),
                         {} if sweep.width_target is None
                         else sizing_mod.target_widths(sweep.width_target, points))
    # The first row that raises ConfigError raises it; the other faulted rows fail.
    raising = (BAD_OP <= grid.fault) & (grid.fault <= BAD_PARAMS)
    if raising.any():
        if sweep.grid is not None and sweep.width_target is None:
            _raise_grid_bound(cfg, engine, unswept, grid, values, "t_kelvin" in swept)
        grid.raise_row(int(raising.argmax()))
    # A failed row has no decision, NaN metrics and is flagged late.
    failed, e_on = grid.fault != OK, grid.energy.total
    metrics = [grid.t_dm, grid.t_esd, e_on * cfg.freq, e_on]
    if compare:
        e_off = grid.energy_noesd
        with np.errstate(all="ignore"):
            metrics += [e_off, np.where(e_off > 0, 100.0 * (1.0 - e_on / e_off), math.nan)]
    t_dm, t_esd, power, energy, *compared = np.where(failed, math.nan, metrics).tolist()
    cells = [values, np.where(failed, 0, grid.decision).tolist(), t_dm, t_esd, power, energy,
             np.where(failed, 1, grid.late).tolist(), *compared]

    meta = base_metadata(cfg, "sweep")
    if compare:
        meta["compare"] = "true"
    if sweep.plot_scale is not None:
        meta["plot_scale"] = sweep.plot_scale
    return Table.of_cells(columns, cells, meta)


def _raise_grid_bound(cfg: RunConfig, engine: ComparatorEngine, unswept: OperatingPoint,
                      grid: GridResult, values: list, sets_temp: bool) -> None:
    """Raise the start or stop row's ConfigError as that grid bound's where the
    sweep value is at fault: the unswept point is valid (a temperature sweep's
    at T_REF too), and the row's vcm or vid, or a temperature sweep's device
    parameters, are out of range. The valid points form an interval: the ends decide."""
    try:
        engine.validate_op(unswept, engine.config.vdd)
        if sets_temp:
            engine.params_at(replace(unswept, t_kelvin=T_REF))
    except ConfigError:
        return
    owned = (grid.fault == BAD_OP) | (sets_temp & (grid.fault == BAD_PARAMS))
    for key, k in (("sweep.start", 0), ("sweep.stop", len(values) - 1)):
        if owned[k]:
            try:
                grid.raise_row(k)
            except ConfigError as exc:
                raise ConfigError(f"{key}: {cfg.sweep_variable} point {values[k]:g}"
                                  f"{_default_mark(cfg, key)} is out of range: {exc}") from None


def run_single(cfg: RunConfig, subcommand: str = "sim") -> Table:
    """One comparison at the configured operating point, as a one-row table."""
    config = build_comparator_config(cfg)
    engine = ComparatorEngine(config)
    op = build_operating_point(cfg)
    result = engine.simulate(op)
    columns = ("vid_V", "decision", "t0_s", "t1_s", "t_dm_s", "t_esd_s",
               "power_W", "energy_J", "shutdown", "late")
    row = (op.vid, result.decision, result.t0, result.t1, result.t_dm, result.t_esd,
           result.energy.total * cfg.freq, result.energy.total,
           int(result.shutdown_occurred), int(result.late))
    return Table.of_cells(columns, list(zip(row)), base_metadata(cfg, subcommand))


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
        rows += [(phase, lo, hi, count) for lo, hi, count in zip(edges, edges[1:], stats.counts)]
        meta[f"result.{phase}_n"] = str(stats.n)
        meta[f"result.{phase}_mean_V"] = fmt_cell(stats.mean)
        meta[f"result.{phase}_sigma_V"] = fmt_cell(stats.sigma)
        meta[f"result.{phase}_span_errors"] = str(stats.span_errors)
    return before, after, Table.of_cells(columns, list(zip(*rows)), meta)


def run_calibrate_once(cfg: RunConfig, trial: int = 0) -> tuple:
    """One calibration on the mismatch sample (seed, trial); history table."""
    config = build_comparator_config(cfg)
    cal = build_calibration_config(cfg)
    op = build_operating_point(cfg, vid=0.0)
    mm = sample_mismatch(cfg.seed, trial, config.geoms.values(), avt=cfg.avt, abeta=cfg.abeta)
    result = run_calibration(config, mm, cal, op)
    columns = ("cycle", "daco_V", "step_V", "s")
    meta = base_metadata(cfg, "calibrate")
    meta["result.trial"] = str(trial)
    meta["result.offset_before_V"] = fmt_cell(result.offset_before)
    meta["result.offset_after_V"] = fmt_cell(result.offset_after)
    meta["result.residual_bound_V"] = fmt_cell(residual_bound(cal, config))
    meta["result.converged"] = "true" if result.converged else "false"
    meta["result.saturated"] = "true" if result.saturated else "false"
    return result, Table.of_cells(columns, list(zip(*result.state.history)), meta)


def run_sizing(cfg: RunConfig) -> Table:
    """Normalized width solve plus the general residual of the geometry."""
    solution = sizing_mod.solve_sizing(cfg.alpha)
    config = build_comparator_config(cfg)
    geom_residual = sizing_mod.balance_residual_for(config, build_operating_point(cfg))
    columns = ("alpha", "x", "y", "residual", "geom_residual_s")
    row = (cfg.alpha, solution.x, solution.y, sizing_mod.normalized_balance_residual(solution),
           geom_residual)
    return Table.of_cells(columns, list(zip(row)), base_metadata(cfg, "size"))


# -- serialization ---------------------------------------------------------------


def render_csv(table: Table) -> str:
    lines = [f"# {k}={v}" for k, v in table.metadata.items()]
    lines.append(",".join(table.columns))
    lines += table.text
    return "\n".join(lines) + "\n"


def emit_csv(table: Table, path) -> None:
    write_text(path, render_csv(table))


def render_json(table: Table) -> str:
    import json     # here, not at the top: only --json calls pay for its import

    # The rows are parsed from their 9-digit text: no float needs rounding here.
    payload = {"metadata": table.metadata, "columns": list(table.columns), "rows": table.rows}
    return json.dumps(payload, indent=2, allow_nan=True) + "\n"


def emit_json(table: Table, path) -> None:
    write_text(path, render_json(table))


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as its UTF-8 bytes, with no newline
    translation: every output file has the same bytes on every platform."""
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


def _parse_cell(text: str):
    """A rendered cell's value: an int where the text is an int's str(), else a
    float, else the text (a float rendered like an int, 2.0 as "2", loads as 2)."""
    if text[text.startswith("-"):].isdecimal():  # a float cell skips int()'s ValueError
        try:
            value = int(text)
            if str(value) == text:
                return value
        except ValueError:  # more digits than int() converts
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
    """Parse a table emitted by emit_csv back into an equal Table. Each data
    line's cell count is checked here; its cells are parsed when read."""
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
    text = []
    for lineno, line in enumerate(lines[i + 1:], start=i + 2):
        if not line:
            continue
        cells = line.count(",") + 1
        if cells != len(columns):
            raise ConfigError(f"{path}: line {lineno} has {cells} cells; "
                              f"the header has {len(columns)}")
        text.append(line)
    return Table(columns, text, (_parse_cell,) * len(columns), metadata)


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
    return RunConfig(**{**copy.deepcopy(vars(cfg)), **changes})


def _column(table: Table, name: str) -> list:
    return table.column(table.columns.index(name))


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
            if "t_dm_s" in columns:  # the report divides by the delay
                t_dm = table.rows[0][table.columns.index("t_dm_s")]
                if not (math.isfinite(t_dm) and t_dm > 0):
                    raise ConfigError(f"{path}: column t_dm_s is not a positive finite delay: "
                                      f"{t_dm!r}")
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
