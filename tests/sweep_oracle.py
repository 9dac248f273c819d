"""The per-point sweep loop: the oracle for run_sweep's one grid pass.

One engine per width point and one scalar ``ComparatorEngine.simulate`` per
grid point, as ``run_sweep`` was first written, after a scalar check of the
grid's two ends that names the offending bound. A ``vdd`` sweep runs each
point on an engine at its supply; every other point runs at the configured one.
``run_sweep_oracle`` returns the table that ``run_sweep`` must render byte
for byte, and raises where it must raise, with the message it must give. Its
rows are built here, each float rounded to 9 significant digits, and its CSV
lines are formatted from them here, so neither goes through the harness.
"""
import math
from dataclasses import replace

import numpy as np

from dyncomp import sizing
from dyncomp.config import SWEEPS, RunConfig, build_comparator_config, build_operating_point
from dyncomp.devices import T_REF
from dyncomp.engine import ComparatorEngine
from dyncomp.errors import ConfigError, SimulationError
from dyncomp.harness import Table, _default_mark, _grid_values, base_metadata


def round9(x):
    """A float at its 9-significant-digit CSV value; other cells as they are."""
    return float(f"{x:.9g}") if isinstance(x, float) else x


def failed_row(value, compare: bool) -> tuple:
    """A sweep row whose point failed: no decision, NaN metrics, flagged late."""
    return (round9(value), 0) + (math.nan,) * 4 + (1,) + (math.nan,) * 2 * compare


def csv_line(row: tuple) -> str:
    return ",".join(f"{x:.9g}" if isinstance(x, float) else str(x) for x in row)


def _point_fields(cfg: RunConfig, value) -> dict:
    """What the one sweep value sets: row 0 of the sweep's fields on a one-value grid."""
    fields = SWEEPS[cfg.sweep_variable].fields(cfg, np.array([value]))
    return {name: np.broadcast_to(x, 1).tolist()[0] for name, x in fields.items()}


def _op_error(engine: ComparatorEngine, op, vdd: float, resolve: bool) -> str | None:
    """The ConfigError simulate raises for ``op`` at the supply ``vdd`` before
    any arithmetic, if any."""
    try:
        engine.validate_op(op, vdd)
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
    device parameters off the unswept point's, so only its ends resolve them,
    and only where the unswept corner's resolve at T_REF, where temperature
    is the identity.
    """
    sweep = SWEEPS[cfg.sweep_variable]
    if sweep.grid is None or sweep.width_target is not None:
        return
    vdd = engine.config.vdd
    if _op_error(engine, build_operating_point(cfg), vdd, resolve=False) is not None:
        return
    sets_temp = "t_kelvin" in _point_fields(cfg, values[0])
    at_ref = build_operating_point(cfg, t_kelvin=T_REF)
    if sets_temp and _op_error(engine, at_ref, vdd, resolve=True) is not None:
        return
    for key, value in (("sweep.start", values[0]), ("sweep.stop", values[-1])):
        fields = _point_fields(cfg, value)
        supply = fields.pop("vdd", vdd)
        error = _op_error(engine, build_operating_point(cfg, **fields), supply, sets_temp)
        if error is not None:
            raise ConfigError(f"{key}: {cfg.sweep_variable} point {value:g}"
                              f"{_default_mark(cfg, key)} is out of range: {error}")


def run_sweep_oracle(cfg, compare: bool = False) -> Table:
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
        fields = _point_fields(cfg, value)
        vdd = fields.pop("vdd", config.vdd)
        op = build_operating_point(cfg, **fields)
        eng = engine
        if vdd != config.vdd:  # simulate's range check first: the config rejects vdd <= 0
            engine.validate_op(op, vdd)
            eng = ComparatorEngine(replace(config, vdd=vdd))
        if sweep.width_target is not None:
            try:
                eng = ComparatorEngine(sizing.scaled_config(config, sweep.width_target, value))
            except ConfigError:
                rows.append(failed_row(value, compare))
                continue
        try:
            result = eng.simulate(op)
        except SimulationError:
            rows.append(failed_row(value, compare))
            continue
        e_on = result.energy.total
        row = [round9(value), result.decision, round9(result.t_dm), round9(result.t_esd),
               round9(e_on * cfg.freq), round9(e_on), int(result.late)]
        if compare:
            e_off = (vdd * result.i_tail * config.window + result.energy.e_latch
                     + result.energy.e_reset)
            savings = 100.0 * (1.0 - e_on / e_off) if e_off > 0 else math.nan
            row += [round9(e_off), round9(savings)]
        rows.append(tuple(row))

    meta = base_metadata(cfg, "sweep")
    if compare:
        meta["compare"] = "true"
    if sweep.plot_scale is not None:
        meta["plot_scale"] = sweep.plot_scale
    table = Table(tuple(columns), list(map(csv_line, rows)), tuple(map(type, rows[0])), meta)
    table.rows = rows
    return table
