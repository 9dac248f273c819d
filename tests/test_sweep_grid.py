"""The one-pass sweep grid against the per-point loop and scalar simulate."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyncomp.config import SWEEPS, RunConfig
from dyncomp.devices import CORNERS, DEFAULT_NMOS, DEFAULT_PMOS, MIN_WIDTH
from dyncomp.engine import ComparatorConfig, ComparatorEngine, OperatingPoint, simulate_grid
from dyncomp.errors import ConfigError, SimulationError
from dyncomp.harness import render_csv, render_json, replace_runconfig, run_sweep
from dyncomp.sizing import WIDTH_TARGETS, scaled_config, target_widths
from sweep_oracle import run_sweep_oracle

# (sweep.variable, RunConfig changes): every variable, on default and dense
# grids, past the common-mode limit, below MIN_WIDTH, on a log scale, and
# at the FF and SS corners.
GRIDS = [
    ("vid", {}),
    ("vid", {"sweep_start": -0.05, "sweep_stop": 0.05, "sweep_points": 101}),
    ("vid", {"sweep_start": 1e-4, "sweep_stop": 0.5, "sweep_points": 30, "sweep_scale": "log"}),
    ("vcm", {"sweep_start": 0.05, "sweep_stop": 1.45, "sweep_points": 57}),
    ("vdd", {"sweep_start": 1.2, "sweep_stop": 2.2, "sweep_points": 41}),
    ("vdd", {"vcm": 0.6, "corner": "SS", "temp_c": 125.0}),
    ("temp", {"corner": "FF", "sweep_start": -55.0, "sweep_stop": 150.0, "sweep_points": 42}),
    ("temp", {"corner": "SS", "vid": -2e-3, "sweep_scale": "log", "sweep_start": 1.0,
              "sweep_stop": 150.0}),
    ("corner", {"temp_c": -40.0}),
    ("corner", {"temp_c": 125.0, "vid": 1e-3}),
    ("width_preamp", {"sweep_start": 0.1e-6, "sweep_stop": 3.6e-6, "sweep_points": 36}),
    ("width_inv_n", {"sweep_start": 0.5 * MIN_WIDTH, "sweep_stop": 1.1e-6, "sweep_points": 25}),
    ("width_inv_both", {"sweep_start": 0.15e-6, "sweep_stop": 2e-6, "sweep_points": 25,
                        "sweep_scale": "log", "alpha": 2.5}),
    ("width_inv_both", {"corner": "FF", "temp_c": -40.0, "tie_break": -1}),
]


def test_grids_cover_every_sweep_variable():
    assert {variable for variable, _ in GRIDS} == set(SWEEPS)


@pytest.mark.parametrize("compare", [False, True])
@pytest.mark.parametrize("variable, changes", GRIDS)
def test_run_sweep_renders_the_per_point_loop(variable, changes, compare):
    cfg = replace_runconfig(RunConfig(), sweep_variable=variable, **changes)
    assert render_csv(run_sweep(cfg, compare)) == render_csv(run_sweep_oracle(cfg, compare))


@pytest.mark.parametrize("variable", ["vdd", "temp", "corner", "width_inv_both"])
def test_run_sweep_json_is_the_per_point_loop(variable):
    # The JSON mirror keeps each float column's type, 2.0 included, and its 9 digits.
    cfg = replace_runconfig(RunConfig(), sweep_variable=variable)
    assert render_json(run_sweep(cfg, True)) == render_json(run_sweep_oracle(cfg, True))


@pytest.mark.parametrize("variable", ["vid", "width_preamp"])
def test_no_shutdown_sweep_renders_the_per_point_loop(variable):
    cfg = replace_runconfig(RunConfig(), sweep_variable=variable, shutdown=False)
    assert render_csv(run_sweep(cfg)) == render_csv(run_sweep_oracle(cfg))


@pytest.mark.parametrize("variable, changes", [
    ("vid", {"vcm": 2.5}),                    # every point leaves the common-mode range
    ("vid", {"temp_c": 300.0}),               # params_at raises at the unswept temperature
    ("temp", {"vcm": 2.5, "sweep_start": 260.0, "sweep_stop": 300.0}),  # range check first
    ("width_inv_n", {"sweep_start": 0.1e-6, "sweep_stop": 0.5e-6, "vid": 2.0}),
])
def test_first_config_error_row_raises(variable, changes):
    cfg = replace_runconfig(RunConfig(), sweep_variable=variable, sweep_points=5, **changes)
    with pytest.raises(ConfigError) as expected:
        run_sweep_oracle(cfg)
    with pytest.raises(ConfigError) as raised:
        run_sweep(cfg)
    assert str(raised.value) == str(expected.value)


def scalar_outcome(config, target, width, op):
    """What ``simulate`` gives at one row on the configuration with ``target``
    at ``width``: its result, the exception it raises, or None where the
    scaled geometry is rejected."""
    try:
        engine = ComparatorEngine(config if target is None
                                  else scaled_config(config, target, width))
    except ConfigError:
        return None
    try:
        return engine.simulate(op)
    except (ConfigError, SimulationError) as exc:
        return exc


# One engine's settings and device parameters, and the width target its
# rows rescale (None: no width column).
ENGINE = st.fixed_dictionaries({
    "vdd": st.floats(1.0, 2.4),
    "freq": st.sampled_from([333e6, 5e9]),
    "alpha": st.floats(1.0, 4.0),
    "tail_derating": st.sampled_from([0.0, 0.02, 0.5]),
    "tie_break": st.sampled_from([1, -1]),
    "early_shutdown_enabled": st.booleans(),
    "target": st.sampled_from([None] + list(WIDTH_TARGETS)),
    "mu_n": st.sampled_from([1.0, 0.5]),
    "mu_p": st.sampled_from([1.0, 2.0]),
})

# One row: its operating point and its target width, some of them below
# MIN_WIDTH or at the edge of its 1e-15 tolerance.
ROW = st.fixed_dictionaries({
    "vid": st.floats(-0.2, 0.2),
    "vcm_share": st.floats(-0.02, 1.02),
    "vdd_override": st.one_of(st.none(), st.floats(1.0, 2.4)),
    "corner": st.sampled_from(sorted(CORNERS)),
    "temp_c": st.one_of(st.sampled_from([27.0, 125.0]), st.floats(-60.0, 270.0)),
    "width": st.one_of(st.sampled_from([0.1e-6, MIN_WIDTH - 2e-15, MIN_WIDTH - 5e-16]),
                       st.floats(MIN_WIDTH, 4e-6), st.floats(0.1e-6, 4e-6)),
})


def build_config(spec) -> ComparatorConfig:
    return ComparatorConfig(
        vdd=spec["vdd"], freq=spec["freq"], alpha=spec["alpha"],
        tail_derating=spec["tail_derating"], tie_break=spec["tie_break"],
        early_shutdown_enabled=spec["early_shutdown_enabled"],
        nmos=replace(DEFAULT_NMOS, mu_cox=DEFAULT_NMOS.mu_cox * spec["mu_n"]),
        pmos=replace(DEFAULT_PMOS, mu_cox=DEFAULT_PMOS.mu_cox * spec["mu_p"]))


@settings(deadline=None, max_examples=300)
@given(spec=ENGINE, rows=st.lists(ROW, min_size=1, max_size=6))
def test_grid_rows_are_scalar_simulate(spec, rows):
    config, target = build_config(spec), spec["target"]
    supply = [config.vdd if row["vdd_override"] is None else row["vdd_override"] for row in rows]
    ops = [OperatingPoint(vid=row["vid"], vcm=row["vcm_share"] * vdd,
                          corner=CORNERS[row["corner"]], t_kelvin=row["temp_c"] + 273.15,
                          vdd_override=row["vdd_override"]) for row, vdd in zip(rows, supply)]
    widths = [row["width"] for row in rows]
    outcomes = [scalar_outcome(config, target, w, op) for w, op in zip(widths, ops)]

    def grid():
        return simulate_grid(
            ComparatorEngine(config), [op.vid for op in ops], [op.vcm for op in ops], supply,
            [op.corner for op in ops], [op.t_kelvin for op in ops],
            {} if target is None else target_widths(target, np.array(widths)))

    errors = [out for out in outcomes if isinstance(out, ConfigError)]
    if errors:
        with pytest.raises(ConfigError) as raised:
            grid()
        assert str(raised.value) == str(errors[0])
        return
    result = grid()
    for k, (w, op, out) in enumerate(zip(widths, ops, outcomes)):
        assert result.failed[k] == (out is None or isinstance(out, SimulationError))
        if result.failed[k]:
            continue
        engine = ComparatorEngine(config if target is None else scaled_config(config, target, w))
        e_off = engine.energy_per_comparison(engine.supply(op), out.i_tail, out.t_esd,
                                             False).total
        got = (int(result.decision[k]), float(result.t_dm[k]).hex(),
               float(result.t_esd[k]).hex(), float(result.energy[k]).hex(),
               float(result.energy_noesd[k]).hex(), bool(result.late[k]))
        assert got == (out.decision, out.t_dm.hex(), out.t_esd.hex(), out.energy.total.hex(),
                       e_off.hex(), out.late)


def test_empty_grid():
    grid = simulate_grid(ComparatorEngine(ComparatorConfig()), [], [], [], [], [])
    assert grid.failed.shape == grid.t_dm.shape == (0,)
