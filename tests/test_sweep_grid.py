"""The one-pass sweep grid against the per-point loop and the scalar simulate."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dyncomp.config import SWEEPS, RunConfig
from dyncomp.devices import (CORNERS, DEFAULT_NMOS, DEFAULT_PMOS, MIN_WIDTH, ZERO_MISMATCH,
                             CornerSpec, MismatchSample, params_columns)
from dyncomp.engine import (BAD_BODY, BAD_OP, BAD_PARAMS, BODY_MINUS, BODY_PLUS, NO_DECISION, OK,
                            UNBUILT, BodyBias, ComparatorConfig, ComparatorEngine,
                            ComparisonResult, EnergyBreakdown, OperatingPoint, simulate_grid)
from dyncomp.errors import BodyBiasError, ConfigError, NoDecisionError
from dyncomp.harness import render_csv, render_json, replace_runconfig, run_sweep
from dyncomp.sizing import WIDTH_TARGETS, scaled_config, target_widths
from sweep_oracle import run_sweep_oracle
from test_calibration import outcome

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


# (sweep.variable, RunConfig changes, the start of the message raised).
CONFIG_ERRORS = [
    ("vid", {"vcm": 2.5}, "vcm=2.5 outside"),  # every point leaves the common-mode range
    ("vid", {"temp_c": 300.0}, "temp_c=300 at corner TT: "),  # the unswept temperature
    ("temp", {"vcm": 2.5, "sweep_start": 260.0, "sweep_stop": 300.0},
     "vcm=2.5 outside"),  # range check first
    ("width_inv_n", {"sweep_start": 0.1e-6, "sweep_stop": 0.5e-6, "vid": 2.0}, "|vid|=2.0 "),
    # The cases of test_config_cli's test_sweep_names_offending_bound.
    ("temp", {"sweep_scale": "log"}, "sweep.start: -20 (default) must be > 0"),
    ("vdd", {"sweep_start": -1.0, "sweep_points": 4},
     "sweep.start: vdd point -1 is out of range: vcm=-0.5 outside [0, vdd=-1.0]"),
    ("vcm", {"sweep_start": -1.0}, "sweep.start: vcm point -1 is out of range: vcm=-1.0 "),
    ("vcm", {"sweep_stop": 2.5}, "sweep.stop: vcm point 2.5 is out of range: vcm=2.5 "),
    ("vcm", {"vdd": 1.0}, "sweep.stop: vcm point 1.1 (default) is out of range"),
    ("vid", {"sweep_stop": 2.0}, "sweep.stop: vid point 2 is out of range: |vid|"),
    ("temp", {"sweep_stop": 400.0}, "sweep.stop: temp point 400 is out of range"),
    ("temp", {"temp_c": 400.0, "sweep_stop": 400.0},
     "sweep.stop: temp point 400 is out of range: temp_c=400 at corner TT: "),
    # Row 0's bad parameters are the unswept temperature's, not the vid sweep's.
    ("vid", {"temp_c": 300.0, "sweep_stop": 2.0}, "sweep.stop: vid point 2 is out of range: "),
    # The unswept vid is out of range, so no bound is at fault.
    ("temp", {"vid": 2.0}, "|vid|=2.0 must be below vdd=1.8"),
    # A descending grid: its start is the bound at fault.
    ("vcm", {"sweep_start": 2.5, "sweep_stop": 0.1}, "sweep.start: vcm point 2.5 is out of range"),
    # The corner's threshold is below zero at 300 K, so no temperature is at fault.
    ("temp", {"nmos_vth0": 0.02, "corner": "FF"},
     "the nmos threshold, 0.02 V, falls to -0.01 V at corner FF; it must stay > 0"),
]


@pytest.mark.parametrize("variable, changes, message", CONFIG_ERRORS,
                         ids=[f"{v}-changes{i}" for i, (v, _, _) in enumerate(CONFIG_ERRORS)])
def test_first_config_error_row_raises(variable, changes, message):
    # run_sweep names the bound from the grid's fault codes; the oracle from
    # a scalar check of the grid's two ends.
    cfg = replace_runconfig(RunConfig(), **{"sweep_variable": variable, "sweep_points": 5,
                                            **changes})
    with pytest.raises(ConfigError) as expected:
        run_sweep_oracle(cfg)
    with pytest.raises(ConfigError) as raised:
        run_sweep(cfg)
    assert str(raised.value) == str(expected.value)
    assert str(raised.value).startswith(message)


# A vid, vcm, vdd or temp sweep of 2-6 points, bounds in and out of range
# in either order, at an unswept point that may itself be out of range.
OP_SWEEP = st.one_of(*(st.fixed_dictionaries({
    "sweep_variable": st.just(variable),
    "sweep_start": bound, "sweep_stop": bound, "sweep_points": st.integers(2, 6),
    "vid": st.one_of(st.floats(-0.05, 0.05), st.sampled_from([1.8, -2.0])),
    "vcm": st.one_of(st.none(), st.floats(-0.2, 2.0)),
    "temp_c": st.one_of(st.floats(-55.0, 150.0), st.floats(150.0, 350.0)),
    "corner": st.sampled_from(sorted(CORNERS)),
}) for variable, bound in (("vid", st.floats(-2.2, 2.2)), ("vcm", st.floats(-0.3, 2.1)),
                           ("vdd", st.floats(-0.5, 2.6)), ("temp", st.floats(-60.0, 400.0)))))


@settings(deadline=None, max_examples=200)
@given(changes=OP_SWEEP, compare=st.booleans())
# A supply of zero: the range check, not the ComparatorConfig, rejects the point.
@example(changes={"sweep_variable": "vdd", "sweep_start": 0.0, "sweep_stop": 0.0,
                  "sweep_points": 2, "vid": 1.8}, compare=False)
def test_op_sweep_is_the_per_point_loop(changes, compare):
    # Either the oracle's ConfigError text or its CSV, byte for byte.
    cfg = replace_runconfig(RunConfig(), **changes)
    expected = outcome(lambda: render_csv(run_sweep_oracle(cfg, compare)))
    assert outcome(lambda: render_csv(run_sweep(cfg, compare))) == expected


def hexed(result):
    """Every field of a ComparisonResult, floats by float.hex."""
    if not isinstance(result, ComparisonResult):
        return result
    floats = (result.t0, result.t1, result.t_esd, result.t_dm, result.i_tail,
              *result.energy._asdict().values())
    return (type(result.decision), result.decision, result.shutdown_occurred, result.late,
            *(x.hex() for x in floats))


def grid_row(grid, k):
    """Row k of a GridResult as the ComparisonResult simulate builds from it."""
    return ComparisonResult(int(grid.decision[k]), float(grid.t0[k]), float(grid.t1[k]),
                            float(grid.t_esd[k]), float(grid.t_dm[k]),
                            bool(grid.shutdown_occurred[k]), bool(grid.late[k]),
                            float(grid.i_tail[k]),
                            EnergyBreakdown(*(float(x[k]) for x in grid.energy._asdict().values())))


# The fault code of each error the oracle raises, by class and message prefix.
FAULTS = ((ConfigError, "vcm=", BAD_OP), (ConfigError, "|vid|=", BAD_OP),
          (ConfigError, "body voltages", BAD_BODY), (ConfigError, "temp_c=", BAD_PARAMS),
          (BodyBiasError, "", BODY_MINUS), (BodyBiasError, "", BODY_PLUS),
          (NoDecisionError, "", NO_DECISION))


def fault_codes(out) -> set:
    """The fault codes a grid row may carry where the oracle gives ``out``."""
    if out is None:
        return {UNBUILT}
    if isinstance(out, ComparisonResult):
        return {OK}
    return {code for cls, prefix, code in FAULTS if out[0] is cls and out[1].startswith(prefix)}


# The devices whose mismatch enters the cycle, each side's in mirrored pairs.
CYCLE_DEVICES = ("Mp1", "Mp4", "Mp5", "Mn3", "Mn4", "Mni2", "Mni3", "Mpi1", "Mpi4")

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

# One row: its operating point, its supply (None: the engine's), its target
# width (some below MIN_WIDTH or at the edge of its 1e-15 tolerance), its
# mismatch and its body voltages as shares of the supply (None: at the
# supply). Below about 0.6 of a 1.8 V supply a body leaves the threshold
# model; above 1 simulate rejects it.
ROW = st.fixed_dictionaries({
    "vid": st.floats(-0.2, 0.2),
    "vcm_share": st.floats(-0.02, 1.02),
    "vdd": st.one_of(st.none(), st.floats(1.0, 2.4)),
    "corner": st.sampled_from(sorted(CORNERS)),
    "temp_c": st.one_of(st.sampled_from([27.0, 125.0]), st.floats(-60.0, 270.0)),
    "width": st.one_of(st.sampled_from([0.1e-6, MIN_WIDTH - 2e-15, MIN_WIDTH - 5e-16]),
                       st.floats(MIN_WIDTH, 4e-6), st.floats(0.1e-6, 4e-6)),
    "mismatch": st.fixed_dictionaries({name: st.tuples(
        st.one_of(st.floats(-0.05, 0.05), st.floats(-0.6, 0.6)), st.floats(-0.5, 0.5))
        for name in CYCLE_DEVICES}),
    "vb_plus": st.one_of(st.none(), st.floats(0.0, 1.05)),
    "vb_minus": st.one_of(st.none(), st.floats(0.0, 1.05)),
})


# A corner name and a temperature in kelvin, each shared by every row or
# None (each row's own). params_at raises at some shared temperatures: NaN,
# 1e-300 K and 400 C at TT.
SHARED = st.tuples(st.one_of(st.none(), st.sampled_from(sorted(CORNERS))),
                   st.one_of(st.none(), st.floats(213.15, 543.15),
                             st.sampled_from([math.nan, 1e-300, 673.15])))
# Defaults of ENGINE and ROW, for examples.
SPEC = {"vdd": 1.8, "freq": 333e6, "alpha": 1.5, "tail_derating": 0.02, "tie_break": 1,
        "early_shutdown_enabled": True, "target": None, "mu_n": 1.0, "mu_p": 1.0}
ROW_AT = {"vid": 0.05, "vcm_share": 0.5, "vdd": None, "corner": "FF", "temp_c": 27.0,
          "width": 1e-6, "mismatch": {name: (0.0, 0.0) for name in CYCLE_DEVICES},
          "vb_plus": None, "vb_minus": None}


def build_config(spec) -> ComparatorConfig:
    return ComparatorConfig(
        vdd=spec["vdd"], freq=spec["freq"], alpha=spec["alpha"],
        tail_derating=spec["tail_derating"], tie_break=spec["tie_break"],
        early_shutdown_enabled=spec["early_shutdown_enabled"],
        nmos=replace(DEFAULT_NMOS, mu_cox=DEFAULT_NMOS.mu_cox * spec["mu_n"]),
        pmos=replace(DEFAULT_PMOS, mu_cox=DEFAULT_PMOS.mu_cox * spec["mu_p"]))


@settings(deadline=None, max_examples=300)
@given(spec=ENGINE, rows=st.lists(ROW, min_size=1, max_size=6), shared=SHARED)
@example(spec=SPEC, rows=[ROW_AT, {**ROW_AT, "vcm_share": 2.0}], shared=("TT", math.nan))
@example(spec=SPEC, rows=[ROW_AT, {**ROW_AT, "vb_minus": 0.1}], shared=("TT", 1e-300))
@example(spec=SPEC, rows=[ROW_AT], shared=("TT", 673.15))
@example(spec=SPEC, rows=[ROW_AT, ROW_AT], shared=("SS", 300.15))
def test_grid_rows_are_scalar_simulate(spec, rows, shared):
    # Each row against the scalar simulate on an engine at the row's supply
    # and with the row's width: every ComparisonResult field by float.hex and
    # the no-shutdown energy from its fields, or the fault code of
    # simulate's error and raise_row's class and message. The grid takes
    # the corner and the temperature as one value where ``shared`` gives it.
    config, target = build_config(spec), spec["target"]
    supply = [config.vdd if row["vdd"] is None else row["vdd"] for row in rows]
    corners = [CORNERS[shared[0] or row["corner"]] for row in rows]
    temps = [row["temp_c"] + 273.15 if shared[1] is None else shared[1] for row in rows]
    ops = [OperatingPoint(vid=row["vid"], vcm=row["vcm_share"] * vdd, corner=corner,
                          t_kelvin=t_kelvin)
           for row, vdd, corner, t_kelvin in zip(rows, supply, corners, temps)]
    bodies = [BodyBias(*(vdd if row[side] is None else row[side] * vdd
                         for side in ("vb_plus", "vb_minus"))) for row, vdd in zip(rows, supply)]
    mismatches = [MismatchSample(row["mismatch"]) for row in rows]
    widths = [row["width"] for row in rows]
    engines = []
    for w in widths:
        try:
            engines.append(ComparatorEngine(config if target is None
                                            else scaled_config(config, target, w)))
        except ConfigError:
            engines.append(None)
    grid = simulate_grid(
        ComparatorEngine(config), [op.vid for op in ops], [op.vcm for op in ops], supply,
        corners if shared[0] is None else corners[0], temps if shared[1] is None else temps[0],
        {} if target is None else target_widths(target, np.array(widths)),
        {name: tuple(np.array([row["mismatch"][name][i] for row in rows]) for i in (0, 1))
         for name in CYCLE_DEVICES},
        [body.vb_plus for body in bodies], [body.vb_minus for body in bodies])
    for k, (engine, op, mm, body, vdd) in enumerate(zip(engines, ops, mismatches, bodies, supply)):
        at_supply = None if engine is None else ComparatorEngine(replace(engine.config, vdd=vdd))
        out = None if engine is None else outcome(lambda: at_supply.simulate(op, mm, body))
        assert int(grid.fault[k]) in fault_codes(out)
        if engine is None:
            continue
        if not isinstance(out, ComparisonResult):
            assert outcome(lambda: grid.raise_row(k)) == out
            continue
        assert grid.raise_row(k) is None
        assert hexed(grid_row(grid, k)) == hexed(out)
        e_off = vdd * out.i_tail * config.window + out.energy.e_latch + out.energy.e_reset
        assert float(grid.energy_noesd[k]).hex() == e_off.hex()


def test_every_fault_code_raises_the_oracles_error():
    # One row per fault code, in one grid: the code, and raise_row's class
    # and message against the scalar simulate. Rows that fault two ways take
    # the check simulate makes first. Messages quote values as given, ints
    # included. Then the same rows at one corner and temperature shared by
    # every row: a valid one moves the BAD_PARAMS row to its body fault, and
    # where params_at raises, every row past the body check is BAD_PARAMS.
    config = ComparatorConfig()
    vdd, tt, hot = config.vdd, CORNERS["TT"], 600.0
    rows = {  # code: (vid, vcm, t_kelvin, width, vb_plus, vb_minus)
        OK: (0.05, 0.9, 300.0, 1e-6, vdd, vdd),
        UNBUILT: (0.05, 2.5, hot, 0.1e-6, vdd, vdd),
        BAD_OP: (0.05, 3, hot, 1e-6, 2.0, 0.1),
        BAD_BODY: (0.05, 0.9, hot, 1e-6, 2, 0.1),
        BAD_PARAMS: (0.05, 0.9, hot, 1e-6, 0.1, 0.1),
        BODY_MINUS: (0.05, 0.9, 300.0, 1e-6, 0.1, 0.2),
        BODY_PLUS: (0.05, 0.9, 300.0, 1e-6, 0.2, vdd),
        NO_DECISION: (0.0, 1.36, 300.0, 1e-6, vdd, vdd),
    }
    vid, vcm, t_kelvin, width, vb_plus, vb_minus = (list(column) for column in zip(*rows.values()))
    valid = [BODY_MINUS if code == BAD_PARAMS else code for code in rows]
    invalid = [min(code, BAD_PARAMS) for code in rows]
    cases = [(None, list(rows)), (300.0, valid),
             *((t, invalid) for t in (hot, math.nan, 1e-300, 673.15))]
    for shared, codes in cases:
        temps = t_kelvin if shared is None else [shared] * len(rows)
        grid = simulate_grid(ComparatorEngine(config), vid, vcm, [vdd] * len(rows),
                             [tt] * len(rows) if shared is None else tt,
                             t_kelvin if shared is None else shared,
                             target_widths("inv_n", np.array(width)),
                             vb_plus=vb_plus, vb_minus=vb_minus)
        assert grid.fault.tolist() == codes
        for k, code in enumerate(codes):
            if code in (OK, UNBUILT):
                assert grid.raise_row(k) is None
                continue
            engine = ComparatorEngine(scaled_config(config, "inv_n", width[k]))
            op = OperatingPoint(vid=vid[k], vcm=vcm[k], corner=tt, t_kelvin=temps[k])
            expected = outcome(lambda: engine.simulate(op, ZERO_MISMATCH,
                                                       BodyBias(vb_plus[k], vb_minus[k])))
            assert fault_codes(expected) >= {code}
            assert outcome(lambda: grid.raise_row(k)) == expected


def test_empty_grid():
    grid = simulate_grid(ComparatorEngine(ComparatorConfig()), [], [], [], [], [])
    assert grid.fault.shape == grid.t_dm.shape == (0,)


def test_nan_temperature_raises():
    # A NaN temperature is a ConfigError naming it, in simulate and in a grid
    # row, not a failed row.
    engine, tt = ComparatorEngine(ComparatorConfig()), CORNERS["TT"]
    message = "temp_c=nan at corner TT: t_kelvin must be > 0"
    with pytest.raises(ConfigError) as raised:
        engine.simulate(OperatingPoint(t_kelvin=math.nan))
    assert str(raised.value) == message
    grid = simulate_grid(engine, [0.05] * 2, [0.9] * 2, [1.8] * 2, [tt] * 2, [300.0, math.nan])
    assert grid.fault.tolist() == [OK, BAD_PARAMS]
    assert outcome(lambda: grid.raise_row(1)) == (ConfigError, message)


@pytest.mark.parametrize("vid, vcm, message", [
    (math.nan, 0.9, "|vid|=nan must be below vdd=1.8"),
    (0.05, math.nan, "vcm=nan outside [0, vdd=1.8]"),
])
def test_nan_input_raises(vid, vcm, message):
    # A NaN vid or vcm is a ConfigError naming it, in simulate and in a grid
    # row, not a missing decision.
    engine, tt = ComparatorEngine(ComparatorConfig()), CORNERS["TT"]
    with pytest.raises(ConfigError) as raised:
        engine.simulate(OperatingPoint(vid=vid, vcm=vcm))
    assert str(raised.value) == message
    grid = simulate_grid(engine, [0.05, vid], [0.9, vcm], [1.8] * 2, [tt] * 2, [300.0] * 2)
    assert grid.fault.tolist() == [OK, BAD_OP]
    assert outcome(lambda: grid.raise_row(1)) == (ConfigError, message)


@pytest.mark.parametrize("t_kelvin", [1e-300, 5e-324])
def test_tiny_temperature_raises(t_kelvin):
    # The mobility factor (t/300 K)**-1.5 overflows a float, or its base
    # underflows to 0: a ConfigError naming the temperature and the corner,
    # in simulate and in a grid row, not a bare OverflowError.
    engine, tt = ComparatorEngine(ComparatorConfig()), CORNERS["TT"]
    message = (f"temp_c=-273.15 at corner TT: the mobility factor (T/300 K)**-1.5 "
               f"overflows at {t_kelvin:g} K")
    with pytest.raises(ConfigError) as raised:
        engine.simulate(OperatingPoint(t_kelvin=t_kelvin))
    assert str(raised.value) == message
    grid = simulate_grid(engine, [0.05] * 2, [0.9] * 2, [1.8] * 2, [tt] * 2, [300.0, t_kelvin])
    assert grid.fault.tolist() == [OK, BAD_PARAMS]
    assert outcome(lambda: grid.raise_row(1)) == (ConfigError, message)


# Corners whose shifts may take either threshold to zero or below, and
# temperatures at or below 0 K, NaN, too close to 0 K for the mobility
# factor, or past the 525 K where a 0.45 V threshold reaches zero.
SHIFT = st.one_of(st.floats(-0.1, 0.1), st.floats(-0.7, -0.3), st.sampled_from([-0.45, -0.3]))
CORNER = st.builds(CornerSpec, st.just("X"), st.floats(0.5, 1.5), st.floats(0.5, 1.5),
                   SHIFT, SHIFT)
TEMP = st.one_of(st.floats(200.0, 500.0), st.floats(500.0, 900.0), st.floats(-50.0, 0.0),
                 st.floats(1e-300, 1e-200),
                 st.sampled_from([math.nan, 0.0, -0.0, 300.0, 525.0, 675.0, 5e-324, 1e-322]))


@settings(deadline=None, max_examples=300)
@given(corners=st.lists(st.one_of(st.sampled_from(list(CORNERS.values())), CORNER),
                        min_size=1, max_size=3),
       rows=st.lists(st.tuples(st.integers(0, 2), TEMP), min_size=1, max_size=8),
       vth0=st.sampled_from([(0.45, 0.45), (0.3, 0.6)]))
@example(corners=[CornerSpec("X", vth_shift_n=-0.45)], rows=[(0, 300.0), (0, math.nan)],
         vth0=(0.45, 0.45))
def test_params_columns_are_params_at(corners, rows, vth0):
    # Each row's nmos and pmos vth0 and mu_cox, by float.hex, are params_at's
    # at the row's corner and temperature; where params_at raises the row is
    # BAD_PARAMS and raise_row raises its error. Rows that draw the same
    # corner share one CornerSpec object.
    config = ComparatorConfig(nmos=replace(DEFAULT_NMOS, vth0=vth0[0]),
                              pmos=replace(DEFAULT_PMOS, vth0=vth0[1]))
    engine = ComparatorEngine(config)
    corner = [corners[i % len(corners)] for i, _ in rows]
    t_kelvin = [t for _, t in rows]
    *columns, bad = params_columns(config.nmos, config.pmos, corner, t_kelvin)
    n = len(rows)
    grid = simulate_grid(engine, [0.05] * n, [0.9] * n, [1.8] * n, corner, t_kelvin)
    for k in range(n):
        expected = outcome(lambda: engine.params_at(OperatingPoint(corner=corner[k],
                                                                    t_kelvin=t_kelvin[k])))
        raises = expected[0] is ConfigError
        assert bool(bad[k]) == (int(grid.fault[k]) == BAD_PARAMS) == raises
        if raises:
            assert outcome(lambda: grid.raise_row(k)) == expected
        else:
            assert [float(c[k]).hex() for c in columns] == [
                x.hex() for params in expected for x in (params.vth0, params.mu_cox)]
