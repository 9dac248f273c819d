"""Acceptance gate: one test per criterion, one PASS line each (-s to see).

Run with: pytest tests/test_acceptance.py -v -s
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from dyncomp.calibration import (CalibrationConfig, monte_carlo, residual_bound,
                                 run_calibration)
from dyncomp.cli import main
from dyncomp.config import RunConfig, config_from_metadata
from dyncomp.devices import (AVT_DEFAULT, CORNERS, DeviceParams, MismatchSample,
                             TransistorGeom, default_geometry)
from dyncomp.engine import ComparatorConfig, ComparatorEngine, OperatingPoint
from dyncomp.harness import (_column, load_csv, replace_runconfig, run_montecarlo,
                             run_sweep)
from dyncomp.sizing import normalized_balance_residual, solve_sizing

from test_calibration import inject, straight_line_loop
from test_sizing import brute_force_solve

TOL = 1e-12


def note(criterion, message):
    print(f"\n[acceptance] criterion {criterion}: PASS - {message}")


# -- criterion 1: formula fidelity ------------------------------------------------

# (cox, mu_n, mu_p, vth_n, vth_p, w_mn3, w_mni2, w_mpi1, w_mp2, w_mp8,
#  w_mn6, w_mp4, l, vdd, vcm, vid, alpha) -- SI units, lengths in meters
PARAM_SETS = [
    (8.5e-3, 300e-6, 150e-6, 0.45, 0.45, 1.0e-6, 0.22e-6, 0.22e-6, 0.35e-6,
     2.0e-6, 2.0e-6, 1.2e-6, 0.18e-6, 1.8, 0.9, 50e-3, 1.5),
    (6.0e-3, 250e-6, 120e-6, 0.40, 0.50, 2.0e-6, 0.30e-6, 0.25e-6, 0.50e-6,
     1.5e-6, 1.8e-6, 2.4e-6, 0.25e-6, 1.5, 0.75, 20e-3, 1.0),
    (10e-3, 400e-6, 200e-6, 0.50, 0.42, 0.8e-6, 0.40e-6, 0.30e-6, 0.60e-6,
     2.5e-6, 2.2e-6, 1.0e-6, 0.20e-6, 2.0, 1.0, 1e-3, 2.0),
    (8.0e-3, 350e-6, 160e-6, 0.35, 0.38, 1.4e-6, 0.25e-6, 0.28e-6, 0.45e-6,
     1.2e-6, 1.0e-6, 0.9e-6, 0.18e-6, 1.2, 0.5, 10e-3, 1.25),
    (9.0e-3, 280e-6, 140e-6, 0.48, 0.46, 1.1e-6, 0.50e-6, 0.50e-6, 0.70e-6,
     3.0e-6, 2.8e-6, 2.0e-6, 0.30e-6, 1.8, 0.8, -30e-3, 3.0),
    (7.5e-3, 320e-6, 150e-6, 0.42, 0.44, 0.9e-6, 0.35e-6, 0.40e-6, 0.80e-6,
     1.6e-6, 1.4e-6, 1.5e-6, 0.22e-6, 1.6, 0.9, 5e-3, 1.75),
]


def hand_oracle(ps):
    """Literal re-derivation of the six timing quantities from raw numbers."""
    (cox, mu_n, mu_p, vth_n, vth_p, w_mn3, w_mni2, w_mpi1, w_mp2, w_mp8,
     w_mn6, w_mp4, l, vdd, vcm, vid, alpha) = ps
    c_out = cox * (w_mn3 + w_mni2) * l
    c_pi = cox * w_mpi1 * l
    c_p3 = cox * w_mp2 * l
    c_latch = cox * (w_mp8 + w_mn6) * l
    beta_p = mu_p * w_mp4 / l
    beta_ni = mu_n * w_mni2 / l
    beta_pi = mu_p * w_mpi1 / l
    beta_n3 = mu_n * w_mn3 / l
    ov = vdd - (vcm - abs(vid) / 2.0) - vth_p
    t1 = 2.0 * vth_n * c_out / (beta_p * ov * ov)
    t_invn = 1.6 * c_pi / (beta_ni * vdd)
    t_invp = alpha * 1.6 * c_p3 / (beta_pi * vdd)
    t_latch = 1.6 * c_latch / (beta_n3 * vdd)
    return t1, t_invn, t_invp, t1 + t_invn + t_invp, t_latch, t1 + t_latch


def engine_for(ps):
    (cox, mu_n, mu_p, vth_n, vth_p, w_mn3, w_mni2, w_mpi1, w_mp2, w_mp8,
     w_mn6, w_mp4, l, vdd, vcm, vid, alpha) = ps
    widths = {"Mn3": w_mn3, "Mn4": w_mn3, "Mni2": w_mni2, "Mni3": w_mni2,
              "Mpi1": w_mpi1, "Mpi4": w_mpi1, "Mp2": w_mp2, "Mp3": w_mp2,
              "Mp7": w_mp8, "Mp8": w_mp8, "Mn5": w_mn6, "Mn6": w_mn6,
              "Mp4": w_mp4, "Mp5": w_mp4}
    geoms = {}
    for name, geom in default_geometry().items():
        geoms[name] = TransistorGeom(name, widths.get(name, geom.w), l, geom.polarity)
    config = ComparatorConfig(
        geoms=geoms,
        nmos=DeviceParams("nmos", mu_n, vth_n, cox_area=cox),
        pmos=DeviceParams("pmos", mu_p, vth_p, cox_area=cox),
        vdd=vdd, alpha=alpha)
    op = OperatingPoint(vid=vid, vcm=vcm, t_kelvin=300.0)
    return ComparatorEngine(config), op


def test_criterion_1_formula_fidelity():
    for i, ps in enumerate(PARAM_SETS):
        engine, op = engine_for(ps)
        t1, t_invn, t_invp, t_esd, t_latch, t_dm = hand_oracle(ps)
        # The stage delays are read off simulate's own fields; the buffer-p
        # stage is the t_esd step per unit alpha, scaled back to alpha.
        alpha = engine.config.alpha
        r = engine.simulate(op)
        r2 = ComparatorEngine(replace(engine.config, alpha=alpha + 1.0)).simulate(op)
        got_invp = (r2.t_esd - r.t_esd) * alpha
        checks = [
            (r.t0, t1),
            (r.t1, t1),
            (r.t_esd - r.t1 - got_invp, t_invn),
            (got_invp, t_invp),
            (r.t_esd, t_esd),
            (r.t_dm - r.t0, t_latch),
            (r.t_dm, t_dm),
        ]
        for got, expected in checks:
            assert abs(got - expected) / expected < TOL, \
                f"set {i}: got {got}, oracle {expected}"
    note(1, f"simulate's t0, t1, t_esd, t_dm and the stage delays they imply match "
            f"hand arithmetic on {len(PARAM_SETS)} parameter sets at 1e-12 relative")


# -- criterion 2: sizing solver ---------------------------------------------------

def exhaustive_fine_oracle(alpha, step):
    """Every (x, y) of the step grid over [1, 4]^2; the first minimum wins."""
    return brute_force_solve(alpha, 4.0, 4.0, step)


def test_criterion_2_sizing_solver():
    v15 = solve_sizing(1.5)
    assert (v15.x, v15.y) == (1.0, 1.0) and normalized_balance_residual(v15) == 0.0
    v20 = solve_sizing(2.0)
    assert (v20.x, v20.y) == (2.0, 1.0) and normalized_balance_residual(v20) == 0.0
    v10 = solve_sizing(1.0)

    for alpha, v in ((1.5, v15), (2.0, v20), (1.0, v10)):
        (fx, fy), ferr = exhaustive_fine_oracle(alpha, 0.001)
        assert abs(normalized_balance_residual(v)) <= ferr + 1e-15
        assert abs(v.x - fx) <= 0.01 + 1e-12 and abs(v.y - fy) <= 0.01 + 1e-12, \
            f"alpha={alpha}: solver ({v.x}, {v.y}) vs fine oracle ({fx}, {fy})"

    # stated alpha=1.0 answer: x = 2 + sqrt(2) on the y=1 slice. Unconstrained,
    # the oracle above finds the exact zero (1.0, 1.5), so the y=1 root is
    # checked on its slice (README, "Known failing acceptance checks").
    v10_slice = solve_sizing(1.0, y_max=1.0)
    assert v10_slice.y == 1.0
    assert abs(v10_slice.x - (2.0 + math.sqrt(2.0))) <= 0.01 + 1e-12, (
        f"alpha=1.0, y=1 slice: solver gives x={v10_slice.x} with residual "
        f"{normalized_balance_residual(v10_slice)}, not x=2+sqrt(2)")
    note(2, "solver matches the exhaustive fine-grid oracle for alpha in {1.5, 2.0, 1.0} "
            "and finds x=2+sqrt(2) on the alpha=1.0, y=1 slice")


# -- criteria 3 and 4: shutdown savings and trend reproduction --------------------

@pytest.fixture(scope="module")
def standard_sweeps():
    cfg = RunConfig()
    return {var: run_sweep(replace_runconfig(cfg, sweep_variable=var), compare=True)
            for var in ("vid", "vcm", "vdd", "temp", "corner")}


def test_criterion_3_shutdown_savings(standard_sweeps):
    window = 0.5 / RunConfig().freq
    worst = math.inf
    points = 0
    for var, table in standard_sweeps.items():
        e_on = _column(table, "energy_J")
        e_off = _column(table, "energy_noesd_J")
        t_esd = _column(table, "t_esd_s")
        savings = _column(table, "savings_pct")
        for eo, ef, te, sv in zip(e_on, e_off, t_esd, savings):
            points += 1
            assert eo <= ef, f"{var}: enabled energy above disabled"
            if te < window:
                assert eo < ef, f"{var}: no strict saving although t_esd < window"
            worst = min(worst, sv)
    assert worst > 0.0
    note(3, f"enabled <= disabled at all {points} grid points, strict where "
            f"t_esd < window; worst-case savings {worst:.1f}% (design target "
            f"21.7%; the windowed no-shutdown baseline overstates savings, "
            f"see README)")


def strictly(seq, op):
    return all(op(a, b) for a, b in zip(seq, seq[1:]))


def test_criterion_4_trends(standard_sweeps):
    lt = lambda a, b: a < b
    gt = lambda a, b: a > b

    vid = standard_sweeps["vid"]
    assert strictly(_column(vid, "t_dm_s"), gt), "t_dm not strictly decreasing in vid"
    assert strictly(_column(vid, "power_W"), gt), "power not strictly decreasing in vid"

    vcm = standard_sweeps["vcm"]
    assert strictly(_column(vcm, "t_dm_s"), lt), "t_dm not strictly increasing in vcm"

    vdd = standard_sweeps["vdd"]
    assert strictly(_column(vdd, "t_dm_s"), gt), "t_dm not decreasing in vdd"
    assert strictly(_column(vdd, "power_W"), lt), "power not increasing in vdd"

    corner = standard_sweeps["corner"]
    delays = dict(zip(_column(corner, "corner"), _column(corner, "t_dm_s")))
    assert delays["FF"] < delays["TT"] < delays["SS"], "corner ordering broken"

    note(4, "t_dm and power trends over vid/vcm/vdd and FF < TT < SS hold on "
            "the default grids")


# -- criterion 5: offset oracle ----------------------------------------------------

def test_criterion_5_offset_oracle():
    from dyncomp.calibration import measure_offset
    engine = ComparatorEngine(ComparatorConfig())
    op = OperatingPoint(vid=0.0, vcm=0.9, t_kelvin=300.0)

    zero = measure_offset(engine, op)
    assert abs(zero) <= 20e-6, f"zero-mismatch offset {zero} above 2*tol"

    mm = inject(0.010)
    measured = measure_offset(engine, op, mm)
    assert 8e-3 <= measured <= 12e-3, f"injected 10 mV measured as {measured}"

    # independent oracle: brute-force vid scan at 0.1 mV resolution
    flip = None
    prev = engine.simulate(replace(op, vid=-0.1), mm).decision
    for k in range(2001):
        v = -0.1 + k * 0.1e-3
        d = engine.simulate(replace(op, vid=v), mm).decision
        if d != prev:
            flip = v
            break
    assert flip is not None and abs(measured - flip) <= 0.1e-3
    note(5, f"zero offset |{zero * 1e6:.1f}| uV <= 20 uV; 10 mV injection measured "
            f"{measured * 1e3:.2f} mV, brute-force flip at {flip * 1e3:.2f} mV")


# -- criterion 6: calibration convergence -------------------------------------------

@pytest.fixture(scope="module")
def mc500():
    cfg = replace_runconfig(RunConfig(), trials=500, seed=1, calibrate=True)
    before, after, _ = run_montecarlo(cfg)
    return before, after


def test_criterion_6_convergence_bound(mc500):
    before, _ = mc500
    sigma = before.sigma
    cfg = ComparatorConfig()
    cal = CalibrationConfig()
    bound = residual_bound(cal, cfg)
    op = OperatingPoint(vid=0.0, vcm=0.9, t_kelvin=300.0)
    failures = []
    for x in np.linspace(-3 * sigma, 3 * sigma, 61):
        result = run_calibration(cfg, inject(float(x)), cal, op)
        if not (result.converged and abs(result.offset_after) <= bound):
            failures.append((x, result.offset_after))
    assert not failures, (
        f"{len(failures)}/61 injected offsets end above the residual bound "
        f"{bound * 1e3:.2f} mV (worst {max(abs(o) for _, o in failures) * 1e3:.2f} mV "
        f"at {[round(float(x) * 1e3, 1) for x, _ in failures[:6]]}... mV): the bound "
        f"takes the body gain at vb=vdd, where it is smallest, while the loop "
        f"ends on lower body voltages where the gain is higher -- see README, "
        f"\"Known failing acceptance checks\"")
    note(6, "all 61 offsets spanning +/-3 sigma converge within the residual bound")


def test_criterion_6_history_recurrence_oracle():
    cfg = ComparatorConfig()
    cal = CalibrationConfig()
    op = OperatingPoint(vid=0.0, vcm=0.9, t_kelvin=300.0)
    for x in (-0.045, -0.02, -0.005, 0.0, 0.003, 0.017, 0.033, 0.05):
        mm = inject(x)
        result = run_calibration(cfg, mm, cal, op)
        history, vb_plus, vb_minus = straight_line_loop(cfg, mm, cal, op)
        assert list(result.state.history) == history, f"history diverges at {x}"
        assert (result.state.vb_plus, result.state.vb_minus) == (vb_plus, vb_minus)
    note("6 (history)", "loop history matches the straight-line recurrence oracle "
                        "exactly for 8 injected offsets")


# -- criterion 7: Monte Carlo reduction ---------------------------------------------

def test_criterion_7_monte_carlo_reduction(mc500):
    before, after = mc500
    assert before.n == after.n == 500
    ratio = after.sigma / before.sigma
    assert ratio <= 0.1, f"calibrated/uncalibrated sigma ratio {ratio:.3f} > 0.1"

    pelgrom_pair = math.sqrt(2) * AVT_DEFAULT / math.sqrt(1.2e-6 * 0.18e-6)
    assert pelgrom_pair / 2 <= before.sigma <= 2 * pelgrom_pair, \
        f"uncalibrated sigma {before.sigma} vs Pelgrom pair prediction {pelgrom_pair}"
    note(7, f"sigma {before.sigma * 1e3:.2f} mV -> {after.sigma * 1e3:.3f} mV "
            f"(x{before.sigma / after.sigma:.1f} reduction, ratio {ratio:.3f} <= 0.1); "
            f"Pelgrom pair prediction {pelgrom_pair * 1e3:.2f} mV")


# -- criterion 8: determinism --------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    runs = {
        "sim": ["sim"],
        "sweep": ["sweep", "--set", "sweep.variable=vid"],
        "mc": ["mc", "--trials", "25", "--calibrate"],
        "calibrate": ["calibrate"],
        "size": ["size"],
    }
    for name, argv in runs.items():
        out1 = tmp_path / f"{name}_1.csv"
        out2 = tmp_path / f"{name}_2.csv"
        assert main(argv + ["--seed", "7", "--out", str(out1)]) == 0
        assert main(argv + ["--seed", "7", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), f"{name} not byte-identical"

    # the embedded metadata reproduces the run byte-for-byte
    source = tmp_path / "sweep_1.csv"
    rebuilt_cfg = config_from_metadata(load_csv(source).metadata)
    table = run_sweep(rebuilt_cfg)
    from dyncomp.harness import render_csv
    assert render_csv(table) == source.read_text(encoding="utf-8")
    note(8, "sim/sweep/mc/calibrate/size re-runs are byte-identical and the "
            "emitted metadata reproduces the sweep file exactly")
