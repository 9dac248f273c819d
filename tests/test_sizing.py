"""Balance-condition solver and width-sweep characterization."""
import math
from dataclasses import replace

import numpy as np
import pytest

from dyncomp.devices import CORNERS
from dyncomp.engine import ComparatorConfig, ComparatorEngine, OperatingPoint
from dyncomp.errors import ConfigError
from dyncomp.sizing import (SizingVars, WidthSweepPoint, _grid, balance_residual_for,
                            general_balance_residual, normalized_balance_residual,
                            scaled_config, solve_sizing, width_sweep)

OP0 = OperatingPoint(vid=50e-3, vcm=0.9, t_kelvin=300.0)


class TestNormalizedResidual:
    def test_known_zeros(self):
        assert normalized_balance_residual(SizingVars(1.0, 1.0, 1.5)) == 0.0
        assert normalized_balance_residual(SizingVars(2.0, 1.0, 2.0)) == 0.0

    def test_signed_value(self):
        assert normalized_balance_residual(SizingVars(1.0, 1.0, 1.0)) == -0.5

    def test_invariants(self):
        with pytest.raises(ConfigError):
            SizingVars(0.5, 1.0, 1.5)
        with pytest.raises(ConfigError):
            SizingVars(1.0, 1.0, 0.5)


class TestGeneralResidual:
    def test_definition(self):
        caps = ComparatorEngine(ComparatorConfig()).node_caps()
        r = general_balance_residual(caps, 1e-3, 2e-3, 3e-3, 1.5)
        expected = caps.c_pi / 1e-3 + 1.5 * caps.c_p3 / 2e-3 - caps.c_latch / 3e-3
        assert r == expected

    def test_homogeneous_in_caps(self):
        caps = ComparatorEngine(ComparatorConfig()).node_caps()
        scaled = ComparatorEngine(ComparatorConfig(
            extra_load={"out": caps.c_out, "pi": caps.c_pi,
                        "p3": caps.c_p3, "latch": caps.c_latch})).node_caps()
        r1 = general_balance_residual(caps, 1e-3, 2e-3, 3e-3, 1.5)
        r2 = general_balance_residual(scaled, 1e-3, 2e-3, 3e-3, 1.5)
        assert r2 == pytest.approx(2 * r1, rel=1e-12)

    def test_default_geometry_sign(self):
        # the default geometry shuts down slightly after the latch decision
        r = balance_residual_for(ComparatorConfig(), OP0)
        assert r > 0

    def test_rejects_bad_beta(self):
        caps = ComparatorEngine(ComparatorConfig()).node_caps()
        with pytest.raises(ConfigError):
            general_balance_residual(caps, 0.0, 1e-3, 1e-3, 1.5)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 3.0])
    def test_matches_simulate_timing(self, alpha):
        # The residual times 1.6/vdd is simulate's chain delay minus its latch
        # delay at zero mismatch. It can be near zero by design, so it is
        # compared on the scale of t_dm.
        config = ComparatorConfig(alpha=alpha)
        engine = ComparatorEngine(config)
        for corner in ("TT", "SS", "FF"):
            for vid in (50e-3, -50e-3):
                op = OperatingPoint(vid=vid, vcm=0.9, corner=CORNERS[corner], t_kelvin=350.0)
                r = engine.simulate(op)
                race = (r.t_esd - r.t1) - (r.t_dm - r.t0)
                residual = balance_residual_for(config, op) * 1.6 / config.vdd
                assert abs(residual - race) <= 1e-12 * r.t_dm, (corner, vid)


def brute_force_solve(alpha, x_max, y_max, step):
    """Every grid point (1 + i*step, 1 + j*step); the first minimum of |residual|
    wins. Row by row in numpy, with the floats and tie-break of the loop below."""
    best, best_err = None, math.inf
    ys = 1.0 + np.arange(round((y_max - 1.0) / step) + 1) * step
    for i in range(round((x_max - 1.0) / step) + 1):
        x = 1.0 + i * step
        errs = np.abs(x / 2.0 + alpha * ys / x - 2.0)
        j = int(np.argmin(errs))
        if errs[j] < best_err:
            best, best_err = (x, float(ys[j])), float(errs[j])
    return best, best_err


def brute_force_solve_loop(alpha, x_max, y_max, step):
    """The reference brute_force_solve must equal, one point at a time."""
    best, best_err = None, math.inf
    nx = round((x_max - 1.0) / step)
    ny = round((y_max - 1.0) / step)
    for i in range(nx + 1):
        x = 1.0 + i * step
        for j in range(ny + 1):
            y = 1.0 + j * step
            err = abs(x / 2.0 + alpha * y / x - 2.0)
            if err < best_err:
                best, best_err = (x, y), err
    return best, best_err


def full_scan_solve(alpha, x_max, y_max, grid_step):
    """Every (x, y) of the solver's grid with its strict-< tie-break: the exact oracle."""
    best, best_err = None, math.inf
    ys = _grid(1.0, y_max, grid_step)
    for x in _grid(1.0, x_max, grid_step):
        for y in ys:
            err = abs(x / 2.0 + alpha * y / x - 2.0)
            if err < best_err:
                best, best_err = (x, y), err
    return best


class TestSolver:
    def test_alpha_three_halves(self):
        v = solve_sizing(1.5)
        assert (v.x, v.y) == (1.0, 1.0)
        assert normalized_balance_residual(v) == 0.0

    def test_alpha_two(self):
        v = solve_sizing(2.0)
        assert (v.x, v.y) == (2.0, 1.0)
        assert normalized_balance_residual(v) == 0.0

    def test_alpha_one_zero_curve_endpoint(self):
        # for alpha <= 2 the zero set y = x(2 - x/2)/alpha is a curve in the
        # feasible box; the smallest-x tie-break picks its left endpoint
        v = solve_sizing(1.0)
        assert (v.x, v.y) == (1.0, 1.5)
        assert normalized_balance_residual(v) == 0.0
        # the y=1 slice roots x = 2 +/- sqrt(2) are also exact zeros
        root = 2.0 + math.sqrt(2.0)
        assert abs(root / 2.0 + 1.0 / root - 2.0) < 1e-12

    def test_tie_break_prefers_smallest(self):
        # alpha=1.5 has other exact zeros, e.g. (1.5, 1.25) and (3, 1);
        # (1, 1) must win by smallest x then smallest y
        assert normalized_balance_residual(SizingVars(1.5, 1.25, 1.5)) == 0.0
        assert normalized_balance_residual(SizingVars(3.0, 1.0, 1.5)) == 0.0
        assert (solve_sizing(1.5).x, solve_sizing(1.5).y) == (1.0, 1.0)

    @pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 2.0, 3.0])
    def test_matches_brute_force(self, alpha):
        v = solve_sizing(alpha, grid_step=0.01)
        (bx, by), berr = brute_force_solve(alpha, 4.0, 4.0, 0.01)
        assert abs(normalized_balance_residual(v)) <= berr + 1e-15
        # against a 10x finer oracle: within one coarse step
        (fx, fy), _ = brute_force_solve(alpha, 4.0, 4.0, 0.001)
        assert abs(v.x - fx) <= 0.01 + 1e-12
        assert abs(v.y - fy) <= 0.01 + 1e-12

    @pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 2.0, 3.0])
    def test_numpy_oracle_equals_loop(self, alpha):
        assert (brute_force_solve(alpha, 4.0, 4.0, 0.01)
                == brute_force_solve_loop(alpha, 4.0, 4.0, 0.01))

    @pytest.mark.parametrize("grid_step", [0.03, 0.007])
    @pytest.mark.parametrize("y_max", [1.0, 4.0])
    @pytest.mark.parametrize("alpha", [round(1.0 + 0.1 * k, 1) for k in range(11)] + [3.0, 8.0])
    def test_equals_full_scan(self, alpha, y_max, grid_step):
        v = solve_sizing(alpha, y_max=y_max, grid_step=grid_step)
        assert (v.x, v.y) == full_scan_solve(alpha, 4.0, y_max, grid_step)

    def test_bounds_respected(self):
        for alpha in (1.0, 1.7, 2.9):
            v = solve_sizing(alpha, x_max=3.0, y_max=2.0)
            assert 1.0 <= v.x <= 3.0 and 1.0 <= v.y <= 2.0

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            solve_sizing(1.5, x_max=0.5)
        with pytest.raises(ConfigError):
            solve_sizing(1.5, grid_step=0.0)
        with pytest.raises(ConfigError, match="alpha"):
            solve_sizing(0.0)


class TestWidthSweep:
    def test_preamp_scaling_rule(self):
        cfg = scaled_config(ComparatorConfig(), "preamp", 1.5e-6)
        assert cfg.geoms["Mp4"].w == 1.5e-6
        assert cfg.geoms["Mp5"].w == 1.5e-6
        assert cfg.geoms["Mp1"].w == 3.0e-6

    def test_preamp_trends(self):
        widths = [0.6e-6 + k * 0.2e-6 for k in range(10)]
        points = width_sweep("preamp", widths, OP0, ComparatorConfig())
        assert not any(p.failed for p in points)
        t = [p.t_dm for p in points]
        p_ = [p.power for p in points]
        assert all(a > b for a, b in zip(t, t[1:]))
        assert all(a < b for a, b in zip(p_, p_[1:]))

    def test_inv_n_delay_weakly_increasing(self):
        widths = [0.22e-6 + k * 0.11e-6 for k in range(7)]
        points = width_sweep("inv_n", widths, OP0, ComparatorConfig())
        t = [p.t_dm for p in points]
        assert all(a <= b for a, b in zip(t, t[1:]))
        assert t[0] < t[-1]

    def test_inv_both_scales_both_blocks(self):
        cfg = scaled_config(ComparatorConfig(), "inv_both", 0.44e-6)
        for name in ("Mni1", "Mni2", "Mni3", "Mni4", "Mpi1", "Mpi2", "Mpi3", "Mpi4"):
            assert cfg.geoms[name].w == 0.44e-6

    def test_bad_width_flagged_not_fatal(self):
        points = width_sweep("preamp", [1.2e-6, 0.1e-6], OP0, ComparatorConfig())
        assert not points[0].failed
        assert points[1].failed and math.isnan(points[1].t_dm)

    def test_unknown_target(self):
        with pytest.raises(ConfigError):
            scaled_config(ComparatorConfig(), "latch", 1e-6)


def latch_width_convention_ok(config: ComparatorConfig, rel_tol: float = 1e-9) -> bool:
    """The W_n6 = W_p8 = 2*W_n3 assumption behind the normalization."""
    w_n6, w_p8, w_n3 = (config.geoms[name].w for name in ("Mn6", "Mp8", "Mn3"))
    return (math.isclose(w_n6, w_p8, rel_tol=rel_tol)
            and math.isclose(w_n6, 2.0 * w_n3, rel_tol=rel_tol))


def test_latch_width_convention():
    assert latch_width_convention_ok(ComparatorConfig())
    geoms = ComparatorConfig().geoms
    geoms = dict(geoms)
    geoms["Mn3"] = replace(geoms["Mn3"], w=1.5e-6)
    geoms["Mn4"] = replace(geoms["Mn4"], w=1.5e-6)
    assert not latch_width_convention_ok(ComparatorConfig(geoms=geoms))
