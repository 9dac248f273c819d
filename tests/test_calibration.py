"""Offset measurement, the cancellation loop, and the Monte Carlo harness."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import offset_oracle
from dyncomp import calibration, devices
from dyncomp.calibration import (CalibrationConfig, cp_step, dac_output,
                                 measure_offset, monte_carlo, residual_bound,
                                 run_calibration)
from dyncomp.config import (RunConfig, build_calibration_config, build_comparator_config,
                            build_operating_point)
from dyncomp.devices import (ABETA_DEFAULT, AVT_DEFAULT, CORNERS, DEFAULT_NMOS, DEFAULT_PMOS,
                             ZERO_MISMATCH, DeviceParams, MismatchSample, beta,
                             default_geometry, sample_mismatch, threshold)
from dyncomp.engine import (BodyBias, ComparatorConfig, ComparatorEngine, DecisionKernel,
                            OperatingPoint, typical_op)
from dyncomp.errors import (BodyBiasError, ConfigError, NoDecisionError, OffsetSpanError,
                            SimulationError)

OP0 = OperatingPoint(vid=0.0, vcm=0.9, t_kelvin=300.0)


@pytest.fixture(scope="module")
def engine():
    return ComparatorEngine(ComparatorConfig())


def inject(offset_v):
    """Mismatch sample whose measured offset is the given flip point."""
    return MismatchSample({"Mp4": (offset_v, 0.0)})


class TestDacOutput:
    def test_default_ladder_fractions(self):
        cal = CalibrationConfig()
        fractions = [0.8, 2 / 3, 0.5, 1 / 3, 0.2, 1 / 9]
        for cycle, frac in enumerate(fractions, start=1):
            assert dac_output(cycle, cal, 1.8) == pytest.approx(1.8 * frac, rel=1e-12)

    def test_code_zero_is_vdd(self):
        assert dac_output(0, CalibrationConfig(), 1.8) == 1.8

    def test_equal_split(self):
        cal = CalibrationConfig(n_cycles=1, dac_caps=(100e-15,))
        assert dac_output(1, cal, 1.8) == pytest.approx(0.9, rel=1e-12)

    def test_strictly_decreasing(self):
        cal = CalibrationConfig()
        seq = [dac_output(k, cal, 1.8) for k in range(1, 7)]
        assert all(a > b for a, b in zip(seq, seq[1:]))

    def test_cycle_range(self):
        with pytest.raises(ConfigError):
            dac_output(7, CalibrationConfig(), 1.8)


class TestCpStep:
    def test_worked_value(self):
        cal = CalibrationConfig(cp_beta=50e-6, cp_vthn=0.45, cb=1e-12)
        step = cp_step(1.44, cal, 3e-9)
        assert step == pytest.approx(0.5 * 50e-6 * 0.99 ** 2 * 3e-9 / 1e-12, rel=1e-12)
        assert step == pytest.approx(73.5e-3, rel=1e-3)

    def test_cutoff(self):
        cal = CalibrationConfig(cp_beta=50e-6, cp_vthn=0.45)
        assert cp_step(0.45, cal, 3e-9) == 0.0
        assert cp_step(0.2, cal, 3e-9) == 0.0

    def test_monotone_in_daco(self):
        cal = CalibrationConfig()
        steps = [cp_step(d, cal, 3e-9) for d in (0.2, 0.6, 1.2, 1.44)]
        assert all(a < b for a, b in zip(steps, steps[1:]))

    def test_doubling_cb_halves_step(self):
        cal = CalibrationConfig()
        cal2 = replace(cal, cb=2 * cal.cb)
        assert cp_step(1.0, cal2, 3e-9) == cp_step(1.0, cal, 3e-9) / 2


class TestResidualBound:
    def test_formula(self):
        cfg = ComparatorConfig()
        cal = CalibrationConfig()
        final_step = cp_step(dac_output(6, cal, cfg.vdd), cal, 1.0 / cfg.freq)
        gain = 0.4 / (2 * math.sqrt(0.7))
        assert residual_bound(cal, cfg) == pytest.approx(final_step * gain, rel=1e-12)

    def test_zero_gamma_disables_calibration(self):
        pmos = DeviceParams("pmos", 150e-6, 0.45, gamma=0.0)
        cfg = ComparatorConfig(pmos=pmos)
        assert residual_bound(CalibrationConfig(), cfg) == 0.0

    def test_doubling_cb_halves_bound(self):
        cfg = ComparatorConfig()
        cal = CalibrationConfig()
        assert residual_bound(replace(cal, cb=2 * cal.cb), cfg) == \
            pytest.approx(residual_bound(cal, cfg) / 2, rel=1e-12)


class TestMeasureOffset:
    def test_zero_mismatch(self, engine):
        assert abs(measure_offset(engine, OP0)) <= 2 * 10e-6

    def test_injected_threshold_shift(self, engine):
        os = measure_offset(engine, OP0, inject(0.010))
        assert 8e-3 <= os <= 12e-3

    def test_sign_antisymmetry(self, engine):
        pos = measure_offset(engine, OP0, inject(0.010))
        neg = measure_offset(engine, OP0, inject(-0.010))
        assert abs(pos + neg) < 1e-4

    def test_brute_force_cross_check(self, engine):
        # independent oracle: scan vid at 0.1 mV resolution for the flip
        mm = inject(0.010)
        flip = None
        prev = engine.simulate(replace(OP0, vid=-50e-3), mm).decision
        v = -50e-3
        while v <= 50e-3:
            d = engine.simulate(replace(OP0, vid=v), mm).decision
            if d != prev:
                flip = v
                break
            v += 0.1e-3
        assert flip is not None
        assert abs(measure_offset(engine, OP0, mm) - flip) <= 0.1e-3

    def test_body_shift_moves_offset(self, engine):
        base = measure_offset(engine, OP0)
        shifted = measure_offset(engine, OP0, body=BodyBias(1.7, 1.8))
        # a forward-biased plus side leads at vid=0, so balancing the
        # comparator takes a positive differential input
        assert shifted > base + 1e-3

    @pytest.mark.parametrize("tol, span", [(math.nan, 0.1), (0.0, 0.1), (1e-5, math.nan),
                                           (1e-5, -0.1)])
    def test_tolerance_and_span_must_be_positive(self, engine, tol, span):
        # A NaN tolerance stopped every walk before its first step: offset 0.0.
        with pytest.raises(ConfigError, match="must be > 0"):
            measure_offset(engine, OP0, MismatchSample({"Mp4": (5e-3, 0.0)}), tol=tol, span=span)

    def test_span_error(self, engine):
        with pytest.raises(OffsetSpanError):
            measure_offset(engine, OP0, inject(0.200), span=0.1)

    def test_iteration_budget(self, engine, monkeypatch):
        # Each decision of the bisection costs at most one simulate.
        calls = []
        real = ComparatorEngine.simulate

        def counting(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(ComparatorEngine, "simulate", counting)
        measure_offset(engine, OP0, tol=10e-6, span=100e-3)
        # 2 endpoints + ceil(log2(0.2 / 1e-5)) = 15 bisection steps
        assert len(calls) <= 17


def straight_line_loop(config, mismatch, cal, op):
    """Independent re-implementation of the cancellation recurrence."""
    engine = ComparatorEngine(config)
    vdd = config.vdd
    t_period = cal.t_period if cal.t_period is not None else 1.0 / config.freq
    vcm_cal = cal.v_ref_input if cal.v_ref_input is not None else vdd / 2.0
    op_cal = replace(op, vid=0.0, vcm=vcm_cal)
    vb_plus, vb_minus = vdd, vdd
    history = []
    cycle = 0
    for _ in range(cal.n_phases):
        for tn in range(1, cal.n_cycles + 1):
            cycle += 1
            s = engine.simulate(op_cal, mismatch, BodyBias(vb_plus, vb_minus)).decision
            daco = vdd * cal.c0 / (cal.c0 + sum(cal.dac_caps[:tn]))
            ov = daco - cal.cp_vthn
            step = 0.5 * cal.cp_beta * ov * ov * t_period / cal.cb if ov > 0 else 0.0
            if s > 0:
                vb_plus = max(0.0, vb_plus - step)
            else:
                vb_minus = max(0.0, vb_minus - step)
            history.append((cycle, daco, step, s))
    return history, vb_plus, vb_minus


class TestRunCalibration:
    def test_positive_offset_discharges_vb_plus_first(self):
        # a slow plus-side device makes Vo+ end high at vid=0: S = +1
        cfg = ComparatorConfig()
        mm = MismatchSample({"Mp5": (0.010, 0.0)})
        result = run_calibration(cfg, mm, CalibrationConfig(), OP0)
        first = result.state.history[0]
        assert first[3] == +1
        assert result.state.vb_plus < cfg.vdd
        assert result.offset_before < 0  # flip-point convention

    def test_negative_offset_discharges_vb_minus_first(self):
        cfg = ComparatorConfig()
        result = run_calibration(cfg, inject(0.010), CalibrationConfig(), OP0)
        assert result.state.history[0][3] == -1
        assert result.state.vb_minus < cfg.vdd

    def test_sign_flip_switches_corrected_side(self):
        cfg = ComparatorConfig()
        result = run_calibration(cfg, inject(0.010), CalibrationConfig(), OP0)
        signs = [h[3] for h in result.state.history]
        assert signs[0] == -1 and +1 in signs  # the loop crosses the target
        # replay the body updates: each correction lands on the side named by
        # the decision, so a flipped decision moves the opposite body
        vb = {+1: cfg.vdd, -1: cfg.vdd}
        for _, _, step, s in result.state.history:
            vb[s] -= step
        assert vb[+1] == result.state.vb_plus
        assert vb[-1] == result.state.vb_minus
        assert vb[+1] < cfg.vdd and vb[-1] < cfg.vdd  # both sides were touched

    def test_history_matches_recurrence_oracle(self):
        cal = CalibrationConfig()
        for cfg, op in ((ComparatorConfig(), OP0),
                        (ComparatorConfig(vdd=2.0), replace(OP0, vcm=1.0))):
            for offset in (0.0, 0.004, -0.017, 0.031):
                mm = inject(offset)
                result = run_calibration(cfg, mm, cal, op)
                history, vb_plus, vb_minus = straight_line_loop(cfg, mm, cal, op)
                assert list(result.state.history) == history
                assert result.state.vb_plus == vb_plus
                assert result.state.vb_minus == vb_minus

    def test_zero_mismatch_dithers_within_one_lsb(self):
        cfg = ComparatorConfig()
        cal = CalibrationConfig()
        result = run_calibration(cfg, MismatchSample({}), cal, OP0)
        assert abs(result.offset_before) <= 2 * cal.tol_os
        # the final dither step bounds the residual up to the body-gain drift
        assert abs(result.offset_after) <= 1.3 * residual_bound(cal, cfg)

    def test_typical_offsets_converge(self):
        cfg = ComparatorConfig()
        cal = CalibrationConfig()
        for offset in (0.002, 0.005, -0.010, 0.012, 0.025, -0.030):
            result = run_calibration(cfg, inject(offset), cal, OP0)
            assert result.converged
            assert abs(result.offset_after) <= residual_bound(cal, cfg)
            assert abs(result.offset_after) < abs(result.offset_before)

    def test_offset_beyond_budget(self):
        cfg = ComparatorConfig()
        cal = CalibrationConfig()
        result = run_calibration(cfg, inject(0.080), cal, OP0)
        assert not result.converged
        assert abs(result.offset_after) > residual_bound(cal, cfg)
        assert abs(result.offset_after) < abs(result.offset_before)

    def test_bodies_never_increase_one_per_cycle(self):
        cfg = ComparatorConfig()
        result = run_calibration(cfg, inject(0.010), CalibrationConfig(), OP0)
        vb_p, vb_m = cfg.vdd, cfg.vdd
        for _, _, step, s in result.state.history:
            assert step > 0
            if s > 0:
                vb_p -= step
            else:
                vb_m -= step
        assert vb_p == pytest.approx(result.state.vb_plus, abs=0.0)
        assert vb_m == pytest.approx(result.state.vb_minus, abs=0.0)

    def test_daco_and_steps_monotone(self):
        cfg = ComparatorConfig()
        result = run_calibration(cfg, inject(0.010), CalibrationConfig(), OP0)
        dacos = [h[1] for h in result.state.history]
        steps = [h[2] for h in result.state.history]
        assert all(a > b for a, b in zip(dacos, dacos[1:]))
        assert all(a >= b for a, b in zip(steps, steps[1:]))

    def test_saturation_clamp(self):
        # a deep-body-range PMOS model keeps the threshold valid down to 0 V
        pmos = DeviceParams("pmos", 150e-6, 0.45, gamma=0.4, phi2f=4.0)
        cfg = ComparatorConfig(pmos=pmos)
        cal = CalibrationConfig(cp_beta=3e-3)  # huge steps
        result = run_calibration(cfg, inject(0.010), cal, OP0)
        assert result.saturated
        assert result.state.vb_minus == 0.0 or result.state.vb_plus == 0.0

    def test_multi_phase_keeps_descending(self):
        cfg = ComparatorConfig()
        cal = CalibrationConfig(n_phases=2)
        result = run_calibration(cfg, inject(0.010), cal, OP0)
        assert len(result.state.history) == 12
        dacos = [h[1] for h in result.state.history]
        assert dacos[6] == dacos[0]  # DAC re-precharged at the phase boundary


class TestMonteCarlo:
    def test_reproducible(self):
        cfg = ComparatorConfig()
        cal = CalibrationConfig()
        a = monte_carlo(40, 5, cfg, cal, calibrate=False)
        b = monte_carlo(40, 5, cfg, cal, calibrate=False)
        assert a == b

    def test_single_trial_degenerate(self):
        stats, _ = monte_carlo(1, 3, ComparatorConfig(), CalibrationConfig(),
                               calibrate=False)
        assert stats.n == 1 and stats.sigma == 0.0

    def test_zero_mismatch_model(self):
        stats, _ = monte_carlo(5, 3, ComparatorConfig(), CalibrationConfig(),
                               calibrate=False, avt=0.0, abeta=0.0)
        assert abs(stats.mean) <= 2 * 10e-6
        assert stats.sigma <= 2 * 10e-6

    def test_sigma_order_of_magnitude(self):
        stats, _ = monte_carlo(120, 2, ComparatorConfig(), CalibrationConfig(),
                               calibrate=False)
        pelgrom_pair = math.sqrt(2) * 5e-9 / math.sqrt(1.2e-6 * 0.18e-6)
        assert pelgrom_pair / 2 <= stats.sigma <= 2 * pelgrom_pair

    @pytest.mark.parametrize("corner, temp_c, vcm", [
        ("TT", 27.0, 0.9), ("SS", 27.0, 0.9), ("FF", 27.0, 0.9), ("TT", -40.0, 0.9),
        ("TT", 85.0, 0.9), ("TT", 27.0, 0.7), ("TT", 27.0, 1.1)])
    def test_sigma_is_the_first_order_pelgrom_sum(self, corner, temp_c, vcm):
        # The input-referred offset to first order in the mismatch (Pelgrom
        # et al., JSSC 1989), with its derivatives written out: 1 per volt of
        # an input device's threshold, half the overdrive A - vth_p per unit
        # of its relative beta, and (A - vth_p) / (2 vth_n) per volt of an
        # Mn3/Mn4 threshold, where A = vdd - vcm; each term once per device of
        # the pair. The Monte Carlo sigma must lie within 4 sampling errors of
        # it, and the mean within 4 standard errors of 0. No point here has a
        # span error, which would drop its trial from the statistics.
        n, vdd, t_kelvin = 20000, ComparatorConfig().vdd, temp_c + 273.15
        names, scales = devices.mismatch_scales(default_geometry().values())
        p, n3 = 2 * names.index("Mp4"), 2 * names.index("Mn3")
        sigma_vt_p, sigma_beta_p, sigma_vt_n = scales[p], scales[p + 1], scales[n3]
        vth_p, vth_n = (devices.apply_temperature(devices.apply_corner(params, CORNERS[corner]),
                                                  t_kelvin).vth0
                        for params in (DEFAULT_PMOS, DEFAULT_NMOS))
        overdrive = vdd - vcm - vth_p
        analytic = math.sqrt(2 * sigma_vt_p ** 2 + 2 * (overdrive / 2) ** 2 * sigma_beta_p ** 2
                             + 2 * (overdrive / (2 * vth_n)) ** 2 * sigma_vt_n ** 2)
        op = OperatingPoint(vid=0.0, vcm=vcm, corner=CORNERS[corner], t_kelvin=t_kelvin)
        stats, _ = monte_carlo(n, 1, ComparatorConfig(), CalibrationConfig(), calibrate=False,
                               op=op)
        assert stats.span_errors == 0
        assert abs(stats.sigma - analytic) <= 4 * stats.sigma / math.sqrt(2 * (n - 1))
        assert abs(stats.mean) <= 4 * stats.sigma / math.sqrt(n)

    def test_one_pass_matches_run_calibration(self):
        cfg, cal = ComparatorConfig(), CalibrationConfig()
        before, after = monte_carlo(8, 4, cfg, cal, calibrate=True)
        plain, none = monte_carlo(8, 4, cfg, cal, calibrate=False)
        assert before == plain and none is None
        geoms = list(cfg.geoms.values())
        results = [run_calibration(cfg, sample_mismatch(4, t, geoms), cal) for t in range(8)]
        offsets = np.asarray([r.offset_after for r in results])
        assert (after.mean, after.sigma) == (float(offsets.mean()), float(offsets.std(ddof=1)))
        assert before.mean == float(np.mean([r.offset_before for r in results]))

    def test_histogram_counts_match_trials(self):
        stats, _ = monte_carlo(60, 9, ComparatorConfig(), CalibrationConfig(),
                               calibrate=False)
        assert sum(stats.counts) == 60 - stats.span_errors

    def test_missing_tail_device_rejected(self):
        # The engine rejects the geometry set, so every entry point names the device.
        geoms = default_geometry()
        del geoms["Mp1"]
        cfg = ComparatorConfig(geoms=geoms)
        calls = [lambda: ComparatorEngine(cfg).simulate(OP0),
                 lambda: measure_offset(ComparatorEngine(cfg), OP0),
                 lambda: monte_carlo(5, 1, cfg, CalibrationConfig(), calibrate=True)]
        for call in calls:
            with pytest.raises(ConfigError, match="missing transistor 'Mp1'"):
                call()


def scalar_monte_carlo(n, seed, config, cal, calibrate, avt=AVT_DEFAULT, abeta=ABETA_DEFAULT):
    """Oracle: monte_carlo on offset_oracle's per-trial simulate loop."""
    args = (n, seed, ComparatorEngine(config), typical_op(config, vid=0.0), cal, calibrate,
            avt, abeta)
    before, after = offset_oracle.scalar_offsets(*args)
    return (calibration._offset_stats(n, before),
            calibration._offset_stats(n, after) if calibrate else None)


def batched_offsets(n, seed, config, cal, calibrate):
    """The kernel path alone, without the scalar fallback."""
    return calibration._batched_offsets(n, seed, ComparatorEngine(config),
                                        typical_op(config, vid=0.0), cal, calibrate,
                                        AVT_DEFAULT, ABETA_DEFAULT)


def numpy_histogram(offsets):
    """(edges, counts) of np.histogram over the offsets in 40 bins from their
    least to their greatest, widened by 1 uV each way where those are equal."""
    lo, hi = float(np.min(offsets)), float(np.max(offsets))
    if lo == hi:
        lo, hi = lo - 1e-6, hi + 1e-6
    counts, edges = np.histogram(offsets, bins=40, range=(lo, hi))
    return tuple(edges.tolist()), tuple(counts.tolist())


@settings(deadline=None, max_examples=300)
@given(n=st.integers(1, 600), seed=st.integers(0, 2**32 - 1), mean=st.floats(-0.1, 0.1),
       scale=st.floats(1e-9, 0.05), shape=st.sampled_from(["free", "repeats", "edges", "equal"]))
@example(n=1, seed=0, mean=0.0, scale=1e-3, shape="free")
@example(n=600, seed=1, mean=1e-3, scale=1e-3, shape="edges")
@example(n=7, seed=2, mean=-0.05, scale=1e-3, shape="equal")
@example(n=2, seed=3, mean=1e11, scale=1e-3, shape="equal")  # 1 uV rounds away at 1e11 V
def test_offset_stats_is_numpys_histogram(n, seed, mean, scale, shape):
    # _offset_stats counts its bins by searchsorted on np.histogram's edges.
    # It must give np.histogram's counts and edges, and numpy's mean and
    # sigma, on offsets with repeats, on the computed bin edges and all equal.
    rng = np.random.default_rng(seed)
    offsets = mean + scale * rng.standard_normal(n)
    if shape == "repeats":
        offsets = rng.choice(offsets[:max(1, n // 10)], n)
    if shape == "edges":  # about half on the edges, keeping the least and the greatest
        keep = rng.random(n) < 0.5
        keep[[offsets.argmin(), offsets.argmax()]] = True
        edges = np.linspace(offsets.min(), offsets.max(), 41)
        offsets = np.where(keep, offsets, rng.choice(edges, n))
    if shape == "equal":
        offsets = np.full(n, offsets[0])
    stats = calibration._offset_stats(n + 3, offsets.tolist())
    assert (stats.bin_edges, stats.counts) == numpy_histogram(offsets)
    assert (stats.n, stats.span_errors) == (n + 3, 3)
    assert stats.mean == float(np.mean(offsets))
    assert stats.sigma == (float(np.std(offsets, ddof=1)) if n > 1 else 0.0)


class TestBatchedMonteCarlo:
    @pytest.mark.parametrize("n, seed, cal", [
        (500, 1, CalibrationConfig()), (500, 7, CalibrationConfig()),
        (500, 9001, CalibrationConfig()), (500, 1001, CalibrationConfig()),
        (500, 1, CalibrationConfig(n_phases=2, cb=2e-12)),
        (300, 3, CalibrationConfig(span=0.03)),
    ])
    def test_equals_scalar_loop(self, n, seed, cal, cfg=ComparatorConfig()):
        before, after = scalar_monte_carlo(n, seed, cfg, cal, calibrate=True)
        assert monte_carlo(n, seed, cfg, cal, calibrate=True) == (before, after)
        assert monte_carlo(n, seed, cfg, cal, calibrate=False) == (before, None)
        kernel_before, kernel_after = batched_offsets(n, seed, cfg, cal, calibrate=True)
        assert calibration._offset_stats(n, kernel_before) == before
        assert calibration._offset_stats(n, kernel_after) == after
        if cal.span == 0.03:
            assert before.span_errors == after.span_errors == 36

    def test_equals_scalar_loop_at_another_supply(self):
        # At vdd = 2.0 V the operating point's vcm is vdd/2 = 1.0 V.
        self.test_equals_scalar_loop(200, 1, CalibrationConfig(), ComparatorConfig(vdd=2.0))

    def test_saturated_bodies_equal_scalar_loop(self):
        # phi2f = 2 V keeps the threshold model valid down to vb = 0, so with
        # steps of about 2 V every trial clamps a body at ground, no error.
        cfg = ComparatorConfig(pmos=replace(DEFAULT_PMOS, phi2f=2.0))
        cal = CalibrationConfig(cb=5e-14)
        assert run_calibration(cfg, sample_mismatch(5, 0, cfg.geoms.values()), cal).saturated
        before, after = scalar_monte_carlo(40, 5, cfg, cal, calibrate=True)
        kernel_before, kernel_after = batched_offsets(40, 5, cfg, cal, calibrate=True)
        assert calibration._offset_stats(40, kernel_before) == before
        assert calibration._offset_stats(40, kernel_after) == after

    @pytest.mark.parametrize("config, cal, calibrate, seed, error", [
        # t0 > window at 100 GHz: no decision in the first trial's first point
        (ComparatorConfig(freq=1e11), CalibrationConfig(), False, 2, NoDecisionError),
        # near 56 GHz t0 and the window cross per trial: the offset
        # measurement raises in trials 2, 13, 18 and 21 of seed 5, and only
        # in trial 27 of seed 4
        (ComparatorConfig(freq=5.62e10), CalibrationConfig(), False, 5, NoDecisionError),
        (ComparatorConfig(freq=5.62e10), CalibrationConfig(), True, 4, NoDecisionError),
        # steps of about 0.9 V push a body voltage past phi2f
        (ComparatorConfig(), CalibrationConfig(cb=1e-13), True, 2, BodyBiasError),
        # the -2 mV/K drift takes an nmos vth0 of 0.2 mV below 0 at 27 C: no
        # trial is exact and the first probe raises the parameters' error
        (ComparatorConfig(nmos=replace(DEFAULT_NMOS, vth0=2e-4)), CalibrationConfig(), True, 1,
         ConfigError),
        # the same with the operating point out of range, |vid| = span >= vdd:
        # simulate's vid message comes first
        (ComparatorConfig(nmos=replace(DEFAULT_NMOS, vth0=2e-4)), CalibrationConfig(span=2.0),
         True, 1, ConfigError),
    ])
    def test_errors_match_scalar_loop(self, config, cal, calibrate, seed, error):
        with pytest.raises(error) as scalar:
            scalar_monte_carlo(30, seed, config, cal, calibrate)
        with pytest.raises(error) as batched:
            monte_carlo(30, seed, config, cal, calibrate)
        assert type(batched.value) is type(scalar.value)
        assert str(batched.value) == str(scalar.value)
        with pytest.raises(error):
            batched_offsets(30, seed, config, cal, calibrate)

    def test_in_band_points_take_one_grid_call_per_step(self, monkeypatch):
        # At zero mismatch every trial's flip point is 0.0, so the bisection's
        # first midpoint and the first cycle's input are in band for every
        # trial: each such step runs its trials in one simulate_grid call,
        # and no step calls simulate. The oracle runs simulate, so it runs first.
        cfg, cal = ComparatorConfig(), CalibrationConfig()
        expected = scalar_monte_carlo(6, 3, cfg, cal, True, avt=0.0, abeta=0.0)
        steps = []
        grid, plus = calibration.simulate_grid, calibration._Batch.plus

        def counting_grid(engine, vid, *args, **kwargs):
            steps[-1].append(len(vid))
            return grid(engine, vid, *args, **kwargs)

        def counting_plus(self, *args):
            steps.append([])
            return plus(self, *args)

        monkeypatch.setattr(calibration, "simulate_grid", counting_grid)
        monkeypatch.setattr(calibration._Batch, "plus", counting_plus)
        simulates = []
        monkeypatch.setattr(ComparatorEngine, "simulate", lambda *args: simulates.append(args))
        result = monte_carlo(6, 3, cfg, cal, calibrate=True, avt=0.0, abeta=0.0)
        assert simulates == []
        assert max(map(len, steps)) == 1
        assert [6] in steps and sum(map(sum, steps)) > 6
        assert result == expected

    def test_benchmark_calls_take_one_walk_and_no_grid_call(self, monkeypatch):
        # The calibrated Monte Carlo and single calibration at the default
        # point: every trial's flip point is exact, so no step runs
        # simulate_grid and each bisection is one walk, with no second walk
        # on plus. Seeds and trials as the benchmark's mc and calibrate calls.
        cfg = RunConfig()
        config, cal = build_comparator_config(cfg), build_calibration_config(cfg)
        op = build_operating_point(cfg, vid=0.0)
        grids, walks = [], []
        grid, walk = calibration.simulate_grid, calibration._Batch.walk
        monkeypatch.setattr(calibration, "simulate_grid",
                            lambda *args, **kwargs: grids.append(1) or grid(*args, **kwargs))

        def counting_walk(self, *args):
            walks.append(1)
            return walk(self, *args)

        monkeypatch.setattr(calibration._Batch, "walk", counting_walk)
        for seed in (1001, 1002, 1003):
            monte_carlo(500, seed, config, cal, calibrate=True, op=op)
        for trial in range(24):
            run_calibration(config, sample_mismatch(cfg.seed, trial, config.geoms.values()),
                            cal, op)
        assert (len(grids), len(walks)) == (0, 3 + 24)

    def test_error_path_draws_no_sample(self, monkeypatch):
        # A raising trial runs simulate on the batch's own mismatch columns;
        # nothing draws the trial again.
        drawn = []

        def counting(*args, **kwargs):
            drawn.append(args[:2])
            return sample_mismatch(*args, **kwargs)

        monkeypatch.setattr(devices, "sample_mismatch", counting)
        monkeypatch.setattr(calibration, "sample_mismatch", counting, raising=False)
        with pytest.raises(NoDecisionError):
            monte_carlo(30, 5, ComparatorConfig(freq=5.62e10), CalibrationConfig(), True)
        assert drawn == []

    def test_every_trial_out_of_span(self):
        cal = CalibrationConfig(span=1e-4)
        with pytest.raises(OffsetSpanError, match="every trial"):
            scalar_monte_carlo(20, 2, ComparatorConfig(), cal, calibrate=False)
        with pytest.raises(OffsetSpanError, match="every trial"):
            monte_carlo(20, 2, ComparatorConfig(), cal, calibrate=False)

    def test_lowest_trial_raising_after_calibration_wins(self):
        # At 50 GHz trial 1's slow latch sense devices leave no decision
        # near its flip point: its first bisection raises. Trial 0 measures
        # its offset, but one charge-pump step of about 0.9 V pushes a body
        # past the threshold model, so only its second bisection raises.
        # The batch finds trial 1's error first and must raise trial 0's.
        config = ComparatorConfig(freq=5e10)
        cal = CalibrationConfig(n_cycles=1, t_period=3e-9, cb=1e-13)
        engine, op = ComparatorEngine(config), typical_op(config, vid=0.0)
        trials = [MismatchSample({"Mp4": (5e-3, 0.0)}),
                  MismatchSample({"Mn3": (0.1, 0.0), "Mn4": (0.1, 0.0)})]
        measure = lambda trial: offset_oracle.measure_offset(engine, op, trial, tol=cal.tol_os,
                                                            span=cal.span)
        assert abs(measure(trials[0]) - 5e-3) <= cal.tol_os
        with pytest.raises(NoDecisionError):
            measure(trials[1])
        with pytest.raises(BodyBiasError) as scalar:
            offset_oracle.run_calibration(config, trials[0], cal, op)
        columns = {name: (np.array([t.delta_vth(name) for t in trials]),
                          np.array([t.delta_beta(name) for t in trials]))
                   for name in DecisionKernel.DEVICES}
        batch = calibration._Batch(engine, op, columns, 2, None, cal.tol_os, cal.span)
        with pytest.raises(BodyBiasError) as batched:
            batch.run(cal)
        assert str(batched.value) == str(scalar.value)


    def test_grid_call_keeps_the_lowest_key(self):
        # Rows are keyed 3*trial + stage (0 before, 1 cycles, 2 after). In one
        # grid call the second row, trial 2 after calibration, has the lower
        # key: its error is kept and only its row stops. Then a row keyed
        # above that fault does not run, and one keyed below replaces it.
        engine = ComparatorEngine(ComparatorConfig())
        columns = {name: (np.zeros(6), np.zeros(6)) for name in DecisionKernel.DEVICES}
        batch = calibration._Batch(engine, OP0, columns, 6, None, 1e-5, 0.1)
        whole_line = (np.full(2, -np.inf), np.full(2, np.inf))

        def probe(keys, vb_minus, vb_plus):
            active = np.ones(2, dtype=bool)
            batch.plus(np.array(keys), np.zeros(2), OP0.vcm, np.array([vb_minus, vb_plus]),
                       whole_line, active)
            return active.tolist(), batch.fault[0], str(batch.fault[1])

        def message(vb_minus, vb_plus):
            return str(outcome(lambda: engine.simulate(OP0, body=BodyBias(vb_plus, vb_minus)))[1])

        assert probe([15, 8], [1.9, 1.8], [1.8, 2.0]) == ([True, False], 8, message(1.8, 2.0))
        assert probe([15, 9], [1.9, 1.7], [1.8, 1.8]) == ([True, True], 8, message(1.8, 2.0))
        assert probe([15, 7], [1.9, 1.8], [1.8, 2.1]) == ([True, False], 7, message(1.8, 2.1))


# Settings where trials raise: near 56 GHz t0 and the window cross per trial,
# so a bisection or a cycle runs out of time near the flip point; small body
# capacitors (with the 333 MHz clock's period for the charge pump) make
# steps that push a body past the threshold model during or after the cycles.
# A cycle common mode other than the operating point's lets a trial raise in
# its cycles and later, elsewhere, in its bisection before calibration.
@settings(deadline=None, max_examples=80)
@given(n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
       freq=st.one_of(st.just(ComparatorConfig.freq), st.floats(5.55e10, 5.7e10)),
       cb=st.sampled_from([1e-12, 2e-13, 1e-13, 5e-14]), t_period=st.sampled_from([None, 3e-9]),
       v_ref_input=st.sampled_from([None, 0.85, 0.95]), calibrate=st.booleans())
@example(n=8, seed=288847593, freq=56996750934.31044, cb=5e-14, t_period=3e-9,
         v_ref_input=0.95, calibrate=True)
def test_fault_order_equals_scalar_loop(n, seed, freq, cb, t_period, v_ref_input, calibrate):
    # The merged bisection raises the scalar loop's error: that of the lowest
    # raising trial, at its first raising point in the order before, cycles,
    # after; or both give the same statistics.
    config = ComparatorConfig(freq=freq)
    cal = CalibrationConfig(cb=cb, t_period=t_period, v_ref_input=v_ref_input)
    expected = outcome(lambda: scalar_monte_carlo(n, seed, config, cal, calibrate))
    assert outcome(lambda: monte_carlo(n, seed, config, cal, calibrate)) == expected


def flip_point(engine, op, mismatch, body):
    """Closed-form offset: the vid where both preamp ramps reach their latch
    thresholds together. With A = vdd - vcm, input thresholds vth-/vth+ and
    k = sqrt(beta / vth_sense) per side, the ramps tie where
    k-(A + vid/2 - vth-) = k+(A - vid/2 - vth+), so
    vid* = 2 (k+ (A - vth+) - k- (A - vth-)) / (k- + k+). The tail clamp
    scales both currents alike and leaves the tie in place."""
    vdd = engine.config.vdd
    nparams, pparams = engine.params_at(op)
    geoms = engine.config.geoms

    def side(mp, mn, vb):
        vth = threshold(pparams, vb - vdd, mismatch.delta_vth(mp))
        b = beta(geoms[mp], pparams) * (1.0 + mismatch.delta_beta(mp))
        return vth, math.sqrt(b / threshold(nparams, 0.0, mismatch.delta_vth(mn)))

    vth_minus, k_minus = side("Mp4", "Mn3", body.vb_minus)
    vth_plus, k_plus = side("Mp5", "Mn4", body.vb_plus)
    a = vdd - op.vcm
    return 2.0 * (k_plus * (a - vth_plus) - k_minus * (a - vth_minus)) / (k_minus + k_plus)


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32), trial=st.integers(0, 10**6),
       vb_plus=st.floats(1.6, 1.8), vb_minus=st.floats(1.6, 1.8))
def test_bisection_finds_closed_form_flip_point(seed, trial, vb_plus, vb_minus):
    engine = ComparatorEngine(ComparatorConfig())
    mismatch = sample_mismatch(seed, trial, engine.config.geoms.values())
    body = BodyBias(vb_plus, vb_minus)
    expected = flip_point(engine, OP0, mismatch, body)
    assume(abs(expected) < 0.09)
    tol = CalibrationConfig().tol_os
    assert abs(measure_offset(engine, OP0, mismatch, body, tol=tol) - expected) <= tol


# Device pairs that trade places when the circuit is mirrored.
MIRROR = (("Mp4", "Mp5"), ("Mn3", "Mn4"), ("Mni2", "Mni3"), ("Mpi1", "Mpi4"))


@settings(deadline=None, max_examples=100)
@given(deviations=st.fixed_dictionaries({name: st.tuples(st.floats(-0.05, 0.05), st.floats(-0.3, 0.3))
                                         for name in ("Mp1",) + sum(MIRROR, ())}))
def test_mirrored_mismatch_flips_offset(deviations):
    engine = ComparatorEngine(ComparatorConfig())
    swapped = dict(deviations)
    for a, b in MIRROR:
        swapped[a], swapped[b] = deviations[b], deviations[a]
    tol = CalibrationConfig().tol_os

    def offset(deltas):
        try:
            return measure_offset(engine, OP0, MismatchSample(deltas), tol=tol)
        except SimulationError as exc:
            return type(exc)

    measured, mirrored = offset(deviations), offset(swapped)
    if isinstance(measured, float) and isinstance(mirrored, float):
        # Both bisections end within tol; a tie, which is broken the same way
        # on both sides, can cost one more bisection step (at most tol).
        assert abs(measured + mirrored) <= 2 * tol
    else:
        assert measured == mirrored


def outcome(call):
    """A call's value, or the type and text of the error it raises."""
    try:
        return call()
    except (SimulationError, ConfigError) as exc:
        return type(exc), str(exc)


def calibration_outcome(call):
    """run_calibration's fields that the oracle also gives, or its error."""
    result = outcome(call)
    if not isinstance(result, calibration.CalibrationResult):
        return result
    return (result.offset_before, result.offset_after, result.state.vb_plus,
            result.state.vb_minus, result.state.history, result.saturated, result.converged)


# Small deviations keep most offsets inside the span; large ones push an
# overdrive or a latch threshold to zero or below.
KERNEL_DEVIATION = st.tuples(st.one_of(st.floats(-0.03, 0.03), st.floats(-0.6, 0.6)),
                             st.floats(-0.5, 0.5))


@settings(deadline=None, max_examples=200)
@given(deviations=st.fixed_dictionaries({name: KERNEL_DEVIATION
                                         for name in DecisionKernel.DEVICES}),
       vdd=st.floats(1.2, 2.2), vcm=st.floats(0.0, 1.0), corner=st.sampled_from(sorted(CORNERS)),
       temp_c=st.floats(-55.0, 300.0), vb_plus=st.floats(0.5, 1.0), vb_minus=st.floats(0.5, 1.0),
       tie_break=st.sampled_from([1, -1]), cb=st.sampled_from([1e-12, 2e-13, 5e-14]),
       phases=st.integers(1, 2))
def test_one_trial_equals_simulate_oracle(deviations, vdd, vcm, corner, temp_c, vb_plus,
                                          vb_minus, tie_break, cb, phases):
    # One trial on the flip-point path against one simulate per decision:
    # the same offsets, body voltages, history and flags, or the same error.
    config = ComparatorConfig(vdd=vdd, tie_break=tie_break)
    engine = ComparatorEngine(config)
    op = OperatingPoint(vid=0.0, vcm=vcm * vdd, corner=CORNERS[corner], t_kelvin=temp_c + 273.15)
    mismatch = MismatchSample(deviations)
    body = BodyBias(vb_plus * vdd, vb_minus * vdd)
    assert outcome(lambda: measure_offset(engine, op, mismatch, body)) == \
        outcome(lambda: offset_oracle.measure_offset(engine, op, mismatch, body))
    cal = CalibrationConfig(cb=cb, n_phases=phases)
    assert calibration_outcome(lambda: run_calibration(config, mismatch, cal, op)) == \
        calibration_outcome(lambda: offset_oracle.run_calibration(config, mismatch, cal, op))


@pytest.mark.parametrize("tie_break", [1, -1])
def test_exact_tie_takes_the_kernel(tie_break):
    # At zero mismatch the flip point is exactly 0.0, the bisection's first
    # midpoint is exactly 0.0 and the first cycle's input is 0.0: each is a
    # tie that simulate breaks by tie_break, so each must be decided in the
    # guard band.
    config = ComparatorConfig(tie_break=tie_break)
    engine = ComparatorEngine(config)
    cal = CalibrationConfig()
    assert measure_offset(engine, OP0) == offset_oracle.measure_offset(engine, OP0)
    assert (measure_offset(engine, OP0) > 0) == (tie_break < 0)
    result = run_calibration(config, ZERO_MISMATCH, cal, OP0)
    oracle = offset_oracle.run_calibration(config, ZERO_MISMATCH, cal, OP0)
    assert result.state.history == oracle.state.history
    assert result.state.history[0][3] == tie_break
    assert (result.offset_before, result.offset_after) == \
        (oracle.offset_before, oracle.offset_after)
    vb = np.full((2, 1), config.vdd)
    columns = {name: (np.zeros(1), np.zeros(1)) for name in DecisionKernel.DEVICES}
    flip, band, exact = DecisionKernel(engine, OP0, columns).flip_point(np.arange(1), OP0.vcm, vb)
    assert (flip[0], bool(exact[0])) == (0.0, True) and band[0] > 0.0
    assert 0.5 * (-cal.span + cal.span) == 0.0
