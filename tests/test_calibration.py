"""Offset measurement, the cancellation loop, and the Monte Carlo harness."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import offset_oracle
from dyncomp import calibration, devices
from dyncomp.calibration import (CalibrationConfig, cp_step, dac_output,
                                 measure_offset, monte_carlo, residual_bound,
                                 run_calibration)
from dyncomp.devices import (ABETA_DEFAULT, AVT_DEFAULT, CORNERS, DEFAULT_PMOS, ZERO_MISMATCH,
                             DeviceParams, MismatchSample, beta, default_geometry,
                             sample_mismatch, threshold)
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
        cfg = ComparatorConfig()
        cal = CalibrationConfig()
        for offset in (0.0, 0.004, -0.017, 0.031):
            mm = inject(offset)
            result = run_calibration(cfg, mm, cal, OP0)
            history, vb_plus, vb_minus = straight_line_loop(cfg, mm, cal, OP0)
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


class TestBatchedMonteCarlo:
    @pytest.mark.parametrize("n, seed, cal", [
        (500, 1, CalibrationConfig()), (500, 7, CalibrationConfig()),
        (500, 9001, CalibrationConfig()), (500, 1001, CalibrationConfig()),
        (500, 1, CalibrationConfig(n_phases=2, cb=2e-12)),
        (300, 3, CalibrationConfig(span=0.03)),
    ])
    def test_equals_scalar_loop(self, n, seed, cal):
        cfg = ComparatorConfig()
        before, after = scalar_monte_carlo(n, seed, cfg, cal, calibrate=True)
        assert monte_carlo(n, seed, cfg, cal, calibrate=True) == (before, after)
        assert monte_carlo(n, seed, cfg, cal, calibrate=False) == (before, None)
        kernel_before, kernel_after = batched_offsets(n, seed, cfg, cal, calibrate=True)
        assert calibration._offset_stats(n, kernel_before) == before
        assert calibration._offset_stats(n, kernel_after) == after
        if cal.span == 0.03:
            assert before.span_errors == after.span_errors == 36

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


def flip_point(engine, op, mismatch, body):
    """Closed-form offset: the vid where both preamp ramps reach their latch
    thresholds together. With A = vdd - vcm, input thresholds vth-/vth+ and
    k = sqrt(beta / vth_sense) per side, the ramps tie where
    k-(A + vid/2 - vth-) = k+(A - vid/2 - vth+), so
    vid* = 2 (k+ (A - vth+) - k- (A - vth-)) / (k- + k+). The tail clamp
    scales both currents alike and leaves the tie in place."""
    vdd = engine.supply(op)
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
    vdd = np.full(1, config.vdd)
    columns = {name: (np.zeros(1), np.zeros(1)) for name in DecisionKernel.DEVICES}
    flip, band, exact = DecisionKernel(engine, OP0, columns).flip_point(np.arange(1), OP0.vcm,
                                                                        vdd, vdd)
    assert (flip[0], bool(exact[0])) == (0.0, True) and band[0] > 0.0
    assert 0.5 * (-cal.span + cal.span) == 0.0
