"""Comparator engine: node caps, currents, timing, full-cycle simulation."""
import math
from contextlib import suppress
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import offset_oracle
from dyncomp import engine as engine_module
from dyncomp.calibration import CalibrationConfig, measure_offset, monte_carlo, run_calibration
from dyncomp.devices import (CORNERS, DEFAULT_NMOS, MIN_LENGTH, ZERO_MISMATCH, DeviceParams,
                             MismatchSample, TransistorGeom, default_geometry, sample_mismatch)
from dyncomp.engine import (BodyBias, ComparatorConfig, ComparatorEngine, DecisionKernel,
                            OperatingPoint, typical_op)
from dyncomp.errors import ConfigError, NoDecisionError, SimulationError

# Reference temperature keeps the worked numbers free of temperature factors.
OP0 = OperatingPoint(vid=50e-3, vcm=0.9, t_kelvin=300.0)


@pytest.fixture(scope="module")
def engine():
    return ComparatorEngine(ComparatorConfig())


def rel_err(a, b):
    return abs(a - b) / abs(b)


# A (delta_vth, delta_beta) mismatch deviation of one device.
DEVIATION = st.tuples(st.floats(-0.05, 0.05), st.floats(-0.3, 0.3))
# Device pairs that trade places when the circuit is mirrored.
MIRROR = (("Mp4", "Mp5"), ("Mn3", "Mn4"), ("Mni2", "Mni3"), ("Mpi1", "Mpi4"))


def tail_current(engine, op, mismatch=ZERO_MISMATCH):
    """Mp1's square-law current less the switch derating at op's corner and
    temperature, written out here rather than taken from the engine."""
    cfg, pmos, g = engine.config, engine.params_at(op)[1], engine.config.geoms["Mp1"]
    ov = max(0.0, cfg.vdd - (pmos.vth0 + mismatch.delta_vth("Mp1")))
    beta = pmos.mu_cox * g.w / g.l * (1 + mismatch.delta_beta("Mp1"))
    return 0.5 * beta * ov ** 2 * (1 - cfg.tail_derating)


def pair_currents(engine, op, vth_minus, vth_plus, mismatch=ZERO_MISMATCH):
    """The input pair's square-law currents (I_minus, I_plus) at op's corner and
    temperature before the tail clamp, written out here rather than taken
    from the engine."""
    cfg, pmos, g = engine.config, engine.params_at(op)[1], engine.config.geoms["Mp4"]
    ov = (cfg.vdd - (op.vcm - op.vid / 2.0) - vth_minus,
          cfg.vdd - (op.vcm + op.vid / 2.0) - vth_plus)
    betas = (pmos.mu_cox * g.w / g.l * (1 + mismatch.delta_beta(name)) for name in ("Mp4", "Mp5"))
    return tuple(0.5 * b * max(0.0, x) ** 2 for b, x in zip(betas, ov))


class TestNodeCaps:
    def test_default_values(self, engine):
        caps = engine.node_caps()
        cox = 8.5e-3
        assert rel_err(caps.c_out, cox * (1e-6 + 0.22e-6) * 0.18e-6) < 1e-12
        assert rel_err(caps.c_pi, cox * 0.22e-6 * 0.18e-6) < 1e-12
        assert rel_err(caps.c_p3, cox * 0.35e-6 * 0.18e-6) < 1e-12
        assert rel_err(caps.c_latch, cox * (2e-6 + 2e-6) * 0.18e-6) < 1e-12

    def test_extra_load_additive(self, engine):
        extra = {"out": 1e-15, "pi": 1e-15, "p3": 1e-15, "latch": 1e-15}
        caps2 = ComparatorEngine(ComparatorConfig(extra_load=extra)).node_caps()
        caps = engine.node_caps()
        assert caps2.c_out == caps.c_out + 1e-15
        assert caps2.c_pi == caps.c_pi + 1e-15
        assert caps2.c_p3 == caps.c_p3 + 1e-15
        assert caps2.c_latch == caps.c_latch + 1e-15

    def test_structural_independence(self, engine):
        geoms = default_geometry()
        for name in ("Mni2", "Mni3"):
            geoms[name] = replace(geoms[name], w=0.44e-6)
        caps2 = ComparatorEngine(ComparatorConfig(geoms=geoms)).node_caps()
        caps = engine.node_caps()
        assert caps2.c_out > caps.c_out
        assert caps2.c_latch == caps.c_latch

    def test_missing_transistor(self):
        geoms = default_geometry()
        del geoms["Mn3"]
        with pytest.raises(ConfigError, match="Mn3"):
            ComparatorEngine(ComparatorConfig(geoms=geoms))

    def test_asymmetric_pair_rejected(self):
        geoms = default_geometry()
        geoms["Mp4"] = replace(geoms["Mp4"], w=1.4e-6)
        with pytest.raises(ConfigError, match="Mp4"):
            ComparatorEngine(ComparatorConfig(geoms=geoms))


class TestCurrents:
    def test_tail_value_before_derating(self):
        eng = ComparatorEngine(ComparatorConfig(tail_derating=0.0))
        expected = 0.5 * (150e-6 * 2e-6 / 0.18e-6) * (1.8 - 0.45) ** 2
        assert rel_err(tail_current(eng, OP0), expected) < 1e-12
        assert rel_err(eng.simulate(OP0).i_tail, expected) < 1e-12

    def test_derating_scales_tail(self, engine):
        base = ComparatorEngine(ComparatorConfig(tail_derating=0.0)).simulate(OP0).i_tail
        assert engine.simulate(OP0).i_tail == base * 0.98

    def test_cutoff_when_supply_below_threshold(self):
        op = OperatingPoint(vid=0.0, vcm=0.2, t_kelvin=300.0)
        eng = ComparatorEngine(ComparatorConfig(vdd=0.4))
        pmos = eng.params_at(op)[1]
        assert tail_current(eng, op) == 0.0
        assert engine_module.tail_current(eng.config, 0.4, pmos.vth0, pmos.mu_cox, {}) == 0.0

    def test_shutdown_flag_does_not_change_tail(self, engine):
        other = ComparatorEngine(ComparatorConfig(early_shutdown_enabled=False))
        assert engine.simulate(OP0).i_tail == other.simulate(OP0).i_tail

    def test_symmetric_at_zero_input(self, engine):
        op = replace(OP0, vid=0.0)
        i_minus, i_plus = pair_currents(engine, op, 0.45, 0.45)
        assert i_minus == i_plus
        # equal currents cross together: the tie-break decides
        for tie_break in (1, -1):
            assert ComparatorEngine(ComparatorConfig(tie_break=tie_break)).simulate(op).decision \
                == tie_break

    def test_vi_minus_side_leads_for_positive_vid(self, engine):
        i_minus, i_plus = pair_currents(engine, OP0, 0.45, 0.45)
        assert i_minus > i_plus
        assert rel_err(engine.simulate(OP0).t0, 0.45 * engine.node_caps().c_out / i_minus) < 1e-12

    def test_cutoff_clamp(self, engine):
        op = OperatingPoint(vid=0.2, vcm=1.3, t_kelvin=300.0)
        i_minus, i_plus = pair_currents(engine, op, 0.45, 0.45)
        # lagging gate at 1.4 V leaves no overdrive
        assert i_plus == 0.0
        assert i_minus > 0.0
        r = engine.simulate(op)
        assert r.decision == 1
        assert rel_err(r.t0, 0.45 * engine.node_caps().c_out / i_minus) < 1e-12

    def test_tail_limits_total(self, engine):
        op = OperatingPoint(vid=50e-3, vcm=0.05, t_kelvin=300.0)
        i_minus, i_plus = pair_currents(engine, op, 0.45, 0.45)
        i_tail = tail_current(engine, op)
        assert i_minus + i_plus > i_tail
        # the leading side carries its share of the tail current
        clamped = i_minus * i_tail / (i_minus + i_plus)
        assert rel_err(engine.simulate(op).t0, 0.45 * engine.node_caps().c_out / clamped) < 1e-12


# Worked stage delays at OP0 (default geometry, TT, 300 K) from literal arithmetic.
T1_OP0 = 2 * 0.45 * (8.5e-3 * 1.22e-6 * 0.18e-6) / ((150e-6 * 1.2e-6 / 0.18e-6)
                                                  * (1.8 - 0.875 - 0.45) ** 2)
INVN_OP0 = 1.6 * (8.5e-3 * 0.22e-6 * 0.18e-6) / ((300e-6 * 0.22 / 0.18) * 1.8)
INVP_PER_ALPHA = 1.6 * (8.5e-3 * 0.35e-6 * 0.18e-6) / ((150e-6 * 0.22 / 0.18) * 1.8)
LATCH_OP0 = 1.6 * (8.5e-3 * 4e-6 * 0.18e-6) / ((300e-6 * 1 / 0.18) * 1.8)
# The tail current at OP0 and the supply energy of each subcircuit, with
# the tail cut at t_esd and the buffer chains charged on both sides.
I_TAIL_OP0 = 0.5 * (150e-6 * 2e-6 / 0.18e-6) * (1.8 - 0.45) ** 2 * (1 - 0.02)
T_ESD_OP0 = T1_OP0 + INVN_OP0 + 1.5 * INVP_PER_ALPHA
E_PREAMP_OP0 = 1.8 * I_TAIL_OP0 * T_ESD_OP0
E_LATCH = 8.5e-3 * 4e-6 * 0.18e-6 * 1.8 ** 2
E_DDVB = 2 * 8.5e-3 * (0.22e-6 + 0.35e-6) * 0.18e-6 * 1.8 ** 2
E_RESET = 2 * 8.5e-3 * 1.22e-6 * 0.18e-6 * 1.8 ** 2


class TestTimingOps:
    """simulate's timing fields against worked values from independent literal arithmetic."""

    def test_preamp_rise_time(self, engine):
        r = engine.simulate(OP0)
        assert rel_err(r.t0, T1_OP0) < 1e-12
        assert r.t1 == r.t0  # zero mismatch: latch and buffer thresholds match

    def test_buffer_n_delay(self, engine):
        r = engine.simulate(OP0)
        assert rel_err(r.t_esd - r.t1 - 1.5 * INVP_PER_ALPHA, INVN_OP0) < 1e-12

    def test_buffer_p_delay_and_alpha(self):
        t_esd = {}
        for alpha in (1.0, 1.5, 2.5):
            r = ComparatorEngine(ComparatorConfig(alpha=alpha)).simulate(OP0)
            t_esd[alpha] = r.t_esd
            assert rel_err(r.t_esd, T1_OP0 + INVN_OP0 + alpha * INVP_PER_ALPHA) < 1e-12
        assert rel_err(t_esd[2.5] - t_esd[1.0], 1.5 * INVP_PER_ALPHA) < 1e-12

    def test_latch_delay(self, engine):
        r = engine.simulate(OP0)
        assert rel_err(r.t_dm - r.t0, LATCH_OP0) < 1e-12
        assert rel_err(r.t_dm, T1_OP0 + LATCH_OP0) < 1e-12
        # independent of the inputs
        other = engine.simulate(replace(OP0, vid=1e-3, vcm=0.3))
        assert rel_err(other.t_dm - other.t0, LATCH_OP0) < 1e-12

    def test_rise_time_monotone_in_vid(self, engine):
        times = [engine.simulate(replace(OP0, vid=v)).t0 for v in (1e-3, 5e-3, 20e-3, 50e-3)]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_rise_time_linear_in_load(self):
        base = ComparatorEngine(ComparatorConfig()).simulate(OP0)
        caps = ComparatorEngine(ComparatorConfig()).node_caps()
        doubled = ComparatorEngine(ComparatorConfig(extra_load={"out": caps.c_out})).simulate(OP0)
        assert rel_err(doubled.t0, 2 * base.t0) < 1e-12
        assert rel_err(doubled.t1, 2 * base.t1) < 1e-12

    def test_degenerate_overdrive(self, engine):
        # vid=0 leaves neither input device any overdrive at vcm=1.36: no ramp starts
        with pytest.raises(NoDecisionError):
            engine.simulate(replace(OP0, vcm=1.36, vid=0.0))

    @pytest.mark.parametrize("vcm", [0.05, 0.1])
    def test_timing_with_tail_clamp(self, engine, vcm):
        op = replace(OP0, vcm=vcm)
        i_tail = 0.5 * (150e-6 * 2e-6 / 0.18e-6) * (1.8 - 0.45) ** 2 * (1 - 0.02)
        beta_in = 150e-6 * 1.2e-6 / 0.18e-6
        i_minus = 0.5 * beta_in * (1.8 - (vcm - 0.025) - 0.45) ** 2
        i_plus = 0.5 * beta_in * (1.8 - (vcm + 0.025) - 0.45) ** 2
        assert i_minus + i_plus > i_tail  # the clamp is active
        i_minus *= i_tail / (i_minus + i_plus)
        t0 = 0.45 * (8.5e-3 * 1.22e-6 * 0.18e-6) / i_minus
        r = engine.simulate(op)
        assert rel_err(r.i_tail, i_tail) < 1e-12
        assert rel_err(r.t0, t0) < 1e-12 and r.t1 == r.t0
        assert rel_err(r.t_esd, t0 + INVN_OP0 + 1.5 * INVP_PER_ALPHA) < 1e-12
        assert rel_err(r.t_dm, t0 + LATCH_OP0) < 1e-12


def ramp_oracle(config, op, mismatch, body=None):
    """Straight-line re-evaluation of the two ramps; returns the decision."""
    from dyncomp.devices import beta, threshold
    vdd = config.vdd
    body = body or BodyBias(vdd, vdd)
    pp = config.pmos
    np_ = config.nmos
    geoms = config.geoms
    vth4 = threshold(pp, body.vb_minus - vdd, mismatch.delta_vth("Mp4"))
    vth5 = threshold(pp, body.vb_plus - vdd, mismatch.delta_vth("Mp5"))
    b4 = beta(geoms["Mp4"], pp) * (1 + mismatch.delta_beta("Mp4"))
    b5 = beta(geoms["Mp5"], pp) * (1 + mismatch.delta_beta("Mp5"))
    i4 = 0.5 * b4 * max(0.0, vdd - (op.vcm - op.vid / 2) - vth4) ** 2
    i5 = 0.5 * b5 * max(0.0, vdd - (op.vcm + op.vid / 2) - vth5) ** 2
    tail = 0.5 * beta(geoms["Mp1"], pp) * (1 + mismatch.delta_beta("Mp1")) \
        * max(0.0, vdd - threshold(pp, 0, mismatch.delta_vth("Mp1"))) ** 2 \
        * (1 - config.tail_derating)
    if i4 + i5 > tail:
        s = tail / (i4 + i5)
        i4, i5 = i4 * s, i5 * s
    t_minus = (threshold(np_, 0, mismatch.delta_vth("Mn3")) / i4) if i4 > 0 else math.inf
    t_plus = (threshold(np_, 0, mismatch.delta_vth("Mn4")) / i5) if i5 > 0 else math.inf
    if t_minus == t_plus:
        return config.tie_break
    return +1 if t_minus < t_plus else -1


class TestSimulate:
    def test_decision_follows_vid_sign(self, engine):
        for vid in (50e-3, 1e-3, 1e-6):
            assert engine.simulate(replace(OP0, vid=vid)).decision == +1
            assert engine.simulate(replace(OP0, vid=-vid)).decision == -1

    def test_tie_break(self):
        op = replace(OP0, vid=0.0)
        assert ComparatorEngine(ComparatorConfig()).simulate(op).decision == +1
        assert ComparatorEngine(ComparatorConfig(tie_break=-1)).simulate(op).decision == -1

    def test_mismatch_flips_decision(self, engine):
        op = replace(OP0, vid=0.0)
        slow_minus = MismatchSample({"Mp4": (0.010, 0.0)})
        assert engine.simulate(op, slow_minus).decision == -1
        # flipping the sign of the injected delta flips the decision
        assert engine.simulate(op, MismatchSample({"Mp4": (-0.010, 0.0)})).decision == +1
        slow_plus = MismatchSample({"Mp5": (0.010, 0.0)})
        assert engine.simulate(op, slow_plus).decision == +1
        # threshold shift moves the flip point by roughly its own size
        assert engine.simulate(replace(OP0, vid=0.012), slow_minus).decision == +1
        assert engine.simulate(replace(OP0, vid=0.008), slow_minus).decision == -1

    def test_decision_matches_ramp_oracle(self, engine):
        cfg = engine.config
        geoms = list(cfg.geoms.values())
        for trial in range(40):
            mm = sample_mismatch(99, trial, geoms)
            for vid in (0.0, 5e-3, -5e-3):
                op = replace(OP0, vid=vid)
                assert engine.simulate(op, mm).decision == ramp_oracle(cfg, op, mm)

    def test_antisymmetry(self, engine):
        geoms = list(engine.config.geoms.values())
        for trial in range(25):
            mm = sample_mismatch(7, trial, geoms)
            swapped = dict(mm.deltas)
            swapped["Mp4"], swapped["Mp5"] = swapped["Mp5"], swapped["Mp4"]
            swapped["Mn3"], swapped["Mn4"] = swapped["Mn4"], swapped["Mn3"]
            swapped["Mni2"], swapped["Mni3"] = swapped["Mni3"], swapped["Mni2"]
            swapped["Mpi1"], swapped["Mpi4"] = swapped["Mpi4"], swapped["Mpi1"]
            mm2 = MismatchSample(swapped)
            op = replace(OP0, vid=3e-3)
            mirrored = replace(OP0, vid=-3e-3)
            assert engine.simulate(op, mm).decision == -engine.simulate(mirrored, mm2).decision

    @settings(deadline=None, max_examples=200)
    @given(deviations=st.fixed_dictionaries({name: DEVIATION
                                             for name in ("Mp1",) + sum(MIRROR, ())}),
           vid=st.floats(-0.2, 0.2))
    def test_mirrored_mismatch_flips_decision(self, engine, deviations, vid):
        # The mirrored circuit breaks a tie the other way, so ties flip too.
        mirrored_engine = ComparatorEngine(replace(engine.config, tie_break=-1))
        swapped = dict(deviations)
        for a, b in MIRROR:
            swapped[a], swapped[b] = deviations[b], deviations[a]

        def outcome(eng, vid, deltas):
            try:
                return eng.simulate(replace(OP0, vid=vid), MismatchSample(deltas)).decision
            except SimulationError as exc:
                return type(exc)

        decision = outcome(engine, vid, deviations)
        mirrored = outcome(mirrored_engine, -vid, swapped)
        assert decision == (-mirrored if isinstance(mirrored, int) else mirrored)

    @settings(deadline=None, max_examples=200)
    @given(deviations=st.fixed_dictionaries({name: DEVIATION for name in DecisionKernel.DEVICES}),
           vids=st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=6),
           vcm=st.floats(0.0, 1.8), corner=st.sampled_from(sorted(CORNERS)),
           temp_c=st.floats(-55.0, 150.0))
    def test_decision_monotone_in_vid(self, engine, deviations, vids, vcm, corner, temp_c):
        op = OperatingPoint(vcm=vcm, corner=CORNERS[corner], t_kelvin=temp_c + 273.15)
        mismatch = MismatchSample(deviations)
        decisions = []
        for vid in sorted(vids):
            with suppress(SimulationError):
                decisions.append(engine.simulate(replace(op, vid=vid), mismatch).decision)
        assert decisions == sorted(decisions)

    def test_one_params_at_per_simulate(self, engine):
        mismatch = sample_mismatch(7, 0, engine.config.geoms.values())
        with mock.patch.object(ComparatorEngine, "params_at", autospec=True,
                               side_effect=ComparatorEngine.params_at) as params_at:
            engine.simulate(OP0, mismatch, BodyBias(1.7, 1.75))
        params_at.assert_called_once_with(engine, OP0)

    def test_one_point_takes_no_grid_pass(self, engine):
        # One point runs the scalar cycle; simulate_grid is for rows.
        mismatch = sample_mismatch(7, 0, engine.config.geoms.values())
        with mock.patch.object(engine_module, "simulate_grid",
                               side_effect=engine_module.simulate_grid) as grid:
            engine.simulate(OP0, mismatch, BodyBias(1.7, 1.75))
        grid.assert_not_called()

    def test_body_bias_speeds_a_side(self, engine):
        op = replace(OP0, vid=0.0)
        # discharging vb_plus forward-biases the plus side and flips the tie
        assert engine.simulate(op, body=BodyBias(1.7, 1.8)).decision == -1
        assert engine.simulate(op, body=BodyBias(1.8, 1.7)).decision == +1

    def test_body_validation(self, engine):
        with pytest.raises(ConfigError):
            engine.simulate(OP0, body=BodyBias(1.9, 1.8))

    def test_late_flag(self):
        eng = ComparatorEngine(ComparatorConfig(freq=47e9))
        r = eng.simulate(OP0)
        assert r.late and r.t_dm > eng.config.window >= r.t0

    def test_no_decision_error(self, engine):
        with pytest.raises(NoDecisionError):
            engine.simulate(OperatingPoint(vid=10e-3, vcm=1.36, t_kelvin=300.0))

    def test_shutdown_mode_does_not_change_decision_or_delay(self):
        on = ComparatorEngine(ComparatorConfig(early_shutdown_enabled=True))
        off = ComparatorEngine(ComparatorConfig(early_shutdown_enabled=False))
        r_on, r_off = on.simulate(OP0), off.simulate(OP0)
        assert r_on.t_esd >= r_on.t_dm  # designed regime
        assert (r_on.decision, r_on.t0, r_on.t_dm, r_on.t_esd) == \
               (r_off.decision, r_off.t0, r_off.t_dm, r_off.t_esd)
        assert r_on.shutdown_occurred and not r_off.shutdown_occurred

    def test_op_validation(self, engine):
        with pytest.raises(ConfigError):
            engine.simulate(OperatingPoint(vid=0.0, vcm=2.0))
        with pytest.raises(ConfigError):
            engine.simulate(OperatingPoint(vid=1.9, vcm=0.9))

    def test_corner_ordering(self, engine):
        delays = {name: engine.simulate(replace(OP0, corner=CORNERS[name])).t_dm
                  for name in ("TT", "FF", "SS", "FS")}
        assert delays["FF"] < delays["TT"] < delays["SS"]
        assert delays["FS"] > delays["TT"]  # slow PMOS inputs dominate


def kernel_flip_point(engine, op, mismatch, body):
    """DecisionKernel.flip_point on a batch of one trial: (vid*, band, exact)."""
    columns = {name: (np.array([mismatch.delta_vth(name)]), np.array([mismatch.delta_beta(name)]))
               for name in DecisionKernel.DEVICES}
    flip, band, exact = DecisionKernel(engine, op, columns).flip_point(
        np.array([0]), op.vcm, np.array([[body.vb_minus], [body.vb_plus]]))
    return float(flip[0]), float(band[0]), bool(exact[0])


def tail_engine(vdd, tail_w, tie_break=+1, freq=ComparatorConfig.freq):
    geoms = dict(default_geometry(), Mp1=TransistorGeom("Mp1", tail_w, MIN_LENGTH, "pmos"))
    return ComparatorEngine(ComparatorConfig(geoms=geoms, vdd=vdd, freq=freq, tie_break=tie_break))


# A body voltage as a fraction of vdd: above 0.7 the threshold model holds
# at every drawn vdd, above 1 simulate rejects it.
BODY = st.one_of(st.floats(0.0, 1.0), st.floats(0.7, 1.05))
ZERO_DEVIATIONS = {name: (0.0, 0.0) for name in DecisionKernel.DEVICES}


class TestDecisionKernel:
    @settings(deadline=None, max_examples=1000)
    @given(deviations=st.fixed_dictionaries({name: DEVIATION for name in DecisionKernel.DEVICES}),
           vdd=st.floats(0.9, 2.2), vb_plus=BODY, vb_minus=BODY,
           vids=st.lists(st.one_of(st.floats(-0.2, 0.2), st.floats(-2.5, 2.5)), max_size=4),
           vcm=st.floats(-0.05, 1.0), corner=st.sampled_from(sorted(CORNERS)),
           temp_c=st.floats(-55.0, 150.0), tail_w=st.floats(0.22e-6, 4e-6),
           tie_break=st.sampled_from([1, -1]),
           window=st.one_of(st.floats(0.5, 2.0), st.floats(1.0 - 1e-11, 1.0 + 1e-11)))
    @example(deviations=ZERO_DEVIATIONS, vdd=1.8, vb_plus=1.0, vb_minus=1.0, vids=[],
             vcm=0.5, corner="TT", temp_c=27.0, tail_w=2e-6, tie_break=-1, window=1.0 + 1e-12)
    @example(deviations=ZERO_DEVIATIONS, vdd=1.8, vb_plus=0.9, vb_minus=0.95, vids=[0.01],
             vcm=0.0, corner="FF", temp_c=27.0, tail_w=0.22e-6, tie_break=1, window=1.0 + 1e-12)
    def test_exact_flip_point_is_simulates_decision(self, deviations, vdd, vb_plus, vb_minus,
                                                     vids, vcm, corner, temp_c, tail_w,
                                                     tie_break, window):
        # Where flip_point is exact, simulate raises at no |vid| < vdd and
        # decides sign(vid - vid*) at least band away from vid*: at both band
        # edges and at the drawn vids. The window is drawn as a multiple of
        # simulate's t0 at vid*, the largest t0 over vid. The examples sit
        # just inside the window edge, the second with the tail clamp engaged.
        op = OperatingPoint(vcm=vcm * vdd, corner=CORNERS[corner], t_kelvin=temp_c + 273.15)
        mismatch = MismatchSample(deviations)
        body = BodyBias(vb_plus * vdd, vb_minus * vdd)
        engine = tail_engine(vdd, tail_w, tie_break)
        flip, band, exact = kernel_flip_point(engine, op, mismatch, body)
        slow = tail_engine(vdd, tail_w, tie_break, freq=1.0)  # a 0.5 s window
        with suppress(SimulationError, ConfigError):
            peak = slow.simulate(replace(op, vid=flip), mismatch, body).t0
            engine = tail_engine(vdd, tail_w, tie_break, freq=0.5 / (peak * window))
            flip, band, exact = kernel_flip_point(engine, op, mismatch, body)
        if not exact:
            return
        lo, hi = flip - band, flip + band
        for vid in [lo, hi] + vids:
            if abs(vid) < vdd and not lo < vid < hi:
                decision = engine.simulate(replace(op, vid=vid), mismatch, body).decision
                assert decision == (1 if vid > flip else -1)

    def test_tail_clamp_engages(self):
        # A minimum-width tail at vcm = 0: the input pair would draw more
        # than the tail, so the clamp scales both branch currents.
        engine = tail_engine(1.8, 0.22e-6)
        mismatch = sample_mismatch(4, 0, default_geometry().values())
        body = BodyBias(1.5, 1.6)
        op = OperatingPoint(vid=0.0, vcm=0.0)
        for vid in np.linspace(-0.05, 0.05, 21):
            point = replace(op, vid=float(vid))
            vth_minus = engine.params_at(point)[1].vth0  # any threshold below the gate overdrive
            i_minus, i_plus = pair_currents(engine, point, vth_minus, vth_minus, mismatch)
            assert i_minus + i_plus > tail_current(engine, point, mismatch)
            # At the supply's body voltage, simulate's t0 is the earlier
            # crossing of the clamped currents.
            vth_n, i_tail = engine.params_at(point)[0].vth0, tail_current(engine, point, mismatch)
            i_minus, i_plus = pair_currents(engine, point, vth_minus + mismatch.delta_vth("Mp4"),
                                            vth_minus + mismatch.delta_vth("Mp5"), mismatch)
            t0 = min(engine.node_caps().c_out * (vth_n + mismatch.delta_vth(sense))
                     / (i * i_tail / (i_minus + i_plus))
                     for i, sense in ((i_minus, "Mn3"), (i_plus, "Mn4")))
            assert rel_err(engine.simulate(point, mismatch).t0, t0) < 1e-12
        assert kernel_flip_point(engine, op, mismatch, body)[2]
        assert measure_offset(engine, op, mismatch, body) \
            == offset_oracle.measure_offset(engine, op, mismatch, body)

    def test_rows_select_trials(self):
        engine = ComparatorEngine(ComparatorConfig())
        geoms = list(engine.config.geoms.values())
        samples = [sample_mismatch(8, trial, geoms) for trial in range(6)]
        columns = {name: (np.array([s.delta_vth(name) for s in samples]),
                          np.array([s.delta_beta(name) for s in samples]))
                   for name in DecisionKernel.DEVICES}
        rows = np.array([5, 1, 3])
        vb = np.full((2, 3), 1.8)
        flip, band, exact = DecisionKernel(engine, OP0, columns).flip_point(rows, OP0.vcm, vb)
        body = BodyBias(1.8, 1.8)
        expected = [kernel_flip_point(engine, OP0, samples[r], body) for r in rows]
        assert list(zip(flip.tolist(), band.tolist(), exact.tolist())) == expected
        assert len(set(flip.tolist())) == 3

    def test_invalid_corner_parameters_raise_like_simulate(self):
        # At 600 K the thresholds drift below zero. The kernel marks no trial
        # exact, so the offset paths probe simulate_grid and raise simulate's
        # error; with vcm out of range too, its vcm message comes first.
        engine = ComparatorEngine(ComparatorConfig())
        cal = CalibrationConfig()
        for vcm, message in ((0.9, "temp_c=326.85 at corner TT"), (2.0, "vcm=2.0 outside")):
            op = OperatingPoint(vid=0.0, vcm=vcm, t_kelvin=600.0)
            with pytest.raises(ConfigError, match=message) as expected:
                engine.simulate(op)
            columns = {name: (np.zeros(3), np.zeros(3)) for name in DecisionKernel.DEVICES}
            kernel = DecisionKernel(engine, op, columns)
            assert not kernel.flip_point(np.arange(3), op.vcm, np.full((2, 3), 1.8))[2].any()
            for call in (lambda: measure_offset(engine, op),
                         lambda: run_calibration(engine.config, ZERO_MISMATCH, cal, op),
                         lambda: monte_carlo(20, 1, engine.config, cal, True, op)):
                with pytest.raises(ConfigError) as raised:
                    call()
                assert str(raised.value) == str(expected.value)


class TestEnergy:
    def test_breakdown_values(self, engine):
        r = engine.simulate(OP0)
        e = r.energy
        assert rel_err(r.i_tail, I_TAIL_OP0) < 1e-12
        assert rel_err(r.t_esd, T_ESD_OP0) < 1e-12
        assert rel_err(e.e_preamp, E_PREAMP_OP0) < 1e-12
        assert rel_err(e.e_latch, E_LATCH) < 1e-12
        assert rel_err(e.e_ddvb, E_DDVB) < 1e-12
        assert rel_err(e.e_reset, E_RESET) < 1e-12
        assert rel_err(e.total, E_PREAMP_OP0 + E_LATCH + E_DDVB + E_RESET) < 1e-12
        assert e.total == e.e_preamp + e.e_latch + e.e_ddvb + e.e_reset

    def test_preamp_energy_charges_the_tail_current(self, engine):
        # At OP0 the input pair's square-law currents, 0.5 * 1 mA/V^2 *
        # (0.475^2 + 0.425^2), sum to 0.203125 mA: 13.6 % of the 1.488375 mA
        # tail current that e_preamp = vdd * i_tail * t_on charges. README's
        # model notes state both figures.
        pair = sum(pair_currents(engine, OP0, 0.45, 0.45))
        assert rel_err(pair, 0.203125e-3) < 1e-12
        r = engine.simulate(OP0)
        assert rel_err(r.i_tail, 1.488375e-3) < 1e-12
        assert round(100 * pair / r.i_tail, 1) == 13.6
        assert r.energy.e_preamp == 1.8 * r.i_tail * r.t_esd

    def test_breakdown_values_without_shutdown(self):
        r = ComparatorEngine(ComparatorConfig(early_shutdown_enabled=False)).simulate(OP0)
        # The tail conducts for the whole window, and the chain never fires.
        e_preamp = 1.8 * I_TAIL_OP0 * (0.5 / 333e6)
        assert rel_err(r.energy.e_preamp, e_preamp) < 1e-12
        assert r.energy.e_ddvb == 0.0
        assert rel_err(r.energy.total, e_preamp + E_LATCH + E_RESET) < 1e-12

    def test_shutdown_saves_energy(self):
        on = ComparatorEngine(ComparatorConfig(early_shutdown_enabled=True))
        off = ComparatorEngine(ComparatorConfig(early_shutdown_enabled=False))
        assert on.simulate(OP0).energy.total < off.simulate(OP0).energy.total

    def test_modes_converge_when_window_beats_chain(self):
        # at 70 GHz the window closes before the chain fires on both modes
        on = ComparatorEngine(ComparatorConfig(freq=6.2e10, early_shutdown_enabled=True))
        off = ComparatorEngine(ComparatorConfig(freq=6.2e10, early_shutdown_enabled=False))
        r_on, r_off = on.simulate(OP0), off.simulate(OP0)
        assert not r_on.shutdown_occurred
        assert r_on.energy.total == r_off.energy.total

    def test_small_input_costs_more(self, engine):
        e_small = engine.simulate(replace(OP0, vid=1e-3)).energy.total
        e_large = engine.simulate(replace(OP0, vid=50e-3)).energy.total
        assert e_large < e_small

    def test_supply_scaling(self):
        lo = ComparatorEngine(ComparatorConfig(vdd=1.6)).simulate(
            OperatingPoint(vid=50e-3, vcm=0.8, t_kelvin=300.0))
        hi = ComparatorEngine(ComparatorConfig(vdd=2.0)).simulate(
            OperatingPoint(vid=50e-3, vcm=1.0, t_kelvin=300.0))
        assert hi.t_dm < lo.t_dm
        assert hi.energy.total > lo.energy.total


# (instance, field, value): each library check on a NaN, or a NaN in a list.
NAN_FIELDS = [
    *((CalibrationConfig(), name, math.nan) for name in ("n_cycles", "n_phases", "cb", "c0",
                                                          "cp_beta", "t_period", "tol_os", "span")),
    (CalibrationConfig(), "dac_caps", (25e-15, math.nan)),
    *((ComparatorConfig(), name, math.nan) for name in ("vdd", "freq", "alpha", "tail_derating")),
    (ComparatorConfig(), "extra_load", {"out": math.nan}),
    *((DEFAULT_NMOS, name, math.nan) for name in ("mu_cox", "vth0", "gamma", "phi2f", "cox_area")),
    *((default_geometry()["Mp1"], name, math.nan) for name in ("w", "l")),
    *((CORNERS["TT"], name, math.nan) for name in ("mu_factor_n", "mu_factor_p", "vth_shift_n",
                                                    "vth_shift_p")),
]


@pytest.mark.parametrize("instance, field, value", NAN_FIELDS,
                         ids=[f"{type(i).__name__}.{f}" for i, f, _ in NAN_FIELDS])
def test_nan_rejected(instance, field, value):
    with pytest.raises(ConfigError):
        replace(instance, **{field: value})


class TestConfigValidation:
    def test_negative_extra_load(self):
        with pytest.raises(ConfigError, match=r"^extra_load\['pi'\]: must be >= 0, got -1e-15$"):
            ComparatorConfig(extra_load={"pi": -1e-15})

    def test_alpha_below_one(self):
        with pytest.raises(ConfigError):
            ComparatorConfig(alpha=0.9)

    def test_bad_extra_node(self):
        with pytest.raises(ConfigError):
            ComparatorConfig(extra_load={"bogus": 1e-15})

    def test_window(self):
        assert ComparatorConfig(freq=333e6).window == 0.5 / 333e6

    def test_typical_op(self):
        cfg = ComparatorConfig(vdd=1.6)
        op = typical_op(cfg, vid=1e-3)
        assert op.vcm == 0.8 and op.vid == 1e-3
