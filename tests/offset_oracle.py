"""The simulate-driven offset path: the oracle for calibration's batched one.

One scalar ``ComparatorEngine.simulate`` per decision, as the cancellation
loop and the offset bisection were first written: ``measure_offset``
bisects on simulate's decision, ``calibrate_from`` runs the cycles from a
measured offset, and ``scalar_offsets`` loops both over the Monte Carlo
trials.
"""
from contextlib import suppress
from dataclasses import replace

from dyncomp.calibration import (CalibrationConfig, CalibrationResult, CalibrationState,
                                 _resolve_period, cp_step, dac_output, residual_bound)
from dyncomp.devices import ZERO_MISMATCH, MismatchSample, sample_mismatch
from dyncomp.engine import BodyBias, ComparatorEngine, OperatingPoint, typical_op
from dyncomp.errors import OffsetSpanError


def measure_offset(engine, op=None, mismatch=ZERO_MISMATCH, body=None, tol=10e-6, span=100e-3):
    """Input-referred offset: the vid where the decision flips, by bisection."""
    op = op or typical_op(engine.config, vid=0.0)

    def decide(vid):
        return engine.simulate(replace(op, vid=vid), mismatch, body).decision

    lo, hi = -span, span
    d_lo, d_hi = decide(lo), decide(hi)
    if d_lo == d_hi:
        raise OffsetSpanError(f"decision does not flip within +/-{span} V (sign {d_lo})")
    if d_lo > 0:  # decision is monotone nondecreasing in vid; this cannot happen
        raise OffsetSpanError("inverted decision polarity over the search span")
    mid = 0.5 * (lo + hi)
    while hi - lo > tol and lo < mid < hi:  # the midpoint may round onto an end
        if decide(mid) > 0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return mid


def calibrate_from(engine: ComparatorEngine, op: OperatingPoint, mismatch: MismatchSample,
                   cal: CalibrationConfig, offset_before: float) -> CalibrationResult:
    """The cancellation cycles from a measured offset, then the residual."""
    config = engine.config
    vdd = config.vdd
    vcm_cal = cal.v_ref_input if cal.v_ref_input is not None else vdd / 2.0
    op_cal = replace(op, vid=0.0, vcm=vcm_cal)
    t_period = _resolve_period(cal, config)

    vb_plus = vb_minus = vdd
    saturated = False
    history = []
    for _ in range(cal.n_phases):
        for tn in range(1, cal.n_cycles + 1):
            s = engine.simulate(op_cal, mismatch, BodyBias(vb_plus, vb_minus)).decision
            daco = dac_output(tn, cal, vdd)
            step = cp_step(daco, cal, t_period)
            if s > 0:
                vb_plus -= step
                if vb_plus < 0.0:
                    vb_plus = 0.0
                    saturated = True
            else:
                vb_minus -= step
                if vb_minus < 0.0:
                    vb_minus = 0.0
                    saturated = True
            history.append((len(history) + 1, daco, step, s))

    body = BodyBias(vb_plus, vb_minus)
    offset_after = measure_offset(engine, op, mismatch, body, tol=cal.tol_os, span=cal.span)
    state = CalibrationState(vb_plus=vb_plus, vb_minus=vb_minus, history=tuple(history))
    converged = abs(offset_after) <= residual_bound(cal, config)
    return CalibrationResult(state=state, offset_before=offset_before,
                             offset_after=offset_after, converged=converged,
                             saturated=saturated)


def run_calibration(config, mismatch, cal, op=None) -> CalibrationResult:
    """Measure the offset, run the cancellation phases and measure it again."""
    engine = ComparatorEngine(config)
    op = op or typical_op(config, vid=0.0)
    offset_before = measure_offset(engine, op, mismatch, tol=cal.tol_os, span=cal.span)
    return calibrate_from(engine, op, mismatch, cal, offset_before)


def scalar_offsets(n, seed, engine, op, cal, calibrate, avt, abeta):
    """Measured offsets (before, after) of the Monte Carlo trials, one simulate at a time."""
    geoms = list(engine.config.geoms.values())
    before, after = [], []
    for trial in range(n):
        mm = sample_mismatch(seed, trial, geoms, avt=avt, abeta=abeta)
        with suppress(OffsetSpanError):  # counted as n - len(offsets) per phase
            before.append(measure_offset(engine, op, mm, tol=cal.tol_os, span=cal.span))
            if calibrate:
                after.append(calibrate_from(engine, op, mm, cal, before[-1]).offset_after)
    return before, after
