"""Time-domain body-tuned offset cancellation and Monte Carlo harness.

The cancellation loop runs the comparator at zero differential input.
Each clock cycle the decision sign picks one of the two body storage
capacitors; a charge pump discharges it by I*T/C_b, forward-biasing that
side's input device and speeding it up. A counter-driven capacitive DAC
lowers the charge-pump gate voltage cycle by cycle, so the correction
steps shrink toward the final value like a successive approximation.
"""
from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, replace

import numpy as np

from .devices import (ABETA_DEFAULT, AVT_DEFAULT, MismatchSample, ZERO_MISMATCH,
                      draw_mismatch, mismatch_scales, sample_mismatch)
from .engine import (BodyBias, ComparatorConfig, ComparatorEngine, DecisionKernel,
                     OperatingPoint, typical_op)
from .errors import ConfigError, OffsetSpanError


@dataclass(frozen=True)
class CalibrationConfig:
    """Knobs of the cancellation loop.

    ``t_period`` and ``v_ref_input`` default to the comparator's clock
    period and vdd/2 when left as None. The DAC ladder entries are the
    individual selectable capacitors; cycle k connects the first k of them,
    which makes the DAC output strictly decreasing over the phase.
    """

    n_cycles: int = 6
    n_phases: int = 1           # optional repeats with a re-precharged DAC
    cb: float = 1e-12           # body storage capacitance, F
    c0: float = 100e-15         # DAC reference capacitance, F
    dac_caps: tuple[float, ...] = (25e-15, 25e-15, 50e-15, 100e-15, 200e-15, 400e-15)
    cp_beta: float = 17e-6      # charge-pump device transconductance, A/V^2
    cp_vthn: float = -0.45      # depletion-mode charge-pump device threshold, V
    t_period: float | None = None
    v_ref_input: float | None = None
    tol_os: float = 10e-6       # offset bisection tolerance, V
    span: float = 100e-3        # offset search half-span, V

    def __post_init__(self):
        if self.n_cycles < 1 or self.n_phases < 1:
            raise ConfigError("n_cycles and n_phases must be >= 1")
        if self.cb <= 0 or self.c0 <= 0 or any(c <= 0 for c in self.dac_caps):
            raise ConfigError("all capacitances must be > 0")
        if self.cp_beta <= 0:
            raise ConfigError("cp_beta must be > 0")
        if self.t_period is not None and self.t_period <= 0:
            raise ConfigError("t_period must be > 0")
        if self.tol_os <= 0 or self.span <= 0:
            raise ConfigError("tol_os and span must be > 0")


@dataclass(frozen=True)
class CalibrationState:
    """Loop state after the last executed cycle."""

    vb_plus: float
    vb_minus: float
    history: tuple[tuple[int, float, float, int], ...]  # (cycle, daco, step, s)


@dataclass(frozen=True)
class CalibrationResult:
    state: CalibrationState
    offset_before: float
    offset_after: float
    converged: bool             # |offset_after| <= the nominal residual_bound
    saturated: bool             # a body voltage clamped at ground


@dataclass(frozen=True)
class OffsetStats:
    """Aggregate offset statistics of one Monte Carlo run."""

    n: int
    mean: float
    sigma: float
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    span_errors: int = 0


def measure_offset(engine: ComparatorEngine, op: OperatingPoint | None = None,
                   mismatch: MismatchSample = ZERO_MISMATCH,
                   body: BodyBias | None = None,
                   tol: float = 10e-6, span: float = 100e-3) -> float:
    """Input-referred offset: the vid where the decision flips, by bisection.

    The returned value is the differential input needed to balance the
    comparator (decision +1 for vid above it, -1 below). Raises
    OffsetSpanError when no flip exists inside +/- span.
    """
    op = op or typical_op(engine.config, vid=0.0)

    def decide(vid: float) -> int:
        return engine.simulate(replace(op, vid=vid), mismatch, body).decision

    lo, hi = -span, span
    d_lo, d_hi = decide(lo), decide(hi)
    if d_lo == d_hi:
        raise OffsetSpanError(f"decision does not flip within +/-{span} V (sign {d_lo})")
    if d_lo > 0:  # decision is monotone nondecreasing in vid; this cannot happen
        raise OffsetSpanError("inverted decision polarity over the search span")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if decide(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def dac_output(cycle: int, cal: CalibrationConfig, vdd: float) -> float:
    """DAC output after charge redistribution in the given cycle.

    Cycle 0 (no capacitors selected) returns vdd; afterwards the reference
    charge redistributes over the first ``cycle`` ladder capacitors.
    """
    if cycle < 0 or cycle > cal.n_cycles:
        raise ConfigError(f"cycle {cycle} outside [0, {cal.n_cycles}]")
    selected = sum(cal.dac_caps[:min(cycle, len(cal.dac_caps))])
    return vdd * cal.c0 / (cal.c0 + selected)


def cp_step(daco: float, cal: CalibrationConfig, t_period: float) -> float:
    """Body-voltage decrement I*T/C_b of one charge-pump activation."""
    ov = daco - cal.cp_vthn
    if ov <= 0.0:
        return 0.0
    current = 0.5 * cal.cp_beta * ov * ov
    return current * t_period / cal.cb


def _resolve_period(cal: CalibrationConfig, config: ComparatorConfig) -> float:
    return cal.t_period if cal.t_period is not None else 1.0 / config.freq


def residual_bound(cal: CalibrationConfig, config: ComparatorConfig) -> float:
    """Nominal post-convergence offset ceiling, taken at vb = vdd.

    Final-cycle body step times the body-to-offset gain, i.e. the
    body-effect derivative of the input-pair threshold at vb = vdd mapped
    one-to-one to input-referred volts. That gain is smallest at vb = vdd,
    so this is not a guarantee: the loop ends on lower body voltages and
    can settle above the bound by the ratio of the body gain at the final
    body voltage to the gain at vdd.
    """
    t_period = _resolve_period(cal, config)
    final_step = cp_step(dac_output(cal.n_cycles, cal, config.vdd), cal, t_period)
    gain = config.pmos.gamma / (2.0 * math.sqrt(config.pmos.phi2f))
    return final_step * gain


def run_calibration(config: ComparatorConfig, mismatch: MismatchSample,
                    cal: CalibrationConfig,
                    op: OperatingPoint | None = None) -> CalibrationResult:
    """Measure the offset, run the cancellation phases and measure it again."""
    engine = ComparatorEngine(config)
    op = op or typical_op(config, vid=0.0)
    offset_before = measure_offset(engine, op, mismatch, tol=cal.tol_os, span=cal.span)
    return _calibrate(engine, op, mismatch, cal, offset_before)


def _calibrate(engine: ComparatorEngine, op: OperatingPoint, mismatch: MismatchSample,
               cal: CalibrationConfig, offset_before: float) -> CalibrationResult:
    """Run the cancellation phases from a measured offset and measure the residual.

    Decision +1 at zero input discharges ``vb_plus`` (speeding the lagging
    plus side), -1 discharges ``vb_minus``. Body voltages clamp at ground
    with a saturation flag.
    """
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


def monte_carlo(n: int, seed: int, config: ComparatorConfig, cal: CalibrationConfig,
                calibrate: bool, op: OperatingPoint | None = None,
                avt: float = AVT_DEFAULT, abeta: float = ABETA_DEFAULT
                ) -> tuple[OffsetStats, OffsetStats | None]:
    """Offset statistics (before, after) over n mismatch trials, reproducible from the seed.

    ``after`` holds the residuals of the cancellation loop run from each
    trial's measured offset, or None without ``calibrate``. Trials are
    independent (one RNG stream per trial index). Span errors are counted,
    not fatal; a trial out of span before calibration counts in both phases.

    The trials run as one batch through ``DecisionKernel``, which gives the
    offsets of ``measure_offset`` and ``_calibrate`` bit for bit. If any
    trial would raise, the scalar loop runs instead and raises that error.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    engine = ComparatorEngine(config)
    op = op or typical_op(config, vid=0.0)
    args = (n, seed, engine, op, cal, calibrate, avt, abeta)
    try:
        before, after = _batched_offsets(*args)
    except _ScalarOnly:
        before, after = _scalar_offsets(*args)
    return _offset_stats(n, before), (_offset_stats(n, after) if calibrate else None)


class _ScalarOnly(Exception):
    """Some trial raises in simulate; the scalar loop says which one and how."""


def _scalar_offsets(n: int, seed: int, engine: ComparatorEngine, op: OperatingPoint,
                    cal: CalibrationConfig, calibrate: bool, avt: float, abeta: float
                    ) -> tuple[list[float], list[float]]:
    """Measured offsets (before, after) of the trials, one simulate at a time."""
    geoms = list(engine.config.geoms.values())
    before, after = [], []
    for trial in range(n):
        mm = sample_mismatch(seed, trial, geoms, avt=avt, abeta=abeta)
        with suppress(OffsetSpanError):  # counted as n - len(offsets) per phase
            before.append(measure_offset(engine, op, mm, tol=cal.tol_os, span=cal.span))
            if calibrate:
                after.append(_calibrate(engine, op, mm, cal, before[-1]).offset_after)
    return before, after


def _batched_offsets(n: int, seed: int, engine: ComparatorEngine, op: OperatingPoint,
                     cal: CalibrationConfig, calibrate: bool, avt: float, abeta: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``_scalar_offsets`` with every trial in one array; raises _ScalarOnly
    where a trial would raise."""
    config = engine.config
    names, scales = mismatch_scales(config.geoms.values(), avt, abeta)
    if not set(DecisionKernel.DEVICES) <= set(names):
        raise _ScalarOnly  # the tail device is missing
    cols = [2 * names.index(name) + k for name in DecisionKernel.DEVICES for k in (0, 1)]
    draws = draw_mismatch(seed, range(n), scales, cols)
    mismatch = {name: (draws[:, 2 * i], draws[:, 2 * i + 1])
                for i, name in enumerate(DecisionKernel.DEVICES)}
    try:
        kernel = DecisionKernel(engine, op, mismatch)
    except ConfigError:
        raise _ScalarOnly from None

    def decide(rows, vid, vcm, vb_plus, vb_minus):
        decision, raises = kernel.decide(rows, vid, vcm, vb_plus, vb_minus)
        if raises.any():
            raise _ScalarOnly
        return decision

    def offsets(rows, vb_plus, vb_minus):
        """measure_offset of each trial; False in ``measured`` marks a span error."""
        lo, hi = np.full(rows.size, -cal.span), np.full(rows.size, cal.span)
        d_lo = decide(rows, lo, op.vcm, vb_plus, vb_minus)
        d_hi = decide(rows, hi, op.vcm, vb_plus, vb_minus)
        measured = (d_lo != d_hi) & (d_lo < 0)
        active = measured & (hi - lo > cal.tol_os)
        while active.any():
            i = np.flatnonzero(active)
            mid = 0.5 * (lo[i] + hi[i])
            up = decide(rows[i], mid, op.vcm, vb_plus[i], vb_minus[i]) > 0
            hi[i] = np.where(up, mid, hi[i])
            lo[i] = np.where(up, lo[i], mid)
            active[i] = hi[i] - lo[i] > cal.tol_os
        return 0.5 * (lo + hi), measured

    rows = np.arange(n)
    supply = np.full(n, engine.supply(op))
    before, measured = offsets(rows, supply, supply)
    if not calibrate:
        return before[measured], np.empty(0)

    # _calibrate's cycles on the trials with a measured offset.
    vdd = config.vdd
    vcm_cal = cal.v_ref_input if cal.v_ref_input is not None else vdd / 2.0
    t_period = _resolve_period(cal, config)
    rows = rows[measured]
    vb_plus, vb_minus = np.full(rows.size, vdd), np.full(rows.size, vdd)
    for _ in range(cal.n_phases):
        for tn in range(1, cal.n_cycles + 1):
            plus = decide(rows, 0.0, vcm_cal, vb_plus, vb_minus) > 0
            step = cp_step(dac_output(tn, cal, vdd), cal, t_period)
            vb_plus = np.where(plus, vb_plus - step, vb_plus)
            vb_minus = np.where(plus, vb_minus, vb_minus - step)
            vb_plus = np.where(vb_plus < 0.0, 0.0, vb_plus)
            vb_minus = np.where(vb_minus < 0.0, 0.0, vb_minus)
    after, measured_after = offsets(rows, vb_plus, vb_minus)
    return before[measured], after[measured_after]


def _offset_stats(n: int, offsets: list[float]) -> OffsetStats:
    arr = np.asarray(offsets, dtype=float)
    if arr.size == 0:
        raise OffsetSpanError("every trial exceeded the offset search span")
    mean = float(arr.mean())
    sigma = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        lo, hi = lo - 1e-6, hi + 1e-6
    counts, edges = np.histogram(arr, bins=40, range=(lo, hi))
    return OffsetStats(n=n, mean=mean, sigma=sigma,
                       bin_edges=tuple(float(e) for e in edges),
                       counts=tuple(int(c) for c in counts),
                       span_errors=n - arr.size)
