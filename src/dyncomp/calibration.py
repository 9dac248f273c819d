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
from dataclasses import dataclass, replace

import numpy as np

from .devices import (ABETA_DEFAULT, AVT_DEFAULT, MismatchSample, ZERO_MISMATCH,
                      draw_mismatch, mismatch_scales)
from .engine import (BodyBias, ComparatorConfig, ComparatorEngine, DecisionKernel,
                     OperatingPoint, typical_op)
from .errors import ConfigError, OffsetSpanError, SimulationError


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
    comparator (decision +1 for vid above it, -1 below): the midpoint of the
    bisection interval from +/- span once it is no wider than ``tol``. Raises
    OffsetSpanError when no flip exists inside +/- span, and simulate's
    error where a point of the bisection would raise.
    """
    op = op or typical_op(engine.config, vid=0.0)
    return _offset(_Batch.one(engine, op, mismatch, body, tol, span).run()[0], span)


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
    before, after, (cycles, vb, saturated) = \
        _Batch.one(engine, op, mismatch, None, cal.tol_os, cal.span).run(cal)
    offset_before, offset_after = _offset(before, cal.span), _offset(after, cal.span)
    history = tuple((k + 1, daco, step, 1 if plus[0] else -1)
                    for k, (daco, step, plus) in enumerate(cycles))
    state = CalibrationState(vb_plus=float(vb[1, 0]), vb_minus=float(vb[0, 0]), history=history)
    converged = abs(offset_after) <= residual_bound(cal, config)
    return CalibrationResult(state=state, offset_before=offset_before,
                             offset_after=offset_after, converged=converged,
                             saturated=bool(saturated[0]))


def monte_carlo(n: int, seed: int, config: ComparatorConfig, cal: CalibrationConfig,
                calibrate: bool, op: OperatingPoint | None = None,
                avt: float = AVT_DEFAULT, abeta: float = ABETA_DEFAULT
                ) -> tuple[OffsetStats, OffsetStats | None]:
    """Offset statistics (before, after) over n mismatch trials, reproducible from the seed.

    ``after`` holds the residuals of the cancellation loop run from each
    trial's measured offset, or None without ``calibrate``. Trials are
    independent (one RNG stream per trial index). Span errors are counted,
    not fatal; a trial out of span before calibration counts in both phases.
    Any other error is that of the lowest trial that raises, as from
    measure_offset and run_calibration on each trial in turn.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    engine = ComparatorEngine(config)
    op = op or typical_op(config, vid=0.0)
    before, after = _batched_offsets(n, seed, engine, op, cal, calibrate, avt, abeta)
    return _offset_stats(n, before), (_offset_stats(n, after) if calibrate else None)


def _batched_offsets(n: int, seed: int, engine: ComparatorEngine, op: OperatingPoint,
                     cal: CalibrationConfig, calibrate: bool, avt: float, abeta: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The offsets (before, after) of the trials that flip inside the span."""
    devices = DecisionKernel.DEVICES
    names, scales = mismatch_scales(engine.config.geoms.values(), avt, abeta)
    draws = draw_mismatch(seed, range(n), scales,
                          [2 * names.index(name) + k for name in devices for k in (0, 1)])
    mismatch = {name: (draws[:, 2 * i], draws[:, 2 * i + 1]) for i, name in enumerate(devices)}
    before, after, _ = _Batch(engine, op, mismatch, n, None, cal.tol_os,
                              cal.span).run(cal if calibrate else None)
    return before[0][_flips(before)], (after[0][_flips(after)] if calibrate else np.empty(0))


def _flips(walk: tuple) -> np.ndarray:
    """Where an (offset, plus at -span, plus at +span) bisection flips inside the span."""
    return ~walk[1] & walk[2]


def _offset(walk: tuple, span: float) -> float:
    """The offset of a one-trial bisection, or its OffsetSpanError."""
    offset, plus_lo, plus_hi = (x[0] for x in walk)
    if plus_lo == plus_hi:
        raise OffsetSpanError(f"decision does not flip within +/-{span} V "
                              f"(sign {1 if plus_lo else -1})")
    if plus_lo:  # decision is monotone nondecreasing in vid; this cannot happen
        raise OffsetSpanError("inverted decision polarity over the search span")
    return float(offset)


class _Batch:
    """measure_offset and the cancellation cycles over a batch of trials.

    Every decision is simulate's. Where a trial's flip point is exact, the
    decision is +1 exactly at the vids above the flip point's guard band and
    -1 below it; every other point runs simulate on that trial. Body voltages
    are (2, trials) arrays, the minus side in row 0. A trial stops at the
    first point of its sequence where simulate raises; ``fault`` is (trial,
    error) of the lowest such trial.
    """

    def __init__(self, engine: ComparatorEngine, op: OperatingPoint, mismatch: dict, n: int,
                 body: BodyBias | None, tol: float, span: float):
        self.engine, self.op, self.mismatch, self.tol, self.span = engine, op, mismatch, tol, span
        vdd = engine.supply(op)
        self.body = body or BodyBias(vdd, vdd)
        self.live, self.fault = np.ones(n, dtype=bool), None
        try:
            self.kernel = DecisionKernel(engine, op, mismatch)
        except ConfigError:  # simulate raises at every point: raise the first one's error
            engine.simulate(replace(op, vid=-span), self.sample(0), self.body)
            raise AssertionError("trial 0: simulate accepts a point the kernel rejects")

    @classmethod
    def one(cls, engine: ComparatorEngine, op: OperatingPoint, mismatch: MismatchSample,
            body: BodyBias | None, tol: float, span: float) -> _Batch:
        """A batch of the one trial ``mismatch``."""
        columns = {name: (np.array([mismatch.delta_vth(name)]),
                          np.array([mismatch.delta_beta(name)]))
                   for name in DecisionKernel.DEVICES}
        return cls(engine, op, columns, 1, body, tol, span)

    def sample(self, trial: int) -> MismatchSample:
        """The trial's MismatchSample for simulate, of the kernel's devices only.
        Simulate's decision and errors read no other device: Mp1 sets the tail
        current, Mp4/Mp5 the branch currents, Mn3/Mn4 the crossing times that
        decide and meet the window check. The rest enter only t1, t_esd, t_dm
        and the energy, which ``plus`` ignores."""
        return MismatchSample({name: (float(dvth[trial]), float(dbeta[trial]))
                               for name, (dvth, dbeta) in self.mismatch.items()})

    def run(self, cal: CalibrationConfig | None = None) -> tuple:
        """(before, after, (cycles, vb, saturated)): the bisection of every
        trial and, given ``cal``, the cancellation cycles and the bisection
        again on the trials that flip inside the span. Raises the error of
        the lowest trial that raises."""
        rows = np.arange(self.live.size)
        body = np.array([[self.body.vb_minus], [self.body.vb_plus]])
        before = self.offsets(rows, body.repeat(rows.size, axis=1))
        after = state = None
        if cal is not None:
            rows = rows[_flips(before) & self.live]
            state = self.calibrate(rows, cal)
            after = self.offsets(rows, state[1])
        if self.fault is not None:
            raise self.fault[1]
        return before, after, state

    def guard(self, rows: np.ndarray, vcm: float, vb: np.ndarray, reach: float) -> tuple:
        """(lo, hi): simulate decides -1 at a vid <= lo and +1 at a vid >= hi,
        for |vid| <= reach. The interval is the flip point's guard band where
        it is exact and reach < vdd, else the whole line."""
        flip, band, exact = self.kernel.flip_point(rows, vcm, vb[1], vb[0])
        exact &= reach < self.kernel.vdd
        return np.where(exact, flip - band, -np.inf), np.where(exact, flip + band, np.inf)

    def plus(self, rows, vid, vcm, vb, guard, active) -> np.ndarray:
        """Where simulate decides +1 at the trials' vid, given their guard. The
        ``active`` trials inside the guard interval run simulate; one that
        raises stops there, leaving ``active``. Above the fault's trial none
        runs: its error would not be the one raised."""
        lo, hi = guard
        plus = vid >= hi
        for k in (active & (vid > lo) & (vid < hi)).nonzero()[0]:
            trial = int(rows[k])
            if self.fault is not None and trial > self.fault[0]:
                continue
            point = replace(self.op, vid=float(vid[k]), vcm=vcm)
            mismatch, body = self.sample(trial), BodyBias(float(vb[1, k]), float(vb[0, k]))
            try:
                plus[k] = self.engine.simulate(point, mismatch, body).decision > 0
            except (ConfigError, SimulationError) as exc:
                active[k] = self.live[trial] = False
                self.fault = (trial, exc)
        return plus

    def offsets(self, rows: np.ndarray, vb: np.ndarray) -> tuple:
        """measure_offset's bisection on the trials: (offset, plus at -span,
        plus at +span)."""
        vcm, tol, span = self.op.vcm, self.tol, self.span
        guard = self.guard(rows, vcm, vb, span)
        lo, hi = np.full(rows.size, -span), np.full(rows.size, span)
        live = self.live[rows]
        plus_lo = self.plus(rows, lo, vcm, vb, guard, live)
        plus_hi = self.plus(rows, hi, vcm, vb, guard, live)
        active = ~plus_lo & plus_hi & live & (hi - lo > tol)
        while np.count_nonzero(active):
            mid = 0.5 * (lo + hi)
            up = self.plus(rows, mid, vcm, vb, guard, active) & active
            np.copyto(hi, mid, where=up)
            np.copyto(lo, mid, where=active ^ up)
            active &= hi - lo > tol
        return 0.5 * (lo + hi), plus_lo, plus_hi

    def calibrate(self, rows: np.ndarray, cal: CalibrationConfig) -> tuple:
        """The cancellation cycles on the trials from vb = vdd: (cycles, vb,
        saturated), with (daco, step, where the decision is +1) per cycle.

        Decision +1 at zero input discharges ``vb_plus`` (speeding the
        lagging plus side), -1 discharges ``vb_minus``. Body voltages clamp
        at ground with a saturation flag.
        """
        config = self.engine.config
        vdd = config.vdd
        vcm = cal.v_ref_input if cal.v_ref_input is not None else vdd / 2.0
        t_period = _resolve_period(cal, config)
        vb, zero = np.full((2, rows.size), vdd), np.zeros(rows.size)
        live, saturated = np.ones(rows.size, dtype=bool), np.zeros(rows.size, dtype=bool)
        cycles = []
        for _ in range(cal.n_phases):
            for tn in range(1, cal.n_cycles + 1):
                plus = self.plus(rows, zero, vcm, vb, self.guard(rows, vcm, vb, 0.0), live)
                daco = dac_output(tn, cal, vdd)
                step = cp_step(daco, cal, t_period)
                vb = np.where(np.array((~plus, plus)), vb - step, vb)
                below = vb < 0.0
                saturated |= below.any(axis=0)
                vb = np.where(below, 0.0, vb)
                cycles.append((daco, step, plus))
        return cycles, vb, saturated


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
