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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .devices import (ABETA_DEFAULT, AVT_DEFAULT, MismatchSample, ZERO_MISMATCH,
                      draw_mismatch, mismatch_scales)
from .engine import (OK, BodyBias, ComparatorConfig, ComparatorEngine, DecisionKernel,
                     OperatingPoint, drain_current, simulate_grid, typical_op)
from .errors import (AT_LEAST_1, POSITIVE, ConfigError, OffsetSpanError, Ranged, SimulationError,
                     checked)


@dataclass(frozen=True)
class CalibrationConfig(Ranged):
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

    # Each ranged field's rule (each dac_caps entry's); config reads its keys' ranges here.
    RULES = {"n_cycles": AT_LEAST_1, "n_phases": AT_LEAST_1, "cb": POSITIVE, "c0": POSITIVE,
             "dac_caps": POSITIVE, "cp_beta": POSITIVE, "t_period": POSITIVE,
             "tol_os": POSITIVE, "span": POSITIVE}


class CalibrationState(NamedTuple):
    """Loop state after the last executed cycle."""

    vb_plus: float
    vb_minus: float
    history: tuple[tuple[int, float, float, int], ...]  # (cycle, daco, step, s)


class CalibrationResult(NamedTuple):
    state: CalibrationState
    offset_before: float
    offset_after: float
    converged: bool             # |offset_after| <= the nominal residual_bound
    saturated: bool             # a body voltage clamped at ground


class OffsetStats(NamedTuple):
    """Aggregate offset statistics of one Monte Carlo run."""

    n: int
    mean: float
    sigma: float
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    span_errors: int = 0


def measure_offset(engine: ComparatorEngine, op: OperatingPoint | None = None,
                   mismatch: MismatchSample = ZERO_MISMATCH,
                   body: BodyBias | None = None, tol: float = CalibrationConfig.tol_os,
                   span: float = CalibrationConfig.span) -> float:
    """Input-referred offset: the vid where the decision flips, by bisection.

    The returned value is the differential input needed to balance the
    comparator (decision +1 for vid above it, -1 below): the midpoint of the
    bisection interval from +/- span once it is no wider than ``tol`` (or
    the midpoint rounds onto an end). Raises OffsetSpanError when no flip
    exists inside +/- span, and simulate's error where a point would raise.
    """
    checked("tol", tol, CalibrationConfig.RULES["tol_os"])
    checked("span", span, CalibrationConfig.RULES["span"])
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
    return drain_current(cal.cp_beta, ov) * t_period / cal.cb


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
    draws = draw_mismatch(seed, np.arange(n), scales,
                          [2 * names.index(name) + k for name in devices for k in (0, 1)])
    mismatch = {name: (draws[:, 2 * i], draws[:, 2 * i + 1]) for i, name in enumerate(devices)}
    before, after, _ = _Batch(engine, op, mismatch, n, None, cal.tol_os,
                              cal.span).run(cal if calibrate else None)
    return before[0][_flips(before)], (after[0][_flips(after)] if calibrate else np.empty(0))


def _flips(walk: tuple) -> np.ndarray:
    """Where a bisection whose fields end (plus at -span, plus at +span, live)
    flips inside the span with no point of it raised."""
    plus_lo, plus_hi, live = walk[-3:]
    return ~plus_lo & plus_hi & live


def _offset(walk: tuple, span: float) -> float:
    """The offset of a one-trial bisection, or its OffsetSpanError."""
    offset, plus_lo, plus_hi, _ = (x[0] for x in walk)
    if plus_lo == plus_hi:
        raise OffsetSpanError(f"decision does not flip within +/-{span} V "
                              f"(sign {1 if plus_lo else -1})")
    if plus_lo:  # decision is monotone nondecreasing in vid; this cannot happen
        raise OffsetSpanError("inverted decision polarity over the search span")
    return float(offset)


# A trial's stages in the order its points run: the bisection at the batch's
# bodies, the cancellation cycles and the bisection after them. Stage s of
# trial t is the row keyed 3*t + s.
_BEFORE, _CYCLES, _AFTER = range(3)


class _Walk(NamedTuple):
    """One bisection's rows with their end points probed: each row's fault key
    (3*trial + stage), bodies, guard (lo, hi), decisions at -span and +span,
    and whether it runs (no point of it has raised)."""

    keys: np.ndarray
    vb: np.ndarray
    guard: tuple
    plus_lo: np.ndarray
    plus_hi: np.ndarray
    live: np.ndarray


class _Batch:
    """measure_offset and the cancellation cycles over a batch of trials.

    Every decision is simulate's. Where a trial's flip point is exact, the
    decision is +1 exactly at the vids above the flip point's guard band and
    -1 below it; the other points of a step run in one simulate_grid call on
    their trials' mismatch. Body voltages are (2, rows) arrays, the minus
    side in row 0. Each stage of a trial is a keyed row (_BEFORE). A row
    stops at its first point where simulate raises; ``fault`` is (key,
    error) of the lowest such key: the lowest raising trial, at its first
    raising point in the order before, cycles, after.
    """

    def __init__(self, engine: ComparatorEngine, op: OperatingPoint, mismatch: dict, n: int,
                 body: BodyBias | None, tol: float, span: float):
        self.engine, self.op, self.mismatch, self.n = engine, op, mismatch, n
        self.tol, self.span = tol, span
        self.body = body or BodyBias(engine.config.vdd, engine.config.vdd)
        self.fault = None
        self.kernel = DecisionKernel(engine, op, mismatch)

    @classmethod
    def one(cls, engine: ComparatorEngine, op: OperatingPoint, mismatch: MismatchSample,
            body: BodyBias | None, tol: float, span: float) -> _Batch:
        """A batch of the one trial ``mismatch``."""
        columns = {name: (np.array([mismatch.delta_vth(name)]),
                          np.array([mismatch.delta_beta(name)]))
                   for name in DecisionKernel.DEVICES}
        return cls(engine, op, columns, 1, body, tol, span)

    def run(self, cal: CalibrationConfig | None = None) -> tuple:
        """(before, after, (cycles, vb, saturated)): the bisection of every
        trial, each an (offset, plus at -span, plus at +span, live) tuple, and, given
        ``cal``, the cancellation cycles and the bisection again on the
        trials that flip inside the span. The end points come first, then
        the cycles, then both bisections in one loop. Raises ``fault``'s
        error."""
        rows = np.arange(self.n)
        vb = np.array([[self.body.vb_minus], [self.body.vb_plus]]).repeat(rows.size, axis=1)
        walks = [self.ends(rows, _BEFORE, vb, np.ones(rows.size, dtype=bool))]
        state = None
        if cal is not None:
            rows = rows[_flips(walks[0])]
            live = np.ones(rows.size, dtype=bool)
            state = self.calibrate(rows, cal, live)
            walks.append(self.ends(rows, _AFTER, state[1], live))
        walk = _Walk(*(np.concatenate(field, axis=-1) for field in zip(*walks)))
        offsets = np.split(self.bisect(walk), [walks[0].keys.size])
        if self.fault is not None:
            raise self.fault[1]
        before, *after = [(offset, *w[-3:]) for offset, w in zip(offsets, walks)]
        return before, (after[0] if after else None), state

    def guard(self, rows: np.ndarray, vcm: float, vb: np.ndarray, reach: float) -> tuple:
        """(lo, hi): simulate decides -1 at a vid <= lo and +1 at a vid >= hi,
        for |vid| <= reach. The interval is the flip point's guard band where
        it is exact and reach < vdd, else the whole line."""
        flip, band, exact = self.kernel.flip_point(rows, vcm, vb)
        exact &= reach < self.kernel.vdd
        return np.where(exact, flip - band, -np.inf), np.where(exact, flip + band, np.inf)

    def plus(self, keys, vid, vcm, vb, guard, active) -> np.ndarray:
        """Where simulate decides +1 at the rows' vid, given their guard. The
        ``active`` rows inside the guard interval run one simulate_grid call,
        on the kernel's devices: the others enter only t1, t_esd, t_dm and the
        energy. The rows share the operating point's corner and temperature,
        passed as one value, which params_at resolves once; per-row corners
        or temperatures would go through devices.params_columns. Where none
        is inside, no call runs. The lowest key whose row faults stops there,
        leaving ``active``. No row keyed above the fault runs: its error
        would not be the one raised."""
        lo, hi = guard
        plus = vid >= hi
        run = active & (vid > lo) & (vid < hi)
        if self.fault is not None:
            run &= keys < self.fault[0]
        if not np.count_nonzero(run):
            return plus
        run = run.nonzero()[0]
        n, trials, op = run.size, keys[run] // 3, self.op
        grid = simulate_grid(self.engine, vid[run], np.full(n, vcm), np.full(n, self.kernel.vdd),
                             op.corner, op.t_kelvin,
                             mismatch={name: (dvth[trials], dbeta[trials])
                                       for name, (dvth, dbeta) in self.mismatch.items()},
                             vb_plus=vb[1, run], vb_minus=vb[0, run])
        plus[run] = grid.decision > 0
        faulted = (grid.fault != OK).nonzero()[0]
        if faulted.size:
            j = faulted[keys[run[faulted]].argmin()]
            active[run[j]] = False
            try:
                grid.raise_row(int(j))
            except (ConfigError, SimulationError) as exc:
                self.fault = (int(keys[run[j]]), exc)
        return plus

    def ends(self, rows: np.ndarray, stage: int, vb: np.ndarray, live: np.ndarray) -> _Walk:
        """The trials' bisection at bodies ``vb`` with its end points probed
        on the ``live`` trials; a trial whose probe raises leaves ``live``."""
        keys, span, vcm = 3 * rows + stage, self.span, self.op.vcm
        guard = self.guard(rows, vcm, vb, span)
        plus_lo = self.plus(keys, np.full(rows.size, -span), vcm, vb, guard, live)
        plus_hi = self.plus(keys, np.full(rows.size, span), vcm, vb, guard, live)
        return _Walk(keys, vb, guard, plus_lo, plus_hi, live)

    def bisect(self, walk: _Walk) -> np.ndarray:
        """measure_offset's bisection from +/- span on the rows that flip: the offsets.

        A first walk decides ``mid >= hi`` of each row's guard and runs no
        simulate. That is simulate's decision until a row's walk meets a
        point inside its guard band. There the walk goes down, so the point,
        above the band's lower edge and above -span, becomes lo, and lo never
        falls. Only rows that end with such a lo (with every row that is not
        exact and took a step) walk again, on ``plus``."""
        glo, ghi = walk.guard
        lo, hi = self.walk(walk, lambda mid, active: mid >= ghi)
        again = (lo > np.maximum(glo, -self.span)).nonzero()[0]
        if again.size:
            rows = _Walk(walk.keys[again], walk.vb[:, again], (glo[again], ghi[again]),
                         walk.plus_lo[again], walk.plus_hi[again], walk.live[again])
            lo[again], hi[again] = self.walk(rows, lambda mid, active: self.plus(
                rows.keys, mid, self.op.vcm, rows.vb, rows.guard, active))
        return 0.5 * (lo + hi)

    def walk(self, walk: _Walk, decide) -> tuple:
        """(lo, hi) of the bisection from +/- span on the rows that flip, each
        step going up where ``decide(mid, active)``, to tol or a midpoint on an end."""
        tol, span = self.tol, self.span
        lo, hi = np.full(walk.keys.size, -span), np.full(walk.keys.size, span)
        mid = 0.5 * (lo + hi)
        active = _flips(walk) & (hi - lo > tol)
        while np.count_nonzero(active):
            up = decide(mid, active) & active
            np.putmask(hi, up, mid)
            np.putmask(lo, active ^ up, mid)
            mid = 0.5 * (lo + hi)
            active &= (hi - lo > tol) & (lo < mid) & (mid < hi)
        return lo, hi

    def calibrate(self, rows: np.ndarray, cal: CalibrationConfig, live: np.ndarray) -> tuple:
        """The cancellation cycles on the ``live`` trials from vb = vdd: (cycles,
        vb, saturated), with (daco, step, where the decision is +1) per cycle.
        A trial whose cycle raises leaves ``live``.

        Decision +1 at zero input discharges ``vb_plus`` (speeding the
        lagging plus side), -1 discharges ``vb_minus``. Body voltages clamp
        at ground with a saturation flag.
        """
        config = self.engine.config
        vdd = config.vdd
        vcm = cal.v_ref_input if cal.v_ref_input is not None else vdd / 2.0
        t_period = _resolve_period(cal, config)
        keys, vb, zero = 3 * rows + _CYCLES, np.full((2, rows.size), vdd), np.zeros(rows.size)
        saturated = np.zeros(rows.size, dtype=bool)
        cycles = []
        for _ in range(cal.n_phases):
            for tn in range(1, cal.n_cycles + 1):
                plus = self.plus(keys, zero, vcm, vb, self.guard(rows, vcm, vb, 0.0), live)
                daco = dac_output(tn, cal, vdd)
                step = cp_step(daco, cal, t_period)
                np.subtract(vb, step, out=vb, where=np.array((~plus, plus)))
                below = vb < 0.0
                saturated |= below[0] | below[1]
                np.putmask(vb, below, 0.0)
                cycles.append((daco, step, plus))
        return cycles, vb, saturated


def _offset_stats(n: int, offsets: list[float]) -> OffsetStats:
    """The offsets' statistics, with np.histogram's counts in 40 bins over their range."""
    arr = np.asarray(offsets, dtype=float)
    if arr.size == 0:
        raise OffsetSpanError("every trial exceeded the offset search span")
    # The ufunc steps of arr.mean(), and of arr.std(ddof=1) after its own mean.
    mean = float(np.add.reduce(arr) / arr.size)
    dev = arr - mean
    dev *= dev
    sigma = math.sqrt(np.add.reduce(dev) / (arr.size - 1)) if arr.size > 1 else 0.0
    ordered = np.sort(arr)
    lo, hi = float(ordered[0]), float(ordered[-1])
    for pad in (1e-6, 0.5):  # ours, then np.histogram's where ours rounds away
        if lo == hi:
            lo, hi = lo - pad, hi + pad
    # The steps of np.linspace(lo, hi, 41) wherever np.histogram has 40 bins.
    edges = np.arange(41.0)
    edges *= (hi - lo) / 40
    edges += lo
    edges[-1] = hi
    below = ordered.searchsorted(edges)  # offsets below each edge
    below[-1] = ordered.size
    return OffsetStats(n=n, mean=mean, sigma=sigma,
                       bin_edges=tuple(edges.tolist()), counts=tuple(np.diff(below).tolist()),
                       span_errors=n - arr.size)
