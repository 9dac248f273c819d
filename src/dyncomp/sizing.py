"""Power-delay balance condition of the shutdown chain and width sweeps.

The shutdown chain should cut the tail exactly when the latch decision is
done, which balances the chain delay against the latch regeneration delay.
In normalized widths x = W_pi/W_ni and y = W_p3/W_ni (minimum-size buffer
NMOS, equal oxide capacitances, mu_n = 2*mu_p, W_n6 = W_p8 = 2*W_n3) the
condition reads x/2 + alpha*y/x = 2 with x, y >= 1.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

from .engine import (ComparatorConfig, ComparatorEngine, NodeCaps, OperatingPoint)
from .errors import ConfigError, SimulationError


@dataclass(frozen=True)
class SizingVars:
    """Normalized buffer widths and the switch turn-off margin."""

    x: float
    y: float
    alpha: float

    def __post_init__(self):
        if self.x < 1.0 or self.y < 1.0:
            raise ConfigError("x and y must be >= 1 (minimum-size reference width)")
        if self.alpha < 1.0:
            raise ConfigError("alpha must be >= 1")


@dataclass(frozen=True)
class WidthSweepPoint:
    w: float
    t_dm: float
    power: float
    late: bool = False
    failed: bool = False


def normalized_balance_residual(v: SizingVars) -> float:
    """Signed residual x/2 + alpha*y/x - 2 of the normalized balance condition."""
    return v.x / 2.0 + v.alpha * v.y / v.x - 2.0


def general_balance_residual(caps: NodeCaps, beta_ni: float, beta_pi: float,
                             beta_n3: float, alpha: float) -> float:
    """Un-normalized balance residual, seconds-like (F*V^2/A).

    Positive means the chain shuts the preamp down after the latch decision
    (late, extra power); negative means before it (early, extra delay).
    """
    if min(beta_ni, beta_pi, beta_n3) <= 0:
        raise ConfigError("all beta values must be > 0")
    return caps.c_pi / beta_ni + alpha * caps.c_p3 / beta_pi - caps.c_latch / beta_n3


def balance_residual_for(config: ComparatorConfig, op: OperatingPoint | None = None) -> float:
    """General balance residual evaluated on a comparator configuration."""
    from .devices import beta
    engine = ComparatorEngine(config)
    op = op or OperatingPoint(vcm=config.vdd / 2.0)
    nparams, pparams = engine.params_at(op)
    return general_balance_residual(
        engine.node_caps(),
        beta_ni=beta(config.geoms["Mni2"], nparams),
        beta_pi=beta(config.geoms["Mpi4"], pparams),
        beta_n3=beta(config.geoms["Mn3"], nparams),
        alpha=config.alpha,
    )


def _grid(lo: float, hi: float, step: float) -> list[float]:
    # Build the grid from integer numerators when 1/step is integral so that
    # round values like 1.5 or 2.0 land exactly on grid points.
    inv = 1.0 / step
    if abs(inv - round(inv)) < 1e-9:
        den = round(inv)
        return [k / den for k in range(math.ceil(lo * den - 1e-9), math.floor(hi * den + 1e-9) + 1)]
    n = int(math.floor((hi - lo) / step + 1e-9))
    return [lo + k * step for k in range(n + 1)]


def solve_sizing(alpha: float, x_max: float = 4.0, y_max: float = 4.0,
                 grid_step: float = 0.01) -> SizingVars:
    """Grid-search the (x, y) minimizing |normalized_balance_residual|.

    Ties go to the smallest x, then y (smaller devices cost less power). The
    residual rises with y: only the two grid y around x*(2 - x/2)/alpha can win.
    """
    if x_max < 1.0 or y_max < 1.0:
        raise ConfigError("bounds must be >= 1")
    if grid_step <= 0.0:
        raise ConfigError("grid_step must be > 0")
    if not alpha >= 1.0:
        raise ConfigError("alpha must be >= 1")
    ys = _grid(1.0, y_max, grid_step)
    best = None
    best_err = math.inf
    for x in _grid(1.0, x_max, grid_step):
        i = bisect.bisect_left(ys, x * (2.0 - x / 2.0) / alpha)
        for y in ys[max(i - 1, 0):i + 1]:
            err = abs(x / 2.0 + alpha * y / x - 2.0)
            if err < best_err:
                best_err = err
                best = (x, y)
    return SizingVars(x=best[0], y=best[1], alpha=alpha)


_SWEEP_TARGETS = ("preamp", "inv_n", "inv_both")


def scaled_config(config: ComparatorConfig, target: str, w: float) -> ComparatorConfig:
    """Rebuild the geometry set with the target block rescaled to width ``w``.

    preamp: input pair at w, tail device at 2*w. inv_n: the buffer NMOS
    devices. inv_both: NMOS and PMOS buffer devices together, keeping the
    two stages matched.
    """
    if target not in _SWEEP_TARGETS:
        raise ConfigError(f"unknown sweep target {target!r}; expected one of {_SWEEP_TARGETS}")
    if target == "preamp":
        scaled = {"Mp4": w, "Mp5": w, "Mp1": 2.0 * w}
    elif target == "inv_n":
        scaled = {n: w for n in ("Mni1", "Mni2", "Mni3", "Mni4")}
    else:
        scaled = {n: w for n in ("Mni1", "Mni2", "Mni3", "Mni4",
                                 "Mpi1", "Mpi2", "Mpi3", "Mpi4")}
    geoms = dict(config.geoms)
    for name, width in scaled.items():
        geoms[name] = replace(geoms[name], w=width)
    return replace(config, geoms=geoms)


def width_sweep(target: str, widths, op: OperatingPoint,
                config: ComparatorConfig) -> list[WidthSweepPoint]:
    """Evaluate delay and power while one block's width is swept.

    Per-point engine failures are flagged, not fatal, so characterization
    curves survive degenerate corners of the sweep range.
    """
    points = []
    for w in widths:
        try:
            engine = ComparatorEngine(scaled_config(config, target, w))
            result = engine.simulate(op)
            points.append(WidthSweepPoint(w=w, t_dm=result.t_dm,
                                          power=result.energy.total * config.freq,
                                          late=result.late))
        except (SimulationError, ConfigError):
            points.append(WidthSweepPoint(w=w, t_dm=math.nan, power=math.nan,
                                          late=True, failed=True))
    return points
