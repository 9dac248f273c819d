"""Power-delay balance condition of the shutdown chain and width sweeps.

The shutdown chain should cut the tail exactly when the latch decision is
done, which balances the chain delay against the latch regeneration delay.
In normalized widths x = W_pi/W_ni and y = W_p3/W_ni (minimum-size buffer
NMOS, equal oxide capacitances, mu_n = 2*mu_p, W_n6 = W_p8 = 2*W_n3) the
condition reads x/2 + alpha*y/x = 2 with x, y >= 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .devices import beta
from .engine import ComparatorConfig, ComparatorEngine, NodeCaps, OperatingPoint, typical_op
from .errors import AT_LEAST_1, POSITIVE, ConfigError, Ranged, SimulationError, checked


@dataclass(frozen=True)
class SizingVars(Ranged):
    """Normalized buffer widths and the switch turn-off margin."""

    x: float
    y: float
    alpha: float

    # No width below the minimum-size reference; the comparator's own alpha range.
    RULES = {"x": AT_LEAST_1, "y": AT_LEAST_1, "alpha": ComparatorConfig.RULES["alpha"]}


class WidthSweepPoint(NamedTuple):
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
    for name, value in (("beta_ni", beta_ni), ("beta_pi", beta_pi), ("beta_n3", beta_n3)):
        checked(name, value, POSITIVE)
    checked("alpha", alpha, ComparatorConfig.RULES["alpha"])
    return caps.c_pi / beta_ni + alpha * caps.c_p3 / beta_pi - caps.c_latch / beta_n3


def balance_residual_for(config: ComparatorConfig, op: OperatingPoint | None = None) -> float:
    """General balance residual evaluated on a comparator configuration."""
    engine = ComparatorEngine(config)
    op = op or typical_op(config)
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
    """Grid-search the (x, y) minimizing |normalized_balance_residual|, in one array pass.

    The residual rises with y: at each grid x only the two grid y around
    x*(2 - x/2)/alpha can win, the last below it and the first at or above it
    (``searchsorted``, left side). Ties go to the smallest x, then y (smaller
    devices cost less power): the first minimum in (x, y) order wins.
    """
    checked("x_max", x_max, AT_LEAST_1)
    checked("y_max", y_max, AT_LEAST_1)
    checked("grid_step", grid_step, POSITIVE)
    alpha_ok, alpha_rule = SizingVars.RULES["alpha"]
    if not alpha_ok(alpha):
        raise ConfigError(f"alpha {alpha_rule}")
    if alpha == math.inf:
        raise ConfigError("alpha must be finite")
    xs, ys = np.array(_grid(1.0, x_max, grid_step)), np.array(_grid(1.0, y_max, grid_step))
    i = np.searchsorted(ys, xs * (2.0 - xs / 2.0) / alpha, side="left")
    # Each x's two candidates: the same y twice where the target lies outside the y grid.
    x, y = xs[:, None], ys[np.stack((np.maximum(i - 1, 0), np.minimum(i, ys.size - 1)), axis=1)]
    err = np.abs(x / 2.0 + alpha * y / x - 2.0)
    best = np.unravel_index(err.argmin(), err.shape)
    return SizingVars(x=float(xs[best[0]]), y=float(y[best]), alpha=alpha)


# Each width target's devices, with the factor on the swept width w of each:
# the input pair at w and the tail device at 2*w, the buffer NMOS devices, or
# the NMOS and PMOS buffer devices together, keeping the two stages matched.
WIDTH_TARGETS = {
    "preamp": {"Mp4": 1, "Mp5": 1, "Mp1": 2},
    "inv_n": dict.fromkeys(("Mni1", "Mni2", "Mni3", "Mni4"), 1),
    "inv_both": dict.fromkeys(("Mni1", "Mni2", "Mni3", "Mni4", "Mpi1", "Mpi2", "Mpi3", "Mpi4"), 1),
}


def target_widths(target: str, w) -> dict:
    """Each device of the width ``target`` at the swept width ``w`` (or per-row widths)."""
    if target not in WIDTH_TARGETS:
        raise ConfigError(f"unknown sweep target {target!r}; "
                          f"expected one of {tuple(WIDTH_TARGETS)}")
    return {name: factor * w for name, factor in WIDTH_TARGETS[target].items()}


def scaled_config(config: ComparatorConfig, target: str, w: float) -> ComparatorConfig:
    """The configuration with the width ``target`` at ``w`` (WIDTH_TARGETS)."""
    geoms = dict(config.geoms)
    for name, width in target_widths(target, w).items():
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
