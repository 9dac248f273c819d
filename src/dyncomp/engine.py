"""Single-cycle behavioral model of the early-shutdown double-tail comparator.

The preamplifier is treated as a constant-current integrator: both output
nodes ramp linearly at I/C until they cross the NMOS threshold of the stage
they drive. The side crossing first fixes the decision, the latch adds an
inverter-style regeneration delay, and the shutdown buffer chain on the
leading side sets the instant the tail current is cut.

Decision convention: a positive differential input drives the inverting-side
preamp output high first, the positive latch output ends high and the
decision is +1. The input device on that inverting side is Mp4 (gate at
vcm - vid/2, body ``vb_minus``); Mp5 is its mirror (gate at vcm + vid/2,
body ``vb_plus``). Lowering a body voltage below the supply forward-biases
that device and speeds its side up.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from . import devices as dev
from .devices import (DeviceParams, MismatchSample, TransistorGeom, ZERO_MISMATCH,
                      CORNERS, CornerSpec, beta, gate_cap, threshold)
from .errors import ConfigError, NoDecisionError

# Geometry pairs that must stay symmetric for the two half-circuits.
_SYMMETRIC_PAIRS = (
    ("Mn1", "Mn2"), ("Mn3", "Mn4"), ("Mn5", "Mn6"), ("Mni2", "Mni3"),
    ("Mni1", "Mni4"), ("Mp2", "Mp3"), ("Mp4", "Mp5"), ("Mp6", "Mp9"),
    ("Mp7", "Mp8"), ("Mpi1", "Mpi4"), ("Mpi2", "Mpi3"),
)
# Every device of the modeled circuit: the tail device and the pairs.
_DEVICES = ("Mp1",) + tuple(name for pair in _SYMMETRIC_PAIRS for name in pair)

EXTRA_NODES = ("out", "pi", "p3", "latch")


@dataclass(frozen=True)
class ComparatorConfig:
    """Static description of one comparator instance."""

    geoms: Mapping[str, TransistorGeom] = field(default_factory=dev.default_geometry)
    nmos: DeviceParams = dev.DEFAULT_NMOS
    pmos: DeviceParams = dev.DEFAULT_PMOS
    vdd: float = 1.8
    freq: float = 333e6
    alpha: float = 1.5                  # shutdown-switch turn-off multiplier
    extra_load: Mapping[str, float] = field(default_factory=dict)
    early_shutdown_enabled: bool = True
    tail_derating: float = 0.02         # series on-switch loss of tail current
    tie_break: int = +1

    def __post_init__(self):
        if self.vdd <= 0:
            raise ConfigError("vdd must be > 0")
        if self.freq <= 0:
            raise ConfigError("freq must be > 0")
        if self.alpha < 1.0:
            raise ConfigError("alpha must be >= 1")
        if not 0.0 <= self.tail_derating < 1.0:
            raise ConfigError("tail_derating must be in [0, 1)")
        if self.tie_break not in (+1, -1):
            raise ConfigError("tie_break must be +1 or -1")
        for node in self.extra_load:
            if node not in EXTRA_NODES:
                raise ConfigError(f"unknown extra_load node {node!r}; expected one of {EXTRA_NODES}")

    @property
    def window(self) -> float:
        """Comparison window: half the clock period (50% duty)."""
        return 0.5 / self.freq


@dataclass(frozen=True)
class OperatingPoint:
    """Inputs and environment of one comparison."""

    vid: float = 50e-3                  # differential input, V (signed)
    vcm: float = 0.9                    # common-mode input, V
    corner: CornerSpec = CORNERS["TT"]
    t_kelvin: float = 300.15
    vdd_override: float | None = None


@dataclass(frozen=True)
class BodyBias:
    """Tuned body voltages of the input pair."""

    vb_plus: float
    vb_minus: float


@dataclass(frozen=True)
class NodeCaps:
    """Lumped node capacitances derived from the geometry set."""

    c_out: float        # preamp output: latch NMOS gate + buffer NMOS gate
    c_pi: float         # first buffer stage output: gate of the buffer PMOS
    c_p3: float         # second buffer stage output: one parallel tail-switch gate
    c_latch: float      # latch output: cross-coupled PMOS gate + latch NMOS gate


@dataclass(frozen=True)
class EnergyBreakdown:
    e_preamp: float
    e_latch: float
    e_ddvb: float       # shutdown buffer chain overhead (both sides)
    e_reset: float
    total: float


@dataclass(frozen=True)
class ComparisonResult:
    decision: int               # +1 -> Vo+ ends high, -1 -> Vo- ends high
    t0: float                   # leading preamp output crossing the latch threshold, s
    t1: float                   # leading preamp output crossing the buffer threshold, s
    t_esd: float                # tail cutoff instant of the shutdown chain, s
    t_dm: float                 # overall decision delay t0 + latch regeneration, s
    shutdown_occurred: bool
    late: bool                  # decision completes after the comparison window
    i_tail: float               # tail current before shutdown, A
    energy: EnergyBreakdown | None = None


def inverter_delay(c_load: float, beta_eff: float, vdd: float) -> float:
    """Dynamic single-input inverter propagation delay 1.6*C/(beta*Vdd)."""
    return 1.6 * c_load / (beta_eff * vdd)


class ComparatorEngine:
    """Immutable evaluation engine for one ComparatorConfig.

    Every method is a pure function of its arguments, so engines can be
    shared freely across threads and Monte Carlo trials.
    """

    def __init__(self, config: ComparatorConfig):
        self.config = config
        for name in _DEVICES:
            if name not in config.geoms:
                raise ConfigError(f"geometry set is missing transistor {name!r}")
        for a, b in _SYMMETRIC_PAIRS:
            ga, gb = config.geoms[a], config.geoms[b]
            if ga.w != gb.w or ga.l != gb.l:
                raise ConfigError(f"asymmetric pair {a}/{b}: {ga.w}x{ga.l} vs {gb.w}x{gb.l}")
        self._caps = self._node_caps()

    # -- static structure ---------------------------------------------------

    def _node_caps(self) -> NodeCaps:
        cfg = self.config
        extra = cfg.extra_load
        g = cfg.geoms
        cap = lambda name: gate_cap(g[name], cfg.nmos if g[name].polarity == dev.NMOS else cfg.pmos)
        c_out = cap("Mn3") + cap("Mni2") + extra.get("out", 0.0)
        c_pi = cap("Mpi1") + extra.get("pi", 0.0)
        # The two parallel tail switches split between the two buffer chains:
        # each chain drives one switch gate.
        c_p3 = 0.5 * (cap("Mp2") + cap("Mp3")) + extra.get("p3", 0.0)
        c_latch = cap("Mp8") + cap("Mn6") + extra.get("latch", 0.0)
        return NodeCaps(c_out=c_out, c_pi=c_pi, c_p3=c_p3, c_latch=c_latch)

    def node_caps(self) -> NodeCaps:
        return self._caps

    # -- operating-point resolution ------------------------------------------

    def supply(self, op: OperatingPoint) -> float:
        return self.config.vdd if op.vdd_override is None else op.vdd_override

    def params_at(self, op: OperatingPoint) -> tuple[DeviceParams, DeviceParams]:
        """(nmos, pmos) parameters after corner and temperature adjustment."""
        n = dev.apply_corner(self.config.nmos, op.corner)
        p = dev.apply_corner(self.config.pmos, op.corner)
        try:
            return dev.apply_temperature(n, op.t_kelvin), dev.apply_temperature(p, op.t_kelvin)
        except ConfigError as exc:
            raise ConfigError(f"temp_c={op.t_kelvin - 273.15:g} at corner {op.corner.name}: "
                              f"{exc}") from None

    def validate_op(self, op: OperatingPoint, vdd: float):
        """Raise ConfigError if vcm or vid is out of range at the supply vdd."""
        if not 0.0 <= op.vcm <= vdd:
            raise ConfigError(f"vcm={op.vcm} outside [0, vdd={vdd}]")
        if abs(op.vid) >= vdd:
            raise ConfigError(f"|vid|={abs(op.vid)} must be below vdd={vdd}")

    # -- currents -------------------------------------------------------------

    def tail_current(self, op: OperatingPoint, pparams: DeviceParams,
                     mismatch: MismatchSample = ZERO_MISMATCH) -> float:
        """Tail current before shutdown at the PMOS parameters ``pparams``, derating included."""
        vdd = self.supply(op)
        b = beta(self.config.geoms["Mp1"], pparams) * (1.0 + mismatch.delta_beta("Mp1"))
        vth = threshold(pparams, 0.0, mismatch.delta_vth("Mp1"))
        ov = vdd - vth
        if ov <= 0.0:
            return 0.0
        return 0.5 * b * ov * ov * (1.0 - self.config.tail_derating)

    def branch_currents(self, op: OperatingPoint, pparams: DeviceParams, i_tail: float,
                        vth_minus: float, vth_plus: float,
                        mismatch: MismatchSample = ZERO_MISMATCH) -> tuple[float, float]:
        """(I_minus, I_plus) of the input pair, clamped by the tail current ``i_tail``.

        ``vth_minus``/``vth_plus`` are the per-side input-device thresholds
        already including mismatch and body shift.
        """
        vdd = self.supply(op)
        b4 = beta(self.config.geoms["Mp4"], pparams) * (1.0 + mismatch.delta_beta("Mp4"))
        b5 = beta(self.config.geoms["Mp5"], pparams) * (1.0 + mismatch.delta_beta("Mp5"))
        ov_minus = vdd - (op.vcm - op.vid / 2.0) - vth_minus
        ov_plus = vdd - (op.vcm + op.vid / 2.0) - vth_plus
        i_minus = 0.5 * b4 * ov_minus * ov_minus if ov_minus > 0.0 else 0.0
        i_plus = 0.5 * b5 * ov_plus * ov_plus if ov_plus > 0.0 else 0.0
        total = i_minus + i_plus
        if total > i_tail:
            scale = i_tail / total
            i_minus *= scale
            i_plus *= scale
        return i_minus, i_plus

    # -- full cycle -------------------------------------------------------------

    def simulate(self, op: OperatingPoint, mismatch: MismatchSample = ZERO_MISMATCH,
                 body: BodyBias | None = None) -> ComparisonResult:
        """Run one precharge + comparison cycle and return the full result.

        Late decisions (t_dm beyond the window) are flagged, not raised, so
        sweeps near the common-mode limit can complete and report the stall.
        """
        cfg = self.config
        vdd = self.supply(op)
        self.validate_op(op, vdd)
        if body is None:
            body = BodyBias(vdd, vdd)
        if not (0.0 <= body.vb_plus <= vdd and 0.0 <= body.vb_minus <= vdd):
            raise ConfigError(f"body voltages {body} outside [0, vdd={vdd}]")

        nparams, pparams = self.params_at(op)
        caps = self._caps
        geoms = cfg.geoms

        vth_minus = threshold(pparams, body.vb_minus - vdd, mismatch.delta_vth("Mp4"))
        vth_plus = threshold(pparams, body.vb_plus - vdd, mismatch.delta_vth("Mp5"))
        i_tail = self.tail_current(op, pparams, mismatch)
        i_minus, i_plus = self.branch_currents(op, pparams, i_tail, vth_minus, vth_plus, mismatch)

        def crossing(i_side: float, vth_sense: float) -> float:
            if i_side <= 0.0 or vth_sense <= 0.0:
                return math.inf
            return vth_sense * caps.c_out / i_side

        t0_minus = crossing(i_minus, threshold(nparams, 0.0, mismatch.delta_vth("Mn3")))
        t0_plus = crossing(i_plus, threshold(nparams, 0.0, mismatch.delta_vth("Mn4")))

        if t0_minus < t0_plus:
            decision = +1
        elif t0_plus < t0_minus:
            decision = -1
        else:
            decision = cfg.tie_break
        lead_minus = decision > 0

        t0 = t0_minus if lead_minus else t0_plus
        window = cfg.window
        if not math.isfinite(t0) or t0 > window:
            raise NoDecisionError(
                f"no preamp crossing within the {window:.3e} s window (t0={t0:.3e})")

        # Shutdown chain on the leading side.
        sense = "Mni2" if lead_minus else "Mni3"
        buf_p = "Mpi1" if lead_minus else "Mpi4"
        i_lead = i_minus if lead_minus else i_plus
        t1 = crossing(i_lead, threshold(nparams, 0.0, mismatch.delta_vth(sense)))
        b_ni = beta(geoms[sense], nparams) * (1.0 + mismatch.delta_beta(sense))
        b_pi = beta(geoms[buf_p], pparams) * (1.0 + mismatch.delta_beta(buf_p))
        t_esd = t1 + inverter_delay(caps.c_pi, b_ni, vdd) \
            + cfg.alpha * inverter_delay(caps.c_p3, b_pi, vdd)

        latch_n = "Mn3" if lead_minus else "Mn4"
        b_n3 = beta(geoms[latch_n], nparams) * (1.0 + mismatch.delta_beta(latch_n))
        t_dm = t0 + inverter_delay(caps.c_latch, b_n3, vdd)

        # Designed regime: the chain fires only after the latch crossing, so
        # cutting the tail never blocks the decision. Flag the stall if a
        # configuration ever inverts the race.
        late = t_dm > window or t_esd < t0
        shutdown_occurred = cfg.early_shutdown_enabled and t_esd <= window

        result = ComparisonResult(decision=decision, t0=t0, t1=t1, t_esd=t_esd,
                                  t_dm=t_dm, shutdown_occurred=shutdown_occurred,
                                  late=late, i_tail=i_tail)
        return replace(result, energy=self.energy_per_comparison(result, op))

    def energy_per_comparison(self, result: ComparisonResult, op: OperatingPoint) -> EnergyBreakdown:
        """Supply energy of one full cycle, split by subcircuit.

        Without shutdown the preamp tail conducts for the whole comparison
        window; with shutdown it stops at t_esd. The buffer-chain overhead is
        only spent when the chain actually fires.
        """
        vdd = self.supply(op)
        caps = self._caps
        window = self.config.window
        t_eff = result.t_esd if result.shutdown_occurred else window
        e_preamp = vdd * result.i_tail * min(t_eff, window)
        e_latch = caps.c_latch * vdd * vdd
        e_ddvb = 2.0 * (caps.c_pi + caps.c_p3) * vdd * vdd if result.shutdown_occurred else 0.0
        e_reset = 2.0 * caps.c_out * vdd * vdd
        total = e_preamp + e_latch + e_ddvb + e_reset
        return EnergyBreakdown(e_preamp=e_preamp, e_latch=e_latch, e_ddvb=e_ddvb,
                               e_reset=e_reset, total=total)


class DecisionKernel:
    """The vid where ``simulate(op, mismatch, body).decision`` flips, over a
    batch of trials.

    The engine and the operating point's corner, temperature and supply are
    shared; each trial (row) has its own mismatch, given per device as a
    (delta_vth, delta_beta) pair of arrays over the rows. Only the devices in
    ``DEVICES`` enter the decision. Raises ConfigError, as every simulate
    would, when the corner and temperature leave invalid device parameters.
    Overflow to inf passes silently, as in Python floats. Per-side arrays
    hold the minus side (Mp4, Mn3) in row 0 and the plus side in row 1.
    """

    DEVICES = ("Mp1", "Mp4", "Mp5", "Mn3", "Mn4")
    _SIGN = np.array([[1.0], [-1.0]])  # the minus side's gate is at vcm - vid/2

    def __init__(self, engine: ComparatorEngine, op: OperatingPoint,
                 mismatch: Mapping[str, tuple[np.ndarray, np.ndarray]]):
        cfg = engine.config
        nparams, pparams = engine.params_at(op)
        self.vdd = vdd = engine.supply(op)
        self.pparams = pparams
        self.window = cfg.window
        self.c_out = c_out = engine.node_caps().c_out

        def mismatched_beta(name: str) -> np.ndarray:
            return beta(cfg.geoms[name], pparams) * (1.0 + mismatch[name][1])

        with np.errstate(all="ignore"):
            ov = vdd - (threshold(pparams) + mismatch["Mp1"][0])
            i_tail = 0.5 * mismatched_beta("Mp1") * ov * ov * (1.0 - cfg.tail_derating)
            b = np.stack((mismatched_beta("Mp4"), mismatched_beta("Mp5")))
            vth_sense = threshold(nparams) + np.stack((mismatch["Mn3"][0], mismatch["Mn4"][0]))
            # flip_point's k = sqrt(beta / vth_sense); NaN where it is not real.
            self.k = np.where((b > 0.0) & (vth_sense > 0.0), np.sqrt(b / vth_sense), np.nan)
            # The clamped t0 at vid*; inf where the tail conducts nothing.
            self.t_clamp = np.where((ov > 0.0) & (i_tail > 0.0),
                                    c_out * vth_sense.sum(axis=0) / i_tail, np.inf)
        self.dvth = np.stack((mismatch["Mp4"][0], mismatch["Mp5"][0]))

    def flip_point(self, rows: np.ndarray, vcm: float, vb_plus: np.ndarray,
                   vb_minus: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(vid*, band, exact) of the trials ``rows`` at their body voltages.

        The tail clamp scales both branch currents alike, so the minus side
        crosses first (+1) exactly where k-*ov- > k+*ov+, k = sqrt(b/vth_sense):
        above vid* = 2*(k+*(A - vth+) - k-*(A - vth-))/(k- + k+), A = vdd - vcm.
        Where ``exact``, simulate raises at no vid with |vid| < vdd and
        decides sign(vid - vid*) at every such vid outside
        [vid* - band, vid* + band].
        """
        vdd = self.vdd
        a = vdd - vcm
        vb = np.array((vb_minus, vb_plus))
        with np.errstate(all="ignore"):
            vth, beyond = self._thresholds(rows, vb)
            k = self.k[:, rows]
            k_ov = k * (a - vth)
            vid = 2.0 * (k_ov[1] - k_ov[0]) / (k[0] + k[1])
            # Guard band, u = 2**-53, S = vdd + |vcm| + |vid*| + |vth-| + |vth+|:
            # simulate forms each overdrive in three roundings (error <= 3uS),
            # and each crossing time with a relative error <= 2*3uS/ov + 5u.
            # The two times differ by the relative (k- + k+)*|vid - vid*|/(k*ov),
            # so simulate orders them right once |vid - vid*| > 6uS + 10uS.
            # vid* above errs by <= 14uS. The band, 256uS, is eight times the sum.
            band = 2.0 ** -45 * (vdd + abs(vcm) + np.abs(vid) + np.abs(vth).sum(axis=0))
            ov = a + self._SIGN * (vid / 2.0) - vth
            # Simulate's t0 on the leading side, c_out*vth_sense/i, times
            # total/i_tail where the tail clamps, falls as vid leaves vid*.
            # At vid* both sides have i/vth_sense = (k*ov)**2/2, so t0 peaks at
            # c_out*max(2/(k*ov)**2, (vth_sense- + vth_sense+)/i_tail); the
            # smaller k*ov of the two sides covers vid*'s error. Simulate's t0
            # at any vid exceeds the peak by a relative <= 12uS/ov + 10u, ov
            # the smaller overdrive at vid*, and this bound errs by <= 6uS/ov
            # + 8u: together less than band/ov, as ov <= S.
            t0 = np.maximum(2.0 * self.c_out / (k * ov).min(axis=0) ** 2, self.t_clamp[rows])
            exact = ((ov > band).all(axis=0) & ~beyond
                     & (t0 * (1.0 + band / ov.min(axis=0)) <= self.window)
                     & ((0.0 <= vb) & (vb <= vdd)).all(axis=0) & (0.0 <= vcm <= vdd))
        return vid, band, exact

    def _thresholds(self, rows: np.ndarray, vb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The input thresholds at the body voltages ``vb`` (one row per side),
        and the trials where threshold() raises BodyBiasError instead."""
        p = self.pparams
        arg = p.phi2f + (vb - self.vdd)
        vth = p.vth0 + p.gamma * (np.sqrt(arg) - math.sqrt(p.phi2f)) + self.dvth[:, rows]
        return vth, (arg <= 0.0).any(axis=0)


def typical_op(config: ComparatorConfig, vid: float = 50e-3, **overrides) -> OperatingPoint:
    """Operating point at the standard conditions: vcm = vdd/2, 27 C, TT."""
    return OperatingPoint(vid=vid, vcm=config.vdd / 2.0, **overrides)
