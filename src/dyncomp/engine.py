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
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import devices as dev
from .devices import (DeviceParams, MismatchSample, TransistorGeom, ZERO_MISMATCH,
                      CORNERS, CornerSpec, gate_cap, threshold)
from .errors import AT_LEAST_1, NONNEGATIVE, POSITIVE, ConfigError, NoDecisionError, Ranged, checked

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
class ComparatorConfig(Ranged):
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

    # Each ranged field's rule, and each extra_load entry's; config reads its keys' ranges here.
    RULES = {"vdd": POSITIVE, "freq": POSITIVE, "alpha": AT_LEAST_1,
             "tail_derating": (lambda x: 0.0 <= x < 1.0, "must be in [0, 1)"),
             "tie_break": (lambda x: x in (1, -1), "must be +1 or -1")}
    EXTRA_LOAD_RULE = NONNEGATIVE

    def __post_init__(self):
        Ranged.__post_init__(self)
        for node, c in self.extra_load.items():
            if node not in EXTRA_NODES:
                raise ConfigError(f"unknown extra_load node {node!r}; expected one of {EXTRA_NODES}")
            checked(f"extra_load[{node!r}]", c, self.EXTRA_LOAD_RULE)

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


class BodyBias(NamedTuple):
    """Tuned body voltages of the input pair."""

    vb_plus: float
    vb_minus: float


class NodeCaps(NamedTuple):
    """Lumped node capacitances derived from the geometry set."""

    c_out: float        # preamp output: latch NMOS gate + buffer NMOS gate
    c_pi: float         # first buffer stage output: gate of the buffer PMOS
    c_p3: float         # second buffer stage output: one parallel tail-switch gate
    c_latch: float      # latch output: cross-coupled PMOS gate + latch NMOS gate


class EnergyBreakdown(NamedTuple):
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
    energy: EnergyBreakdown


# simulate_grid's per-row fault codes: the first check a row fails, in the
# order simulate checks, or OK. UNBUILT marks widths the geometry rejects and
# raises nothing; the vcm or vid range, the body range and the device
# parameters raise ConfigError; the body bias of the minus, then the plus
# side and a missing decision raise SimulationError.
UNBUILT, BAD_OP, BAD_BODY, BAD_PARAMS, BODY_MINUS, BODY_PLUS, NO_DECISION, OK = range(8)
# Per-side arrays hold the minus side (Mp4, Mn3) in row 0, whose gate is at
# vcm - vid/2, and the plus side in row 1.
_SIGN = np.array([[1.0], [-1.0]])


@dataclass(frozen=True)
class GridResult(ComparisonResult):
    """simulate_grid's rows: ComparisonResult's fields as per-row arrays (the
    energy an EnergyBreakdown of them), the energy with the tail on for the
    whole window, and each row's fault (OK where simulate returns). A faulted
    row's other entries mean nothing; ``raise_row(k)`` raises what simulate
    raises at row k."""

    energy_noesd: np.ndarray
    fault: np.ndarray
    raise_row: Callable[[int], None]


def inverter_delay(c_load: float, beta_eff: float, vdd: float) -> float:
    """Dynamic single-input inverter propagation delay 1.6*C/(beta*Vdd)."""
    return 1.6 * c_load / (beta_eff * vdd)


# The (delta_vth, delta_beta) of every device without mismatch: one shared pair.
_ZERO = (0.0, 0.0)


def _sides(mismatch: Mapping[str, tuple], minus: str, plus: str, i: int):
    """Delta i (0: delta_vth, 1: delta_beta) of a mirrored pair, one row per
    side; one value where the sides share it."""
    a, b = mismatch.get(minus, _ZERO)[i], mismatch.get(plus, _ZERO)[i]
    return a if a is b else np.array((a, b)).reshape(2, -1)


def mismatched_beta(mu, w, l, d):
    """mu * w / l * (1 + d); unscaled where d is the shared zero, as x * 1.0 == x."""
    b = mu * w / l
    return b if d is _ZERO[1] else b * (1.0 + d)


def drain_current(b, ov):
    """Square-law saturation current 0.5 * b * ov**2 at the overdrive ov > 0."""
    return 0.5 * b * ov * ov


def tail_current(cfg: ComparatorConfig, vdd, vth_p, mu_p, mismatch: Mapping[str, tuple], w=None):
    """Mp1's current less the switch derating, 0 where Mp1 is off, at widths ``w`` if given."""
    (dvth, dbeta), g = mismatch.get("Mp1", _ZERO), cfg.geoms["Mp1"]
    ov = vdd - (vth_p + dvth)
    b = mismatched_beta(mu_p, g.w if w is None else w, g.l, dbeta)
    return np.where(ov <= 0.0, 0.0, drain_current(b, ov) * (1.0 - cfg.tail_derating))


def lead_timing(cfg: ComparatorConfig, caps: NodeCaps, vdd, t0, t1, b_ni, b_pi, b_n3):
    """(t_esd, t_dm, late, shutdown) of the leading side, from its latch and
    buffer crossings t0 and t1 and the betas of its buffer NMOS and PMOS and
    its latch NMOS; floats and bools, or arrays of them."""
    window = cfg.window
    t_esd = (t1 + inverter_delay(caps.c_pi, b_ni, vdd)
             + cfg.alpha * inverter_delay(caps.c_p3, b_pi, vdd))
    t_dm = t0 + inverter_delay(caps.c_latch, b_n3, vdd)
    # Designed regime: the chain fires only after the latch crossing, so
    # cutting the tail never blocks the decision. Flag the stall if a
    # configuration ever inverts the race.
    late = (t_dm > window) | (t_esd < t0)
    return t_esd, t_dm, late, cfg.early_shutdown_enabled & (t_esd <= window)


def energy_split(caps: NodeCaps, vdd, i_tail, t_on, shutdown) -> EnergyBreakdown:
    """Supply energy of one cycle, split by subcircuit: floats, or arrays of
    them. The tail conducts for t_on: t_esd with shutdown, else the whole
    window. The buffer chain spends only where it fires: ``shutdown`` is a
    bool or bool array, and x * False == 0.0 for the chain's x >= 0."""
    e_preamp = vdd * i_tail * t_on
    e_latch = caps.c_latch * vdd * vdd
    e_ddvb = 2.0 * (caps.c_pi + caps.c_p3) * vdd * vdd * shutdown
    e_reset = 2.0 * caps.c_out * vdd * vdd
    return EnergyBreakdown(e_preamp, e_latch, e_ddvb, e_reset,
                           e_preamp + e_latch + e_ddvb + e_reset)


def never_crosses(i_side, vth_sense):
    """Where a preamp output ramping at i_side never reaches vth_sense: its crossing is inf."""
    return (i_side <= 0.0) | (vth_sense <= 0.0)


def crossing_time(i_side, vth_sense, c_out):
    """The instant a preamp output ramping at i_side/c_out reaches vth_sense, where it does."""
    return vth_sense * c_out / i_side


def _crossing(i_side: float, vth_sense: float, c_out: float) -> float:
    return math.inf if never_crosses(i_side, vth_sense) else crossing_time(i_side, vth_sense, c_out)


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
        self._caps = self.node_caps()

    # -- static structure ---------------------------------------------------

    def node_caps(self, widths: Mapping[str, np.ndarray] = {}) -> NodeCaps:
        """The lumped node caps; arrays of them where ``widths`` gives per-row device widths."""
        cfg = self.config
        extra = cfg.extra_load
        g = cfg.geoms
        cap = lambda name: gate_cap(g[name], cfg.nmos if g[name].polarity == dev.NMOS else cfg.pmos,
                                    widths.get(name))
        c_out = cap("Mn3") + cap("Mni2") + extra.get("out", 0.0)
        c_pi = cap("Mpi1") + extra.get("pi", 0.0)
        # The two parallel tail switches split between the two buffer chains:
        # each chain drives one switch gate.
        c_p3 = 0.5 * (cap("Mp2") + cap("Mp3")) + extra.get("p3", 0.0)
        c_latch = cap("Mp8") + cap("Mn6") + extra.get("latch", 0.0)
        return NodeCaps(c_out=c_out, c_pi=c_pi, c_p3=c_p3, c_latch=c_latch)

    # -- operating-point resolution ------------------------------------------

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
        if not abs(op.vid) < vdd:
            raise ConfigError(f"|vid|={abs(op.vid)} must be below vdd={vdd}")

    # -- full cycle -------------------------------------------------------------

    def simulate(self, op: OperatingPoint, mismatch: MismatchSample = ZERO_MISMATCH,
                 body: BodyBias | None = None) -> ComparisonResult:
        """Run one precharge + comparison cycle, in Python floats.

        The body voltages default to the configured supply. Late decisions
        (t_dm beyond the window) are flagged, not raised, so sweeps near the
        common-mode limit can complete and report the stall.

        simulate_grid runs the same cycle over rows of arrays, and each grid
        row equals simulate bit for bit. Both take the device formulas, the
        crossing, the lead side's timing and the energy from this module's
        helpers and devices.threshold. Written in both: the branch selection
        (``if`` here, np.where there), the overdrive vdd - (vcm -+ vid/2) -
        vth, the tail clamp, the decision with its tie-break and the range
        checks (the grid's fault codes). One point runs here, many rows
        there: the caller's input size picks the path.
        """
        cfg, caps, g = self.config, self._caps, self.config.geoms
        vdd, window = cfg.vdd, cfg.window
        self.validate_op(op, vdd)
        body = body or BodyBias(vdd, vdd)
        if not (0.0 <= body.vb_plus <= vdd and 0.0 <= body.vb_minus <= vdd):
            raise ConfigError(f"body voltages {body} outside [0, vdd={vdd}]")
        n, p = self.params_at(op)
        deltas = mismatch.deltas
        d = lambda name: deltas.get(name, _ZERO)
        ov_m = vdd - (op.vcm - op.vid / 2.0) - threshold(p, body.vb_minus - vdd, d("Mp4")[0])
        ov_p = vdd - (op.vcm + op.vid / 2.0) - threshold(p, body.vb_plus - vdd, d("Mp5")[0])
        i_tail = float(tail_current(cfg, vdd, p.vth0, p.mu_cox, deltas))
        b_m = mismatched_beta(p.mu_cox, g["Mp4"].w, g["Mp4"].l, d("Mp4")[1])
        b_p = mismatched_beta(p.mu_cox, g["Mp5"].w, g["Mp5"].l, d("Mp5")[1])
        i_m = drain_current(b_m, ov_m) if ov_m > 0.0 else 0.0
        i_p = drain_current(b_p, ov_p) if ov_p > 0.0 else 0.0
        total = i_m + i_p
        if total > i_tail:  # the tail clamp scales both sides by one factor
            i_m, i_p = i_m * (i_tail / total), i_p * (i_tail / total)
        t_m = _crossing(i_m, n.vth0 + d("Mn3")[0], caps.c_out)
        t_p = _crossing(i_p, n.vth0 + d("Mn4")[0], caps.c_out)
        decision = 1 if t_m < t_p else -1 if t_p < t_m else cfg.tie_break
        lead = decision > 0     # the minus side crosses first
        t0 = t_m if lead else t_p
        if not math.isfinite(t0) or t0 > window:
            raise NoDecisionError(
                f"no preamp crossing within the {window:.3e} s window (t0={t0:.3e})")
        # The shutdown chain and the latch on the leading side.
        sense, buf_p, latch = ("Mni2", "Mpi1", "Mn3") if lead else ("Mni3", "Mpi4", "Mn4")
        t1 = _crossing(i_m if lead else i_p, n.vth0 + d(sense)[0], caps.c_out)
        b_ni, b_pi, b_n3 = (mismatched_beta(params.mu_cox, g[name].w, g[name].l, d(name)[1])
                            for params, name in ((n, sense), (p, buf_p), (n, latch)))
        t_esd, t_dm, late, shutdown = lead_timing(cfg, caps, vdd, t0, t1, b_ni, b_pi, b_n3)
        energy = energy_split(caps, vdd, i_tail, t_esd if shutdown else window, shutdown)
        return ComparisonResult(decision, t0, t1, t_esd, t_dm, shutdown, late, i_tail, energy)


def _params_or_any(engine: ComparatorEngine, op: OperatingPoint
                   ) -> tuple[tuple[DeviceParams, DeviceParams], bool]:
    """(params_at(op), True); where params_at raises, the configured (nmos,
    pmos), as any parameters will do, and False."""
    try:
        return engine.params_at(op), True
    except ConfigError:
        return (engine.config.nmos, engine.config.pmos), False


def simulate_grid(engine: ComparatorEngine, vid: Sequence[float], vcm: Sequence[float],
                  vdd: Sequence[float], corner: CornerSpec | Sequence[CornerSpec],
                  t_kelvin: float | Sequence[float], widths: Mapping[str, np.ndarray] = {},
                  mismatch: Mapping[str, tuple] = {},
                  vb_plus: Sequence[float] | None = None,
                  vb_minus: Sequence[float] | None = None) -> GridResult:
    """One precharge + comparison cycle at every row of the columns, in one array pass.

    Row k is the operating point (vid[k], vcm[k], corner[k], t_kelvin[k]) at
    the supply vdd[k], with the body voltages vb_plus[k] and vb_minus[k]
    (the supply by default). ``mismatch`` maps devices to their (delta_vth,
    delta_beta), per-row columns or scalars, alike for both devices of a
    mirrored pair; a device it omits has none. Only Mp1, Mp4/Mp5, Mn3/Mn4,
    Mni2/Mni3 and Mpi1/Mpi4 enter the cycle.
    ``widths`` maps devices to per-row widths in place of the geometry's,
    both of a symmetric pair alike (sizing.target_widths); a row with one
    below MIN_WIDTH, a geometry ComparatorEngine rejects, is UNBUILT.
    ``corner`` may be one CornerSpec and ``t_kelvin`` one number, shared by
    every row. Where both are, params_at resolves them once, and a pair it
    rejects makes every row BAD_PARAMS; per-row corners or temperatures go
    through devices.params_columns, a shared one of the two repeated.

    Each row is bit for bit ComparatorEngine.simulate, the scalar cycle:
    only + - * /, comparisons, np.where and np.sqrt (correctly rounded, as
    math.sqrt) touch the arrays, in the scalar order of operations
    (np.power can differ from Python's pow).
    """
    cfg, g, window = engine.config, engine.config.geoms, engine.config.window
    # The columns as given, so that error messages quote their values unchanged.
    given = vid, vcm, vdd, *(vdd if v is None else v for v in (vb_plus, vb_minus))
    vid, vcm, vdd = (np.asarray(x, float) for x in (vid, vcm, vdd))
    vb = np.array([vdd if v is None else v for v in (vb_minus, vb_plus)], float)
    # The rows' parameters (zero-bias thresholds: vth0), where params_at would not raise.
    shared = isinstance(corner, CornerSpec), np.ndim(t_kelvin) == 0
    if all(shared):
        op = OperatingPoint(corner=corner, t_kelvin=t_kelvin)
        (n, p), ok = _params_or_any(engine, op)
        vth_n, mu_n, vth_p, mu_p, bad_params = (n.vth0, n.mu_cox, p.vth0, p.mu_cox,
                                                np.full(vid.shape, not ok))
    else:
        corner, t_kelvin = (np.full(vid.shape, x) if one else x
                            for x, one in zip((corner, t_kelvin), shared))
        vth_n, mu_n, vth_p, mu_p, bad_params = dev.params_columns(cfg.nmos, cfg.pmos, corner,
                                                                   t_kelvin)
    caps = engine.node_caps(widths) if widths else engine._caps
    # One device per symmetric pair: ComparatorEngine checks the pairs equal.
    (w_p4, l_p4), (w_n3, l_n3), (w_ni2, l_ni2), (w_pi1, l_pi1) = (
        (widths.get(name, g[name].w), g[name].l) for name in ("Mp4", "Mn3", "Mni2", "Mpi1"))
    unbuilt = (np.any([~(w >= dev.MIN_WIDTH - dev.GEOM_TOL) for w in widths.values()], axis=0)
               if widths else np.zeros(vid.shape, bool))
    delta = lambda name, i: mismatch.get(name, _ZERO)[i]  # i = 0: delta_vth, 1: delta_beta

    def lead_side(minus, plus, i):
        """Delta i of the leading side's device; one value where the sides share it."""
        a, b = delta(minus, i), delta(plus, i)
        return a if a is b else np.where(lead, a, b)

    def crossing(i_side, vth_sense):
        return np.where(never_crosses(i_side, vth_sense), np.inf,
                        crossing_time(i_side, vth_sense, caps.c_out))

    with np.errstate(all="ignore"):
        vth, beyond = dev.thresholds(cfg.pmos, vb - vdd, _sides(mismatch, "Mp4", "Mp5", 0), vth_p)
        i_tail = tail_current(cfg, vdd, vth_p, mu_p, mismatch, widths.get("Mp1"))
        ov = vdd - (vcm - _SIGN * (vid / 2.0)) - vth
        b = mismatched_beta(mu_p, w_p4, l_p4, _sides(mismatch, "Mp4", "Mp5", 1))
        i = np.where(ov > 0.0, drain_current(b, ov), 0.0)
        # The tail clamp scales both sides by one factor; unclamped rows take 1.0, exactly.
        total = i[0] + i[1]
        i = i * np.where(total > i_tail, i_tail / total, 1.0)
        t = crossing(i, vth_n + _sides(mismatch, "Mn3", "Mn4", 0))
        decision = np.where(t[0] < t[1], 1, np.where(t[1] < t[0], -1, cfg.tie_break))
        lead = decision > 0     # the minus side crosses first
        t0 = np.where(lead, t[0], t[1])
        # The shutdown chain and the latch on the leading side; the buffer
        # crossing is t0 where its devices share the sense devices' deltas.
        t1 = (t0 if all(delta(a, 0) is delta(b, 0) for a, b in (("Mni2", "Mn3"), ("Mni3", "Mn4")))
              else crossing(np.where(lead, i[0], i[1]), vth_n + lead_side("Mni2", "Mni3", 0)))
        b_ni = mismatched_beta(mu_n, w_ni2, l_ni2, lead_side("Mni2", "Mni3", 1))
        b_pi = mismatched_beta(mu_p, w_pi1, l_pi1, lead_side("Mpi1", "Mpi4", 1))
        b_n3 = mismatched_beta(mu_n, w_n3, l_n3, lead_side("Mn3", "Mn4", 1))
        t_esd, t_dm, late, shutdown = lead_timing(cfg, caps, vdd, t0, t1, b_ni, b_pi, b_n3)
        energy = energy_split(caps, vdd, i_tail, np.where(shutdown, t_esd, window), shutdown)
        energy_noesd = vdd * i_tail * window + energy.e_latch + energy.e_reset
    # A row's code indexes the first check it fails; the last, always true, is OK.
    fault = np.array((unbuilt, ~((0.0 <= vcm) & (vcm <= vdd) & (np.abs(vid) < vdd)),
                      ~((0.0 <= vb) & (vb <= vdd)).all(axis=0), bad_params, *beyond,
                      ~np.isfinite(t0) | (t0 > window), np.ones(vid.shape, bool))).argmax(axis=0)

    def raise_row(k: int) -> None:
        code = fault[k]
        if code in (OK, UNBUILT):
            return
        vid_k, vcm_k, vdd_k, vb_plus_k, vb_minus_k = (np.asarray(x, object)[k] for x in given)
        if code == BAD_OP:
            engine.validate_op(OperatingPoint(vid=vid_k, vcm=vcm_k), vdd_k)
        if code == BAD_BODY:
            raise ConfigError(f"body voltages {BodyBias(vb_plus_k, vb_minus_k)} "
                              f"outside [0, vdd={vdd_k}]")
        if code == BAD_PARAMS:
            engine.params_at(op if all(shared)
                             else OperatingPoint(corner=corner[k], t_kelvin=float(t_kelvin[k])))
        if code in (BODY_MINUS, BODY_PLUS):
            threshold(cfg.pmos, (vb_minus_k if code == BODY_MINUS else vb_plus_k) - vdd_k)
        if code == NO_DECISION:
            raise NoDecisionError(
                f"no preamp crossing within the {window:.3e} s window (t0={float(t0[k]):.3e})")

    return GridResult(decision, t0, t1, t_esd, t_dm, shutdown, late, i_tail, energy,
                      energy_noesd, fault, raise_row)


class DecisionKernel:
    """The vid where ``simulate(op, mismatch, body).decision`` flips, over a
    batch of trials, from params_at and simulate_grid's helpers.

    The engine, its supply and the operating point's corner and temperature are
    shared; each trial (row) has its own mismatch, given per device as its own
    (delta_vth, delta_beta) pair of arrays over the rows. Only the devices in
    ``DEVICES`` enter the decision. Where the corner and temperature leave
    invalid parameters, no trial is exact. Overflow to inf passes silently.
    """

    DEVICES = ("Mp1", "Mp4", "Mp5", "Mn3", "Mn4")

    def __init__(self, engine: ComparatorEngine, op: OperatingPoint,
                 mismatch: Mapping[str, tuple[np.ndarray, np.ndarray]]):
        cfg, c_out = engine.config, engine._caps.c_out
        self.pmos, self.vdd, self.window, self.c_out = cfg.pmos, cfg.vdd, cfg.window, c_out
        (n, p), ok = _params_or_any(engine, op)  # where not ok, no trial is exact
        self.vth_p, g = p.vth0, cfg.geoms["Mp4"]
        with np.errstate(all="ignore"):
            i_tail = tail_current(cfg, cfg.vdd, p.vth0, p.mu_cox, mismatch)
            b = mismatched_beta(p.mu_cox, g.w, g.l, _sides(mismatch, "Mp4", "Mp5", 1))
            vth_sense = n.vth0 + _sides(mismatch, "Mn3", "Mn4", 0)
            # flip_point's k = sqrt(beta / vth_sense) per side; NaN where it is not real.
            self.k = np.where((b > 0.0) & (vth_sense > 0.0) & ok, np.sqrt(b / vth_sense), np.nan)
            self.k_sum = self.k[0] + self.k[1]
            # The clamped t0 at vid*; inf where the tail conducts nothing.
            self.t_clamp = np.where(i_tail > 0.0, c_out * vth_sense.sum(axis=0) / i_tail, np.inf)
        self.dvth = _sides(mismatch, "Mp4", "Mp5", 0)

    def flip_point(self, rows: np.ndarray, vcm: float, vb: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(vid*, band, exact) of the trials ``rows`` at their body voltages
        ``vb``, a (2, rows) array with the minus side's in row 0.

        The tail clamp scales both branch currents alike, so the minus side
        crosses first (+1) exactly where k-*ov- > k+*ov+, k = sqrt(b/vth_sense):
        above vid* = 2*(k+*(A - vth+) - k-*(A - vth-))/(k- + k+), A = vdd - vcm.
        Where ``exact``, simulate raises at no vid with |vid| < vdd and
        decides sign(vid - vid*) at every such vid outside
        [vid* - band, vid* + band].
        """
        vdd = self.vdd
        a = vdd - vcm
        with np.errstate(all="ignore"):
            vth, beyond = dev.thresholds(self.pmos, vb - vdd, self.dvth.take(rows, axis=1),
                                         self.vth_p)
            k = self.k.take(rows, axis=1)
            ka = k * (a - vth)
            vid = 2.0 * (ka[1] - ka[0]) / self.k_sum[rows]
            # Guard band, u = 2**-53, S = vdd + |vcm| + |vid*| + |vth-| + |vth+|:
            # simulate forms each overdrive in three roundings (error <= 3uS),
            # and each crossing time with a relative error <= 2*3uS/ov + 5u.
            # The two times differ by the relative (k- + k+)*|vid - vid*|/(k*ov),
            # so simulate orders them right once |vid - vid*| > 6uS + 10uS.
            # vid* above errs by <= 14uS. The band, 256uS, is eight times the sum.
            abs_vth = np.abs(vth)
            band = 2.0 ** -45 * (vdd + abs(vcm) + np.abs(vid) + (abs_vth[0] + abs_vth[1]))
            # simulate's overdrives, vdd - (vcm -+ vid/2) - vth, as a +- vid/2 - vth.
            ov = a + _SIGN * (vid / 2.0) - vth
            kov = k * ov
            ov_min = np.minimum(ov[0], ov[1])
            # Simulate's t0 on the leading side, c_out*vth_sense/i, times
            # total/i_tail where the tail clamps, falls as vid leaves vid*.
            # At vid* both sides have i/vth_sense = (k*ov)**2/2, so t0 peaks at
            # c_out*max(2/(k*ov)**2, (vth_sense- + vth_sense+)/i_tail); the
            # smaller k*ov of the two sides covers vid*'s error. Simulate's t0
            # at any vid exceeds the peak by a relative <= 12uS/ov + 10u, ov
            # the smaller overdrive at vid*, and this bound errs by <= 6uS/ov
            # + 8u: together less than band/ov, as ov <= S.
            t0 = np.maximum(2.0 * self.c_out / np.minimum(kov[0], kov[1]) ** 2,
                            self.t_clamp[rows])
            # Each comparison is false for NaN, as np.minimum and np.maximum pass NaN on.
            valid = ~beyond & (0.0 <= vb) & (vb <= vdd)
            exact = ((ov_min > band) & valid[0] & valid[1]
                     & (t0 * (1.0 + band / ov_min) <= self.window) & (0.0 <= vcm <= vdd))
        return vid, band, exact


def typical_op(config: ComparatorConfig, vid: float = 50e-3, **overrides) -> OperatingPoint:
    """Operating point at the standard conditions: vcm = vdd/2, 27 C, TT."""
    return OperatingPoint(vid=vid, vcm=config.vdd / 2.0, **overrides)
