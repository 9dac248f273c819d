"""The scalar comparison cycle: the oracle for simulate_grid and simulate.

``ComparatorEngine.simulate`` as it was first written, one Python float at a
time: the tail current, the clamped branch currents, the preamp crossings,
the shutdown chain, the latch and the energy split. The engine's own
``simulate`` is now one row of ``simulate_grid``, so tests that check the
engine against a second statement of the cycle call these functions.
"""
import math

from dyncomp.devices import DeviceParams, MismatchSample, ZERO_MISMATCH, beta, threshold
from dyncomp.engine import (BodyBias, ComparatorEngine, ComparisonResult, EnergyBreakdown,
                            OperatingPoint)
from dyncomp.errors import ConfigError, NoDecisionError


def inverter_delay(c_load: float, beta_eff: float, vdd: float) -> float:
    """Dynamic single-input inverter propagation delay 1.6*C/(beta*Vdd)."""
    return 1.6 * c_load / (beta_eff * vdd)


def tail_current(engine: ComparatorEngine, op: OperatingPoint, pparams: DeviceParams,
                 mismatch: MismatchSample = ZERO_MISMATCH, vdd: float | None = None) -> float:
    """Tail current before shutdown at the PMOS parameters ``pparams`` and the
    supply ``vdd`` (the engine's by default), derating included."""
    vdd = engine.config.vdd if vdd is None else vdd
    b = beta(engine.config.geoms["Mp1"], pparams) * (1.0 + mismatch.delta_beta("Mp1"))
    vth = threshold(pparams, 0.0, mismatch.delta_vth("Mp1"))
    ov = vdd - vth
    if ov <= 0.0:
        return 0.0
    return 0.5 * b * ov * ov * (1.0 - engine.config.tail_derating)


def branch_currents(engine: ComparatorEngine, op: OperatingPoint, pparams: DeviceParams,
                    i_tail: float, vth_minus: float, vth_plus: float,
                    mismatch: MismatchSample = ZERO_MISMATCH,
                    vdd: float | None = None) -> tuple[float, float]:
    """(I_minus, I_plus) of the input pair, clamped by the tail current ``i_tail``.

    ``vth_minus``/``vth_plus`` are the per-side input-device thresholds
    already including mismatch and body shift; ``vdd`` is the supply, the
    engine's by default.
    """
    vdd = engine.config.vdd if vdd is None else vdd
    b4 = beta(engine.config.geoms["Mp4"], pparams) * (1.0 + mismatch.delta_beta("Mp4"))
    b5 = beta(engine.config.geoms["Mp5"], pparams) * (1.0 + mismatch.delta_beta("Mp5"))
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


def simulate(engine: ComparatorEngine, op: OperatingPoint,
             mismatch: MismatchSample = ZERO_MISMATCH,
             body: BodyBias | None = None, vdd: float | None = None) -> ComparisonResult:
    """Run one precharge + comparison cycle at the supply ``vdd`` (the
    engine's by default) and return the full result.

    Late decisions (t_dm beyond the window) are flagged, not raised, so
    sweeps near the common-mode limit can complete and report the stall.
    """
    cfg = engine.config
    vdd = cfg.vdd if vdd is None else vdd
    engine.validate_op(op, vdd)
    if body is None:
        body = BodyBias(vdd, vdd)
    if not (0.0 <= body.vb_plus <= vdd and 0.0 <= body.vb_minus <= vdd):
        raise ConfigError(f"body voltages {body} outside [0, vdd={vdd}]")

    nparams, pparams = engine.params_at(op)
    caps = engine.node_caps()
    geoms = cfg.geoms

    vth_minus = threshold(pparams, body.vb_minus - vdd, mismatch.delta_vth("Mp4"))
    vth_plus = threshold(pparams, body.vb_plus - vdd, mismatch.delta_vth("Mp5"))
    i_tail = tail_current(engine, op, pparams, mismatch, vdd)
    i_minus, i_plus = branch_currents(engine, op, pparams, i_tail, vth_minus, vth_plus, mismatch,
                                      vdd)

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

    return ComparisonResult(decision=decision, t0=t0, t1=t1, t_esd=t_esd,
                            t_dm=t_dm, shutdown_occurred=shutdown_occurred,
                            late=late, i_tail=i_tail,
                            energy=energy_per_comparison(engine, vdd, i_tail, t_esd,
                                                         shutdown_occurred))


def energy_per_comparison(engine: ComparatorEngine, vdd: float, i_tail: float, t_esd: float,
                          shutdown_occurred: bool) -> EnergyBreakdown:
    """Supply energy of one full cycle, split by subcircuit.

    Without shutdown the preamp tail conducts for the whole comparison
    window; with shutdown it stops at t_esd. The buffer-chain overhead is
    only spent when the chain actually fires.
    """
    caps = engine.node_caps()
    window = engine.config.window
    t_eff = t_esd if shutdown_occurred else window
    e_preamp = vdd * i_tail * min(t_eff, window)
    e_latch = caps.c_latch * vdd * vdd
    e_ddvb = 2.0 * (caps.c_pi + caps.c_p3) * vdd * vdd if shutdown_occurred else 0.0
    e_reset = 2.0 * caps.c_out * vdd * vdd
    total = e_preamp + e_latch + e_ddvb + e_reset
    return EnergyBreakdown(e_preamp=e_preamp, e_latch=e_latch, e_ddvb=e_ddvb,
                           e_reset=e_reset, total=total)
