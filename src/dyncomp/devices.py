"""Square-law MOSFET parameters with PVT adjustment and mismatch sampling.

All values are SI base units (V, A, F, m, K). Threshold voltages follow a
magnitude convention: ``vth0 > 0`` for both polarities, and a positive
``vsb`` (reverse body bias) raises the threshold for either one.
"""
from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import NONNEGATIVE, POSITIVE, BodyBiasError, ConfigError, Ranged, checked

NMOS = "nmos"
PMOS = "pmos"

MIN_WIDTH = 0.22e-6
MIN_LENGTH = 0.18e-6
# A geometry is built if it reaches its floor within this tolerance, m.
GEOM_TOL = 1e-15

# First-order temperature behavior: mobility ~ (T/300K)^-1.5 and the
# threshold magnitude drops 2 mV per kelvin above 300 K.
T_REF = 300.0
MU_TEMP_EXPONENT = -1.5
VTH_TEMP_COEFF = 2.0e-3

# Pelgrom coefficients for a generic 0.18 um process (5 mV*um for the threshold,
# 1 %*um for the relative transconductance factor) and the range of both.
AVT_DEFAULT = 5.0e-9
ABETA_DEFAULT = 1.0e-8
PELGROM_RULE = NONNEGATIVE


@dataclass(frozen=True)
class DeviceParams(Ranged):
    """Square-law parameters of one device polarity."""

    polarity: str
    mu_cox: float               # transconductance factor, A/V^2
    vth0: float                 # zero-bias threshold magnitude, V
    gamma: float = 0.4          # body-effect coefficient, V^0.5
    phi2f: float = 0.7          # surface potential (2*phi_F), V
    cox_area: float = 8.5e-3    # gate capacitance per area, F/m^2

    # Each ranged field's rule; config reads its keys' ranges here.
    RULES = {"polarity": (lambda p: p in (NMOS, PMOS), f"must be '{NMOS}' or '{PMOS}'"),
             "mu_cox": POSITIVE, "vth0": POSITIVE, "gamma": NONNEGATIVE,
             "phi2f": POSITIVE, "cox_area": POSITIVE}


DEFAULT_NMOS = DeviceParams(NMOS, mu_cox=300e-6, vth0=0.45)
DEFAULT_PMOS = DeviceParams(PMOS, mu_cox=150e-6, vth0=0.45)


@dataclass(frozen=True)
class TransistorGeom:
    """Width/length of one named transistor."""

    name: str
    w: float
    l: float
    polarity: str

    def __post_init__(self):
        if not self.w >= MIN_WIDTH - GEOM_TOL:
            raise ConfigError(f"{self.name}: width {self.w} below minimum {MIN_WIDTH}")
        if not self.l >= MIN_LENGTH - GEOM_TOL:
            raise ConfigError(f"{self.name}: length {self.l} below minimum {MIN_LENGTH}")
        if self.polarity not in (NMOS, PMOS):
            raise ConfigError(f"{self.name}: bad polarity {self.polarity!r}")


@dataclass(frozen=True)
class CornerSpec:
    """Process-corner multipliers and threshold shifts per polarity."""

    name: str
    mu_factor_n: float = 1.0
    mu_factor_p: float = 1.0
    vth_shift_n: float = 0.0
    vth_shift_p: float = 0.0

    def __post_init__(self):
        if not (self.mu_factor_n > 0 and self.mu_factor_p > 0):
            raise ConfigError("corner mobility factors must be > 0")
        if not (math.isfinite(self.vth_shift_n) and math.isfinite(self.vth_shift_p)):
            raise ConfigError("corner threshold shifts must be finite")


CORNERS: Mapping[str, CornerSpec] = {
    "TT": CornerSpec("TT"),
    "FF": CornerSpec("FF", 1.1, 1.1, -0.030, -0.030),
    "SS": CornerSpec("SS", 0.9, 0.9, +0.030, +0.030),
    "FS": CornerSpec("FS", 1.1, 0.9, -0.030, +0.030),  # fast NMOS, slow PMOS
    "SF": CornerSpec("SF", 0.9, 1.1, +0.030, -0.030),
}


class MismatchSample(NamedTuple):
    """Per-transistor threshold / relative-beta deviations of one trial.

    Transistors absent from the map carry zero deviation, so
    ``MismatchSample({})`` is the zero sample.
    """

    deltas: Mapping[str, tuple[float, float]]

    def delta_vth(self, name: str) -> float:
        return self.deltas.get(name, (0.0, 0.0))[0]

    def delta_beta(self, name: str) -> float:
        return self.deltas.get(name, (0.0, 0.0))[1]


ZERO_MISMATCH = MismatchSample({})


def beta(geom: TransistorGeom, params: DeviceParams) -> float:
    """Transconductance factor mu_cox * W / L, A/V^2."""
    return params.mu_cox * geom.w / geom.l


def gate_cap(geom: TransistorGeom, params: DeviceParams, w=None) -> float:
    """Gate capacitance cox_area * W * L, F, at the width ``w`` (or widths) if given."""
    return params.cox_area * (geom.w if w is None else w) * geom.l


def threshold(params: DeviceParams, vsb: float = 0.0, delta_vth: float = 0.0) -> float:
    """Threshold magnitude with body effect and additive mismatch.

    ``vsb`` is the source-body reverse bias; negative values (forward body
    bias) are accepted down to the model validity limit ``phi2f + vsb > 0``.
    """
    arg = params.phi2f + vsb
    if arg <= 0.0:
        raise BodyBiasError(
            f"body bias vsb={vsb} beyond model validity (phi2f={params.phi2f})")
    return params.vth0 + params.gamma * (math.sqrt(arg) - math.sqrt(params.phi2f)) + delta_vth


def thresholds(params: DeviceParams, vsb, delta_vth, vth0) -> tuple[np.ndarray, np.ndarray]:
    """threshold() over arrays, from the zero-bias thresholds ``vth0`` in
    place of params.vth0, and where threshold() raises BodyBiasError instead.
    np.sqrt is correctly rounded, as math.sqrt, so entries are exact."""
    arg = params.phi2f + vsb
    return vth0 + params.gamma * (np.sqrt(arg) - math.sqrt(params.phi2f)) + delta_vth, arg <= 0.0


def apply_corner(params: DeviceParams, corner: CornerSpec) -> DeviceParams:
    """Scale mu_cox and shift vth0 per the polarity's corner entry."""
    if params.polarity == NMOS:
        factor, shift = corner.mu_factor_n, corner.vth_shift_n
    else:
        factor, shift = corner.mu_factor_p, corner.vth_shift_p
    vth0 = params.vth0 + shift
    if vth0 <= 0:
        raise ConfigError(f"the {params.polarity} threshold, {params.vth0:g} V, falls to "
                          f"{vth0:.3g} V at corner {corner.name}; it must stay > 0")
    return DeviceParams(params.polarity, params.mu_cox * factor, vth0,
                        params.gamma, params.phi2f, params.cox_area)


def mobility_factor(t_kelvin: float) -> float:
    """The mobility's temperature factor (t_kelvin / T_REF) ** MU_TEMP_EXPONENT,
    by Python's pow; inf where t_kelvin > 0 is too small for a float result."""
    try:
        return (t_kelvin / T_REF) ** MU_TEMP_EXPONENT
    except (OverflowError, ZeroDivisionError):  # the base underflows to 0.0
        return math.inf


def apply_temperature(params: DeviceParams, t_kelvin: float) -> DeviceParams:
    """First-order temperature adjustment; 300 K is the identity."""
    if not t_kelvin > 0:
        raise ConfigError("t_kelvin must be > 0")
    factor = mobility_factor(t_kelvin)
    if factor == math.inf:
        raise ConfigError(f"the mobility factor (T/{T_REF:g} K)**{MU_TEMP_EXPONENT:g} "
                          f"overflows at {t_kelvin:g} K")
    vth0 = params.vth0 - VTH_TEMP_COEFF * (t_kelvin - T_REF)
    if vth0 <= 0:
        raise ConfigError(f"the {params.polarity} threshold, {params.vth0:g} V at {T_REF:g} K, "
                          f"falls to {vth0:.3g} V at {t_kelvin:g} K; it must stay > 0")
    return DeviceParams(params.polarity, params.mu_cox * factor, vth0,
                        params.gamma, params.phi2f, params.cox_area)


def params_columns(nmos: DeviceParams, pmos: DeviceParams, corner: Sequence[CornerSpec],
                   t_kelvin: Sequence[float]) -> tuple[np.ndarray, ...]:
    """apply_corner, then apply_temperature, at every row (corner[k], t_kelvin[k]):
    the nmos vth0 and mu_cox, the pmos vth0 and mu_cox, and where either raises.

    Columns repeat the scalar operations in their order, so entries are bit
    for bit the scalar ones: the mobility's temperature factor is Python's
    pow, once per distinct temperature (np.power can differ). Rows group
    by id(corner). simulate_grid calls it only for per-row corners or
    temperatures: a corner and temperature shared by every row are resolved
    once by ComparatorEngine.params_at.
    """
    t = np.asarray(t_kelvin, float)
    ids = list(map(id, corner))
    specs = dict(zip(ids, corner))      # the distinct corners, in order of first use
    index = dict(zip(specs, range(len(specs))))
    table = np.array([((c.mu_factor_n, c.mu_factor_p), (c.vth_shift_n, c.vth_shift_p))
                      for c in specs.values()], float).reshape(-1, 2, 2)
    # Each row's mobility factors and threshold shifts, nmos in row 0 and pmos in row 1.
    factor, shift = table[np.fromiter(map(index.get, ids), np.intp, len(ids))].transpose(1, 2, 0)
    temps = np.where(t > 0, t, T_REF).tolist()  # a row at t <= 0 raises: any factor will do
    factors = {x: mobility_factor(x) for x in set(temps)}
    mu_t = np.fromiter(map(factors.get, temps), float, len(temps))
    vth0, mu_cox = np.array([[nmos.vth0, pmos.vth0], [nmos.mu_cox, pmos.mu_cox]])[:, :, None]
    vth0, mu_cox = vth0 + shift, mu_cox * factor                        # apply_corner
    vth, mu = vth0 - VTH_TEMP_COEFF * (t - T_REF), mu_cox * mu_t        # apply_temperature
    # Every check is "<= 0", false for NaN as in the scalar code: fmin skips NaN.
    bad = (~(t > 0) | (mu_t == math.inf)
           | (np.fmin.reduce(np.concatenate((vth0, mu_cox, vth, mu))) <= 0))
    return vth[0], mu[0], vth[1], mu[1], bad


def mismatch_scales(geoms: Iterable[TransistorGeom], avt: float = AVT_DEFAULT,
                    abeta: float = ABETA_DEFAULT) -> tuple[list[str], np.ndarray]:
    """Device names in sorted order and the standard deviations of their draws.

    Per transistor, delta_vth ~ N(0, avt/sqrt(W*L)) and the relative beta
    deviation ~ N(0, abeta/sqrt(W*L)); the scales interleave the two,
    ``[vth(names[0]), beta(names[0]), vth(names[1]), ...]``.
    """
    checked("avt", avt, PELGROM_RULE)
    checked("abeta", abeta, PELGROM_RULE)
    ordered = sorted(geoms, key=lambda g: g.name)
    scales = []
    for geom in ordered:
        root_area = math.sqrt(geom.w * geom.l)
        scales += [avt / root_area, abeta / root_area]
    return [geom.name for geom in ordered], np.array(scales)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the PCG64
# multiplier's 64-bit halves, for seeding many trials' streams in one pass.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT_HI, _PCG64_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_MASK32, _BLOCK = 2**32 - 1, 1024


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's hash constants for ``calls`` successive hashmix calls from ``init``:
    each call XORs with one constant and multiplies by the next. Column
    vectors, one row per call."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, np.uint32)[:, None]
    return consts[:-1], consts[1:]


def _pcg64_seeds(seed: int, trials: Sequence[int] | np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, trial]).generate_state(4, uint64)`` of each trial.

    numpy's hash in uint32 arrays over the trial axis: the entropy words
    (seed's 32-bit words, then the trial's single word) are mixed into a
    4-word pool, which is hashed out into 8 words read as 4 little-endian
    uint64. The hash constants do not depend on the data, so every trial
    runs the same sequence of them, and the hashmix calls that read the same
    word at once run as one (calls, trials) array operation.
    """
    n = len(trials)
    entropy = [np.full(n, seed >> shift & _MASK32, np.uint32)
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.asarray(trials, np.uint32))
    entropy += [np.zeros(n, np.uint32)] * (4 - len(entropy))
    xor, mult = _hash_constants(_INIT_A, _MULT_A, 4 * len(entropy))
    used = 0

    def hashmix(value, calls):
        nonlocal used
        value = (value ^ xor[used:used + calls]) * mult[used:used + calls]
        used += calls
        return value ^ value >> 16

    def mix(x, y):
        value = x * _MIX_MULT_L - y * _MIX_MULT_R
        return value ^ value >> 16

    pool = hashmix(np.array(entropy[:4]), 4)
    for src in range(4):
        dst = [k for k in range(4) if k != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 3))
    for extra in entropy[4:]:
        pool = mix(pool, hashmix(extra, 4))
    xor, mult = _hash_constants(_INIT_B, _MULT_B, 8)
    value = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ xor) * mult
    state = np.empty((n, 8), "<u4")
    state[:] = (value ^ value >> 16).T
    return state.view("<u8")


def _pcg64_srandom(seed_words: np.ndarray) -> np.ndarray:
    """PCG64's (state, inc) after ``srandom`` from each row of 4 seed words
    (state ``words[0:2]``, sequence ``words[2:4]``, high words first) in
    wrapping uint64 limbs, with ``lo * mult``'s high limb from 32-bit halves.
    Rows are (state lo, hi, inc lo, hi), as numpy's struct holds __uint128_t.
    """
    s_hi, s_lo, q_hi, q_lo = seed_words.T
    inc_lo, inc_hi = q_lo << 1 | 1, q_hi << 1 | q_lo >> 63
    lo = s_lo + inc_lo
    hi = s_hi + inc_hi + (lo < inc_lo)
    lo0, lo1 = lo & _MASK32, lo >> 32
    m0, m1 = _PCG64_MULT_LO & _MASK32, _PCG64_MULT_LO >> 32
    mid = lo1 * m0 + (lo0 * m0 >> 32)
    carry = ((mid & _MASK32) + lo0 * m1) >> 32
    hi = lo1 * m1 + (mid >> 32) + carry + lo * _PCG64_MULT_HI + hi * _PCG64_MULT_LO
    lo = lo * _PCG64_MULT_LO + inc_lo
    hi += inc_hi + (lo < inc_lo)
    return np.stack([lo, hi, inc_lo, inc_hi], axis=1)


def _pcg64_memory(rng: np.random.Generator, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A view of ``rng``'s PCG64 (state, inc), which its state struct's first
    field points to, and ``words`` in that view's order. ``rng`` must hold
    ``words[0]`` low word first, or high word first as where numpy has no
    128-bit int; else the call raises."""
    address = ctypes.c_void_p.from_address(rng.bit_generator.ctypes.state_address).value
    state = np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(address))
    for order in (slice(None), [1, 0, 3, 2]):
        if np.array_equal(state, words[0, order]):
            return state, words[:, order]
    raise RuntimeError(f"numpy {np.__version__} seeds PCG64 unlike the "
                       "SeedSequence replica in dyncomp.devices")


def draw_mismatch(seed: int, trials: Sequence[int] | np.ndarray, scales: np.ndarray,
                  columns: Sequence[int] | None = None) -> np.ndarray:
    """Deviations of each trial (seed, trial), one row per trial (at least one).

    Each trial has its own standard-normal stream, that of
    ``default_rng(SeedSequence([seed, trial]))``, drawn in the order of
    ``scales``; ``columns`` picks the entries kept (all by default), and a
    trial draws only up to the last kept one. ``0.0 + scale * z`` is what
    ``Generator.normal(0.0, scale)`` computes, overflow to inf and the sign
    of a zero included, so a row equals drawing each deviation on its own.

    numpy seeds the call's one generator with the first trial. The others'
    PCG64 states come from uint64 arrays (``_pcg64_srandom``) and are copied
    into its state memory once the first equals numpy's; each fills a row of
    a ``_BLOCK``-trial buffer. A batch takes integer trial indices 0 to 2**32 - 1.
    """
    n = len(trials)
    if n > 1:
        trials = np.asarray(trials)  # an index past int64 makes an object or float array
        if trials.dtype.kind not in "iu" or not 0 <= trials.min() <= trials.max() <= _MASK32:
            raise ConfigError("trials: a batch of trials takes indices 0 to 2**32 - 1")
    if columns is None:
        columns, width = slice(None), scales.size
    else:
        columns = np.arange(scales.size)[columns]
        width = int(columns.max(initial=-1)) + 1
    kept = scales[columns]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(trials[0])]))
    z = np.empty((n, kept.size))
    if n == 1:
        z[0] = rng.standard_normal(width)[columns]
    else:
        state, words = _pcg64_memory(rng, _pcg64_srandom(_pcg64_seeds(int(seed), trials)))
        # Each trial's 32 state bytes go in through memoryviews, cheaper than ndarray slices.
        memory, words = memoryview(state).cast("B"), memoryview(words.tobytes())
        block = np.empty((min(n, _BLOCK), width))
        for start in range(0, n, _BLOCK):
            rows = block[:n - start]
            for row, at in zip(rows, range(32 * start, 32 * n, 32)):
                memory[:] = words[at:at + 32]
                rng.standard_normal(out=row)
            z[start:start + len(rows)] = rows[:, columns]
    with np.errstate(over="ignore"):
        return np.add(np.multiply(z, kept, out=z), 0.0, out=z)


def sample_mismatch(seed: int, trial: int, geoms: Iterable[TransistorGeom],
                    avt: float = AVT_DEFAULT, abeta: float = ABETA_DEFAULT) -> MismatchSample:
    """Draw one Pelgrom mismatch sample, reproducible from (seed, trial).

    The deviations are independent with the scales of ``mismatch_scales``.
    Transistors are processed in sorted-name order so the draw is
    independent of the iteration order of ``geoms``.
    """
    names, scales = mismatch_scales(geoms, avt, abeta)
    pairs = draw_mismatch(seed, [trial], scales).reshape(-1, 2).tolist()
    return MismatchSample(dict(zip(names, map(tuple, pairs))))


# Final device dimensions of the modeled circuit (W/L in meters).
_GEOM_TABLE = (
    ("Mp1", 2.00, PMOS), ("Mp2", 0.35, PMOS), ("Mp3", 0.35, PMOS),
    ("Mp4", 1.20, PMOS), ("Mp5", 1.20, PMOS), ("Mp6", 0.50, PMOS),
    ("Mp7", 2.00, PMOS), ("Mp8", 2.00, PMOS), ("Mp9", 0.50, PMOS),
    ("Mpi1", 0.22, PMOS), ("Mpi2", 0.22, PMOS), ("Mpi3", 0.22, PMOS), ("Mpi4", 0.22, PMOS),
    ("Mn1", 0.50, NMOS), ("Mn2", 0.50, NMOS), ("Mn3", 1.00, NMOS),
    ("Mn4", 1.00, NMOS), ("Mn5", 2.00, NMOS), ("Mn6", 2.00, NMOS),
    ("Mni1", 0.22, NMOS), ("Mni2", 0.22, NMOS), ("Mni3", 0.22, NMOS), ("Mni4", 0.22, NMOS),
)


_DEFAULT_GEOMETRY = {name: TransistorGeom(name, w * 1e-6, MIN_LENGTH, pol)
                     for name, w, pol in _GEOM_TABLE}


def default_geometry() -> dict[str, TransistorGeom]:
    """Default geometry set, every device at minimum length (a new dict of
    the shared frozen geometries)."""
    return dict(_DEFAULT_GEOMETRY)
