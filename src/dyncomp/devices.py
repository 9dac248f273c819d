"""Square-law MOSFET parameters with PVT adjustment and mismatch sampling.

All values are SI base units (V, A, F, m, K). Threshold voltages follow a
magnitude convention: ``vth0 > 0`` for both polarities, and a positive
``vsb`` (reverse body bias) raises the threshold for either one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import BodyBiasError, ConfigError

NMOS = "nmos"
PMOS = "pmos"

MIN_WIDTH = 0.22e-6
MIN_LENGTH = 0.18e-6

# First-order temperature behavior: mobility ~ (T/300K)^-1.5 and the
# threshold magnitude drops 2 mV per kelvin above 300 K.
T_REF = 300.0
MU_TEMP_EXPONENT = -1.5
VTH_TEMP_COEFF = 2.0e-3

# Pelgrom coefficients for a generic 0.18 um process: 5 mV*um for the
# threshold, 1 %*um for the relative transconductance factor.
AVT_DEFAULT = 5.0e-9
ABETA_DEFAULT = 1.0e-8


@dataclass(frozen=True)
class DeviceParams:
    """Square-law parameters of one device polarity."""

    polarity: str
    mu_cox: float               # transconductance factor, A/V^2
    vth0: float                 # zero-bias threshold magnitude, V
    gamma: float = 0.4          # body-effect coefficient, V^0.5
    phi2f: float = 0.7          # surface potential (2*phi_F), V
    cox_area: float = 8.5e-3    # gate capacitance per area, F/m^2

    def __post_init__(self):
        if self.polarity not in (NMOS, PMOS):
            raise ConfigError(f"polarity must be '{NMOS}' or '{PMOS}', got {self.polarity!r}")
        if self.mu_cox <= 0:
            raise ConfigError("mu_cox must be > 0")
        if self.vth0 <= 0:
            raise ConfigError("vth0 must be > 0 (magnitude convention)")
        if self.gamma < 0:
            raise ConfigError("gamma must be >= 0")
        if self.phi2f <= 0:
            raise ConfigError("phi2f must be > 0")
        if self.cox_area <= 0:
            raise ConfigError("cox_area must be > 0")


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
        if self.w < MIN_WIDTH - 1e-15:
            raise ConfigError(f"{self.name}: width {self.w} below minimum {MIN_WIDTH}")
        if self.l < MIN_LENGTH - 1e-15:
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
        if self.mu_factor_n <= 0 or self.mu_factor_p <= 0:
            raise ConfigError("corner mobility factors must be > 0")


CORNERS: Mapping[str, CornerSpec] = {
    "TT": CornerSpec("TT"),
    "FF": CornerSpec("FF", 1.1, 1.1, -0.030, -0.030),
    "SS": CornerSpec("SS", 0.9, 0.9, +0.030, +0.030),
    "FS": CornerSpec("FS", 1.1, 0.9, -0.030, +0.030),  # fast NMOS, slow PMOS
    "SF": CornerSpec("SF", 0.9, 1.1, +0.030, -0.030),
}


@dataclass(frozen=True)
class MismatchSample:
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


def gate_cap(geom: TransistorGeom, params: DeviceParams) -> float:
    """Gate capacitance cox_area * W * L, F."""
    return params.cox_area * geom.w * geom.l


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


def apply_corner(params: DeviceParams, corner: CornerSpec) -> DeviceParams:
    """Scale mu_cox and shift vth0 per the polarity's corner entry."""
    if params.polarity == NMOS:
        factor, shift = corner.mu_factor_n, corner.vth_shift_n
    else:
        factor, shift = corner.mu_factor_p, corner.vth_shift_p
    return DeviceParams(params.polarity, params.mu_cox * factor, params.vth0 + shift,
                        params.gamma, params.phi2f, params.cox_area)


def apply_temperature(params: DeviceParams, t_kelvin: float) -> DeviceParams:
    """First-order temperature adjustment; 300 K is the identity."""
    if t_kelvin <= 0:
        raise ConfigError("t_kelvin must be > 0")
    factor = (t_kelvin / T_REF) ** MU_TEMP_EXPONENT
    vth0 = params.vth0 - VTH_TEMP_COEFF * (t_kelvin - T_REF)
    if vth0 <= 0:
        raise ConfigError(f"the {params.polarity} threshold, {params.vth0:g} V at {T_REF:g} K, "
                          f"falls to {vth0:.3g} V at {t_kelvin:g} K; it must stay > 0")
    return DeviceParams(params.polarity, params.mu_cox * factor, vth0,
                        params.gamma, params.phi2f, params.cox_area)


def mismatch_scales(geoms: Iterable[TransistorGeom], avt: float = AVT_DEFAULT,
                    abeta: float = ABETA_DEFAULT) -> tuple[list[str], np.ndarray]:
    """Device names in sorted order and the standard deviations of their draws.

    Per transistor, delta_vth ~ N(0, avt/sqrt(W*L)) and the relative beta
    deviation ~ N(0, abeta/sqrt(W*L)); the scales interleave the two,
    ``[vth(names[0]), beta(names[0]), vth(names[1]), ...]``.
    """
    if avt < 0 or abeta < 0:
        raise ConfigError("mismatch coefficients must be >= 0")
    ordered = sorted(geoms, key=lambda g: g.name)
    scales = []
    for geom in ordered:
        root_area = math.sqrt(geom.w * geom.l)
        scales += [avt / root_area, abeta / root_area]
    return [geom.name for geom in ordered], np.array(scales)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the PCG64
# multiplier, for seeding many trials' streams in one pass.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _pcg64_seeds(seed: int, trials: Sequence[int]) -> np.ndarray:
    """``SeedSequence([seed, trial]).generate_state(4, uint64)`` of each trial.

    numpy's hash in uint32 arrays over the trial axis: the entropy words
    (seed's 32-bit words, then the trial's single word) are mixed into a
    4-word pool, which is hashed out into 8 words read as 4 little-endian
    uint64. The hash constants do not depend on the data, so every trial
    runs the same sequence of them.
    """
    n = len(trials)
    entropy = [np.full(n, seed >> shift & _MASK32, np.uint32)
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.fromiter(trials, np.uint32, n))
    entropy += [np.zeros(n, np.uint32)] * (4 - len(entropy))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        value = x * _MIX_MULT_L - y * _MIX_MULT_R
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for extra in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(extra))
    const = _INIT_B
    state = np.empty((n, 8), "<u4")
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        state[:, i] = value ^ value >> 16
    return state.view("<u8")


def _pcg64_state(seed_words: Sequence[int]) -> dict:
    """PCG64's ``bit_generator.state`` from its 4 seed words: ``srandom``
    with state ``words[0:2]`` and sequence ``words[2:4]``, high word first."""
    s_hi, s_lo, i_hi, i_lo = seed_words
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def draw_mismatch(seed: int, trials: Sequence[int], scales: np.ndarray,
                  columns: Sequence[int] | None = None) -> np.ndarray:
    """Deviations of each trial (seed, trial), one row per trial (at least one).

    Each trial has its own standard-normal stream, that of
    ``default_rng(SeedSequence([seed, trial]))``, drawn in the order of
    ``scales``; ``columns`` picks the entries kept (all by default), and a
    trial draws only up to the last kept one. ``0.0 + scale * z`` is what
    ``Generator.normal(0.0, scale)`` computes, overflow to inf and the sign
    of a zero included, so a row equals drawing each deviation on its own.

    numpy seeds the first trial's generator. The others get their PCG64
    states from ``_pcg64_seeds`` in one pass; the first trial's state must
    equal numpy's, else this numpy seeds differently and the call raises.
    A batch of more than one trial takes trial indices up to 2**32 - 1.
    """
    if columns is None:
        columns, width = slice(None), scales.size
    else:
        columns = np.arange(scales.size)[columns]
        width = int(columns.max(initial=-1)) + 1
    kept = scales[columns]
    z = np.empty((len(trials), kept.size))
    if len(trials) > 1 and not 0 <= min(trials) <= max(trials) <= _MASK32:
        raise ConfigError("trials: a batch of trials takes indices 0 to 2**32 - 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(trials[0])]))
    if len(trials) > 1:
        seeds = _pcg64_seeds(int(seed), trials)
        if _pcg64_state(seeds[0].tolist()) != rng.bit_generator.state:
            raise RuntimeError(f"numpy {np.__version__} seeds PCG64 unlike the "
                               "SeedSequence replica in dyncomp.devices")
    z[0] = rng.standard_normal(width)[columns]
    for row in range(1, len(trials)):
        rng.bit_generator.state = _pcg64_state(seeds[row].tolist())
        z[row] = rng.standard_normal(width)[columns]
    with np.errstate(over="ignore"):
        return 0.0 + z * kept


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


def default_geometry() -> dict[str, TransistorGeom]:
    """Default geometry set, every device at minimum length."""
    return {name: TransistorGeom(name, w * 1e-6, MIN_LENGTH, pol)
            for name, w, pol in _GEOM_TABLE}
