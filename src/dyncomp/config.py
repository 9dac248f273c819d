"""Run configuration: sectioned key=value parsing and object builders.

The config namespace is flat with dotted keys (section headers in files are
organizational only). ``auto`` resolves context-dependent defaults: the
common-mode voltage tracks vdd/2 and the calibration period tracks the clock.
Each key is declared once, in ``_KEYS`` or ``_PREFIXED``: parsing, range
checks and the emitted metadata all follow from those two tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from . import devices as dev
from .calibration import CalibrationConfig
from .devices import CORNERS, DEFAULT_NMOS, DEFAULT_PMOS, DeviceParams, default_geometry
from .engine import EXTRA_NODES, ComparatorConfig, OperatingPoint
from .errors import ConfigError


@dataclass
class RunConfig:
    """Flat run settings; model defaults are taken from the model classes."""

    vdd: float = ComparatorConfig.vdd
    vcm: float | None = None            # auto -> vdd/2
    vid: float = OperatingPoint.vid
    freq: float = ComparatorConfig.freq
    corner: str = OperatingPoint.corner.name
    temp_c: float = 27.0
    alpha: float = ComparatorConfig.alpha
    shutdown: bool = ComparatorConfig.early_shutdown_enabled
    tie_break: int = ComparatorConfig.tie_break
    tail_derating: float = ComparatorConfig.tail_derating
    gamma: float = DeviceParams.gamma
    phi2f: float = DeviceParams.phi2f
    cox_area: float = DeviceParams.cox_area
    nmos_mu_cox: float = DEFAULT_NMOS.mu_cox
    nmos_vth0: float = DEFAULT_NMOS.vth0
    pmos_mu_cox: float = DEFAULT_PMOS.mu_cox
    pmos_vth0: float = DEFAULT_PMOS.vth0
    avt: float = dev.AVT_DEFAULT
    abeta: float = dev.ABETA_DEFAULT
    extra: dict[str, float] = field(default_factory=dict)
    widths: dict[str, float] = field(default_factory=dict)
    lengths: dict[str, float] = field(default_factory=dict)
    sweep_variable: str | None = None
    sweep_start: float | None = None
    sweep_stop: float | None = None
    sweep_points: int | None = None
    sweep_scale: str = "linear"
    seed: int = 1
    trials: int = 500
    calibrate: bool = False
    cal_cycles: int = CalibrationConfig.n_cycles
    cal_phases: int = CalibrationConfig.n_phases
    cal_cb: float = CalibrationConfig.cb
    cal_c0: float = CalibrationConfig.c0
    cal_caps: tuple[float, ...] = CalibrationConfig.dac_caps
    cal_cp_beta: float = CalibrationConfig.cp_beta
    cal_cp_vthn: float = CalibrationConfig.cp_vthn
    cal_period: float | None = None     # auto -> 1/freq
    cal_vref: float | None = None       # auto -> vdd/2
    cal_tol: float = CalibrationConfig.tol_os
    cal_span: float = CalibrationConfig.span
    warnings: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Sweep:
    """One sweep.variable: its CSV value column, its default (start, stop,
    points) grid (None: the corner names in CORNERS order), and what one value
    sets, either OperatingPoint fields or the width of a sizing.scaled_config
    target."""

    column: str
    grid: tuple[float, float, int] | None
    fields: Callable[[RunConfig, object], dict] = lambda cfg, value: {}
    width_target: str | None = None
    plot_scale: str | None = None       # emitted as metadata for plotting


# Every sweep.variable, in the order the parser lists them.
SWEEPS = {
    "vid": Sweep("vid_V", (1e-3, 50e-3, 20), lambda cfg, v: {"vid": v}),
    "vcm": Sweep("vcm_V", (0.1, 1.1, 21), lambda cfg, v: {"vcm": v}, plot_scale="log"),
    "vdd": Sweep("vdd_V", (1.4, 2.0, 13),
                 lambda cfg, v: {"vdd_override": v, "vcm": resolve_vcm(cfg, v)}),
    "temp": Sweep("temp_C", (-20.0, 100.0, 13), lambda cfg, v: {"t_kelvin": v + 273.15}),
    "corner": Sweep("corner", None, lambda cfg, v: {"corner": CORNERS[v]}),
    "width_preamp": Sweep("w_m", (0.6e-6, 3.6e-6, 16), width_target="preamp"),
    "width_inv_n": Sweep("w_m", (0.22e-6, 0.88e-6, 12), width_target="inv_n"),
    "width_inv_both": Sweep("w_m", (0.22e-6, 0.88e-6, 12), width_target="inv_both"),
}


# -- parsers: (key, text) -> value, raising ConfigError that names the key -----


def _parse_float(key: str, value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return x


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_bool(key: str, value: str) -> bool:
    v = value.lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _parse_caps(key: str, value: str) -> tuple[float, ...]:
    parts = [p for p in value.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected a comma-separated list of capacitances")
    return tuple(_parse_float(key, p) for p in parts)


def _choice(*options: str, upper: bool = False) -> Callable[[str, str], str]:
    """Parser for one of ``options``, upper-casing the text first if asked."""
    def parse(key: str, value: str) -> str:
        name = value.upper() if upper else value
        if name not in options:
            raise ConfigError(f"{key}: unknown {value!r}; expected one of {options}")
        return name
    return parse


@dataclass(frozen=True)
class _Unset:
    """Parser for a key that may be left unset (None); ``words[0]`` is emitted for None."""

    parse: Callable[[str, str], object]
    words: tuple[str, ...] = ("auto", "none")

    def __call__(self, key: str, value: str):
        return None if value.lower() in self.words else self.parse(key, value)


# -- range checks: (predicate, rule quoted in the error) --------------------------

_POSITIVE = (lambda x: x > 0, "must be > 0")
_NONNEGATIVE = (lambda x: x >= 0, "must be >= 0")
_AT_LEAST_1 = (lambda x: x >= 1, "must be >= 1")

# Every scalar key, in the order resolved_metadata emits it: key -> (parser,
# range check or None).
_KEYS = {
    "vdd": (_parse_float, _POSITIVE),
    "vcm": (_Unset(_parse_float), _NONNEGATIVE),
    "vid": (_parse_float, None),
    "freq": (_parse_float, _POSITIVE),
    "corner": (_choice(*CORNERS, upper=True), None),
    "temp_c": (_parse_float, (lambda x: x > -273.15, "must be above absolute zero")),
    "alpha": (_parse_float, _AT_LEAST_1),
    "shutdown": (_parse_bool, None),
    "tie_break": (_parse_int, (lambda x: x in (1, -1), "must be +1 or -1")),
    "tail_derating": (_parse_float, (lambda x: 0.0 <= x < 1.0, "must be in [0, 1)")),
    "gamma": (_parse_float, _NONNEGATIVE),
    "phi2f": (_parse_float, _POSITIVE),
    "cox_area": (_parse_float, _POSITIVE),
    "nmos.mu_cox": (_parse_float, _POSITIVE),
    "nmos.vth0": (_parse_float, _POSITIVE),
    "pmos.mu_cox": (_parse_float, _POSITIVE),
    "pmos.vth0": (_parse_float, _POSITIVE),
    "avt": (_parse_float, _NONNEGATIVE),
    "abeta": (_parse_float, _NONNEGATIVE),
    "sweep.variable": (_Unset(_choice(*SWEEPS), ("none", "")), None),
    "sweep.start": (_Unset(_parse_float), None),
    "sweep.stop": (_Unset(_parse_float), None),
    "sweep.points": (_Unset(_parse_int), (lambda x: x >= 2, "must be >= 2")),
    "sweep.scale": (_choice("linear", "log"), None),
    "seed": (_parse_int, _NONNEGATIVE),
    "trials": (_parse_int, _AT_LEAST_1),
    "calibrate": (_parse_bool, None),
    "cal.cycles": (_parse_int, _AT_LEAST_1),
    "cal.phases": (_parse_int, _AT_LEAST_1),
    "cal.cb": (_parse_float, _POSITIVE),
    "cal.c0": (_parse_float, _POSITIVE),
    "cal.caps": (_parse_caps, _POSITIVE),
    "cal.cp_beta": (_parse_float, _POSITIVE),
    "cal.cp_vthn": (_parse_float, None),
    "cal.period": (_Unset(_parse_float), _POSITIVE),
    "cal.vref": (_Unset(_parse_float), None),
    "cal.tol": (_parse_float, _POSITIVE),
    "cal.span": (_parse_float, _POSITIVE),
}
# A key's RunConfig field is the key with its dots replaced by underscores.
_FIELDS = {key: key.replace(".", "_") for key in _KEYS}

# Keys "<prefix>.<name>" that set one entry of a RunConfig dict:
# prefix -> (RunConfig field, allowed names, range check).
_PREFIXED = {
    "w": ("widths", frozenset(default_geometry()), _POSITIVE),
    "l": ("lengths", frozenset(default_geometry()), _POSITIVE),
    "extra": ("extra", EXTRA_NODES, _NONNEGATIVE),
}


def _checked(key: str, value, check):
    """Apply a range check to a parsed value (to each item of a tuple)."""
    if check is not None and value is not None:
        ok, rule = check
        for x in value if isinstance(value, tuple) else (value,):
            if not ok(x):
                raise ConfigError(f"{key}: {rule}, got {x}")
    return value


def set_key(cfg: RunConfig, key: str, value: str) -> None:
    """Apply one key=value pair, validating range invariants by name."""
    k = key.strip()
    v = value.strip()
    if k in _KEYS:
        parse, check = _KEYS[k]
        setattr(cfg, _FIELDS[k], _checked(k, parse(k, v), check))
        return
    prefix, _, name = k.partition(".")
    if prefix not in _PREFIXED:
        raise ConfigError(f"unknown config key {key!r}")
    field_name, names, check = _PREFIXED[prefix]
    if name not in names:
        raise ConfigError(f"{k}: unknown name {name!r}")
    getattr(cfg, field_name)[name] = _checked(k, _parse_float(k, v), check)


def parse_config(text: str) -> RunConfig:
    """Parse sectioned key=value text into a RunConfig.

    Unknown keys are rejected by name, parse errors carry the line number,
    and duplicate keys follow last-wins with a recorded warning.
    """
    cfg = RunConfig()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            continue  # section headers are organizational only
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        try:
            set_key(cfg, key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        if key in seen:
            cfg.warnings.append(f"duplicate key {key!r}: last value wins")
        seen.add(key)
    return cfg


def apply_overrides(cfg: RunConfig, pairs: Iterable[str]) -> RunConfig:
    """Apply repeated --set key=value flags on top of the parsed config."""
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        set_key(cfg, key.strip(), value)
    return cfg


# -- builders ------------------------------------------------------------------


def build_device_params(cfg: RunConfig) -> tuple[DeviceParams, DeviceParams]:
    nmos = DeviceParams(dev.NMOS, cfg.nmos_mu_cox, cfg.nmos_vth0,
                        cfg.gamma, cfg.phi2f, cfg.cox_area)
    pmos = DeviceParams(dev.PMOS, cfg.pmos_mu_cox, cfg.pmos_vth0,
                        cfg.gamma, cfg.phi2f, cfg.cox_area)
    return nmos, pmos


def build_comparator_config(cfg: RunConfig) -> ComparatorConfig:
    geoms = default_geometry()
    for name, w in cfg.widths.items():
        geoms[name] = replace(geoms[name], w=w)
    for name, l in cfg.lengths.items():
        geoms[name] = replace(geoms[name], l=l)
    nmos, pmos = build_device_params(cfg)
    return ComparatorConfig(
        geoms=geoms, nmos=nmos, pmos=pmos, vdd=cfg.vdd, freq=cfg.freq,
        alpha=cfg.alpha, extra_load=dict(cfg.extra),
        early_shutdown_enabled=cfg.shutdown,
        tail_derating=cfg.tail_derating, tie_break=cfg.tie_break)


def resolve_vcm(cfg: RunConfig, vdd: float | None = None) -> float:
    return cfg.vcm if cfg.vcm is not None else (vdd if vdd is not None else cfg.vdd) / 2.0


def build_operating_point(cfg: RunConfig, **overrides) -> OperatingPoint:
    fields = dict(
        vid=cfg.vid,
        vcm=resolve_vcm(cfg),
        corner=CORNERS[cfg.corner],
        t_kelvin=cfg.temp_c + 273.15,
        vdd_override=None,
    )
    fields.update(overrides)
    return OperatingPoint(**fields)


def build_calibration_config(cfg: RunConfig) -> CalibrationConfig:
    return CalibrationConfig(
        n_cycles=cfg.cal_cycles, n_phases=cfg.cal_phases, cb=cfg.cal_cb,
        c0=cfg.cal_c0, dac_caps=cfg.cal_caps, cp_beta=cfg.cal_cp_beta,
        cp_vthn=cfg.cal_cp_vthn, t_period=cfg.cal_period,
        v_ref_input=cfg.cal_vref, tol_os=cfg.cal_tol, span=cfg.cal_span)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(repr(float(x)) for x in value)
    return str(value)


def resolved_metadata(cfg: RunConfig) -> dict[str, str]:
    """Full resolved configuration as ordered key -> string pairs.

    Feeding these pairs back through set_key reproduces the run exactly;
    geometry and load overrides appear only when set (defaults are pinned
    by the tool version).
    """
    meta: dict[str, str] = {}
    for key, (parse, _) in _KEYS.items():
        value = getattr(cfg, _FIELDS[key])
        meta[key] = parse.words[0] if value is None else _fmt(value)
    for prefix, (field_name, _, _) in _PREFIXED.items():
        entries = getattr(cfg, field_name)
        for name in sorted(entries):
            meta[f"{prefix}.{name}"] = _fmt(entries[name])
    for i, warning in enumerate(cfg.warnings):
        meta[f"warning.{i}"] = warning
    return meta


def config_from_metadata(meta: dict[str, str]) -> RunConfig:
    """Rebuild a RunConfig from emitted metadata pairs (round-trip)."""
    cfg = RunConfig()
    for key, value in meta.items():
        if (key.startswith("warning.") or key.startswith("result.")
                or key in ("tool", "version", "subcommand", "plot_scale", "compare")):
            continue
        set_key(cfg, key, value)
    return cfg
