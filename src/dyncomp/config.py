"""Run configuration: sectioned key=value parsing and object builders.

The config namespace is flat with dotted keys (section headers in files are
organizational only). ``auto`` resolves context-dependent defaults: the
common-mode voltage tracks vdd/2 and the calibration period tracks the clock.

Each key is declared once. A scalar key's ``_KEYS`` entry gives its
``RunConfig`` field (the key with dots as underscores), its default and its
range rule (a model key's are read from the model class), its parser and its
place in the emitted metadata. A ``_PREFIXED`` entry gives the ``RunConfig``
dict that its ``<prefix>.<name>`` keys fill, the names allowed and their
range rule. ``RunConfig`` is built from the two tables, plus its
``warnings`` list.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Iterable, NamedTuple

from . import devices as dev
from .calibration import CalibrationConfig
from .devices import CORNERS, DEFAULT_NMOS, DEFAULT_PMOS, DeviceParams, default_geometry
from .engine import EXTRA_NODES, ComparatorConfig, OperatingPoint
from .errors import NONNEGATIVE, POSITIVE, ConfigError, checked


class Sweep(NamedTuple):
    """One sweep.variable: its CSV value column, its default (start, stop,
    points) grid (None: the corner names in CORNERS order), and what an array
    of values sets, OperatingPoint fields and the supply ``vdd``, each a column
    or one value for all, or a sizing.WIDTH_TARGETS target's width; run_sweep
    makes them per-row columns of one engine's grid."""

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
                 lambda cfg, v: {"vdd": v, "vcm": resolve_vcm(cfg, v)}),
    "temp": Sweep("temp_C", (-20.0, 100.0, 13), lambda cfg, v: {"t_kelvin": v + 273.15}),
    "corner": Sweep("corner", None, lambda cfg, v: {"corner": [CORNERS[c] for c in v]}),
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
    parts = value.split(",")
    if not all(p.strip() for p in parts):
        raise ConfigError(f"{key}: expected a comma-separated list of capacitances "
                          f"with no empty entry, got {value!r}")
    return tuple(_parse_float(key, p) for p in parts)


def _choice(*options: str, upper: bool = False) -> Callable[[str, str], str]:
    """Parser for one of ``options``, upper-casing the text first if asked."""
    def parse(key: str, value: str) -> str:
        name = value.upper() if upper else value
        if name not in options:
            raise ConfigError(f"{key}: unknown {value!r}; expected one of {options}")
        return name
    return parse


class _Unset(NamedTuple):
    """Parser for a key that may be left unset (None); ``words[0]`` is emitted for None."""

    parse: Callable[[str, str], object]
    words: tuple[str, ...] = ("auto", "none")

    def __call__(self, key: str, value: str):
        return None if value.lower() in self.words else self.parse(key, value)


def _model(model, name: str) -> tuple:
    """A model field's (range rule, default), as its key reads them from ``model``."""
    return model.RULES[name], getattr(model, name)


# Every scalar key, in the order resolved_metadata emits it: key -> (parser,
# range rule (errors.checked) or None, default).
_KEYS = {
    "vdd": (_parse_float, *_model(ComparatorConfig, "vdd")),
    "vcm": (_Unset(_parse_float), NONNEGATIVE, None),           # auto -> vdd/2
    "vid": (_parse_float, None, OperatingPoint.vid),
    "freq": (_parse_float, *_model(ComparatorConfig, "freq")),
    "corner": (_choice(*CORNERS, upper=True), None, OperatingPoint.corner.name),
    "temp_c": (_parse_float, (lambda x: x > -273.15, "must be above absolute zero"), 27.0),
    "alpha": (_parse_float, *_model(ComparatorConfig, "alpha")),
    "shutdown": (_parse_bool, None, ComparatorConfig.early_shutdown_enabled),
    "tie_break": (_parse_int, *_model(ComparatorConfig, "tie_break")),
    "tail_derating": (_parse_float, *_model(ComparatorConfig, "tail_derating")),
    "gamma": (_parse_float, *_model(DeviceParams, "gamma")),
    "phi2f": (_parse_float, *_model(DeviceParams, "phi2f")),
    "cox_area": (_parse_float, *_model(DeviceParams, "cox_area")),
    "nmos.mu_cox": (_parse_float, *_model(DEFAULT_NMOS, "mu_cox")),
    "nmos.vth0": (_parse_float, *_model(DEFAULT_NMOS, "vth0")),
    "pmos.mu_cox": (_parse_float, *_model(DEFAULT_PMOS, "mu_cox")),
    "pmos.vth0": (_parse_float, *_model(DEFAULT_PMOS, "vth0")),
    "avt": (_parse_float, dev.PELGROM_RULE, dev.AVT_DEFAULT),
    "abeta": (_parse_float, dev.PELGROM_RULE, dev.ABETA_DEFAULT),
    "sweep.variable": (_Unset(_choice(*SWEEPS), ("none", "")), None, None),
    "sweep.start": (_Unset(_parse_float), None, None),
    "sweep.stop": (_Unset(_parse_float), None, None),
    "sweep.points": (_Unset(_parse_int), (lambda x: x >= 2, "must be >= 2"), None),
    "sweep.scale": (_choice("linear", "log"), None, "linear"),
    "seed": (_parse_int, NONNEGATIVE, 1),
    "trials": (_parse_int, (lambda x: 1 <= x <= 2**32, "must be in [1, 2**32]"), 500),
    "calibrate": (_parse_bool, None, False),
    "cal.cycles": (_parse_int, *_model(CalibrationConfig, "n_cycles")),
    "cal.phases": (_parse_int, *_model(CalibrationConfig, "n_phases")),
    "cal.cb": (_parse_float, *_model(CalibrationConfig, "cb")),
    "cal.c0": (_parse_float, *_model(CalibrationConfig, "c0")),
    "cal.caps": (_parse_caps, *_model(CalibrationConfig, "dac_caps")),
    "cal.cp_beta": (_parse_float, *_model(CalibrationConfig, "cp_beta")),
    "cal.cp_vthn": (_parse_float, None, CalibrationConfig.cp_vthn),
    "cal.period": (_Unset(_parse_float), *_model(CalibrationConfig, "t_period")),  # auto -> 1/freq
    "cal.vref": (_Unset(_parse_float), None, None),             # auto -> vdd/2
    "cal.tol": (_parse_float, *_model(CalibrationConfig, "tol_os")),
    "cal.span": (_parse_float, *_model(CalibrationConfig, "span")),
}
# A key's RunConfig field is the key with its dots replaced by underscores.
_FIELDS = {key: key.replace(".", "_") for key in _KEYS}

# Keys "<prefix>.<name>" that set one entry of a RunConfig dict:
# prefix -> (RunConfig field, allowed names, range rule).
_PREFIXED = {
    "w": ("widths", frozenset(default_geometry()), POSITIVE),
    "l": ("lengths", frozenset(default_geometry()), POSITIVE),
    "extra": ("extra", EXTRA_NODES, ComparatorConfig.EXTRA_LOAD_RULE),
}

# RunConfig's fields: one per scalar key with its default, then one dict per
# prefix and the warnings list, each made anew for every RunConfig.
_DEFAULTS = {_FIELDS[key]: default for key, (_, _, default) in _KEYS.items()}
_CONTAINERS = {**{name: dict for name, _, _ in _PREFIXED.values()}, "warnings": list}


class RunConfig:
    """Flat run settings: one field per key of _KEYS and prefix of _PREFIXED,
    plus ``warnings``. Fields are set by keyword; configs are equal where
    every field is."""

    __hash__ = None     # mutable

    def __init__(self, **fields):
        values = self.__dict__
        values.update(_DEFAULTS)
        for name, make in _CONTAINERS.items():
            values[name] = make()
        if not fields.keys() <= values.keys():
            raise TypeError(f"RunConfig got unexpected fields {sorted(fields.keys() - values.keys())}")
        values.update(fields)

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is RunConfig else NotImplemented

    def __repr__(self):
        return f"RunConfig({', '.join(f'{n}={v!r}' for n, v in vars(self).items())})"


def is_default(cfg: RunConfig, key: str) -> bool:
    """Whether the scalar ``key`` holds its declared default in ``cfg``."""
    return getattr(cfg, _FIELDS[key]) == _KEYS[key][2]


def set_key(cfg: RunConfig, key: str, value: str) -> None:
    """Apply one key=value pair, validating range invariants by name."""
    k = key.strip()
    v = value.strip()
    if k in _KEYS:
        parse, rule, _ = _KEYS[k]
        value = parse(k, v)
        setattr(cfg, _FIELDS[k], value if rule is None else checked(k, value, rule))
        return
    prefix, _, name = k.partition(".")
    if prefix not in _PREFIXED:
        raise ConfigError(f"unknown config key {key!r}")
    field_name, names, rule = _PREFIXED[prefix]
    if name not in names:
        raise ConfigError(f"{k}: unknown name {name!r}")
    getattr(cfg, field_name)[name] = checked(k, _parse_float(k, v), rule)


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
    # A geometry key's prefix is the TransistorGeom field it sets.
    for prefix, entries in (("w", cfg.widths), ("l", cfg.lengths)):
        for name, value in entries.items():
            try:
                geoms[name] = replace(geoms[name], **{prefix: value})
            except ConfigError as exc:
                raise ConfigError(f"{prefix}.{name}: {exc}") from None
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
    )
    fields.update(overrides)
    return OperatingPoint(**fields)


def build_calibration_config(cfg: RunConfig) -> CalibrationConfig:
    """The calibration knobs, checked by key against the supply and the span:
    the cycles' common mode and the bisection's ends must be valid inputs, and
    the bisection must take a step."""
    vdd, span = cfg.vdd, cfg.cal_span
    if cfg.cal_vref is not None and not 0.0 <= cfg.cal_vref <= vdd:
        raise ConfigError(f"cal.vref: must be in [0, vdd={vdd}], got {cfg.cal_vref}")
    if not span < vdd:
        raise ConfigError(f"cal.span: must be below vdd={vdd}, got {span}")
    if not cfg.cal_tol < 2.0 * span:
        raise ConfigError(f"cal.tol: must be below 2*cal.span={2.0 * span}, got {cfg.cal_tol}")
    return CalibrationConfig(
        n_cycles=cfg.cal_cycles, n_phases=cfg.cal_phases, cb=cfg.cal_cb,
        c0=cfg.cal_c0, dac_caps=cfg.cal_caps, cp_beta=cfg.cal_cp_beta,
        cp_vthn=cfg.cal_cp_vthn, t_period=cfg.cal_period,
        v_ref_input=cfg.cal_vref, tol_os=cfg.cal_tol, span=cfg.cal_span)


# A value's metadata text by its type; any other type's is its str().
_FORMATS = {bool: lambda v: "true" if v else "false", float: repr,
            tuple: lambda v: ",".join(repr(float(x)) for x in v)}
# (key, RunConfig field, default, the default's text) of every scalar key, in
# _KEYS order. A default of None (unset) is emitted as the key's first unset word.
_METADATA = [(key, _FIELDS[key], default,
              parse.words[0] if default is None else _FORMATS.get(type(default), str)(default))
             for key, (parse, _, default) in _KEYS.items()]


def resolved_metadata(cfg: RunConfig) -> dict[str, str]:
    """Full resolved configuration as ordered key -> string pairs.

    Feeding these pairs back through set_key reproduces the run exactly;
    geometry and load overrides appear only when set (defaults are pinned
    by the tool version).
    """
    values, meta = vars(cfg), {}
    for key, name, default, text in _METADATA:
        value = values[name]    # a key left at its default object keeps that text
        meta[key] = text if value is default else _FORMATS.get(type(value), str)(value)
    for prefix, (field_name, _, _) in _PREFIXED.items():
        entries = values[field_name]
        for name in sorted(entries):
            meta[f"{prefix}.{name}"] = repr(entries[name])
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
